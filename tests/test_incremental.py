"""Continuous aggregates: append new input into existing blocks."""

from __future__ import annotations

import shutil

import pytest

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from beamium_ray.config import EngineConfig
from beamium_ray.pipelines.persist import (
    append_rollup,
    read_blocks,
    rollup_to_blocks,
)

OUT = "/tmp/beamium_ray_incr"


def _points(seed, n, order_base):
    rng = np.random.default_rng(seed)
    return pa.table(
        {
            "series_key": pa.array(
                rng.choice([f"s{i}" for i in range(20)], n).tolist(), pa.string()
            ),
            "ts": pa.array(rng.integers(0, 20_000_000, n), pa.int64()),
            "value": pa.array(np.round(rng.normal(0, 5, n), 2), pa.float64()),
            "order": pa.array(np.arange(order_base, order_base + n), pa.int64()),
        }
    )


def _cmp(a: pa.Table, b: pa.Table):
    key = [("series_key", "ascending"), ("window_start", "ascending")]
    a, b = a.sort_by(key), b.sort_by(key)
    assert a.num_rows == b.num_rows
    for col in ["series_key", "window_start", "vmin", "vmax", "n", "last", "last_ts"]:
        assert a[col].to_pylist() == b[col].to_pylist(), col
    assert np.allclose(
        np.nan_to_num(a["vsum"].to_numpy(zero_copy_only=False).astype(float)),
        np.nan_to_num(b["vsum"].to_numpy(zero_copy_only=False).astype(float)),
        rtol=1e-9,
    )


def test_append_equals_full_rerun(ray_session):
    import ray.data

    cfg = EngineConfig(
        tiers={"1m": 60_000, "1h": 3_600_000}, num_buckets=8, output_dir=OUT
    )
    a = _points(1, 15000, 0)
    b = _points(2, 12000, 15000)

    # incremental: roll A, then append B
    shutil.rmtree(OUT, ignore_errors=True)
    run1, _ = rollup_to_blocks(
        ray.data.from_arrow(a).repartition(4), cfg, ["mem://a"], OUT
    )
    run2, rows2 = append_rollup(
        ray.data.from_arrow(b).repartition(4), cfg, ["mem://b"], OUT
    )
    got_1m = read_blocks(OUT, "1m")
    got_1h = read_blocks(OUT, "1h")
    assert run2["counters"]["points_rolled"] == 27000
    # one run-manifest fold, two shapes: the append run carries no
    # fingerprint (committed_bucket_manifests keys on its absence)
    fold_keys = {"config_hash", "buckets_committed", "n_blocks",
                 "total_block_bytes", "counters", "watermark"}
    assert set(run1) == fold_keys | {"fingerprint"}
    assert set(run2) == fold_keys
    assert run2["buckets_committed"] == list(range(8))

    # reference: roll A ∪ B from scratch
    full = "/tmp/beamium_ray_incr_full"
    shutil.rmtree(full, ignore_errors=True)
    cfg_full = EngineConfig(
        tiers={"1m": 60_000, "1h": 3_600_000}, num_buckets=8, output_dir=full
    )
    rollup_to_blocks(
        ray.data.from_arrow(pa.concat_tables([a, b])).repartition(4),
        cfg_full,
        ["mem://ab"],
        full,
    )
    want_1m = read_blocks(full, "1m")
    want_1h = read_blocks(full, "1h")
    _cmp(got_1m, want_1m)
    _cmp(got_1h, want_1h)

    # idempotent: re-appending the same input changes nothing
    run3, rows3 = append_rollup(
        ray.data.from_arrow(b).repartition(4), cfg, ["mem://b"], OUT
    )
    assert rows3.num_rows == 0  # every bucket skipped
    _cmp(read_blocks(OUT, "1m"), want_1m)

    # third append still correct
    c = _points(3, 9000, 27000)
    append_rollup(ray.data.from_arrow(c).repartition(4), cfg, ["mem://c"], OUT)
    assert (
        pc.sum(read_blocks(OUT, "1m")["n"]).as_py() == 36000
    )
    shutil.rmtree(OUT, ignore_errors=True)
    shutil.rmtree(full, ignore_errors=True)


def test_append_crash_window_no_double_count(ray_session):
    """Crash between block write and manifest commit must not double-count:
    block paths are versioned and only the manifest commit switches the
    pointer, so a rerun re-reads the OLD block (code-review finding)."""
    import os

    import ray.data

    out = "/tmp/beamium_ray_crashwin"
    shutil.rmtree(out, ignore_errors=True)
    cfg = EngineConfig(tiers={"1m": 60_000}, num_buckets=4, output_dir=out)
    a = _points(5, 8000, 0)
    b = _points(6, 6000, 8000)
    rollup_to_blocks(ray.data.from_arrow(a).repartition(2), cfg, ["mem://a"], out)

    # simulate the crash window: an orphan merged block exists on disk
    # (written, never committed) — manifests still point at the A-only block
    for bdir in os.listdir(os.path.join(out, "tier=1m")):
        src = os.listdir(os.path.join(out, "tier=1m", bdir))[0]
        with open(os.path.join(out, "tier=1m", bdir, src), "rb") as f:
            payload = f.read()
        with open(os.path.join(out, "tier=1m", bdir, "block-deadbeef.bin"), "wb") as f:
            f.write(payload)

    append_rollup(ray.data.from_arrow(b).repartition(2), cfg, ["mem://b"], out)
    got = read_blocks(out, "1m")
    assert pc.sum(got["n"]).as_py() == 14000  # no double count
    # orphans GC'd after the commit
    for bdir in os.listdir(os.path.join(out, "tier=1m")):
        names = os.listdir(os.path.join(out, "tier=1m", bdir))
        assert "block-deadbeef.bin" not in names
        assert len(names) == 1
    shutil.rmtree(out, ignore_errors=True)


def test_append_refuses_config_mismatch(ray_session):
    import ray.data

    out = "/tmp/beamium_ray_incr_cfg"
    shutil.rmtree(out, ignore_errors=True)
    cfg = EngineConfig(tiers={"1m": 60_000}, num_buckets=4, output_dir=out)
    a = _points(7, 5000, 0)
    rollup_to_blocks(ray.data.from_arrow(a).repartition(2), cfg, ["mem://a"], out)

    cfg2 = EngineConfig(
        tiers={"1m": 60_000}, num_buckets=4, output_dir=out, labels="env=x"
    )
    with pytest.raises(Exception, match="append refused"):
        append_rollup(
            ray.data.from_arrow(a).repartition(2), cfg2, ["mem://b"], out
        )
    # operational knobs do NOT change the semantic hash → append works
    cfg3 = EngineConfig(
        tiers={"1m": 60_000}, num_buckets=4, output_dir="/elsewhere",
        shuffle_blocks=2, max_bytes=10**12,
    )
    assert cfg3.config_hash() == cfg.config_hash()
    b = _points(8, 3000, 5000)
    run, _ = append_rollup(
        ray.data.from_arrow(b).repartition(2), cfg3, ["mem://b"], out
    )
    assert run["counters"]["points_rolled"] == 8000
    shutil.rmtree(out, ignore_errors=True)
