"""Blocks + manifests + resume + retention (FIXTURES.md §3 resume/retention)."""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from beamium_ray.config import EngineConfig
from beamium_ray.pipelines.persist import read_blocks, rollup_to_blocks
from beamium_ray.state.manifest import load_committed, input_fingerprint
from beamium_ray.state.retention import apply_retention

OUT = "/tmp/beamium_ray_test_out"


def _mk_dp(n=20000, seed=3):
    rng = np.random.default_rng(seed)
    return pa.table(
        {
            "series_key": pa.array(
                rng.choice([f"s{i}" for i in range(30)], n).tolist(), pa.string()
            ),
            "ts": pa.array(rng.integers(0, 50_000_000, n), pa.int64()),
            "value": pa.array(np.round(rng.normal(0, 5, n), 2), pa.float64()),
            "order": pa.array(np.arange(n), pa.int64()),
        }
    )


@pytest.fixture
def cfg():
    return EngineConfig(
        tiers={"1m": 60_000, "1h": 3_600_000},
        num_buckets=8,
        output_dir=OUT,
    )


def _fresh():
    shutil.rmtree(OUT, ignore_errors=True)


def test_blocks_roundtrip_and_resume(ray_session, cfg):
    import ray.data

    _fresh()
    t = _mk_dp()
    ds = ray.data.from_arrow(t).repartition(4)
    run, rows = rollup_to_blocks(ds, cfg, ["memory://dp"], OUT)
    assert run["buckets_committed"] == list(range(8))
    assert run["counters"]["points_rolled"] == t.num_rows
    assert run["watermark"] is not None

    # blocks decode to exactly the merged rollup
    back = read_blocks(OUT, "1m")
    assert pc.sum(back["n"]).as_py() == t.num_rows
    back_1h = read_blocks(OUT, "1h")
    assert pc.sum(back_1h["n"]).as_py() == t.num_rows

    # resume: delete 3 bucket manifests → only those re-roll
    fp = input_fingerprint(["memory://dp"])
    before = load_committed(OUT, fp, cfg.config_hash())
    for b in [1, 4, 6]:
        os.remove(os.path.join(OUT, "_manifests", f"bucket={b:05d}.json"))
    run2, rows2 = rollup_to_blocks(
        ray.data.from_arrow(t).repartition(4), cfg, ["memory://dp"], OUT
    )
    assert run2["buckets_committed"] == list(range(8))
    redone = set(rows2["bucket"].to_pylist())
    assert redone == {1, 4, 6}  # committed buckets skipped pre-shuffle
    after = load_committed(OUT, fp, cfg.config_hash())
    for b in range(8):
        if b not in (1, 4, 6):
            assert after[b]["committed_at"] == before[b]["committed_at"]
    # identical final content
    assert pc.sum(read_blocks(OUT, "1m")["n"]).as_py() == t.num_rows

    # config change → full re-roll (different config_hash)
    cfg2 = EngineConfig(
        tiers={"1m": 60_000, "1h": 3_600_000}, num_buckets=8, output_dir=OUT,
        labels="env=prod",
    )
    run3, rows3 = rollup_to_blocks(
        ray.data.from_arrow(t).repartition(4), cfg2, ["memory://dp"], OUT
    )
    assert set(rows3["bucket"].to_pylist()) == set(range(8))


def test_retention_ttl_and_size(ray_session, cfg):
    import ray.data

    _fresh()
    t = _mk_dp()
    ds = ray.data.from_arrow(t).repartition(4)
    run, rows = rollup_to_blocks(ds, cfg, ["memory://dp"], OUT)
    total = run["total_block_bytes"]

    # TTL: horizon cutting off everything below now-ttl for 1m only
    now = 50_000_000
    c = apply_retention(OUT, ttl_us={"1m": 10_000}, max_bytes=None, now_us=now)
    assert c["blocks_ttl_evicted"] == 8  # all 1m blocks end before horizon
    import glob as _glob

    assert not _glob.glob(os.path.join(OUT, "tier=1m", "bucket=00000", "block-*.bin"))
    assert _glob.glob(os.path.join(OUT, "tier=1h", "bucket=00000", "block-*.bin"))

    # size cap: keep under half of remaining → oldest evicted first
    c2 = apply_retention(OUT, max_bytes=c["bytes_after"] // 2)
    assert c2["blocks_size_evicted"] > 0
    assert c2["bytes_after"] <= c["bytes_after"] // 2


def test_retention_refolds_the_run_manifest(ray_session, cfg):
    """An eviction after the commit re-folds ``_run/manifest.json``:
    it and the run dict count the blocks left, not the ones rolled."""
    import ray.data

    from beamium_ray.state.manifest import plan
    from beamium_ray.state.retention import retain_after_commit

    _fresh()
    ds = ray.data.from_arrow(_mk_dp()).repartition(4)
    run, _ = rollup_to_blocks(ds, cfg, ["memory://dp"], OUT)
    assert run["n_blocks"] == 16
    cfg.ttl_us = {"1m": 10_000}  # every 1m block ends before the horizon
    retain_after_commit(OUT, cfg, run)
    assert run["retention"]["blocks_ttl_evicted"] == 8
    left = plan(OUT)
    with open(os.path.join(OUT, "_run", "manifest.json")) as f:
        on_disk = json.load(f)
    for m in (run, on_disk):
        assert m["n_blocks"] == len(left) == 8
        assert m["total_block_bytes"] == sum(
            os.path.getsize(b["path"]) for b in left
        )
        assert m["fingerprint"] == input_fingerprint(["memory://dp"])


def test_default_config_coalesces_to_the_cpu_count(ray_session, cfg):
    """``shuffle_blocks`` unset coalesces the rollup partials to the
    cluster's CPU count, in both rollup entry points, and rolls the same
    blocks as setting it to that count."""
    import dataclasses

    import ray.data

    from beamium_ray.functions.cluster import cluster_cpus
    from beamium_ray.pipelines.rollup_pipeline import rollup_from_datapoints
    from beamium_ray.state.manifest import plan

    cpus = cluster_cpus()
    assert cfg.shuffle_blocks is None and cfg.rollup_shuffle_blocks() == cpus
    ds = ray.data.from_arrow(_mk_dp()).repartition(4)

    def coalesces(op):
        return (type(op).__name__ == "Repartition" and op._keys is None
                and op._num_outputs == cpus) or any(
            coalesces(d) for d in op.input_dependencies)

    assert coalesces(rollup_from_datapoints(ds, cfg)._logical_plan.dag)
    shas = []
    for c in (cfg, dataclasses.replace(cfg, shuffle_blocks=cpus)):
        _fresh()
        rollup_to_blocks(ds, c, ["memory://dp"], OUT)
        shas.append(sorted(b["sha256"] for b in plan(OUT)))
    assert shas[0] == shas[1] and len(shas[0]) == 16


def test_append_after_base_ttl_preserves_coarse_history(ray_session, cfg):
    """The standard downsample-and-keep-longer pattern: TTL evicts the
    base (1m) blocks, the coarse (1h) blocks survive. A later append
    must fold the increment into each tier's OWN prior state — a
    base-only re-derive would rebuild 1h from the truncated base and
    the post-commit GC would delete the surviving 1h block, silently
    destroying the downsampled history."""
    import ray.data

    from beamium_ray.pipelines.persist import append_rollup

    _fresh()
    t = _mk_dp()
    rollup_to_blocks(
        ray.data.from_arrow(t).repartition(4), cfg, ["memory://dp"], OUT
    )
    before_1h = read_blocks(OUT, "1h").filter(pc.greater(pc.field("n"), 0))
    assert pc.sum(before_1h["n"]).as_py() == t.num_rows

    # evict ALL base-tier blocks; 1h untouched
    c = apply_retention(
        OUT, ttl_us={"1m": 10_000}, max_bytes=None, now_us=50_000_000
    )
    assert c["blocks_ttl_evicted"] == 8

    # append strictly-later points
    t2 = _mk_dp(n=5000, seed=7)
    t2 = t2.set_column(
        t2.column_names.index("ts"),
        "ts",
        pa.array(t2["ts"].to_numpy() + 100_000_000, pa.int64()),
    )
    append_rollup(
        ray.data.from_arrow(t2).repartition(2), cfg, ["mem://later"], OUT
    )

    # 1m state: only the new points (base history was evicted)
    after_1m = read_blocks(OUT, "1m").filter(pc.greater(pc.field("n"), 0))
    assert pc.sum(after_1m["n"]).as_py() == t2.num_rows

    # 1h state: FULL history — prior windows byte-identical, plus the
    # new points
    after_1h = read_blocks(OUT, "1h").filter(pc.greater(pc.field("n"), 0))
    assert pc.sum(after_1h["n"]).as_py() == t.num_rows + t2.num_rows
    # old data spans ts<50M → last old 1h window starts at 46.8M; the
    # first new window (ts≥100M) starts at 97.2M
    old = after_1h.filter(pc.less(pc.field("window_start"), 50_000_000))
    key = [("series_key", "ascending"), ("window_start", "ascending")]
    old = old.sort_by(key)
    want = before_1h.sort_by(key)
    assert old.select(want.column_names).equals(want)


def test_retention_that_evicts_nothing_writes_nothing(ray_session, cfg):
    """The watch daemon runs retention on every tick, mostly with a TTL
    that does not fire: no manifest may be rewritten then."""
    import ray.data

    _fresh()
    rollup_to_blocks(
        ray.data.from_arrow(_mk_dp(n=4000)).repartition(2), cfg,
        ["memory://dp"], OUT,
    )
    mdir = os.path.join(OUT, "_manifests")

    def stats():
        return {n: (st.st_mtime_ns, st.st_ino)
                for n in sorted(os.listdir(mdir))
                for st in [os.stat(os.path.join(mdir, n))]}

    before = stats()
    assert len(before) == cfg.num_buckets
    c = apply_retention(OUT, ttl_us={"1m": 10**15}, max_bytes=10**12,
                        now_us=50_000_000)
    assert c["blocks_ttl_evicted"] == 0 and c["blocks_size_evicted"] == 0
    assert stats() == before


def test_manifest_is_crash_safe(cfg):
    _fresh()
    os.makedirs(os.path.join(OUT, "_manifests"), exist_ok=True)
    # torn manifest JSON → ignored, bucket treated as uncommitted
    with open(os.path.join(OUT, "_manifests", "bucket=00000.json"), "w") as f:
        f.write('{"bucket": 0, "finger')
    assert load_committed(OUT, "x", "y") == {}


def test_stale_manifests_invisible_to_readers(ray_session, cfg):
    """Reusing an output dir for a FRESH run over different input must
    not leak the previous run's buckets into reads (ADVICE r1): readers
    filter bucket manifests through the committed _run manifest's
    config_hash + fingerprint."""
    import ray.data

    from beamium_ray.pipelines.persist import read_blocks_dataset

    _fresh()
    ds_a = ray.data.from_arrow(_mk_dp(seed=3)).repartition(4)
    rollup_to_blocks(ds_a, cfg, ["memory://a"], OUT)

    # fresh run, SAME dir, different (smaller) input: only 5 series so
    # several buckets own no data and keep their stale manifests
    small = _mk_dp(n=500, seed=4)
    small = small.set_column(
        0, "series_key",
        pa.array(["only-s0"] * small.num_rows, pa.string()),
    )
    ds_b = ray.data.from_arrow(small).repartition(2)
    run_b, _ = rollup_to_blocks(ds_b, cfg, ["memory://b"], OUT)

    got = read_blocks(OUT, "1m")
    # every decoded row belongs to run B's single series — nothing stale
    assert set(got["series_key"].to_pylist()) == {"only-s0"}
    assert int(pc.sum(got["n"]).as_py()) == small.num_rows
    ds_rows = read_blocks_dataset(OUT, "1m").take_all()
    assert {r["series_key"] for r in ds_rows} == {"only-s0"}

    # an append publishes every bucket of its config: run A's buckets
    # that B did not rewrite must be gone, not merely hidden, or they
    # come back here — only B ∪ C is readable
    from beamium_ray.pipelines.persist import append_rollup

    c = _mk_dp(n=300, seed=5)
    c = c.set_column(0, "series_key", pa.array(["only-s0"] * c.num_rows))
    run_c, _ = append_rollup(ray.data.from_arrow(c), cfg, ["memory://c"], OUT)
    got = read_blocks(OUT, "1m")
    assert set(got["series_key"].to_pylist()) == {"only-s0"}
    assert int(pc.sum(got["n"]).as_py()) == small.num_rows + c.num_rows
    assert run_c["counters"]["points_rolled"] == small.num_rows + c.num_rows
    assert run_c["buckets_committed"] == run_b["buckets_committed"]
