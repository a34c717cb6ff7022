"""Store integrity checker: manifest↔block lineage verification
(state/fsck.py) over a real rolled store, plus targeted corruption."""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa

from beamium_ray.config import EngineConfig
from beamium_ray.pipelines.persist import rollup_to_blocks
from beamium_ray.state.fsck import fsck

OUT = "/tmp/beamium_ray_test_fsck"


def _table(n=6000):
    rng = np.random.default_rng(11)
    return pa.table(
        {
            "series_key": pa.array(
                rng.choice([f"s{i}" for i in range(20)], n).tolist(),
                pa.string(),
            ),
            "ts": pa.array(rng.integers(0, 20_000_000, n), pa.int64()),
            "value": pa.array(np.round(rng.normal(0, 5, n), 2), pa.float64()),
            "order": pa.array(np.arange(n), pa.int64()),
        }
    )


def _roll(ray_session, n=6000):
    import ray.data

    shutil.rmtree(OUT, ignore_errors=True)
    t = _table(n)
    cfg = EngineConfig(
        tiers={"1m": 60_000, "1h": 3_600_000}, num_buckets=8, output_dir=OUT
    )
    rollup_to_blocks(
        ray.data.from_arrow(t).repartition(4), cfg, ["memory://dp"], OUT
    )
    return cfg


def _first_block(out_dir):
    for root, _dirs, files in os.walk(out_dir):
        for f in sorted(files):
            if f.startswith("block-") and f.endswith(".bin"):
                return os.path.join(root, f)
    raise AssertionError("no block file found")


def test_fsck_clean_store_and_bucket_membership(ray_session):
    cfg = _roll(ray_session)
    # deep + per-row bucket-membership, through the Ray route (the
    # 100 TB shape: block decode parallel, driver holds verdicts only)
    res = fsck(OUT, deep=True, num_buckets=cfg.num_buckets, use_ray=True)
    assert res["ok"], res["errors"]
    assert res["buckets_committed"] == 8
    assert res["blocks_checked"] == 16  # 8 buckets × 2 tiers
    assert res["n_errors"] == 0 and res["orphan_blocks"] == 0


def test_fsck_detects_corruption_and_tolerates_orphans(ray_session):
    _roll(ray_session)
    blk = _first_block(OUT)

    # orphan (crash-window residue): reported, NOT an error
    orphan = os.path.join(os.path.dirname(blk), "block-deadbeef.bin")
    with open(orphan, "wb") as f:
        f.write(b"leftover")
    res = fsck(OUT, deep=True, use_ray=False)
    assert res["ok"] and res["orphan_blocks"] == 1
    os.remove(orphan)

    # flipped payload byte → decode/content error (size preserved)
    buf = bytearray(open(blk, "rb").read())
    buf[-1] ^= 0xFF
    with open(blk, "wb") as f:
        f.write(bytes(buf))
    res = fsck(OUT, deep=True, use_ray=False)
    assert not res["ok"] and res["n_errors"] >= 1

    # truncated block → size mismatch even in shallow mode
    with open(blk, "wb") as f:
        f.write(bytes(buf[: len(buf) // 2]))
    res = fsck(OUT, deep=False, use_ray=False)
    assert not res["ok"] and any("size" in e for e in res["errors"])

    # missing block
    os.remove(blk)
    res = fsck(OUT, deep=False, use_ray=False)
    assert not res["ok"] and any("missing" in e for e in res["errors"])


def test_fsck_retention_pruned_store_is_healthy(ray_session):
    """Retention rewrites block lists without touching the roll-time
    counters (by design, marked via retention_evicted); fsck must not
    flag the intact pruned store."""
    import pyarrow.compute as pc

    from beamium_ray.pipelines.persist import read_blocks
    from beamium_ray.state.retention import apply_retention

    _roll(ray_session)
    res = apply_retention(
        OUT, ttl_us={"1m": 1_000_000}, max_bytes=None, now_us=60_000_000
    )
    assert res["blocks_ttl_evicted"] > 0  # base tier actually pruned
    assert read_blocks(OUT, "1h").num_rows > 0  # coarse history survives
    out = fsck(OUT, deep=True, use_ray=False)
    assert out["ok"], out["errors"]


def test_fsck_pre_marker_retained_store_is_healthy(ray_session):
    """A store retained by code older than the retention_evicted marker
    has no marker and no sha256 on its blocks: its counters no longer
    re-derive, which fsck reports as a note, not an error. The same
    mismatch on a manifest whose blocks carry sha256 stays an error."""
    from beamium_ray.state.retention import apply_retention

    _roll(ray_session)
    apply_retention(OUT, ttl_us={"1m": 1_000_000}, max_bytes=None,
                    now_us=60_000_000)
    mdir = os.path.join(OUT, "_manifests")
    for name in sorted(os.listdir(mdir)):
        mpath = os.path.join(mdir, name)
        m = json.load(open(mpath))
        m.pop("retention_evicted", None)
        for b in m["blocks"]:
            b.pop("sha256", None)
        with open(mpath, "w") as f:
            json.dump(m, f)
    res = fsck(OUT, deep=True, use_ray=False)
    assert res["ok"], res["errors"]
    assert res["notes"] and all("re-derive" in n for n in res["notes"])

    m = json.load(open(mpath))
    m["blocks"][0]["sha256"] = "0" * 16  # a post-marker manifest
    with open(mpath, "w") as f:
        json.dump(m, f)
    res = fsck(OUT, deep=False, use_ray=False)
    assert not res["ok"]
    assert any("re-derive" in e for e in res["errors"])


def test_fsck_orphan_sweep_with_metadata_like_path(ray_session, tmp_path):
    """An out_dir whose own path contains '_run' must not disable
    orphan detection. fsck counts what the post-commit GC
    deletes, a crashed write's tmp file included, and the next commit
    to the bucket removes it."""
    import shutil

    import ray.data

    from beamium_ray.pipelines.persist import append_rollup

    cfg = _roll(ray_session)
    tricky = tmp_path / "bench_run" / "store"
    os.makedirs(os.path.dirname(tricky))
    shutil.copytree(OUT, tricky)
    orphan_dir = tricky / "tier=1m" / "bucket=00000"
    os.makedirs(orphan_dir, exist_ok=True)
    for name in ("block-feedface.bin", "block-feedface.bin.tmp.123"):
        with open(orphan_dir / name, "wb") as f:
            f.write(b"crash residue")
        res = fsck(str(tricky), deep=False, use_ray=False)
        assert res["ok"] and res["orphan_blocks"] == 1, name

        append_rollup(ray.data.from_arrow(_table(600)), cfg,
                      [f"memory://{name}"], str(tricky))
        assert not os.path.exists(orphan_dir / name)
        res = fsck(str(tricky), deep=False, use_ray=False)
        assert res["ok"] and res["orphan_blocks"] == 0, name


def test_fsck_detects_lineage_tampering(ray_session):
    _roll(ray_session)
    mdir = os.path.join(OUT, "_manifests")
    mpath = os.path.join(mdir, sorted(os.listdir(mdir))[0])
    m = json.load(open(mpath))
    m["blocks"][0]["rows"] += 1  # lineage no longer matches content
    with open(mpath, "w") as f:
        json.dump(m, f)
    res = fsck(OUT, deep=True, use_ray=False)
    assert not res["ok"]
    assert any("rows" in e for e in res["errors"])

    # counters that re-derive from no tier
    m = json.load(open(mpath))
    m["blocks"][0]["rows"] -= 1
    m["counters"]["points_rolled"] += 7
    with open(mpath, "w") as f:
        json.dump(m, f)
    res = fsck(OUT, deep=False, use_ray=False)
    assert not res["ok"]
    assert any("re-derive" in e for e in res["errors"])

    # a torn manifest is uncommitted, not an error
    with open(mpath, "w") as f:
        f.write('{"bucket": 0, "fing')
    res = fsck(OUT, deep=False, use_ray=False)
    assert res["ok"] and res["torn_manifests"] == 1
    assert res["buckets_committed"] == 7
