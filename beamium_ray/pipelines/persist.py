"""Persisting rollup: blocks + lineage manifests + resume.

``rollup_to_blocks`` is the durable variant of the rollup: the
per-bucket merge task also ENCODES (Gorilla/DoD blocks) and COMMITS
(manifest, written after blocks via tmp+rename) — so one Ray task =
one recoverable unit of work, mirroring the reference's
file-is-the-checkpoint design (SURVEY.md §3.4). A rerun with the same
input fingerprint + config hash prunes committed buckets at the
PARTIAL stage (before the shuffle), so resumed runs do no redundant
shuffle or merge work.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.compute as pc

from beamium_ray.config import EngineConfig
from beamium_ray.functions.cluster import bucket_apply
from beamium_ray.stages.gorilla import decode_blocks, encode_block
from beamium_ray.stages.rollup import (
    merge_cascade_gapfill,
    merge_tiers_with_prior,
    partial_rollup_batch,
    validate_tiers,
)
from beamium_ray.state.manifest import (
    applied_fingerprints,
    atomic_write_bytes,
    bucket_manifest,
    commit_bucket_manifest,
    fold_run_manifest,
    input_fingerprint,
    live_manifests,
    load_committed,
    merge_run_manifest,
    plan,
    remove_files,
    unreferenced_blocks,
)

MANIFEST_ROW_SCHEMA = pa.schema(
    [
        ("bucket", pa.int32()),
        ("tier", pa.string()),
        ("path", pa.string()),
        ("bytes", pa.int64()),
        ("sha256", pa.string()),
        ("rows", pa.int64()),
        ("points", pa.int64()),
        ("min_window", pa.int64()),
        ("max_window", pa.int64()),
    ]
)


def combine_fp(applied: list[str]) -> str:
    """Deterministic combined fingerprint of an append history."""
    return hashlib.sha256("|".join(applied).encode()).hexdigest()[:16]


def _encode_and_commit(
    group: pa.Table,
    out_dir: str,
    tiers: dict[str, int],
    gapfill: bool,
    fingerprint: str,
    config_hash: str,
    incremental: bool = False,
    gapfill_max_gap: int | None = None,
    float_codec: str = "bytes",
    int_codec: str = "bytes",
) -> pa.Table:
    """Per-bucket merge → encode per tier → atomic block write → manifest.

    ``incremental`` (continuous-aggregate mode): merge the NEW partials
    with the bucket's existing blocks instead of replacing them — the
    persisted block rows carry full merge state (vmin/vmax/vsum/n/
    last/last_ts/last_order), so appending is just another
    merge_partials pass. EACH tier folds the increment into its OWN
    prior block (merge_tiers_with_prior), so per-tier retention that
    evicted base-tier blocks but kept coarse ones cannot lose coarse
    history to a base-only re-derive; gap-fill is regenerated per
    tier. Completed windows are never re-rolled from raw input.
    """
    if group.num_rows == 0:
        return MANIFEST_ROW_SCHEMA.empty_table()
    delay = float(os.environ.get("BEAMIUM_TEST_COMMIT_DELAY", "0") or 0)
    if delay:  # test hook: widen the kill window for crash-resume tests
        import time

        time.sleep(delay)
    bucket = int(group["bucket"][0].as_py())

    applied = [fingerprint]
    prior_tier_rows: dict[str, pa.Table] = {}
    if incremental:
        prior = bucket_manifest(out_dir, bucket)
        if prior and prior.get("config_hash") != config_hash:
            raise ValueError(
                f"append refused for bucket {bucket}: existing state was "
                f"rolled with config_hash={prior.get('config_hash')} but "
                f"this run has {config_hash} — appending would silently "
                "discard prior history; re-roll from scratch (or to a new "
                "output dir) after a semantic config change"
            )
        if prior:
            prior_applied = applied_fingerprints(prior)
            if fingerprint in prior_applied:
                return MANIFEST_ROW_SCHEMA.empty_table()  # idempotent rerun
            applied = prior_applied + [fingerprint]
            by_tier: dict[str, list[str]] = {}
            for e in plan(out_dir, manifests=[prior]):
                by_tier.setdefault(e.get("tier", ""), []).append(e["path"])
            for t, paths in by_tier.items():
                old = decode_blocks(paths)
                # stored rows ARE merge state; drop gap-filled (n=0)
                # rows, they are regenerated after the merge
                prior_tier_rows[t] = old.filter(pc.greater(old["n"], 0))
        fingerprint = combine_fp(applied)

    if "bucket" in group.column_names:
        group = group.drop_columns(["bucket"])
    if prior_tier_rows:
        # per-tier merge: each tier folds the new partials into ITS
        # OWN prior state, so per-tier retention (base evicted, coarse
        # kept) never loses coarse history to a base-only re-derive;
        # exactly equal to the cascade when nothing was evicted
        # (decomposable aggregates)
        rolled = merge_tiers_with_prior(
            group, tiers, prior_tier_rows, gapfill, gapfill_max_gap
        )
    else:
        rolled = merge_cascade_gapfill(group, tiers, gapfill, gapfill_max_gap)

    blocks: list[dict] = []
    rows_out: list[dict] = []
    watermark = None
    counters = {"points_rolled": 0, "windows": 0, "gap_windows": 0}
    for tier in tiers:
        tt = rolled.filter(pc.equal(rolled["tier"], tier)).drop_columns(["tier"])
        if tt.num_rows == 0:
            continue
        buf = encode_block(tt, float_codec=float_codec, int_codec=int_codec)
        # VERSIONED block path: the manifest commit is the only pointer
        # switch. A crash after the block write but before the manifest
        # rename leaves an orphan file the old manifest never references,
        # so an append rerun re-reads the OLD block and cannot
        # double-count (crash-window fix; old versions GC'd post-commit).
        rel = os.path.join(
            f"tier={tier}", f"bucket={bucket:05d}", f"block-{fingerprint}.bin"
        )
        atomic_write_bytes(os.path.join(out_dir, rel), buf)
        ws = tt["window_start"].to_numpy()
        lt_max = pc.max(tt["last_ts"]).as_py()  # None when all-null
        base = min(tiers, key=tiers.get)
        info = {
            "tier": tier,
            "path": rel,
            "bytes": len(buf),
            # content hash: lets fsck verify block BYTES against the
            # lineage (a bit-flip that still decodes would otherwise
            # only be caught if it moved a row/point/window count)
            "sha256": hashlib.sha256(buf).hexdigest()[:16],
            "rows": tt.num_rows,
            "points": int(pc.sum(tt["n"]).as_py() or 0),
            "min_window": int(ws.min()),
            "max_window": int(ws.max()),
        }
        blocks.append(info)
        rows_out.append({"bucket": bucket, **info})
        if tier == base:
            counters["points_rolled"] += info["points"]
            counters["windows"] += tt.num_rows
            counters["gap_windows"] += int(
                pc.sum(pc.cast(pc.equal(tt["n"], 0), pa.int64())).as_py() or 0
            )
        if lt_max is not None:
            watermark = lt_max if watermark is None else max(watermark, lt_max)

    m = commit_bucket_manifest(
        out_dir, bucket, fingerprint, config_hash, blocks, counters, watermark,
        applied=applied,
    )
    # post-commit GC: older block versions and crashed writes' leftovers
    remove_files(unreferenced_blocks(out_dir, m))
    return pa.Table.from_pylist(rows_out, schema=MANIFEST_ROW_SCHEMA)


def _roll_buckets(dp_ds, cfg, paths, out_dir, key_col, order_col,
                  incremental: bool):
    """The Ray plan both entry points share: combiner partials (buckets
    in ``skip`` never enter the shuffle) → shuffle by bucket →
    per-bucket merge/encode/commit → run manifest. Returns (run
    manifest, manifest rows)."""
    out_dir = out_dir or cfg.output_dir
    validate_tiers(cfg.tiers)  # fail fast, before any compute launches
    fp, ch = input_fingerprint(paths), cfg.config_hash()
    # resume: buckets already committed for this input + config; for an
    # append, buckets that already applied it (crash rerun)
    skip = frozenset(load_committed(out_dir, fp, ch, append=incremental))
    base_us = min(cfg.tiers.values())
    tiers, gapfill, nb = dict(cfg.tiers), cfg.gapfill, cfg.num_buckets
    max_gap, codec, icodec = cfg.gapfill_max_gap, cfg.float_codec, cfg.int_codec

    def _partial(batch: pa.Table) -> pa.Table:
        t = partial_rollup_batch(
            batch, base_us, key_col=key_col, order_col=order_col, num_buckets=nb
        )
        if skip:
            t = t.filter(
                pc.invert(
                    pc.is_in(
                        t["bucket"], value_set=pa.array(sorted(skip), pa.int32())
                    )
                )
            )
        return t

    def _merge(group: pa.Table) -> pa.Table:
        return _encode_and_commit(
            group, out_dir, tiers, gapfill, fp, ch, incremental=incremental,
            gapfill_max_gap=max_gap, float_codec=codec, int_codec=icodec,
        )

    narrow = dp_ds.select_columns(
        [c for c in [key_col, "ts", "value", order_col] if c]
    )
    result = bucket_apply(
        narrow, _merge, prep=_partial, shuffle_blocks=cfg.rollup_shuffle_blocks()
    )
    rows = pa.concat_tables(
        list(result.iter_batches(batch_format="pyarrow"))
        or [MANIFEST_ROW_SCHEMA.empty_table()]
    )
    if incremental:
        return merge_run_manifest_any(out_dir, ch), rows
    return merge_run_manifest(out_dir, fp, ch), rows


def rollup_to_blocks(
    dp_ds,
    cfg: EngineConfig,
    input_paths: list[str],
    out_dir: str | None = None,
    key_col: str = "series_key",
    order_col: str | None = "order",
):
    """Datapoint Dataset → committed compressed blocks; returns (run
    manifest dict, manifest-rows Dataset result as pa.Table)."""
    return _roll_buckets(
        dp_ds, cfg, input_paths, out_dir, key_col, order_col, incremental=False
    )


def append_rollup(
    dp_ds,
    cfg: EngineConfig,
    new_paths: list[str],
    out_dir: str | None = None,
    key_col: str = "series_key",
    order_col: str | None = "order",
):
    """Continuous aggregate: fold NEW input into existing rollup blocks.

    Only the new datapoints are read and combiner-reduced; each bucket
    merge pulls its existing blocks (already merge-state, per tier —
    so per-tier retention horizons are respected) and re-commits. Idempotent per (bucket, new-input fingerprint): a rerun
    after a crash skips buckets that already applied this append — the
    north rule's "resumes without re-rolling completed windows".
    """
    return _roll_buckets(
        dp_ds, cfg, new_paths, out_dir, key_col, order_col, incremental=True
    )


def merge_run_manifest_any(out_dir: str, config_hash: str) -> dict:
    """Run-manifest merge across buckets regardless of append history
    (used by the incremental path, where per-bucket combined
    fingerprints are equal only once every bucket caught up)."""
    return fold_run_manifest(
        out_dir,
        (m for _, m in live_manifests(out_dir, config_hash)),
        config_hash=config_hash,
    )


def read_blocks_dataset(
    out_dir: str,
    tier: str,
    min_window: int | None = None,
    max_window: int | None = None,
):
    """Query path over persisted blocks: a Ray Dataset of decoded rolled
    rows for one tier, optionally restricted to a window range.

    The store's ``plan`` prunes by the manifests' window ranges, and
    ``decode_blocks`` decodes the surviving blocks on the driver with
    the row-level window filter. The Dataset is that one table, so rows
    come in manifest order, as from ``read_blocks``. Decoding in Ray
    tasks does not pay at the stores measured so far (1.7 MB in the
    watch benchmark's 1m tier): each task costs about as much as
    decoding 0.5 MB."""
    import ray.data

    paths = [e["path"] for e in plan(out_dir, tier, min_window, max_window)]
    return ray.data.from_arrow(decode_blocks(paths, min_window, max_window))


def read_blocks(out_dir: str, tier: str) -> pa.Table:
    """Decode all COMMITTED blocks of one tier on the driver, in manifest
    order (the store's ``plan`` + ``decode_blocks``: only files the
    manifests reference are read — orphans from a crash window are
    invisible)."""
    return decode_blocks([e["path"] for e in plan(out_dir, tier)])
