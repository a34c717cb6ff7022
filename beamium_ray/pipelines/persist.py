"""Persisting rollup: blocks + lineage manifests + resume.

``rollup_to_blocks`` is the durable variant of the rollup: the merge
task of each shuffle part (a range of whole buckets) also ENCODES
(Gorilla/DoD blocks) and COMMITS (manifest, written after blocks via
tmp+rename) bucket by bucket — so each bucket is one recoverable unit
of work, mirroring the reference's file-is-the-checkpoint design
(SURVEY.md §3.4), while the merge and the codec run once per part. A
rerun with the same input fingerprint + config hash prunes committed
buckets at the PARTIAL stage (before the shuffle), so resumed runs do
no redundant shuffle or merge work.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from beamium_ray.config import EngineConfig
from beamium_ray.functions.cluster import bucket_apply
# encode_block (the one-block case) stays importable from here: the
# traced perfbench replay wraps ``persist.encode_block`` by name
from beamium_ray.stages.gorilla import decode_blocks, encode_block, encode_blocks  # noqa: F401
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
    """Merge → encode per tier → atomic block writes → manifest, for
    every bucket in ``group`` (one shuffle part: one bucket or many).

    The part is folded in ONE vectorized pass, then committed bucket by
    bucket:

    1. every bucket's manifest is read and checked (``config_hash``,
       idempotent-rerun skip) before anything is written, so a refused
       append leaves every bucket of the part untouched;
    2. one ``decode_blocks`` reads all prior blocks of the part;
    3. one ``merge_tiers_with_prior`` folds the buckets that have prior
       state and one ``merge_cascade_gapfill`` rolls the ones that have
       none (kept apart: each keeps its own float summation order);
    4. one ``encode_blocks`` encodes every (bucket, tier) block;
    5. per bucket: write its blocks, commit its manifest, GC its old
       blocks — the crash contract stays per bucket.

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
    applied, priors = _check_part(
        group, out_dir, fingerprint, config_hash, incremental
    )
    if not applied:
        return MANIFEST_ROW_SCHEMA.empty_table()
    entries, old, prior_tier_rows = _prior_state(out_dir, priors)

    buckets = group["bucket"].to_numpy()
    warm = np.isin(buckets, [e["bucket"] for e in entries])
    live = np.isin(buckets, list(applied))
    rolled = []
    for sel, prior in ((warm, True), (live & ~warm, False)):
        if not sel.any():
            continue
        sub = group if sel.all() else group.filter(pa.array(sel))
        # per-tier merge: each tier folds the new partials into ITS OWN
        # prior state, so per-tier retention (base evicted, coarse kept)
        # never loses coarse history to a base-only re-derive; exactly
        # equal to the cascade when nothing was evicted (decomposable
        # aggregates)
        rolled.append(
            merge_tiers_with_prior(
                sub, tiers, prior_tier_rows, gapfill, gapfill_max_gap
            )
            if prior
            else merge_cascade_gapfill(sub, tiers, gapfill, gapfill_max_gap)
        )
    rolled = pa.concat_tables(rolled)

    # one block per (bucket, tier) cell; a stable sort keeps each
    # block's rows in merge order
    names = list(tiers)
    cell = _row_buckets(rolled, group, entries, old) * len(names) + pc.index_in(
        rolled["tier"], value_set=pa.array(names)
    ).to_numpy()
    order = np.argsort(cell, kind="stable")
    rolled, cell = rolled.take(pa.array(order)).drop_columns(["tier"]), cell[order]
    starts = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
    ends = np.r_[starts[1:], len(cell)]
    bufs = encode_blocks(
        [rolled.slice(lo, hi - lo) for lo, hi in zip(starts, ends)],
        float_codec=float_codec, int_codec=int_codec,
    )
    cells: dict[int, list] = {}
    for c, lo, hi, buf in zip(cell[starts].tolist(), starts.tolist(),
                              ends.tolist(), bufs):
        cells.setdefault(c // len(names), []).append((names[c % len(names)],
                                                      lo, hi, buf))

    n = rolled["n"].fill_null(0).to_numpy()
    ws = rolled["window_start"].to_numpy()
    lt_ok = rolled["last_ts"].is_valid().to_numpy(zero_copy_only=False)
    lt = rolled["last_ts"].fill_null(0).to_numpy()
    base = min(tiers, key=tiers.get)
    delay = float(os.environ.get("BEAMIUM_TEST_COMMIT_DELAY", "0") or 0)
    rows_out: list[dict] = []
    for bucket in sorted(applied):
        if delay:  # test hook: widen the kill window for crash-resume tests
            import time

            time.sleep(delay)
        fp = combine_fp(applied[bucket]) if incremental else fingerprint
        blocks: list[dict] = []
        watermark = None
        counters = {"points_rolled": 0, "windows": 0, "gap_windows": 0}
        for tier, lo, hi, buf in cells.get(bucket, []):
            # VERSIONED block path: the manifest commit is the only
            # pointer switch. A crash after the block write but before
            # the manifest rename leaves an orphan file the old manifest
            # never references, so an append rerun re-reads the OLD block
            # and cannot double-count (crash-window fix; old versions
            # GC'd post-commit).
            rel = os.path.join(
                f"tier={tier}", f"bucket={bucket:05d}", f"block-{fp}.bin"
            )
            atomic_write_bytes(os.path.join(out_dir, rel), buf)
            info = {
                "tier": tier,
                "path": rel,
                "bytes": len(buf),
                # content hash: lets fsck verify block BYTES against the
                # lineage (a bit-flip that still decodes would otherwise
                # only be caught if it moved a row/point/window count)
                "sha256": hashlib.sha256(buf).hexdigest()[:16],
                "rows": hi - lo,
                "points": int(n[lo:hi].sum()),
                "min_window": int(ws[lo:hi].min()),
                "max_window": int(ws[lo:hi].max()),
            }
            blocks.append(info)
            rows_out.append({"bucket": bucket, **info})
            if tier == base:
                counters = {"points_rolled": info["points"],
                            "windows": info["rows"],
                            "gap_windows": int((n[lo:hi] == 0).sum())}
            if lt_ok[lo:hi].any():
                lt_max = int(lt[lo:hi][lt_ok[lo:hi]].max())
                watermark = lt_max if watermark is None else max(watermark, lt_max)
        m = commit_bucket_manifest(
            out_dir, bucket, fp, config_hash, blocks, counters, watermark,
            applied=applied[bucket],
        )
        # post-commit GC: older block versions and crashed writes' leftovers
        remove_files(unreferenced_blocks(out_dir, m))
    return pa.Table.from_pylist(rows_out, schema=MANIFEST_ROW_SCHEMA)


def _check_part(group, out_dir, fingerprint, config_hash, incremental):
    """Every bucket of the part, before anything is written: its append
    lineage after this commit (a bucket that already applied
    ``fingerprint`` is left out: idempotent rerun) and, when appending,
    its prior manifest. Raises for a bucket rolled under another
    ``config_hash``. Returns ({bucket: applied}, prior manifests)."""
    applied: dict[int, list[str]] = {}
    priors = []
    for bucket in np.unique(group["bucket"].to_numpy()).tolist():
        prior = bucket_manifest(out_dir, bucket) if incremental else None
        if not prior:
            applied[bucket] = [fingerprint]
            continue
        if prior.get("config_hash") != config_hash:
            raise ValueError(
                f"append refused for bucket {bucket}: existing state was "
                f"rolled with config_hash={prior.get('config_hash')} but "
                f"this run has {config_hash} — appending would silently "
                "discard prior history; re-roll from scratch (or to a new "
                "output dir) after a semantic config change"
            )
        prior_applied = applied_fingerprints(prior)
        if fingerprint not in prior_applied:
            applied[bucket] = prior_applied + [fingerprint]
            priors.append(prior)
    return applied, priors


def _prior_state(out_dir, priors):
    """One decode of every block of the ``priors`` manifests. Returns
    (their plan entries, the decoded rows in entry order, the merge
    state per tier: every bucket's stored rows, which ARE merge state,
    minus the gap-filled n=0 rows that are regenerated after the
    merge)."""
    entries = plan(out_dir, manifests=priors)
    old = decode_blocks([e["path"] for e in entries])
    rows = [e["rows"] for e in entries]
    if old.num_rows != sum(rows):
        raise ValueError(
            f"prior blocks of buckets {sorted({e['bucket'] for e in entries})} "
            f"decode to {old.num_rows} rows but their manifests record "
            f"{sum(rows)}; run fsck"
        )
    by_tier: dict[str, list[pa.Table]] = {}
    for e, lo in zip(entries, np.cumsum([0] + rows).tolist()):
        by_tier.setdefault(e.get("tier", ""), []).append(old.slice(lo, e["rows"]))
    state = {}
    for tier, parts in by_tier.items():
        t = pa.concat_tables(parts)
        state[tier] = t.filter(pc.greater(t["n"], 0))
    return entries, old, state


def _row_buckets(rolled, group, entries, old) -> np.ndarray:
    """The bucket of every ``rolled`` row, looked up by its series (a
    series lives in one bucket): from the new partials, or from the
    prior block it came from."""
    keys, buckets = [group["series_key"]], [group["bucket"].to_numpy()]
    if entries:
        keys.append(old["series_key"])
        buckets.append(np.repeat([e["bucket"] for e in entries],
                                 [e["rows"] for e in entries]))
    keys = pa.chunked_array(
        [c for k in keys for c in k.chunks]
    ).combine_chunks().dictionary_encode()
    key_bucket = np.zeros(len(keys.dictionary), dtype=np.int64)
    key_bucket[keys.indices.to_numpy()] = np.concatenate(buckets)
    return key_bucket[
        pc.index_in(rolled["series_key"], value_set=keys.dictionary).to_numpy()
    ]


def _roll_buckets(dp_ds, cfg, paths, out_dir, key_col, order_col,
                  incremental: bool):
    """The Ray plan both entry points share: combiner partials (buckets
    in ``skip`` never enter the shuffle) → shuffle by part → one
    merge/encode pass per part, committed per bucket → run manifest.
    Returns (run manifest, manifest rows).

    A part is a contiguous range of whole buckets: with P =
    ``cfg.rollup_shuffle_blocks()`` shuffle blocks, ``part = bucket * P
    // num_buckets`` (the bucket itself when P is unset, 0, or at least
    ``num_buckets``), so each merge task folds its buckets together
    instead of paying the per-call fixed cost once per bucket."""
    out_dir = out_dir or cfg.output_dir
    validate_tiers(cfg.tiers)  # fail fast, before any compute launches
    fp, ch = input_fingerprint(paths), cfg.config_hash()
    # resume: buckets already committed for this input + config; for an
    # append, buckets that already applied it (crash rerun)
    skip = frozenset(load_committed(out_dir, fp, ch, append=incremental))
    base_us = min(cfg.tiers.values())
    tiers, gapfill, nb = dict(cfg.tiers), cfg.gapfill, cfg.num_buckets
    max_gap, codec, icodec = cfg.gapfill_max_gap, cfg.float_codec, cfg.int_codec
    parts = cfg.rollup_shuffle_blocks()

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
        part = t["bucket"].to_numpy().astype(np.int64)
        if parts and parts < nb:
            part = part * parts // nb
        return t.append_column("part", pa.array(part, pa.int32()))

    def _merge(group: pa.Table) -> pa.Table:
        return _encode_and_commit(
            group.drop_columns(["part"]), out_dir, tiers, gapfill, fp, ch,
            incremental=incremental, gapfill_max_gap=max_gap,
            float_codec=codec, int_codec=icodec,
        )

    narrow = dp_ds.select_columns(
        [c for c in [key_col, "ts", "value", order_col] if c]
    )
    # one reduce block per part: the sort's sampled boundaries would
    # leave some merge tasks empty and give others two parts
    result = bucket_apply(
        narrow, _merge, by="part", prep=_partial, shuffle_blocks=parts,
        boundaries=range(1, min(parts, nb)) if parts else None,
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
