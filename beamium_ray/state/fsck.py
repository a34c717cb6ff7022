"""Store integrity checker (fsck) for the persisted rollup block store.

The store's correctness rests on two invariants (CLAUDE.md): blocks
are versioned (``block-<fp>.bin``) and the manifest rename is the ONLY
pointer switch; no referenced file is ever deleted before its manifest
is rewritten. ``fsck`` verifies, after the fact, that an output
directory actually satisfies the contract those invariants are meant
to guarantee:

1. every bucket manifest parses (torn JSON = uncommitted, counted);
2. every block a manifest references exists and has the recorded size;
3. (deep) every referenced block's BYTES match the lineage content
   hash (``sha256``, recorded at commit; skipped on pre-hash stores),
   the block DECODES, and its decoded content matches the lineage row
   exactly — row count, point count (sum of ``n``), window range, and
   (when ``num_buckets`` is given) that every row's series_key
   actually hashes to the manifest's bucket (a mis-shuffled row can
   only come from an engine bug). The bucket-membership check re-runs
   ``hash64``, whose stability is within-environment (hashing.py): run
   it with the same hash backend (polars xxhash64 build) that rolled
   the store, or a healthy store reports false membership errors;
4. the manifest's own counters re-derive from its base-tier blocks
   (``points_rolled`` = base points, ``windows`` = base rows). A
   manifest from before the ``retention_evicted`` marker (no marker,
   no ``sha256`` on its blocks) may have been pruned unmarked, so
   there a mismatch is only a NOTE;
5. unreferenced ``block-*.bin`` files are reported as ORPHANS — the
   legitimate residue of a crash between a block write and its
   manifest rename (persist.py's crash-window design) — never fatal.

Scale shape: the manifest walk is driver-side (manifests are lineage
metadata — KBs per bucket), but the deep block verification is a Ray
Data ``map_batches`` pipeline over the block-file list, so fsck of a
100 TB store decodes blocks with cluster parallelism and the driver
only ever holds per-block verdict rows.

CLI::

    python -m beamium_ray.state.fsck OUT_DIR [--shallow] [--num-buckets B]

prints one JSON line and exits 1 on integrity errors (missing blocks,
decode failures, lineage mismatches), 0 when clean (orphans and stale
manifests alone don't fail — they are expected operational residue).
"""

from __future__ import annotations

import json
import os

import pyarrow as pa


def _expected_rows(out_dir: str) -> list[dict]:
    """Flatten committed manifests into one lineage row per block."""
    from beamium_ray.state.manifest import committed_bucket_manifests

    rows = []
    for _, m in committed_bucket_manifests(out_dir):
        for b in m.get("blocks") or []:
            rows.append(
                {
                    "path": os.path.join(out_dir, b["path"]),
                    "tier": b.get("tier", ""),
                    "bucket": int(m["bucket"]),
                    "rows": int(b["rows"]),
                    "points": int(b["points"]),
                    "min_window": int(b["min_window"]),
                    "max_window": int(b["max_window"]),
                    "bytes": int(b["bytes"]),
                    # absent on stores rolled before the hash landed
                    "sha256": b.get("sha256") or "",
                }
            )
    return rows


def _verify_block(row: dict, num_buckets: int | None) -> str | None:
    """Deep-verify ONE block against its lineage row; None when clean."""
    import numpy as np
    import pyarrow.compute as pc

    from beamium_ray.functions.hashing import bucket_of
    from beamium_ray.stages.gorilla import decode_block

    try:
        with open(row["path"], "rb") as f:
            buf = f.read()
    except OSError as e:
        return f"unreadable: {e}"
    if len(buf) != row["bytes"]:
        return f"size {len(buf)} != manifest {row['bytes']}"
    if row.get("sha256"):
        import hashlib

        got = hashlib.sha256(buf).hexdigest()[:16]
        if got != row["sha256"]:
            return f"content hash {got} != manifest {row['sha256']}"
    try:
        t = decode_block(buf)
    except Exception as e:  # noqa: BLE001 — any decode failure is the finding
        return f"decode failed: {type(e).__name__}: {e}"
    if t.num_rows != row["rows"]:
        return f"rows {t.num_rows} != manifest {row['rows']}"
    points = int(pc.sum(t["n"]).as_py() or 0)
    if points != row["points"]:
        return f"points {points} != manifest {row['points']}"
    ws = t["window_start"].to_numpy()
    if t.num_rows and (
        int(ws.min()) != row["min_window"] or int(ws.max()) != row["max_window"]
    ):
        return (
            f"window range [{ws.min()}, {ws.max()}] != manifest "
            f"[{row['min_window']}, {row['max_window']}]"
        )
    if num_buckets is not None and t.num_rows:
        got = bucket_of(t["series_key"], num_buckets)
        if not np.all(got == row["bucket"]):
            bad = int(np.count_nonzero(got != row["bucket"]))
            return f"{bad} rows hash outside bucket {row['bucket']}"
    return None


def fsck(
    out_dir: str,
    deep: bool = True,
    num_buckets: int | None = None,
    use_ray: bool = True,
) -> dict:
    """Check a persisted store; returns a verdict dict (see module doc).

    ``ok`` is False only on integrity ERRORS; orphans/torn/stale and
    ``notes`` are informational. ``use_ray=False`` verifies blocks
    serially in-process (tests, tiny stores)."""
    from beamium_ray.state.manifest import (
        committed_bucket_manifests,
        iter_bucket_manifests,
    )

    mdir = os.path.join(out_dir, "_manifests")
    all_manifest_files = (
        sorted(f for f in os.listdir(mdir) if f.endswith(".json"))
        if os.path.isdir(mdir)
        else []
    )
    readable = list(iter_bucket_manifests(out_dir))
    committed = list(committed_bucket_manifests(out_dir))
    torn = len(all_manifest_files) - len(readable)
    stale = len(readable) - len(committed)

    errors: list[str] = []
    notes: list[str] = []

    # manifest-internal counter / watermark re-derivation (driver-side:
    # pure metadata arithmetic)
    for path, m in committed:
        blocks = m.get("blocks") or []
        tiers = {b.get("tier", "") for b in blocks}
        if m.get("retention_evicted"):
            # counters are roll-time lineage; retention rewrote the
            # block list without touching them (by design), so they no
            # longer re-derive — skip, don't flag a healthy store
            continue
        if blocks and m.get("counters"):
            # the base tier is not recorded; it is the tier whose rows
            # match counters["windows"] AND points match points_rolled —
            # require at least one tier to re-derive both
            want = (
                int(m["counters"].get("points_rolled", -1)),
                int(m["counters"].get("windows", -1)),
            )
            got = {
                t: (
                    sum(b["points"] for b in blocks if b.get("tier") == t),
                    sum(b["rows"] for b in blocks if b.get("tier") == t),
                )
                for t in tiers
            }
            if want not in got.values():
                msg = (
                    f"{os.path.basename(path)}: counters {want} re-derive "
                    f"from no tier (per-tier sums {got})"
                )
                pre_marker = not any(b.get("sha256") for b in blocks)
                (notes if pre_marker else errors).append(msg)

    expected = _expected_rows(out_dir)

    # orphan sweep: block files on disk that no committed manifest
    # references (crash-window residue; post-commit GC candidates)
    referenced = {r["path"] for r in expected}
    orphans = 0
    for root, _dirs, files in os.walk(out_dir):
        rel = os.path.relpath(root, out_dir)
        parts = [] if rel == "." else rel.split(os.sep)
        # skip the metadata trees by path COMPONENT — a substring test
        # on the absolute root would disable the sweep entirely for an
        # out_dir whose own path contains '_run'/'_manifests'
        if parts and parts[0] in ("_manifests", "_run"):
            continue
        for f in files:
            if f.startswith("block-") and f.endswith(".bin"):
                if os.path.join(root, f) not in referenced:
                    orphans += 1

    blocks_checked = 0
    if deep and expected:
        if use_ray:
            import ray.data

            nb = num_buckets

            def verify(batch: pa.Table) -> pa.Table:
                rows = batch.to_pylist()
                errs = [_verify_block(r, nb) for r in rows]
                return pa.table(
                    {
                        "path": pa.array([r["path"] for r in rows]),
                        "err": pa.array(errs, pa.string()),
                    }
                )

            verdicts = (
                ray.data.from_items(expected)
                .map_batches(verify, batch_format="pyarrow", batch_size=64)
                .take_all()  # one short string per block — driver-sized
            )
            for v in verdicts:
                blocks_checked += 1
                if v["err"]:
                    errors.append(f"{os.path.relpath(v['path'], out_dir)}: "
                                  f"{v['err']}")
        else:
            for r in expected:
                blocks_checked += 1
                e = _verify_block(r, num_buckets)
                if e:
                    errors.append(f"{os.path.relpath(r['path'], out_dir)}: {e}")
    elif expected:  # shallow: existence + size only
        for r in expected:
            blocks_checked += 1
            try:
                size = os.path.getsize(r["path"])
            except OSError:
                errors.append(
                    f"{os.path.relpath(r['path'], out_dir)}: missing"
                )
                continue
            if size != r["bytes"]:
                errors.append(
                    f"{os.path.relpath(r['path'], out_dir)}: size {size} "
                    f"!= manifest {r['bytes']}"
                )

    return {
        "ok": not errors,
        "buckets_committed": len(committed),
        "blocks_checked": blocks_checked,
        "torn_manifests": torn,
        "stale_manifests": stale,
        "orphan_blocks": orphans,
        "errors": errors[:50],
        "n_errors": len(errors),
        "notes": notes[:50],
    }


def main(argv: list[str] | None = None) -> int:
    import argparse

    ap = argparse.ArgumentParser(
        description="verify a persisted rollup store against its manifests"
    )
    ap.add_argument("out_dir")
    ap.add_argument("--shallow", action="store_true",
                    help="existence+size only; skip block decode")
    ap.add_argument("--num-buckets", type=int, default=None,
                    help="also verify per-row bucket membership "
                         "(pass the config's num_buckets; requires the "
                         "same hash backend/environment that rolled "
                         "the store — see module docstring)")
    ap.add_argument("--num-cpus", type=int, default=None)
    args = ap.parse_args(argv)

    from beamium_ray.cli import ray_session

    with ray_session(args.num_cpus):
        res = fsck(
            args.out_dir, deep=not args.shallow, num_buckets=args.num_buckets
        )
    print(json.dumps(res, sort_keys=True))
    return 0 if res["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
