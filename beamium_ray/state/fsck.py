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
5. block files no committed manifest references (a crashed write's
   ``.tmp.<pid>`` leftovers included; the store's
   ``unreferenced_blocks``, the same rule the post-commit GC deletes
   by) are reported as ORPHANS — the legitimate residue of a crash
   between a block write and its manifest rename (persist.py's
   crash-window design) — never fatal.

Scale shape: the manifest walk is driver-side (manifests are lineage
metadata — KBs per bucket), but the deep block verification is a Ray
Data ``map_batches`` pipeline over the block-file list, so fsck of a
100 TB store decodes blocks with cluster parallelism (each task's
batch of up to 64 blocks in one ``decode_blocks`` pass) and the driver
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


VERIFY_BATCH = 64  # blocks per batched decode (and per Ray task)


def _read_block(row: dict, deep: bool) -> tuple[str | None, bytes | None]:
    """Existence, size and (deep) content-hash checks of ONE block:
    (error, bytes to decode) — the bytes only when deep and clean."""
    try:
        size = os.path.getsize(row["path"])
    except OSError:
        return "missing", None
    if size != row["bytes"]:
        return f"size {size} != manifest {row['bytes']}", None
    if not deep:
        return None, None
    try:
        with open(row["path"], "rb") as f:
            buf = f.read()
    except OSError as e:
        return f"unreadable: {e}", None
    if row.get("sha256"):
        import hashlib

        got = hashlib.sha256(buf).hexdigest()[:16]
        if got != row["sha256"]:
            return f"content hash {got} != manifest {row['sha256']}", None
    return None, buf


def _check_decoded(t: pa.Table, row: dict,
                   num_buckets: int | None) -> str | None:
    """A decoded block against its lineage row; None when it matches."""
    import numpy as np
    import pyarrow.compute as pc

    from beamium_ray.functions.hashing import bucket_of

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


def _verify_blocks(rows: list[dict], num_buckets: int | None,
                   deep: bool = True) -> list[str | None]:
    """Verify a batch of blocks against their lineage rows (shallow:
    existence and size only); one error or None per row. The blocks
    that pass the byte checks decode in ONE ``decode_blocks`` call,
    sliced back per block at the manifest row counts; only when that
    decode raises or its row total differs from the manifests' sum is
    each block decoded alone, so a bad block is still named with its
    own error."""
    from beamium_ray.stages.gorilla import decode_block, decode_blocks

    errs, live, bufs = [], [], []
    for i, row in enumerate(rows):
        err, buf = _read_block(row, deep)
        errs.append(err)
        if buf is not None:
            live.append(i)
            bufs.append(buf)
    want = [rows[i]["rows"] for i in live]
    try:
        t = decode_blocks(bufs) if bufs else None
        batched = t is not None and t.num_rows == sum(want)
    except Exception:  # noqa: BLE001 — per-block decode names the culprit
        batched = False
    off = 0
    for i, buf, n in zip(live, bufs, want):
        if batched:
            one, off = t.slice(off, n), off + n
        else:
            try:
                one = decode_block(buf)
            except Exception as e:  # noqa: BLE001 — the decode failure is the finding
                errs[i] = f"decode failed: {type(e).__name__}: {e}"
                continue
        errs[i] = _check_decoded(one, rows[i], num_buckets)
    return errs


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
        manifest_buckets,
        plan,
        unreferenced_blocks,
    )

    readable = list(iter_bucket_manifests(out_dir))
    committed = list(committed_bucket_manifests(out_dir))
    torn = len(manifest_buckets(out_dir)) - len(readable)
    stale = len(readable) - len(committed)

    errors: list[str] = []
    notes: list[str] = []

    # one lineage row per committed block, and the manifest-internal
    # counter / watermark re-derivation (driver-side: pure metadata
    # arithmetic)
    expected: list[dict] = []
    for path, m in committed:
        blocks = plan(out_dir, manifests=[m])
        # sha256 is absent on stores rolled before the hash landed
        expected.extend({**b, "sha256": b.get("sha256") or ""} for b in blocks)
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
            got: dict[str, tuple[int, int]] = {}
            for b in blocks:
                p, r = got.get(b.get("tier", ""), (0, 0))
                got[b.get("tier", "")] = (p + b["points"], r + b["rows"])
            if want not in got.values():
                msg = (
                    f"{os.path.basename(path)}: counters {want} re-derive "
                    f"from no tier (per-tier sums {got})"
                )
                pre_marker = not any(b.get("sha256") for b in blocks)
                (notes if pre_marker else errors).append(msg)

    # block files no committed manifest references (crash-window
    # residue, tmp leftovers included; post-commit GC candidates)
    orphans = sum(1 for _ in unreferenced_blocks(out_dir))

    if deep and use_ray and expected:
        import ray.data

        def verify(batch: pa.Table) -> pa.Table:
            rows = batch.to_pylist()
            return pa.table(
                {
                    "path": pa.array([r["path"] for r in rows]),
                    "err": pa.array(_verify_blocks(rows, num_buckets),
                                    pa.string()),
                }
            )

        verdicts = (
            ray.data.from_items(expected)
            .map_batches(verify, batch_format="pyarrow",
                         batch_size=VERIFY_BATCH)
            .take_all()  # one short string per block — driver-sized
        )
    else:
        verdicts = []
        for lo in range(0, len(expected), VERIFY_BATCH):
            rows = expected[lo:lo + VERIFY_BATCH]
            errs = _verify_blocks(rows, num_buckets, deep)
            verdicts += [{"path": r["path"], "err": e}
                         for r, e in zip(rows, errs)]
    for v in verdicts:
        if v["err"]:
            errors.append(f"{os.path.relpath(v['path'], out_dir)}: {v['err']}")

    return {
        "ok": not errors,
        "buckets_committed": len(committed),
        "blocks_checked": len(verdicts),
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
