"""Per-partition lineage manifests + atomic commit + resume.

Re-expresses the reference's DFO durability contract (SURVEY.md §3.4):
"data is never deleted until the next stage durably accepted it" — the
reference's write-tmp-then-rename files (``src/scraper.rs:253-265``,
``src/router.rs:212-225``) and delete-after-2xx protocol become:

- every (bucket) partition writes its compressed tier blocks to
  ``tier=<t>/bucket=<b>/block-<fingerprint>.bin`` via tmp+rename
  (versioned: the manifest commit is the only pointer switch), then commits
  ``_manifests/bucket=<b>.json`` (atomic rename, written LAST);
- a manifest records the input fingerprint, config hash, watermark
  (max rolled last_ts), block paths+sizes and stage counters;
- resume = read committed manifests, skip buckets whose
  (input_fingerprint, config_hash) match — killed runs never re-roll
  completed windows (north rule).

Layout (SURVEY.md §4.3)::

    out/
      tier=1m/bucket=000/block-<fp>.bin
      _manifests/bucket=000.json
      _run/manifest.json        # merged, committed last
"""

from __future__ import annotations

import hashlib
import json
import os
import time


def input_fingerprint(paths: list[str], extra: str = "") -> str:
    """Stable fingerprint of the input file list (+ size and mtime when
    local). mtime is included so an in-place same-size content rewrite
    changes the fingerprint and resume does NOT wrongly skip committed
    buckets (ADVICE r1); callers must expand globs to the concrete file
    list first (run.py does) so a glob matching a different file set
    fingerprints differently."""
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.encode())
        try:
            st = os.stat(p)
            h.update(str(st.st_size).encode())
            h.update(str(st.st_mtime_ns).encode())
        except OSError:
            pass
    h.update(extra.encode())
    return h.hexdigest()[:16]


def file_fingerprint(path: str) -> str | None:
    """Per-file fingerprint (path + size + mtime_ns — the same fields
    :func:`input_fingerprint` folds per file), or None when the file is
    unreadable. Used by the watcher's seen-prune tombstones to tell a
    RESTORED already-consumed file (identical fingerprint → skip, no
    double-count) from genuinely new content reusing a pruned path."""
    h = hashlib.sha256()
    h.update(path.encode())
    try:
        st = os.stat(path)
    except OSError:
        return None
    h.update(str(st.st_size).encode())
    h.update(str(st.st_mtime_ns).encode())
    return h.hexdigest()[:16]


def atomic_write_bytes(path: str, data: bytes) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)  # atomic finalize (ref scraper.rs:253-265)


def ensure_parquet_dir(path: str, schema) -> None:
    """Guarantee ``path`` exists and is readable as a parquet dataset of
    ``schema`` even when the writing Dataset had zero rows (Ray writes
    no files for an empty Dataset, and a manifest must never point at a
    parquet-less dir)."""
    import glob

    import pyarrow.parquet as pq

    if glob.glob(os.path.join(path, "*.parquet")):
        return
    os.makedirs(path, exist_ok=True)
    pq.write_table(schema.empty_table(), os.path.join(path, "empty.parquet"))


def manifest_path(out_dir: str, bucket: int) -> str:
    return os.path.join(out_dir, "_manifests", f"bucket={bucket:05d}.json")


def commit_bucket_manifest(
    out_dir: str,
    bucket: int,
    fingerprint: str,
    config_hash: str,
    blocks: list[dict],
    counters: dict,
    watermark: int | None,
    applied: list[str] | None = None,
) -> dict:
    m = {
        "bucket": bucket,
        "fingerprint": fingerprint,
        "config_hash": config_hash,
        "applied": applied or [fingerprint],  # append lineage (continuous aggs)
        "watermark": watermark,
        "blocks": blocks,
        "counters": counters,
        "committed_at": time.time(),
    }
    atomic_write_bytes(
        manifest_path(out_dir, bucket), json.dumps(m, sort_keys=True).encode()
    )
    return m


def iter_bucket_manifests(out_dir: str):
    """Yield (path, manifest_dict) for every readable bucket manifest.

    The single place that knows the directory layout and tolerates torn
    writes (a half-written JSON is skipped = treated as uncommitted).
    """
    mdir = os.path.join(out_dir, "_manifests")
    if not os.path.isdir(mdir):
        return
    for name in sorted(os.listdir(mdir)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(mdir, name)
        try:
            with open(path) as f:
                yield path, json.load(f)
        except (json.JSONDecodeError, OSError):
            continue


def committed_bucket_manifests(out_dir: str):
    """Yield (path, m) for bucket manifests CONSISTENT with the
    committed ``_run/manifest.json`` — the read-side filter (ADVICE r1):
    a reused output dir can hold stale bucket manifests from a previous
    run over different input/config; only buckets matching the run
    manifest's config_hash (and its fingerprint, when the run was
    non-append and thus carries one) are visible to readers. No
    readable run manifest ⇒ the run never committed ⇒ nothing is
    visible (the run manifest is the atomic publish point).
    """
    p = os.path.join(out_dir, "_run", "manifest.json")
    try:
        with open(p) as f:
            run = json.load(f)
    except (OSError, json.JSONDecodeError):
        return
    ch = run.get("config_hash")
    fp = run.get("fingerprint")  # absent on --append runs
    for path, m in iter_bucket_manifests(out_dir):
        if m.get("config_hash") != ch:
            continue
        if fp is not None and m.get("fingerprint") != fp:
            continue
        yield path, m


def load_committed(out_dir: str, fingerprint: str, config_hash: str) -> dict[int, dict]:
    """Buckets already rolled for this exact input+config."""
    out: dict[int, dict] = {}
    for _, m in iter_bucket_manifests(out_dir):
        if m.get("fingerprint") == fingerprint and m.get("config_hash") == config_hash:
            out[int(m["bucket"])] = m
    return out


def merge_run_manifest(out_dir: str, fingerprint: str, config_hash: str) -> dict:
    """Merge bucket manifests into _run/manifest.json (committed last)."""
    committed = load_committed(out_dir, fingerprint, config_hash)
    return fold_run_manifest(
        out_dir, committed.values(),
        fingerprint=fingerprint, config_hash=config_hash,
    )


def fold_run_manifest(out_dir: str, manifests, **ident) -> dict:
    """Fold bucket manifests' counters, blocks and watermark into the
    run manifest and commit it as ``_run/manifest.json``. ``ident``
    (fingerprint and/or config_hash) leads the dict: an append run
    carries no fingerprint, which is how readers tell it apart
    (:func:`committed_bucket_manifests`)."""
    counters: dict[str, int] = {}
    blocks: list[dict] = []
    buckets: list[int] = []
    watermark = None
    for m in manifests:
        buckets.append(int(m["bucket"]))
        for k, v in (m.get("counters") or {}).items():
            counters[k] = counters.get(k, 0) + v
        blocks.extend(m.get("blocks") or [])
        w = m.get("watermark")
        if w is not None:
            watermark = w if watermark is None else max(watermark, w)
    run = {
        **ident,
        "buckets_committed": sorted(buckets),
        "n_blocks": len(blocks),
        "total_block_bytes": sum(b.get("bytes", 0) for b in blocks),
        "counters": counters,
        "watermark": watermark,
    }
    atomic_write_bytes(
        os.path.join(out_dir, "_run", "manifest.json"),
        json.dumps(run, sort_keys=True, indent=1).encode(),
    )
    return run
