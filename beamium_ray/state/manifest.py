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

This module is the one block store: every other module reaches a
manifest's block list only through it — the liveness rule
(:func:`live_manifests`), the block plan (:func:`plan`), a bucket's
prior state (:func:`bucket_manifest`), the unreferenced-file rule
(:func:`unreferenced_blocks`) and eviction (:func:`evict`).

Layout (SURVEY.md §4.3)::

    out/
      tier=1m/bucket=000/block-<fp>.bin
      _manifests/bucket=000.json
      _run/manifest.json        # merged, committed last
"""

from __future__ import annotations

import glob
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
    import pyarrow.parquet as pq

    if glob.glob(os.path.join(path, "*.parquet")):
        return
    os.makedirs(path, exist_ok=True)
    pq.write_table(schema.empty_table(), os.path.join(path, "empty.parquet"))


def manifest_path(out_dir: str, bucket: int) -> str:
    return os.path.join(out_dir, "_manifests", f"bucket={bucket:05d}.json")


def _load_json(path: str) -> dict | None:
    """The JSON at ``path``, or None when absent or torn (a half-written
    file is treated as uncommitted)."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def _write_manifest(out_dir: str, m: dict) -> None:
    atomic_write_bytes(
        manifest_path(out_dir, int(m["bucket"])),
        json.dumps(m, sort_keys=True).encode(),
    )


def remove_files(paths) -> None:
    for p in paths:
        try:
            os.remove(p)
        except OSError:
            pass


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
    _write_manifest(out_dir, m)
    return m


def manifest_buckets(out_dir: str) -> list[int]:
    """Buckets with a manifest file, readable or torn, in bucket order."""
    mdir = os.path.join(out_dir, "_manifests")
    if not os.path.isdir(mdir):
        return []
    return sorted(
        int(name[len("bucket="):-len(".json")])
        for name in os.listdir(mdir)
        if name.startswith("bucket=") and name.endswith(".json")
    )


def bucket_manifest(out_dir: str, bucket: int) -> dict | None:
    """``bucket``'s manifest, or None when it has none or it is torn."""
    return _load_json(manifest_path(out_dir, bucket))


def iter_bucket_manifests(out_dir: str):
    """Yield (path, manifest_dict) for every readable bucket manifest,
    in bucket order; a torn one is skipped (treated as uncommitted)."""
    for bucket in manifest_buckets(out_dir):
        m = bucket_manifest(out_dir, bucket)
        if m is not None:
            yield manifest_path(out_dir, bucket), m


def applied_fingerprints(m: dict) -> list[str]:
    """The input fingerprints folded into a bucket: its append lineage."""
    return m.get("applied") or [m.get("fingerprint")]


def live_manifests(out_dir: str, config_hash: str, fingerprint: str | None = None):
    """Yield (path, m) for the bucket manifests that a run manifest of
    this identity publishes — the one liveness rule that readers,
    resume and the run-manifest fold share: same config_hash and, for a
    non-append run (the only kind that carries a fingerprint), same
    fingerprint."""
    for path, m in iter_bucket_manifests(out_dir):
        if m.get("config_hash") == config_hash and (
            fingerprint is None or m.get("fingerprint") == fingerprint
        ):
            yield path, m


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
    run = _load_json(os.path.join(out_dir, "_run", "manifest.json"))
    if run is not None:
        yield from live_manifests(
            out_dir, run.get("config_hash"), run.get("fingerprint")
        )


def load_committed(out_dir: str, fingerprint: str, config_hash: str,
                   append: bool = False) -> dict[int, dict]:
    """Buckets already rolled for this exact input+config (the resume
    skip set). With ``append``: the buckets whose append lineage already
    holds ``fingerprint``, which a crashed append's rerun skips."""
    return {
        int(m["bucket"]): m
        for _, m in live_manifests(out_dir, config_hash, None if append else fingerprint)
        if not append or fingerprint in applied_fingerprints(m)
    }


def plan(out_dir: str, tier: str | None = None, min_window: int | None = None,
         max_window: int | None = None, manifests=None) -> list[dict]:
    """One entry per block of ``manifests`` (manifest dicts; by default
    the live ones, :func:`committed_bucket_manifests`), in manifest
    order: the block's manifest record with ``bucket`` added and
    ``path`` made absolute. ``tier`` None keeps every tier; blocks whose
    [min_window, max_window] misses the range are pruned unread."""
    if manifests is None:
        manifests = (m for _, m in committed_bucket_manifests(out_dir))
    entries = []
    for m in manifests:
        for b in m.get("blocks") or []:
            if tier is not None and b.get("tier") != tier:
                continue
            if min_window is not None and b["max_window"] < min_window:
                continue
            if max_window is not None and b["min_window"] > max_window:
                continue
            entries.append({**b, "bucket": int(m["bucket"]),
                            "path": os.path.join(out_dir, b["path"])})
    return entries


def unreferenced_blocks(out_dir: str, manifest: dict | None = None):
    """Yield the block files (``block*``, a crashed write's
    ``.tmp.<pid>`` leftovers included) that no manifest references.
    With ``manifest``: in its bucket's directories, against its own
    blocks (the post-commit GC). Without: in every bucket, against the
    live plan (fsck's orphan count)."""
    bucket = "*" if manifest is None else f"{int(manifest['bucket']):05d}"
    live = plan(out_dir, manifests=None if manifest is None else [manifest])
    referenced = {e["path"] for e in live}
    pattern = os.path.join(
        glob.escape(out_dir), "tier=*", f"bucket={bucket}", "block*"
    )
    for path in sorted(glob.glob(pattern)):
        if path not in referenced:
            yield path


def evict(out_dir: str, victims: list[dict]) -> None:
    """Drop ``victims`` (:func:`plan` entries) from the store. Each
    touched manifest is rewritten once, without them, and its
    ``retention_evicted`` marker grows by the number it lost (counters
    stay roll-time lineage; the marker tells fsck that the blocks no
    longer re-derive them). The files go last: a crash in between leaves
    unreferenced orphans, never a manifest pointing at a deleted file."""
    gone: dict[int, set[str]] = {}
    for v in victims:
        gone.setdefault(v["bucket"], set()).add(v["path"])
    for bucket, paths in gone.items():
        m = bucket_manifest(out_dir, bucket)
        if m is not None:
            blocks = m.get("blocks") or []
            m["blocks"] = [b for b in blocks
                           if os.path.join(out_dir, b["path"]) not in paths]
            m["retention_evicted"] = (
                int(m.get("retention_evicted", 0)) + len(blocks) - len(m["blocks"])
            )
            _write_manifest(out_dir, m)
    remove_files(p for paths in gone.values() for p in paths)


def merge_run_manifest(out_dir: str, fingerprint: str, config_hash: str) -> dict:
    """Merge this run's bucket manifests into _run/manifest.json
    (committed last). A non-append run replaces the store, so it first
    drops every bucket manifest it did not write — the manifest, then
    its block files. Left in place, an earlier run's buckets would come
    back at the next append, which publishes every bucket of its
    config."""
    committed = load_committed(out_dir, fingerprint, config_hash)
    for path, m in iter_bucket_manifests(out_dir):
        if int(m["bucket"]) not in committed:
            remove_files([path] + [e["path"] for e in plan(out_dir, manifests=[m])])
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
