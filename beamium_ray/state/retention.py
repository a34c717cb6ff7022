"""Retention over persisted rollup blocks: TTL horizon + size cap.

The engine analog of beamium's bounded-loss DFO eviction
(ref ``src/sink.rs:102-221``): files older than ``ttl`` are deleted
(counted in ``skip_ttl``), and while the directory exceeds ``size`` the
OLDEST entries are evicted first (``skip_max_size``). Here "oldest" is
data time (a block's max window_start), not mtime — deterministic for a
batch engine — and eviction operates on the manifest + block files.

This module is the policy only; the store (``manifest.evict``) keeps
the crash-ordering contract, which mirrors the commit protocol: the
manifest is rewritten WITHOUT the evicted blocks FIRST, then the files
are deleted.
A crash in between leaves unreferenced orphan files (harmless, invisible
to the manifest-driven readers) — never a manifest pointing at a
deleted file.
"""

from __future__ import annotations

from beamium_ray.state.manifest import (
    evict,
    fold_run_manifest,
    iter_bucket_manifests,
    live_manifests,
    plan,
)


def apply_retention(
    out_dir: str,
    ttl_us: dict[str, int] | None = None,
    max_bytes: int | None = None,
    now_us: int | None = None,
) -> dict:
    """Prune committed blocks. Returns counters
    {windows_expired, blocks_ttl_evicted, blocks_size_evicted, bytes_after}.

    ttl_us: per-tier horizon — blocks whose max_window < now - ttl[tier]
    are dropped (TTL analog, ref sink.rs:102-146). max_bytes: total cap,
    oldest-by-data-time evicted first (ref sink.rs:172-222). Nothing is
    written when nothing is evicted.
    """
    ttl = (ttl_us or {}) if now_us is not None else {}
    expired, kept = [], []
    # every readable manifest, live or stale: like the reference's one
    # directory scan, retention bounds what the directory holds
    for b in plan(out_dir, manifests=(m for _, m in iter_bucket_manifests(out_dir))):
        horizon = ttl.get(b.get("tier", ""))
        old = horizon is not None and b.get("max_window") is not None and (
            b["max_window"] < now_us - horizon
        )
        (expired if old else kept).append(b)
    total = sum(b.get("bytes", 0) for b in kept)
    capped = []
    if max_bytes is not None:
        # oldest (min max_window) first, manifest order among equals
        for b in sorted(kept, key=lambda b: b.get("max_window") or 0):
            if total <= max_bytes:
                break
            capped.append(b)
            total -= b.get("bytes", 0)
    evict(out_dir, expired + capped)
    return {
        "windows_expired": sum(b.get("rows", 0) for b in expired),
        "blocks_ttl_evicted": len(expired),
        "blocks_size_evicted": len(capped),
        "bytes_after": total,
    }


def retain_after_commit(out_dir: str, cfg, run: dict) -> None:
    """Retention after a committed run, at the reference daemon's site
    (sink.rs:102-221 sweeps on every sink pass), when ``cfg`` sets a TTL
    or a size cap; the counters land in ``run["retention"]``. The TTL is
    data-time — "now" is the run watermark — so expiry is deterministic,
    and an idle tick, which moves no watermark, has nothing to expire.
    An eviction re-folds ``_run/manifest.json`` under the run's own
    identity and updates ``run`` to match, so both count the blocks
    that are left; an eviction of nothing writes nothing."""
    if cfg.ttl_us or cfg.max_bytes is not None:
        res = run["retention"] = apply_retention(
            out_dir, cfg.ttl_us or None, cfg.max_bytes,
            now_us=run.get("watermark"),
        )
        if res["blocks_ttl_evicted"] or res["blocks_size_evicted"]:
            ident = {k: run[k] for k in ("fingerprint", "config_hash") if k in run}
            live = live_manifests(out_dir, run["config_hash"], run.get("fingerprint"))
            run.update(fold_run_manifest(out_dir, (m for _, m in live), **ident))
