"""Watch-mode ingest facade: the reference's steady-state behavior as
a batch engine loop.

The reference daemon re-scans its spool directory every ``scan-period``
(``src/lib/asynch/fs.rs:29-145``) and the router keeps a seen-file set
so each ``*.metrics`` file is processed once (``src/router.rs:56-103``).
Here each *tick* is one bounded batch job: scan for unseen files, fold
them into the existing rollup blocks with ONE :func:`append_rollup`
call (continuous aggregates — completed windows are never re-rolled),
and record the files in a durable seen-manifest.

Exactly-once across crashes is a two-phase intent protocol on the
watch state file (``_run/watch.json``):

1. write the new-file batch as ``pending`` (intent) BEFORE any append;
2. run the append — idempotent per (bucket, batch fingerprint), so a
   replay after a crash skips buckets that already applied it;
3. promote ``pending`` → ``seen``.

A tick that finds a leftover ``pending`` entry first replays exactly
that file list (same fingerprint → buckets that committed it no-op),
then proceeds to genuinely new files. The input files must therefore
remain in place — and UNCHANGED — until their batch is promoted to
``seen``: a missing pending file aborts with a clear error, and the
pending record stores the intent-time batch fingerprint so a file
rewritten (or merely touched — the fingerprint hashes size+mtime_ns)
in the crash window also aborts instead of replaying under a fresh
fingerprint and double-counting the buckets that already committed.
"""

from __future__ import annotations

import glob
import json
import os
import queue
import signal

from beamium_ray.config import EngineConfig
from beamium_ray.stages.derive import DEFAULT_NOW_US
from beamium_ray.state.manifest import (
    atomic_write_bytes,
    file_fingerprint,
    input_fingerprint,
    iter_bucket_manifests,
)
from beamium_ray.state.retention import retain_after_commit


def metrics_datapoints(files: list[str], cfg: EngineConfig,
                       now_us: int = DEFAULT_NOW_US):
    """``.metrics`` line files → datapoint Dataset with ``series_key``:
    :func:`multi.scraper_pipeline` over WHOLE files, so '='-continuation
    inheritance never crosses a file boundary."""
    from beamium_ray.pipelines.multi import scraper_pipeline
    from beamium_ray.sources.lines import read_metric_lines_whole_files
    from beamium_ray.stages.process import with_series_key

    dp = scraper_pipeline(read_metric_lines_whole_files(files), cfg, now_us)
    return dp.map_batches(with_series_key, batch_format="pyarrow", batch_size=None)


def spool_files(input_dir: str, ext: str) -> list[str]:
    """Every ``*.<ext>`` file under ``input_dir`` (recursive), the
    watcher's scan set — the reference's extension gate
    (``src/lib/asynch/fs.rs:83``, constants.rs:7)."""
    return glob.glob(os.path.join(input_dir, "**", f"*.{ext}"), recursive=True)


class FileBatch(list):
    """The file list handed to appenders, carrying the INTENT-TIME
    batch fingerprint from the watcher's pending record.
    Appenders must derive their idempotence key from this fingerprint
    (not recompute it from the files): a producer touching a pending
    file between the intent write and the append would otherwise key
    the store commit differently from the pending record, and the
    crash-replay fingerprint check could then re-ingest an
    already-committed batch."""

    fingerprint: str | None = None


class DirectoryWatcher:
    """One watched spool directory → incremental rollup blocks.

    ``loader(files) -> datapoint Dataset`` defaults to
    :func:`metrics_datapoints` (``*.metrics`` text spool, the
    reference's input); pass a custom loader to watch e.g. a parquet
    landing directory instead.
    """

    def __init__(
        self,
        input_dir: str,
        cfg: EngineConfig,
        out_dir: str,
        *,
        file_extension: str = "metrics",
        now_us: int = DEFAULT_NOW_US,
        loader=None,
        config_path: str | None = None,
        order_col: str | None = None,
        appender=None,
        seen_prune: bool = False,
    ):
        self.input_dir = input_dir
        self.cfg = cfg
        self.out_dir = out_dir
        self.ext = file_extension
        # the .metrics spool has no intra-ts ordering column; a custom
        # loader (e.g. a parquet landing dir) may carry one for the
        # deterministic `last` tie-break
        self.order_col = order_col
        self.now_us = now_us
        # resolved per-tick through self.cfg so hot reload takes effect
        self.loader = loader or (
            lambda files: metrics_datapoints(files, self.cfg, self.now_us)
        )
        # `appender(dataset, files) -> run manifest` replaces the rollup
        # append for non-rollup watch flows (e.g. incremental dedup over
        # a document landing dir) while keeping the two-phase
        # pending/seen exactly-once protocol. `files` is the FileBatch
        # carrying the intent-time fingerprint: the appender must be
        # IDEMPOTENT per batch (key it on files.fingerprint) — a crash
        # between append and promotion replays it.
        self.appender = appender
        # seen_prune: drop 'seen' entries whose files no longer exist
        # (checked at each promotion). Keeps the durable seen-set —
        # otherwise O(every file ever), re-serialized per tick — bounded
        # by the LIVE spool when a producer deletes consumed files (the
        # reference's shape: the router deletes routed files,
        # router.rs:98). Pruned entries leave a fingerprint TOMBSTONE
        # (path+size+mtime, FIFO-capped at max_tombstones): a consumed
        # file RESTORED in place (backup restore, producer replaying the
        # same filename byte-identically) is recognized and skipped
        # instead of silently double-counted, while genuinely new
        # content reusing a pruned path (different size/mtime) ingests
        # as fresh input. A restore older than max_tombstones pruned
        # files ago falls back to the new-input treatment.
        self.seen_prune = seen_prune
        self.max_tombstones = 100_000
        self.state_path = os.path.join(out_dir, "_run", "watch.json")
        self.config_path = config_path
        self.reload_count = 0  # the reference's beamium_reload_count
        # baseline = current file content only when it matches the cfg
        # actually in use; a cfg that predates the file (e.g. edited
        # between construction and the first tick) reloads on tick 1
        self._config_sig = None
        if config_path:
            try:
                if EngineConfig.from_file(config_path).config_hash() \
                        == cfg.config_hash():
                    self._config_sig = self._config_signature()
            except Exception:
                pass  # unreadable now → first tick re-raises loudly

    # -- hot config reload ----------------------------------------------
    def _config_signature(self) -> str | None:
        if not self.config_path:
            return None
        import hashlib

        with open(self.config_path, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()

    def _maybe_reload(self) -> bool:
        """Re-parse ``config_path`` when its content changed since the
        last tick — the reference's config watch + restart-with-new-conf
        loop (``src/main.rs:158-187``, ``src/conf.rs:611-691``) folded
        into the tick boundary. An unparseable new config ABORTS (the
        reference crit!s and ``abort()``s on an unhealthy reload,
        ``src/main.rs:180-186``) rather than silently running stale.

        Scope: OPERATIONAL knobs (retention, codecs, shuffle sizing)
        reload in place. A SEMANTIC change (``config_hash()`` differs —
        labels, whitelist, tiers, …) over a store that already holds
        committed state is refused with the same rationale as the
        append's per-bucket refusal (persist.py:101-108): the existing
        rollup history was computed under different semantics, so
        continuing would either hard-fail per bucket or silently shadow
        it; re-roll to a fresh output dir instead. The reference has no
        such constraint only because its sinks are fire-and-forget line
        files, not a merged materialized store."""
        if not self.config_path:
            return False
        sig = self._config_signature()
        if sig == self._config_sig:
            return False
        cfg = EngineConfig.from_file(self.config_path)  # raises on bad conf
        cfg.output_dir = self.out_dir  # operational knob, not reloadable
        if cfg.config_hash() != self.cfg.config_hash():
            if any(True for _ in iter_bucket_manifests(self.out_dir)):
                raise ValueError(
                    f"hot reload refused: {self.config_path} changed "
                    "SEMANTIC fields (labels/whitelist/tiers/…) but "
                    f"{self.out_dir} already holds committed rollup state "
                    "under the old semantics — point the watcher at a "
                    "fresh --output (or revert the change) and re-roll"
                )
        self.cfg = cfg
        self._config_sig = sig
        self.reload_count += 1
        return True

    # -- durable seen-set ------------------------------------------------
    def _load_state(self) -> dict:
        try:
            with open(self.state_path) as f:
                return json.load(f)
        except (FileNotFoundError, json.JSONDecodeError):
            return {"seen": [], "pending": None}

    def _save_state(self, st: dict) -> None:
        atomic_write_bytes(
            self.state_path, json.dumps(st, sort_keys=True).encode()
        )

    # -- scanning --------------------------------------------------------
    def scan(self, st: dict | None = None) -> list[str]:
        """Unseen spool files, sorted (deterministic batch order).

        Only ``*.<ext>`` files are considered (:func:`spool_files`).
        """
        st = st or self._load_state()
        exclude = set(st["seen"])
        if st.get("pending"):
            exclude.update(st["pending"]["files"])
        found = spool_files(self.input_dir, self.ext)
        tomb = st.get("tombstones") or {}
        out = []
        for p in sorted(found):
            if p in exclude:
                continue
            if p in tomb:
                # identical fingerprint → a restored already-consumed
                # file; ingesting it would double-count its rows
                if file_fingerprint(p) == tomb[p]:
                    continue
            out.append(p)
        return out

    # -- one tick --------------------------------------------------------
    def tick(self) -> dict:
        """One scan-period: hot-reload the config if it changed, replay
        any crashed pending batch, then fold all newly arrived files
        into the blocks as one append. Returns ``{"applied":
        [files...], "replayed": [files...], "run": run manifest | None,
        "reloaded": bool}`` (run is None when nothing arrived)."""
        reloaded = self._maybe_reload()
        st = self._load_state()
        replayed: list[str] = []
        applied: list[str] = []
        run = None

        if st.get("pending"):
            files = st["pending"]["files"]
            missing = [p for p in files if not os.path.exists(p)]
            if missing:
                raise FileNotFoundError(
                    f"watch replay aborted: pending batch file(s) removed "
                    f"before commit: {missing} — input files must stay in "
                    "place until their batch is promoted to 'seen'"
                )
            # the append's idempotence key is the batch FINGERPRINT
            # (path + size + mtime_ns), so a pending file rewritten or
            # even just touched in the crash window would fingerprint
            # as a fresh batch and re-apply rows that buckets already
            # committed — verify against the intent-time fingerprint
            # and abort loudly instead of double-counting
            want_fp = st["pending"].get("fingerprint")
            have_fp = input_fingerprint(files)
            if want_fp is not None and have_fp != want_fp:
                raise RuntimeError(
                    "watch replay aborted: pending batch fingerprint "
                    f"changed ({want_fp} -> {have_fp}) — a pending file "
                    "was modified or touched before its batch was "
                    "promoted to 'seen'; replaying would double-count "
                    "the rows the crashed tick already committed. "
                    "Restore the original files (size+mtime) or move "
                    "the changed files aside and reset 'pending' by "
                    "hand after auditing the store."
                )
            fb = FileBatch(files)
            fb.fingerprint = want_fp or have_fp
            run = self._append(fb)
            self._promote(st, files, st["pending"].get("file_fps"))
            replayed = files

        new = self.scan(st)
        if new:
            pending = {"files": new, "fingerprint": input_fingerprint(new)}
            if self.seen_prune:
                # tombstone fingerprints taken at INTENT time, like the
                # batch's: a producer appending to a file during the
                # append must not make its tombstone describe content
                # that was never ingested
                pending["file_fps"] = {p: file_fingerprint(p) for p in new}
            st["pending"] = pending
            self._save_state(st)  # intent BEFORE side effects
            fb = FileBatch(new)
            fb.fingerprint = pending["fingerprint"]
            run = self._append(fb)
            self._promote(st, new, pending.get("file_fps"))
            applied = new
        if self.seen_prune and self._prune_seen(st):
            self._save_state(st)
        # retention per scan, after a committed run of the engine's own
        # append (an appender owns its own store)
        if run is not None and self.appender is None:
            retain_after_commit(self.out_dir, self.cfg, run)
        return {
            "applied": applied,
            "replayed": replayed,
            "run": run,
            "reloaded": reloaded,
        }

    def _promote(self, st: dict, files: list[str],
                 file_fps: dict | None) -> None:
        """Promote an applied batch to 'seen' and clear the pending
        intent — the single commit point for both the replay and
        new-batch paths. With seen_prune on, the pending record's
        intent-time per-file fingerprints are recorded so a later prune
        can tombstone them."""
        st["seen"] = sorted(set(st["seen"]) | set(files))
        if self.seen_prune:
            fps = st.setdefault("seen_fp", {})
            tomb = st.get("tombstones") or {}
            for p in files:
                # no file_fps: a replayed intent written without
                # seen_prune; the replay's batch-fingerprint check
                # already proved the files unchanged since then
                fp = file_fps[p] if file_fps else file_fingerprint(p)
                if fp is not None:
                    fps[p] = fp
                # new content on a previously-tombstoned path: the live
                # seen entry supersedes the stale tombstone
                tomb.pop(p, None)
        st["pending"] = None
        self._save_state(st)

    def _prune_seen(self, st: dict) -> bool:
        """Drop 'seen' entries whose files are gone, moving each to a
        fingerprint tombstone (FIFO-capped). Returns True when state
        changed."""
        fps = st.setdefault("seen_fp", {})
        tomb = st.setdefault("tombstones", {})
        kept: list[str] = []
        changed = False
        for p in st["seen"]:
            if os.path.exists(p):
                kept.append(p)
                continue
            changed = True
            fp = fps.pop(p, None)
            if fp is not None:
                tomb.pop(p, None)  # re-insert at FIFO tail
                tomb[p] = fp
        while len(tomb) > self.max_tombstones:
            tomb.pop(next(iter(tomb)))
        if changed:
            st["seen"] = kept
        return changed

    def _append(self, files: FileBatch) -> dict:
        dp = self.loader(files)
        if self.appender is not None:
            return self.appender(dp, files)
        from beamium_ray.pipelines.persist import append_rollup

        run, _rows = append_rollup(
            dp, self.cfg, files, self.out_dir, order_col=self.order_col
        )
        return run


def run_ticks(
    tick,
    *,
    scan_period_s: float,
    max_ticks: int | None = None,
    idle_exit: int | None = None,
    on_tick=None,
) -> dict:
    """The daemons' one loop: call ``tick()`` every ``scan_period_s``
    (the reference's ``scan-period``, ``src/conf.rs:122``) until
    ``max_ticks`` ticks ran, ``idle_exit`` ticks in a row were idle
    (``tick()["run"]`` is None; None = no limit) or SIGTERM/SIGINT
    arrived. ``on_tick(res, ticks)`` runs after every tick. Returns
    ``{"ticks": n, "run": the last non-None run}``.

    A signal drains (the reference's ``src/main.rs:67-77``): the current
    tick finishes, the sleep wakes at once, and the loop returns. The
    handlers replace Ray's driver handler (which ``sys.exit``-s
    mid-tick) only while the loop runs: call it from the main thread,
    after ``ray.init``."""
    # SimpleQueue.put is reentrant, so the handler cannot deadlock
    # against the sleep's own wait (Event.set can)
    stop: queue.SimpleQueue = queue.SimpleQueue()
    sigs = (signal.SIGTERM, signal.SIGINT)
    prev = [signal.signal(s, lambda signum, _f: stop.put(signum)) for s in sigs]
    ticks = idle = 0
    last_run = None
    try:
        while True:
            res = tick()
            ticks += 1
            if on_tick is not None:
                on_tick(res, ticks)
            if res["run"] is not None:
                last_run = res["run"]
                idle = 0
            else:
                idle += 1
            if max_ticks is not None and ticks >= max_ticks:
                break
            if idle_exit is not None and idle >= idle_exit:
                break
            try:
                stop.get(timeout=scan_period_s)
                break  # signalled during the tick or the sleep
            except queue.Empty:
                pass
    finally:
        for s, h in zip(sigs, prev):
            signal.signal(s, h)
    return {"ticks": ticks, "run": last_run}
