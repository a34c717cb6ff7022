"""Span recording for the traced replay.

The replay calls the engine's layer functions from the benchmark's own
code and wraps each call in a span. Spans live in memory and are
written once, at the end of the run. A layer's self time is the
duration of its spans minus the time covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time

# span name -> metric stem. The per-layer table prints "<stem>_s"
# (seconds); the result line carries "<stem>_share" (self time as a
# share of the traced replay's wall time).
LAYERS = {
    "sources": "sources.self",
    "stages.derive": "stages.derive.self",
    "stages.parse": "stages.parse.self",
    "stages.relabel": "stages.relabel.self",
    "stages.rollup.partial": "stages.rollup.partial_self",
    "stages.rollup.merge": "stages.rollup.merge_self",
    "stages.gorilla.encode": "stages.gorilla.encode_self",
    "stages.gorilla.decode": "stages.gorilla.decode_self",
    "state.manifest.commit": "state.manifest.commit_self",
    "state.retention": "state.retention.self",
    "pipelines.watch": "pipelines.watch.protocol_self",
    "pipelines.persist": "pipelines.persist.self",
    "datapipe.textstats.quality": "datapipe.textstats.quality_self",
    "datapipe.dedup.exact": "datapipe.dedup.exact_self",
    "datapipe.dedup.minhash": "datapipe.dedup.minhash_self",
    "datapipe.sample": "datapipe.sample.self",
}

# minhash_dedup(metrics=...)["phase_seconds"] keys on the verified route
MINHASH_PHASES = ("sig", "pairs", "prefilter", "verify", "components")

# counts recorded at span boundaries and reported as they are (the
# replay also records partial_rows and verified_edges, reported as
# ratios)
COUNTS = (
    "stages.parse.lines_in",
    "stages.parse.points_out",
    "stages.rollup.windows_out",
    "stages.rollup.gap_windows",
    "stages.gorilla.encode_bytes",
    "stages.gorilla.decode_bytes",
    "state.manifest.commits",
    "state.retention.blocks_evicted",
    "datapipe.dedup.minhash.candidate_pairs",
)


class Tracer:
    """Records (name, start, end, parent, op) spans and named counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self.op = 0

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def take_counts(self) -> dict[str, float]:
        """Counts recorded since the last call (one operation's)."""
        out, self.counts = self.counts, {}
        return out

    def self_times(self, op: int) -> dict[str, float]:
        """Self seconds per span name for one operation."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, o in self.spans:
            if o == op and parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = {}
        for i, (name, t0, t1, _parent, o) in enumerate(self.spans):
            if o == op:
                out[name] = out.get(name, 0.0) + (t1 - t0) - child[i]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for name, t0, t1, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": t0, "end": t1,
                                    "parent": parent, "op": op}) + "\n")


class NullTracer:
    """The spans-off twin of :class:`Tracer`: same calls, no records."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float) -> None:
        pass


def _wrap(tr: Tracer, name: str, fn, on_result=None, on_args=None):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        if on_args is not None:
            on_args(args, kwargs)
        with tr.span(name):
            out = fn(*args, **kwargs)
        if on_result is not None:
            on_result(out)
        return out

    return inner


@contextlib.contextmanager
def instrumented(tr: Tracer):
    """Wrap the engine functions that the per-bucket commit and the
    watcher tick call internally, so the replay's spans reach below
    ``_encode_and_commit`` and ``DirectoryWatcher.tick``. Only this
    process is patched; Ray workers import clean modules. A
    :class:`NullTracer` patches nothing."""
    if isinstance(tr, NullTracer):
        yield
        return
    import beamium_ray.pipelines.persist as persist
    import beamium_ray.stages.gorilla as gorilla
    import beamium_ray.state.retention as retention

    def on_commit(args, kwargs):
        counters = args[5] if len(args) > 5 else kwargs["counters"]
        tr.count("state.manifest.commits", 1)
        tr.count("stages.rollup.windows_out", counters.get("windows", 0))
        tr.count("stages.rollup.gap_windows", counters.get("gap_windows", 0))

    def on_retention(res):
        tr.count("state.retention.blocks_evicted",
                 res.get("blocks_ttl_evicted", 0)
                 + res.get("blocks_size_evicted", 0))

    patches = [
        (persist, "encode_block", _wrap(
            tr, "stages.gorilla.encode", persist.encode_block,
            on_result=lambda b: tr.count("stages.gorilla.encode_bytes", len(b)))),
        (gorilla, "decode_block", _wrap(
            tr, "stages.gorilla.decode", gorilla.decode_block,
            on_args=lambda a, k: tr.count("stages.gorilla.decode_bytes",
                                          len(a[0])))),
        (persist, "merge_cascade_gapfill", _wrap(
            tr, "stages.rollup.merge", persist.merge_cascade_gapfill)),
        (persist, "merge_tiers_with_prior", _wrap(
            tr, "stages.rollup.merge", persist.merge_tiers_with_prior)),
        (persist, "commit_bucket_manifest", _wrap(
            tr, "state.manifest.commit", persist.commit_bucket_manifest,
            on_args=on_commit)),
        (retention, "apply_retention", _wrap(
            tr, "state.retention", retention.apply_retention,
            on_result=on_retention)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, fn in patches:
            setattr(mod, attr, fn)
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
