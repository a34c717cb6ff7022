"""Flagship pipeline: sequences → datapoints → relabel/filter → rollup.

Ray-Data re-expression of the reference lifecycle (SURVEY.md §3):

    read_sequences(tokenized sequences)               # scrape fetch S1-S3
      → map_batches(derive + parse + relabel + filter)  # P1-P8, fused
                                                      # with the read
      → [token payload rides along]                   # router forward path
      → rollup_dataset(narrow projection)             # the engine's new
                                                      # wide operator (§2.4)

Everything is streaming; the token payload never enters the shuffle —
the rollup consumes only (series_key, ts, value, order).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from beamium_ray.config import EngineConfig
from beamium_ray.sources.tokens import _NTOK_SALT, _SRC_SALT, _SOURCE_CUM, SOURCES, VOCAB
from beamium_ray.functions.hashing import splitmix64
from beamium_ray.stages.derive import (
    DEFAULT_NOW_US,
    derive_columns_batch,
    derive_lines_batch,
)
from beamium_ray.stages.parse import parse_table
from beamium_ray.stages.process import scrape_tail, with_series_key
from beamium_ray.stages.rollup import rollup_dataset

PAYLOAD_COLS = ["order", "doc_id", "tokens", "n_tok", "source"]


def _derive_tokens(i: np.ndarray) -> tuple[np.ndarray, pa.ListArray]:
    """(n_tok int32, tokens list<int32>) for uint64 ids ``i`` — the
    fully-vectorized token derivation shared by the canonical derive
    and the tokens-only fast path (same splitmix64 rules as
    sources.tokens.make_chunk)."""
    n_tok = (16 + (splitmix64(i ^ _NTOK_SALT) % np.uint64(497))).astype(np.int32)
    total = int(n_tok.sum(dtype=np.int64))
    rid = np.repeat(i, n_tok)
    off = np.concatenate(([0], np.cumsum(n_tok, dtype=np.int64)))
    row_of = np.repeat(np.arange(len(i), dtype=np.int64), n_tok)
    j = (np.arange(total, dtype=np.int64) - off[row_of]).astype(np.uint64)
    toks = (splitmix64((rid << np.uint64(20)) ^ j) % np.uint64(VOCAB)).astype(np.int32)
    arr = pa.ListArray.from_arrays(
        pa.array(off, pa.int32()), pa.array(toks, pa.int32())
    )
    return n_tok, arr


def sequence_tokens_batch(batch: pa.Table) -> pa.Table:
    """Tokens-only derive: (ord, tokens, n_tok) from int64 ``doc_id``
    WITHOUT the per-row doc-id string build or the source lookup —
    the dominant cost of :func:`sequences_from_documents_batch` for
    token-payload ops that never read those columns (identical token
    arrays, pure vectorized)."""
    i = batch["doc_id"].to_numpy().astype(np.uint64)
    n_tok, arr = _derive_tokens(i)
    return pa.table(
        {
            "ord": pa.array(i.astype(np.int64), pa.int64()),
            "tokens": arr,
            "n_tok": pa.array(n_tok, pa.int32()),
        }
    )


def sequences_from_documents_batch(batch: pa.Table) -> pa.Table:
    """Deterministically derive the canonical tokenized-sequence table
    from a ``documents`` table's int64 ``doc_id`` (same splitmix64 rules
    as sources.tokens.make_chunk, so row content is a pure function of
    the id). Lets testdata drive the same pipeline as synthetic input."""
    i = batch["doc_id"].to_numpy().astype(np.uint64)
    n_tok, arr = _derive_tokens(i)
    pct = (splitmix64(i ^ _SRC_SALT) % np.uint64(100)).astype(np.int64)
    source = SOURCES[np.searchsorted(_SOURCE_CUM, pct, side="right")]
    return pa.table(
        {
            "doc_id": pa.array([f"doc-{k:012d}" for k in i.tolist()], pa.string()),
            "tokens": arr,
            "n_tok": pa.array(n_tok, pa.int32()),
            "source": pa.array(source, pa.string()),
        }
    )


class DeriveParseRelabel:
    """Fused stage P1-P8: one vectorized pass per batch (SURVEY.md §2.2 P8).

    mode="lines": compose Prometheus text then parse it (conformance
    path — exercises the full parser on bulk data).
    mode="columns": direct columnar derivation (scale path; identical
    output, asserted in tests).
    Both modes then run the scraper stage's P5→P10 tail
    (:func:`~beamium_ray.stages.process.scrape_tail`).
    """

    def __init__(
        self,
        cfg: EngineConfig,
        now_us: int = DEFAULT_NOW_US,
        mode: str = "columns",
        metrics_actor: str | None = None,
    ):
        self.cfg = cfg
        self.now = now_us
        self.mode = mode
        self.metrics_actor = metrics_actor
        self._actor = None

    def _flush(self, counters: dict, rows_in: int, rows_out: int) -> None:
        if not self.metrics_actor:
            return
        from beamium_ray.state.metrics import lookup

        if self._actor is None:
            self._actor = lookup(self.metrics_actor)
            if self._actor is None:  # driver never created it → no-op
                self.metrics_actor = None
                return
        # fire-and-forget: never backpressures the hot path
        self._actor.add.remote(
            {**counters, "rows_in": rows_in, "rows_out": rows_out}
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.mode == "lines":
            lined = derive_lines_batch(batch, self.now)
            passthrough = [c for c in PAYLOAD_COLS if c in lined.column_names]
            counters: dict = {}
            t = parse_table(lined, self.now, "line", passthrough, counters)
        else:
            t = derive_columns_batch(batch, self.now)
            counters = {"inf_nan": batch.num_rows - t.num_rows}
        t = scrape_tail(t, self.cfg)
        self._flush(counters, batch.num_rows, t.num_rows)
        return with_series_key(t)


def datapoints(
    seq_ds,
    cfg: EngineConfig,
    now_us: int = DEFAULT_NOW_US,
    mode: str = "columns",
    metrics_actor: str | None = None,
):
    """sequences Dataset → datapoint Dataset (payload carried along).

    ``metrics_actor``: name of a counter actor to flush per-batch
    drop-rule tallies to (in-pipeline metrics — no second counting
    pass; read with ``state.metrics.read_and_drop`` after execution).
    """
    return seq_ds.map_batches(
        DeriveParseRelabel(cfg, now_us, mode, metrics_actor),
        batch_format="pyarrow",
        batch_size=None,  # whole-block batches: the kernels are fully
        # vectorized, so bigger batches amortize fixed kernel overhead
    )


def rollup_from_datapoints(dp_ds, cfg: EngineConfig):
    """Narrow projection → windowed rollup (the one shuffle)."""
    narrow = dp_ds.select_columns(["series_key", "ts", "value", "order"])
    return rollup_dataset(
        narrow,
        cfg.tiers,
        order_col="order",
        num_buckets=cfg.num_buckets,
        gapfill=cfg.gapfill,
        shuffle_blocks=cfg.rollup_shuffle_blocks(),
        gapfill_max_gap=cfg.gapfill_max_gap,
    )


def flagship(seq_ds, cfg: EngineConfig | None = None, now_us: int = DEFAULT_NOW_US,
             mode: str = "columns"):
    """sequences → (datapoints with payload, rolled tiers)."""
    cfg = cfg or EngineConfig()
    dp = datapoints(seq_ds, cfg, now_us, mode)
    return dp, rollup_from_datapoints(dp, cfg)
