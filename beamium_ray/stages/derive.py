"""Derive stage: tokenized-sequence rows → datapoints (FIXTURES.md §1).

The engine's first ``map_batches`` stage. From each input row
``(doc_id, tokens, n_tok, source)`` it deterministically derives the
datapoint fields the rollup consumes:

    ts       T0 + i*STEP + (splitmix64(i^J) % 1000) ms-aligned µs; a
             seeded 1/50 fraction get NO timestamp → stamped with the
             partition's ``now`` (the reference's scrape-time default,
             ref src/lib/transcompiler.rs:62-66)
    class    "seq.<source>.ntok"
    labels   "source=<source>,shard=<splitmix64(i^J)%16>"
    value    float(n_tok); a seeded 1/200 fraction synthesized as
             NaN/±Inf text to exercise the drop rule (ref :55-60)
    order    global row index (deterministic `last` tie-break)

Two modes assert the same result (tested):
  * ``columns``  — direct columnar derivation (the scale path)
  * ``lines``    — compose the Prometheus text line per row and run it
                   through the vectorized parser (the conformance path:
                   exercises P1 end-to-end on bulk data)

The ``tokens`` payload rides along untouched (per-row token-array
equality invariant, BASELINE.json input_hint).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from beamium_ray.functions.hashing import splitmix64

T0_US = 1_700_000_000_000_000  # 2023-11-14T22:13:20Z
# 20 datapoints per second across the stream → with ~64 series a 1m
# window holds ~19 points per series (realistic rollup density; the
# per-batch combiner then reduces ~19×, so the shuffle moves ~5% of the
# points — the property the partial→final design relies on at scale)
STEP_US = 50_000
_TS_NULL_SALT = np.uint64(0x7A57_0001)
_VAL_SALT = np.uint64(0x7A57_0002)
# jitter/shard come from splitmix64(i ^ salt), NOT hash64(doc_id):
# splitmix is exactly reproducible in the DuckDB oracle (HUGEINT wrap
# arithmetic), making the WHOLE flagship rollup hash-verifiable;
# polars' string hash is version-dependent and not SQL-expressible
_JITTER_SALT = np.uint64(0x7A57_0003)
DEFAULT_NOW_US = 1_700_100_000_000_000  # deterministic per-run "scrape now"

_BAD_VALUES = np.array(["NaN", "+Inf", "-Inf", "nan"])


def _row_index(doc_id: pa.Array) -> np.ndarray:
    """Recover the global row index i from 'doc-%012d' (vectorized)."""
    ints = pc.cast(pc.utf8_slice_codeunits(doc_id, 4, 16), pa.int64())
    return ints.to_numpy().astype(np.uint64)


def derive_fields(batch: pa.Table, now_us: int = DEFAULT_NOW_US) -> dict:
    """Shared derivation → dict of numpy/arrow pieces."""
    doc_id = batch["doc_id"]
    if isinstance(doc_id, pa.ChunkedArray):
        doc_id = doc_id.combine_chunks()
    source = batch["source"]
    if isinstance(source, pa.ChunkedArray):
        source = source.combine_chunks()
    i = _row_index(doc_id)
    h = splitmix64(i ^ _JITTER_SALT)
    # jitter is ms-aligned so the text-line path (ms-granularity
    # Prometheus timestamps, parser multiplies by 1000) and the columnar
    # path produce IDENTICAL µs timestamps
    with np.errstate(over="ignore"):
        ts = (
            np.int64(T0_US)
            + i.astype(np.int64) * np.int64(STEP_US)
            + (h % np.uint64(1000)).astype(np.int64) * np.int64(1000)
        )
    ts_missing = (splitmix64(i ^ _TS_NULL_SALT) % np.uint64(50)) == 0
    ts[ts_missing] = now_us

    n_tok = batch["n_tok"]
    if isinstance(n_tok, pa.ChunkedArray):
        n_tok = n_tok.combine_chunks()
    value = n_tok.to_numpy().astype(np.float64)
    bad = (splitmix64(i ^ _VAL_SALT) % np.uint64(200)) == 0
    # independent of the `bad` mask: hash%200==0 implies hash%4==0, so
    # deriving the kind from the same residue would always pick 'NaN'
    bad_kind = ((splitmix64(i ^ _VAL_SALT) // np.uint64(200)) % np.uint64(4)).astype(np.int64)

    shard = (h % np.uint64(16)).astype(np.int64)
    klass = pc.binary_join_element_wise(
        pa.scalar("seq."), source, pa.scalar(".ntok"), pa.scalar("")
    )
    shard_str = pc.cast(pa.array(shard), pa.string())
    labels = pc.binary_join_element_wise(
        pa.scalar("source="), source, pa.scalar(",shard="), shard_str, pa.scalar("")
    )
    return {
        "i": i,
        "ts": ts,
        "value": value,
        "bad": bad,
        "bad_kind": bad_kind,
        "class": klass,
        "labels": labels,
    }


def derive_columns_batch(batch: pa.Table, now_us: int = DEFAULT_NOW_US) -> pa.Table:
    """Scale path: derive typed datapoint columns directly; rows with a
    NaN/Inf synthetic value are dropped here (exactly the parse drop rule)."""
    f = derive_fields(batch, now_us)
    keep = ~f["bad"]
    cols = {
        "ts": pa.array(f["ts"], pa.int64()),
        "class": f["class"],
        "labels": f["labels"],
        "value": pa.array(f["value"], pa.float64()),
        "order": pa.array(f["i"].astype(np.int64), pa.int64()),
    }
    for name in ("doc_id", "tokens", "n_tok", "source"):
        if name in batch.column_names:  # payload passthrough; column-pruned
            cols[name] = batch[name]  # reads may omit the heavy tokens
    return pa.table(cols).filter(pa.array(keep))


def derive_lines_batch(batch: pa.Table, now_us: int = DEFAULT_NOW_US) -> pa.Table:
    """Conformance path: compose the *Prometheus text line* per row.

    Output: the input payload columns + a ``line`` column + ``order``.
    Rows whose derived ts is "missing" emit no timestamp token (the
    parser must stamp them with ``now``); ms-granularity timestamps are
    emitted (the parser multiplies by 1000), so jitter sub-ms digits are
    truncated — the columns path truncates identically for comparison.
    """
    f = derive_fields(batch, now_us)
    i = f["i"]
    ts_missing = (splitmix64(i ^ _TS_NULL_SALT) % np.uint64(50)) == 0

    val_str = pc.cast(pa.array(f["value"]), pa.string())
    bad_strs = pa.array(_BAD_VALUES[f["bad_kind"]])
    val_str = pc.if_else(pa.array(f["bad"]), bad_strs, val_str)

    ts_ms = f["ts"] // 1000
    ts_tok = pc.cast(pa.array(ts_ms), pa.string())
    ts_tok = pc.if_else(pa.array(ts_missing), pa.scalar(""),
                        pc.binary_join_element_wise(pa.scalar(" "), ts_tok, pa.scalar("")))

    # Prometheus form: class{k="v",...} value [ts_ms]
    src = batch["source"]
    if isinstance(src, pa.ChunkedArray):
        src = src.combine_chunks()
    shard_str = pc.cast(
        pa.array(
            (splitmix64(i ^ _JITTER_SALT) % np.uint64(16)).astype(np.int64)
        ),
        pa.string(),
    )
    line = pc.binary_join_element_wise(
        f["class"],
        '{source="',
        src,
        '",shard="',
        shard_str,
        '"} ',
        val_str,
        ts_tok,
        "",
    )
    cols = {
        "line": line,
        "order": pa.array(i.astype(np.int64), pa.int64()),
    }
    for name in ("doc_id", "tokens", "n_tok", "source"):
        if name in batch.column_names:
            cols[name] = batch[name]
    return pa.table(cols)
