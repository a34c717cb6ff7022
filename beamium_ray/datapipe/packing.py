"""Sequence-packing index: where each document lands when the corpus
is concatenated into fixed-length training sequences.

The packing step of an LLM data pipeline ("concat and chunk"): given
per-document token counts and a deterministic corpus order (doc_id),
every document gets its global token OFFSET — a distributed prefix
sum — from which seq_id = offset // seq_len and the offset within
that sequence follow. Downstream writers can then emit sequence shards
independently: a worker holding doc d knows exactly which sequence(s)
d occupies without coordination.

Distributed-scan shape (no driver-side data beyond B bucket sums):

1. one pass computes the narrow (id, n_tok) table — materialized, so
   the expensive full-text tokenization runs ONCE, not once per
   downstream aggregate; at 100 TB this table is ~16 bytes/doc;
2. ids are RANGE-bucketed (order-preserving, unlike hash buckets);
   a tiny groupby-sum yields per-bucket token totals, whose driver-side
   cumsum (B values) gives each bucket's base offset;
3. one groupby(bucket).map_groups sorts each bucket by id and adds
   base + within-bucket exclusive cumsum — the only shuffle, over the
   narrow table only.

Skew note: range buckets assume ids are roughly uniform over
[min, max] (true for dense ids). A pathological id distribution
concentrates buckets; pass a larger num_buckets or pre-flatten ids if
that bites.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from beamium_ray.functions.cluster import bucket_apply


def pack_offsets(
    counts_ds,
    id_col: str = "doc_id",
    count_col: str = "n_tok",
    seq_len: int = 2048,
    num_buckets: int | None = None,
):
    """Dataset of (id, n_tok, offset, seq_id, seq_off) from a narrow
    (id, n_tok) Dataset: offset = Σ n_tok of all ids < this id (the
    exclusive prefix sum in id order); seq_id/seq_off locate the doc's
    first token in seq_len-sized training sequences."""
    from beamium_ray.functions.cluster import default_partitions

    counts = counts_ds.materialize()  # tokenization runs once (see above)
    b = num_buckets or default_partitions()
    lo = counts.min(id_col)
    hi = counts.max(id_col)
    if lo is None:
        return counts.map_batches(
            lambda t: pa.table(
                {
                    id_col: t[id_col],
                    count_col: t[count_col],
                    "offset": pa.array([], pa.int64()),
                    "seq_id": pa.array([], pa.int64()),
                    "seq_off": pa.array([], pa.int64()),
                }
            ),
            batch_format="pyarrow",
            batch_size=None,
        )
    span = max((int(hi) - int(lo)) // b + 1, 1)

    def bucket_of(ids: np.ndarray) -> np.ndarray:
        return (ids - lo) // span

    def tag(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        return t.append_column(
            "_bkt", pa.array(bucket_of(ids).astype(np.int64))
        )

    tagged = counts.map_batches(tag, batch_format="pyarrow", batch_size=None)
    totals = {
        r["_bkt"]: r[f"sum({count_col})"]
        for r in tagged.groupby("_bkt").sum(count_col).take_all()
    }
    base = {}
    acc = 0
    for k in sorted(totals):
        base[k] = acc
        acc += int(totals[k])

    def scan(g: pa.Table) -> pa.Table:
        ids = g[id_col].to_numpy(zero_copy_only=False)
        n = g[count_col].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(ids, kind="stable")
        ids, n = ids[o], n[o]
        off = base[int(bucket_of(ids[:1])[0])] + np.concatenate(
            ([0], np.cumsum(n[:-1]))
        )
        return pa.table(
            {
                id_col: pa.array(ids),
                count_col: pa.array(n, pa.int64()),
                "offset": pa.array(off, pa.int64()),
                "seq_id": pa.array(off // seq_len, pa.int64()),
                "seq_off": pa.array(off % seq_len, pa.int64()),
            }
        )

    return bucket_apply(tagged, scan, by="_bkt")


def emit_packed_rows(
    ds,
    id_col: str = "ord",
    tokens_col: str = "tokens",
    seq_len: int = 2048,
    num_buckets: int | None = None,
):
    """Actually EMIT the packed training stream: every token of every
    document as a (seq_id, pos_in_seq, token) row, where documents are
    concatenated in ``id_col`` order and cut into ``seq_len``-token
    sequences (the writer stage on top of :func:`pack_offsets`),
    plus ``src_id`` — each token's source document id, the
    attention-boundary column a packed training stream needs to
    rebuild per-document masks after concatenation.

    Unlike the index, emission inherently moves the tokens themselves
    through ONE range-bucketed shuffle — a token can only land in its
    sequence next to tokens from neighboring documents. Everything
    else stays narrow: bucket base offsets come from a counts-only
    pass (per-bucket sums, B values on the driver).

    Two passes over the upstream (counts-extract, emit; min/max and the
    bucket sums both come off the materialized NARROW (id, n) table —
    16 bytes/doc, never the payload) — callers with an expensive
    upstream should still materialize it first."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Max, Min

    from beamium_ray.functions.cluster import default_partitions

    b = num_buckets or default_partitions()

    def _col(t: pa.Table, name: str):
        c = t[name]
        return c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c

    def narrow_counts(t: pa.Table) -> pa.Table:
        ids = _col(t, id_col).to_numpy(zero_copy_only=False)
        n = pc.fill_null(
            pc.list_value_length(_col(t, tokens_col)), 0
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(ids),
                "n": pa.array(n, pa.int64()),
            }
        )

    # ONE upstream pass extracts (id, n); min/max + per-bucket sums are
    # then computed over this narrow table only
    narrow = ds.map_batches(
        narrow_counts, batch_format="pyarrow", batch_size=None
    ).materialize()
    agg = narrow.aggregate(Min(id_col), Max(id_col))
    lo, hi = agg[f"min({id_col})"], agg[f"max({id_col})"]
    out_schema = {
        "seq_id": pa.int64(), "pos_in_seq": pa.int64(),
        "token": pa.int64(), "src_id": pa.int64(),
    }
    empty = pa.table({k: pa.array([], t) for k, t in out_schema.items()})
    if lo is None:
        return ds.map_batches(
            lambda t: empty, batch_format="pyarrow", batch_size=None
        )
    span = max((int(hi) - int(lo)) // b + 1, 1)

    def bucketize(t: pa.Table) -> pa.Table:
        ids = _col(t, id_col).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "_bkt": pa.array((ids - lo) // span, pa.int64()),
                "n": t["n"],
            }
        )

    totals = {
        r["_bkt"]: int(r["sum(n)"])
        for r in narrow.map_batches(
            bucketize, batch_format="pyarrow", batch_size=None
        ).groupby("_bkt").sum("n").take_all()
    }
    base = {}
    acc = 0
    for k in sorted(totals):
        base[k] = acc
        acc += totals[k]

    def tag(t: pa.Table) -> pa.Table:
        ids = _col(t, id_col).to_numpy(zero_copy_only=False)
        if len(ids) and (ids.min() < lo or ids.max() > hi):
            # the id bounds came from a separate execution of the same
            # upstream; ids outside them mean the upstream is
            # NONDETERMINISTIC (e.g. limit() on a racing distributed
            # read) — without this guard the emit pass would silently
            # misplace tokens (observed as a KeyError on a negative
            # bucket at 150k-doc scale)
            raise ValueError(
                f"emit_packed_rows: upstream re-execution produced "
                f"{id_col} outside [{lo}, {hi}] — the upstream is "
                "nondeterministic across executions; materialize() it "
                "before packing"
            )
        return t.append_column(
            "_bkt", pa.array((ids - lo) // span, pa.int64())
        )

    def emit(g: pa.Table) -> pa.Table:
        ids = _col(g, id_col).to_numpy(zero_copy_only=False)
        order = np.argsort(ids, kind="stable")
        toks = _col(g, tokens_col).take(pa.array(order))
        n = pc.fill_null(pc.list_value_length(toks), 0).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        vals = toks.flatten().to_numpy(zero_copy_only=False).astype(np.int64)
        bkt = int((ids[0] - lo) // span)
        if bkt not in base:
            raise ValueError(
                f"emit_packed_rows: group bucket {bkt} has no base "
                "offset — the counts pass and the emit pass saw "
                "different rows (nondeterministic upstream); "
                "materialize() the input before packing"
            )
        excl = np.concatenate(([0], np.cumsum(n[:-1])))
        off0 = base[bkt] + excl
        total = int(n.sum())
        gp = np.repeat(off0, n) + (
            np.arange(total, dtype=np.int64) - np.repeat(excl, n)
        )
        return pa.table(
            {
                "seq_id": pa.array(gp // seq_len, pa.int64()),
                "pos_in_seq": pa.array(gp % seq_len, pa.int64()),
                "token": pa.array(vals, pa.int64()),
                "src_id": pa.array(
                    np.repeat(ids[order].astype(np.int64), n), pa.int64()
                ),
            }
        )

    return bucket_apply(ds, emit, by="_bkt", prep=tag)


def truncate_sequences(
    ds,
    list_col: str = "tokens",
    len_col: str = "n_tok",
    max_len: int = 2048,
    min_len: int = 0,
):
    """Context-length shaping: drop sequences shorter than ``min_len``
    tokens and clip the rest to their first ``max_len`` tokens,
    updating ``len_col`` (created if absent). The filter/clip every
    training pipeline runs before packing — a pure map stage: no
    shuffle, Arrow ``list_slice`` kernel per block, payload untouched
    beyond the clip."""
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        col = batch[list_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lens = pc.list_value_length(col)
        if min_len > 0:
            keep = pc.greater_equal(lens, min_len)
            batch = batch.filter(keep)
            col = batch[list_col]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
        clipped = pc.list_slice(col, 0, max_len)
        new_len = pc.cast(pc.list_value_length(clipped), pa.int32())
        batch = batch.set_column(
            batch.column_names.index(list_col), list_col, clipped
        )
        if len_col in batch.column_names:
            batch = batch.set_column(
                batch.column_names.index(len_col), len_col, new_len
            )
        else:
            batch = batch.append_column(len_col, new_len)
        return batch

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def length_bucket_batches(
    counts_ds,
    id_col: str = "doc_id",
    count_col: str = "n_tok",
    bucket_width: int = 64,
    batch_size: int = 32,
    num_buckets: int | None = None,
):
    """Dynamic-batching index: group sequences into LENGTH buckets
    (len_bucket = n_tok // bucket_width) and give each row a stable
    rank and micro-batch index within its bucket in id order — the
    batching layout that bounds padding waste by ``bucket_width``
    (batch mates differ by < bucket_width tokens).

    Same distributed-scan shape as :func:`pack_offsets`, generalized
    to a two-level key: ids are RANGE-bucketed for parallelism; per
    (len_bucket, range_bucket) ROW counts merge in one tiny groupby;
    the driver cumsums each len_bucket's counts across range buckets
    (L×B small ints — never rows); one groupby.map_groups adds
    base + local rank. Only the narrow (id, n_tok) table shuffles."""
    from beamium_ray.functions.cluster import default_partitions

    counts = counts_ds.materialize()
    b = num_buckets or default_partitions()
    lo = counts.min(id_col)
    hi = counts.max(id_col)
    empty = pa.table(
        {
            id_col: pa.array([], pa.int64()),
            count_col: pa.array([], pa.int64()),
            "len_bucket": pa.array([], pa.int64()),
            "rank_in_bucket": pa.array([], pa.int64()),
            "batch_idx": pa.array([], pa.int64()),
        }
    )
    if lo is None:
        return counts.map_batches(
            lambda t: empty, batch_format="pyarrow", batch_size=None
        )
    span = max((int(hi) - int(lo)) // b + 1, 1)

    def tag(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        n = t[count_col].to_numpy(zero_copy_only=False).astype(np.int64)
        # ids/counts normalized to int64 here so every downstream block
        # (including the empty-input table) carries ONE schema — mixed
        # int32/int64 blocks trip Ray's schema-drift warning and break
        # downstream joins
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                count_col: pa.array(n, pa.int64()),
                "_lb": pa.array(n // bucket_width, pa.int64()),
                "_rb": pa.array((ids - lo) // span, pa.int64()),
            }
        )

    tagged = counts.map_batches(tag, batch_format="pyarrow", batch_size=None)
    cell_counts = {
        (r["_lb"], r["_rb"]): r["count()"]
        for r in tagged.groupby(["_lb", "_rb"]).count().take_all()
    }
    base: dict[tuple[int, int], int] = {}
    acc: dict[int, int] = {}
    for lb, rb in sorted(cell_counts):
        base[(lb, rb)] = acc.get(lb, 0)
        acc[lb] = base[(lb, rb)] + int(cell_counts[(lb, rb)])

    def scan(g: pa.Table) -> pa.Table:
        ids = g[id_col].to_numpy(zero_copy_only=False)
        n = g[count_col].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.argsort(ids, kind="stable")
        ids, n = ids[o], n[o]
        lb = int(g["_lb"][0].as_py())
        rb = int(g["_rb"][0].as_py())
        rank = base[(lb, rb)] + np.arange(len(ids), dtype=np.int64)
        return pa.table(
            {
                id_col: pa.array(ids),
                count_col: pa.array(n, pa.int64()),
                "len_bucket": pa.array(
                    np.full(len(ids), lb, np.int64), pa.int64()
                ),
                "rank_in_bucket": pa.array(rank, pa.int64()),
                "batch_idx": pa.array(rank // batch_size, pa.int64()),
            }
        )

    return bucket_apply(tagged, scan, by=["_lb", "_rb"])


def split_sequences(
    ds,
    list_col: str = "tokens",
    id_col: str = "ord",
    max_len: int = 2048,
):
    """Split long sequences into consecutive ≤ ``max_len``-token parts
    (chunking WITHOUT cross-document packing — the lossless alternative
    to :func:`truncate_sequences`: every token is preserved, long docs
    just become several rows). Pure map, and ZERO-COPY: each part is a
    contiguous slice of the block's original values buffer, so the
    output ListArray reuses it with new cut-point offsets — no token
    bytes are moved at all."""
    import pyarrow.compute as pc

    def f(batch: pa.Table) -> pa.Table:
        ids = batch[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        col = batch[list_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lens = pc.fill_null(pc.list_value_length(col), 0).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        vals = pc.list_flatten(col)
        k = np.maximum(1, -(-lens // max_len))  # parts per row (≥1)
        total = int(k.sum())
        row_of = np.repeat(np.arange(len(lens), dtype=np.int64), k)
        part = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate(([0], np.cumsum(k)))[:-1], k
        )
        starts = np.concatenate(([0], np.cumsum(lens)))
        # cut points: row start + part·max_len, capped at row end; the
        # final offset is the total value count
        cut = np.minimum(
            starts[row_of] + part * max_len, starts[row_of] + lens[row_of]
        )
        if int(starts[-1]) > (1 << 31) - 1:  # int32 list offsets per block
            raise ValueError(
                f"split block of {int(starts[-1])} tokens exceeds the "
                "2 GiB int32 list-offset limit; reduce the input block size"
            )
        offs = np.concatenate((cut, [starts[-1]])).astype(np.int32)
        out_lists = pa.ListArray.from_arrays(pa.array(offs), vals)
        n_tok = np.diff(offs).astype(np.int32)
        return pa.table(
            {
                id_col: ids.take(pa.array(row_of)),
                "part": pa.array(part, pa.int64()),
                list_col: out_lists,
                "n_tok": pa.array(n_tok, pa.int32()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)
