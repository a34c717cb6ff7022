"""Duplicate-span removal (exact-substring dedup) over tokenized
sequences.

The ExactSubstr operator of Lee et al., "Deduplicating Training Data
Makes Language Models Better" (ACL 2022): any window of ``window``
tokens that occurs more than once across the corpus marks occurrences
for removal; overlapping marked windows merge, so a shared substring
of length L >= window deletes exactly its L tokens from the marked
copies. The paper builds one corpus-level suffix array — inherently
single-machine; this module is the Ray-Data-native equivalent:

1. rolling window hashes (O(n) per block regardless of ``window``
   via prefix sums of h[j]*Q^-j in wrapping uint64 arithmetic),
2. ONE hash-bucketed groupby finds every duplicated window — only the
   narrow (h1, h2, id, pos) occurrence stream shuffles (~28 B per
   token position, the op's inherent cost: every position must meet
   its global duplicates once; the token payload never enters it),
3. marks are applied back to the payload either by broadcast (small
   mark sets: ray.put once, pure actor-pool map — the payload never
   shuffles) or by one hash(id)-bucketed co-shuffle of payload+marks
   (no driver ceiling; each document moves at most once).

Semantics (single-pass, matching the reference tool):

- ``keep="first"``: occurrences of each distinct window are ordered by
  (id, pos); the globally first survives, every other occurrence is
  marked. A duplicated span's first copy stays intact unless an
  overlapping OTHER duplicated span covers it (the paper's tool has
  the same non-iterated property).
- ``keep="none"``: every occurrence of a duplicated window is marked —
  the published ExactSubstr implementation's behavior (no copy of the
  duplicated text survives).

Windows are identified by two independently-salted 64-bit rolling
hashes; distinct windows colliding on both (~2^-128 per pair) is the
accepted risk, the same contract as ``exact_dedup_tokens``.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from beamium_ray.functions.cluster import bucket_apply
from beamium_ray.functions.hashing import splitmix64

logger = logging.getLogger(__name__)

_Q = 1099511628211  # FNV64 prime (odd => invertible mod 2^64)
_SPAN_SALT1 = np.uint64(0xA24BAED4963EE407)
_SPAN_SALT2 = np.uint64(0x9FB21C651E98DF25)


def _modinv_pow2_64(q: int) -> int:
    """Multiplicative inverse of odd ``q`` modulo 2^64 (Newton: each
    step doubles the number of correct low bits; x0=q is exact mod 8)."""
    m = (1 << 64) - 1
    x = q
    for _ in range(5):
        x = (x * (2 - q * x)) & m
    return x


_QINV = _modinv_pow2_64(_Q)


def _rolling_window_hash(
    h: np.ndarray, w: int, qpow: np.ndarray, qinv_pow: np.ndarray
) -> np.ndarray:
    """acc[i] = sum_k h[i+k] * Q^(w-1-k) (mod 2^64) for every window
    start i, in O(n): acc[i] = Q^(i+w-1) * (P[i+w] - P[i]) where
    P[m] = sum_{j<m} h[j] * Qinv^j. Same polynomial family as the
    decontam gram kernel (acc = acc*Q + h), but O(1) passes instead of
    O(window) — decisive at window=50."""
    n = len(h) - w + 1
    with np.errstate(over="ignore"):
        cs = np.cumsum(h * qinv_pow[: len(h)], dtype=np.uint64)
        diff = cs[w - 1:].copy()
        diff[1:] -= cs[: n - 1]
        return diff * qpow[w - 1: w - 1 + n]


def token_window_hashes_batch(
    batch: pa.Table, list_col: str = "tokens", window: int = 50
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(h1, h2, row_idx, pos) for every length-``window`` window that
    fits wholly inside one row of an ``array<int>`` token column.

    Fully vectorized; a null list contributes no windows (fill_null
    keeps lengths finite, the token-list kernel contract)."""
    col = batch[list_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    vals = pc.list_flatten(col).to_numpy(zero_copy_only=False).astype(
        np.uint64
    )
    lens = (
        pc.fill_null(pc.list_value_length(col), 0)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    w = int(window)
    if w < 2:
        raise ValueError("window must be >= 2")
    total = len(vals)
    n = total - w + 1
    empty = (
        np.zeros(0, np.uint64),
        np.zeros(0, np.uint64),
        np.zeros(0, np.int64),
        np.zeros(0, np.int64),
    )
    if n <= 0:
        return empty
    rows = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
    with np.errstate(over="ignore"):
        qpow = np.cumprod(
            np.concatenate(
                ([np.uint64(1)], np.full(total - 1, np.uint64(_Q)))
            )
        )
        qinv_pow = np.cumprod(
            np.concatenate(
                ([np.uint64(1)], np.full(total - 1, np.uint64(_QINV)))
            )
        )
        a1 = _rolling_window_hash(
            splitmix64(vals ^ _SPAN_SALT1), w, qpow, qinv_pow
        )
        a2 = _rolling_window_hash(
            splitmix64(vals ^ _SPAN_SALT2), w, qpow, qinv_pow
        )
    valid = rows[:n] == rows[w - 1:]
    if not valid.any():
        return empty
    idx = np.flatnonzero(valid)
    r = rows[idx]
    return (
        splitmix64(a1[idx]),
        splitmix64(a2[idx]),
        r,
        idx - starts[r],
    )


def _occurrence_fn(
    list_col: str, id_col: str, window: int, P: int | None
):
    """Occurrence-row builder shared by the one-shot op and the
    incremental store (``P=None`` omits the bucket column) — one
    definition so the two paths can never diverge on column
    names/dtypes feeding the shared apply kernel."""

    def occ(b: pa.Table) -> pa.Table:
        h1, h2, ridx, pos = token_window_hashes_batch(
            b, list_col=list_col, window=window
        )
        ids = b[id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        ids = ids.to_numpy(zero_copy_only=False).astype(np.int64)[ridx]
        cols = {
            "h1": pa.array(h1.astype(np.int64), pa.int64()),
            "h2": pa.array(h2.astype(np.int64), pa.int64()),
            "id": pa.array(ids, pa.int64()),
            "pos": pa.array(pos, pa.int64()),
        }
        if P is not None:
            cols["bucket"] = pa.array(
                (h1 % np.uint64(P)).astype(np.int32), pa.int32()
            )
        return pa.table(cols)

    return occ


def _marks_fn(keep: str):
    def marks(g: pa.Table) -> pa.Table:
        empty = pa.table(
            {"id": pa.array([], pa.int64()), "pos": pa.array([], pa.int64())}
        )
        h1 = g["h1"].to_numpy(zero_copy_only=False)
        h2 = g["h2"].to_numpy(zero_copy_only=False)
        ids = g["id"].to_numpy(zero_copy_only=False)
        pos = g["pos"].to_numpy(zero_copy_only=False)
        o = np.lexsort((pos, ids, h2, h1))
        h1s, h2s = h1[o], h2[o]
        new = np.concatenate(
            ([True], (h1s[1:] != h1s[:-1]) | (h2s[1:] != h2s[:-1]))
        )
        if keep == "first":
            # every non-first occurrence is, by definition, in a
            # duplicated (size >= 2) group
            mark = ~new
        else:  # keep == "none"
            gi = np.cumsum(new) - 1
            sizes = np.bincount(gi)
            mark = sizes[gi] >= 2
        if not mark.any():
            return empty
        sel = o[mark]
        return pa.table(
            {
                "id": pa.array(ids[sel], pa.int64()),
                "pos": pa.array(pos[sel], pa.int64()),
            }
        )

    return marks


def apply_span_marks(
    batch: pa.Table,
    mark_ids: np.ndarray,
    mark_pos: np.ndarray,
    list_col: str,
    id_col: str,
    window: int,
) -> pa.Table:
    """Delete, from each row of ``batch``, every token covered by a
    mark interval [pos, pos+window) of that row's id. ``mark_ids`` /
    ``mark_pos`` must be sorted by (id, pos). Pure vectorized: one
    diff-array coverage pass over the flattened values. A null token
    list comes back as an empty list (same as the packing kernels)."""
    col = batch[list_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = pc.list_flatten(col)
    lens = (
        pc.fill_null(pc.list_value_length(col), 0)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )
    nrows = batch.num_rows
    ids = batch[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    idv = ids.to_numpy(zero_copy_only=False).astype(np.int64)
    lo = np.searchsorted(mark_ids, idv, side="left")
    hi = np.searchsorted(mark_ids, idv, side="right")
    counts = hi - lo
    total_marks = int(counts.sum())
    total_vals = len(flat)
    if total_vals > np.iinfo(np.int32).max:
        raise ValueError(
            "block flattens to >2^31 token values; reduce block size "
            "before remove_duplicate_spans (int32 list offsets)"
        )
    n_removed = np.zeros(nrows, np.int64)
    if total_marks == 0:
        kept = flat
        new_off = np.concatenate(([0], np.cumsum(lens)))
        kept_per_row = lens
    else:
        starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
        rows_m = np.repeat(np.arange(nrows, dtype=np.int64), counts)
        cum = np.concatenate(([0], np.cumsum(counts)))[:-1]
        within = np.arange(total_marks, dtype=np.int64) - np.repeat(
            cum, counts
        )
        take = np.repeat(lo, counts) + within
        mpos = mark_pos[take]
        s = starts[rows_m] + mpos
        e = starts[rows_m] + np.minimum(
            mpos + window, lens[rows_m]
        )
        d = np.zeros(total_vals + 1, np.int64)
        np.add.at(d, s, 1)
        np.add.at(d, e, -1)
        cov = np.cumsum(d[:-1]) > 0
        keep_mask = ~cov
        rows_full = np.repeat(np.arange(nrows, dtype=np.int64), lens)
        kept_per_row = np.bincount(
            rows_full[keep_mask], minlength=nrows
        ).astype(np.int64)
        n_removed = lens - kept_per_row
        kept = flat.filter(pa.array(keep_mask))
        new_off = np.concatenate(([0], np.cumsum(kept_per_row)))
    new_list = pa.ListArray.from_arrays(
        pa.array(new_off.astype(np.int32), pa.int32()), kept
    )
    cols = {}
    for name in batch.column_names:
        if name == list_col:
            cols[name] = new_list
        elif name == "n_tok":
            # preserve the input's dtype: a forced int32 here would
            # silently retype an int64 column AND mismatch the
            # distributed route's empty-group blocks (original schema)
            cols[name] = pc.cast(
                pa.array(kept_per_row), batch.schema.field(name).type
            )
        else:
            c = batch[name]
            cols[name] = (
                c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
            )
    cols["n_removed"] = pa.array(n_removed, pa.int64())
    return pa.table(cols)


class _BroadcastApply:
    """Actor-pool apply stage: the sorted global mark arrays are
    fetched from the object store once per actor."""

    def __init__(self, marks_ref, list_col: str, id_col: str, window: int):
        import ray

        self.mark_ids, self.mark_pos = ray.get(marks_ref)
        self.list_col = list_col
        self.id_col = id_col
        self.window = window

    def __call__(self, batch: pa.Table) -> pa.Table:
        return apply_span_marks(
            batch, self.mark_ids, self.mark_pos,
            self.list_col, self.id_col, self.window,
        )


def remove_duplicate_spans(
    ds,
    list_col: str = "tokens",
    id_col: str = "ord",
    window: int = 50,
    keep: str = "first",
    num_buckets: int | None = None,
    max_broadcast_marks: int = 4_000_000,
    distributed: bool | None = None,
    metrics: dict | None = None,
    metrics_path: str | None = None,
):
    """ExactSubstr duplicate-span removal (module docstring). Returns
    the input Dataset with ``list_col`` rewritten (covered tokens
    deleted), ``n_tok`` updated when present, and an ``n_removed``
    column appended.

    Routing: the mark set (one (id, pos) row per removed window
    occurrence) is materialized once; at or under
    ``max_broadcast_marks`` it broadcasts via ``ray.put`` and the
    payload never shuffles; above it (or ``distributed=True``) payload
    and marks co-shuffle into hash(id) buckets — each document moves
    exactly once, no driver ceiling.

    ``ds`` executes TWICE (occurrence pass + apply pass) — callers
    with an expensive upstream should pass a materialized Dataset
    (the ``emit_packed_rows`` contract; the ``span_dedup`` clean stage
    does this)."""
    if keep not in ("first", "none"):
        raise ValueError("keep must be 'first' or 'none'")
    import ray

    from beamium_ray.datapipe.dedup import _record_metrics
    from beamium_ray.functions.cluster import default_partitions

    P = num_buckets or default_partitions()
    marks = bucket_apply(
        ds, _marks_fn(keep), prep=_occurrence_fn(list_col, id_col, window, P)
    ).materialize()
    n_marks = marks.count()
    if distributed is None:
        distributed = n_marks > max_broadcast_marks
    _record_metrics(
        metrics, metrics_path,
        span_marks=n_marks,
        span_route="distributed" if distributed else "broadcast",
    )
    if not distributed:
        if n_marks == 0:
            mid = np.zeros(0, np.int64)
            mpos = np.zeros(0, np.int64)
        else:
            t = pa.concat_tables(
                list(marks.iter_batches(batch_format="pyarrow",
                                        batch_size=None))
            )
            mid = t["id"].to_numpy(zero_copy_only=False)
            mpos = t["pos"].to_numpy(zero_copy_only=False)
            o = np.lexsort((mpos, mid))
            mid, mpos = np.ascontiguousarray(mid[o]), np.ascontiguousarray(
                mpos[o]
            )
        from beamium_ray.functions.cluster import cached_stage

        marks_ref = ray.put((mid, mpos))
        return ds.map_batches(
            cached_stage(_BroadcastApply, marks_ref, list_col, id_col,
                         window),
            batch_format="pyarrow",
            batch_size=None,
        )
    return _distributed_apply(
        ds, marks, list_col=list_col, id_col=id_col, window=window, P=P
    )


def _distributed_apply(ds, marks, *, list_col, id_col, window, P):
    """Co-shuffle payload rows and mark rows into hash(id) buckets and
    apply per bucket — the no-driver-ceiling route. The payload crosses
    exactly ONE hash shuffle (inherent: a document must meet its marks
    somewhere); marks ride along as rows of the same union schema with
    payload columns nulled."""
    sch = ds.schema()
    pay_names = list(sch.names)
    pay_types = list(sch.types)
    type_of = dict(zip(pay_names, pay_types))

    def tag_payload(t: pa.Table) -> pa.Table:
        k = t[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            bkt = (splitmix64(k) % np.uint64(P)).astype(np.int32)
        cols = {}
        for name in pay_names:
            c = t[name]
            cols[name] = (
                c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
            )
        cols["_sbkt"] = pa.array(bkt, pa.int32())
        cols["_mpos"] = pa.nulls(t.num_rows, pa.int64())
        cols["_side"] = pa.array(np.zeros(t.num_rows, np.int8), pa.int8())
        return pa.table(cols)

    def tag_marks(t: pa.Table) -> pa.Table:
        k = t["id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        with np.errstate(over="ignore"):
            bkt = (splitmix64(k) % np.uint64(P)).astype(np.int32)
        cols = {}
        for name, typ in zip(pay_names, pay_types):
            if name == id_col:
                cols[name] = pc.cast(t["id"], typ)
            else:
                cols[name] = pa.nulls(t.num_rows, typ)
        cols["_sbkt"] = pa.array(bkt, pa.int32())
        cols["_mpos"] = t["pos"]
        cols["_side"] = pa.array(np.ones(t.num_rows, np.int8), pa.int8())
        return pa.table(cols)

    from beamium_ray.functions.cluster import default_partitions

    tagged = ds.map_batches(
        tag_payload, batch_format="pyarrow", batch_size=None
    ).union(marks.map_batches(tag_marks, batch_format="pyarrow", batch_size=None))

    def apply_group(g: pa.Table) -> pa.Table:
        out_fields = [
            (n, typ) for n, typ in zip(pay_names, pay_types)
        ] + [("n_removed", pa.int64())]
        side = g["_side"].to_numpy(zero_copy_only=False)
        is_pay = side == 0
        pay = g.filter(pa.array(is_pay)).select(pay_names)
        if pay.num_rows == 0:
            return pa.schema(out_fields).empty_table()
        mrows = g.filter(pa.array(~is_pay))
        mid = mrows[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        mpos = mrows["_mpos"].to_numpy(zero_copy_only=False).astype(np.int64)
        o = np.lexsort((mpos, mid))
        return apply_span_marks(
            pay, np.ascontiguousarray(mid[o]), np.ascontiguousarray(mpos[o]),
            list_col, id_col, window,
        )

    return bucket_apply(
        tagged, apply_group, by="_sbkt", shuffle_blocks=default_partitions()
    )
