"""General distributed equi-join (hash_join): big × big via ONE co-shuffle.

The engine repeatedly needed key-aligned joins (pair↔payload in
pairjoin.py, components in dedup.py, probe↔partition in similarity.py)
and each was built ad hoc because ``Dataset.join`` chokes on the
zero-column empty blocks our hash-shuffle groupbys emit (see
dedup.connected_components note). This module makes the pattern a
public operator:

- **hash_join(left, right, on, ...)** — both sides tagged with
  ``bucket = hash64(key) % B`` and unioned into ONE shared-schema
  Dataset (each side's payload columns ride as nulls on the other
  side's rows), then a single ``groupby(bucket).map_groups`` resolves
  matches per bucket with a fully vectorized pass: dictionary-encode
  the bucket's keys to dense codes (exact equality — no hash-collision
  risk), argsort the right side once, and expand one-to-many matches
  with searchsorted range arithmetic (no Python loop over rows or
  keys). Cost model at 100 TB: exactly one all-to-all exchange of
  both payloads — the inherent lower bound for a big×big equi-join;
  skew lands whole key-groups in one bucket, so hot single keys
  should be pre-aggregated or salted by the caller (same contract as
  the rollup shuffle).

For a SMALL right side, don't shuffle at all: broadcast it and map —
``broadcast_lookup`` here (``ray.put`` once, per-batch
dictionary-encode + searchsorted against the broadcast keys), the
equi-join sibling of stages/window.py interval_join_broadcast.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from beamium_ray.functions.cluster import bucket_apply
from beamium_ray.functions.hashing import bucket_of

_SIDE_L = np.int8(0)
_SIDE_R = np.int8(1)


def _null_safe_codes(idx: pa.Array) -> np.ndarray:
    """Dictionary indices → int64 codes with null keys as -1 (below
    every real code, so searchsorted never matches them)."""
    if idx.null_count:
        return pc.fill_null(idx, -1).cast(pa.int64()).to_numpy()
    return idx.to_numpy().astype(np.int64)


def _renamed(names, taken, rsuffix):
    """Collision-safe right-column renames, sequentially: each right
    name keeps appending ``rsuffix`` until it collides with neither a
    left column nor an EARLIER right rename. Right (v, v_r) against a
    left v → v takes v_r first, then the real v_r chains to v_r_r —
    deterministic, and no column is ever silently dropped."""
    out, used = [], set(taken)
    for n in names:
        c = n
        while c in used:
            c = c + rsuffix
        out.append(c)
        used.add(c)
    return out


def _expand_matches(lk: np.ndarray, rk_sorted: np.ndarray, how: str):
    """Vectorized M:N equi-match expansion shared by both join paths:
    given left codes and the SORTED right codes, return
    (l_idx, r_pos) — parallel arrays where r_pos indexes into the
    sorted right order, with -1 marking left-join misses."""
    lo = np.searchsorted(rk_sorted, lk, side="left")
    hi = np.searchsorted(rk_sorted, lk, side="right")
    cnt = hi - lo
    l_idx = np.repeat(np.arange(len(lk), dtype=np.int64), cnt)
    total = int(cnt.sum())
    # intra-segment offsets 0..cnt-1 per left row, fully vectorized
    seg_start = np.repeat(np.cumsum(cnt) - cnt, cnt)
    intra = np.arange(total, dtype=np.int64) - seg_start
    r_pos = np.repeat(lo, cnt) + intra
    if how == "left":
        miss = np.flatnonzero(cnt == 0)
        l_idx = np.concatenate([l_idx, miss])
        r_pos = np.concatenate([r_pos, np.full(len(miss), -1, np.int64)])
    return l_idx, r_pos


def hash_join(
    left,
    right,
    on: str,
    right_on: str | None = None,
    how: str = "inner",
    num_buckets: int = 64,
    rsuffix: str = "_r",
    shuffle_blocks: int | None = None,
):
    """Equi-join two Datasets on a single key column.

    ``shuffle_blocks`` coalesces the unioned PRE-shuffle stream — only
    for many-tiny-block inputs (gate-scale tables); both payloads flow
    through it, so coalescing a large input to ~CPUs/4 blocks caps the
    co-shuffle's sort parallelism (see counter_increase_dataset note).

    ``how``: 'inner' or 'left'. Right columns colliding with left names
    get ``rsuffix``. One output row per matching (left row, right row)
    pair — duplicate right keys expand (honest M:N semantics);
    left-join misses fill the right columns with nulls. Composite keys:
    pre-concatenate into one column (the key is hashed as a value).
    """
    if how not in ("inner", "left"):
        raise ValueError(f"how={how!r} (use 'inner' or 'left')")
    right_on = right_on or on

    lsch = left.schema()
    rsch = right.schema()
    lnames = list(lsch.names)
    ltypes = dict(zip(lsch.names, lsch.types))
    rnames = [n for n in rsch.names if n != right_on]
    rtypes = dict(zip(rsch.names, rsch.types))
    if ltypes[on] != rtypes[right_on]:
        raise ValueError(
            f"key dtype mismatch: {ltypes[on]} vs {rtypes[right_on]}"
        )
    out_rnames = _renamed(rnames, set(lnames), rsuffix)

    # shared union schema: bucket, side, key, left payloads, right payloads
    lpay = [n for n in lnames if n != on]

    def prep_left(b: pa.Table) -> pa.Table:
        cols = {
            "bkt": pa.array(
                bucket_of(b[on].combine_chunks(), num_buckets), pa.int32()
            ),
            "side": pa.array(
                np.full(b.num_rows, _SIDE_L, np.int8), pa.int8()
            ),
            "__k": b[on],
        }
        for n in lpay:
            cols["l_" + n] = b[n]
        for n, o in zip(rnames, out_rnames):
            cols["r_" + o] = pa.nulls(b.num_rows, rtypes[n])
        return pa.table(cols)

    def prep_right(b: pa.Table) -> pa.Table:
        cols = {
            "bkt": pa.array(
                bucket_of(b[right_on].combine_chunks(), num_buckets),
                pa.int32(),
            ),
            "side": pa.array(
                np.full(b.num_rows, _SIDE_R, np.int8), pa.int8()
            ),
            "__k": b[right_on],
        }
        for n in lpay:
            cols["l_" + n] = pa.nulls(b.num_rows, ltypes[n])
        for n, o in zip(rnames, out_rnames):
            cols["r_" + o] = b[n]
        return pa.table(cols)

    def merge(g: pa.Table) -> pa.Table:
        side = g["side"].to_numpy(zero_copy_only=False)
        # dense codes make key equality exact for ANY key dtype
        codes = _null_safe_codes(
            g["__k"].combine_chunks().dictionary_encode().indices
        )
        li = np.flatnonzero(side == _SIDE_L)
        ri = np.flatnonzero(side == _SIDE_R)
        lk = codes[li]
        rk = codes[ri]
        # SQL semantics: a null key never matches (left-join misses null)
        keep_r = rk >= 0
        ri, rk = ri[keep_r], rk[keep_r]
        order = np.argsort(rk, kind="stable")
        l_idx, r_pos = _expand_matches(lk, rk[order], how)
        l_take = li[l_idx]
        if len(order):
            r_take = np.where(
                r_pos >= 0, ri[order[np.maximum(r_pos, 0)]], -1
            )
        else:  # bucket with no (non-null-key) right rows at all
            r_take = np.full(len(r_pos), -1, np.int64)
        lt = pa.array(l_take, pa.int64())
        # -1 → null take: arrow take() has no sentinel, mask explicitly
        r_null = r_take < 0
        rt = pa.array(np.where(r_null, 0, r_take), pa.int64())
        cols = {on: g["__k"].take(lt)}
        for n in lpay:
            cols[n] = g["l_" + n].take(lt)
        for n, o in zip(rnames, out_rnames):
            taken = g["r_" + o].take(rt)
            if r_null.any():
                taken = pc.if_else(
                    pa.array(~r_null), taken, pa.nulls(len(r_null), rtypes[n])
                )
            cols[o] = taken
        return pa.table(cols)

    unioned = left.map_batches(
        prep_left, batch_format="pyarrow", batch_size=None
    ).union(
        right.map_batches(prep_right, batch_format="pyarrow", batch_size=None)
    )
    return bucket_apply(unioned, merge, by="bkt", shuffle_blocks=shuffle_blocks)


def broadcast_lookup(
    left,
    right_table: pa.Table,
    on: str,
    right_on: str | None = None,
    how: str = "inner",
    rsuffix: str = "_r",
):
    """Small-side equi-join without a shuffle: ``right_table`` is a
    driver-held pa.Table, encoded + key-sorted ONCE here (not per
    batch) and broadcast via ``ray.put``; each left batch only codes
    its own keys against the fixed right key set (``pc.index_in``) and
    runs the shared searchsorted expansion. Same M:N / left-null
    semantics as hash_join."""
    import ray

    if how not in ("inner", "left"):
        raise ValueError(f"how={how!r} (use 'inner' or 'left')")
    right_on = right_on or on
    rnames = [n for n in right_table.column_names if n != right_on]
    rtypes = {
        n: right_table.schema.field(n).type for n in right_table.column_names
    }
    rt = right_table.combine_chunks()
    # null right keys never match (SQL semantics): drop them up front
    rt = rt.filter(pc.is_valid(rt[right_on]))
    runiq = pc.unique(rt[right_on].combine_chunks())
    rk = (
        pc.index_in(rt[right_on].combine_chunks(), value_set=runiq)
        .cast(pa.int64()).to_numpy()
    )
    order = np.argsort(rk, kind="stable")
    ref = ray.put((rt, runiq, rk[order], order))

    def f(b: pa.Table, _ref=ref) -> pa.Table:
        rt, runiq, rk_sorted, order = ray.get(_ref)
        out_rnames = _renamed(rnames, set(b.column_names), rsuffix)
        lk_idx = pc.index_in(b[on].combine_chunks(), value_set=runiq)
        lk = _null_safe_codes(lk_idx)  # unmatched/null left keys → -1
        l_idx, r_pos = _expand_matches(lk, rk_sorted, how)
        if len(order):
            r_take = np.where(
                r_pos >= 0, order[np.maximum(r_pos, 0)], -1
            )
        else:
            r_take = np.full(len(r_pos), -1, np.int64)
        r_null = r_take < 0
        lt = pa.array(l_idx, pa.int64())
        rt_idx = pa.array(np.where(r_null, 0, r_take), pa.int64())
        out = b.take(lt)
        for n, o in zip(rnames, out_rnames):
            if rt.num_rows == 0:  # empty right side: all-null fills
                taken = pa.nulls(len(r_null), rtypes[n])
            else:
                taken = rt[n].take(rt_idx)
                if r_null.any():
                    taken = pc.if_else(
                        pa.array(~r_null),
                        taken,
                        pa.nulls(len(r_null), rtypes[n]),
                    )
            out = out.append_column(o, taken)
        return out

    return left.map_batches(f, batch_format="pyarrow", batch_size=None)
