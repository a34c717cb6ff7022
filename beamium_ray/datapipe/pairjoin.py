"""Pair verification for the near-dup family: every candidate pair is
scored here, on either route, by one kernel per metric.

:func:`verify_pairs` takes its route from the candidate pairs that
``dedup._routed_pairs`` returned:

- a driver ``pa.Table`` (at most ``max_broadcast_pairs`` pairs): one
  filtered pass fetches the touched ids' payload
  (:func:`iter_rows_by_ids`) and the kernel scores every pair on the
  driver, each payload row prepared once however many pairs share it;
- a Dataset: :func:`pair_metric_join` scores the pairs with no driver
  collection, in two bucket shuffles (the engine's own ``_lookup``
  pattern from ``connected_components``, dedup.py):

  1. **doc-keyed lookup**: each pair (a, b) emits two request rows
     keyed by its endpoints; payload rows (doc_id, payload) are tagged
     into the same hash buckets; one groupby answers every request with
     its endpoint's payload (vectorized searchsorted merge per bucket).
     Payload rows for un-requested docs die inside the groupby.
  2. **pair-keyed combine**: the answered (a, b, side, payload) rows
     are bucketed by hash(a, b); within a bucket the two sides of each
     pair are adjacent after one lexsort, and the metric kernel scores
     all pairs of the bucket in one pass.

  Nothing scales with the total pair count on any single node — pairs,
  requests and answers are narrow rows spread across hash buckets; the
  object store spills oversized buckets.

A kernel (:class:`PairMetric`) is two functions: ``rows`` prepares the
per-row features of a payload column, ``score`` scores pairs given as
row indices into them. Both routes call the same two, so the routes
agree bit for bit.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from beamium_ray.functions.cluster import bucket_apply
from beamium_ray.functions.hashing import splitmix64


def _pair_bucket(a: np.ndarray, b: np.ndarray, P: int) -> np.ndarray:
    """Stable hash bucket of an (a, b) pair — same pair, same bucket."""
    with np.errstate(over="ignore"):
        h = splitmix64(splitmix64(a.astype(np.uint64)) ^ b.astype(np.uint64))
    return (h % np.uint64(P)).astype(np.int32)


def _key_bucket(k: np.ndarray, P: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        h = splitmix64(k.astype(np.uint64))
    return (h % np.uint64(P)).astype(np.int32)


def _as_array(col) -> pa.Array:
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def dedupe_pairs_ds(raw_pairs, num_partitions: int):
    """Distinct (a, b) pairs WITHOUT driver collection: one
    hash(a, b)-bucketed groupby; all copies of a pair land in the same
    bucket, so within-bucket ``np.unique`` is globally exact.

    ``star`` is folded with AND — a pair is only flagged star if every
    emission of it came from a capped bucket (one real all-pairs
    emission means the pair was properly covered). Payload columns
    (``pa``/``pb``) keep the first copy (payload is a pure function of
    the doc, so any copy is identical)."""

    def ptag(t: pa.Table) -> pa.Table:
        bkt = _pair_bucket(t["a"].to_numpy(), t["b"].to_numpy(), num_partitions)
        return t.append_column("pbkt", pa.array(bkt, pa.int32()))

    def pdedupe(g: pa.Table) -> pa.Table:
        a = g["a"].to_numpy()
        b = g["b"].to_numpy()
        ab = np.stack([a, b], axis=1)
        uniq, first_idx, inv = np.unique(
            ab, axis=0, return_index=True, return_inverse=True
        )
        star = g["star"].to_numpy(zero_copy_only=False).astype(bool)
        star_out = np.ones(len(uniq), dtype=bool)
        np.logical_and.at(star_out, inv, star)
        cols = {
            "a": pa.array(uniq[:, 0], pa.int64()),
            "b": pa.array(uniq[:, 1], pa.int64()),
            "star": pa.array(star_out, pa.bool_()),
        }
        take = pa.array(first_idx.astype(np.int64))
        for extra in g.column_names:
            if extra in ("a", "b", "star", "pbkt"):
                continue
            cols[extra] = _as_array(g[extra]).take(take)
        return pa.table(cols)

    return bucket_apply(raw_pairs, pdedupe, by="pbkt", prep=ptag)


def _bloom_hashes(k: np.ndarray, mask: np.uint64):
    """Two independent bit positions per uint64 key (splitmix chain)."""
    with np.errstate(over="ignore"):
        h1 = splitmix64(k.astype(np.uint64))
        h2 = splitmix64(h1)
    return (h1 & mask), (h2 & mask)


def build_pair_endpoint_bloom(pair_ds, n_keys_hint: int):
    """Bloom bitmap (packed uint64 numpy array) over every endpoint id
    of an (a, b) pair Dataset — the broadcast small side of the
    payload-pruned join below.

    The bitmap is FIXED-SIZE (sized from ``n_keys_hint`` ≈ 2x pair
    count, capped at 128 MiB), so driver memory stays bounded no
    matter the pair count — per-block bitmaps stream to the driver and
    fold with OR. False positives only ship a few extra payload rows."""
    bits = 1 << 20
    while bits < 8 * max(1, n_keys_hint) and bits < (1 << 30):
        bits <<= 1
    mask = np.uint64(bits - 1)
    nwords = bits // 64

    def block_bloom(t: pa.Table) -> pa.Table:
        bm = np.zeros(nwords, dtype=np.uint64)
        if t.num_rows:
            k = np.concatenate([t["a"].to_numpy(), t["b"].to_numpy()])
            for idx in _bloom_hashes(k, mask):
                np.bitwise_or.at(
                    bm, (idx >> np.uint64(6)).astype(np.int64),
                    np.uint64(1) << (idx & np.uint64(63)),
                )
        return pa.table({"bm": pa.array([bm.view(np.int64)])})

    out = np.zeros(nwords, dtype=np.uint64)
    parts = pair_ds.map_batches(
        block_bloom, batch_format="pyarrow", batch_size=None
    )
    for b in parts.iter_batches(batch_format="pyarrow"):
        for row in b["bm"]:
            out |= np.asarray(row.values).view(np.uint64)
    return out, mask


def bloom_probe(bm: np.ndarray, mask: np.uint64, k: np.ndarray) -> np.ndarray:
    """Vectorized membership test; True may be a false positive."""
    hit = np.ones(len(k), dtype=bool)
    for idx in _bloom_hashes(k, mask):
        w = bm[(idx >> np.uint64(6)).astype(np.int64)]
        hit &= ((w >> (idx & np.uint64(63))) & np.uint64(1)).astype(bool)
    return hit


def pair_metric_join(
    pair_ds,
    payload_ds,
    id_col: str,
    payload_col: str,
    metric: PairMetric,
    num_partitions: int,
    metric_name: str = "metric",
    prune_hint: int | None = None,
):
    """(a, b) pairs × (id, payload) table → (a, b, metric) Dataset via
    two bucket shuffles and NO driver collection (module docstring).

    ``prune_hint`` (approximate pair count, if the caller knows it)
    enables BLOOM PRUNING of the payload side: a fixed-size bitmap over
    the pairs' endpoint ids is broadcast via ``ray.put`` and each
    payload block drops its un-requested rows BEFORE the shuffle. The
    payload shuffle volume then scales with the touched-id count, not
    the corpus — decisive for the exact-verify join, whose payload side
    is the full corpus text table."""
    import ray

    P = num_partitions
    sch = payload_ds.schema()
    payload_type = dict(zip(sch.names, sch.types))[payload_col]

    bloom_ref = None
    if prune_hint is not None:
        bm, mask = build_pair_endpoint_bloom(pair_ds, 2 * prune_hint)
        bloom_ref = ray.put((bm, mask))

    def reqs(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy()
        b = t["b"].to_numpy()
        n = len(a)
        k = np.concatenate([a, b])
        return pa.table(
            {
                "bkt": pa.array(_key_bucket(k, P), pa.int32()),
                "k": pa.array(k, pa.int64()),
                "a": pa.array(np.concatenate([a, a]), pa.int64()),
                "b": pa.array(np.concatenate([b, b]), pa.int64()),
                "side": pa.array(
                    np.concatenate(
                        [np.zeros(n, np.int8), np.ones(n, np.int8)]
                    ),
                    pa.int8(),
                ),
                "pl": pa.nulls(2 * n, payload_type),
            }
        )

    def pays(t: pa.Table) -> pa.Table:
        if bloom_ref is not None and t.num_rows:
            bm, mask = ray.get(bloom_ref)
            keep = bloom_probe(
                bm, mask, t[id_col].to_numpy().astype(np.uint64)
            )
            t = t.filter(pa.array(keep))
        k = t[id_col].to_numpy()
        n = len(k)
        return pa.table(
            {
                "bkt": pa.array(_key_bucket(k, P), pa.int32()),
                "k": pa.array(k.astype(np.int64), pa.int64()),
                "a": pa.array(np.zeros(n, np.int64), pa.int64()),
                "b": pa.array(np.zeros(n, np.int64), pa.int64()),
                "side": pa.array(np.full(n, -1, np.int8), pa.int8()),
                "pl": _as_array(t[payload_col]),
            }
        )

    # coalesce the union to ~2x CPUs blocks before the groupby: Ray's
    # sort-shuffle cost grows with INPUT BLOCK COUNT (sample + sort-map
    # per block, #blocks x #partitions intermediate objects), and the
    # payload side arrives with one block per upstream read/map task.
    # Measured on a 2.4M-row x 1 KB-payload union at 32 cpus: 240
    # blocks -> 38 s, 64 blocks -> 9 s for the identical sort.
    from beamium_ray.functions.cluster import default_partitions

    tagged = (
        pair_ds.map_batches(reqs, batch_format="pyarrow", batch_size=None)
        .union(
            payload_ds.map_batches(
                pays, batch_format="pyarrow", batch_size=None
            )
        )
        .repartition(default_partitions())
    )

    def resolve(g: pa.Table) -> pa.Table:
        """Answer every request row with its key's payload; compute the
        pair bucket of the answers in the same pass."""
        side = g["side"].to_numpy(zero_copy_only=False)
        k = g["k"].to_numpy(zero_copy_only=False)
        is_pay = side == -1
        pay_idx = np.flatnonzero(is_pay)
        req_idx = np.flatnonzero(~is_pay)
        empty = pa.table(
            {
                "pbkt": pa.array([], pa.int32()),
                "a": pa.array([], pa.int64()),
                "b": pa.array([], pa.int64()),
                "side": pa.array([], pa.int8()),
                "pl": pa.nulls(0, payload_type),
            }
        )
        if len(pay_idx) == 0 or len(req_idx) == 0:
            return empty
        pk = k[pay_idx]
        o = np.argsort(pk)
        pk_s = pk[o]
        rk = k[req_idx]
        pos = np.clip(np.searchsorted(pk_s, rk), 0, len(pk_s) - 1)
        hit = pk_s[pos] == rk
        if not hit.any():
            return empty
        hit_req = req_idx[hit]
        take_pl = pa.array(pay_idx[o[pos[hit]]].astype(np.int64))
        a = g["a"].to_numpy(zero_copy_only=False)[hit_req]
        b = g["b"].to_numpy(zero_copy_only=False)[hit_req]
        return pa.table(
            {
                "pbkt": pa.array(_pair_bucket(a, b, P), pa.int32()),
                "a": pa.array(a, pa.int64()),
                "b": pa.array(b, pa.int64()),
                "side": pa.array(side[hit_req], pa.int8()),
                "pl": _as_array(g["pl"]).take(take_pl),
            }
        )

    answered = bucket_apply(tagged, resolve, by="bkt")

    def combine(g: pa.Table) -> pa.Table:
        a = g["a"].to_numpy(zero_copy_only=False)
        b = g["b"].to_numpy(zero_copy_only=False)
        side = g["side"].to_numpy(zero_copy_only=False)
        order = np.lexsort((side, b, a))
        a_s, b_s, s_s = a[order], b[order], side[order]
        # a pair has exactly one side-0 and one side-1 row (pairs are
        # deduped upstream; endpoints exist in the corpus) — adjacent
        # after the lexsort. Pairs missing a side are dropped, matching
        # the driver path's "missing doc → no verified edge".
        both = (
            (a_s[:-1] == a_s[1:])
            & (b_s[:-1] == b_s[1:])
            & (s_s[:-1] == 0)
            & (s_s[1:] == 1)
        )
        i0 = np.flatnonzero(both)
        if len(i0) == 0:
            return pair_schema(metric_name).empty_table()
        m = metric.score(
            metric.rows(_as_array(g["pl"])), order[i0], order[i0 + 1]
        )
        return pa.table(
            {
                "a": pa.array(a_s[i0], pa.int64()),
                "b": pa.array(b_s[i0], pa.int64()),
                metric_name: pa.array(m, pa.float64()),
            }
        )

    return bucket_apply(answered, combine, by="pbkt")


def pair_schema(name: str) -> pa.Schema:
    """Schema of a scored pair table: (a, b, <name>)."""
    return pa.schema(
        [("a", pa.int64()), ("b", pa.int64()), (name, pa.float64())]
    )


def iter_rows_by_ids(ds, id_col: str, ids: np.ndarray, columns=None):
    """Yield pyarrow batches of the rows whose ``id_col`` ∈ ``ids`` —
    ONE filtered streaming pass over a Dataset (or one filter of a
    driver table); only matching rows reach the driver."""
    need = pa.array(np.unique(np.asarray(ids)))

    def grab(b: pa.Table) -> pa.Table:
        t = b.filter(pc.is_in(b[id_col], value_set=need))
        return t.select(columns) if columns else t

    if isinstance(ds, pa.Table):
        batches = [grab(ds)]
    else:
        batches = ds.map_batches(
            grab, batch_format="pyarrow", batch_size=None
        ).iter_batches(batch_format="pyarrow", batch_size=None)
    for b in batches:
        if b.num_rows:
            yield b


def verify_pairs(
    pairs,
    payload_ds,
    id_col: str,
    payload_col: str,
    metric: PairMetric,
    threshold: float,
    name: str,
    num_partitions: int | None = None,
):
    """The candidate pairs (a, b) whose ``metric`` over the two ids'
    ``payload_col`` values in ``payload_ds`` is ``>= threshold``, as
    (a, b, <name>) rows. A pair with an endpoint missing from the
    payload scores nothing and is dropped, on both routes.

    The route follows ``pairs`` (module docstring): a driver
    ``pa.Table`` is scored on the driver and returns a ``pa.Table``; a
    Dataset goes through :func:`pair_metric_join` and returns a
    materialized Dataset, so nothing pair-shaped reaches the driver.
    On the driver route ``payload_ds`` may itself be a driver table.
    """
    if not isinstance(pairs, pa.Table):
        import ray.data

        from beamium_ray.functions.cluster import default_partitions

        n = pairs.count()
        if n == 0:
            return ray.data.from_arrow(pair_schema(name).empty_table())
        scored = pair_metric_join(
            pairs, payload_ds, id_col, payload_col, metric,
            num_partitions or default_partitions(), name, prune_hint=n,
        )
        return scored.map_batches(
            lambda t: t.filter(pc.greater_equal(t[name], threshold)),
            batch_format="pyarrow",
            batch_size=None,
        ).materialize()

    empty = pair_schema(name).empty_table()
    ea = pairs["a"].to_numpy()
    eb = pairs["b"].to_numpy()
    got = list(
        iter_rows_by_ids(
            payload_ds, id_col, np.concatenate([ea, eb]),
            columns=[id_col, payload_col],
        )
    )
    if not got:
        return empty
    t = pa.concat_tables(got)
    ids = t[id_col].to_numpy()
    order = np.argsort(ids, kind="stable")
    ids_s = ids[order]

    def row_of(e: np.ndarray) -> np.ndarray:
        pos = np.minimum(np.searchsorted(ids_s, e), len(ids_s) - 1)
        return np.where(ids_s[pos] == e, order[pos], -1)

    ia, ib = row_of(ea), row_of(eb)
    found = (ia >= 0) & (ib >= 0)
    s = metric.score(
        metric.rows(_as_array(t[payload_col])), ia[found], ib[found]
    )
    keep = s >= threshold
    return pa.table(
        [
            pa.array(ea[found][keep], pa.int64()),
            pa.array(eb[found][keep], pa.int64()),
            pa.array(s[keep], pa.float64()),
        ],
        schema=empty.schema,
    )


def to_table(scored, schema: pa.Schema) -> pa.Table:
    """A scored pair result as one driver table — ``scored`` itself
    when it already is one, else the Dataset's non-empty blocks
    (``schema``'s empty table when there are none)."""
    if isinstance(scored, pa.Table):
        return scored
    parts = [
        b
        for b in scored.iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows
    ]
    return pa.concat_tables(parts) if parts else schema.empty_table()


# ---------------- per-pair metric kernels ----------------


class PairMetric(NamedTuple):
    """One metric, both routes: ``rows(payload column)`` → per-row
    features, ``score(features, ia, ib)`` → float64 score of each pair
    (ia[i], ib[i]) of row indices into them."""

    rows: Callable[[pa.Array], Any]
    score: Callable[[Any, np.ndarray, np.ndarray], np.ndarray]


def sig_agreement_metric(num_perm: int) -> PairMetric:
    """MinHash signature agreement (unbiased Jaccard estimate) over
    fixed-length list<int64> signature rows."""

    def rows(x: pa.Array) -> np.ndarray:
        return np.asarray(x.flatten()).reshape(len(x), num_perm)

    def score(S: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
        est = np.zeros(len(ia))
        CH = 32768  # chunked gather+compare: ~20× faster than one
        for s in range(0, len(ia), CH):  # giant gather (cache locality)
            est[s: s + CH] = (
                S[ia[s: s + CH]] == S[ib[s: s + CH]]
            ).sum(axis=1)
        return est / num_perm

    return PairMetric(rows, score)


def jaccard_metric(k: int, shingles: str = "chars") -> PairMetric:
    """Exact k-gram-set Jaccard |A∩B|/|A∪B| over TEXT rows
    (``shingles='chars'``, k-byte grams) or list<int> TOKEN rows
    (``'tokens'``, k-token grams); two empty sets score 0. Shingling
    happens here, so the Dataset route ships each text once per pair
    side, not the ~8× larger shingle sets."""
    from beamium_ray.datapipe.dedup import _shingle_hashes

    def rows(x: pa.Array) -> list[np.ndarray]:
        h, off = _shingle_hashes(x, k, shingles)
        return [np.unique(h[off[i]: off[i + 1]]) for i in range(len(x))]

    def score(sets: list, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
        # |A∩B| via one searchsorted of the smaller sorted-unique set
        # into the larger: np.intersect1d re-sorts the concatenation per
        # call (~17 µs/pair at 200-shingle docs); the membership count
        # is ~4× cheaper and exact for sorted-unique inputs
        out = np.zeros(len(ia))
        for i, (x, y) in enumerate(zip(ia.tolist(), ib.tolist())):
            sa, sb = sets[x], sets[y]
            if len(sa) > len(sb):
                sa, sb = sb, sa
            if len(sa) == 0:
                continue
            pos = np.searchsorted(sb, sa)
            pos[pos == len(sb)] = len(sb) - 1
            inter = int(np.count_nonzero(sb[pos] == sa))
            out[i] = inter / max(1, len(sa) + len(sb) - inter)
        return out

    return PairMetric(rows, score)


def cosine_metric() -> PairMetric:
    """Exact float64 cosine over fixed-length vector rows; a zero
    vector scores 0."""

    def rows(x: pa.Array) -> tuple[np.ndarray, np.ndarray]:
        M = np.asarray(x.flatten(), dtype=np.float64).reshape(len(x), -1)
        return M, np.maximum(np.linalg.norm(M, axis=1), 1e-30)

    def score(f, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
        M, norms = f
        return (M[ia] * M[ib]).sum(axis=1) / (norms[ia] * norms[ib])

    return PairMetric(rows, score)
