"""Distributed descriptive statistics over Dataset groups.

Exact per-group order statistics (quantiles) — the percentile surface
a time-series rollup engine is usually asked for next (p50/p95/p99
latency panels). Exact quantiles fundamentally need every group value
in one place, so the contract is:

- only (key, value) travels through the ONE hash shuffle (callers
  prune columns at the read);
- each group's values must fit a single worker's heap (8 bytes/value —
  a 1B-row group is 8 GB; beyond that, sample or sketch instead: an
  approximate path can reuse this module's shape with a per-batch
  reservoir/t-digest combiner, trading exactness for boundedness).

Results are emitted as INTEGER MICRO-UNITS (round(q * 1e6)) so an
independent recomputation (the DuckDB oracle) hash-matches exactly:
numpy and DuckDB both use linear interpolation but differ in the last
ulp on real data (measured), and exact-repr value hashes would flag
that as a mismatch.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from beamium_ray.functions.cluster import bucket_apply, dense_merge, fold


def group_quantiles(
    ds,
    key_col: str,
    value_col: str,
    qs: tuple[float, ...] = (0.5, 0.95, 0.99),
    names: tuple[str, ...] = ("p50", "p95", "p99"),
    count_col: str | None = None,
):
    """Dataset of (key, *names[, count_col]) — exact linear-interpolation
    quantiles of ``value_col`` per ``key_col`` group, as int64
    micro-units. Non-finite values are dropped (matching SQL
    ``isfinite``)."""
    if len(qs) != len(names):
        raise ValueError("qs and names must align")

    def narrow(t: pa.Table) -> pa.Table:
        keep = pc.is_finite(t[value_col])
        t = t.filter(keep)
        return pa.table({key_col: t[key_col], value_col: t[value_col]})

    def q(g: pa.Table) -> pa.Table:
        cols: dict = {key_col: g[key_col].slice(0, 1)}
        from beamium_ray.functions.quantile import quantile_sorted

        v = np.sort(g[value_col].to_numpy(zero_copy_only=False))
        # the canonical one-sided lerp (functions/quantile.py) — the
        # DuckDB quantile_cont formula every kernel and the SQL oracle
        # share; np.quantile diverges at ulp boundaries (ADVICE r4)
        for n, qv in zip(names, qs):
            x = quantile_sorted(v, qv)
            cols[n] = pa.array(
                [int(np.round(x * 1e6))], pa.int64()
            )
        if count_col is not None:
            cols[count_col] = pa.array([g.num_rows], pa.int64())
        return pa.table(cols)

    return bucket_apply(ds, q, by=key_col, prep=narrow)


# ---------------- HyperLogLog distinct sketch ----------------

HLL_P = 12  # 2^12 = 4096 registers, standard error ~1.04/sqrt(m) = 1.6%


def _hll_reg_rank(keys) -> tuple[np.ndarray, np.ndarray]:
    """(register, rank) of each key: the top HLL_P bits of its
    splitmix64 hash pick the register, the rank is the leading zeros
    of the 52-bit suffix + 1 = 53 - bitlength(w) (w < 2^52 is exactly
    representable in float64, so frexp's exponent is the bit length)."""
    from beamium_ray.functions.hashing import splitmix64

    h = splitmix64(keys.to_numpy(zero_copy_only=False).astype(np.uint64))
    reg = (h >> np.uint64(64 - HLL_P)).astype(np.int64)
    w = (h & np.uint64((1 << (64 - HLL_P)) - 1)).astype(np.uint64)
    _, exp = np.frexp(w.astype(np.float64))
    return reg, np.where(w == 0, 53, 53 - exp).astype(np.int64)


def hll_register_rows(
    batch: pa.Table, key_col: str
) -> pa.Table:
    """Per-batch PARTIAL HyperLogLog registers as (reg, rank) rows —
    the combiner, which is the register-max merge applied to the
    block's own keys: at most 4096 narrow rows leave each block no
    matter its size, and re-merging them yields the exact corpus-wide
    sketch state (register max is associative/commutative).

    Deterministic by construction (splitmix64 of the key): the register
    TABLE — not the float estimate — is the gate artifact, so the
    DuckDB oracle can recompute it integer-exactly."""
    reg, rank = _hll_reg_rank(batch[key_col])
    return _hll_max_merge(pa.table({"reg": reg, "rank": rank}))


def _hll_max_merge(b: pa.Table) -> pa.Table:
    """Register max over (reg, rank) rows, on the dense 4096 slots."""
    return dense_merge(b, ["reg"], "rank", [1 << HLL_P], np.maximum)


def hll_sketch(ds, key_col: str):
    """Dataset of the corpus-wide HLL register state (reg, rank):
    per-batch partials (≤ 4096 rows/block) folded by a dense register
    max — Ray's key-sorted groupby over the bounded partials measured
    ~3× slower than re-maxing them."""
    return fold(ds, lambda b: hll_register_rows(b, key_col), _hll_max_merge)


def hll_estimate(regs: np.ndarray, ranks: np.ndarray) -> float:
    """Classic HLL estimate (with the small-range linear-counting
    correction) from sparse register rows — driver-side math over at
    most 4096 values."""
    m = 1 << HLL_P
    dense = np.zeros(m)
    dense[regs] = ranks
    alpha = 0.7213 / (1 + 1.079 / m)
    e = alpha * m * m / np.sum(np.exp2(-dense))
    zeros = m - len(regs)
    if e <= 2.5 * m and zeros > 0:
        e = m * np.log(m / zeros)
    return float(e)


def hll_group_register_rows(
    batch: pa.Table, group_col: str, key_col: str
) -> pa.Table:
    """Per-batch PARTIAL per-group HLL registers as (group, reg, rank)
    rows — the grouped max merge applied to the block's own keys: at
    most (groups in block) × 4096 narrow rows leave each block, and
    re-merging them yields the exact per-group sketch states. One
    lexsort — no per-group Python."""
    reg, rank = _hll_reg_rank(batch[key_col])
    return _hll_group_max_merge(
        pa.table({group_col: batch[group_col], "reg": reg, "rank": rank}),
        group_col,
    )


def _hll_group_max_merge(b: pa.Table, group_col: str) -> pa.Table:
    """Grouped register-max over (group, reg, rank) partial rows: one
    dictionary-encode + lexsort + first-occurrence pass (groups are
    few; rows are ≤ groups × 4096 per merge block)."""
    if b.num_rows == 0:
        return b
    g = b[group_col]
    if isinstance(g, pa.ChunkedArray):
        g = g.combine_chunks()
    gd = pc.dictionary_encode(g)
    codes = gd.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    reg = b["reg"].to_numpy(zero_copy_only=False)
    rank = b["rank"].to_numpy(zero_copy_only=False)
    order = np.lexsort((-rank, reg, codes))
    cs, rs, ks = codes[order], reg[order], rank[order]
    first = np.ones(len(cs), bool)
    first[1:] = (cs[1:] != cs[:-1]) | (rs[1:] != rs[:-1])
    return pa.table(
        {
            group_col: gd.dictionary.take(pa.array(cs[first])),
            "reg": pa.array(rs[first], pa.int64()),
            "rank": pa.array(ks[first], pa.int64()),
        }
    )


def hll_sketch_by_group(ds, group_col: str, key_col: str):
    """Dataset of per-group HLL register states (group, reg, rank):
    per-batch partials folded by a lexsort/first-occurrence max (the
    grouped form of the dense merge — the key-sorted groupby over the
    bounded partials was the query's wall time). At 100 TB only ≤4096
    rows per (block, group) cross the wire, never the keys."""
    return fold(
        ds,
        lambda b: hll_group_register_rows(b, group_col, key_col),
        lambda b: _hll_group_max_merge(b, group_col),
    )


# ---------------- Count-Min frequency sketch ----------------

CMS_D = 4     # hash rows; P(overestimate > eps·N) <= e^-D per query
CMS_W = 1024  # columns per row; eps = e / W ≈ 0.27% of total count
# Row salts: first 64 hex digits of pi (public constants, < 2^63 so the
# SQL oracle can write them as plain BIGINT literals before the UBIGINT
# xor).
CMS_SALTS = (
    0x243F6A8885A308D3,
    0x13198A2E03707344,
    0x0A4093822299F31D,
    0x082EFA98EC4E6C89,
)


def cms_cell_rows(batch: pa.Table, key_col: str) -> pa.Table:
    """Per-batch PARTIAL count-min cells as (row, col, cnt) — the
    combiner: at most D·W = 4096 narrow rows leave each block no matter
    its size; a per-cell sum merge yields the exact
    corpus-wide sketch (cell addition is associative/commutative).

    Deterministic (splitmix64 of key xor a per-row salt): the CELL
    TABLE — not any estimate — is the gate artifact, so the DuckDB
    oracle can recompute the sketch state integer-exactly."""
    from beamium_ray.functions.hashing import splitmix64

    if batch.num_rows == 0:
        z = pa.array([], pa.int64())
        return pa.table({"row": z, "col": z, "cnt": z})
    k = batch[key_col].to_numpy(zero_copy_only=False).astype(np.uint64)
    cells = np.zeros(CMS_D * CMS_W, np.int64)
    for r, salt in enumerate(CMS_SALTS):  # loop over 4 hash rows only
        col = (splitmix64(k ^ np.uint64(salt)) % np.uint64(CMS_W)).astype(
            np.int64
        )
        cells[r * CMS_W:(r + 1) * CMS_W] = np.bincount(col, minlength=CMS_W)
    nz = np.flatnonzero(cells)
    return pa.table(
        {
            "row": pa.array(nz // CMS_W, pa.int64()),
            "col": pa.array(nz % CMS_W, pa.int64()),
            "cnt": pa.array(cells[nz], pa.int64()),
        }
    )


def cms_sketch(ds, key_col: str):
    """Dataset of the corpus-wide count-min cell state (row, col, cnt):
    per-batch partials (≤ 4096 rows/block; keys never shuffle) folded
    by a dense cell sum over the D×W slots — Ray's key-sorted groupby
    over the bounded partials measured ~3× slower than re-summing
    them."""
    return fold(
        ds,
        lambda b: cms_cell_rows(b, key_col),
        lambda b: dense_merge(b, ["row", "col"], "cnt", [CMS_D, CMS_W]),
    )


def cms_estimate(
    rows: np.ndarray, cols: np.ndarray, cnts: np.ndarray, keys: np.ndarray
) -> np.ndarray:
    """Point frequency estimates (upper bounds, ≥ true count) for
    ``keys`` from sparse cell rows — driver-side math over ≤4096
    cells."""
    from beamium_ray.functions.hashing import splitmix64

    dense = np.zeros((CMS_D, CMS_W), np.int64)
    dense[rows, cols] = cnts
    k = keys.astype(np.uint64)
    est = np.full(len(k), np.iinfo(np.int64).max, np.int64)
    for r, salt in enumerate(CMS_SALTS):
        col = (splitmix64(k ^ np.uint64(salt)) % np.uint64(CMS_W)).astype(
            np.int64
        )
        est = np.minimum(est, dense[r, col])
    return est


# ---------------- Token vocabulary histogram ----------------


def token_histogram_rows(batch: pa.Table, list_col: str) -> pa.Table:
    """Per-batch PARTIAL token frequency rows (token, n) over an
    ``array<int32>`` column — the combiner: one ``bincount`` over the
    flattened values buffer, so at most vocab-size narrow rows leave a
    block regardless of how many tokens it holds (a 26M-token block
    emits ≤ |vocab| rows). Token ids must be non-negative (the
    tokenizer contract)."""
    empty = pa.table(
        {"token": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
    )
    if batch.num_rows == 0:
        return empty
    col = batch[list_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    vals = pc.list_flatten(col).to_numpy(zero_copy_only=False)
    if len(vals) == 0:
        return empty
    cnt = np.bincount(vals)
    nz = np.nonzero(cnt)[0]
    return pa.table(
        {
            "token": pa.array(nz.astype(np.int64), pa.int64()),
            "n": pa.array(cnt[nz].astype(np.int64), pa.int64()),
        }
    )


def token_histogram(ds, list_col: str = "tokens"):
    """Corpus-wide token frequency table (token, n) — the vocabulary
    coverage / distribution stat a tokenized-corpus pipeline reports
    before training. The token payload never crosses a shuffle: each
    block emits ≤ |vocab| (token, n) partial rows via one bincount,
    folded by a dense weighted bincount (Ray's key-sorted groupby-sum
    over the ~|vocab|×blocks partials measured 5-10× slower: sf0.1
    9.2 s → ~1 s)."""
    return fold(
        ds,
        lambda b: token_histogram_rows(b, list_col),
        lambda b: dense_merge(b, ["token"], "n"),
    )


class _TokenRarity:
    """Actor-pool stage: fetch the broadcast dense count table once per
    actor, then one segmented reduceat per batch."""

    def __init__(self, counts_ref, list_col: str, id_col: str):
        import ray

        self.counts = ray.get(counts_ref)
        self.list_col = list_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch[self.id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        col = batch[self.list_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        # fill_null: a null list counts as empty (list_flatten emits
        # nothing for it; NaN->int64 would corrupt np.repeat otherwise)
        lens = pc.fill_null(pc.list_value_length(col), 0).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        vals = pc.list_flatten(col).to_numpy(zero_copy_only=False)
        sums = np.zeros(len(lens), np.int64)
        if len(vals):
            starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
            # tokens absent from the histogram (scoring a new shard
            # against a reference distribution) count 0, not IndexError
            in_vocab = vals < len(self.counts)
            per_tok = np.where(
                in_vocab, self.counts[np.minimum(vals, len(self.counts) - 1)], 0
            )
            nz = lens > 0
            sums[nz] = np.add.reduceat(per_tok, starts[nz])
        return pa.table(
            {
                self.id_col: ids,
                "n_tok": pa.array(lens, pa.int64()),
                "freq_sum": pa.array(sums, pa.int64()),
            }
        )


def token_rarity(
    ds,
    list_col: str = "tokens",
    id_col: str = "ord",
    histogram=None,
    concurrency=None,
):
    """Per-sequence rarity signal: freq_sum = Σ over the row's tokens
    of that token's CORPUS-WIDE occurrence count (low sum/n_tok = the
    row is dominated by rare tokens — the integer-exact cousin of a
    unigram log-prob filter, used the same way CCNet uses LM
    perplexity, but oracle-checkable because every term is an int64
    count, not a transcendental).

    Two passes: :func:`token_histogram` (or a caller-provided one) is
    folded into ONE dense int64 array of |vocab| entries and
    ``ray.put`` ONCE (~400 KB for a 50k vocab — the broadcast-lookup
    pattern, never re-shipped per batch); the scoring pass is a pure
    actor-pool map over the payload — one ``reduceat`` per block, no
    shuffle."""
    import ray

    hist = histogram if histogram is not None else token_histogram(ds, list_col)
    parts = []
    for b in hist.iter_batches(batch_format="pyarrow"):
        parts.append(
            (b["token"].to_numpy(zero_copy_only=False),
             b["n"].to_numpy(zero_copy_only=False))
        )
    size = 1 + max((int(t.max()) for t, _ in parts if len(t)), default=0)
    dense = np.zeros(size, np.int64)
    for t, n in parts:
        dense[t] += n
    from beamium_ray.functions.cluster import cached_stage

    counts_ref = ray.put(dense)
    return ds.map_batches(
        cached_stage(_TokenRarity, counts_ref, list_col, id_col),
        batch_format="pyarrow",
        batch_size=None,
        concurrency=concurrency,
    )


def doc_frequency_rows(batch: pa.Table, list_col: str) -> pa.Table:
    """Per-batch PARTIAL document-frequency rows (token, n) over an
    ``array<int32>`` column: each row's DISTINCT tokens counted once
    (one sort + first-occurrence mask + bincount — no per-row Python).
    Each doc lives in exactly one block, so summing the partials gives
    exact corpus-wide document frequencies."""
    empty = pa.table(
        {"token": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
    )
    if batch.num_rows == 0:
        return empty
    col = batch[list_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    vals = pc.list_flatten(col).to_numpy(zero_copy_only=False)
    lens = pc.fill_null(pc.list_value_length(col), 0).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    if len(vals) == 0:
        return empty
    rows = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    order = np.lexsort((vals, rows))
    r, v = rows[order], vals[order]
    first = np.ones(len(r), bool)
    first[1:] = (r[1:] != r[:-1]) | (v[1:] != v[:-1])
    cnt = np.bincount(v[first])
    nz = np.nonzero(cnt)[0]
    return pa.table(
        {
            "token": pa.array(nz.astype(np.int64), pa.int64()),
            "n": pa.array(cnt[nz].astype(np.int64), pa.int64()),
        }
    )


def doc_frequency(ds, list_col: str = "tokens"):
    """Corpus-wide DOCUMENT frequency table (token, n_docs) — how many
    sequences contain each token at least once (the IDF building
    block, distinct-per-doc where :func:`token_histogram` counts every
    occurrence). Same scale shape: vocab-bounded partials per block,
    folded by the bincount merge, payload never shuffles."""
    out = fold(
        ds,
        lambda b: doc_frequency_rows(b, list_col),
        lambda b: dense_merge(b, ["token"], "n"),
    )
    return out.map_batches(
        lambda t: t.rename_columns(["token", "n_docs"]),
        batch_format="pyarrow",
        batch_size=None,
    )


def bigram_topk(
    ds,
    list_col: str = "tokens",
    k: int = 20,
    vocab: int = 50257,
    num_partitions: int | None = None,
) -> pa.Table:
    """EXACT top-k most frequent adjacent token bigrams (boilerplate /
    tokenizer-merge mining). The bigram space (|vocab|²) is too large
    to bincount, so the shape is hash-partitioned exact heavy hitters:

    1. per block: one vectorized pass builds within-row adjacent pair
       keys (a·|vocab| + b, int64) and uniques them — (key, n) partials;
    2. keys are hash-partitioned, so EACH bigram's total count lives
       wholly in one partition: per-partition lexsort+reduceat sum and
       LOCAL top-k are globally correct candidates;
    3. the driver merges only partitions × k candidate rows.

    Ties break by (count DESC, key ASC) — deterministic and
    SQL-reproducible. Returns a driver Table (tok_a, tok_b, n): the
    answer itself, inherently k-sized."""
    from beamium_ray.functions.cluster import default_partitions

    P = num_partitions or default_partitions()
    empty = pa.table(
        {"key": pa.array([], pa.int64()), "n": pa.array([], pa.int64()),
         "bucket": pa.array([], pa.int32())}
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return empty
        col = batch[list_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        vals = pc.list_flatten(col).to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        lens = pc.fill_null(pc.list_value_length(col), 0).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        if len(vals) < 2:
            return empty
        rows = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        same = rows[:-1] == rows[1:]  # pair stays inside one row
        keys = vals[:-1][same] * vocab + vals[1:][same]
        if len(keys) == 0:
            return empty
        u, c = np.unique(keys, return_counts=True)
        return pa.table(
            {
                "key": pa.array(u, pa.int64()),
                "n": pa.array(c.astype(np.int64), pa.int64()),
                "bucket": pa.array(
                    (u % P).astype(np.int32), pa.int32()
                ),
            }
        )

    def local_topk(g: pa.Table) -> pa.Table:
        keys = g["key"].to_numpy(zero_copy_only=False)
        n = g["n"].to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        ks, ns = keys[order], n[order]
        first = np.ones(len(ks), bool)
        first[1:] = ks[1:] != ks[:-1]
        starts = np.nonzero(first)[0]
        u = ks[starts]
        s = np.add.reduceat(ns, starts)
        top = np.lexsort((u, -s))[:k]
        return pa.table(
            {
                "key": pa.array(u[top], pa.int64()),
                "n": pa.array(s[top], pa.int64()),
            }
        )

    cand = bucket_apply(ds, local_topk, prep=partial)
    parts = [
        b for b in cand.iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows
    ]
    if not parts:
        return pa.table(
            {"tok_a": pa.array([], pa.int64()), "tok_b": pa.array([], pa.int64()),
             "n": pa.array([], pa.int64())}
        )
    t = pa.concat_tables([p.select(["key", "n"]) for p in parts])
    keys = t["key"].to_numpy()
    n = t["n"].to_numpy()
    top = np.lexsort((keys, -n))[:k]
    return pa.table(
        {
            "tok_a": pa.array(keys[top] // vocab, pa.int64()),
            "tok_b": pa.array(keys[top] % vocab, pa.int64()),
            "n": pa.array(n[top], pa.int64()),
        }
    )


# ---------------- binned (mergeable) quantile sketch ----------------


def binned_quantile_partials(
    batch: pa.Table,
    key_col: str,
    value_col: str,
    lo: float,
    hi: float,
    n_bins: int,
) -> pa.Table:
    """Per-block PARTIAL fixed-bin histograms as (key, bin, cnt) rows —
    the mergeable-quantile combiner: at most #keys × n_bins narrow rows
    leave a block no matter its size, and bin counts sum exactly across
    blocks. Deterministic binning: ``floor((v - lo) / width)`` clipped
    to [0, n_bins) — one IEEE division + floor, reproducible in SQL."""
    keep = pc.is_finite(batch[value_col])
    t = batch.filter(keep)
    if t.num_rows == 0:
        return pa.table(
            {
                key_col: pa.array([], batch.schema.field(key_col).type),
                "bin": pa.array([], pa.int64()),
                "cnt": pa.array([], pa.int64()),
            }
        )
    v = t[value_col].to_numpy(zero_copy_only=False)
    width = (hi - lo) / n_bins
    b = np.clip(
        np.floor((v - lo) / width), 0, n_bins - 1
    ).astype(np.int64)
    keys = t[key_col].combine_chunks()
    idx = keys.dictionary_encode().indices
    if idx.null_count:  # null keys form their own group (SQL GROUP BY)
        codes = pc.fill_null(idx, -1).cast(pa.int64()).to_numpy() + 1
    else:
        codes = idx.to_numpy(zero_copy_only=False).astype(np.int64)
    comb = codes * n_bins + b
    # first-occurrence index doubles as the representative row per combo
    uniq, rep, cnt = np.unique(comb, return_index=True, return_counts=True)
    return pa.table(
        {
            key_col: keys.take(pa.array(rep, pa.int64())),
            "bin": pa.array(uniq % n_bins, pa.int64()),
            "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
        }
    )


def binned_quantiles(
    ds,
    key_col: str,
    value_col: str,
    lo: float,
    hi: float,
    n_bins: int = 4096,
    qs: tuple[float, ...] = (0.5, 0.95, 0.99),
    names: tuple[str, ...] = ("p50", "p95", "p99"),
):
    """Approximate per-key quantiles with BOUNDED state — the 100 TB
    path where exact quantiles' raw-value shuffle is unaffordable: the
    estimate is the LOWER EDGE of the bin holding the rank-
    ``floor(q·(n-1))`` value (error ≤ one bin width, deterministic —
    no sampling), emitted as int64 micro-units. Only (key, bin, cnt)
    partials cross the one small shuffle; merging is exact count
    addition, so the result is identical at any cluster size or block
    split (unlike t-digest/KLL whose merge is order-dependent)."""
    if len(qs) != len(names):
        raise ValueError("qs and names must align")
    width = (hi - lo) / n_bins

    def partial(b: pa.Table) -> pa.Table:
        return binned_quantile_partials(b, key_col, value_col, lo, hi, n_bins)

    def final(g: pa.Table) -> pa.Table:
        dense = np.zeros(n_bins, dtype=np.int64)
        np.add.at(
            dense,
            g["bin"].to_numpy(zero_copy_only=False),
            g["cnt"].to_numpy(zero_copy_only=False),
        )
        cum = np.cumsum(dense)
        n = int(cum[-1])
        cols: dict = {key_col: g[key_col].slice(0, 1)}
        for q, name in zip(qs, names):
            rank = int(np.floor(q * (n - 1)))
            b = int(np.searchsorted(cum, rank + 1, side="left"))
            est = lo + b * width
            cols[name] = pa.array(
                [int(np.round(est * 1e6))], pa.int64()
            )
        cols["n"] = pa.array([n], pa.int64())
        return pa.table(cols)

    return bucket_apply(ds, final, by=key_col, prep=partial)
