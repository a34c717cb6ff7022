"""Hypothesis property tests for the round-3 PURE kernels (no Ray —
per CLAUDE.md, property sweeps must not drive multi-execution Dataset
paths): each vectorized kernel is checked against a naive per-row
Python reimplementation on arbitrary generated inputs."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

from beamium_ray.functions.hashing import splitmix64

token_lists = st.lists(
    st.lists(st.integers(min_value=0, max_value=200), max_size=25),
    min_size=1,
    max_size=12,
)


def _tok_table(lists):
    return pa.table(
        {
            "ord": pa.array(range(len(lists)), pa.int64()),
            "tokens": pa.array(lists, pa.list_(pa.int32())),
        }
    )


@given(token_lists)
@settings(max_examples=150, deadline=None)
def test_token_content_hash_matches_naive(lists):
    """The vectorized XOR-fold content hash equals a per-row Python
    reimplementation, and equal keys ⇔ equal sequences within the
    generated batch (no order/length blindness)."""
    from beamium_ray.datapipe.dedup import _TOKDEDUP_SALTS, token_content_hash

    (ps, ls), _ = _TOKDEDUP_SALTS
    got = token_content_hash(_tok_table(lists)["tokens"], ps, ls)

    def naive(row):
        fold = np.uint64(0)
        for pos, tok in enumerate(row):
            fold ^= splitmix64(
                np.uint64(tok) ^ splitmix64(np.uint64(pos) ^ np.uint64(ps))
            )
        return splitmix64(
            fold ^ splitmix64(np.uint64(len(row)) ^ np.uint64(ls))
        )

    want = np.array([naive(r) for r in lists], np.uint64)
    assert (got == want).all()
    # within this batch: equal hash ⇔ equal sequence
    by_hash: dict = {}
    for r, h in zip(lists, got.tolist()):
        assert by_hash.setdefault(h, r) == r


@given(token_lists, st.integers(min_value=2, max_value=6))
@settings(max_examples=100, deadline=None)
def test_token_gram_hashes_match_naive(lists, g):
    """The sliding token-gram kernel emits exactly the within-row
    g-grams, matching a naive nested loop (hash AND row attribution),
    never crossing row boundaries."""
    from beamium_ray.datapipe.decontam import GRAM_Q, token_gram_hashes_batch

    gh, rows = token_gram_hashes_batch(_tok_table(lists), g=g)

    want_h, want_r = [], []
    for ri, row in enumerate(lists):
        for s in range(len(row) - g + 1):
            acc = np.uint64(0)
            for tok in row[s:s + g]:
                acc = acc * GRAM_Q + splitmix64(np.uint64(tok))
            want_h.append(int(splitmix64(acc)))
            want_r.append(ri)
    assert rows.tolist() == want_r
    assert gh.tolist() == want_h


@given(token_lists, st.integers(min_value=1, max_value=7))
@settings(max_examples=100, deadline=None)
def test_split_sequences_kernel_lossless(lists, max_len):
    """The zero-copy splitter's per-batch kernel: concatenating each
    row's parts in part order reproduces the row exactly; every part
    except the last is exactly max_len; empty rows yield one empty
    part. (Kernel-level: the map fn is applied to one batch directly,
    no Ray session.)"""
    from beamium_ray.datapipe.packing import split_sequences

    class _FakeDs:
        def __init__(self, t):
            self.t = t

        def map_batches(self, f, **kw):
            return f(self.t)

    out = split_sequences(_FakeDs(_tok_table(lists)), max_len=max_len)
    per_row: dict[int, list] = {}
    last_part: dict[int, int] = {}
    for i in range(out.num_rows):
        o = out["ord"][i].as_py()
        p = out["part"][i].as_py()
        toks = out["tokens"][i].as_py()
        assert p == last_part.get(o, -1) + 1  # parts arrive in order
        last_part[o] = p
        per_row.setdefault(o, []).extend(toks)
        if len(toks) < max_len:
            # only a row's FINAL part may be short (or an empty row)
            assert p == -(-len(lists[o]) // max_len) - 1 or (
                len(lists[o]) == 0 and p == 0
            )
    for o, row in enumerate(lists):
        assert per_row[o] == list(row)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=300),
            st.integers(min_value=1, max_value=50),
        ),
        max_size=40,
    )
)
@settings(max_examples=100, deadline=None)
def test_histogram_merge_matches_naive(pairs):
    """The dense-slot reducer folding arbitrary (token, n) partial rows
    (the vocabulary histograms' merge) equals a dict fold."""
    from beamium_ray.functions.cluster import dense_merge

    def _histogram_merge(t):
        return dense_merge(t, ["token"], "n")

    t = pa.table(
        {
            "token": pa.array([p[0] for p in pairs], pa.int64()),
            "n": pa.array([p[1] for p in pairs], pa.int64()),
        }
    )
    got = {
        k: v
        for k, v in zip(
            _histogram_merge(t)["token"].to_pylist(),
            _histogram_merge(t)["n"].to_pylist(),
        )
    }
    want: dict = {}
    for tok, n in pairs:
        want[tok] = want.get(tok, 0) + n
    assert got == want


# ---------------------------------------------------------------------------
# round-4 kernels: join match expansion, window kernels
# ---------------------------------------------------------------------------

_codes = st.lists(st.integers(min_value=0, max_value=8), max_size=30)


@settings(max_examples=200, deadline=None)
@given(_codes, _codes, st.sampled_from(["inner", "left"]))
def test_expand_matches_property(lk_list, rk_list, how):
    """_expand_matches ≡ the brute-force nested loop for any code
    multiset, any M:N duplication, any join mode."""
    from beamium_ray.datapipe.join import _expand_matches

    lk = np.array(lk_list, np.int64)
    rk_sorted = np.sort(np.array(rk_list, np.int64))
    l_idx, r_pos = _expand_matches(lk, rk_sorted, how)
    got = sorted(zip(l_idx.tolist(), r_pos.tolist()))
    want = []
    for i, k in enumerate(lk_list):
        hits = [j for j, rkv in enumerate(rk_sorted.tolist()) if rkv == k]
        for j in hits:
            want.append((i, j))
        if not hits and how == "left":
            want.append((i, -1))
    assert got == sorted(want)


def _lerp_quantile(vals: np.ndarray, q: float) -> float:
    """Independent scalar re-derivation of the canonical one-sided lerp
    (functions/quantile.py, DuckDB quantile_cont): deliberately NOT
    imported from the helper — every production kernel now shares that
    helper, so the test must re-derive the formula to catch drift in
    it. Also deliberately NOT np.quantile, whose _lerp switches to
    ``b-(b-a)*(1-t)`` for t>=0.5 and differs at ulp boundaries that
    survive micro-unit rounding (ADVICE r4)."""
    v = np.sort(vals)
    pos = q * (len(v) - 1)
    lo = int(np.floor(pos))
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),   # series code
            st.integers(min_value=0, max_value=20),  # window index
            st.floats(min_value=-100, max_value=100,
                      allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_sliding_quantiles_bucket_property(rows):
    """Per-(series, window) p50/p95 ≡ the one-sided-lerp reference over
    the group's values, for arbitrary group shapes incl. singletons."""
    from beamium_ray.stages.window import sliding_quantiles_bucket

    g = pa.table(
        {
            "series_key": pa.array([f"s{r[0]}" for r in rows]),
            "window_start": pa.array([r[1] * 60 for r in rows], pa.int64()),
            "value": pa.array([r[2] for r in rows], pa.float64()),
        }
    )
    got = sliding_quantiles_bucket(g, (0.5, 0.95), ("p50", "p95"))
    groups: dict = {}
    for r in rows:
        groups.setdefault((f"s{r[0]}", r[1] * 60), []).append(r[2])
    assert got.num_rows == len(groups)
    for row in got.to_pylist():
        vals = np.array(groups[(row["series_key"], row["window_start"])])
        assert row["p50"] == int(np.round(_lerp_quantile(vals, 0.5) * 1e6))
        assert row["p95"] == int(np.round(_lerp_quantile(vals, 0.95) * 1e6))
        assert row["n"] == len(vals)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=-1000, max_value=1000),
        ),
        min_size=1,
        max_size=50,
    ),
    st.integers(min_value=1, max_value=12),
)
def test_spike_flags_bucket_property(rows, lookback):
    """Trailing max/min/count over the previous ≤lookback PRESENT
    windows ≡ the brute loop, any gaps, any lookback."""
    from beamium_ray.stages.window import spike_flags_bucket

    g = pa.table(
        {
            "series_key": pa.array([f"s{r[0]}" for r in rows]),
            "window_start": pa.array([r[1] * 60 for r in rows], pa.int64()),
            "v": pa.array([r[2] for r in rows], pa.int64()),
        }
    )
    got = spike_flags_bucket(g, lookback=lookback, min_baseline=3)
    agg: dict = {}
    for r in rows:
        k = (f"s{r[0]}", r[1] * 60)
        w, n = agg.get(k, (0, 0))
        agg[k] = (w + r[2], n + 1)
    per: dict = {}
    for (s, ws), (w, n) in sorted(agg.items()):
        per.setdefault(s, []).append((ws, w, n))
    want = {}
    for s, items in per.items():
        for i, (ws, w, n) in enumerate(items):
            base = [x[1] for x in items[max(0, i - lookback):i]]
            cnt = len(base)
            want[(s, ws)] = (
                w, n, cnt,
                max(base) if base else None,
                min(base) if base else None,
                (2 * w > 3 * max(base)) if cnt >= 3 else None,
                (2 * w < min(base)) if cnt >= 3 else None,
            )
    assert got.num_rows == len(want)
    for row in got.to_pylist():
        k = (row["series_key"], row["window_start"])
        assert want[k] == (
            row["wsum"], row["n"], row["n_baseline"],
            row["trailing_max"], row["trailing_min"],
            row["spike_up"], row["spike_down"],
        ), (k, lookback)
