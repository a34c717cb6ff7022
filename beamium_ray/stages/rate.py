"""Counter-rate / increase with reset detection + series-churn stats.

Two classic time-series-engine operators the rollup family lacked:

**counter_increase_dataset** — PromQL-style ``increase``/``rate`` over
cumulative counters (reference scope: beamium ships Prometheus counter
samples; computing the per-window increase with counter-reset handling
is the canonical consumer-side rollup of that data, prometheus.io
query-basics semantics). Exact engine semantics (documented, simpler
than PromQL's extrapolation, and SQL-expressible):

- per series, order points by ``(ts, order)``;
- each point i (except a series' first) yields an **adjusted delta**
  vs its predecessor: ``v[i] - v[i-1]`` if ``v[i] >= v[i-1]``, else
  ``v[i]`` (a drop means the counter reset and recounted from 0 —
  Prometheus's reset rule);
- the delta is credited to the window containing ``ts[i]``;
- per (series, window): ``increase`` = Σ adjusted deltas, ``resets`` =
  #(drops), ``n_deltas`` = #deltas, ``rate`` = increase / window-secs.

Scale shape: the per-series adjacency needs the *previous point*,
which may live in another block — so the narrow point rows (4 int64s +
key; the tokens payload is never involved) take ONE hash(series)->
bucket shuffle, then each bucket runs one fully vectorized pass
(lexsort + diff + reduceat). Same pattern and cost model as
session_windows / asof (queries.py). All tiers are emitted from that
single shuffle — window flooring is per-tier arithmetic on the same
sorted arrays, no second exchange (the rollup cascade's trick).

**series_churn_dataset** — per (series-class, window): how many
distinct sub-series were ACTIVE, and how many appeared for the FIRST
time ever (cardinality growth / churn — the TSDB-ops staple for
catching label-cardinality explosions). Scale shape: per-block
distinct (class, uid, window) partial (bounded by distinct combos per
block, not rows), hash(uid) bucket shuffle of those narrow partials —
a uid's rows all land in one bucket, so per-bucket distinct-counts and
first-window counts sum globally without double-counting — then a
tiny final sum over B × classes × windows partial rows.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from beamium_ray.functions.cluster import bucket_apply
from beamium_ray.functions.hashing import bucket_of, hash64


def _empty_increase_table() -> pa.Table:
    return pa.schema(
        [
            ("tier", pa.string()),
            ("series_key", pa.string()),
            ("window_start", pa.int64()),
            ("increase", pa.int64()),
            ("resets", pa.int64()),
            ("n_deltas", pa.int64()),
            ("rate", pa.float64()),
        ]
    ).empty_table()


# state rows (incremental mode) ride the SAME output schema so they
# cross the one bucket shuffle with the increase rows: tier=_STATE_TIER,
# window_start=last_ts, increase=last_value, resets=last_order.
_STATE_TIER = "__state"


def _state_rows(keys, o, codes, ts, v, order_sorted) -> pa.Table:
    """Per-series LAST point (greatest (ts, order)) encoded as state
    rows — the durable predecessor for the next tick's first deltas."""
    last = np.flatnonzero(
        np.concatenate([codes[1:] != codes[:-1], [True]])
    )
    n = len(last)
    return pa.table(
        {
            "tier": pa.array(np.repeat(_STATE_TIER, n), pa.string()),
            "series_key": keys.take(pa.array(o[last], pa.int64())),
            "window_start": pa.array(ts[last], pa.int64()),
            "increase": pa.array(v[last], pa.int64()),
            "resets": pa.array(order_sorted[last], pa.int64()),
            "n_deltas": pa.array(np.ones(n, np.int64), pa.int64()),
            "rate": pa.array(np.zeros(n, np.float64), pa.float64()),
        }
    )


def increase_bucket(
    g: pa.Table, tiers: dict[str, int], emit_state: bool = False
) -> pa.Table:
    """One vectorized pass per bucket: lexsort by (series, ts, order),
    adjacent diffs with reset adjustment, then per-tier window
    aggregation via reduceat on the already-sorted arrays."""
    if g.num_rows < 1:
        return _empty_increase_table()
    keys = g["series_key"].combine_chunks()
    codes = keys.dictionary_encode().indices.to_numpy().astype(np.int64)
    ts = g["ts"].to_numpy(zero_copy_only=False)
    v = g["value"].to_numpy(zero_copy_only=False)
    order = g["order"].to_numpy(zero_copy_only=False)

    o = np.lexsort((order, ts, codes))
    codes, ts, v = codes[o], ts[o], v[o]

    state = (
        _state_rows(keys, o, codes, ts, v, order[o]) if emit_state else None
    )

    # deltas exist at sorted positions 1..n-1 whose predecessor is the
    # same series
    same_prev = np.empty(len(codes), dtype=bool)
    same_prev[0] = False
    same_prev[1:] = codes[1:] == codes[:-1]
    sel = np.flatnonzero(same_prev)
    if len(sel) == 0:
        return state if state is not None else _empty_increase_table()
    dv = v[sel] - v[sel - 1]
    reset = dv < 0
    adj = np.where(reset, v[sel], dv)
    reset_i = reset.astype(np.int64)
    scodes = codes[sel]
    sts = ts[sel]

    pieces = []
    for name, tier_us in sorted(tiers.items(), key=lambda kv: kv[1]):
        ws = sts - np.mod(sts, tier_us)
        # (scodes, ws) is non-decreasing lexicographically: scodes is
        # sorted, and within a series sts (hence ws) ascends
        brk = np.empty(len(sel), dtype=bool)
        brk[0] = True
        brk[1:] = (scodes[1:] != scodes[:-1]) | (ws[1:] != ws[:-1])
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], len(sel))
        inc = np.add.reduceat(adj, starts)
        rst = np.add.reduceat(reset_i, starts)
        nd = (ends - starts).astype(np.int64)
        # original row index (pre-sort) of each group's first delta row
        first_src = o[sel[starts]]
        secs = float(tier_us) / 1e6
        pieces.append(
            pa.table(
                {
                    "tier": pa.array(
                        np.repeat(name, len(starts)), pa.string()
                    ),
                    "series_key": keys.take(pa.array(first_src, pa.int64())),
                    "window_start": pa.array(ws[starts], pa.int64()),
                    "increase": pa.array(inc, pa.int64()),
                    "resets": pa.array(rst, pa.int64()),
                    "n_deltas": pa.array(nd, pa.int64()),
                    "rate": pa.array(
                        inc.astype(np.float64) / secs, pa.float64()
                    ),
                }
            )
        )
    if state is not None:
        pieces.append(state)
    return pa.concat_tables(pieces)


# ---------------------------------------------------------------------------
# runs combiner: pre-aggregate per block, shuffle only partials
# ---------------------------------------------------------------------------
#
# Boundary rows ride the SAME 7-column output schema (the _STATE_TIER
# trick): tier is the sentinel, window_start=ts, increase=value,
# resets=order of the run's first/last point.
_FIRST_TIER = "__first"
_LAST_TIER = "__last"


def _boundary_rows(tier: str, keys, idx, ts, v, order) -> pa.Table:
    n = len(idx)
    return pa.table(
        {
            "tier": pa.array(np.repeat(tier, n), pa.string()),
            "series_key": keys.take(pa.array(idx, pa.int64())),
            "window_start": pa.array(ts, pa.int64()),
            "increase": pa.array(v, pa.int64()),
            "resets": pa.array(order, pa.int64()),
            "n_deltas": pa.array(np.zeros(n, np.int64), pa.int64()),
            "rate": pa.array(np.zeros(n, np.float64), pa.float64()),
        }
    )


def runs_partial(g: pa.Table, tiers: dict[str, int]) -> pa.Table:
    """Block-local combiner pass: within-block deltas folded into
    per-(series, tier, window) PARTIAL rows (rate left 0 — computed at
    the merge), plus one ``__first`` and one ``__last`` boundary row
    per series carrying that series' block-run endpoints. Only these
    partials cross the shuffle — never the raw points."""
    if g.num_rows < 1:
        return _empty_increase_table()
    keys = g["series_key"].combine_chunks()
    codes = keys.dictionary_encode().indices.to_numpy().astype(np.int64)
    ts = g["ts"].to_numpy(zero_copy_only=False)
    v = g["value"].to_numpy(zero_copy_only=False)
    order = g["order"].to_numpy(zero_copy_only=False)

    o = np.lexsort((order, ts, codes))
    codes, ts, v, order_s = codes[o], ts[o], v[o], order[o]

    brk = np.empty(len(codes), dtype=bool)
    brk[0] = True
    brk[1:] = codes[1:] != codes[:-1]
    firsts = np.flatnonzero(brk)
    lasts = np.append(firsts[1:], len(codes)) - 1

    pieces = [
        _boundary_rows(
            _FIRST_TIER, keys, o[firsts], ts[firsts], v[firsts],
            order_s[firsts],
        ),
        _boundary_rows(
            _LAST_TIER, keys, o[lasts], ts[lasts], v[lasts], order_s[lasts]
        ),
    ]

    sel = np.flatnonzero(~brk)
    if len(sel):
        dv = v[sel] - v[sel - 1]
        reset = dv < 0
        adj = np.where(reset, v[sel], dv)
        reset_i = reset.astype(np.int64)
        scodes = codes[sel]
        sts = ts[sel]
        for name, tier_us in sorted(tiers.items(), key=lambda kv: kv[1]):
            ws = sts - np.mod(sts, tier_us)
            b2 = np.empty(len(sel), dtype=bool)
            b2[0] = True
            b2[1:] = (scodes[1:] != scodes[:-1]) | (ws[1:] != ws[:-1])
            starts = np.flatnonzero(b2)
            ends = np.append(starts[1:], len(sel))
            pieces.append(
                pa.table(
                    {
                        "tier": pa.array(
                            np.repeat(name, len(starts)), pa.string()
                        ),
                        "series_key": keys.take(
                            pa.array(o[sel[starts]], pa.int64())
                        ),
                        "window_start": pa.array(ws[starts], pa.int64()),
                        "increase": pa.array(
                            np.add.reduceat(adj, starts), pa.int64()
                        ),
                        "resets": pa.array(
                            np.add.reduceat(reset_i, starts), pa.int64()
                        ),
                        "n_deltas": pa.array(
                            (ends - starts).astype(np.int64), pa.int64()
                        ),
                        "rate": pa.array(
                            np.zeros(len(starts), np.float64), pa.float64()
                        ),
                    }
                )
            )
    return pa.concat_tables(pieces)


def _le(ts_a, ord_a, ts_b, ord_b) -> np.ndarray:
    """(ts, order) lexicographic <= , vectorized."""
    return (ts_a < ts_b) | ((ts_a == ts_b) & (ord_a <= ord_b))


def _lt(ts_a, ord_a, ts_b, ord_b) -> np.ndarray:
    """(ts, order) lexicographic < , vectorized."""
    return (ts_a < ts_b) | ((ts_a == ts_b) & (ord_a < ord_b))


def merge_runs_bucket(
    g: pa.Table, tiers: dict[str, int], emit_state: bool = False
) -> pa.Table:
    """Fold one bucket's partial + boundary rows into final windows.

    Per series, the ``__first``/``__last`` rows are sorted by
    (ts, order) and paired k-th-with-k-th — the unique non-crossing
    matching. The chain check ``first_k <= last_k <= first_{k+1}``
    then PROVES the blocks' runs were non-interleaved (the combiner's
    correctness contract); any violation raises rather than returning
    silently wrong windows. Cross-run deltas (run k's last point →
    run k+1's first point, reset rule applied) are folded into the
    window partials, which are then summed per (series, tier, window).
    """
    if g.num_rows < 1:
        return _empty_increase_table()
    tier_col = g["tier"].combine_chunks()
    keys = g["series_key"].combine_chunks()
    dict_arr = keys.dictionary_encode()
    codes = dict_arr.indices.to_numpy().astype(np.int64)
    uniq = dict_arr.dictionary
    ws_col = g["window_start"].to_numpy(zero_copy_only=False)
    inc_col = g["increase"].to_numpy(zero_copy_only=False)
    rst_col = g["resets"].to_numpy(zero_copy_only=False)
    nd_col = g["n_deltas"].to_numpy(zero_copy_only=False)
    tnp = tier_col.to_numpy(zero_copy_only=False)

    fm = tnp == _FIRST_TIER
    lm = tnp == _LAST_TIER
    f_idx = np.flatnonzero(fm)
    l_idx = np.flatnonzero(lm)
    if len(f_idx) != len(l_idx):
        raise ValueError(
            "runs combiner: mismatched __first/__last boundary rows"
        )
    # sort each side by (series, ts, order); per-series segments align
    # because the per-series counts match
    fo = np.lexsort((rst_col[f_idx], ws_col[f_idx], codes[f_idx]))
    lo = np.lexsort((rst_col[l_idx], ws_col[l_idx], codes[l_idx]))
    f_idx, l_idx = f_idx[fo], l_idx[lo]
    f_cd, l_cd = codes[f_idx], codes[l_idx]
    if not np.array_equal(f_cd, l_cd):
        raise ValueError(
            "runs combiner: per-series __first/__last counts differ"
        )
    f_ts, f_or, f_v = ws_col[f_idx], rst_col[f_idx], inc_col[f_idx]
    l_ts, l_or, l_v = ws_col[l_idx], rst_col[l_idx], inc_col[l_idx]
    if not _le(f_ts, f_or, l_ts, l_or).all():
        raise ValueError(
            "counter_increase combine='runs': input blocks interleave a "
            "series' timeline (run first > run last after pairing) — the "
            "combiner contract requires per-series time-contiguous blocks;"
            " use combine=None"
        )
    nxt = np.flatnonzero(f_cd[1:] == f_cd[:-1]) if len(f_cd) > 1 else (
        np.zeros(0, np.int64)
    )
    # pair: run k's last (index nxt) -> run k+1's first (index nxt+1)
    if len(nxt):
        # STRICT: run k's last < run k+1's first. Equality can only be
        # (a) the same physical point serving as two different runs'
        # boundaries — which means the k-th-with-k-th pairing crossed
        # real runs (e.g. a single-point run nested strictly inside
        # another block's run: both <= checks pass via boundary
        # equality and the reset between them is silently lost), or
        # (b) two distinct points with equal (ts, order) — the
        # order-ambiguous straddle the docstring already promises to
        # reject. Either way: violation, not a legal input.
        if not _lt(l_ts[nxt], l_or[nxt], f_ts[nxt + 1], f_or[nxt + 1]).all():
            raise ValueError(
                "counter_increase combine='runs': input blocks interleave "
                "a series' timeline (overlapping or boundary-ambiguous "
                "per-series runs) — the combiner contract requires "
                "per-series time-contiguous blocks; use combine=None"
            )
        x_dv = f_v[nxt + 1] - l_v[nxt]
        x_reset = x_dv < 0
        x_adj = np.where(x_reset, f_v[nxt + 1], x_dv)
        x_codes = f_cd[nxt + 1]
        x_ts = f_ts[nxt + 1]
        x_rst = x_reset.astype(np.int64)
    else:
        x_adj = np.zeros(0, np.int64)
        x_codes = np.zeros(0, np.int64)
        x_ts = np.zeros(0, np.int64)
        x_rst = np.zeros(0, np.int64)

    pieces = []
    for name, tier_us in sorted(tiers.items(), key=lambda kv: kv[1]):
        pm = np.flatnonzero(tnp == name)
        c = np.concatenate([codes[pm], x_codes])
        w = np.concatenate(
            [ws_col[pm], x_ts - np.mod(x_ts, tier_us)]
        )
        inc = np.concatenate([inc_col[pm], x_adj])
        rst = np.concatenate([rst_col[pm], x_rst])
        nd = np.concatenate(
            [nd_col[pm], np.ones(len(x_codes), np.int64)]
        )
        if len(c) == 0:
            continue
        o = np.lexsort((w, c))
        c, w, inc, rst, nd = c[o], w[o], inc[o], rst[o], nd[o]
        b2 = np.empty(len(c), dtype=bool)
        b2[0] = True
        b2[1:] = (c[1:] != c[:-1]) | (w[1:] != w[:-1])
        starts = np.flatnonzero(b2)
        ginc = np.add.reduceat(inc, starts)
        secs = float(tier_us) / 1e6
        pieces.append(
            pa.table(
                {
                    "tier": pa.array(
                        np.repeat(name, len(starts)), pa.string()
                    ),
                    "series_key": uniq.take(
                        pa.array(c[starts], pa.int64())
                    ),
                    "window_start": pa.array(w[starts], pa.int64()),
                    "increase": pa.array(ginc, pa.int64()),
                    "resets": pa.array(
                        np.add.reduceat(rst, starts), pa.int64()
                    ),
                    "n_deltas": pa.array(
                        np.add.reduceat(nd, starts), pa.int64()
                    ),
                    "rate": pa.array(
                        ginc.astype(np.float64) / secs, pa.float64()
                    ),
                }
            )
        )
    if emit_state:
        # global last point per series = (ts, order)-max __last row =
        # the final row of each series segment in the sorted lasts
        seg_end = np.flatnonzero(
            np.concatenate([l_cd[1:] != l_cd[:-1], [True]])
        ) if len(l_cd) else np.zeros(0, np.int64)
        n = len(seg_end)
        pieces.append(
            pa.table(
                {
                    "tier": pa.array(
                        np.repeat(_STATE_TIER, n), pa.string()
                    ),
                    "series_key": uniq.take(
                        pa.array(l_cd[seg_end], pa.int64())
                    ),
                    "window_start": pa.array(l_ts[seg_end], pa.int64()),
                    "increase": pa.array(l_v[seg_end], pa.int64()),
                    "resets": pa.array(l_or[seg_end], pa.int64()),
                    "n_deltas": pa.array(
                        np.ones(n, np.int64), pa.int64()
                    ),
                    "rate": pa.array(
                        np.zeros(n, np.float64), pa.float64()
                    ),
                }
            )
        )
    if not pieces:
        return _empty_increase_table()
    return pa.concat_tables(pieces)


def counter_increase_dataset(
    ds,
    tiers: dict[str, int],
    key_col: str = "series_key",
    ts_col: str = "ts",
    value_col: str = "value",
    order_col: str | None = None,
    num_buckets: int = 64,
    shuffle_blocks: int | None = None,
    emit_state: bool = False,
    combine: str | None = None,
):
    """Ray Data pipeline: narrow points → ONE bucket shuffle → per-bucket
    vectorized increase/resets/rate for every tier. Returns rows of
    (tier, series_key, window_start, increase, resets, n_deltas, rate).

    ``shuffle_blocks`` coalesces the PRE-shuffle stream — use it only
    when the input is many tiny blocks (gate-scale tables): this op
    shuffles the full point stream, so coalescing a large input to
    ~CPUs/4 blocks caps the sort+merge parallelism there (measured:
    flat 8→32-cpu scaling on a 96M-point soak until left at None).

    ``combine='runs'`` — the scale route. Each block folds its own
    points into per-(series, tier, window) PARTIAL rows + two boundary
    rows per series (runs_partial), so the shuffle carries ~the output
    size instead of the full point stream and the per-bucket merge
    folds partials instead of lexsorting raw points (the rollup
    flagship's combiner design; measured 6.7× merge-CPU inflation at
    32-way concurrency when raw points cross the exchange).
    CONTRACT: every input block must hold, per series, a time-
    contiguous run of points (true for time-partitioned spool files;
    a dataset sorted by (series, ts) satisfies it only when (series,
    ts) pairs are UNIQUE or ``order_col`` names a globally consistent
    tie-break column — with the per-block synthetic default, equal-ts
    points of one series straddling a block boundary are order-
    ambiguous, and the check treats that as a violation rather than
    picking an arbitrary pairing); the merge PROVES the contract held
    via the run-chain check and raises on violation — this route is
    exact-or-loud, never silently wrong.
    """
    if combine not in (None, "runs"):
        raise ValueError("combine must be None or 'runs'")

    def prep(b: pa.Table) -> pa.Table:
        n = b.num_rows
        order = (
            b[order_col]
            if order_col is not None
            else pa.array(np.arange(n, dtype=np.int64))
        )
        # explicit cast: a float value column would otherwise propagate
        # a float 'increase' that drifts from the documented int64
        # schema (and IncrementalRate's state). Integral floats cast
        # losslessly; non-integral ones fail loud with guidance.
        try:
            value = pc.cast(b[value_col], pa.int64())
        except pa.ArrowInvalid as e:
            raise ValueError(
                f"counter_increase: value column {value_col!r} holds "
                "non-integral floats; this op is integer-exact — scale "
                "to fixed-point units (cents/micros) upstream, e.g. "
                "pc.round(pc.multiply(v, 1e6)) cast to int64"
            ) from e
        t = pa.table(
            {
                "series_key": b[key_col],
                "ts": pc.cast(b[ts_col], pa.int64()),
                "value": value,
                "order": order,
            }
        )
        t = t.filter(pc.is_valid(t["value"]))
        bkt = bucket_of(t["series_key"].combine_chunks(), num_buckets)
        return t.append_column("bucket", pa.array(bkt, pa.int32()))

    if combine == "runs":

        def partial(b: pa.Table) -> pa.Table:
            t = runs_partial(prep(b).drop_columns("bucket"), tiers)
            bkt = bucket_of(
                t["series_key"].combine_chunks(), num_buckets
            )
            return t.append_column("bucket", pa.array(bkt, pa.int32()))

        def merge_runs(g: pa.Table) -> pa.Table:
            return merge_runs_bucket(g, tiers, emit_state=emit_state)

        # the coalesce applies to the PARTIAL stream (output-sized
        # rows). The raw input must NOT be repartitioned on this route —
        # its block geometry IS the combiner's per-block-run contract —
        # but each partial row already carries its source block's run
        # boundaries, so partial-block geometry is free to change.
        return bucket_apply(
            ds, merge_runs, prep=partial, shuffle_blocks=shuffle_blocks
        )

    def merge(g: pa.Table) -> pa.Table:
        return increase_bucket(g, tiers, emit_state=emit_state)

    return bucket_apply(ds, merge, prep=prep, shuffle_blocks=shuffle_blocks)


# ---------------------------------------------------------------------------
# series churn
# ---------------------------------------------------------------------------


def _churn_partial(
    b: pa.Table,
    window_us: int,
    class_col: str,
    uid_col: str,
    ts_col: str,
    num_buckets: int,
) -> pa.Table:
    """Per-block distinct (class, uid, window) rows — ≤ the block's
    distinct-combo count leaves, never the raw rows."""
    ts = pc.cast(b[ts_col], pa.int64()).to_numpy()
    ws = ts - np.mod(ts, window_us)
    t = pa.table(
        {
            "cls": b[class_col],
            "uid": b[uid_col],
            "window_start": pa.array(ws, pa.int64()),
        }
    )
    d = t.group_by(["cls", "uid", "window_start"], use_threads=False).aggregate([])
    bkt = (hash64(d["uid"].combine_chunks()) % np.uint64(num_buckets)).astype(
        np.int32
    )
    return d.append_column("bucket", pa.array(bkt, pa.int32()))


def _churn_bucket(g: pa.Table) -> pa.Table:
    """Per-bucket partial counts. Every uid lives wholly in one bucket,
    so distinct-uid counts per (cls, window) and first-window counts
    sum exactly across buckets."""
    d = g.group_by(["cls", "uid", "window_start"], use_threads=False).aggregate(
        []
    )  # re-distinct across blocks
    act = d.group_by(["cls", "window_start"], use_threads=False).aggregate(
        [("uid", "count")]
    ).rename_columns(["cls", "window_start", "active_users"])
    first = d.group_by(["cls", "uid"], use_threads=False).aggregate(
        [("window_start", "min")]
    ).rename_columns(["cls", "uid", "window_start"])
    new = first.group_by(["cls", "window_start"], use_threads=False).aggregate(
        [("uid", "count")]
    ).rename_columns(["cls", "window_start", "new_users"])
    j = act.join(new, keys=["cls", "window_start"], join_type="full outer")
    return pa.table(
        {
            "cls": j["cls"],
            "window_start": j["window_start"],
            "active_users": pc.cast(
                pc.fill_null(j["active_users"], 0), pa.int64()
            ),
            "new_users": pc.cast(pc.fill_null(j["new_users"], 0), pa.int64()),
        }
    )


def series_churn_dataset(
    ds,
    window_us: int,
    class_col: str,
    uid_col: str,
    ts_col: str = "ts",
    num_buckets: int = 64,
):
    """Per (class, window): distinct active sub-series + first-ever
    appearances. Two-level: per-block distinct partials → hash(uid)
    bucket merge → tiny (cls, window) sum."""

    def prep(b: pa.Table) -> pa.Table:
        return _churn_partial(
            b, window_us, class_col, uid_col, ts_col, num_buckets
        )

    partials = bucket_apply(ds, _churn_bucket, prep=prep)

    def final(g: pa.Table) -> pa.Table:
        out = g.group_by(["cls", "window_start"], use_threads=False).aggregate(
            [("active_users", "sum"), ("new_users", "sum")]
        )
        return out.rename_columns(
            ["cls", "window_start", "active_users", "new_users"]
        )

    # final merge: ≤ B rows per (cls, window); group on cls (handful of
    # classes — each group's row count is bounded by windows × B)
    return bucket_apply(partials, final, by="cls")


# ---------------------------------------------------------------------------
# incremental counter rate across watch ticks
# ---------------------------------------------------------------------------

_STATE_SCHEMA = pa.schema(
    [
        ("series_key", pa.string()),
        ("ts", pa.int64()),
        ("value", pa.int64()),
        ("order", pa.int64()),
    ]
)


class IncrementalRate:
    """Counter increase/rate across watch-mode ticks: a durable
    per-series LAST-POINT store (series_key, ts, value, order — one
    narrow row per live series) supplies each new tick's boundary
    predecessors, so the first in-tick point of every series yields its
    delta against the committed stream without re-reading history.

    Scale shape: the stored state joins the tick as ordinary synthetic
    points through the SAME one bucket shuffle (never driver-collected
    — state rows come back out of the shuffle tagged ``__state`` and
    are written straight to parquet by Ray tasks), so a tick costs
    O(tick points + live series). Per-tick outputs are PARTIAL rows —
    ``increase``/``resets``/``n_deltas`` are additive per (tier,
    series, window), and a window straddling a tick split emits one
    partial per tick; sum them (``rate`` re-derives as
    increase/window-secs). Commit protocol = the engine invariant:
    deterministic ``state-<tick>``/``out-<tick>`` dirs (crash replay
    overwrites), manifest pointer rename LAST, superseded generations
    GC'd after the switch, ``batch_key`` no-op for a replayed-after-
    commit tick (returns the committed output).

    Out-of-order arrivals ACROSS ticks: a tick's points that precede
    the stored last point sort before it, so they delta against each
    other and the stored point deltas against the first later point —
    arrival-order semantics, same as a Prometheus server ingesting a
    late scrape. Within a tick, (ts, order) ordering is exact.
    """

    def __init__(self, store_dir: str, tiers: dict[str, int],
                 num_buckets: int = 64, keep_outputs: int | None = None):
        from beamium_ray.state.storegc import TickStore

        self.dir = store_dir
        self.tiers = dict(tiers)
        self.num_buckets = num_buckets
        # out-<tick> retention: None (default) keeps EVERY delivered
        # generation — the engine has no consumption signal, so it must
        # not guess when a consumer is done (a lazy Dataset returned by
        # tick() reads its files only when executed). A daemon that
        # consumes each tick promptly should pass its consumption lag
        # (e.g. 2) to bound disk; deletions are logged.
        self.keep_outputs = (
            None if keep_outputs is None else max(1, int(keep_outputs))
        )
        self.store = TickStore(store_dir, gens=("state", "out"))

    def _manifest(self) -> dict:
        return self.store.manifest()

    def state_points(self):
        """Stored last points as a (series_key, ts, value, order)
        Dataset, or None before the first tick."""
        return self.store.dataset("state")

    def retention(self, *, max_age_us: int, now_us: int) -> dict:
        """Drop DEAD series from the last-point store: any series whose
        most recent point is older than ``max_age_us`` stops occupying
        state (the store is otherwise O(every series ever seen) — the
        reference's sink TTL, src/sink.rs:102-146, applied to series
        instead of files). A pruned series that later revives simply
        starts a fresh delta chain, exactly as a brand-new series does.

        Commit = the tick protocol: filtered state written to a new
        ``state-<tick>-gc`` generation, manifest pointer switched,
        superseded generations GC'd after. Run between ticks."""
        prev = self.state_points()
        if prev is None:
            return {"series_pruned": 0}
        cutoff = int(now_us) - int(max_age_us)
        n_before = prev.count()
        kept = prev.map_batches(
            lambda t: t.filter(pc.greater_equal(t["ts"], cutoff)),
            batch_format="pyarrow",
            batch_size=None,
        ).materialize()
        self.store.rewrite(
            "state", kept.write_parquet, _STATE_SCHEMA,
            retain=lambda d: d.startswith("out-"),
        )
        return {"series_pruned": int(n_before - kept.count())}

    def tick(self, points_ds, batch_key: str | None = None):
        """Process one tick of (series_key, ts, value, order) points;
        returns the tick's PARTIAL increase rows as a Dataset."""
        import logging

        tick, replay = self.store.begin(batch_key)
        if replay:
            return self.store.dataset("out")  # replayed-after-commit

        prev = self.state_points()
        src = points_ds if prev is None else points_ds.union(prev)
        rolled = counter_increase_dataset(
            src, self.tiers, order_col="order",
            num_buckets=self.num_buckets, emit_state=True,
        ).materialize()  # split consumes it twice

        def pick_state(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t["tier"], _STATE_TIER))
            return pa.table(
                {
                    "series_key": t["series_key"],
                    "ts": t["window_start"],
                    "value": t["increase"],
                    "order": t["resets"],
                }
            )

        def pick_out(t: pa.Table) -> pa.Table:
            return t.filter(pc.not_equal(t["tier"], _STATE_TIER))

        # Ray's write_parquet of a ZERO-row dataset writes no files and
        # no directory: an all-single-sample tick (no deltas) or an
        # empty landed batch is a legitimate tick, so both generations
        # are seeded with their schema
        state_name, out_name = f"state-{tick:05d}", f"out-{tick:05d}"
        for name, pick, schema in (
            (state_name, pick_state, _STATE_SCHEMA),
            (out_name, pick_out, _empty_increase_table().schema),
        ):
            self.store.generation(
                name,
                rolled.map_batches(
                    pick, batch_format="pyarrow", batch_size=None
                ).write_parquet,
                schema,
            )
        # superseded state generations go right after the switch;
        # out-<tick> deliverables only when the caller declared its
        # consumption lag via ``keep_outputs`` (a consumer may still
        # hold a LAZY Dataset over an older tick's output — deleting
        # under it is data loss, so the default keeps everything and
        # reclamation is logged)
        keep = None if self.keep_outputs is None else {
            f"out-{t:05d}"
            for t in range(tick - self.keep_outputs + 1, tick + 1)
        }
        for d in self.store.commit(
            {"tick": tick, "state": state_name, "out": out_name,
             "last_batch": batch_key},
            lambda d: d.startswith("out-") and (keep is None or d in keep),
        ):
            if d.startswith("out-"):
                logging.getLogger("beamium_ray.rate").info(
                    "IncrementalRate: reclaiming delivered output %s "
                    "(keep_outputs=%d)", d, self.keep_outputs,
                )
        return self.store.dataset("out")
