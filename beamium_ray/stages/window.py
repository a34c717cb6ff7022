"""Windowed analytics: sliding quantiles, spike/drop flags, interval join.

Three time-series consumer operators over the rolled-up stream that the
rollup family (stages/rollup.py) doesn't cover:

**sliding_quantiles_dataset** — exact per-series quantiles over a
sliding window (e.g. p95 latency over the trailing 5 m, hopping every
1 m: the dashboard/SLO staple). Exact quantiles need the window's raw
values, so each narrow point row (key, ts, value) is pre-expanded to
its ``window/slide`` covering windows (the sliding_rollup_events
pattern, queries.py) and takes ONE hash(series) bucket shuffle; each
bucket then runs a single vectorized pass — lexsort by (series,
window, value), group bounds, and per-group linear interpolation done
with index arithmetic (no per-group Python). Scale shape: the shuffle
moves k× narrow rows (k = window/slide, small by construction); the
payload never rides along. For quantiles where k× exact values are
too much, the sketch path already exists (datapipe/stats.py
group_quantiles over partials is NOT exact; the KLL-style trade is
documented there) — this operator is the exact tier.

**spike_flags_dataset** — threshold alerting against trailing extrema
(the Prometheus-alert-rule staple: "current 1 m sum > 1.5× anything in
the last 10 windows"). Integer-exact by construction: per (series,
window) integer sums, then per series a bounded-lag comparison against
the previous ≤ ``lookback`` PRESENT windows' max/min (ROWS-frame
semantics, so the SQL oracle is a plain window function). The lag scan
is vectorized as ``lookback`` shifted-array reductions — fine because
lookback is a small constant, never data-sized.

**interval_join** — the broadcast range join Ray Data lacks: match
each row whose ``ts`` falls inside any of a set of [lo, hi) intervals
(incident windows, maintenance windows, ad campaigns), emitting one
output row per (row, interval) match so overlapping intervals are
honest. The interval table is driver-held and broadcast once via
``ray.put``. TWO kernels, auto-picked by interval count:
``interval_join_broadcast`` loops over a SMALL interval set with one
vectorized mask each (alerting-sized sets); ``interval_join_sorted``
decomposes the set into non-overlapping LEVELS once (sweep coloring,
level count = max overlap depth) and stabs each level with one
``searchsorted`` per batch — O(depth × n log m), the 10⁵-interval
shape. Both broadcast: the interval table itself must fit a worker's
heap; a genuinely big×big range join belongs to ``stages/join.py``'s
co-shuffle machinery instead.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from beamium_ray.functions.cluster import bucket_apply
from beamium_ray.functions.hashing import bucket_of


# ---------------------------------------------------------------------------
# sliding quantiles
# ---------------------------------------------------------------------------


def _quantile_schema(names: tuple[str, ...]) -> pa.Schema:
    return pa.schema(
        [("series_key", pa.string()), ("window_start", pa.int64())]
        + [(n, pa.int64()) for n in names]
        + [("n", pa.int64())]
    )


def sliding_quantiles_bucket(
    g: pa.Table, qs: tuple[float, ...], names: tuple[str, ...]
) -> pa.Table:
    """One vectorized pass per bucket: lexsort by (series, window,
    value), then per-(series, window) quantiles via the canonical
    one-sided lerp (functions/quantile.py — DuckDB ``quantile_cont``'s
    formula, shared with stats.group_quantiles and the SQL oracle),
    emitted as int64 micro-units."""
    if g.num_rows == 0:
        return _quantile_schema(names).empty_table()
    keys = g["series_key"].combine_chunks()
    codes = keys.dictionary_encode().indices.to_numpy().astype(np.int64)
    ws = g["window_start"].to_numpy(zero_copy_only=False)
    v = g["value"].to_numpy(zero_copy_only=False)

    o = np.lexsort((v, ws, codes))
    codes, ws, v = codes[o], ws[o], v[o]

    brk = np.empty(len(codes), dtype=bool)
    brk[0] = True
    brk[1:] = (codes[1:] != codes[:-1]) | (ws[1:] != ws[:-1])
    starts = np.flatnonzero(brk)
    lens = np.diff(np.append(starts, len(codes)))

    cols: dict = {
        "series_key": keys.take(pa.array(o[starts], pa.int64())),
        "window_start": pa.array(ws[starts], pa.int64()),
    }
    from beamium_ray.functions.quantile import grouped_quantile_sorted

    for q, name in zip(qs, names):
        val = grouped_quantile_sorted(v, starts, lens, q)
        cols[name] = pa.array(np.round(val * 1e6).astype(np.int64), pa.int64())
    cols["n"] = pa.array(lens.astype(np.int64), pa.int64())
    return pa.table(cols)


def sliding_quantiles_dataset(
    ds,
    window_us: int,
    slide_us: int,
    key_col: str = "series_key",
    ts_col: str = "ts",
    value_col: str = "value",
    qs: tuple[float, ...] = (0.5, 0.95, 0.99),
    names: tuple[str, ...] = ("p50", "p95", "p99"),
    num_buckets: int = 64,
    shuffle_blocks: int | None = None,
):
    """Exact sliding-window quantiles per series. ``window_us`` must be
    an integer multiple of ``slide_us``; each point lands in exactly
    ``window_us // slide_us`` windows. Non-finite values are dropped
    (matching SQL ``isfinite``). Only windows with ≥1 point appear."""
    if window_us % slide_us != 0:
        raise ValueError("window_us must be a multiple of slide_us")
    if len(qs) != len(names):
        raise ValueError("qs and names must align")
    k = window_us // slide_us

    def expand(b: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "series_key": b[key_col],
                "ts": pc.cast(b[ts_col], pa.int64()),
                "value": pc.cast(b[value_col], pa.float64()),
            }
        )
        t = t.filter(pc.is_finite(t["value"]))
        n = t.num_rows
        tu = t["ts"].to_numpy()
        k0 = tu // slide_us
        # window j's start: (k0 - j) * slide_us, j = 0..k-1 — point ts
        # lies in [ws, ws + window_us) for every one of them
        ws = ((k0[None, :] - np.arange(k)[:, None]) * slide_us).ravel()
        rep = pa.array(np.tile(np.arange(n, dtype=np.int64), k), pa.int64())
        t2 = t.take(rep).remove_column(t.schema.get_field_index("ts"))
        t2 = t2.append_column("window_start", pa.array(ws, pa.int64()))
        bkt = bucket_of(t2["series_key"].combine_chunks(), num_buckets)
        return t2.append_column("bucket", pa.array(bkt, pa.int32()))

    def merge(g: pa.Table) -> pa.Table:
        return sliding_quantiles_bucket(g, qs, names)

    return bucket_apply(ds, merge, prep=expand, shuffle_blocks=shuffle_blocks)


# ---------------------------------------------------------------------------
# spike / drop flags vs trailing extrema
# ---------------------------------------------------------------------------

_SPIKE_SCHEMA = pa.schema(
    [
        ("series_key", pa.string()),
        ("window_start", pa.int64()),
        ("wsum", pa.int64()),
        ("n", pa.int64()),
        ("n_baseline", pa.int64()),
        ("trailing_max", pa.int64()),
        ("trailing_min", pa.int64()),
        ("spike_up", pa.bool_()),
        ("spike_down", pa.bool_()),
    ]
)


def spike_flags_bucket(
    g: pa.Table, lookback: int, min_baseline: int
) -> pa.Table:
    """Per-bucket pass: (series, window) integer sums via one lexsort +
    reduceat, then trailing-extrema flags from ``lookback`` shifted-array
    reductions over the PRESENT-window sequence (ROWS-frame semantics).
    spike_up: 2·wsum > 3·trailing_max (i.e. > 1.5×); spike_down:
    2·wsum < trailing_min (i.e. < 0.5×) — all int64, no float anywhere.
    Flags/extrema are null while the baseline has < ``min_baseline`` /
    zero prior windows."""
    if g.num_rows == 0:
        return _SPIKE_SCHEMA.empty_table()
    keys = g["series_key"].combine_chunks()
    codes = keys.dictionary_encode().indices.to_numpy().astype(np.int64)
    ws = g["window_start"].to_numpy(zero_copy_only=False)
    v = g["v"].to_numpy(zero_copy_only=False)

    o = np.lexsort((ws, codes))
    codes, ws, v = codes[o], ws[o], v[o]
    brk = np.empty(len(codes), dtype=bool)
    brk[0] = True
    brk[1:] = (codes[1:] != codes[:-1]) | (ws[1:] != ws[:-1])
    starts = np.flatnonzero(brk)
    wsum = np.add.reduceat(v, starts)
    n = np.diff(np.append(starts, len(codes))).astype(np.int64)
    gcodes, gws = codes[starts], ws[starts]

    m = len(starts)
    tmax = np.full(m, np.iinfo(np.int64).min, dtype=np.int64)
    tmin = np.full(m, np.iinfo(np.int64).max, dtype=np.int64)
    cnt = np.zeros(m, dtype=np.int64)
    for j in range(1, lookback + 1):
        if j >= m:
            break
        ok = gcodes[j:] == gcodes[:-j]
        sl = slice(j, None)
        tmax[sl] = np.where(ok, np.maximum(tmax[sl], wsum[:-j]), tmax[sl])
        tmin[sl] = np.where(ok, np.minimum(tmin[sl], wsum[:-j]), tmin[sl])
        cnt[sl] += ok
    has_base = cnt > 0
    # flags need BOTH a real baseline (no int64-min/max sentinels in the
    # comparison — 3*sentinel wraps) and the min_baseline quorum; sub in
    # 0 where there's no baseline so the vectorized compare never wraps
    flag_ok = (cnt >= min_baseline) & has_base
    safe_max = np.where(has_base, tmax, 0)
    safe_min = np.where(has_base, tmin, 0)
    up = (2 * wsum > 3 * safe_max) & flag_ok
    dn = (2 * wsum < safe_min) & flag_ok
    return pa.table(
        {
            "series_key": keys.take(pa.array(o[starts], pa.int64())),
            "window_start": pa.array(gws, pa.int64()),
            "wsum": pa.array(wsum, pa.int64()),
            "n": pa.array(n, pa.int64()),
            "n_baseline": pa.array(cnt, pa.int64()),
            "trailing_max": pa.array(tmax, pa.int64(), mask=~has_base),
            "trailing_min": pa.array(tmin, pa.int64(), mask=~has_base),
            "spike_up": pa.array(up, pa.bool_(), mask=~flag_ok),
            "spike_down": pa.array(dn, pa.bool_(), mask=~flag_ok),
        }
    )


def spike_flags_dataset(
    ds,
    window_us: int,
    lookback: int = 10,
    min_baseline: int = 3,
    key_col: str = "series_key",
    ts_col: str = "ts",
    value_col: str = "value",
    num_buckets: int = 64,
    shuffle_blocks: int | None = None,
):
    """Trailing-extrema spike/drop detection per (series, window).
    ``value_col`` must already be integer (cents/micro-units by engine
    convention); one hash(series) shuffle of narrow rows only. The
    baseline frame is the previous ≤ ``lookback`` PRESENT windows of
    the same series (SQL: ROWS BETWEEN lookback PRECEDING AND 1
    PRECEDING over the per-window aggregate)."""

    def prep(b: pa.Table) -> pa.Table:
        tu = pc.cast(b[ts_col], pa.int64()).to_numpy()
        ws = tu - np.mod(tu, window_us)
        t = pa.table(
            {
                "series_key": b[key_col],
                "window_start": pa.array(ws, pa.int64()),
                "v": pc.cast(b[value_col], pa.int64()),
            }
        )
        t = t.filter(pc.is_valid(t["v"]))
        bkt = bucket_of(t["series_key"].combine_chunks(), num_buckets)
        return t.append_column("bucket", pa.array(bkt, pa.int32()))

    def merge(g: pa.Table) -> pa.Table:
        return spike_flags_bucket(g, lookback, min_baseline)

    return bucket_apply(ds, merge, prep=prep, shuffle_blocks=shuffle_blocks)


# ---------------------------------------------------------------------------
# broadcast interval join
# ---------------------------------------------------------------------------


def interval_join_broadcast(
    ds,
    intervals: pa.Table,
    ts_col: str = "ts",
    id_col: str = "interval_id",
    lo_col: str = "lo",
    hi_col: str = "hi",
    out_cols: list[str] | None = None,
):
    """Inner range join: one output row per (input row, interval) with
    ``lo <= ts < hi``. ``intervals`` is a small driver-held table
    (id, lo, hi) — broadcast once via ``ray.put``, looped over inside
    each batch with a vectorized mask per interval. Overlapping
    intervals yield multiple matches (honest range-join semantics)."""
    import ray

    ids = intervals[id_col].to_numpy(zero_copy_only=False)
    lo = intervals[lo_col].to_numpy(zero_copy_only=False).astype(np.int64)
    hi = intervals[hi_col].to_numpy(zero_copy_only=False).astype(np.int64)
    ref = ray.put((ids, lo, hi))
    id_type = intervals.schema.field(id_col).type

    def join(b: pa.Table, _ref=ref) -> pa.Table:
        iv_ids, iv_lo, iv_hi = ray.get(_ref)
        tu = pc.cast(b[ts_col], pa.int64()).to_numpy()
        src = b.select(out_cols) if out_cols is not None else b
        takes, tag = [], []
        for i in range(len(iv_ids)):
            sel = np.flatnonzero((tu >= iv_lo[i]) & (tu < iv_hi[i]))
            if len(sel):
                takes.append(sel)
                tag.append(np.full(len(sel), i, dtype=np.int64))
        if not takes:
            return src.schema.empty_table().append_column(
                id_col, pa.array([], id_type)
            )
        idx = np.concatenate(takes)
        out = src.take(pa.array(idx, pa.int64()))
        matched = pa.array(iv_ids[np.concatenate(tag)], id_type)
        return out.append_column(id_col, matched)

    return ds.map_batches(join, batch_format="pyarrow", batch_size=None)


def _interval_levels(
    lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, int]:
    """Greedy sweep coloring: assign each interval a LEVEL such that
    intervals sharing a level never overlap; the level count equals the
    max concurrent-overlap depth D (optimal — interval graphs are
    perfect). One driver-side O(m log m) pass; per-batch stabbing then
    costs one searchsorted per level instead of one mask per
    interval."""
    import heapq

    order = np.lexsort((hi, lo))
    free: list[int] = []
    busy: list[tuple[int, int]] = []  # (hi, level) min-heap
    levels = np.empty(len(lo), np.int64)
    next_level = 0
    for i in order.tolist():
        li = int(lo[i])
        while busy and busy[0][0] <= li:
            _, lv = heapq.heappop(busy)
            heapq.heappush(free, lv)
        if free:
            lv = heapq.heappop(free)
        else:
            lv = next_level
            next_level += 1
        levels[i] = lv
        heapq.heappush(busy, (int(hi[i]), lv))
    return levels, next_level


def interval_join_sorted(
    ds,
    intervals: pa.Table,
    ts_col: str = "ts",
    id_col: str = "interval_id",
    lo_col: str = "lo",
    hi_col: str = "hi",
    out_cols: list[str] | None = None,
):
    """The LARGE-interval-table escalation of
    :func:`interval_join_broadcast` (VERDICT r4 item 3): identical
    inner-range-join semantics (one output row per ``lo <= ts < hi``
    match, overlaps honest), but per-batch work is
    O(depth × n log m), not O(m × n).

    The interval set is decomposed ONCE driver-side into D levels of
    mutually non-overlapping intervals (``_interval_levels`` sweep,
    D = max overlap depth); within a level, sorted-``lo`` stabbing is
    one ``searchsorted`` + one bound check for the whole batch. The
    (levels, sorted endpoints) pack broadcasts via ``ray.put`` exactly
    like the scan route — still a BROADCAST join: the interval table
    must fit each worker's heap (~24 B/interval + ids). 10⁵ intervals
    over a metrics stream with depth ≤ a few dozen costs ~D vector
    passes per batch — the shape the scan route melts on."""
    import ray

    ids = intervals[id_col].to_numpy(zero_copy_only=False)
    lo = intervals[lo_col].to_numpy(zero_copy_only=False).astype(np.int64)
    hi = intervals[hi_col].to_numpy(zero_copy_only=False).astype(np.int64)
    # Empty intervals (hi <= lo) match nothing under lo <= ts < hi, but
    # the sweep treats them as instantly-free so one can share a level
    # (and a lo value) with a real interval and SHADOW it at the
    # searchsorted stab. Drop them up front: after this, lo values
    # within a level are strictly unique and the stab is exact.
    keep = hi > lo
    if not keep.all():
        ids, lo, hi = ids[keep], lo[keep], hi[keep]
    lvl, n_lvl = _interval_levels(lo, hi)
    packs = []
    for v in range(n_lvl):
        idx = np.flatnonzero(lvl == v)
        o = np.argsort(lo[idx], kind="stable")
        idx = idx[o]
        packs.append((lo[idx], hi[idx], idx))
    ref = ray.put((ids, packs))
    id_type = intervals.schema.field(id_col).type

    def join(b: pa.Table, _ref=ref) -> pa.Table:
        iv_ids, lv_packs = ray.get(_ref)
        tu = pc.cast(b[ts_col], pa.int64()).to_numpy()
        src = b.select(out_cols) if out_cols is not None else b
        takes, tag = [], []
        for lo_s, hi_s, idx_s in lv_packs:
            if len(lo_s) == 0:
                continue
            pos = np.searchsorted(lo_s, tu, side="right") - 1
            ok = pos >= 0
            posc = np.maximum(pos, 0)
            ok &= tu < hi_s[posc]
            sel = np.flatnonzero(ok)
            if len(sel):
                takes.append(sel)
                tag.append(idx_s[posc[sel]])
        if not takes:
            return src.schema.empty_table().append_column(
                id_col, pa.array([], id_type)
            )
        idx = np.concatenate(takes)
        out = src.take(pa.array(idx, pa.int64()))
        matched = pa.array(iv_ids[np.concatenate(tag)], id_type)
        return out.append_column(id_col, matched)

    return ds.map_batches(join, batch_format="pyarrow", batch_size=None)


def interval_join(
    ds,
    intervals: pa.Table,
    ts_col: str = "ts",
    id_col: str = "interval_id",
    lo_col: str = "lo",
    hi_col: str = "hi",
    out_cols: list[str] | None = None,
    route: str | None = None,
    scan_threshold: int = 64,
):
    """Route-picking front door: the per-interval mask scan wins for a
    handful of intervals (no level bookkeeping, one fused mask each);
    above ``scan_threshold`` intervals the sorted-endpoint route's
    O(depth × log m) per-batch stabbing takes over. ``route``
    ('scan' | 'sorted') forces."""
    if route is None:
        route = "scan" if intervals.num_rows <= scan_threshold else "sorted"
    fn = interval_join_broadcast if route == "scan" else interval_join_sorted
    return fn(ds, intervals, ts_col, id_col, lo_col, hi_col, out_cols)
