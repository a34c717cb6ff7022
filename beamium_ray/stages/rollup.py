"""Windowed rollup: min/max/sum/count/last per retention tier + gap-fill.

The engine's only wide operation (SURVEY.md §2.4, §7 M3). Design:

1. **Partial (combiner)** — ``map_batches(partial_rollup_batch)``:
   within each Arrow batch, aggregate to one row per
   ``(series_key, window_start)`` using pyarrow's hash aggregation
   (sorted by ``(ts, order)`` first so ``last`` is well-defined:
   tie-break = greatest ``ts`` then greatest ``order``). Hot-key skew
   is neutralized HERE: a series with 10^9 rows still emits ≤1 partial
   row per (batch, window), so no salting is needed downstream.
2. **Shuffle** — partials get ``bucket = hash64(series_key) % B``; a
   single ``groupby("bucket")`` colocates every series' partials. B is
   sized to ≥4× the max CPU count so both cluster sizes keep all cores
   busy (SURVEY.md §4.2).
3. **Merge + cascade** — per bucket, one vectorized pass merges
   partials at the base tier, then re-aggregates coarser tiers FROM the
   finer tier's merged rows (1m→1h→1d; partial→final reuse, no second
   shuffle), then gap-fills per series (dense windows between each
   series' min/max window; missing windows: ``n=0``, null aggregates).

The ``tokens`` payload NEVER passes through the shuffle — the rollup
input is the narrow datapoint projection (SURVEY.md §7 hard parts).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from beamium_ray.functions.cluster import bucket_apply
from beamium_ray.functions.hashing import bucket_of

AGG_COLS = ["vmin", "vmax", "vsum", "n", "last", "last_ts"]


def validate_tiers(tiers: dict[str, int]) -> None:
    """Fail fast on non-nested tier configs (each tier must divide the
    next-coarser one; the cascade reuses the previous tier's rows)."""
    widths = sorted(tiers.values())
    for prev, cur in zip(widths, widths[1:]):
        if cur % prev != 0:
            raise ValueError(
                f"tiers must nest pairwise: {cur}µs is not a multiple of "
                f"{prev}µs (cascade would floor straddling windows wrongly)"
            )


def window_start(ts: np.ndarray, tier_us: int) -> np.ndarray:
    """Floor ts to the tier boundary (numpy mod → floor for negatives too)."""
    return ts - np.mod(ts, tier_us)


def partial_rollup_batch(
    batch: pa.Table,
    tier_us: int,
    key_col: str = "series_key",
    ts_col: str = "ts",
    value_col: str = "value",
    order_col: str | None = None,
    num_buckets: int = 64,
    window_col: str | None = None,
    include_first: bool = False,
) -> pa.Table:
    """Per-batch combiner: ≤1 row per (series_key, window) per batch.

    Output schema: series_key, window_start, vmin, vmax, vsum, n,
    last, last_ts, last_order, bucket. ``window_col`` overrides the
    tumbling ``ts - ts % tier`` assignment with a precomputed window
    column (sliding windows pre-expand points to their covering
    windows, then reuse this same machinery).

    ``include_first=True`` adds first/first_ts/first_order (tie-break:
    LEAST (ts, order) — the mirror of ``last``), making the rollup row
    the standard M4 visualization downsample (min/max/first/last per
    window). Downstream stages detect the columns by schema, so the
    flag only exists here and on rollup_dataset.
    """
    cols = {
        "series_key": batch[key_col],
        "ts": batch[ts_col],
        "value": batch[value_col],
    }
    if window_col is not None:
        cols["window_start"] = batch[window_col]
    t = pa.table(cols)
    valid = pc.is_valid(t["value"])
    t = t.filter(valid)  # only datapoints aggregate
    if order_col is not None:
        t = t.append_column("order", batch.filter(valid)[order_col])
    else:
        t = t.append_column(
            "order", pa.array(np.arange(t.num_rows, dtype=np.int64))
        )
    if t.num_rows == 0:
        return _empty_partial_schema(t, include_first)

    if window_col is None:
        ts = t["ts"].to_numpy()
        t = t.append_column(
            "window_start", pa.array(window_start(ts, tier_us), pa.int64())
        )
    # sort so hash 'last' (scan order, use_threads=False) = max (ts, order)
    # and hash 'first' = min (ts, order)
    t = t.sort_by([("ts", "ascending"), ("order", "ascending")])
    aggs = [
        ("value", "min"),
        ("value", "max"),
        ("value", "sum"),
        ("value", "count"),
        ("value", "last"),
        ("ts", "last"),
        ("order", "last"),
    ]
    names = [
        "series_key",
        "window_start",
        "vmin",
        "vmax",
        "vsum",
        "n",
        "last",
        "last_ts",
        "last_order",
    ]
    if include_first:
        aggs += [("value", "first"), ("ts", "first"), ("order", "first")]
        names += ["first", "first_ts", "first_order"]
    g = t.group_by(["series_key", "window_start"], use_threads=False).aggregate(
        aggs
    )
    g = g.rename_columns(names)
    g = g.set_column(
        g.column_names.index("n"), "n", pc.cast(g["n"], pa.int64())
    )
    bucket = bucket_of(g["series_key"].combine_chunks(), num_buckets)
    return g.append_column("bucket", pa.array(bucket, pa.int32()))


def _empty_partial_schema(
    t: pa.Table, include_first: bool = False
) -> pa.Table:
    vtype = t.schema.field("value").type
    fields = [
        ("series_key", pa.string()),
        ("window_start", pa.int64()),
        ("vmin", vtype),
        ("vmax", vtype),
        ("vsum", vtype),
        ("n", pa.int64()),
        ("last", vtype),
        ("last_ts", pa.int64()),
        ("last_order", pa.int64()),
    ]
    if include_first:
        fields += [
            ("first", vtype),
            ("first_ts", pa.int64()),
            ("first_order", pa.int64()),
        ]
    fields.append(("bucket", pa.int32()))
    return pa.schema(fields).empty_table()


def merge_partials(t: pa.Table) -> pa.Table:
    """Merge partial rows (any number per key/window) to finals.

    ``last`` merge rule: the partial with the greatest (last_ts,
    last_order) wins — achieved by sorting ascending and taking hash
    'last' in scan order. If the partials carry ``first`` columns
    (include_first, M4 mode), the mirror rule needs its OWN scan
    order — a partial can hold both a group's earliest first and
    latest last, so one sort can't serve both — hence a second sorted
    group_by whose rows align by the same (series, window) sort.
    """
    has_first = "first" in t.column_names
    t = t.sort_by(
        [
            ("series_key", "ascending"),
            ("window_start", "ascending"),
            ("last_ts", "ascending"),
            ("last_order", "ascending"),
        ]
    )
    g = t.group_by(["series_key", "window_start"], use_threads=False).aggregate(
        [
            ("vmin", "min"),
            ("vmax", "max"),
            ("vsum", "sum"),
            ("n", "sum"),
            ("last", "last"),
            ("last_ts", "last"),
            ("last_order", "last"),
        ]
    )
    g = g.rename_columns(
        [
            "series_key",
            "window_start",
            "vmin",
            "vmax",
            "vsum",
            "n",
            "last",
            "last_ts",
            "last_order",
        ]
    )
    g = g.sort_by(
        [("series_key", "ascending"), ("window_start", "ascending")]
    )
    if not has_first:
        return g
    tf = t.sort_by(
        [
            ("series_key", "ascending"),
            ("window_start", "ascending"),
            ("first_ts", "ascending"),
            ("first_order", "ascending"),
        ]
    )
    gf = tf.group_by(
        ["series_key", "window_start"], use_threads=False
    ).aggregate(
        [("first", "first"), ("first_ts", "first"), ("first_order", "first")]
    )
    gf = gf.rename_columns(
        ["series_key", "window_start", "first", "first_ts", "first_order"]
    ).sort_by([("series_key", "ascending"), ("window_start", "ascending")])
    # same groups, same sort → positional alignment is exact
    for name in ("first", "first_ts", "first_order"):
        g = g.append_column(name, gf[name])
    return g


def cascade_tier(fine: pa.Table, tier_us: int) -> pa.Table:
    """Re-aggregate a merged finer tier into a coarser one (1m→1h→1d).

    Correct because every aggregate here is decomposable: min of mins,
    max of maxes, sum of sums/counts, last of lasts by (last_ts, order)
    — and, in M4 mode, first of firsts by least (first_ts, order).
    """
    ws = window_start(fine["window_start"].to_numpy(), tier_us)
    t = fine.set_column(
        fine.column_names.index("window_start"),
        "window_start",
        pa.array(ws, pa.int64()),
    )
    return merge_partials(t)


def gapfill_tier(
    t: pa.Table, tier_us: int, max_gap_windows: int | None = None,
    interpolate: bool = False,
) -> pa.Table:
    """Dense windows per series between its own min/max window.

    Missing windows: n=0, null aggregates (FIXTURES.md §3). Input must
    be sorted by (series_key, window_start) — merge_partials output is.
    Fully vectorized (per-hole expansion: each present row emits itself
    plus its following gap rows).

    ``max_gap_windows`` is the scale-safety valve: holes LONGER than
    this many windows are left unfilled (staleness semantics) instead
    of materializing an unbounded dense range — a series with points
    years apart would otherwise explode the output. None = fill all
    interior holes (the default / reference-fixture behavior).

    ``interpolate``: gap rows additionally get their ``last`` column
    linearly interpolated between the bounding present rows' ``last``
    values, in INTEGER floor arithmetic (values here are integer
    cents/micro-units by engine convention, queries.py module
    docstring): ``pv + (nv - pv) * k // (gap + 1)`` with numpy floor
    division — exact, order-independent, and reproducible in SQL as
    ``floor()`` over a double division (both operands stay far below
    2^53 at cents scale, so the double path is exact too). Every gap
    row is interior (the dense range is per-series min..max window),
    so both neighbors always exist; a null neighbor leaves the gap
    row null. All other aggregates keep their null-gap semantics.
    """
    if t.num_rows == 0:
        return t
    keys = t["series_key"].combine_chunks()
    ords = keys.dictionary_encode().indices.to_numpy().astype(np.int64)
    ws = t["window_start"].to_numpy()
    n = len(ws)

    same_next = np.empty(n, dtype=bool)
    same_next[:-1] = ords[1:] == ords[:-1]
    same_next[-1] = False
    hole = np.zeros(n, dtype=np.int64)
    hole[:-1] = np.where(same_next[:-1], (ws[1:] - ws[:-1]) // tier_us - 1, 0)
    if (hole < 0).any():
        # duplicate or sub-tier-spaced windows within a series: the
        # input was not merged/floored at this tier — a silent
        # negative hole would corrupt the dense expansion below
        raise ValueError(
            "gapfill input has duplicate or misaligned window_start "
            "values within a series (rows must be merged and floored "
            f"to the {tier_us}µs tier before gap-fill)"
        )
    if max_gap_windows is not None:
        hole = np.where(hole <= max_gap_windows, hole, 0)
    if not hole.any():
        return t

    counts = 1 + hole
    off = np.concatenate(([0], np.cumsum(counts)))
    total = int(off[-1])
    rid = np.repeat(np.arange(n, dtype=np.int64), counts)
    k = np.arange(total, dtype=np.int64) - off[rid]
    present = k == 0
    out_ws = ws[rid] + k * tier_us

    take = pa.array(rid, pa.int64())
    mask = ~present
    out_cols: dict[str, pa.Array] = {
        "series_key": keys.take(take),
        "window_start": pa.array(out_ws, pa.int64()),
    }
    agg_names = ["vmin", "vmax", "vsum", "last", "last_ts", "last_order"]
    if "first" in t.column_names:
        agg_names += ["first", "first_ts", "first_order"]
    for name in agg_names:
        src = t[name].combine_chunks()
        np_dtype = np.float64 if pa.types.is_floating(src.type) else np.int64
        arr_np = src.to_numpy(zero_copy_only=False)
        if arr_np.dtype != np_dtype:  # nulls widen int columns to float
            arr_np = np.nan_to_num(arr_np.astype(np.float64)).astype(np_dtype)
        vals = np.zeros(total, dtype=np_dtype)
        vals[present] = arr_np
        # gap rows are null; present rows keep their original validity
        full_mask = mask.copy()
        valid_src = np.asarray(src.is_valid())
        full_mask[present] |= ~valid_src
        if interpolate and name == "last":
            gap = ~present
            pv_i = rid[gap]
            nv_i = pv_i + 1  # same series: holes only exist mid-series
            pv, nv = arr_np[pv_i], arr_np[nv_i]
            den = hole[pv_i] + 1
            vals[gap] = pv + np.floor_divide((nv - pv) * k[gap], den)
            full_mask[gap] = ~(valid_src[pv_i] & valid_src[nv_i])
        out_cols[name] = pa.array(vals, src.type, mask=full_mask)
    nvals = np.zeros(total, dtype=np.int64)
    nvals[present] = t["n"].to_numpy()
    out_cols["n"] = pa.array(nvals, pa.int64())
    sel = [
        "series_key",
        "window_start",
        "vmin",
        "vmax",
        "vsum",
        "n",
        "last",
        "last_ts",
        "last_order",
    ]
    if "first" in t.column_names:
        sel += ["first", "first_ts", "first_order"]
    return pa.table(out_cols).select(sel)


def _finalize_tier(
    m: pa.Table,
    name: str,
    us: int,
    gapfill: bool,
    gapfill_max_gap: int | None,
    gapfill_interpolate: bool,
) -> pa.Table:
    """Shared per-tier finalization tail (gap-fill + tier label) for the
    fresh-roll cascade and the incremental per-tier merge — one place,
    so a new gap-fill flag cannot silently diverge the two paths."""
    if gapfill:
        m = gapfill_tier(m, us, gapfill_max_gap, gapfill_interpolate)
    return m.append_column("tier", pa.array([name] * m.num_rows, pa.string()))


def merge_cascade_gapfill(
    bucket_table: pa.Table,
    tiers: dict[str, int],
    gapfill: bool = True,
    gapfill_max_gap: int | None = None,
    gapfill_interpolate: bool = False,
) -> pa.Table:
    """Per-bucket finalization: merge base tier, cascade coarser tiers,
    gap-fill each, union with a ``tier`` label column."""
    if "bucket" in bucket_table.column_names:
        bucket_table = bucket_table.drop_columns(["bucket"])
    order = sorted(tiers.items(), key=lambda kv: kv[1])
    base_name, base_us = order[0]
    merged = {base_name: merge_partials(bucket_table)}
    prev = merged[base_name]
    prev_us = base_us
    for name, us in order[1:]:
        # each tier cascades from the PREVIOUS tier's merged rows, so the
        # tiers must nest pairwise: a 45m window straddling a 2h boundary
        # would be floored whole into one 2h window and silently corrupt
        # the coarser aggregates
        if us % prev_us != 0:
            raise ValueError(
                f"tier {name} ({us}µs) is not a multiple of the previous "
                f"tier ({prev_us}µs); cascade requires nested tiers"
            )
        prev = cascade_tier(prev, us)
        merged[name] = prev
        prev_us = us
    pieces = [
        _finalize_tier(
            merged[name], name, us, gapfill, gapfill_max_gap,
            gapfill_interpolate,
        )
        for name, us in order
    ]
    return pa.concat_tables(pieces)


def merge_tiers_with_prior(
    bucket_table: pa.Table,
    tiers: dict[str, int],
    prior: dict[str, pa.Table],
    gapfill: bool = True,
    gapfill_max_gap: int | None = None,
    gapfill_interpolate: bool = False,
) -> pa.Table:
    """Per-bucket finalization for incremental appends whose stored
    tier states may cover DIFFERENT horizons (per-tier retention):
    each tier merges ITS OWN prior merged rows with the new
    increment's partials floored to that tier — never re-deriving a
    coarser tier from the finer one. Re-deriving (what
    :func:`merge_cascade_gapfill` does) silently destroys coarse-tier
    history when retention evicted base-tier blocks but kept the
    coarse ones (the standard downsample-and-keep-longer pattern).

    Exactly equivalent to the cascade when every tier's prior state
    derives from the same untruncated base: every aggregate here is
    decomposable (min/max/sum/count; last by greatest (last_ts,
    order); first by least (first_ts, order)), so
    merge(prior_tier, floor(new)) == cascade(merge(prior_base, new)).

    ``bucket_table`` rows must be partials at the BASE tier's window
    granularity (every tier must be a multiple of the base — weaker
    than the cascade's pairwise-nesting requirement).
    """
    if "bucket" in bucket_table.column_names:
        bucket_table = bucket_table.drop_columns(["bucket"])
    order = sorted(tiers.items(), key=lambda kv: kv[1])
    base_name, base_us = order[0]
    ws_idx = bucket_table.column_names.index("window_start")
    base_ws = bucket_table["window_start"].to_numpy()
    pieces = []
    for name, us in order:
        if us % base_us != 0:
            raise ValueError(
                f"tier {name} ({us}µs) is not a multiple of the base "
                f"tier ({base_us}µs); re-flooring base partials "
                "requires aligned tiers"
            )
        inp = (
            bucket_table
            if us == base_us
            else bucket_table.set_column(
                ws_idx,
                "window_start",
                pa.array(window_start(base_ws, us), pa.int64()),
            )
        )
        p = prior.get(name)
        if p is not None and p.num_rows:
            # stored rows must already sit on THIS tier's boundaries —
            # a misaligned prior (e.g. finer-tier rows passed under a
            # coarser tier's name) would merge into mixed-granularity
            # windows and surface as a cryptic indexing error inside
            # gap-fill; fail loudly at the boundary instead
            p_ws = p["window_start"].to_numpy()
            if np.mod(p_ws, us).any():
                raise ValueError(
                    f"prior rows for tier {name} ({us}µs) contain "
                    "window_start values not aligned to the tier width "
                    "— stored tier state passed under the wrong tier?"
                )
            inp = pa.concat_tables([inp, p], promote_options="default")
        pieces.append(
            _finalize_tier(
                merge_partials(inp), name, us, gapfill, gapfill_max_gap,
                gapfill_interpolate,
            )
        )
    return pa.concat_tables(pieces)


def rollup_dataset(
    ds,
    tiers: dict[str, int],
    key_col: str = "series_key",
    ts_col: str = "ts",
    value_col: str = "value",
    order_col: str | None = None,
    num_buckets: int = 64,
    gapfill: bool = True,
    shuffle_blocks: int | None = None,
    gapfill_max_gap: int | None = None,
    gapfill_interpolate: bool = False,
    include_first: bool = False,
):
    """Full Ray Data rollup pipeline over a datapoint Dataset.

    Returns a Dataset of (tier, series_key, window_start, vmin, vmax,
    vsum, n, last, last_ts, last_order) rows — plus
    first/first_ts/first_order when ``include_first`` (the M4
    visualization downsample: min/max/first/last per window). One
    shuffle (bucket).

    ``shuffle_blocks``: coalesce the (already combiner-reduced) partials
    to this many blocks before the groupby. The shuffle's fixed cost
    scales with input-block count, not bytes — after a ~20× combiner
    reduction, hundreds of tiny partial blocks would pay hundreds of
    sort/exchange task overheads. Size it to ~the CPU count (cluster
    size), never to the input size.
    """
    validate_tiers(tiers)  # fail fast, before any compute launches
    base_us = min(tiers.values())

    def _partial(batch: pa.Table) -> pa.Table:
        return partial_rollup_batch(
            batch, base_us, key_col, ts_col, value_col, order_col,
            num_buckets, include_first=include_first,
        )

    def _merge(group: pa.Table) -> pa.Table:
        return merge_cascade_gapfill(
            group, tiers, gapfill, gapfill_max_gap, gapfill_interpolate
        )

    return bucket_apply(ds, _merge, prep=_partial, shuffle_blocks=shuffle_blocks)
