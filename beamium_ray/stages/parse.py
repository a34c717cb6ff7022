"""Vectorized Prometheus→Warp10 parse stage (reference operator P1/P2/P4).

Reference behavior: ``src/lib/transcompiler.rs:38-109`` (see
``beamium_ray.oracle.format_prometheus`` for the line-level spec). This
module re-expresses it as a zero-copy Arrow batch kernel: one
``map_batches(parse_batch, batch_format="pyarrow")`` call turns a column
of raw Prometheus text lines into typed columns::

    ts:int64(µs)  class:string  labels:string  value_str:string
    value:float64 line:string(formatted Warp10 line)

Dropped lines (comments, empties, ±Inf/NaN values, unparseable) are
filtered out and counted (``beamium_skip``-style counters, reference
``src/scraper.rs:35-46``).

The scrape-time default timestamp ``now`` is passed explicitly per
partition so output is reproducible (ref ``transcompiler.rs:16-21``,
SURVEY.md §2.3 T4).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from beamium_ray.functions.encoding import (
    first_index_of,
    label_machine,
    last_index_of,
    slice_rows,
    string_bytes,
    strings_from_bytes,
    urlencode_array,
)

_DROP_VALUES = pa.array(["+Inf", "-Inf", "nan", "NaN"])
_INT_RE = r"^[+-]?[0-9]+$"

PARSED_SCHEMA = pa.schema(
    [
        ("ts", pa.int64()),
        ("class", pa.string()),
        ("labels", pa.string()),
        ("value_str", pa.string()),
        ("value", pa.float64()),
        ("line", pa.string()),
    ]
)


def _compose_line(ts: pa.Array, klass: pa.Array, labels: pa.Array, value: pa.Array) -> pa.Array:
    """Rebuild the formatted Warp10 line ``ts// class{labels} value``."""
    ts_str = pc.cast(ts, pa.string())
    return pc.binary_join_element_wise(
        ts_str, "// ", klass, "{", labels, "} ", value, ""
    )


def parse_prometheus_batch(
    lines: pa.Array | pa.ChunkedArray,
    now: int,
    counters: dict | None = None,
    return_indices: bool = False,
):
    """Parse a batch of Prometheus text lines into typed columns.

    Vectorized equivalent of per-line ``oracle.format_prometheus``; rows
    the reference drops or errors on are filtered out (and tallied into
    ``counters`` when given: keys ``comment_or_empty``, ``bad_class``,
    ``no_value``, ``inf_nan``). With ``return_indices`` also returns the
    surviving rows' indices into the input (for payload passthrough).
    """

    def _done(table, indices):
        return (table, indices) if return_indices else table

    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    if lines.null_count:
        lines = pc.fill_null(lines, "")
    arr = pc.utf8_trim_whitespace(lines)
    orig = np.arange(len(arr), dtype=np.int64)

    keep = pc.and_(
        pc.invert(pc.equal(arr, "")), pc.invert(pc.starts_with(arr, "#"))
    )
    if counters is not None:
        counters["comment_or_empty"] = counters.get("comment_or_empty", 0) + (
            len(arr) - pc.sum(keep).as_py()
        )
    arr = arr.filter(keep)
    orig = orig[keep.to_numpy(zero_copy_only=False)]
    if len(arr) == 0:
        return _done(PARSED_SCHEMA.empty_table(), orig)

    data, offsets = string_bytes(arr)
    lens = np.diff(offsets)
    brace_first = first_index_of(data, offsets, 0x7B)  # '{'
    has_brace = brace_first >= 0
    rbrace_last = last_index_of(data, offsets, 0x7D)  # '}'
    space_first = first_index_of(data, offsets, 0x20)  # ' '
    # class boundary (ref transcompiler.rs:47-52)
    idx = np.where(has_brace, rbrace_last, space_first)
    ok = idx >= 0
    if counters is not None:
        counters["bad_class"] = counters.get("bad_class", 0) + int((~ok).sum())
    if not ok.all():
        m = pa.array(ok)
        arr = arr.filter(m)
        data, offsets = string_bytes(arr)
        lens = np.diff(offsets)
        brace_first = brace_first[ok]
        has_brace = has_brace[ok]
        idx = idx[ok]
        orig = orig[ok]
    if len(arr) == 0:
        return _done(PARSED_SCHEMA.empty_table(), orig)

    # rest of line after the class part → whitespace tokens (value, [ts]).
    # utf8_split_whitespace emits empty tokens around whitespace runs
    # (Rust split_whitespace does not), so pick the first two NON-empty
    # tokens per row.
    rest_b, rest_off = slice_rows(data, offsets, idx + 1, lens)
    rest_arr = strings_from_bytes(rest_b, rest_off)
    toks = pc.utf8_split_whitespace(rest_arr)
    tok_off = toks.offsets.to_numpy().astype(np.int64)
    tok_vals = toks.values
    nonempty = np.flatnonzero(
        pc.greater(pc.utf8_length(tok_vals), 0).to_numpy(zero_copy_only=False)
    )
    n = len(arr)
    first_tok = np.full(n, -1, dtype=np.int64)
    second_tok = np.full(n, -1, dtype=np.int64)
    if len(nonempty):
        rid = np.searchsorted(tok_off, nonempty, side="right") - 1
        first_tok[rid[::-1]] = nonempty[::-1]  # first occurrence wins
        rest_mask = nonempty != first_tok[rid]
        rrid, rpos = rid[rest_mask], nonempty[rest_mask]
        second_tok[rrid[::-1]] = rpos[::-1]
    tok_counts = (first_tok >= 0).astype(np.int64) + (second_tok >= 0).astype(
        np.int64
    )

    has_value = tok_counts >= 1
    if counters is not None:
        counters["no_value"] = counters.get("no_value", 0) + int((~has_value).sum())

    # value token (rows without one get a placeholder, filtered below)
    v_idx = np.where(has_value, first_tok, 0)
    value_str = tok_vals.take(pa.array(v_idx))
    is_inf_nan = pc.is_in(value_str, value_set=_DROP_VALUES).to_numpy(
        zero_copy_only=False
    ) & has_value
    if counters is not None:
        counters["inf_nan"] = counters.get("inf_nan", 0) + int(is_inf_nan.sum())

    final_keep = has_value & ~is_inf_nan
    if not final_keep.all():
        m = pa.array(final_keep)
        arr = arr.filter(m)
        data, offsets = string_bytes(arr)
        lens = np.diff(offsets)
        brace_first = brace_first[final_keep]
        has_brace = has_brace[final_keep]
        idx = idx[final_keep]
        value_str = value_str.filter(m)
        second_tok = second_tok[final_keep]
        orig = orig[final_keep]
    if len(arr) == 0:
        return _done(PARSED_SCHEMA.empty_table(), orig)

    # timestamp: 2nd token, int → ms*1000, else `now` (ref :62-66)
    has_ts = second_tok >= 0
    ts = np.full(len(arr), now, dtype=np.int64)
    if has_ts.any():
        t_idx = second_tok[has_ts]
        ts_tok = tok_vals.take(pa.array(t_idx))
        valid = pc.match_substring_regex(ts_tok, _INT_RE).to_numpy(
            zero_copy_only=False
        )
        # i64-parseable only: >19 digits always overflows → `now` fallback
        tlen = pc.utf8_length(ts_tok).to_numpy(zero_copy_only=False)
        fastpath = valid & (tlen <= 18)
        parsed = np.full(int(has_ts.sum()), now, dtype=np.int64)
        if fastpath.any():
            toks = ts_tok.filter(pa.array(fastpath))
            # Rust from_str_radix accepts a leading '+'; Arrow's cast doesn't
            toks = pc.replace_substring_regex(toks, r"^\+", "")
            ints = pc.cast(toks, pa.int64()).to_numpy()
            with np.errstate(over="ignore"):
                parsed[fastpath] = ints * 1000
        slow = valid & (tlen > 18)
        if slow.any():  # rare: 19+ digit tokens, exact i64 overflow semantics
            for j in np.flatnonzero(slow):
                v = int(ts_tok[j].as_py())
                if -(2**63) <= v < 2**63:
                    w = (v * 1000) & (2**64 - 1)
                    parsed[j] = w - 2**64 if w >= 2**63 else w
        ts[has_ts] = parsed

    # class: split at the first '{' WITHIN the class part (line[:idx+1]);
    # a '{' after the last '}' (e.g. 'a} b{c 1') belongs to the value
    # region, matching the oracle's splitn over class_part only
    brace_in_class = has_brace & (brace_first <= idx)
    class_stop = np.where(brace_in_class, brace_first, idx + 1)
    cls_b, cls_off = slice_rows(data, offsets, np.zeros(len(arr), np.int64), class_stop)
    klass = urlencode_array(
        pc.utf8_trim_whitespace(strings_from_bytes(cls_b, cls_off))
    )

    # labels: quote-aware machine over text after the first '{'
    lab_start = np.where(brace_in_class, brace_first + 1, lens)  # else empty
    lab_b, lab_off = slice_rows(data, offsets, lab_start, idx + 1)
    labels = label_machine(strings_from_bytes(lab_b, lab_off))

    ts_arr = pa.array(ts, pa.int64())
    value = pc.cast(
        pc.if_else(
            pc.match_substring_regex(
                value_str, r"^[+-]?([0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?|Inf|inf)$"
            ),
            value_str,
            pa.scalar(None, pa.string()),
        ),
        pa.float64(),
    )
    line = _compose_line(ts_arr, klass, labels, value_str)
    out = pa.table(
        {
            "ts": ts_arr,
            "class": klass,
            "labels": labels,
            "value_str": value_str,
            "value": value,
            "line": line,
        }
    )
    return _done(out, orig)


def parse_table(
    batch: pa.Table,
    now: int,
    line_col: str = "line",
    passthrough: list[str] | None = None,
    counters: dict | None = None,
) -> pa.Table:
    """Parse ``batch[line_col]``, carrying ``passthrough`` columns of the
    surviving rows alongside (the token-payload invariant path)."""
    parsed, idx = parse_prometheus_batch(
        batch[line_col], now, counters, return_indices=True
    )
    if passthrough:
        taken = batch.select(passthrough).take(pa.array(idx))
        for name in passthrough:
            parsed = parsed.append_column(name, taken[name])
    return parsed


def _warp10_ts_valid(ts_str: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(keep mask, int64 values) for integer-timestamp tokens.

    ≤18 digits: vectorized cast. 19+ digits: exact slow path keeping
    in-range i64 values (e.g. 9223372036854775807 is valid — the r1
    fast path wrongly dropped every 19-digit token, ADVICE r1)."""
    valid = pc.match_substring_regex(ts_str, _INT_RE).to_numpy(
        zero_copy_only=False
    )
    tlen = pc.utf8_length(ts_str).to_numpy(zero_copy_only=False)
    out = np.zeros(len(valid), dtype=np.int64)
    fast = valid & (tlen <= 18)
    if fast.any():
        toks = pc.replace_substring_regex(
            ts_str.filter(pa.array(fast)), r"^\+", ""
        )
        out[fast] = pc.cast(toks, pa.int64()).to_numpy()
    slow = valid & (tlen > 18)
    keep = fast.copy()
    if slow.any():  # rare: exact-parse, keep only in-range i64
        for j in np.flatnonzero(slow):
            v = int(ts_str[j].as_py())
            if -(2**63) <= v < 2**63:
                out[j] = v
                keep[j] = True
    return keep, out


def _parse_warp10_full(
    arr: pa.Array,
) -> tuple[pa.Table, np.ndarray]:
    """Parse full ``ts// class{labels} value`` lines; returns (table,
    surviving row indices into ``arr``)."""
    idx = np.arange(len(arr), dtype=np.int64)
    if len(arr) == 0:
        return PARSED_SCHEMA.empty_table(), idx
    data, offsets = string_bytes(arr)
    lens = np.diff(offsets)

    slash = first_index_of(data, offsets, 0x2F)  # '/'
    brace = first_index_of(data, offsets, 0x7B)  # '{'
    rbrace = last_index_of(data, offsets, 0x7D)  # '}'
    # shape check: 'ts// class{...}': a second '/' and a space must
    # immediately follow the first '/'
    second = np.where(slash >= 0, np.minimum(slash + 1, lens - 1), 0)
    space = np.where(slash >= 0, np.minimum(slash + 2, lens - 1), 0)
    ok = (
        (slash >= 1)
        & (brace > slash)
        & (rbrace > brace)
        & (data[np.clip(offsets[:-1] + second, 0, len(data) - 1)] == 0x2F)
        & (data[np.clip(offsets[:-1] + space, 0, len(data) - 1)] == 0x20)
    )
    if not ok.all():
        arr = arr.filter(pa.array(ok))
        idx = idx[ok]
        if len(arr) == 0:
            return PARSED_SCHEMA.empty_table(), idx
        data, offsets = string_bytes(arr)
        lens = np.diff(offsets)
        slash, brace, rbrace = slash[ok], brace[ok], rbrace[ok]

    ts_b, ts_off = slice_rows(data, offsets, np.zeros(len(arr), np.int64), slash)
    ts_str = strings_from_bytes(ts_b, ts_off)
    valid_ts, ts_vals = _warp10_ts_valid(ts_str)
    # non-integer / out-of-range timestamps → drop the row (the
    # reference logs+skips junk; a null ts would crash the rollup)
    if not valid_ts.all():
        m = pa.array(valid_ts)
        arr = arr.filter(m)
        idx = idx[valid_ts]
        if len(arr) == 0:
            return PARSED_SCHEMA.empty_table(), idx
        data, offsets = string_bytes(arr)
        lens = np.diff(offsets)
        slash, brace, rbrace = slash[valid_ts], brace[valid_ts], rbrace[valid_ts]
        ts_vals = ts_vals[valid_ts]
    ts = pa.array(ts_vals, pa.int64())

    # class between '// ' and '{'
    cls_b, cls_off = slice_rows(data, offsets, slash + 3, brace)
    klass = strings_from_bytes(cls_b, cls_off)
    lab_b, lab_off = slice_rows(data, offsets, brace + 1, rbrace)
    labels = strings_from_bytes(lab_b, lab_off)
    val_b, val_off = slice_rows(data, offsets, rbrace + 2, lens)
    value_str = strings_from_bytes(val_b, val_off)
    value = pc.cast(
        pc.if_else(
            pc.match_substring_regex(
                value_str, r"^[+-]?([0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?)$"
            ),
            value_str,
            pa.scalar(None, pa.string()),
        ),
        pa.float64(),
    )
    line = _compose_line(ts, klass, labels, value_str)
    out = pa.table(
        {
            "ts": ts,
            "class": klass,
            "labels": labels,
            "value_str": value_str,
            "value": value,
            "line": line,
        }
    )
    return out, idx


def _parse_warp10_cont(arr: pa.Array) -> tuple[pa.Table, np.ndarray]:
    """Parse continuation bodies ``ts// value`` (leading '=' already
    stripped); returns ((ts, value_str, value), surviving indices)."""
    idx = np.arange(len(arr), dtype=np.int64)
    # a bare '=' line leaves an EMPTY body — drop before shape checks
    # (indexing an empty byte buffer would fault)
    nz = pc.greater(pc.utf8_length(arr), 0).to_numpy(zero_copy_only=False)
    if not nz.all():
        arr = arr.filter(pa.array(nz))
        idx = idx[nz]
    if len(arr) == 0:
        return pa.table(
            {"ts": pa.array([], pa.int64()),
             "value_str": pa.array([], pa.string()),
             "value": pa.array([], pa.float64())}
        ), idx
    data, offsets = string_bytes(arr)
    lens = np.diff(offsets)
    slash = first_index_of(data, offsets, 0x2F)
    second = np.where(slash >= 0, np.minimum(slash + 1, lens - 1), 0)
    space = np.where(slash >= 0, np.minimum(slash + 2, lens - 1), 0)
    ok = (
        (slash >= 1)
        & (lens > slash + 3)  # at least one value char
        & (data[np.clip(offsets[:-1] + second, 0, len(data) - 1)] == 0x2F)
        & (data[np.clip(offsets[:-1] + space, 0, len(data) - 1)] == 0x20)
    )
    if not ok.all():
        arr = arr.filter(pa.array(ok))
        idx = idx[ok]
        if len(arr) == 0:
            return pa.table(
                {"ts": pa.array([], pa.int64()),
                 "value_str": pa.array([], pa.string()),
                 "value": pa.array([], pa.float64())}
            ), idx
        data, offsets = string_bytes(arr)
        lens = np.diff(offsets)
        slash = slash[ok]
    ts_b, ts_off = slice_rows(data, offsets, np.zeros(len(arr), np.int64), slash)
    ts_str = strings_from_bytes(ts_b, ts_off)
    valid_ts, ts_vals = _warp10_ts_valid(ts_str)
    if not valid_ts.all():
        m = pa.array(valid_ts)
        arr = arr.filter(m)
        idx = idx[valid_ts]
        if len(arr) == 0:
            return pa.table(
                {"ts": pa.array([], pa.int64()),
                 "value_str": pa.array([], pa.string()),
                 "value": pa.array([], pa.float64())}
            ), idx
        data, offsets = string_bytes(arr)
        lens = np.diff(offsets)
        slash = slash[valid_ts]
        ts_vals = ts_vals[valid_ts]
    val_b, val_off = slice_rows(data, offsets, slash + 3, lens)
    value_str = strings_from_bytes(val_b, val_off)
    value = pc.cast(
        pc.if_else(
            pc.match_substring_regex(
                value_str, r"^[+-]?([0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?)$"
            ),
            value_str,
            pa.scalar(None, pa.string()),
        ),
        pa.float64(),
    )
    return pa.table(
        {"ts": pa.array(ts_vals, pa.int64()), "value_str": value_str,
         "value": value}
    ), idx


def parse_warp10_batch(
    lines: pa.Array | pa.ChunkedArray,
    counters: dict | None = None,
    groups: "np.ndarray | None" = None,
) -> pa.Table:
    """Parse Warp10/Sensision datapoint lines ``ts// class{labels} value``
    into the same typed columns as the Prometheus path (so native
    Sensision input can feed the rollup engine — the reference only
    passes these through, ``transcompiler.rs:33-35``; parsing them is an
    engine extension needed because our rollup consumes columns).

    '='-CONTINUATION lines (``=ts// value``) inherit class+labels from
    the nearest PRECEDING successfully-parsed full line in the batch —
    mirroring Warp10 semantics; the reference keeps such lines glued to
    their predecessor through batching (``src/scraper.rs:210,239``), so
    whole-block batches preserve the adjacency this relies on. A
    continuation with no surviving predecessor in the batch is dropped
    and counted (``orphan_continuation``).

    ``groups`` (optional, aligned to ``lines``): a per-line group id
    (e.g. the source file) — inheritance never crosses a group
    boundary, so a continuation at the start of one file cannot adopt
    the previous file's series when several whole files share a block.

    Rows not matching either shape are dropped. Position/elevation
    fields of the full ``ts/lat:lon/elev`` triple are not supported
    (beamium never emits them).
    """
    if isinstance(lines, pa.ChunkedArray):
        lines = lines.combine_chunks()
    arr = pc.utf8_trim_whitespace(pc.fill_null(lines, ""))
    keep0 = pc.invert(pc.equal(arr, "")).to_numpy(zero_copy_only=False)
    arr = arr.filter(pa.array(keep0))
    grp = np.asarray(groups)[keep0] if groups is not None else None
    if len(arr) == 0:
        return PARSED_SCHEMA.empty_table()
    cont = pc.starts_with(arr, pattern="=").to_numpy(zero_copy_only=False)
    pos = np.arange(len(arr), dtype=np.int64)
    full_tbl, keep_full = _parse_warp10_full(arr.filter(pa.array(~cont)))
    if not cont.any():
        return full_tbl
    surv_full_orig = pos[~cont][keep_full]

    bodies = pc.utf8_slice_codeunits(
        arr.filter(pa.array(cont)), 1, np.iinfo(np.int32).max
    )
    cont_tbl, keep_cont = _parse_warp10_cont(bodies)
    cont_orig = pos[cont][keep_cont]
    j = np.searchsorted(surv_full_orig, cont_orig) - 1
    has_parent = j >= 0
    if grp is not None and has_parent.any():
        jj = np.clip(j, 0, None)
        same_group = grp[surv_full_orig[jj]] == grp[cont_orig]
        has_parent &= same_group
    if counters is not None:
        counters["orphan_continuation"] = counters.get(
            "orphan_continuation", 0
        ) + int((~has_parent).sum())
    cont_tbl = cont_tbl.filter(pa.array(has_parent))
    cont_orig = cont_orig[has_parent]
    parent = pa.array(j[has_parent])
    klass = full_tbl["class"].take(parent)
    labels = full_tbl["labels"].take(parent)
    cont_full = pa.table(
        {
            "ts": cont_tbl["ts"],
            "class": klass,
            "labels": labels,
            "value_str": cont_tbl["value_str"],
            "value": cont_tbl["value"],
            "line": _compose_line(
                cont_tbl["ts"], klass, labels, cont_tbl["value_str"]
            ),
        }
    )
    merged = pa.concat_tables([full_tbl, cont_full])
    order = np.argsort(
        np.concatenate([surv_full_orig, cont_orig]), kind="stable"
    )
    return merged.take(pa.array(order))
