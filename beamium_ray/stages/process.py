"""The scraper stage: one batch through the reference's ``process``
order (``src/scraper.rs:184-219``, then the selector of
``src/router.rs:179-197``; SURVEY.md §2.2 P8):

    P3 format dispatch → P1/P2 parse (P4 drops) → P5 whitelist on the
    transcompiled line → P6/P7 add/remove labels → P10 selector

Every entry point that turns lines into datapoints calls
:func:`process_batch`; the flagship's columns route, which derives
datapoints without text, runs the same P5→P10 tail through
:func:`scrape_tail`.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from beamium_ray.config import EngineConfig
from beamium_ray.stages.derive import DEFAULT_NOW_US
from beamium_ray.stages.filters import class_token, route_batch, whitelist_mask
from beamium_ray.stages.parse import _compose_line, parse_table, parse_warp10_batch
from beamium_ray.stages.relabel import relabel_batch


def process_batch(
    t: pa.Table,
    cfg: EngineConfig,
    now_us: int = DEFAULT_NOW_US,
    passthrough: list[str] | None = None,
    counters: dict | None = None,
) -> pa.Table:
    """A batch of raw ``line`` rows → datapoint rows, per ``cfg``.

    Prometheus lines are transcompiled (``passthrough`` columns ride
    along with the kept rows); Sensision lines are trimmed and decoded
    to the same columns (an engine extension: the rollup consumes
    columns), with '='-continuations inheriting their parent's class
    and labels before the relabel and never across a ``file_id``.
    Drops are tallied into ``counters`` when given."""
    if cfg.format == "prometheus":
        t = parse_table(t, now_us, "line", passthrough, counters)
    elif cfg.format == "sensision":
        groups = t["file_id"].to_numpy() if "file_id" in t.column_names else None
        t = parse_warp10_batch(t["line"], counters, groups)
    else:
        raise ValueError(f"unknown scraper format {cfg.format!r}")
    return scrape_tail(t, cfg)


def scrape_tail(t: pa.Table, cfg: EngineConfig) -> pa.Table:
    """P5 → P6/P7 → P10 on parsed datapoint rows. The whitelist matches
    the pre-relabel formatted line: the ``line`` column when the rows
    have one, else a line composed from the columns (only when a
    whitelist is set)."""
    if cfg.metrics_whitelist:
        if "line" in t.column_names:
            line = t["line"]
        else:
            line = _compose_line(
                t["ts"], t["class"], t["labels"], pc.cast(t["value"], pa.string())
            )
        t = t.filter(whitelist_mask(line, cfg.metrics_whitelist))
    if cfg.labels or cfg.filtered_labels:
        t = relabel_batch(t, add=cfg.labels, drop=cfg.filtered_labels)
    return route_batch(t, cfg.selector)


def with_series_key(t: pa.Table) -> pa.Table:
    """Append the rollup's ``series_key`` (``class{labels}``)."""
    return t.append_column("series_key", class_token(t))
