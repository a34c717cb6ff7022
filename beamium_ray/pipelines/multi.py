"""Multi-scraper → router → multi-sink topology (the reference's full
wiring, ``src/main.rs``: N named scrapers feed one router which
multicasts to M named sinks).

Ray-Data re-expression: each scraper is one map of the scraper stage
(format dispatch P3 → parse P1/P2 → whitelist P5 → scraper-scoped
relabel P6/P7 → selector P10), the branches union into one datapoint
stream, and ``write_routed`` applies the router's GLOBAL relabel (P9,
unconditional) and the per-sink anchored selectors (P10, multicast),
writing one partitioned parquet directory per sink (S5).

Per-sink knobs: ``dir`` overrides the sink's output directory;
``ttl_us`` drops datapoints older than (max ts − ttl) at the sink —
the batch analog of the reference DFO's age bound (src/conf.rs:
350-359; too-old buffered points are discarded, not sent).
``max_bytes`` has no batch analog (the DFO size bound caps a live
disk queue) and is rejected if set, rather than silently ignored.
"""

from __future__ import annotations

import pyarrow as pa

from beamium_ray.config import BeamiumConfig, EngineConfig
from beamium_ray.pipelines.route import write_routed
from beamium_ray.stages.derive import DEFAULT_NOW_US
from beamium_ray.stages.process import process_batch


def scraper_pipeline(lines_ds, scfg: EngineConfig, now_us: int = DEFAULT_NOW_US):
    """One scraper's line Dataset → datapoint Dataset: one map of the
    scraper stage (:func:`~beamium_ray.stages.process.process_batch`)
    over whole blocks."""
    return lines_ds.map_batches(
        process_batch,
        fn_kwargs={"cfg": scfg, "now_us": now_us},
        batch_format="pyarrow",
        batch_size=None,
    )


def run_beamium_config(
    cfg: BeamiumConfig,
    inputs: dict,
    out_dir: str,
    now_us: int = DEFAULT_NOW_US,
    materialize: bool = True,
) -> dict[str, str]:
    """Run the full scrapers→router→sinks topology.

    ``inputs``: scraper name → line Dataset (a ``line`` column, e.g.
    from ``read_metric_lines*``). Returns sink name → parquet dir.
    Every configured scraper needs an input; every sink receives the
    union of all scrapers' datapoints filtered by its selector.
    ``materialize`` (default True) pins the shared datapoint stream so
    M sinks don't re-execute the whole read+parse pipeline M times —
    the stream is the narrow datapoint projection, cheap to hold.
    """
    missing = set(cfg.scrapers) - set(inputs)
    if missing:
        raise ValueError(f"no input dataset for scrapers: {sorted(missing)}")
    for name, sk in cfg.sinks.items():
        if sk.max_bytes is not None:
            raise ValueError(
                f"sink {name!r}: max_bytes has no batch analog (the DFO "
                "size bound caps a live disk queue) — remove it"
            )
    branches = [
        scraper_pipeline(inputs[name], scfg, now_us)
        for name, scfg in cfg.scrapers.items()
    ]
    if not branches:
        raise ValueError("config defines no scrapers")
    all_dp = branches[0]
    for b in branches[1:]:
        all_dp = all_dp.union(b)
    if materialize:
        all_dp = all_dp.materialize()

    # sink TTL (DFO age bound): drop datapoints older than max ts − ttl
    ttls = {n: s.ttl_us for n, s in cfg.sinks.items() if s.ttl_us}
    watermark = None
    if ttls:
        watermark = all_dp.max("ts")

    paths: dict[str, str] = {}
    plain = {
        n: s.selector for n, s in cfg.sinks.items() if n not in ttls
        and not s.dir
    }
    if plain:
        paths.update(
            write_routed(all_dp, out_dir, plain, global_labels=cfg.labels)
        )
    import os

    import pyarrow.compute as pc

    from beamium_ray.pipelines.route import route_sinks

    for name, sk in cfg.sinks.items():
        if name in paths:
            continue
        ds = all_dp
        if sk.ttl_us and watermark is not None:
            # watermark is None when the unioned stream is empty (all
            # input lines junk) — nothing to TTL-filter then; the sink
            # still writes its (empty) output below
            cutoff = int(watermark) - int(sk.ttl_us)

            def keep(b: pa.Table, _c=cutoff) -> pa.Table:
                return b.filter(pc.greater_equal(b["ts"], _c))

            ds = ds.map_batches(keep, batch_format="pyarrow", batch_size=None)
        dest = sk.dir or os.path.join(out_dir, f"sink={name}")
        branch = route_sinks(ds, {name: sk.selector}, global_labels=cfg.labels)
        branch[name].write_parquet(dest, min_rows_per_file=500_000)
        paths[name] = dest
    return paths
