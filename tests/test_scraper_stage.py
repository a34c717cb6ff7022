"""One scraper stage across every entry point, and the CLIs' Ray session.

The expected rows come from the oracle's row-at-a-time spec in the
reference's order (``src/scraper.rs:184-219``, ``src/router.rs:179-197``):
transcompile, drop empty lines, whitelist the transcompiled line, add
labels, remove labels, then the selector.
"""

from __future__ import annotations

import json
import re

import pytest

from beamium_ray import oracle
from beamium_ray.config import EngineConfig
from beamium_ray.pipelines.rollup_pipeline import DeriveParseRelabel
from beamium_ray.sources.tokens import make_chunk
from beamium_ray.stages.derive import DEFAULT_NOW_US, derive_lines_batch

NOW = DEFAULT_NOW_US
N = 2000

CONFIGS = {
    # the whitelist sees the line BEFORE dc=gra is added: only shard=3
    # matches
    "whitelist+labels": EngineConfig(
        labels="dc=gra", metrics_whitelist=["dc=gra", "shard=3"]
    ),
    # the whitelist sees shard BEFORE it is removed
    "whitelist+filtered": EngineConfig(
        filtered_labels=["shard"], metrics_whitelist=["shard=7"]
    ),
    "selector": EngineConfig(selector="seq\\.(web|code)"),
    "none": EngineConfig(),
}

_WARP10 = re.compile(r"^(-?\d+)// ([^{]*)\{(.*)\} (.*)$")


def _expected(lines: list[str], cfg: EngineConfig) -> list[tuple]:
    rows = []
    for line in lines:
        w = oracle.format_prometheus(line, NOW)
        if not w:
            continue
        if cfg.metrics_whitelist and not oracle.whitelist_match(
            w, cfg.metrics_whitelist
        ):
            continue
        w = oracle.remove_labels(
            oracle.add_labels(w, cfg.labels), cfg.filtered_labels
        )
        if cfg.selector is not None and not oracle.selector_match(w, cfg.selector):
            continue
        ts, klass, labels, value = _WARP10.match(w).groups()
        rows.append((int(ts), klass, labels, float(value)))
    return sorted(rows)


def _rows(t) -> list[tuple]:
    cols = [t[c].to_pylist() for c in ("ts", "class", "labels", "value")]
    return sorted(zip(*cols))


def _check_series_key(t) -> None:
    pairs = zip(t["class"].to_pylist(), t["labels"].to_pylist())
    assert t["series_key"].to_pylist() == [f"{c}{{{lb}}}" for c, lb in pairs]


@pytest.fixture(scope="module")
def sequences():
    batch = make_chunk(0, N)
    lines = derive_lines_batch(batch, NOW)["line"].to_pylist()
    return batch, lines


@pytest.mark.parametrize("name", list(CONFIGS))
def test_entry_points_match_reference_order(ray_session, tmp_path, sequences, name):
    import pyarrow as pa
    import ray.data

    from beamium_ray.pipelines.multi import scraper_pipeline
    from beamium_ray.pipelines.watch import metrics_datapoints

    cfg = CONFIGS[name]
    batch, lines = sequences
    want = _expected(lines, cfg)
    assert want, "every config keeps some rows"
    if name != "none":
        assert len(want) < len(_expected(lines, CONFIGS["none"]))

    for mode in ("lines", "columns"):
        got = DeriveParseRelabel(cfg, NOW, mode)(batch)
        assert _rows(got) == want, mode
        _check_series_key(got)

    spool = tmp_path / "spool.metrics"
    spool.write_text("\n".join(lines) + "\n")
    got = pa.concat_tables(
        metrics_datapoints([str(spool)], cfg, NOW).iter_batches(
            batch_format="pyarrow", batch_size=None
        )
    )
    assert _rows(got) == want
    _check_series_key(got)

    ds = ray.data.from_arrow(pa.table({"line": lines}))
    got = pa.concat_tables(
        scraper_pipeline(ds, cfg, NOW).iter_batches(
            batch_format="pyarrow", batch_size=None
        )
    )
    assert _rows(got) == want
    assert "series_key" not in got.column_names


def test_cli_main_keeps_callers_ray_session(ray_session, tmp_path, capsys):
    """A CLI's ``main()`` called in-process must not end the session
    it found already up."""
    import ray
    import ray.data

    from beamium_ray import query_cli
    from beamium_ray.pipelines.persist import rollup_to_blocks
    from beamium_ray.pipelines.rollup_pipeline import datapoints

    out = str(tmp_path / "store")
    cfg = EngineConfig(tiers={"1m": 60_000_000}, num_buckets=2)
    dp = datapoints(ray.data.from_arrow(make_chunk(0, 300)), cfg)
    rollup_to_blocks(dp, cfg, ["mem://cli-session"], out)

    assert query_cli.main(["--output", out, "--tier", "1m", "--limit", "3",
                           "--format", "json"]) == 0
    assert ray.is_initialized()
    assert len(json.loads(capsys.readouterr().out)) == 3
