"""Flagship pipeline: derive-path equivalence + token invariant + e2e."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from beamium_ray.config import EngineConfig
from beamium_ray.pipelines.rollup_pipeline import (
    DeriveParseRelabel,
    flagship,
    sequences_from_documents_batch,
)
from beamium_ray.sources.tokens import make_chunk


def test_lines_and_columns_paths_agree():
    batch = make_chunk(0, 4000)
    cfg = EngineConfig(labels="env=prod,dc=gra", filtered_labels=["shard"])
    a = DeriveParseRelabel(cfg, mode="lines")(batch)
    b = DeriveParseRelabel(cfg, mode="columns")(batch)
    assert a.num_rows == b.num_rows
    for col in ["ts", "class", "labels", "value", "series_key", "order", "doc_id", "n_tok", "source"]:
        assert a[col].to_pylist() == b[col].to_pylist(), col
    assert a["tokens"].to_pylist() == b["tokens"].to_pylist()


def test_token_passthrough_invariant():
    batch = make_chunk(100, 3000)
    out = DeriveParseRelabel(EngineConfig(), mode="lines")(batch)
    # per-row token-array equality vs the INPUT row with the same doc_id
    inp = {d: t for d, t in zip(batch["doc_id"].to_pylist(), batch["tokens"].to_pylist())}
    for d, t in zip(out["doc_id"].to_pylist(), out["tokens"].to_pylist()):
        assert inp[d] == t
    # some rows were dropped (synthetic NaN/Inf fixtures)
    assert 0 < out.num_rows < batch.num_rows


def test_whitelist_and_selector_in_pipeline():
    batch = make_chunk(0, 2000)
    cfg = EngineConfig(metrics_whitelist=["seq\\.web"], selector="seq\\.(web|code)")
    out = DeriveParseRelabel(cfg, mode="columns")(batch)
    assert set(out["source"].to_pylist()) == {"web"}
    cfg2 = EngineConfig(selector="seq\\.(books|wiki)")
    out2 = DeriveParseRelabel(cfg2, mode="columns")(batch)
    assert set(out2["source"].to_pylist()) == {"books", "wiki"}


def test_sequences_from_documents():
    docs = pa.table({"doc_id": pa.array([0, 1, 5, 42], pa.int64())})
    seq = sequences_from_documents_batch(docs)
    canon = make_chunk(0, 43)
    idx = [0, 1, 5, 42]
    assert seq["doc_id"].to_pylist() == [canon["doc_id"][i].as_py() for i in idx]
    assert seq["n_tok"].to_pylist() == [canon["n_tok"][i].as_py() for i in idx]
    assert seq["tokens"].to_pylist() == [canon["tokens"][i].as_py() for i in idx]
    assert seq["source"].to_pylist() == [canon["source"][i].as_py() for i in idx]


def test_stage_metrics(ray_session):
    """The stage's counters, read from the counter actor, account for
    every input row and agree with what the derive/parse stage keeps."""
    import ray.data

    from beamium_ray.pipelines.rollup_pipeline import datapoints
    from beamium_ray.state.metrics import get_or_create, read_and_drop

    batch = make_chunk(0, 10000)
    name = "test-stage-metrics"
    actor = get_or_create(name)  # driver-owned; handle must stay live
    dp = datapoints(
        ray.data.from_arrow(batch).repartition(4),
        EngineConfig(),
        mode="lines",
        metrics_actor=name,
    )
    n_out = dp.count()
    m = read_and_drop(name)
    del actor
    assert m["rows_in"] == 10000
    assert m["rows_out"] == 10000 - m["inf_nan"] == n_out
    assert m["inf_nan"] > 0  # seeded 1/200 NaN/Inf fixtures present
    assert m["bad_class"] == 0 and m["no_value"] == 0
    # matches what the pipeline actually keeps
    out = DeriveParseRelabel(EngineConfig(), mode="lines")(batch)
    assert out.num_rows == m["rows_out"]


def test_flagship_e2e(ray_session):
    import ray.data

    batch = make_chunk(0, 20000)
    seq = ray.data.from_arrow(batch).repartition(8)
    cfg = EngineConfig(
        labels="env=prod",
        tiers={"1m": 60_000_000, "1h": 3_600_000_000},
        num_buckets=8,
    )
    dp, rolled = flagship(seq, cfg)
    rolled_t = pa.concat_tables(
        [b for b in rolled.iter_batches(batch_format="pyarrow")]
    )
    # every series key carries the added label, prepended
    keys = rolled_t["series_key"].to_pylist()
    assert keys and all(k.split("{")[1].startswith("env=prod,") for k in keys)
    # rolled sums per tier must agree (same points rolled at each tier)
    t1m = rolled_t.filter(pc.equal(rolled_t["tier"], "1m"))
    t1h = rolled_t.filter(pc.equal(rolled_t["tier"], "1h"))
    assert pc.sum(t1m["n"]).as_py() == pc.sum(t1h["n"]).as_py() > 0
    assert abs(pc.sum(t1m["vsum"]).as_py() - pc.sum(t1h["vsum"]).as_py()) < 1e-6
    # count matches the datapoint stream
    n_points = dp.count()
    assert pc.sum(t1m["n"]).as_py() == n_points


def test_metrics_actor_in_pipeline(ray_session):
    import ray
    import ray.data

    from beamium_ray.pipelines.rollup_pipeline import datapoints
    from beamium_ray.state.metrics import read_and_drop

    from beamium_ray.state.metrics import get_or_create

    batch = make_chunk(0, 12000)
    # the second config filters after the parse: rows_out counts what
    # the stage returns, not what the parse produced
    cfgs = (EngineConfig(), EngineConfig(metrics_whitelist=["shard=7"]))
    for i, cfg in enumerate(cfgs):
        name = f"test-metrics-actor-{i}"
        actor = get_or_create(name)  # driver-owned; handle must stay live
        dp = datapoints(
            ray.data.from_arrow(batch).repartition(4),
            cfg,
            mode="lines",
            metrics_actor=name,
        )
        n_out = dp.count()
        m = read_and_drop(name)
        assert m["rows_in"] == 12000
        assert m["rows_out"] == n_out > 0
        if not cfg.metrics_whitelist:
            assert m["inf_nan"] == 12000 - n_out > 0
        # actor is gone after read_and_drop
        assert read_and_drop(name) == {}
        del actor


def test_flagship_stage_metrics_reads_the_counter_actor(
    ray_session, tmp_path, monkeypatch
):
    """The gate's T5 entry reports the counter actor's totals — the
    numbers ``run`` prints — not a second counting pass."""
    import pyarrow.parquet as pq

    import beamium_ray.state.metrics as metrics
    from beamium_ray.queries import flagship_stage_metrics

    pq.write_table(
        pa.table({"doc_id": pa.array(np.arange(3000), pa.int64())}),
        tmp_path / "documents.parquet",
    )
    read = []
    real = metrics.read_and_drop
    monkeypatch.setattr(
        metrics, "read_and_drop", lambda name: read.append(real(name)) or read[-1]
    )
    row = flagship_stage_metrics(str(tmp_path)).to_pylist()
    assert len(read) == 1
    want = {k: read[0][k] for k in ("rows_in", "rows_out", "inf_nan")}
    assert row == [want]
    assert want["rows_in"] == 3000
    assert want["rows_out"] == 3000 - want["inf_nan"] and want["inf_nan"] > 0
