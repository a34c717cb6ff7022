"""Warp10 line parser round-trip + pruned block-read query path."""

from __future__ import annotations

import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from beamium_ray.stages.parse import parse_prometheus_batch, parse_warp10_batch

NOW = 1_484_828_198_557_102


def test_warp10_roundtrip_from_prometheus():
    lines = [
        'f{job_id="1 3"} 2.5 1000',
        "bare 42",
        'metric{a="1",b="2"} -7e3',
        "# dropped",
        "",
    ]
    p = parse_prometheus_batch(pa.array(lines), NOW)
    w = parse_warp10_batch(p["line"])
    assert w.num_rows == p.num_rows
    for col in ["ts", "class", "labels", "value_str", "value", "line"]:
        assert w[col].to_pylist() == p[col].to_pylist(), col


def test_warp10_malformed_dropped():
    w = parse_warp10_batch(pa.array(["garbage", "1// ok{} 2", "no braces// x 1"]))
    assert w["class"].to_pylist() == ["ok"]
    assert w["value"].to_pylist() == [2.0]
    # single slash, bad ts, missing space: all dropped (never null-ts
    # rows that would crash the rollup downstream)
    w2 = parse_warp10_batch(
        pa.array(
            [
                "123/abc{x=y} 4",     # no '// '
                "xx// m{a=b} 5",      # non-integer ts
                "12//m{a=b} 6",       # missing space after '//'
                "7// good{a=b} 8",
            ]
        )
    )
    assert w2["class"].to_pylist() == ["good"]
    assert w2["ts"].null_count == 0
    # malformed lines survive a full lines→rollup path without crashing
    from beamium_ray.stages.rollup import partial_rollup_batch

    t = w2.append_column(
        "series_key",
        pa.compute.binary_join_element_wise(w2["class"], "{", w2["labels"], "}", ""),
    )
    p = partial_rollup_batch(t, 60_000_000, num_buckets=2)
    assert p.num_rows == 1


def test_read_blocks_dataset_pruning(ray_session, tmp_path):
    import ray.data

    from beamium_ray.config import EngineConfig
    from beamium_ray.pipelines.persist import (
        read_blocks,
        read_blocks_dataset,
        rollup_to_blocks,
    )
    from beamium_ray.state.manifest import plan

    out = str(tmp_path / "blocks")
    rng = np.random.default_rng(9)
    n = 30000
    t = pa.table(
        {
            "series_key": pa.array(
                rng.choice([f"s{i}" for i in range(10)], n).tolist(), pa.string()
            ),
            "ts": pa.array(rng.integers(0, 10_000_000, n), pa.int64()),
            "value": pa.array(np.round(rng.normal(0, 5, n), 2), pa.float64()),
            "order": pa.array(np.arange(n), pa.int64()),
        }
    )
    cfg = EngineConfig(tiers={"1m": 60_000}, num_buckets=4, output_dir=out)
    rollup_to_blocks(ray.data.from_arrow(t).repartition(4), cfg, ["mem://x"], out)

    def rows(ds):
        return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))

    whole = read_blocks(out, "1m")
    assert len(plan(out, "1m")) == 4  # one block per bucket
    # decoded on the driver: one Ray block, whatever the plan's size
    assert read_blocks_dataset(out, "1m").materialize().num_blocks() == 1
    got = rows(read_blocks_dataset(out, "1m"))
    assert got.equals(whole)  # manifest order, row for row, no sort
    assert pc.sum(got["n"]).as_py() == n

    lo, hi = 1_200_000, 4_800_000
    sub = rows(read_blocks_dataset(out, "1m", min_window=lo, max_window=hi))
    ws = sub["window_start"].to_numpy()
    assert ws.min() >= lo and ws.max() <= hi
    want = whole.filter(
        pc.and_(
            pc.greater_equal(whole["window_start"], lo),
            pc.less_equal(whole["window_start"], hi),
        )
    )
    assert sub.equals(want)
    # fully-out-of-range prune reads nothing
    ds_none = read_blocks_dataset(out, "1m", min_window=10**15)
    assert sum(b.num_rows for b in ds_none.iter_batches(batch_format="pyarrow")) == 0
    shutil.rmtree(out, ignore_errors=True)


def test_sensision_lines_to_rollup(ray_session, tmp_path):
    """Full native-input pipeline: *.metrics Warp10 lines → parse →
    rollup (the reference's Sensision input feeding the new engine)."""
    import ray.data

    from beamium_ray.sources.lines import read_metric_lines
    from beamium_ray.stages.parse import parse_warp10_batch
    from beamium_ray.stages.rollup import rollup_dataset

    d = tmp_path / "w10"
    d.mkdir()
    lines = []
    for i in range(300):
        ts = 1_000_000 + i * 20_000
        lines.append(f"{ts}// cpu.load{{host=h{i % 3}}} {i % 7}.5")
    (d / "a.metrics").write_text("\n".join(lines[:150]) + "\n")
    (d / "b.metrics").write_text("\n".join(lines[150:]) + "\n")

    ds = read_metric_lines(str(d))
    parsed = ds.map_batches(
        lambda b: parse_warp10_batch(b["line"]).append_column(
            "series_key",
            pa.compute.binary_join_element_wise(
                parse_warp10_batch(b["line"])["class"], "{",
                parse_warp10_batch(b["line"])["labels"], "}", ""
            ),
        ),
        batch_format="pyarrow",
        batch_size=None,
    )
    rolled = rollup_dataset(
        parsed, {"1m": 60_000_000}, num_buckets=4, gapfill=False
    )
    rows = rolled.take_all()
    assert sum(r["n"] for r in rows) == 300
    assert {r["series_key"] for r in rows} == {
        "cpu.load{host=h0}", "cpu.load{host=h1}", "cpu.load{host=h2}"
    }


def test_warp10_continuation_inheritance():
    """'=ts// value' inherits class+labels from the nearest preceding
    surviving full line (Warp10 semantics; ref src/scraper.rs:210,239
    keeps continuations glued to their predecessor through batching)."""
    cnt: dict = {}
    w = parse_warp10_batch(
        pa.array(
            [
                "=5// 1.5",            # orphan: no predecessor → dropped
                "10// m.one{a=b} 1",
                "=11// 2",             # inherits m.one{a=b}
                "=12// 3",             # still m.one{a=b}
                "20// m.two{c=d} 4",
                "xx// junk{e=f} 9",    # full line dropped (bad ts)
                "=21// 5",             # inherits m.two (junk didn't survive)
                "=bogus// 6",          # malformed continuation → dropped
            ]
        ),
        counters=cnt,
    )
    rows = list(
        zip(
            w["ts"].to_pylist(),
            w["class"].to_pylist(),
            w["labels"].to_pylist(),
            w["value"].to_pylist(),
        )
    )
    assert rows == [
        (10, "m.one", "a=b", 1.0),
        (11, "m.one", "a=b", 2.0),
        (12, "m.one", "a=b", 3.0),
        (20, "m.two", "c=d", 4.0),
        (21, "m.two", "c=d", 5.0),
    ]
    assert cnt["orphan_continuation"] == 1


def test_warp10_19_digit_timestamps():
    """19-digit in-range i64 timestamps are kept exactly; out-of-range
    ones are dropped (ADVICE r1: the old fast path dropped ALL 19-digit
    tokens although up to 9223372036854775807 is a valid i64)."""
    w = parse_warp10_batch(
        pa.array(
            [
                "9223372036854775807// m{a=b} 1",   # i64::MAX → kept
                "9223372036854775808// m{a=b} 2",   # overflow → dropped
                "-9223372036854775808// m{a=b} 3",  # i64::MIN → kept
                "123// m{a=b} 4",
            ]
        )
    )
    assert w["ts"].to_pylist() == [
        9223372036854775807,
        -9223372036854775808,
        123,
    ]


def test_warp10_continuation_never_crosses_files(ray_session, tmp_path):
    """A continuation at the START of a file must be dropped as an
    orphan even when several whole files share one block — inheritance
    is scoped per file via the file_id groups column."""
    from beamium_ray.sources.lines import read_metric_lines_whole_files

    d = tmp_path / "src"
    d.mkdir()
    (d / "a-1.metrics").write_text("10// m.a{x=1} 1\n=11// 2\n")
    (d / "b-2.metrics").write_text("=99// 42\n20// m.b{y=2} 3\n=21// 4\n")
    ds = read_metric_lines_whole_files(str(d))

    def decode(b):
        return parse_warp10_batch(b["line"], groups=b["file_id"].to_numpy())

    rows = sorted(
        (
            (r["ts"], r["class"], r["labels"], r["value"])
            for r in ds.map_batches(
                decode, batch_format="pyarrow", batch_size=None
            ).take_all()
        )
    )
    # '=99// 42' is file b's first line: NO parent in ITS file → dropped
    assert rows == [
        (10, "m.a", "x=1", 1.0),
        (11, "m.a", "x=1", 2.0),
        (20, "m.b", "y=2", 3.0),
        (21, "m.b", "y=2", 4.0),
    ]


def test_whole_files_read_tasks_sized_by_bytes(ray_session, tmp_path):
    """A listed batch gets one read task per READ_TASK_BYTES of input,
    never more than one per file: large files are parsed one per task
    (Ray's default, ~1 MB of input per task but at least two per CPU,
    would pair some of these ten), while many small files share one
    task (the default would start eight)."""
    from beamium_ray.sources.lines import READ_TASK_BYTES, read_metric_lines_whole_files

    line = "10// m.a{x=1} 1\n"
    d = tmp_path / "spool"
    d.mkdir()
    big, small = [], []
    per_big = READ_TASK_BYTES * 6 // 5 // len(line)
    for i in range(10):
        p = d / f"big{i}.metrics"
        p.write_text(line * per_big)
        big.append(str(p))
    for i in range(40):
        p = d / f"small{i:02d}.metrics"
        p.write_text(line * 100)
        small.append(str(p))
    m = read_metric_lines_whole_files(big).materialize()
    assert m.num_blocks() == len(big)
    assert m.count() == len(big) * per_big
    m = read_metric_lines_whole_files(small).materialize()
    assert m.num_blocks() == 1
    assert m.count() == 40 * 100


def test_minhash_dedup_many_exact_dups_cap(ray_session):
    """60 identical docs: a pair collides in ALL 32 bands — the raw-pair
    cap must scale with bands, not assume 4 (code-review finding)."""
    import ray.data

    from beamium_ray.datapipe.dedup import minhash_dedup

    n = 60
    docs = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(["identical content body here"] * n),
        }
    )
    ds = ray.data.from_arrow(docs).repartition(2)
    labels = minhash_dedup(ds, verify_threshold=0.8, max_broadcast_pairs=2000)
    got = {r["doc_id"]: r["cluster"] for r in labels.take_all()}
    assert got == {i: 0 for i in range(n)}


def test_minhash_dedup_empty_input(ray_session):
    import ray.data

    from beamium_ray.datapipe.dedup import minhash_dedup

    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
    )
    for vt in (None, 0.8):
        out = minhash_dedup(ray.data.from_arrow(empty), verify_threshold=vt)
        assert out.count() == 0
