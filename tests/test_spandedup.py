"""Duplicate-span removal (ExactSubstr): rolling-hash kernel vs brute
force, keep-first/keep-none semantics, overlap unions, route equality,
and block-split invariance."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from beamium_ray.datapipe.spandedup import (
    _Q,
    _SPAN_SALT1,
    _SPAN_SALT2,
    apply_span_marks,
    remove_duplicate_spans,
    token_window_hashes_batch,
)
from beamium_ray.functions.hashing import splitmix64


def _tok_table(rows: list[list[int] | None], ids=None) -> pa.Table:
    if ids is None:
        ids = list(range(len(rows)))
    return pa.table(
        {
            "ord": pa.array(ids, pa.int64()),
            "tokens": pa.array(rows, pa.list_(pa.int32())),
        }
    )


def _naive_window_hashes(rows, w):
    """Reference implementation: the decontam-style w-round loop, per
    row, no prefix trick."""
    out = []
    for r, toks in enumerate(rows):
        toks = toks or []
        h1 = splitmix64(np.asarray(toks, np.uint64) ^ _SPAN_SALT1)
        h2 = splitmix64(np.asarray(toks, np.uint64) ^ _SPAN_SALT2)
        for p in range(len(toks) - w + 1):
            a1 = np.uint64(0)
            a2 = np.uint64(0)
            with np.errstate(over="ignore"):
                for k in range(w):
                    a1 = a1 * np.uint64(_Q) + h1[p + k]
                    a2 = a2 * np.uint64(_Q) + h2[p + k]
            out.append(
                (int(splitmix64(a1)), int(splitmix64(a2)), r, p)
            )
    return out


def test_window_hashes_match_bruteforce():
    rng = np.random.default_rng(7)
    rows = [
        rng.integers(0, 50257, size=n).tolist()
        for n in [0, 1, 7, 8, 9, 40, 13]
    ]
    rows.insert(3, None)  # null list emits nothing
    for w in (2, 8, 13):
        h1, h2, r, p = token_window_hashes_batch(
            _tok_table(rows), window=w
        )
        got = sorted(zip(h1.tolist(), h2.tolist(), r.tolist(), p.tolist()))
        want = sorted(_naive_window_hashes(rows, w))
        assert got == want


def test_equal_content_windows_hash_equal_across_rows():
    shared = list(range(100, 112))
    rows = [shared + [1, 2, 3], [9, 9] + shared]
    h1, h2, r, p = token_window_hashes_batch(_tok_table(rows), window=12)
    by_row = {(rr, pp): (a, b) for a, b, rr, pp in zip(h1, h2, r, p)}
    assert by_row[(0, 0)] == by_row[(1, 2)]
    assert by_row[(0, 0)] != by_row[(0, 1)]


def test_apply_span_marks_interval_union():
    # marks [2,2+8) and [6,6+8) on one row merge to [2,14)
    t = _tok_table([list(range(20))])
    out = apply_span_marks(
        t,
        np.array([0, 0], np.int64),
        np.array([2, 6], np.int64),
        "tokens", "ord", 8,
    )
    kept = out["tokens"][0].as_py()
    assert kept == [0, 1] + list(range(14, 20))
    assert out["n_removed"][0].as_py() == 12


def _run(ds_table, nblocks=1, **kw):
    import ray.data

    ds = ray.data.from_arrow(ds_table)
    if nblocks > 1:
        ds = ds.repartition(nblocks)
    out = remove_duplicate_spans(ds, window=8, **kw)
    t = pa.concat_tables(
        list(out.iter_batches(batch_format="pyarrow", batch_size=None)),
        promote_options="default",
    )
    o = {}
    for i in range(t.num_rows):
        o[t["ord"][i].as_py()] = (
            t["tokens"][i].as_py(),
            t["n_removed"][i].as_py(),
        )
    return o


@pytest.fixture()
def planted():
    """doc 0: source. doc 1: copies source[4:16] at interior positions
    [5:17]. doc 2: self-repeats its own first 10 tokens at [20:30].
    doc 3: short (< window) and unique. doc 4: unique."""
    rng = np.random.default_rng(11)
    base = rng.integers(1000, 50000, size=40).tolist()
    d0 = base
    d1 = (
        rng.integers(1000, 50000, size=5).tolist()
        + base[4:16]
        + rng.integers(1000, 50000, size=10).tolist()
    )
    head = rng.integers(1000, 50000, size=10).tolist()
    d2 = head + rng.integers(1000, 50000, size=10).tolist() + head
    d3 = [1, 2, 3]
    d4 = rng.integers(1000, 50000, size=25).tolist()
    return _tok_table([d0, d1, d2, d3, d4])


def test_keep_first_semantics(planted, ray_session):
    rows = {
        i: planted["tokens"][i].as_py() for i in range(planted.num_rows)
    }
    out = _run(planted)
    # source doc untouched
    assert out[0] == (rows[0], 0)
    # copier loses exactly the 12 copied tokens at [5, 17)
    assert out[1] == (rows[1][:5] + rows[1][17:], 12)
    # self-repeat: SECOND occurrence (pos 20..29) removed
    assert out[2] == (rows[2][:20], 10)
    assert out[3] == (rows[3], 0)
    assert out[4] == (rows[4], 0)


def test_keep_none_removes_all_copies(planted, ray_session):
    rows = {
        i: planted["tokens"][i].as_py() for i in range(planted.num_rows)
    }
    out = _run(planted, keep="none")
    # the shared span dies in BOTH source and copier
    assert out[0] == (rows[0][:4] + rows[0][16:], 12)
    assert out[1] == (rows[1][:5] + rows[1][17:], 12)
    # self-repeat: both occurrences die
    assert out[2] == (rows[2][10:20], 20)
    assert out[3] == (rows[3], 0)


def test_split_invariance_and_distributed_route(planted, ray_session):
    base = _run(planted)
    assert _run(planted, nblocks=4) == base
    assert _run(planted, nblocks=3, distributed=True) == base


def test_overlapping_sources_union(ray_session):
    """Doc 2 copies doc 0's span at [0,12) and doc 1's span at [12,24):
    two adjacent mark families from DIFFERENT sources; the union
    [0,24) is removed in one coverage pass."""
    rng = np.random.default_rng(3)
    a = rng.integers(1000, 50000, size=12).tolist()
    b = rng.integers(1000, 50000, size=12).tolist()
    tail = rng.integers(1000, 50000, size=10).tolist()
    d2 = a + b + tail  # a at [0,12), b at [12,24)
    t = _tok_table(
        [
            a + rng.integers(1000, 50000, size=10).tolist(),
            b + rng.integers(1000, 50000, size=10).tolist(),
            d2,
        ]
    )
    out = _run(t)
    assert out[2] == (tail, 24)
    assert out[0][1] == 0 and out[1][1] == 0


def test_null_and_empty_rows(ray_session):
    t = _tok_table([None, [], list(range(30)), list(range(30))], ids=[7, 8, 9, 10])
    out = _run(t)
    assert out[7] == ([], 0)  # null comes back empty (kernel contract)
    assert out[8] == ([], 0)
    assert out[9] == (list(range(30)), 0)  # first copy kept
    assert out[10] == ([], 30)  # exact dup fully removed


def test_metrics_recorded(planted, ray_session):
    import ray.data

    m: dict = {}
    remove_duplicate_spans(
        ray.data.from_arrow(planted), window=8, metrics=m
    ).materialize()
    # doc1 interior copy: 5 windows; doc2 self-repeat: 3 windows
    assert m["span_marks"] == 8
    assert m["span_route"] == "broadcast"


def test_run_clean_span_dedup_stage(ray_session, tmp_path):
    """span_dedup clean stage: runs over a pre-tokenized input, rewrites
    tokens/n_tok and appends n_removed; the duplicated prefix dies in
    the copier only (keep='first' default ordering by id)."""
    import pyarrow.parquet as pq_

    from beamium_ray.pipelines.clean import CleanConfig, run_clean

    rng = np.random.default_rng(5)
    a = rng.integers(1000, 50000, size=30).tolist()
    b = rng.integers(1000, 50000, size=20).tolist()
    src = tmp_path / "in"
    src.mkdir()
    pq_.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "tokens": pa.array([a, a[:12] + b], pa.list_(pa.int32())),
                "n_tok": pa.array([30, 32], pa.int32()),
            }
        ),
        src / "d.parquet",
    )
    out = tmp_path / "out"
    res = run_clean(
        CleanConfig(
            input=str(src),
            output=str(out),
            stages=[{"span_dedup": {"window": 8}}],
        )
    )
    assert res["rows_out"] == 2
    got = pq_.read_table(str(out)).sort_by("doc_id")
    assert got["tokens"].to_pylist() == [a, b]
    assert got["n_tok"].to_pylist() == [30, 20]
    assert got["n_removed"].to_pylist() == [0, 12]


def _seq_ds(rows, ids):
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "tokens": pa.array(rows, pa.list_(pa.int32())),
            }
        )
    )


def _collect(ds):
    t = pa.concat_tables(
        list(ds.iter_batches(batch_format="pyarrow", batch_size=None)),
        promote_options="default",
    )
    return {
        t["doc_id"][i].as_py(): (
            t["tokens"][i].as_py(),
            t["n_removed"][i].as_py(),
        )
        for i in range(t.num_rows)
    }


def test_incremental_span_dedup_cross_tick(ray_session, tmp_path):
    """Tick-2 copies of tick-1 committed content die without
    re-hashing tick 1; union of tick outputs == one-shot over the
    union (later ticks carry larger ids)."""
    from beamium_ray.datapipe.incdedup import IncrementalSpanDedup

    rng = np.random.default_rng(21)
    a = rng.integers(1000, 50000, size=30).tolist()
    b = rng.integers(1000, 50000, size=30).tolist()
    t1_rows = [a, b]  # ids 0, 1
    # id 2: copies a's prefix (cross-tick dup); id 3: fresh; id 4:
    # copies id 3's prefix (within-tick dup)
    c = rng.integers(1000, 50000, size=30).tolist()
    t2_rows = [
        a[:12] + rng.integers(1000, 50000, size=10).tolist(),
        c,
        c[:15] + rng.integers(1000, 50000, size=8).tolist(),
    ]
    inc = IncrementalSpanDedup(
        str(tmp_path / "store"), window=8, id_col="doc_id"
    )
    out1 = _collect(inc.tick(_seq_ds(t1_rows, [0, 1]), batch_key="t1"))
    out2 = _collect(inc.tick(_seq_ds(t2_rows, [2, 3, 4]), batch_key="t2"))
    assert out1[0] == (a, 0) and out1[1] == (b, 0)
    assert out2[2] == (t2_rows[0][12:], 12)  # committed prefix died
    assert out2[3] == (c, 0)
    assert out2[4] == (t2_rows[2][15:], 15)  # within-tick dup died
    # equivalence with one-shot over the union
    one = _run(
        pa.table(
            {
                "ord": pa.array([0, 1, 2, 3, 4], pa.int64()),
                "tokens": pa.array(
                    t1_rows + t2_rows, pa.list_(pa.int32())
                ),
            }
        )
    )
    both = {**out1, **out2}
    assert {k: v for k, v in one.items()} == both


def test_incremental_span_dedup_replay_and_store_growth(
    ray_session, tmp_path
):
    """A committed batch_key replays byte-identically without
    advancing the store; re-feeding committed CONTENT adds no store
    rows (O(distinct windows) forever)."""
    import glob
    import json as _json

    from beamium_ray.datapipe.incdedup import IncrementalSpanDedup

    rng = np.random.default_rng(9)
    a = rng.integers(1000, 50000, size=25).tolist()
    store = str(tmp_path / "store")
    inc = IncrementalSpanDedup(store, window=8, id_col="doc_id")
    out1 = _collect(inc.tick(_seq_ds([a], [0]), batch_key="k1"))
    files1 = sorted(glob.glob(f"{store}/windows/bkt=*/*.parquet"))
    man1 = _json.load(open(f"{store}/windows/MANIFEST.json"))
    # replay: same key → same output, store untouched
    rep = _collect(inc.tick(_seq_ds([a], [0]), batch_key="k1"))
    assert rep == out1
    assert sorted(glob.glob(f"{store}/windows/bkt=*/*.parquet")) == files1
    assert _json.load(open(f"{store}/windows/MANIFEST.json")) == man1
    # a NEW batch with already-committed content: output strips it all,
    # and the store gains NO new window rows (tick-2 files exist but
    # hold zero fresh windows)
    import pyarrow.parquet as pq_

    out2 = _collect(inc.tick(_seq_ds([a], [7]), batch_key="k2"))
    assert out2[7] == ([], 25)
    n1 = sum(pq_.read_table(f).num_rows for f in files1)
    files2 = sorted(glob.glob(f"{store}/windows/bkt=*/*.parquet"))
    n2 = sum(pq_.read_table(f).num_rows for f in files2)
    assert n2 == n1


def test_empty_tick_keeps_output_schema(ray_session, tmp_path):
    """An empty tick returns the same schema as non-empty ticks
    (n_removed present) so watch loops can union tick outputs."""
    from beamium_ray.datapipe.incdedup import IncrementalSpanDedup

    inc = IncrementalSpanDedup(
        str(tmp_path / "store"), window=8, id_col="doc_id"
    )
    full = inc.tick(_seq_ds([[1] * 10], [0]), batch_key="a")
    empty = inc.tick(_seq_ds([], []), batch_key="b")
    assert empty.count() == 0
    assert sorted(empty.schema().names) == sorted(full.schema().names)
    full.union(empty).materialize()  # must not schema-mismatch


def test_n_tok_dtype_preserved(ray_session):
    """apply_span_marks keeps the input n_tok dtype (int64 stays
    int64) on both routes — no silent retype, no mixed blocks."""
    t = pa.table(
        {
            "ord": pa.array([0, 1], pa.int64()),
            "tokens": pa.array(
                [list(range(20)), list(range(20))], pa.list_(pa.int32())
            ),
            "n_tok": pa.array([20, 20], pa.int64()),
        }
    )
    import ray.data

    for dist in (False, True):
        out = remove_duplicate_spans(
            ray.data.from_arrow(t), window=8, distributed=dist
        )
        sch = out.schema()
        assert dict(zip(sch.names, sch.types))["n_tok"] == pa.int64()


def test_directory_watcher_incremental_span_dedup(ray_session, tmp_path):
    """DirectoryWatcher with a span-dedup appender: parquet sequence
    files landing across ticks are cleaned against the committed
    window store and written per tick; a replayed pending batch
    recomputes byte-identically (batch_key + excluded own-tick store
    files)."""
    import hashlib

    import pyarrow.parquet as pq_

    import ray.data

    from beamium_ray.datapipe.incdedup import IncrementalSpanDedup
    from beamium_ray.pipelines.watch import DirectoryWatcher

    landing = tmp_path / "landing"
    landing.mkdir()
    out = tmp_path / "out"
    cleaned_root = out / "cleaned"
    inc = IncrementalSpanDedup(
        str(out / "span_store"), window=8, id_col="doc_id"
    )

    def appender(ds, files):
        key = hashlib.sha256(
            "\n".join(sorted(files)).encode()
        ).hexdigest()
        cleaned = inc.tick(ds, batch_key=key)
        # deterministic per-batch output dir; Ray's write_parquet
        # APPENDS uniquely-named files, so a replay must sweep the
        # batch dir first (per-batch dirs make that safe — only this
        # batch's rows die, the resumable-output contract)
        d = cleaned_root / key[:12]
        if d.exists():
            import shutil

            shutil.rmtree(d)
        cleaned.write_parquet(str(d))
        return {"batch": key}

    w = DirectoryWatcher(
        str(landing), None, str(out), file_extension="parquet",
        loader=ray.data.read_parquet, appender=appender,
    )

    rng = np.random.default_rng(31)
    a = rng.integers(1000, 50000, size=30).tolist()
    b = rng.integers(1000, 50000, size=30).tolist()

    def land(name, ids, rows):
        pq_.write_table(
            pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "tokens": pa.array(rows, pa.list_(pa.int32())),
                }
            ),
            landing / name,
        )

    land("t1.parquet", [0, 1], [a, b])
    w.tick()
    land("t2.parquet", [5], [a[:14] + rng.integers(1000, 50000, size=9).tolist()])
    r2 = w.tick()

    dirs = sorted(cleaned_root.iterdir())
    assert len(dirs) == 2
    got = pq_.read_table(str(cleaned_root)).sort_by("doc_id")
    assert got["doc_id"].to_pylist() == [0, 1, 5]
    assert got["n_removed"].to_pylist() == [0, 0, 14]
    # committed prefix of `a` stripped from the tick-2 doc
    assert len(got["tokens"].to_pylist()[2]) == 9

    # crash replay of tick 2: pending restored → appender reruns with
    # the same batch_key and overwrites the same cleaned files
    st = w._load_state()
    st["pending"] = {"files": r2["applied"]}
    st["seen"] = [f for f in st["seen"] if f not in r2["applied"]]
    w._save_state(st)
    w.tick()
    got2 = pq_.read_table(str(cleaned_root)).sort_by("doc_id")
    assert got2["tokens"].to_pylist() == got["tokens"].to_pylist()
    assert got2["n_removed"].to_pylist() == got["n_removed"].to_pylist()
