"""Store lifecycle (retention + compaction) for the incremental
family — VERDICT r4 item 2: the durable band/doc/hash/cell/window/rate
stores must be boundable (reference sink TTL/size-cap semantics,
src/sink.rs:102-221) and ticks after a sweep must behave exactly as if
the store had only ever contained the retained ticks."""

from __future__ import annotations

import os
import re

import numpy as np
import pytest
import pyarrow as pa
import pyarrow.parquet as pq

from beamium_ray.datapipe.incdedup import IncrementalMinHashDedup
from beamium_ray.state import storegc

from tests.test_incdedup import _assign_dict, _doc, _ds


# ---------------- storegc unit semantics ----------------


def test_parse_ticks_names():
    assert storegc.parse_ticks("tick-00007.parquet") == (7, 7)
    assert storegc.parse_ticks("compact-00002-00009.parquet") == (2, 9)
    assert storegc.parse_ticks("MANIFEST.json") is None
    assert storegc.parse_ticks("tick-00007.parquet.tmp.123") is None


def _fake_files(spec):
    """spec: list of (tick, mtime, size) → scan-shaped dicts."""
    return [
        {"path": f"/x/tick-{t:05d}.parquet", "lo": t, "hi": t,
         "mtime": m, "size": s}
        for t, m, s in spec
    ]


def test_select_expired_tick_age_and_size_cap():
    files = _fake_files([(1, 10.0, 100), (2, 20.0, 100), (3, 30.0, 100)])
    # tick-age TTL: current=3, max_ticks=2 → tick 1 (age 2) expires
    drop = storegc.select_expired(files, 3, max_ticks=2)
    assert sorted(f["hi"] for f in drop) == [1]
    # wall-clock TTL with injected now
    drop = storegc.select_expired(files, 3, ttl_seconds=15.0, now=40.0)
    assert sorted(f["hi"] for f in drop) == [1, 2]
    # size cap drops OLDEST surviving ticks until it fits
    drop = storegc.select_expired(files, 3, max_bytes=150)
    assert sorted(f["hi"] for f in drop) == [1, 2]
    assert storegc.select_expired(files, 3, max_bytes=500) == []


def test_select_expired_is_tick_granular():
    # one tick spans two subdirs (bands + docs); if either file's
    # evidence expires, BOTH are deleted together
    files = [
        {"path": "/x/bands/bkt=0/tick-00001.parquet", "lo": 1, "hi": 1,
         "mtime": 10.0, "size": 50},
        {"path": "/x/docs/bkt=0/tick-00001.parquet", "lo": 1, "hi": 1,
         "mtime": 99.0, "size": 50},  # newest evidence wins (no expiry)
    ]
    assert storegc.select_expired(files, 5, ttl_seconds=50.0, now=100.0) == []
    got = storegc.select_expired(files, 5, max_ticks=2)
    assert len(got) == 2  # tick-age expiry takes the whole tick


# ---------------- minhash store retention ----------------


def _three_tick_store(path: str, cls_kwargs=None) -> IncrementalMinHashDedup:
    inc = IncrementalMinHashDedup(path, threshold=0.8, **(cls_kwargs or {}))
    inc.tick(_ds([(1, _doc(1)), (2, _doc(2))]))
    inc.tick(_ds([(3, _doc(3)), (4, _doc(4))]))
    inc.tick(_ds([(5, _doc(5)), (6, _doc(6))]))
    return inc


def test_minhash_retention_drops_expired_partitions(ray_session, tmp_path):
    inc = _three_tick_store(str(tmp_path / "idx"))
    stats = inc.retention(max_ticks=2)  # current tick 3 → tick 1 expires
    assert stats["ticks_dropped"] == [1]
    assert stats["files_deleted"] > 0 and stats["ids_pruned"] == 2
    # no tick-1 files anywhere in the store subdirs
    for root, _, fs in os.walk(tmp_path / "idx"):
        for f in fs:
            assert storegc.parse_ticks(f) != (1, 1), os.path.join(root, f)
    # assignment table pruned through the manifest-pointer switch
    a = _assign_dict(inc.assignments())
    assert set(a) == {3, 4, 5, 6}

    # fresh data behaves EXACTLY as if the store never held tick 1:
    # a dup of a retained doc still clusters; a dup of an expired doc
    # founds a new cluster (its dedup memory is gone)
    out = _assign_dict(inc.tick(_ds([(10, _doc(5)), (11, _doc(1))])))
    assert out[10] == 5  # retained partner found
    assert out[11] == 11  # expired partner forgotten
    assert set(out) == {3, 4, 5, 6, 10, 11}


def test_minhash_retention_size_cap(ray_session, tmp_path):
    inc = _three_tick_store(str(tmp_path / "idx"))
    files = storegc.scan(
        [str(tmp_path / "idx" / s) for s in ("bands", "docs")]
    )
    per_tick = {}
    for f in files:
        per_tick[f["hi"]] = per_tick.get(f["hi"], 0) + f["size"]
    # cap that fits only the newest tick → ticks 1 and 2 drop
    stats = inc.retention(max_bytes=per_tick[3])
    assert stats["ticks_dropped"] == [1, 2]
    assert set(_assign_dict(inc.assignments())) == {5, 6}


def test_retention_pruning_all_rows_does_not_wedge_store(
    ray_session, tmp_path
):
    """A sweep that expires EVERY committed tick prunes every
    assignment row; write_parquet of a zero-row Dataset writes no
    files, so the generation must be seeded with an empty same-schema
    file — otherwise the manifest points at a parquet-less dir and
    every later assignments()/tick() raises (a durably wedged store)."""
    inc = _three_tick_store(str(tmp_path / "idx"))
    stats = inc.retention(max_ticks=0)  # expire everything
    assert stats["ticks_dropped"] == [1, 2, 3]
    # the store still reads: empty assignments, not a read error
    a = inc.assignments()
    assert a is not None and a.count() == 0
    # and it still ticks: fresh data founds fresh clusters
    out = _assign_dict(inc.tick(_ds([(20, _doc(1)), (21, _doc(1))])))
    assert out == {20: 20, 21: 20}


def test_minhash_compaction_preserves_tick_results(ray_session, tmp_path):
    plain = _three_tick_store(str(tmp_path / "plain"))
    comp = _three_tick_store(str(tmp_path / "comp"))
    assert comp.compact() > 0
    # every store partition now holds exactly one file
    for sub in ("bands", "docs"):
        root = tmp_path / "comp" / sub
        for part in os.listdir(root):
            fs = [f for f in os.listdir(root / part)
                  if storegc.parse_ticks(f)]
            assert len(fs) == 1, (part, fs)
    batch = _ds([(10, _doc(3)), (11, _doc(11))])
    want = _assign_dict(plain.tick(batch))
    got = _assign_dict(comp.tick(batch))
    assert got == want and got[10] == 3


def test_compact_dir_heals_crash_duplicates(tmp_path):
    d = tmp_path / "bkt=0"
    os.makedirs(d)
    t = pa.table({"h": pa.array([1, 2], pa.int64())})
    pq.write_table(t, d / "tick-00001.parquet")
    pq.write_table(t, d / "tick-00002.parquet")  # same rows (crash dup)
    storegc.compact_dir(str(d))
    # a leftover input re-appearing (crash between rename and deletes)
    pq.write_table(t, d / "tick-00002.parquet")
    storegc.compact_dir(str(d))
    out = pq.read_table(d / "compact-00001-00002.parquet")
    assert sorted(out["h"].to_pylist()) == [1, 2]  # distinct, healed


def test_compact_dir_string_keys_and_tmp_sweep(tmp_path):
    """key_cols compaction must work for STRING key columns (np.unique
    axis=0 rejects object arrays — keys are dictionary-coded first),
    and a crashed compaction's .tmp.<pid> orphan is swept instead of
    sitting invisible to the size cap forever."""
    d = tmp_path / "bkt=0"
    os.makedirs(d)
    t1 = pa.table(
        {
            "doc_key": pa.array(["a", "b"], pa.string()),
            "payload": pa.array([1, 2], pa.int64()),
        }
    )
    t2 = pa.table(
        {
            "doc_key": pa.array(["b", "c"], pa.string()),
            "payload": pa.array([9, 3], pa.int64()),
        }
    )
    pq.write_table(t1, d / "tick-00001.parquet")
    pq.write_table(t2, d / "tick-00002.parquet")
    # crashed prior compaction leftover
    orphan = d / "compact-00001-00001.parquet.tmp.999"
    pq.write_table(t1, orphan)

    assert storegc.compact_dir(str(d), key_cols=["doc_key"]) == 2
    assert not orphan.exists()
    out = pq.read_table(d / "compact-00001-00002.parquet")
    got = dict(zip(out["doc_key"].to_pylist(), out["payload"].to_pylist()))
    assert got == {"a": 1, "b": 2, "c": 3}  # first copy per key kept


# ---------------- exact + semantic stores ----------------


def test_exact_retention_and_fresh_tick(ray_session, tmp_path):
    from beamium_ray.datapipe.incdedup import IncrementalExactDedup

    inc = IncrementalExactDedup(str(tmp_path / "ex"))
    inc.tick(_ds([(1, "alpha"), (2, "beta")]))
    inc.tick(_ds([(3, "gamma")]))
    stats = inc.retention(max_ticks=1)  # tick 1 expires
    assert stats["ticks_dropped"] == [1] and stats["ids_pruned"] == 2
    out = _assign_dict(inc.tick(_ds([(7, "alpha"), (8, "gamma")])))
    assert out[7] == 7  # expired text forgotten
    assert out[8] == 3  # retained text still dedups
    assert set(out) == {3, 7, 8}


def test_semantic_retention_and_compaction(ray_session, tmp_path):
    import ray.data

    from beamium_ray.datapipe.incdedup import IncrementalSemanticDedup

    def vecs(rows):
        return ray.data.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array([r[0] for r in rows], pa.int64()),
                    "embedding": pa.array(
                        [r[1] for r in rows], pa.list_(pa.float32())
                    ),
                }
            )
        )

    rng = np.random.default_rng(7)
    base = {i: (rng.standard_normal(16) * 0.5 + i).astype(np.float32)
            for i in range(1, 5)}
    inc = IncrementalSemanticDedup(
        str(tmp_path / "sem"), threshold=0.999, n_clusters=2
    )
    inc.tick(vecs([(1, base[1]), (2, base[2])]))
    inc.tick(vecs([(3, base[3]), (4, base[4])]))
    stats = inc.retention(max_ticks=1)
    assert stats["ticks_dropped"] == [1] and stats["ids_pruned"] == 2
    assert set(_assign_dict(inc.assignments())) == {3, 4}
    assert inc.compact() >= 0  # compaction tolerates the pruned store
    # dup of retained vec clusters; dup of expired vec founds its own
    out = _assign_dict(inc.tick(vecs([(9, base[3]), (10, base[1])])))
    assert out[9] == 3 and out[10] == 10


# ---------------- span window store ----------------


def test_span_retention_and_compaction(ray_session, tmp_path):
    import ray.data

    from beamium_ray.datapipe.incdedup import IncrementalSpanDedup

    def toks(rows):
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                    "tokens": pa.array(
                        [r[1] for r in rows], pa.list_(pa.int32())
                    ),
                }
            )
        )

    rng = np.random.default_rng(3)
    seq_a = rng.integers(0, 1000, 80).tolist()
    seq_b = rng.integers(0, 1000, 80).tolist()
    inc = IncrementalSpanDedup(str(tmp_path / "span"), window=50)
    inc.tick(toks([(1, seq_a)]))
    inc.tick(toks([(2, seq_b)]))
    assert inc.compact() >= 0
    stats = inc.retention(max_ticks=1)  # tick 1's windows expire...
    # ...unless compaction already merged them into a hi=2 file, in
    # which case nothing is old enough — both are legal; what matters
    # is the behavior contract below
    # a doc repeating seq_b (retained) gets its span marked
    out2 = inc.tick(toks([(20, seq_b)]))
    t = pa.concat_tables(
        list(out2.iter_batches(batch_format="pyarrow", batch_size=None))
    )
    row = {r["doc_id"]: r for r in t.to_pylist()}
    assert len(row[20]["tokens"]) < len(seq_b)  # dup span removed
    assert stats["files_deleted"] >= 0


def test_span_retention_forgets_expired_windows(ray_session, tmp_path):
    import ray.data

    from beamium_ray.datapipe.incdedup import IncrementalSpanDedup

    def toks(rows):
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                    "tokens": pa.array(
                        [r[1] for r in rows], pa.list_(pa.int32())
                    ),
                }
            )
        )

    rng = np.random.default_rng(5)
    seq_a = rng.integers(0, 1000, 80).tolist()
    inc = IncrementalSpanDedup(str(tmp_path / "span"), window=50)
    inc.tick(toks([(1, seq_a)]))
    inc.tick(toks([(2, rng.integers(0, 1000, 80).tolist())]))
    inc.retention(max_ticks=1)  # tick 1 (seq_a's windows) expires
    out = inc.tick(toks([(30, seq_a)]))
    t = pa.concat_tables(
        list(out.iter_batches(batch_format="pyarrow", batch_size=None))
    )
    row = {r["doc_id"]: r for r in t.to_pylist()}
    assert len(row[30]["tokens"]) == len(seq_a)  # memory of seq_a gone


# ---------------- rate last-point store ----------------


def test_rate_retention_prunes_dead_series(ray_session, tmp_path):
    import ray.data

    from beamium_ray.stages.rate import IncrementalRate

    M = 60_000_000  # 1 minute in µs

    def pts(rows):
        return ray.data.from_arrow(
            pa.table(
                {
                    "series_key": pa.array([r[0] for r in rows]),
                    "ts": pa.array([r[1] for r in rows], pa.int64()),
                    "value": pa.array([r[2] for r in rows], pa.int64()),
                    "order": pa.array(
                        list(range(len(rows))), pa.int64()
                    ),
                }
            )
        )

    inc = IncrementalRate(str(tmp_path / "rate"), {"1m": M})
    inc.tick(pts([("live", 0, 10), ("dead", 0, 5)]))
    inc.tick(pts([("live", 2 * M, 30)]))  # dead goes silent
    stats = inc.retention(max_age_us=M, now_us=3 * M)
    assert stats["series_pruned"] == 1
    keys = set()
    for b in inc.state_points().iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        keys.update(b["series_key"].to_pylist())
    assert keys == {"live"}
    # live series' delta chain continues across the sweep; the revived
    # dead series starts a FRESH chain (first point = no delta)
    out = inc.tick(pts([("live", 4 * M, 50), ("dead", 4 * M, 100)]))
    t = pa.concat_tables(
        list(out.iter_batches(batch_format="pyarrow", batch_size=None))
    )
    inc_by_key = {}
    for r in t.to_pylist():
        inc_by_key[r["series_key"]] = (
            inc_by_key.get(r["series_key"], 0) + r["increase"]
        )
    assert inc_by_key.get("live") == 20  # 50 - 30 survives the sweep
    assert "dead" not in inc_by_key or inc_by_key["dead"] == 0


def test_select_expired_range_coupling_after_compaction():
    """Misaligned compact ranges (a docs partition that only ever saw
    ticks 1-2 vs a bands partition compacted through tick 5) must
    expire TOGETHER: per-hi expiry would drop the docs file while the
    same ticks' band rows survive inside the younger bands compact —
    index kept, payload gone, exactly what tick-coupling forbids."""
    files = [
        {"path": "/x/docs/bkt=3/compact-00001-00002.parquet", "lo": 1,
         "hi": 2, "mtime": 10.0, "size": 100},
        {"path": "/x/bands/bkt=7/compact-00001-00005.parquet", "lo": 1,
         "hi": 5, "mtime": 50.0, "size": 100},
    ]
    # ticks 1-2 are past max_ticks but share a group with tick 5 → keep
    assert storegc.select_expired(files, 5, max_ticks=3) == []
    # once the WHOLE group ages out, both files go together
    drop = storegc.select_expired(files, 9, max_ticks=3)
    assert sorted(f["path"] for f in drop) == sorted(
        f["path"] for f in files
    )
    # non-intersecting ranges stay independent groups
    files2 = _fake_files([(1, 10.0, 100)]) + [
        {"path": "/x/bands/bkt=0/compact-00002-00005.parquet", "lo": 2,
         "hi": 5, "mtime": 50.0, "size": 100}
    ]
    drop = storegc.select_expired(files2, 5, max_ticks=3)
    assert [f["hi"] for f in drop] == [1]
    # size cap evicts whole oldest GROUPS, never part of one
    drop = storegc.select_expired(files, 5, max_bytes=150)
    assert sorted(f["path"] for f in drop) == sorted(
        f["path"] for f in files
    )


def test_compact_dir_max_hi_excludes_newer_ticks(tmp_path):
    d = tmp_path / "bkt=0"
    os.makedirs(d)
    for t in (1, 2, 3):
        pq.write_table(
            pa.table({"h": pa.array([t], pa.int64())}),
            str(d / f"tick-{t:05d}.parquet"),
        )
    assert storegc.compact_dir(str(d), max_hi=2) == 2
    names = sorted(os.listdir(d))
    assert names == ["compact-00001-00002.parquet", "tick-00003.parquet"]
    # a single eligible file is left alone (nothing to merge)
    assert storegc.compact_dir(str(d), max_hi=2) == 0


def test_span_replay_after_compaction_is_identical(ray_session, tmp_path):
    """Replay of the committed tick after compact() must still see
    every EARLIER tick's windows: compact() is bounded to tick-1, so
    the strictly-before-tick read can't lose ticks lo..hi-1 to a
    compact file that includes the replayed tick itself."""
    import ray.data

    from beamium_ray.datapipe.incdedup import IncrementalSpanDedup

    def toks(rows):
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                    "tokens": pa.array(
                        [r[1] for r in rows], pa.list_(pa.int32())
                    ),
                }
            )
        )

    def collect(out):
        t = pa.concat_tables(
            list(out.iter_batches(batch_format="pyarrow", batch_size=None))
        )
        return sorted(t.to_pylist(), key=lambda r: r["doc_id"])

    rng = np.random.default_rng(7)
    seq_a = rng.integers(0, 1000, 80).tolist()
    seq_b = rng.integers(0, 1000, 80).tolist()
    store = str(tmp_path / "span")
    inc = IncrementalSpanDedup(store, window=50, num_buckets=4)
    inc.tick(toks([(1, seq_a)]), batch_key="a")
    # tick 2 repeats tick 1's seq_a → its spans come from tick-1 windows
    out2 = collect(inc.tick(toks([(2, seq_a), (3, seq_b)]), batch_key="b"))
    assert len(out2[0]["tokens"]) < len(seq_a)  # dup vs tick 1 marked

    # compact, then REPLAY tick 2 (same batch_key): byte-identical
    assert inc.compact() >= 0
    wroot = os.path.join(store, "windows")
    names = {
        f for b in os.listdir(wroot)
        if os.path.isdir(os.path.join(wroot, b))
        for f in os.listdir(os.path.join(wroot, b))
    }
    # tick 2 (the committed tick) must NOT be inside any compact file
    assert all(storegc.parse_ticks(n)[1] != 2 or n.startswith("tick-")
               for n in names if storegc.parse_ticks(n))
    replay = collect(inc.tick(toks([(2, seq_a), (3, seq_b)]), batch_key="b"))
    assert replay == out2


# ---------------- the tick store (no Ray) ----------------


def _part_table(tick: int) -> pa.Table:
    return pa.table({"v": pa.array([tick, tick + 100], pa.int64())})


def test_tick_store_read_excludes_the_reading_tick(tmp_path):
    st = storegc.TickStore(str(tmp_path), "meta", {"x": "bkt"})
    for t in (1, 2, 3):
        for b in (0, 5):
            st.write("x", b, t, _part_table(t))
    sch = pa.schema([("v", pa.int64())])
    # a replay of tick 3 (or a crashed tick 3's files) is not committed
    # state for tick 3 itself
    got = st.read("x", {0, 5}, 3, sch)
    assert sorted(got["v"].to_pylist()) == [1, 1, 2, 2, 101, 101, 102, 102]
    assert [os.path.basename(p) for p in st.files("x", {5}, 2)] == [
        "tick-00001.parquet"
    ]
    # a compact file counts as its newest tick; partitions never
    # written and reads before tick 1 give the empty table
    storegc.compact_dir(str(tmp_path / "x" / "bkt=0"), max_hi=2)
    assert sorted(st.read("x", {0}, 3, sch)["v"].to_pylist()) == [
        1, 2, 101, 102,
    ]
    assert st.read("x", {0}, 2, sch).num_rows == 0
    assert st.read("x", {7}, 9, sch).schema == sch
    assert st.read("x", {7}, 9) is None


def test_tick_store_sweep_removes_only_that_tick(tmp_path):
    st = storegc.TickStore(str(tmp_path), "meta", {"x": "bkt", "y": "cell"})
    for t in (1, 2):
        st.write("x", 0, t, _part_table(t))
        st.write("y", 3, t, _part_table(t))
    st.write("x", 1, 2, _part_table(2))
    pq.write_table(
        _part_table(5), str(tmp_path / "x" / "bkt=1" / "compact-00002-00005.parquet")
    )
    (tmp_path / "x" / "bkt=0" / "notes.txt").write_text("keep")
    st.sweep(2)
    left = sorted(
        os.path.relpath(os.path.join(r, f), tmp_path)
        for r, _, fs in os.walk(tmp_path)
        for f in fs
    )
    assert left == [
        "x/bkt=0/notes.txt",
        "x/bkt=0/tick-00001.parquet",
        "x/bkt=1/compact-00002-00005.parquet",
        "y/cell=3/tick-00001.parquet",
    ]


def test_tick_store_seeds_an_empty_generation(tmp_path):
    st = storegc.TickStore(str(tmp_path), gens=("state",))
    sch = pa.schema([("k", pa.string()), ("ts", pa.int64())])
    p = st.generation("state-00001", lambda path: None, sch)
    assert os.listdir(p) == ["empty.parquet"]
    assert pq.read_table(p).schema == sch
    # a generation that wrote a file is not seeded, and a crashed
    # replay's leftovers are gone before the write
    os.makedirs(tmp_path / "state-00002")
    (tmp_path / "state-00002" / "stale.parquet").write_bytes(b"x")

    def write(path):
        os.makedirs(path)
        pq.write_table(sch.empty_table(), os.path.join(path, "0.parquet"))

    p = st.generation("state-00002", write, sch)
    assert os.listdir(p) == ["0.parquet"]


def test_tick_store_gcs_generations_only_after_the_switch(tmp_path):
    import beamium_ray.state.manifest as _m

    st = storegc.TickStore(str(tmp_path), "assign", gens=("assign",))
    sch = pa.schema([("id", pa.int64())])
    st.generation("assign-00001", lambda p: None, sch)
    st.commit({"tick": 1, "assign": "assign-00001", "last_batch": "a"})
    st.generation("assign-00002", lambda p: None, sch)

    real = _m.atomic_write_bytes

    def boom(path, data):
        raise OSError("simulated crash at the pointer switch")

    _m.atomic_write_bytes = boom
    try:
        with pytest.raises(OSError):
            st.commit({"tick": 2, "assign": "assign-00002", "last_batch": "b"})
    finally:
        _m.atomic_write_bytes = real
    # the switch failed: the live generation and the new one both stay
    assert sorted(os.listdir(tmp_path / "assign")) == [
        "MANIFEST.json", "assign-00001", "assign-00002",
    ]
    assert st.begin("a") == (1, True) and st.begin("b") == (2, False)
    gone = st.commit({"tick": 2, "assign": "assign-00002", "last_batch": "b"})
    assert gone == ["assign-00001"]
    assert sorted(os.listdir(tmp_path / "assign")) == [
        "MANIFEST.json", "assign-00002",
    ]
    # a between-ticks rewrite alternates -gc / -gcb and keeps `retain`
    os.makedirs(tmp_path / "assign" / "assign-00000-keep")
    for want in ("assign-00002-gc", "assign-00002-gcb", "assign-00002-gc"):
        st.rewrite(
            "assign", lambda p: None, sch,
            retain=lambda d: d.endswith("-keep"),
        )
        assert st.manifest()["assign"] == want
        assert sorted(os.listdir(tmp_path / "assign")) == [
            "MANIFEST.json", "assign-00000-keep", want,
        ]


def test_tick_store_manifest_missing_vs_unreadable(tmp_path):
    st = storegc.TickStore(str(tmp_path), "w", gens=("assign",))
    assert st.manifest() == {"tick": 0, "last_batch": None, "assign": None}
    for bad in ("{", "[1]", '"x"'):
        (tmp_path / "w" / "MANIFEST.json").write_text(bad)
        with pytest.raises(ValueError, match="MANIFEST.json"):
            st.manifest()


def _tree(root: str) -> dict:
    """Every dir and file under ``root`` with the file bytes."""
    out = {}
    for r, ds, fs in os.walk(root):
        for d in ds:
            out[os.path.relpath(os.path.join(r, d), root)] = None
        for f in fs:
            p = os.path.join(r, f)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


@pytest.mark.parametrize("kind", ["exact", "span", "rate"])
def test_unreadable_manifest_raises_and_leaves_the_store(
    ray_session, tmp_path, kind
):
    """A manifest that exists but does not parse is not a fresh store:
    read as one, the next tick would commit tick 1, sweep every
    committed tick-00001 file and GC every other generation."""
    import ray.data

    from beamium_ray.datapipe.incdedup import (
        IncrementalExactDedup,
        IncrementalSpanDedup,
    )
    from beamium_ray.stages.rate import IncrementalRate

    store = str(tmp_path / kind)
    if kind == "exact":
        inc = IncrementalExactDedup(store, num_buckets=4)
        batches = [_ds([(i, _doc(i % 3))]) for i in range(3)]
    elif kind == "span":
        inc = IncrementalSpanDedup(store, window=3, num_buckets=4)
        batches = [
            ray.data.from_arrow(
                pa.table(
                    {
                        "doc_id": pa.array([i], pa.int64()),
                        "tokens": pa.array(
                            [list(range(i, i + 8))], pa.list_(pa.int32())
                        ),
                    }
                )
            )
            for i in range(3)
        ]
    else:
        inc = IncrementalRate(store, {"1m": 60_000_000}, num_buckets=2)
        batches = [
            ray.data.from_arrow(
                pa.table(
                    {
                        "series_key": pa.array(["a"]),
                        "ts": pa.array([i * 1_000_000], pa.int64()),
                        "value": pa.array([10 * i], pa.int64()),
                        "order": pa.array([0], pa.int64()),
                    }
                )
            )
            for i in range(3)
        ]
    inc.tick(batches[0], batch_key="k1")
    inc.tick(batches[1], batch_key="k2")
    man = inc.store.manifest_path
    with open(man, "w") as f:
        f.write("{")
    before = _tree(store)
    with pytest.raises(ValueError, match=re.escape(man)):
        inc.tick(batches[2], batch_key="k3")
    assert _tree(store) == before
