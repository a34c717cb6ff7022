"""Incremental MinHash dedup: cross-tick duplicates, committed-cluster
merges, equality with one-shot dedup, and durable-store replay."""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pytest

from beamium_ray.datapipe.incdedup import IncrementalMinHashDedup

def _doc(i: int, variant: str = "") -> str:
    """Docs are mostly UNIQUE content (seeded word soup per i), so two
    different ids sit far below the 0.8 Jaccard threshold; identical
    ids produce identical text (exact dups)."""
    rng = np.random.default_rng(1000 + i)
    words = [f"w{rng.integers(0, 5000):04d}" for _ in range(120)]
    return " ".join(words) + " " + variant


def _ds(rows: list[tuple[int, str]]):
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                "text": pa.array([r[1] for r in rows], pa.string()),
            }
        )
    )


def _assign_dict(ds) -> dict[int, int]:
    t = pa.concat_tables(
        list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    )
    idc = "doc_id" if "doc_id" in t.column_names else "vec_id"
    return dict(zip(t[idc].to_pylist(), t["cluster"].to_pylist()))


def test_cross_tick_duplicate_caught(ray_session, tmp_path):
    inc = IncrementalMinHashDedup(str(tmp_path / "idx"), threshold=0.8)
    # tick 1: three distinct docs
    inc.tick(_ds([(1, _doc(1)), (2, _doc(2)), (30, _doc(30, "unique a"))]))
    # tick 2: 41 duplicates doc 2 (near-identical), 50 is fresh
    out = inc.tick(_ds([(41, _doc(2)), (50, _doc(50, "unique b"))]))
    a = _assign_dict(out)
    assert a[41] == 2, a  # cross-tick dup resolved WITHOUT re-shingling 2
    assert a[1] == 1 and a[30] == 30 and a[50] == 50
    assert len(a) == 5


def test_cross_tick_cluster_merge_relabels_committed(ray_session, tmp_path):
    """A tick-2 doc similar to members of TWO committed clusters merges
    them — every committed member of the absorbed cluster relabels."""
    inc = IncrementalMinHashDedup(str(tmp_path / "idx"), threshold=0.8)
    # two separate committed clusters: {5, 6} and {10, 11}
    inc.tick(_ds([(5, _doc(5)), (6, _doc(5)), (10, _doc(10, "x " * 12)),
                  (11, _doc(10, "x " * 12))]))
    a1 = _assign_dict(inc.assignments())
    assert a1 == {5: 5, 6: 5, 10: 10, 11: 10}
    # 20 is a near-dup of BOTH (text between the two variants is not
    # needed — make it an exact dup of cluster-10's text AND similar
    # enough to 5's: use cluster-10 text, then a second bridge doc)
    out = inc.tick(_ds([(20, _doc(10, "x " * 12)), (21, _doc(5))]))
    a2 = _assign_dict(out)
    assert a2[20] == 10 and a2[21] == 5
    # now a doc that duplicates cluster 10's text arrives with id 3
    # (smaller than every committed member): the whole committed
    # cluster must relabel to 3
    out3 = inc.tick(_ds([(3, _doc(10, "x " * 12))]))
    a3 = _assign_dict(out3)
    assert a3[3] == 3 and a3[10] == 3 and a3[11] == 3 and a3[20] == 3
    assert a3[5] == 5 and a3[6] == 5 and a3[21] == 5


def test_incremental_equals_one_shot(ray_session, tmp_path):
    """Two-tick incremental assignments == one-shot verified
    minhash_dedup over the union corpus."""
    import ray.data

    from beamium_ray.datapipe.dedup import minhash_dedup

    rows = []
    for i in range(40):
        # plant dup families: i % 7 == 3 duplicates i - 3
        if i % 7 == 3 and i >= 3:
            rows.append((i, _doc(i - 3)))
        else:
            rows.append((i, _doc(i)))
    t1, t2 = rows[:23], rows[23:]

    inc = IncrementalMinHashDedup(str(tmp_path / "idx"), threshold=0.8)
    inc.tick(_ds(t1))
    got = _assign_dict(inc.tick(_ds(t2)))

    ref = minhash_dedup(_ds(rows), verify_threshold=0.8)
    rt = pa.concat_tables(
        list(ref.iter_batches(batch_format="pyarrow", batch_size=None))
    )
    want = dict(zip(rt["doc_id"].to_pylist(), rt["cluster"].to_pylist()))
    assert got == want
    # sanity: the plant actually produced non-trivial clusters
    assert any(v != k for k, v in want.items())


def test_replayed_tick_is_idempotent(ray_session, tmp_path):
    """A crash AFTER the tick's files but BEFORE the manifest promotion
    replays the same batch: deterministic filenames overwrite, and the
    final state matches a clean run."""
    store = str(tmp_path / "idx")
    inc = IncrementalMinHashDedup(store, threshold=0.8)
    inc.tick(_ds([(1, _doc(1)), (2, _doc(2))]))
    man_path = inc._manifest_path
    before = json.load(open(man_path))

    # simulate the crash: tick 2 dies at the manifest promotion itself
    # — its assign/band/doc files are on disk, the pointer still names
    # tick 1, and tick 1's generation was NOT swept
    import beamium_ray.state.manifest as _m

    batch2 = [(9, _doc(2)), (12, _doc(12))]
    real_write = _m.atomic_write_bytes

    def boom(path, data):
        raise OSError("simulated crash at manifest promotion")

    _m.atomic_write_bytes = boom
    try:
        with pytest.raises(OSError):
            inc.tick(_ds(batch2))
    finally:
        _m.atomic_write_bytes = real_write
    assert json.load(open(man_path)) == before

    # replay tick 2 (same batch) on a fresh handle
    inc2 = IncrementalMinHashDedup(store, threshold=0.8)
    out = _assign_dict(inc2.tick(_ds(batch2)))
    assert out == {1: 1, 2: 2, 9: 2, 12: 12}
    # no duplicated assignment rows from the replay
    t = pa.concat_tables(
        list(
            inc2.assignments().iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        )
    )
    assert t.num_rows == 4


def test_directory_watcher_incremental_dedup(ray_session, tmp_path):
    """DirectoryWatcher with a dedup appender: parquet files landing
    across ticks dedup incrementally against the committed index; the
    batch_key makes a replayed pending batch a no-op."""
    import hashlib

    import pyarrow.parquet as pq

    import ray.data

    from beamium_ray.pipelines.watch import DirectoryWatcher

    landing = tmp_path / "landing"
    landing.mkdir()
    out = tmp_path / "out"
    inc = IncrementalMinHashDedup(str(out / "dedup_index"), threshold=0.8)

    def appender(ds, files):
        key = hashlib.sha256(
            "\n".join(sorted(files)).encode()
        ).hexdigest()
        inc.tick(ds, batch_key=key)
        return {"batch": key}

    w = DirectoryWatcher(
        str(landing), None, str(out), file_extension="parquet",
        loader=ray.data.read_parquet, appender=appender,
    )

    def land(name, rows):
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array([r[0] for r in rows], pa.int64()),
                    "text": pa.array([r[1] for r in rows], pa.string()),
                }
            ),
            landing / name,
        )

    land("t1.parquet", [(1, _doc(1)), (2, _doc(2))])
    r1 = w.tick()
    assert [f.rsplit("/", 1)[1] for f in r1["applied"]] == ["t1.parquet"]

    land("t2.parquet", [(7, _doc(2)), (9, _doc(9))])
    r2 = w.tick()
    assert [f.rsplit("/", 1)[1] for f in r2["applied"]] == ["t2.parquet"]
    a = _assign_dict(inc.assignments())
    assert a == {1: 1, 2: 2, 7: 2, 9: 9}

    # crash replay: force the watcher state back to pending and re-tick
    # — the dedup manifest's batch_key makes it a no-op
    st = w._load_state()
    st["pending"] = {"files": r2["applied"]}
    st["seen"] = [f for f in st["seen"] if f not in r2["applied"]]
    w._save_state(st)
    r3 = w.tick()
    assert r3["replayed"] == r2["applied"]
    t = pa.concat_tables(
        list(
            inc.assignments().iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        )
    )
    assert t.num_rows == 4  # no duplicate rows from the replay
    assert _assign_dict(inc.assignments()) == {1: 1, 2: 2, 7: 2, 9: 9}


def _vec_ds(ids, V):
    import ray.data

    off = np.arange(0, (len(ids) + 1) * V.shape[1], V.shape[1],
                    dtype=np.int32)
    return ray.data.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(np.asarray(ids, np.int64), pa.int64()),
                "embedding": pa.ListArray.from_arrays(
                    pa.array(off, pa.int32()),
                    pa.array(V.ravel().astype(np.float64), pa.float64()),
                ),
            }
        )
    )


def _sem_fixture(n=60, d=16, n_clusters=6, seed=11):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_clusters, d))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    lab = np.arange(n) % n_clusters
    V = centers[lab] + 0.01 * rng.normal(size=(n, d))
    # plant exact duplicates: i % 9 == 4 copies i - 4
    for i in range(4, n):
        if i % 9 == 4:
            V[i] = V[i - 4]
    return V, centers


def test_incremental_semantic_matches_one_shot(ray_session, tmp_path):
    from beamium_ray.datapipe.dedup import semantic_dedup
    from beamium_ray.datapipe.incdedup import IncrementalSemanticDedup

    V, centers = _sem_fixture()
    ids = np.arange(len(V))
    inc = IncrementalSemanticDedup(
        str(tmp_path / "sem"), centroids=centers, threshold=0.999
    )
    inc.tick(_vec_ds(ids[:33], V[:33]))
    got = _assign_dict(inc.tick(_vec_ds(ids[33:], V[33:])))

    ref = semantic_dedup(
        _vec_ds(ids, V), centroids=centers, threshold=0.999
    )
    rt = pa.concat_tables(
        list(ref.iter_batches(batch_format="pyarrow", batch_size=None))
    )
    want = dict(zip(rt["doc_id"].to_pylist(), rt["cluster"].to_pylist())) \
        if "doc_id" in rt.column_names else dict(
            zip(rt["vec_id"].to_pylist(), rt["cluster"].to_pylist()))
    assert got == want
    assert any(v != k for k, v in want.items())  # plants actually merged


def test_incremental_semantic_cross_tick_and_replay(ray_session, tmp_path):
    from beamium_ray.datapipe.incdedup import IncrementalSemanticDedup

    V, centers = _sem_fixture(n=24, n_clusters=4)
    inc = IncrementalSemanticDedup(
        str(tmp_path / "sem"), centroids=centers, threshold=0.999
    )
    inc.tick(_vec_ds([0, 1, 2, 3], V[:4]), batch_key="t1")
    # 100 duplicates vector 2 exactly (same cell, cos 1.0)
    out = inc.tick(_vec_ds([100], V[[2]]), batch_key="t2")
    a = _assign_dict(out)
    assert a[100] == 2 and a[0] == 0
    # committed replay is a no-op
    again = _assign_dict(inc.tick(_vec_ds([100], V[[2]]), batch_key="t2"))
    assert again == a
    # centroids persisted: a fresh handle with NO centroids reuses them
    inc2 = IncrementalSemanticDedup(str(tmp_path / "sem"), threshold=0.999)
    out3 = _assign_dict(inc2.tick(_vec_ds([200], V[[0]]), batch_key="t3"))
    assert out3[200] == 0


def test_empty_tick_is_noop(ray_session, tmp_path):
    """A zero-row batch (a scraper tick that matched nothing) must not
    wedge the store — before tick 1 AND between real ticks."""
    inc = IncrementalMinHashDedup(str(tmp_path / "idx"))
    assert inc.tick(_ds([])) is None  # no assignments yet
    inc.tick(_ds([(1, _doc(1)), (2, _doc(2))]))
    a = _assign_dict(inc.tick(_ds([])))  # empty mid-stream tick
    assert a == {1: 1, 2: 2}
    # and the NEXT real tick still dedups against the committed index
    out = _assign_dict(inc.tick(_ds([(9, _doc(2))])))
    assert out[9] == 2


def test_empty_semantic_tick_is_noop(ray_session, tmp_path):
    from beamium_ray.datapipe.incdedup import IncrementalSemanticDedup

    V, centers = _sem_fixture(n=8, n_clusters=2)
    inc = IncrementalSemanticDedup(
        str(tmp_path / "sem"), centroids=centers, threshold=0.999
    )
    assert inc.tick(_vec_ds([], np.zeros((0, V.shape[1])))) is None
    inc.tick(_vec_ds([0, 1], V[:2]))
    a = _assign_dict(inc.tick(_vec_ds([], np.zeros((0, V.shape[1])))))
    assert a == {0: 0, 1: 1}


def test_non_power_of_two_buckets(ray_session, tmp_path):
    """num_buckets=100 does not divide 2^64, so signed vs unsigned
    modulo disagree for band hashes ≥ 2^63 — the write path must bucket
    exactly like the read path or committed rows become invisible."""
    inc = IncrementalMinHashDedup(str(tmp_path / "idx"), num_buckets=100)
    docs1 = [(i, _doc(i)) for i in range(1, 13)]
    inc.tick(_ds(docs1))
    # every doc duplicated in tick 2 must find its committed partner
    out = _assign_dict(inc.tick(_ds([(i + 100, _doc(i)) for i in range(1, 13)])))
    for i in range(1, 13):
        assert out[i + 100] == i, (i, out)


def test_assign_generations_garbage_collected(ray_session, tmp_path):
    import os

    inc = IncrementalMinHashDedup(str(tmp_path / "idx"))
    inc.tick(_ds([(1, _doc(1))]))
    inc.tick(_ds([(2, _doc(2))]))
    inc.tick(_ds([(3, _doc(3))]))
    gens = sorted(
        d for d in os.listdir(tmp_path / "idx" / "assign")
        if d.startswith("assign-")
    )
    assert gens == ["assign-00003"]  # superseded generations swept
    assert _assign_dict(inc.assignments()) == {1: 1, 2: 2, 3: 3}


def test_incremental_exact_dedup(ray_session, tmp_path):
    """128-bit exact dedup across ticks: cross-tick identical texts
    join the committed cluster, within-tick dups collapse, replay is a
    no-op, and the store holds one rep row per distinct text."""
    import os

    from beamium_ray.datapipe.incdedup import IncrementalExactDedup

    inc = IncrementalExactDedup(str(tmp_path / "ex"))
    assert inc.tick(_ds([])) is None  # empty pre-tick no-op
    # tick 1: 1 and 2 share a text (within-tick dup), 3 distinct
    inc.tick(_ds([(1, "same text"), (2, "same text"), (3, "other")]),
             batch_key="t1")
    a = _assign_dict(inc.assignments())
    assert a == {1: 1, 2: 1, 3: 3}
    # tick 2: 9 duplicates the committed text, 12 fresh
    out = _assign_dict(
        inc.tick(_ds([(9, "same text"), (12, "fresh")]), batch_key="t2")
    )
    assert out == {1: 1, 2: 1, 3: 3, 9: 1, 12: 12}
    # committed replay is a no-op
    again = _assign_dict(
        inc.tick(_ds([(9, "same text"), (12, "fresh")]), batch_key="t2")
    )
    assert again == out
    # store is rep-rows only: tick 1 wrote 2 distinct texts, tick 2
    # wrote 2 (rows, not docs)
    n_rows = 0
    for root, _, files in os.walk(tmp_path / "ex" / "hashes"):
        for f in files:
            import pyarrow.parquet as _pq

            n_rows += _pq.read_table(os.path.join(root, f)).num_rows
    assert n_rows == 4


def test_incremental_exact_equals_one_shot(ray_session, tmp_path):
    """Two-tick incremental clusters == one-shot exact_dedup reps over
    the full corpus."""
    from beamium_ray.datapipe.dedup import exact_dedup
    from beamium_ray.datapipe.incdedup import IncrementalExactDedup

    rows = [(i, f"text {i % 7}") for i in range(40)]  # 7 distinct texts
    inc = IncrementalExactDedup(str(tmp_path / "ex"), num_buckets=13)
    inc.tick(_ds(rows[:23]))
    got = _assign_dict(inc.tick(_ds(rows[23:])))
    reps = exact_dedup(_ds(rows), mode="hash128")
    t = pa.concat_tables(
        list(reps.iter_batches(batch_format="pyarrow", batch_size=None))
    )
    want_reps = dict(zip(t["doc_id"].to_pylist(), t["n"].to_pylist()))
    # every cluster root matches a one-shot rep; member counts agree
    from collections import Counter

    counts = Counter(got.values())
    assert counts == want_reps
    assert all(got[i] == i % 7 for i in range(40))


def test_minhash_distributed_tick_route_equality(ray_session, tmp_path):
    """The forced-DISTRIBUTED tick (candidate_pair_ds + Bloom-pruned
    pair_metric_join, VERDICT r4 item 1) lands on identical assignments
    to the driver route — including a MIXED history where tick 1
    committed via the driver route and the distributed tick 2 collides
    against that store."""
    rows = []
    for i in range(36):
        if i % 5 == 2 and i >= 5:
            rows.append((i, _doc(i - 5)))  # planted cross/within-tick dups
        else:
            rows.append((i, _doc(i)))
    t1, t2 = rows[:20], rows[20:]

    drv = IncrementalMinHashDedup(str(tmp_path / "drv"), threshold=0.8)
    drv.tick(_ds(t1), distributed=False)
    want = _assign_dict(drv.tick(_ds(t2), distributed=False))

    dist = IncrementalMinHashDedup(str(tmp_path / "dist"), threshold=0.8)
    dist.tick(_ds(t1), distributed=True)
    got = _assign_dict(dist.tick(_ds(t2), distributed=True))
    assert got == want

    mixed = IncrementalMinHashDedup(str(tmp_path / "mix"), threshold=0.8)
    mixed.tick(_ds(t1), distributed=False)  # driver-written store...
    got_mixed = _assign_dict(mixed.tick(_ds(t2), distributed=True))
    assert got_mixed == want  # ...collided against distributively

    # sanity: the plant produced non-trivial clusters
    assert any(v != k for k, v in want.items())


def test_minhash_distributed_replay_ignores_uncommitted_store_files(
    ray_session, tmp_path
):
    """A distributed tick that crashed AFTER its store writes but
    BEFORE the manifest promotion must not read its own tick files
    back as committed on replay. This route tags rows old/new by FILE
    origin, so the crashed attempt's band rows would re-enter tagged
    is_new=0 and candidate pairs between two new docs could be
    dropped as old-old — a silently missing edge. The committed-only
    store read (strictly-before-tick filter) makes the replay land on
    the clean-run assignments."""
    t1 = [(i, _doc(i)) for i in range(8)]
    # 10/11 duplicate committed docs; 12/13 duplicate EACH OTHER (the
    # new-new pair is exactly the one the stale-file mis-tag can drop)
    t2 = [(10, _doc(2)), (11, _doc(5)), (12, _doc(40)), (13, _doc(40))]

    clean = IncrementalMinHashDedup(str(tmp_path / "clean"), threshold=0.8)
    clean.tick(_ds(t1), distributed=True)
    want = _assign_dict(clean.tick(_ds(t2), distributed=True))
    assert want[10] == 2 and want[11] == 5 and want[13] == 12

    inc = IncrementalMinHashDedup(str(tmp_path / "crash"), threshold=0.8)
    inc.tick(_ds(t1), distributed=True)

    import beamium_ray.state.manifest as _m

    real_write = _m.atomic_write_bytes

    def boom(path, data):
        raise OSError("simulated crash at manifest promotion")

    _m.atomic_write_bytes = boom
    try:
        with pytest.raises(OSError):
            inc.tick(_ds(t2), distributed=True)
    finally:
        _m.atomic_write_bytes = real_write

    # the crashed tick's band/doc files ARE on disk, uncommitted
    import glob as _glob

    stray = _glob.glob(
        str(tmp_path / "crash" / "bands" / "bkt=*" / "tick-00002.parquet")
    )
    assert stray, "crash simulation did not leave uncommitted tick files"

    # replay the same batch distributed on a fresh handle
    inc2 = IncrementalMinHashDedup(str(tmp_path / "crash"), threshold=0.8)
    got = _assign_dict(inc2.tick(_ds(t2), distributed=True))
    assert got == want


def test_crashed_tick_store_files_swept_on_different_batch(
    ray_session, tmp_path
):
    """A crashed tick's store files must not outlive a DIFFERENT batch
    committing under the same tick number. Without the pre-write sweep
    in ``_commit_tick``, batch A's band/doc rows written by the crashed
    attempt keep their ``tick-00002`` names, batch B's overwrites only
    reach ITS buckets, and once the manifest commits tick=2 the
    leftovers look committed: a later doc matching batch A's content
    would be verified against a ghost document that exists nowhere in
    the assignments table and silently clustered under it."""
    inc = IncrementalMinHashDedup(str(tmp_path / "idx"), threshold=0.8)
    inc.tick(_ds([(1, _doc(1)), (2, _doc(2))]))

    import beamium_ray.state.manifest as _m

    real_write = _m.atomic_write_bytes

    def boom(path, data):
        raise OSError("simulated crash at manifest promotion")

    # tick 2, batch A (doc 100) crashes at the manifest promotion —
    # its band/doc store files are on disk under tick-00002
    _m.atomic_write_bytes = boom
    try:
        with pytest.raises(OSError):
            inc.tick(_ds([(100, _doc(77))]))
    finally:
        _m.atomic_write_bytes = real_write

    import glob as _glob

    import pyarrow.parquet as _pq

    stray = _glob.glob(
        str(tmp_path / "idx" / "*" / "bkt=*" / "tick-00002.parquet")
    )
    assert stray, "crash simulation did not leave uncommitted tick files"

    # the operator moves batch A aside and feeds batch B (doc 40,
    # different content, different buckets) — a fresh handle, as after
    # a process restart with the pending record reset by hand
    inc2 = IncrementalMinHashDedup(str(tmp_path / "idx"), threshold=0.8)
    inc2.tick(_ds([(40, _doc(40))]))

    # no ghost: every surviving tick-00002 store row belongs to batch B
    for p in _glob.glob(
        str(tmp_path / "idx" / "*" / "bkt=*" / "tick-00002.parquet")
    ):
        ids = set(_pq.read_table(p)["doc_id"].to_pylist())
        assert 100 not in ids, f"ghost batch-A row survived in {p}"

    # end-to-end: a tick-3 doc with batch A's exact content must form
    # its OWN cluster, not join the ghost id 100
    a = _assign_dict(inc2.tick(_ds([(200, _doc(77))])))
    assert a[200] == 200, a
    assert 100 not in a


def test_minhash_tick_auto_routes_above_cap(ray_session, tmp_path):
    """A tick larger than max_tick_rows auto-picks the distributed
    route (store files land, later driver ticks read them back)."""
    inc = IncrementalMinHashDedup(
        str(tmp_path / "auto"), threshold=0.8, max_tick_rows=3
    )
    # 5 docs > cap → distributed; includes one within-tick dup pair
    inc.tick(_ds([(1, _doc(1)), (2, _doc(2)), (3, _doc(3)),
                  (4, _doc(2)), (5, _doc(5))]))
    a1 = _assign_dict(inc.assignments())
    assert a1 == {1: 1, 2: 2, 3: 3, 4: 2, 5: 5}
    # a small follow-up tick (driver route) dedups against the
    # distributed-written store
    a2 = _assign_dict(inc.tick(_ds([(9, _doc(3))])))
    assert a2[9] == 3 and a2[4] == 2
