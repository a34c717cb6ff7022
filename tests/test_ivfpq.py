"""IVF+PQ: codebook training, code round-trip, persisted
partition+column-pruned probes, recall vs the exhaustive search, and
the probe-side byte reduction."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from beamium_ray.datapipe.similarity import (
    _codes_from_arrow,
    _codes_to_arrow,
    brute_force_topk,
    build_ivfpq_index,
    ivfpq_search,
    train_pq_codebooks,
)


def test_codes_arrow_roundtrip():
    codes = np.arange(24, dtype=np.uint8).reshape(3, 8)
    arr = _codes_to_arrow(codes)
    assert arr.type == pa.binary(8)
    assert np.array_equal(_codes_from_arrow(arr), codes)
    # sliced column (non-zero offset) decodes correctly
    assert np.array_equal(_codes_from_arrow(arr.slice(1, 2)), codes[1:])


def test_train_pq_codebooks_shape_and_guards():
    import pytest

    S = np.random.default_rng(0).normal(size=(200, 32))
    books = train_pq_codebooks(S, m=8, k_sub=16, seed=1)
    assert books.shape == (8, 16, 4)
    with pytest.raises(ValueError, match="not divisible"):
        train_pq_codebooks(S, m=5)
    with pytest.raises(ValueError, match="uint8"):
        train_pq_codebooks(S, m=8, k_sub=300)


def test_sample_trainer_matches_per_centroid_lloyd():
    """The vectorized Lloyd round (per-subspace sums + counts, then one
    division) against the per-centroid mean loop it replaced: same init
    draw (seed + j), five rounds, empty codes keep their entry. Only
    the summation order differs, so the books agree to 1e-12; the
    coarse quantizer is the m=1 case and takes k above 256."""

    def loop_lloyd(S, k, seed, rounds=5):
        rng = np.random.default_rng(seed)
        cent = S[rng.choice(len(S), size=min(k, len(S)), replace=False)]
        for _ in range(rounds):
            assign = (S @ cent.T - 0.5 * (cent * cent).sum(1)).argmax(1)
            for c in range(len(cent)):
                if (assign == c).any():
                    cent[c] = S[assign == c].mean(0)
        return cent

    S = np.random.default_rng(4).normal(size=(600, 32))
    Su = S / np.linalg.norm(S, axis=1, keepdims=True)
    books = train_pq_codebooks(S, m=8, k_sub=16, seed=3)
    want = np.stack(
        [loop_lloyd(Su[:, j * 4:(j + 1) * 4], 16, 3 + j) for j in range(8)]
    )
    assert np.allclose(books, want, rtol=0, atol=1e-12)
    cent = train_pq_codebooks(S, m=1, k_sub=300, seed=5)
    assert cent.shape == (1, 300, 32)
    assert np.allclose(cent[0], loop_lloyd(Su, 300, 5), rtol=0, atol=1e-12)


def _clustered_corpus(n=400, d=32, n_clusters=8, seed=3):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_clusters, d))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    lab = np.arange(n) % n_clusters
    V = centers[lab] + 0.05 * rng.normal(size=(n, d))
    off = np.arange(0, (n + 1) * d, d, dtype=np.int32)
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n), pa.int64()),
            "embedding": pa.ListArray.from_arrays(
                pa.array(off, pa.int32()),
                pa.array(V.ravel(), pa.float64()),
            ),
        }
    )
    return t, V, centers


def test_ivfpq_recall_and_bytes_reduction(ray_session, tmp_path):
    import ray.data

    t, V, centers = _clustered_corpus()
    ds = ray.data.from_arrow(t)
    queries = V[[0, 5, 13]]  # three member vectors as queries

    exact = brute_force_topk(ray.data.from_arrow(t), queries, k=10)

    index = build_ivfpq_index(
        ds, n_lists=8, m=8, k_sub=16, centroids=centers,
        index_path=str(tmp_path / "pq_idx"),
    )
    got, stats = ivfpq_search(
        index, queries, k=10, nprobe=2, shortlist=64, return_stats=True
    )

    def hits(tbl):
        out = {}
        for q, v in zip(tbl["query"].to_pylist(), tbl["vec_id"].to_pylist()):
            out.setdefault(q, set()).add(v)
        return out

    eh, gh = hits(exact), hits(got)
    recall = sum(len(eh[q] & gh.get(q, set())) for q in eh) / sum(
        len(eh[q]) for q in eh
    )
    assert recall >= 0.95, recall

    # probe-side byte reduction: 8-byte codes vs 32×4-byte floats
    assert stats["bytes_reduction_x"] == 16.0
    assert stats["probe_bytes_pq"] * 16 == stats["probe_bytes_float_equiv"]
    # pruned probes scanned a strict subset of the corpus
    assert 0 < stats["rows_adc_scanned"] < len(t)
    assert stats["rows_reranked"] <= 3 * 64

    # persisted layout is hive-partitioned by listered id
    parts = sorted(p.name for p in (tmp_path / "pq_idx").iterdir())
    assert any(p.startswith("list_id=") for p in parts)


def test_pq_distributed_training_recall_and_distortion(ray_session):
    """train_pq_codebooks_distributed (full-corpus Lloyd passes, the
    100 TB route): the ivfpq search hits the same recall floor as the
    sample-trained books, and full-corpus quantization distortion is
    no worse than the sample-trained init it starts from (Lloyd rounds
    are monotone on their training set)."""
    import ray.data

    from beamium_ray.datapipe.similarity import (
        train_pq_codebooks_distributed,
    )

    t, V, centers = _clustered_corpus()
    ds = ray.data.from_arrow(t)
    queries = V[[0, 5, 13]]
    exact = brute_force_topk(ray.data.from_arrow(t), queries, k=10)

    index = build_ivfpq_index(
        ds, n_lists=8, m=8, k_sub=16, centroids=centers,
        pq_train="distributed", pq_train_rounds=3,
    )
    got = ivfpq_search(index, queries, k=10, nprobe=2, shortlist=64)

    def hits(tbl):
        out = {}
        for q, v in zip(tbl["query"].to_pylist(), tbl["vec_id"].to_pylist()):
            out.setdefault(q, set()).add(v)
        return out

    eh, gh = hits(exact), hits(got)
    recall = sum(len(eh[q] & gh.get(q, set())) for q in eh) / sum(
        len(eh[q]) for q in eh
    )
    assert recall >= 0.95, recall

    # distortion: distributed-refined ≤ sample-trained init, measured
    # over the FULL unit-normalized corpus
    sample_books = train_pq_codebooks(V, m=8, k_sub=16)  # full V = best
    # possible "sample"; the distributed trainer inits from a 4k
    # block-head sample (here: also full coverage) and refines
    dist_books = train_pq_codebooks_distributed(
        ds, m=8, k_sub=16, rounds=3
    )
    Vu = V / np.linalg.norm(V, axis=1, keepdims=True)

    def distortion(books):
        mm, kk, dd = books.shape
        err = 0.0
        for j in range(mm):
            X = Vu[:, j * dd:(j + 1) * dd]
            d2 = ((X[:, None, :] - books[j][None, :, :]) ** 2).sum(axis=2)
            err += d2.min(axis=1).sum()
        return err

    assert distortion(dist_books) <= distortion(sample_books) * (1 + 1e-9)

    import pytest

    with pytest.raises(ValueError, match="pq_train"):
        build_ivfpq_index(ds, centroids=centers, pq_train="nope")


def test_pq_distributed_training_on_hash_sample(ray_session):
    """sample_frac (the 100 TB posture): Lloyd rounds over a
    deterministic salted-hash row sample — reproducible across runs,
    and on a clustered corpus the sampled codebooks still hit the
    recall floor."""
    import pytest
    import ray.data

    from beamium_ray.datapipe.similarity import (
        train_pq_codebooks_distributed,
    )

    t, V, centers = _clustered_corpus()
    ds = ray.data.from_arrow(t)

    b1 = train_pq_codebooks_distributed(
        ds, m=8, k_sub=16, rounds=2, id_col="vec_id", sample_frac=0.5
    )
    b2 = train_pq_codebooks_distributed(
        ds, m=8, k_sub=16, rounds=2, id_col="vec_id", sample_frac=0.5
    )
    assert np.array_equal(b1, b2)  # id-stable draw → identical books

    # encode + search with the sampled-trained books (codes and ADC
    # LUTs must come from the SAME codebooks)
    index = build_ivfpq_index(ds, n_lists=8, m=8, k_sub=16,
                              centroids=centers, codebooks=b1)
    queries = V[[0, 5, 13]]
    exact = brute_force_topk(ray.data.from_arrow(t), queries, k=10)
    got = ivfpq_search(index, queries, k=10, nprobe=2, shortlist=64)

    def hits(tbl):
        out = {}
        for q, v in zip(tbl["query"].to_pylist(), tbl["vec_id"].to_pylist()):
            out.setdefault(q, set()).add(v)
        return out

    eh, gh = hits(exact), hits(got)
    recall = sum(len(eh[q] & gh.get(q, set())) for q in eh) / sum(
        len(eh[q]) for q in eh
    )
    assert recall >= 0.95, recall

    with pytest.raises(ValueError, match="id_col"):
        train_pq_codebooks_distributed(ds, sample_frac=0.5)
    with pytest.raises(ValueError, match="sample_frac"):
        train_pq_codebooks_distributed(
            ds, id_col="vec_id", sample_frac=1.5
        )
    # init_books with right (m, k_sub) but wrong subspace width must
    # fail upfront, not deep inside a distributed Lloyd pass
    with pytest.raises(ValueError, match="dsub"):
        train_pq_codebooks_distributed(
            ds, m=8, k_sub=16, init_books=np.zeros((8, 16, 5))
        )


def test_ivfpq_build_with_sampled_distributed_training(ray_session):
    """pq_sample_frac plumbed through build_ivfpq_index: the 100 TB
    posture (distributed Lloyd rounds over a deterministic hash
    sample) still hits the planted recall floor, and the knob is
    rejected outside pq_train='distributed'."""
    import pytest
    import ray.data

    t, V, centers = _clustered_corpus()
    ds = ray.data.from_arrow(t)
    queries = V[[0, 5, 13]]
    exact = brute_force_topk(ray.data.from_arrow(t), queries, k=10)

    index = build_ivfpq_index(
        ds, n_lists=8, m=8, k_sub=16, centroids=centers,
        pq_train="distributed", pq_train_rounds=2,
        pq_sample_frac=0.5,
    )
    got = ivfpq_search(index, queries, k=10, nprobe=2, shortlist=64)

    def hits(tbl):
        out = {}
        for q, v in zip(tbl["query"].to_pylist(), tbl["vec_id"].to_pylist()):
            out.setdefault(q, set()).add(v)
        return out

    eh, gh = hits(exact), hits(got)
    recall = sum(len(eh[q] & gh.get(q, set())) for q in eh) / sum(
        len(eh[q]) for q in eh
    )
    assert recall >= 0.95, recall

    with pytest.raises(ValueError, match="pq_sample_frac"):
        build_ivfpq_index(
            ds, centroids=centers, pq_train="sample", pq_sample_frac=0.5
        )


def test_ivfpq_in_memory_matches_persisted(ray_session, tmp_path):
    import ray.data

    t, V, centers = _clustered_corpus(n=160, seed=9)
    q = V[[7]]
    mem_idx = build_ivfpq_index(
        ray.data.from_arrow(t), n_lists=8, m=8, k_sub=16, centroids=centers
    )
    disk_idx = build_ivfpq_index(
        ray.data.from_arrow(t), n_lists=8, m=8, k_sub=16, centroids=centers,
        index_path=str(tmp_path / "idx2"),
    )
    a = ivfpq_search(mem_idx, q, k=5, nprobe=8, shortlist=32)
    b = ivfpq_search(disk_idx, q, k=5, nprobe=8, shortlist=32)
    assert a["vec_id"].to_pylist() == b["vec_id"].to_pylist()
    assert a["cosine"].to_pylist() == b["cosine"].to_pylist()


def _vec_table(ids, V):
    return pa.table(
        {
            "vec_id": pa.array(np.asarray(ids, np.int64), pa.int64()),
            "embedding": pa.array([list(map(float, v)) for v in V]),
        }
    )


def test_pq_code_bands_batch_shape_and_certainty():
    """Identical vectors get identical codes → collide in EVERY band;
    band/key rows carry int64 keys packed from the code bytes."""
    from beamium_ray.datapipe.dedup import PqCodeBands

    rng = np.random.default_rng(5)
    V = rng.normal(size=(6, 32))
    V[3] = V[0]  # exact copy
    books = train_pq_codebooks(V, m=8, k_sub=16, seed=2)
    stage = PqCodeBands(books, "embedding", "vec_id", bands=4)
    t = stage(_vec_table(range(6), V))
    assert t.column_names == ["band", "key", "doc_id"]
    assert t.num_rows == 6 * 4
    assert t["key"].type == pa.int64()
    keys = np.asarray(t["key"].to_pylist()).reshape(6, 4)
    assert np.array_equal(keys[0], keys[3])  # all 4 bands agree
    # empty block keeps the schema (int64 key, not the LSH int32)
    e = stage(_vec_table([], np.zeros((0, 32))))
    assert e.num_rows == 0 and e["key"].type == pa.int64()

    import pytest

    with pytest.raises(ValueError, match="divide"):
        PqCodeBands(books, "embedding", "vec_id", bands=3)


def test_embedding_neardup_pq_route(ray_session):
    """PQ-code candidates + exact verify find planted exact copies
    (certainty) and match the LSH route output; both driver and
    distributed pair routes."""
    import ray.data

    from beamium_ray.datapipe.dedup import embedding_neardup

    rng = np.random.default_rng(7)
    V = rng.normal(size=(300, 32))
    ids = np.arange(300)
    V2 = np.concatenate([V, V[:15]])
    ids2 = np.concatenate([ids, np.arange(1000, 1015)])
    ds = ray.data.from_arrow(_vec_table(ids2, V2))

    m: dict = {}
    out = embedding_neardup(ds, threshold=0.95, candidates="pq", metrics=m)
    got = set(zip(out["a"].to_pylist(), out["b"].to_pylist()))
    assert got == {(i, 1000 + i) for i in range(15)}
    assert m["candidates"] == "pq" and m["verified_pairs"] == 15

    lsh = embedding_neardup(ds, threshold=0.95, candidates="lsh")
    assert got == set(zip(lsh["a"].to_pylist(), lsh["b"].to_pylist()))

    dist = embedding_neardup(
        ds, threshold=0.95, candidates="pq", max_broadcast_pairs=0
    )
    assert got == set(zip(dist["a"].to_pylist(), dist["b"].to_pylist()))

    import pytest

    with pytest.raises(ValueError, match="candidates"):
        embedding_neardup(ds, candidates="simhash")
    with pytest.raises(ValueError, match="pq_bands"):
        embedding_neardup(ds, candidates="pq", pq_bands=3)


def test_embedding_neardup_pq_reuses_search_codebooks(ray_session):
    """A corpus indexed for IVF-PQ search dedups with the SAME
    codebooks (no second training pass)."""
    import ray.data

    from beamium_ray.datapipe.dedup import embedding_neardup

    t, V, _ = _clustered_corpus()
    dup = _vec_table([9000], V[[7]])
    full = pa.concat_tables(
        [t.select(["vec_id", "embedding"]), dup]
    )
    ds = ray.data.from_arrow(full)
    idx = build_ivfpq_index(ds, n_lists=8, m=8, k_sub=16)
    out = embedding_neardup(
        ds, threshold=0.999, candidates="pq", pq_codebooks=idx.codebooks
    )
    pairs = set(zip(out["a"].to_pylist(), out["b"].to_pylist()))
    assert (7, 9000) in pairs
