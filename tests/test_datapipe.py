"""Training-data ops: dedup family, text stats, similarity, multimodal."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from beamium_ray.datapipe.dedup import (
    embedding_neardup,
    exact_dedup,
    minhash_dedup,
    minhash_signatures,
    simhash_batch,
    simhash_candidates,
)
from beamium_ray.datapipe.similarity import brute_force_topk, ivf_topk
from beamium_ray.datapipe.textstats import (
    LangId,
    fingerprint_batch,
    quality_score_batch,
    token_count_batch,
)
from beamium_ray.datapipe.multimodal import (
    DecodeImage,
    SampleFrames,
    decode_dataset,
    synth_media_batch,
)

DOCS = pa.table(
    {
        "doc_id": pa.array(range(8), pa.int64()),
        "text": pa.array(
            [
                "the quick brown fox jumps over the lazy dog",
                "the quick brown fox jumps over the lazy dog",  # exact dup of 0
                "the quick brown fox jumps over a lazy dog",  # near dup of 0
                "le chat est sur la table et le chien est dans le jardin",
                "der hund ist nicht mit der katze und das ist gut",
                "completely different content about astronomy and galaxies",
                "",
                "el perro y el gato son amigos por la tarde es que",
            ]
        ),
    }
)


def test_token_count_and_quality():
    t = token_count_batch(DOCS)
    assert t["n_tok_ws"].to_pylist()[:3] == [9, 9, 9]
    assert t["n_tok_ws"].to_pylist()[6] == 0
    q = quality_score_batch(DOCS)
    assert q["n_chars"].to_pylist()[6] == 0
    assert q["punct_ratio"].to_pylist()[6] == 0.0


def test_lang_id():
    out = LangId()(DOCS)
    langs = out["lang_pred"].to_pylist()
    assert langs[0] == "en"
    assert langs[3] == "fr"
    assert langs[4] == "de"
    assert langs[7] == "es"
    assert langs[6] == "und"


def test_fingerprint_deterministic():
    a = fingerprint_batch(DOCS)
    b = fingerprint_batch(DOCS)
    assert a["fingerprint"].to_pylist() == b["fingerprint"].to_pylist()
    # identical texts → identical fingerprints & sketches
    assert a["fingerprint"][0].as_py() == a["fingerprint"][1].as_py()
    assert a["sketch"][0].as_py() == a["sketch"][1].as_py()
    assert a["fingerprint"][0].as_py() != a["fingerprint"][5].as_py()


def test_minhash_signature_similarity():
    sigs = minhash_signatures(DOCS["text"].combine_chunks(), num_perm=128)
    sim01 = (sigs[0] == sigs[1]).mean()  # exact dup
    sim02 = (sigs[0] == sigs[2]).mean()  # near dup
    sim05 = (sigs[0] == sigs[5]).mean()  # unrelated
    assert sim01 == 1.0
    assert sim02 > 0.5
    assert sim05 < 0.2


def test_simhash():
    out = simhash_batch(DOCS)
    sh = out["simhash"].to_pylist()
    assert sh[0] == sh[1]
    d02 = bin(sh[0] ^ sh[2]).count("1")
    d05 = bin(sh[0] ^ sh[5]).count("1")
    assert d02 < d05


def test_exact_dedup_ray(ray_session):
    import ray.data

    ds = ray.data.from_arrow(DOCS).repartition(3)
    out = exact_dedup(ds, num_buckets=4)
    rows = sorted(out.take_all(), key=lambda r: r["doc_id"])
    # doc 0 and 1 identical → one row with n=2, doc_id=0
    by_id = {r["doc_id"]: r["n"] for r in rows}
    assert by_id[0] == 2
    assert 1 not in by_id
    assert sum(by_id.values()) == 8


def test_minhash_dedup_ray(ray_session):
    import ray.data

    ds = ray.data.from_arrow(DOCS).repartition(2)
    labels = minhash_dedup(ds)
    got = {r["doc_id"]: r["cluster"] for r in labels.take_all()}
    assert got[1] == 0  # exact dup clustered with 0
    assert got[2] == 0  # near dup clustered with 0
    assert got.get(5, 5) == 5  # unrelated doc stays its own cluster


def test_minhash_dedup_verified_ray(ray_session):
    import ray.data

    ds = ray.data.from_arrow(DOCS).repartition(2)
    labels = minhash_dedup(ds, verify_threshold=0.7)
    got = {r["doc_id"]: r["cluster"] for r in labels.take_all()}
    assert len(got) == DOCS.num_rows  # every doc labelled
    assert got[1] == 0  # exact dup (J=1) verified and clustered
    assert got[5] == 5
    # near dup of 0 has J ≈ 0.73 ≥ 0.7 → merged; French doc stays out
    assert got[2] == 0
    assert got[3] == 3
    # stricter threshold rejects the near dup but keeps the exact dup
    strict = minhash_dedup(ds, verify_threshold=0.9)
    got2 = {r["doc_id"]: r["cluster"] for r in strict.take_all()}
    assert got2[1] == 0 and got2[2] == 2


def test_connected_components_star_counterexample(ray_session):
    """Node connected only through a HIGHER id must still get the
    component min (the r1 min-label chase stranded it)."""
    import ray.data

    from beamium_ray.datapipe.dedup import connected_components

    edges = pa.table(
        {"a": pa.array([2, 3, 7], pa.int64()),
         "b": pa.array([10, 10, 7], pa.int64())}
    )
    for thresh in (10_000_000, 0):  # driver union-find AND distributed
        out = connected_components(
            ray.data.from_arrow(edges), driver_threshold=thresh
        )
        got = {r["doc_id"]: r["cluster"] for r in out.take_all()}
        assert got == {2: 2, 3: 2, 10: 2, 7: 7}, (thresh, got)


def test_connected_components_long_chain_distributed(ray_session):
    """Chain a-b-c-…-z (length 9) fully merges via the DISTRIBUTED
    pointer-jumping path (driver_threshold=0 forces it) — the r1 join
    path ran one hardcoded round and left long chains unmerged."""
    import ray.data

    from beamium_ray.datapipe.dedup import connected_components

    n = 10
    edges = pa.table(
        {
            # descending ids so labels must flow the hard direction too
            "a": pa.array(list(range(n - 1, 0, -1)), pa.int64()),
            "b": pa.array(list(range(n - 2, -1, -1)), pa.int64()),
        }
    )
    out = connected_components(
        ray.data.from_arrow(edges), driver_threshold=0, num_partitions=4
    )
    got = {r["doc_id"]: r["cluster"] for r in out.take_all()}
    assert got == {i: 0 for i in range(n)}


def test_simhash_candidates_ray(ray_session):
    import ray.data

    # add a truly-near doc (one char changed)
    near = pa.table(
        {
            "doc_id": pa.array([100], pa.int64()),
            "text": pa.array(
                ["the quick brown fox jumps over the lazy dot"], pa.string()
            ),
        }
    )
    docs = pa.concat_tables([DOCS, near])
    ds = ray.data.from_arrow(docs).repartition(2)
    pairs = simhash_candidates(ds, max_dist=6)
    got = {(r["a"], r["b"]): r["dist"] for r in pairs.to_pylist()}
    assert got.get((0, 1)) == 0  # identical docs share all bands
    assert (0, 100) in got  # 1-char edit caught by banding
    assert got[(0, 100)] <= 6


def test_simhash_hot_bucket_capped(ray_session):
    """A degenerate bucket (all docs identical ⇒ identical simhash)
    must not go quadratic: star fallback still finds every doc's pair
    to the bucket min, in O(n) pairs."""
    import ray.data

    n = 3000
    docs = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array(["same exact text body here"] * n),
        }
    )
    ds = ray.data.from_arrow(docs).repartition(4)
    t = simhash_candidates(ds, bucket_cap=100)
    # star fallback: exactly n-1 pairs (0, i), not n(n-1)/2
    assert t.num_rows == n - 1
    assert pc.min(t["a"]).as_py() == 0 and pc.max(t["a"]).as_py() == 0
    assert set(t["dist"].to_pylist()) == {0}


def _embeddings(n=300, d=16, seed=5):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, d))
    # plant near-dups: vec 10 ≈ vec 20, vec 30 ≈ vec 40
    M[20] = M[10] + rng.normal(scale=1e-3, size=d)
    M[40] = M[30] + rng.normal(scale=1e-3, size=d)
    return pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array(
                [row.astype(np.float32).tolist() for row in M],
                pa.list_(pa.float32()),
            ),
        }
    ), M


def test_embedding_neardup_ray(ray_session):
    import ray.data

    t, _ = _embeddings()
    ds = ray.data.from_arrow(t).repartition(2)
    out = embedding_neardup(ds, threshold=0.99)
    pairs = {(r["a"], r["b"]) for r in out.to_pylist()}
    assert (10, 20) in pairs and (30, 40) in pairs
    # no noise pairs at 0.99 on random gaussians
    assert pairs == {(10, 20), (30, 40)}


def test_embedding_neardup_skew_subquadratic(ray_session):
    """All-identical vectors (every band bucket degenerate) must stay
    sub-quadratic via the bucket cap and still report pairs."""
    import ray.data

    n, d = 2000, 8
    v = np.arange(1, d + 1, dtype=np.float64)
    t = pa.table(
        {
            "vec_id": pa.array(range(n), pa.int64()),
            "embedding": pa.array(
                [v.astype(np.float32).tolist()] * n, pa.list_(pa.float32())
            ),
        }
    )
    ds = ray.data.from_arrow(t).repartition(2)
    out = embedding_neardup(ds, threshold=0.99, bucket_cap=64)
    # star fallback: each bucket yields (0, i) pairs only → n-1 pairs
    assert out.num_rows == n - 1
    assert set(out["a"].to_pylist()) == {0}


def test_brute_force_topk_matches_numpy(ray_session):
    import ray.data

    t, M = _embeddings()
    ds = ray.data.from_arrow(t).repartition(3)
    q = M[7]
    got = brute_force_topk(ds, q, k=5)
    got_ids = got["vec_id"].to_pylist()
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    # engine computes from the float32-stored vectors
    M32 = np.stack(t["embedding"].to_pylist()).astype(np.float64)
    M32n = M32 / np.linalg.norm(M32, axis=1, keepdims=True)
    sims = M32n @ (q / np.linalg.norm(q))
    want = np.argsort(-sims, kind="stable")[:5].tolist()
    assert got_ids == want
    assert got_ids[0] == 7


def test_ivf_topk_recall(ray_session):
    import ray.data

    t, M = _embeddings(n=500)
    ds = ray.data.from_arrow(t).repartition(3)
    q = M[3]
    exact = brute_force_topk(ds, q, k=10)["vec_id"].to_pylist()
    approx = ivf_topk(ds, q, k=10, n_lists=8, nprobe=4)["vec_id"].to_pylist()
    recall = len(set(exact) & set(approx)) / 10
    assert recall >= 0.5
    assert approx[0] == 3  # the query vector itself is always found


def test_ivf_persisted_index_prunes_read(ray_session, tmp_path):
    """index_path: assignment written ONCE partitioned by list_id; the
    probed search reads only the probed lists' partitions and an index
    built once serves multiple queries without reassignment."""
    import os

    import ray.data

    from beamium_ray.datapipe.similarity import build_ivf_index, ivf_search

    t, M = _embeddings(n=400)
    ds = ray.data.from_arrow(t).repartition(3)
    path = str(tmp_path / "ivf")
    index = build_ivf_index(ds, n_lists=8, index_path=path)
    parts = [d for d in os.listdir(path) if d.startswith("list_id=")]
    assert 1 < len(parts) <= 8
    got1 = ivf_search(index, M[3], k=5, nprobe=8)["vec_id"].to_pylist()
    got2 = ivf_search(index, M[7], k=5, nprobe=8)["vec_id"].to_pylist()
    assert got1[0] == 3 and got2[0] == 7
    # nprobe=8 probes every list → identical to brute force
    exact = brute_force_topk(ds, M[3], k=5)["vec_id"].to_pylist()
    assert got1 == exact


def test_multimodal_decode(ray_session):
    import ray.data

    media = synth_media_batch(0, 64)
    out = DecodeImage(decoder="fake")(media)
    assert out.num_rows == 64
    assert len(out["thumb"][0].as_py()) == 64
    # deterministic
    out2 = DecodeImage(decoder="fake")(media)
    assert out["pix_mean"].to_pylist() == out2["pix_mean"].to_pylist()
    # actor-pool path through Ray
    ds = ray.data.from_arrow(media).repartition(2)
    rows = decode_dataset(ds, batch_size=16, concurrency=2).take_all()
    assert len(rows) == 64
    # real decoder paths are import-guarded: with the lib present they
    # construct (and decode a real image, below); absent they raise the
    # clear install message
    try:
        import PIL  # noqa: F401

        have_pil = True
    except ImportError:
        have_pil = False
    if have_pil:
        import io

        from PIL import Image

        img = Image.new("L", (8, 6))
        img.putdata(list(range(48)))
        buf = io.BytesIO()
        img.save(buf, format="PNG")
        one = pa.table(
            {
                "media_id": pa.array([1], pa.int64()),
                "payload": pa.array([buf.getvalue()], pa.binary()),
                "format": pa.array(["image/png"], pa.string()),
                "width": pa.array([8], pa.int32()),
                "height": pa.array([6], pa.int32()),
            }
        )
        got = DecodeImage(decoder="pil")(one)
        assert got["n_px"].to_pylist() == [48]
        assert got["px_sum"].to_pylist() == [sum(range(48))]
    else:
        with pytest.raises(NotImplementedError, match="not installed"):
            DecodeImage(decoder="pil")
    import shutil as _sh

    if _sh.which("ffmpeg") is None:
        with pytest.raises(NotImplementedError, match="not installed"):
            DecodeImage(decoder="ffmpeg")


def test_frame_sampling():
    media = synth_media_batch(0, 4, payload_bytes=8192)
    out = SampleFrames(frame_bytes=1024, every=4)(media)
    assert out.num_rows == 8  # 8 frames per payload, every 4th → 2 each
    assert set(out["frame"].to_pylist()) == {0, 4}
    assert all(len(p) == 1024 for p in out["payload"].to_pylist())


def test_exact_dedup_hash128_matches_text_mode(ray_session):
    import ray.data

    ds = ray.data.from_arrow(DOCS).repartition(3)
    a = sorted(exact_dedup(ds, num_buckets=4).take_all(), key=lambda r: r["doc_id"])
    b = sorted(
        exact_dedup(ds, num_buckets=4, mode="hash128").take_all(),
        key=lambda r: r["doc_id"],
    )
    assert a == b


# ---------------- distributed verification (round 3) ----------------


def test_minhash_distributed_verify_matches_driver(ray_session):
    """Forcing the pair count over max_broadcast_pairs must complete
    through the DISTRIBUTED verify path (no raise — the r2 behavior)
    with clusters identical to the driver path (VERDICT r2 item 1)."""
    import ray.data

    ds = ray.data.from_arrow(DOCS).repartition(2)
    m_drv, m_dist = {}, {}
    drv = minhash_dedup(ds, verify_threshold=0.7, metrics=m_drv)
    dist = minhash_dedup(
        ds, verify_threshold=0.7, max_broadcast_pairs=1, metrics=m_dist
    )
    got_drv = sorted((r["doc_id"], r["cluster"]) for r in drv.take_all())
    got_dist = sorted((r["doc_id"], r["cluster"]) for r in dist.take_all())
    assert got_drv == got_dist
    assert m_drv["path"] == "driver"
    assert m_dist["path"] == "distributed"
    assert m_drv["candidate_pairs"] == m_dist["candidate_pairs"] > 0
    assert m_drv["verified_edges"] == m_dist["verified_edges"] > 0
    if m_dist["prefilter_used"]:
        assert m_drv["prefilter_survivors"] == m_dist["prefilter_survivors"]
    else:
        # short docs: the distributed path skips the sig prefilter
        # (cost decision) and verifies every candidate directly
        assert m_dist["prefilter_survivors"] == m_dist["candidate_pairs"]


def test_minhash_forced_distributed_flag(ray_session):
    import ray.data

    ds = ray.data.from_arrow(DOCS).repartition(2)
    m = {}
    out = minhash_dedup(ds, verify_threshold=0.9, max_broadcast_pairs=0,
                        metrics=m)
    got = {r["doc_id"]: r["cluster"] for r in out.take_all()}
    assert m["path"] == "distributed"
    assert got[1] == 0 and got[2] == 2  # strict τ: exact dup only


def test_embedding_neardup_distributed_matches_driver(ray_session):
    import ray.data

    rng = np.random.default_rng(7)
    base = rng.normal(size=(40, 16))
    vecs = np.concatenate([base, base[:10] * 2.0])  # 10 scaled dups
    ids = np.arange(50, dtype=np.int64)
    t = pa.table(
        {
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs],
                pa.list_(pa.float64()),
            ),
        }
    )
    ds = ray.data.from_arrow(t).repartition(2)
    m_drv, m_dist = {}, {}
    drv = embedding_neardup(ds, threshold=0.99, metrics=m_drv)
    dist = embedding_neardup(
        ds, threshold=0.99, max_broadcast_pairs=1, metrics=m_dist
    )
    key = lambda tab: sorted(zip(tab["a"].to_pylist(), tab["b"].to_pylist()))
    assert key(drv) == key(dist)
    assert len(key(drv)) >= 10
    assert m_drv["path"] == "driver" and m_dist["path"] == "distributed"
    assert m_drv["verified_pairs"] == m_dist["verified_pairs"]
    # cosines agree to float64 precision
    c_drv = dict(zip(key(drv), sorted(drv.sort_by([("a", "ascending"), ("b", "ascending")])["cosine"].to_pylist())))
    c_dist = dict(zip(key(dist), sorted(dist.sort_by([("a", "ascending"), ("b", "ascending")])["cosine"].to_pylist())))
    for k in c_drv:
        assert abs(c_drv[k] - c_dist[k]) < 1e-12


def test_simhash_metrics_and_metrics_path(ray_session, tmp_path):
    import json

    import ray.data

    ds = ray.data.from_arrow(DOCS).repartition(2)
    m = {}
    p = str(tmp_path / "dedup_metrics.json")
    out = simhash_candidates(ds, metrics=m, metrics_path=p)
    assert m["candidate_pairs"] > 0
    assert m["verified_pairs"] == out.num_rows
    on_disk = json.loads(open(p).read())
    assert on_disk["verified_pairs"] == out.num_rows
    assert on_disk["path"] == "driver"  # toy scale routes to the driver
    # the forced distributed route must agree pair-for-pair
    m2 = {}
    out2 = simhash_candidates(ds, max_broadcast_pairs=0, metrics=m2)
    assert m2["path"] == "distributed"
    assert m2["candidate_pairs"] == m["candidate_pairs"]
    key = lambda t: sorted(zip(t["a"].to_pylist(), t["b"].to_pylist(),
                               t["dist"].to_pylist()))
    assert key(out2) == key(out)


def test_numpy_components_matches_unionfind():
    """The vectorized FastSV kernel must agree with a reference dict
    union-find on random graphs, chains, and the r1 counterexample."""
    from beamium_ray.datapipe.dedup import _numpy_components

    def ref_components(ea, eb):
        parent = {}

        def find(x):
            r = x
            while parent.get(r, r) != r:
                r = parent[r]
            while parent.get(x, x) != x:
                parent[x], x = r, parent[x]
            return r

        for a, b in zip(ea.tolist(), eb.tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                lo, hi = (ra, rb) if ra < rb else (rb, ra)
                parent[hi] = lo
        nodes = np.unique(np.concatenate([ea, eb]))
        return nodes, np.array([find(int(d)) for d in nodes])

    cases = [
        (np.array([2, 3], np.int64), np.array([10, 10], np.int64)),
        # long chain linked only downward through high ids
        (np.arange(100, 200, dtype=np.int64), np.arange(101, 201, dtype=np.int64)),
    ]
    rng = np.random.default_rng(3)
    for n_edges in (100, 5000):
        cases.append(
            (
                rng.integers(0, 500, n_edges).astype(np.int64),
                rng.integers(0, 500, n_edges).astype(np.int64),
            )
        )
    for ea, eb in cases:
        nodes, lab = _numpy_components(ea, eb)
        rn, rl = ref_components(ea, eb)
        assert np.array_equal(nodes, rn)
        assert np.array_equal(lab, rl)
    # empty edges
    nodes, lab = _numpy_components(np.array([], np.int64), np.array([], np.int64))
    assert len(nodes) == 0


def test_hyperplane_planes_generated_once():
    """The plane matrix is created on the first batch and REUSED —
    identical bits to the stateless function, no per-batch RNG
    (VERDICT r2 item 7 + ADVICE empty-batch guard)."""
    from beamium_ray.datapipe.dedup import HyperplaneBands, hyperplane_bands_batch

    rng = np.random.default_rng(1)
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(6, dtype=np.int64), pa.int64()),
            "embedding": pa.array(
                [list(map(float, v)) for v in rng.normal(size=(6, 8))],
                pa.list_(pa.float64()),
            ),
        }
    )
    actor = HyperplaneBands()
    out1 = actor(t)
    planes_after_first = actor.planes
    out2 = actor(t)
    assert actor.planes is planes_after_first  # not regenerated
    assert out1.equals(out2)
    assert out1.equals(hyperplane_bands_batch(t))
    # empty batch: early-return with the index schema, planes untouched
    empty = t.slice(0, 0)
    out_e = actor(empty)
    assert out_e.num_rows == 0
    assert out_e.column_names == ["band", "key", "doc_id"]
    fresh = HyperplaneBands()
    assert fresh(empty).num_rows == 0 and fresh.planes is None


def test_ivf_probed_dataset_partition_filtered(ray_session, tmp_path):
    """probed_dataset prunes via a filesystem-abstracted hive partition
    filter (no os.listdir): only the probed lists' fragments appear in
    the read plan, and an empty probe set returns None."""
    import ray.data

    from beamium_ray.datapipe.similarity import build_ivf_index

    t, M = _embeddings(n=400)
    ds = ray.data.from_arrow(t).repartition(3)
    path = str(tmp_path / "ivf_pf")
    index = build_ivf_index(ds, n_lists=8, index_path=path)
    probed = index.probed_dataset({0, 3})
    files = probed.input_files()
    assert files, "probed read plan must have fragments"
    assert all("list_id=0" in f or "list_id=3" in f for f in files)
    # every probed row belongs to a probed list
    got = {
        int(r["list_id"])
        for r in probed.select_columns(["list_id"]).take_all()
    }
    assert got <= {0, 3}
    assert index.probed_dataset(set()) is None


def test_ivf_pruned_gate_actually_prunes(ray_session):
    """The simsearch_ivf_pruned gate must exercise REAL pruning: with
    the planted centroids, nprobe=4 probes only 4 of 16 lists, the
    probed subset is a strict minority of the corpus, and the pruned
    top-10 still equals brute force (recall 1.0 by construction)."""
    import numpy as np
    import ray.data

    from beamium_ray.datapipe.similarity import (
        brute_force_topk,
        build_ivf_index,
        ivf_search,
    )
    from beamium_ray.queries import (
        _IVF_CLUSTERS,
        _ivf_center,
        _plant_clusters_batch,
    )

    base = pa.table({"vec_id": pa.array(range(800), pa.int64())})
    planted = _plant_clusters_batch(base)
    ds = ray.data.from_arrow(planted).repartition(4)
    centers = _ivf_center(np.arange(_IVF_CLUSTERS))
    cent = centers / np.linalg.norm(centers, axis=1, keepdims=True)
    index = build_ivf_index(ds, _IVF_CLUSTERS, centroids=cent)
    q = centers[3]

    # pruning evidence: a 4-list probe reads well under half the corpus
    probed = index.probed_dataset(set(range(4)))
    assert probed.count() < 800 // 2

    pruned = ivf_search(index, q, k=10, nprobe=4)
    exact = brute_force_topk(ds, q, k=10)
    assert pruned["vec_id"].to_pylist() == exact["vec_id"].to_pylist()
    # every hit is in the query's own planted cluster
    assert all(v % _IVF_CLUSTERS == 3 for v in pruned["vec_id"].to_pylist())


def test_pair_endpoint_bloom_no_false_negatives(ray_session):
    """Bloom pruning must NEVER drop a payload row whose id is a pair
    endpoint — a false negative would silently lose verified edges.
    False positives are allowed (they only ship extra payload rows)."""
    import ray.data

    from beamium_ray.datapipe.pairjoin import (
        bloom_probe,
        build_pair_endpoint_bloom,
    )

    rng = np.random.default_rng(7)
    a = rng.integers(0, 1 << 62, 5_000, dtype=np.int64)
    b = rng.integers(0, 1 << 62, 5_000, dtype=np.int64)
    pairs = ray.data.from_arrow(
        pa.table({"a": pa.array(a), "b": pa.array(b)})
    ).repartition(3)
    bm, mask = build_pair_endpoint_bloom(pairs, 10_000)
    assert bloom_probe(bm, mask, a.astype(np.uint64)).all()
    assert bloom_probe(bm, mask, b.astype(np.uint64)).all()
    # selectivity: unrelated ids are mostly pruned (bitmap sized ~8
    # bits per key -> false-positive rate well under 50%)
    other = rng.integers(0, 1 << 62, 20_000, dtype=np.uint64)
    fp = bloom_probe(bm, mask, other).mean()
    assert fp < 0.5, fp


def test_chunk_rows_batch_edges():
    """Byte-slice chunking must equal split-on-space + rejoin for every
    shape: partial last chunk, empty text, double/leading/trailing
    spaces, single word."""
    from beamium_ray.datapipe.dedup import chunk_rows_batch

    texts = [
        "a b c d e f g h i j k l m",  # 13 words -> 10 + 3
        "",                            # one empty chunk
        "x  y",                        # empty middle word
        " lead",                       # leading space -> empty first word
        "trail ",                      # trailing space -> empty last word
        "solo",
        " ".join(f"w{i}" for i in range(25)),  # 10+10+5
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    out = chunk_rows_batch(t, words_per_chunk=10)
    got = {}
    for r in out.to_pylist():
        got.setdefault(r["doc_id"], []).append((r["chunk_idx"], r["chunk"]))
    for did, text in enumerate(texts):
        ws = text.split(" ")
        want = [
            (i // 10, " ".join(ws[i: i + 10]))
            for i in range(0, len(ws), 10)
        ]
        assert got[did] == want, (did, got[did], want)


def test_chunk_dedup_first_occurrence(ray_session):
    """Global first occurrence = min (doc_id, chunk_idx) — including
    when the duplicate appears EARLIER inside a later doc, and across
    different Ray blocks."""
    import ray.data

    from beamium_ray.datapipe.dedup import chunk_dedup

    dup = "d0 d1 d2"  # 3-word docs with wpc=3 -> one chunk per doc
    t = pa.table({
        "doc_id": pa.array([5, 1, 9], pa.int64()),
        "text": pa.array([dup, "u0 u1 u2 " + dup, dup], pa.string()),
    })
    out = chunk_dedup(
        ray.data.from_arrow(t).repartition(3), words_per_chunk=3
    )
    rows = sorted(
        (r["doc_id"], r["chunk_idx"], r["chunk"])
        for r in out.take_all()
    )
    # doc 1 owns BOTH chunks: its chunk_idx=1 copy of `dup` beats
    # doc 5's chunk_idx=0 because doc_id compares first
    assert rows == [(1, 0, "u0 u1 u2"), (1, 1, dup)]


def test_repetition_stats_batch():
    """Hand-checked shapes: duplicate words, single word, empty text,
    all-same-word doc; 2-grams never cross documents."""
    from beamium_ray.datapipe.textstats import repetition_stats_batch

    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(
            ["a b a b a", "x", "", "w w w w"], pa.string()
        ),
    })
    got = {r["doc_id"]: r for r in repetition_stats_batch(t).to_pylist()}
    assert got[0] == {"doc_id": 0, "n_words": 5, "n_distinct_words": 2,
                      "top_word_n": 3, "n_2grams": 4, "n_dup_2grams": 2}
    assert got[1]["n_2grams"] == 0 and got[1]["n_distinct_words"] == 1
    assert got[2]["n_words"] == 1  # string_split('') = ['']
    assert got[3] == {"doc_id": 3, "n_words": 4, "n_distinct_words": 1,
                      "top_word_n": 4, "n_2grams": 3, "n_dup_2grams": 2}


def test_hash_sample_deterministic_and_stratified(ray_session):
    """Same salt → identical sample across runs and block splits;
    per-stratum rates actually apply (±5% at n=20k); flat mode matches
    the mask function row for row."""
    import ray.data

    from beamium_ray.datapipe.sample import hash_sample, sample_mask

    n = 20_000
    ids = np.arange(n, dtype=np.int64)
    src = np.where(ids % 2 == 0, "keepy", "droppy")
    t = pa.table({"doc_id": pa.array(ids), "source": pa.array(src)})
    kw = dict(
        key_col="doc_id", rate_ppm=500_000, strat_col="source",
        rates_ppm={"keepy": 900_000, "droppy": 100_000},
    )
    a = hash_sample(ray.data.from_arrow(t).repartition(1), **kw).to_pandas()
    b = hash_sample(ray.data.from_arrow(t).repartition(9), **kw).to_pandas()
    assert sorted(a["doc_id"]) == sorted(b["doc_id"])
    frac_k = (a["source"] == "keepy").sum() / (n / 2)
    frac_d = (a["source"] == "droppy").sum() / (n / 2)
    assert abs(frac_k - 0.9) < 0.05 and abs(frac_d - 0.1) < 0.05
    flat = hash_sample(
        ray.data.from_arrow(t), key_col="doc_id", rate_ppm=250_000
    ).to_pandas()
    assert sorted(flat["doc_id"]) == sorted(ids[sample_mask(ids, 250_000)])


def test_mixture_sample_temperature_rates(ray_session):
    """Temperature-2 rates: the smallest source keeps everything, a 4×
    source keeps sqrt(1/4)=50%; the sampled rows are exactly the
    hash_sample rows under those derived rates, independent of block
    splits; the generic-temperature branch endpoints are sane (T=1 ⇒
    natural proportions ⇒ keep all; T→∞ ⇒ equal-size sources)."""
    import ray.data

    from beamium_ray.datapipe.sample import (
        hash_sample, mixture_sample, stratum_counts, temperature_rates_ppm,
    )

    n = 10_000
    ids = np.arange(n, dtype=np.int64)
    # 8000 crawl docs, 2000 book docs → rates crawl 500000, books 1e6
    src = np.where(ids % 5 == 0, "books", "crawl")
    t = pa.table({"doc_id": pa.array(ids), "source": pa.array(src)})
    ds = ray.data.from_arrow(t).repartition(7)
    counts = stratum_counts(ds, "source")
    assert counts == {"books": 2000, "crawl": 8000}
    rates = temperature_rates_ppm(counts, temperature=2.0)
    assert rates == {"books": 1_000_000, "crawl": 500_000}
    got = mixture_sample(ds, "doc_id", "source").to_pandas()
    want = hash_sample(
        ray.data.from_arrow(t), "doc_id", rate_ppm=1_000_000,
        strat_col="source", rates_ppm=rates,
    ).to_pandas()
    assert sorted(got["doc_id"]) == sorted(want["doc_id"])
    assert (got["source"] == "books").sum() == 2000  # smallest kept whole
    assert temperature_rates_ppm(counts, temperature=1.0) == {
        "books": 1_000_000, "crawl": 1_000_000,  # T=1 ⇒ keep all
    }
    hi_t = temperature_rates_ppm(counts, temperature=1e9)
    assert hi_t["crawl"] == 250_000  # T→∞ ⇒ rate mn/n equalizes sources


def test_quality_filter_reason_bits():
    """Each rule trips on a purpose-built document and the bits
    compose: a good doc keeps, a short doc sets bit 1, a long-word doc
    bit 2, a top-word-heavy doc bit 4 (+8 when also mostly dups), a
    dup-2gram doc bit 16."""
    from beamium_ray.datapipe.textstats import quality_filter_batch

    good = " ".join(f"word{i}" for i in range(30))
    short = "tiny doc here"
    longw = " ".join("x" * 40 for _ in range(25))
    topheavy = " ".join(["the"] * 10 + [f"w{i}" for i in range(20)])
    dup2g = " ".join(["a b"] * 15 + [f"u{i}" for i in range(20)])
    t = pa.table({
        "doc_id": pa.array(range(5), pa.int64()),
        "text": pa.array([good, short, longw, topheavy, dup2g]),
    })
    got = {r["doc_id"]: r for r in quality_filter_batch(t).to_pylist()}
    assert got[0] == {"doc_id": 0, "keep": 1, "reasons": 0}
    assert got[1]["reasons"] & 1
    assert got[2]["reasons"] & 2
    assert got[3]["reasons"] & 4
    assert got[4]["reasons"] & 16 and got[4]["keep"] == 0


def test_pack_offsets_prefix_sum(ray_session):
    """The packing index is the exact exclusive prefix sum in id order,
    independent of block splits, with sparse/skewed ids; seq_id/seq_off
    locate the doc's first token in fixed 2048-token sequences."""
    import ray.data

    from beamium_ray.datapipe.packing import pack_offsets

    rng = np.random.default_rng(3)
    # sparse, shuffled, gappy ids — range buckets must still order them
    ids = rng.permutation(np.arange(0, 30_000, 7, dtype=np.int64))
    n = rng.integers(0, 600, len(ids)).astype(np.int64)
    t = pa.table({"doc_id": pa.array(ids), "n_tok": pa.array(n)})
    out = pack_offsets(
        ray.data.from_arrow(t).repartition(11), seq_len=2048, count_col="n_tok"
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    o = np.argsort(ids, kind="stable")
    want_off = np.concatenate(([0], np.cumsum(n[o][:-1])))
    assert (out["doc_id"].to_numpy() == ids[o]).all()
    assert (out["offset"].to_numpy() == want_off).all()
    assert (out["seq_id"].to_numpy() == want_off // 2048).all()
    assert (out["seq_off"].to_numpy() == want_off % 2048).all()


def test_decontaminate_gram_overlap(ray_session):
    """A corpus doc sharing an 8-gram run with a benchmark doc is
    flagged; near-miss (7 shared words), short docs, and clean docs are
    not; grams never cross documents."""
    import ray.data

    from beamium_ray.datapipe.decontam import decontaminate

    shared = " ".join(f"s{i}" for i in range(8))
    bench = pa.table({
        "doc_id": pa.array([100], pa.int64()),
        "text": pa.array([f"pre {shared} post"]),
    })
    corpus = pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4, 5], pa.int64()),
        "text": pa.array([
            f"x y {shared} z",                      # full 8-gram → hit
            "s0 s1 s2 s3 s4 s5 s6 other words here",  # only 7 shared
            "completely different document text here with many words",
            "s3 s4",                                 # too short for grams
            f"pre {shared}",                        # 2 distinct bench grams
            f"{shared} q {shared}",                 # same gram twice → 1
        ]),
    })
    df = decontaminate(
        ray.data.from_arrow(corpus).repartition(2),
        ray.data.from_arrow(bench),
    ).to_pandas().set_index("doc_id")
    assert df["contaminated"].to_dict() == {0: 1, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1}
    assert df["n_bench_grams"].to_dict() == {0: 1, 1: 0, 2: 0, 3: 0, 4: 2, 5: 1}


def test_new_kernels_empty_blocks(ray_session):
    """Every round-3 kernel must survive the empty blocks Ray Data
    shuffles/filters produce (the ADVICE-r2 failure class)."""
    import ray.data

    from beamium_ray.datapipe.decontam import (
        _Decontaminate,
        benchmark_gram_set,
        gram_hashes_batch,
    )
    from beamium_ray.datapipe.packing import pack_offsets
    from beamium_ray.datapipe.sample import hash_sample
    from beamium_ray.datapipe.stats import (
        cms_cell_rows,
        hll_group_register_rows,
    )
    from beamium_ray.datapipe.textstats import (
        quality_filter_batch,
        repetition_stats_batch,
    )

    et = pa.table({
        "doc_id": pa.array([], pa.int64()),
        "text": pa.array([], pa.string()),
        "source": pa.array([], pa.string()),
    })
    assert repetition_stats_batch(et).num_rows == 0
    assert quality_filter_batch(et).num_rows == 0
    assert cms_cell_rows(et.select(["doc_id"]), "doc_id").num_rows == 0
    assert hll_group_register_rows(et, "source", "doc_id").num_rows == 0
    gh, rows = gram_hashes_batch(et)
    assert len(gh) == 0 and len(rows) == 0

    eds = ray.data.from_arrow(et)
    assert hash_sample(eds, key_col="doc_id").count() == 0
    assert benchmark_gram_set(eds).shape == (0,)
    assert pack_offsets(
        eds.map_batches(
            lambda b: pa.table({
                "doc_id": b["doc_id"],
                "n_tok": pa.array([], pa.int64()),
            }),
            batch_format="pyarrow", batch_size=None,
        ),
        count_col="n_tok",
    ).count() == 0


def test_repetition_stats_seeded_battery_vs_python():
    """500 adversarial random docs (double spaces → empty words,
    leading/trailing spaces, single chars) against a pure-Python
    string_split(' ') reference — the vectorized kernel must agree on
    every counter."""
    from beamium_ray.datapipe.textstats import repetition_stats_batch

    rng = np.random.default_rng(29)
    alphabet = list("ab ")  # 1/3 spaces → plenty of empty words
    docs = [
        "".join(rng.choice(alphabet, rng.integers(0, 25)))
        for _ in range(500)
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "text": pa.array(docs),
    })
    got = {r["doc_id"]: r for r in repetition_stats_batch(t).to_pylist()}
    for i, d in enumerate(docs):
        words = d.split(" ")  # every single space, like the SQL oracle
        from collections import Counter
        wc = Counter(words)
        grams = [
            (words[j], words[j + 1]) for j in range(len(words) - 1)
        ]
        want = {
            "doc_id": i,
            "n_words": len(words),
            "n_distinct_words": len(wc),
            "top_word_n": max(wc.values()),
            "n_2grams": len(grams),
            "n_dup_2grams": len(grams) - len(set(grams)),
        }
        assert got[i] == want, (i, repr(d), got[i], want)


def test_emit_packed_rows_reconstructs_stream(ray_session):
    """Emitted (seq_id, pos_in_seq, token) rows reconstruct the exact
    concatenated token stream in id order, independent of block splits,
    with variable-length docs crossing sequence boundaries."""
    import ray.data

    from beamium_ray.datapipe.packing import emit_packed_rows

    rng = np.random.default_rng(41)
    ids = rng.permutation(np.arange(0, 400, dtype=np.int64))
    lens = rng.integers(0, 30, len(ids))  # some zero-token docs
    toks = [rng.integers(0, 1000, l).tolist() for l in lens]
    t = pa.table({
        "ord": pa.array(ids),
        "tokens": pa.array(toks, pa.list_(pa.int64())),
    })
    out = emit_packed_rows(
        ray.data.from_arrow(t).repartition(7), id_col="ord", seq_len=16
    ).to_pandas()
    out = out.sort_values(["seq_id", "pos_in_seq"]).reset_index(drop=True)
    o = np.argsort(ids, kind="stable")
    stream = np.concatenate([np.array(toks[i], np.int64) for i in o if len(toks[i])])
    gp = np.arange(len(stream))
    assert (out["token"].to_numpy() == stream).all()
    assert (out["seq_id"].to_numpy() == gp // 16).all()
    assert (out["pos_in_seq"].to_numpy() == gp % 16).all()


def test_exact_dedup_tokens_order_and_collapse(ray_session):
    """Equal token arrays collapse across blocks to (min id, count);
    order matters ([a,b] != [b,a]); length matters ([x] != [x,x]);
    empty lists dedup among themselves; the content hash is block-split
    invariant."""
    import ray.data

    from beamium_ray.datapipe.dedup import (
        _TOKDEDUP_SALTS, exact_dedup_tokens, token_content_hash,
    )

    lists = [
        [1, 2, 3], [1, 2, 3],          # dup pair (ids 0,1)
        [3, 2, 1],                      # reversed → distinct
        [7], [7, 7],                    # length-sensitive
        [], [],                         # empty dup pair (ids 5,6)
        [1, 2, 3],                      # third copy (id 7)
    ]
    t = pa.table({
        "ord": pa.array(range(len(lists)), pa.int64()),
        "tokens": pa.array(lists, pa.list_(pa.int32())),
    })
    got = (
        exact_dedup_tokens(ray.data.from_arrow(t).repartition(4))
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    assert list(map(tuple, got.values)) == [
        (0, 3), (2, 1), (3, 1), (4, 1), (5, 2),
    ]
    (ps, ls), _ = _TOKDEDUP_SALTS
    h_all = token_content_hash(t["tokens"].combine_chunks(), ps, ls)
    h_tail = token_content_hash(
        t["tokens"].combine_chunks().slice(3), ps, ls
    )
    assert (h_all[3:] == h_tail).all()  # sliced-array offsets handled
    assert len(set(h_all[[0, 2, 3, 4, 5]].tolist())) == 5


def test_truncate_sequences_filter_and_clip(ray_session):
    """min_len drops short rows, max_len clips the rest in place,
    n_tok is rewritten (or created), sliced-array offsets are handled,
    and an all-dropped block keeps the schema."""
    import ray.data

    from beamium_ray.datapipe.packing import truncate_sequences

    t = pa.table({
        "ord": pa.array([0, 1, 2, 3], pa.int64()),
        "tokens": pa.array(
            [[1, 2, 3, 4, 5], [9], [7, 8], list(range(100))],
            pa.list_(pa.int32()),
        ),
        "n_tok": pa.array([5, 1, 2, 100], pa.int32()),
    })
    got = (
        truncate_sequences(
            ray.data.from_arrow(t).repartition(3),
            max_len=4, min_len=2,
        )
        .to_pandas().sort_values("ord").reset_index(drop=True)
    )
    assert got["ord"].tolist() == [0, 2, 3]
    assert [list(x) for x in got["tokens"]] == [
        [1, 2, 3, 4], [7, 8], [0, 1, 2, 3],
    ]
    assert got["n_tok"].tolist() == [4, 2, 4]
    # len_col created when absent
    no_len = truncate_sequences(
        ray.data.from_arrow(t.select(["ord", "tokens"])), max_len=3
    ).to_pandas().sort_values("ord")
    assert no_len["n_tok"].tolist() == [3, 1, 2, 3]
    # all rows dropped → empty output, Dataset schema intact
    # (to_pandas on an all-empty Dataset drops columns — Ray quirk,
    # so assert on the Dataset schema)
    empty = truncate_sequences(ray.data.from_arrow(t), min_len=1000)
    assert empty.count() == 0
    assert set(empty.schema().names) == {"ord", "tokens", "n_tok"}


def test_semantic_dedup_clusters_and_singletons(ray_session):
    """Near-identical embedding groups collapse to their min id through
    the full path (trained centroids -> within-cluster candidates ->
    exact cosine verify -> components); dissimilar vectors keep their
    own label; forcing the distributed verify route lands on identical
    labels."""
    import ray.data

    from beamium_ray.datapipe.dedup import semantic_dedup

    rng = np.random.default_rng(3)
    base = rng.normal(size=(4, 16))
    rows, ids = [], []
    vid = 0
    for g in range(4):
        copies = 3 if g < 2 else 1  # groups 0,1 have near-dups
        for c in range(copies):
            rows.append(base[g] + 0.001 * rng.normal(size=16))
            ids.append(vid)
            vid += 1
    t = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([r.tolist() for r in rows],
                              pa.list_(pa.float64())),
    })
    ds = ray.data.from_arrow(t).repartition(3)
    for cap in (2_000_000, 0):
        got = {
            r["doc_id"]: r["cluster"]
            for r in semantic_dedup(
                ds, n_clusters=4, threshold=0.95, max_broadcast_pairs=cap
            ).take_all()
        }
        assert got == {0: 0, 1: 0, 2: 0, 3: 3, 4: 3, 5: 3, 6: 6, 7: 7}, (
            cap, got,
        )


def test_train_centroids_distributed_recovers_clusters(ray_session):
    """Full-corpus Lloyd rounds recover 4 well-separated planted
    centers (every center matched at cos > 0.99); assignment quality
    beats-or-equals the sample-only trainer on a corpus whose first
    4096 rows are NOT representative (sample sees 2 of 4 clusters);
    semantic_dedup(train='distributed') still labels correctly."""
    import ray.data

    from beamium_ray.datapipe.dedup import semantic_dedup
    from beamium_ray.datapipe.similarity import (
        train_centroids_distributed,
    )

    rng = np.random.default_rng(11)
    true = rng.normal(size=(4, 16))
    true /= np.linalg.norm(true, axis=1, keepdims=True)
    # sorted by cluster: a 4096-row head sample sees only clusters 0-1
    per = 1200
    V, ids = [], []
    for g in range(4):
        V.append(true[g] + 0.02 * rng.normal(size=(per, 16)))
        ids.extend(range(g * per, (g + 1) * per))
    V = np.concatenate(V)
    t = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([v.tolist() for v in V],
                              pa.list_(pa.float64())),
    })
    ds = ray.data.from_arrow(t).repartition(6)
    cent = train_centroids_distributed(ds, n_lists=4, rounds=3)
    centu = cent / np.linalg.norm(cent, axis=1, keepdims=True)
    match = (centu @ true.T).max(axis=0)
    assert (match > 0.99).all(), match
    # end-to-end: EXACT copy planted in cluster 3 (threshold high
    # enough that no noisy cluster-mate pair can reach it)
    dup = pa.table({
        "vec_id": pa.array([99_000], pa.int64()),
        "embedding": pa.array([V[-1].tolist()], pa.list_(pa.float64())),
    })
    ds2 = ray.data.from_arrow(pa.concat_tables([t, dup])).repartition(5)
    labels = semantic_dedup(
        ds2, n_clusters=4, threshold=0.99999, train="distributed",
    ).to_pandas()
    lab = dict(zip(labels["doc_id"], labels["cluster"]))
    assert lab[99_000] == 4 * per - 1  # collapsed onto its source row


@pytest.mark.parametrize("train", ["sample", "distributed"])
def test_semantic_dedup_empty_corpus(ray_session, train):
    """An empty corpus (run_clean's stages before dedup_semantic may
    drop every doc) labels nothing instead of failing in the centroid
    trainer — the same answer minhash_dedup gives."""
    import ray.data

    from beamium_ray.datapipe.dedup import semantic_dedup

    t = pa.table({
        "vec_id": pa.array([], pa.int64()),
        "embedding": pa.array([], pa.list_(pa.float64())),
    })
    out = semantic_dedup(ray.data.from_arrow(t), n_clusters=4, train=train)
    assert out.count() == 0
    assert out.schema().names == ["doc_id", "cluster"]


def test_ivf_trainers_above_256_lists(ray_session):
    """The uint8 guard is for PQ codes only: both coarse-quantizer
    trainers (sample and distributed) return 300 centroids for 300
    lists, while PQ codebooks with k_sub=300 still refuse."""
    import ray.data

    from beamium_ray.datapipe.similarity import (
        train_centroids, train_centroids_distributed, train_pq_codebooks,
    )

    V = np.random.default_rng(7).normal(size=(600, 16))
    t = pa.table({
        "vec_id": pa.array(np.arange(600), pa.int64()),
        "embedding": pa.array([v.tolist() for v in V],
                              pa.list_(pa.float64())),
    })
    ds = ray.data.from_arrow(t).repartition(3)
    assert train_centroids(ds, n_lists=300).shape == (300, 16)
    assert train_centroids_distributed(
        ds, n_lists=300, rounds=1
    ).shape == (300, 16)
    with pytest.raises(ValueError, match="uint8"):
        train_pq_codebooks(V, k_sub=300)


def test_length_bucket_batches_ranks(ray_session):
    """Ranks are dense, start at 0 per length bucket, follow id order
    across range buckets and block splits; batch_idx = rank // size;
    a hot bucket spanning many range buckets still gets global ranks."""
    import ray.data

    from beamium_ray.datapipe.packing import length_bucket_batches

    rng = np.random.default_rng(5)
    ids = rng.permutation(200).astype(np.int64)
    n = np.where(ids % 3 == 0, 10, np.where(ids % 3 == 1, 25, 70))
    t = pa.table({"doc_id": pa.array(ids), "n_tok": pa.array(n, pa.int64())})
    got = (
        length_bucket_batches(
            ray.data.from_arrow(t).repartition(5),
            bucket_width=16, batch_size=4, num_buckets=7,
        )
        .to_pandas().sort_values(["len_bucket", "rank_in_bucket"])
    )
    for lb, g in got.groupby("len_bucket"):
        assert g["rank_in_bucket"].tolist() == list(range(len(g)))
        assert g["doc_id"].is_monotonic_increasing  # id order within bucket
        assert (g["batch_idx"] == g["rank_in_bucket"] // 4).all()
        assert (g["n_tok"] // 16 == lb).all()
    assert len(got) == 200


def test_review_fixes_sampling_and_batching(ray_session):
    """Round-3 review regressions: temperature<1 raises (silent
    keep-everything otherwise); token_rarity treats out-of-histogram
    tokens as count 0 instead of IndexError; length_bucket_batches
    emits ONE schema (int64 ids) even for int32 inputs with empty
    groupby blocks; _block_head_sample's quota derives from the block
    count (no limit() starvation)."""
    import ray.data

    from beamium_ray.datapipe.sample import temperature_rates_ppm
    from beamium_ray.datapipe.stats import token_rarity
    from beamium_ray.datapipe.packing import length_bucket_batches
    from beamium_ray.datapipe.similarity import _block_head_sample

    with pytest.raises(ValueError, match="temperature"):
        temperature_rates_ppm({"a": 10}, temperature=0.5)

    # OOV tokens (id 9 absent from the supplied histogram) score 0
    corpus = pa.table({
        "ord": pa.array([0, 1], pa.int64()),
        "tokens": pa.array([[1, 9], [9]], pa.list_(pa.int32())),
    })
    hist = ray.data.from_arrow(pa.table({
        "token": pa.array([1], pa.int64()),
        "n": pa.array([7], pa.int64()),
    }))
    got = token_rarity(
        ray.data.from_arrow(corpus), histogram=hist
    ).to_pandas().set_index("ord")["freq_sum"].to_dict()
    assert got == {0: 7, 1: 0}

    # int32 ids + a forced empty groupby block → uniform int64 schema
    t32 = pa.table({
        "doc_id": pa.array(range(50), pa.int32()),
        "n_tok": pa.array([5] * 50, pa.int32()),
    })
    out = length_bucket_batches(
        ray.data.from_arrow(t32).repartition(4),
        bucket_width=4, batch_size=8, num_buckets=3,
    )
    sch = out.schema()
    assert dict(zip(sch.names, sch.types))["doc_id"] == pa.int64()
    df = out.to_pandas()
    assert sorted(df["rank_in_bucket"]) == list(range(50))

    # per-block quota: 10 blocks, sample_size=5 → 1 head per block
    v = pa.table({
        "embedding": pa.array(
            [[float(i), 1.0] for i in range(100)], pa.list_(pa.float64())
        )
    })
    mat = ray.data.from_arrow(v).repartition(10).materialize()
    S = _block_head_sample(mat, "embedding", sample_size=5)
    assert len(S) == 10  # every block contributes, none starved


def test_drop_frequent_chunks_boilerplate(ray_session):
    """Chunks occurring more than max_occurrences times vanish from
    EVERY doc (not just non-first copies), survivors rejoin in order,
    a fully-boilerplate doc becomes '', and unique docs pass through
    unchanged — across block splits."""
    import ray.data

    from beamium_ray.datapipe.dedup import drop_frequent_chunks

    bp = " ".join(f"b{i}" for i in range(10))  # one exact 10-word chunk
    u = [" ".join(f"u{d}w{i}" for i in range(10)) for d in range(4)]
    t = pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array([
            f"{bp} {u[0]}",   # boilerplate + unique tail
            f"{bp} {u[1]}",   # boilerplate + unique tail
            bp,               # pure boilerplate → ''
            u[3],             # untouched
        ]),
    })
    got = (
        drop_frequent_chunks(
            ray.data.from_arrow(t).repartition(3),
            words_per_chunk=10, max_occurrences=1,
        )
        .to_pandas().set_index("doc_id")["text_clean"].to_dict()
    )
    assert got == {0: u[0], 1: u[1], 2: "", 3: u[3]}


def test_drop_contaminated_filters_rows(ray_session):
    """The composable filter form keeps clean rows with ALL original
    columns and drops any row sharing an 8-gram with the benchmark."""
    import ray.data

    from beamium_ray.datapipe.decontam import drop_contaminated

    shared = " ".join(f"s{i}" for i in range(8))
    bench = pa.table({
        "doc_id": pa.array([100], pa.int64()),
        "text": pa.array([f"pre {shared} post"]),
    })
    corpus = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array([f"x {shared} y", "totally clean words here"]),
        "source": pa.array(["a", "b"]),
    })
    got = drop_contaminated(
        ray.data.from_arrow(corpus).repartition(2),
        ray.data.from_arrow(bench),
    ).to_pandas()
    assert got["doc_id"].tolist() == [1]
    assert set(got.columns) == {"doc_id", "text", "source"}


def test_decontaminate_tokens_gram_overlap(ray_session):
    """A corpus sequence sharing an 8-token gram with a benchmark
    sequence is flagged with the right distinct count; 7-token overlap,
    short rows and clean rows are not; grams never cross rows."""
    import ray.data

    from beamium_ray.datapipe.decontam import decontaminate_tokens

    shared = list(range(100, 108))  # 8 tokens
    bench = pa.table({
        "ord": pa.array([999], pa.int64()),
        "tokens": pa.array([[1] + shared + [2]], pa.list_(pa.int32())),
    })
    corpus = pa.table({
        "ord": pa.array([0, 1, 2, 3], pa.int64()),
        "tokens": pa.array([
            [7, 7] + shared,          # full gram → hit (1 distinct)
            shared[:7] + [55, 56],    # only 7 shared
            [9, 9, 9, 9, 9, 9, 9, 9], # clean
            shared[:4],               # too short
        ], pa.list_(pa.int32())),
    })
    got = decontaminate_tokens(
        ray.data.from_arrow(corpus).repartition(2),
        ray.data.from_arrow(bench),
    ).to_pandas().set_index("ord")
    assert got["contaminated"].to_dict() == {0: 1, 1: 0, 2: 0, 3: 0}
    assert got["n_bench_grams"].to_dict() == {0: 1, 1: 0, 2: 0, 3: 0}


def test_review_fixes_chunks_and_token_nulls(ray_session):
    """Second-review regressions: null token lists don't crash the
    token decontaminator (count 0); _DropChunks keeps rows separate
    even with duplicate ids (chunk_idx boundaries, not id changes),
    honors a custom id_col name, and passes text through untouched
    when no chunk is frequent."""
    import ray.data

    from beamium_ray.datapipe.decontam import decontaminate_tokens
    from beamium_ray.datapipe.dedup import drop_frequent_chunks

    bench = pa.table({
        "ord": pa.array([9], pa.int64()),
        "tokens": pa.array([list(range(8))], pa.list_(pa.int32())),
    })
    corpus = pa.table({
        "ord": pa.array([0, 1], pa.int64()),
        "tokens": pa.array([list(range(8)), None], pa.list_(pa.int32())),
    })
    got = decontaminate_tokens(
        ray.data.from_arrow(corpus), ray.data.from_arrow(bench)
    ).to_pandas().set_index("ord")
    assert got["contaminated"].to_dict() == {0: 1, 1: 0}

    bp = " ".join(f"b{i}" for i in range(10))
    ua = " ".join(f"a{i}" for i in range(10))
    ub = " ".join(f"c{i}" for i in range(10))
    dup_ids = pa.table({
        "id": pa.array([5, 5, 6], pa.int64()),  # duplicate ids, one block
        "text": pa.array([f"{bp} {ua}", ub, bp]),
    })
    got = drop_frequent_chunks(
        ray.data.from_arrow(dup_ids), id_col="id",
        words_per_chunk=10, max_occurrences=1,
    ).to_pandas()
    assert list(got.columns) == ["id", "text_clean"]
    assert got["text_clean"].tolist() == [ua, ub, ""]

    # empty frequent set → identity passthrough
    uniq = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array([ua, ub]),
    })
    got = drop_frequent_chunks(
        ray.data.from_arrow(uniq), max_occurrences=5
    ).to_pandas()
    assert got["text_clean"].tolist() == [ua, ub]


def test_split_sequences_and_assign_splits(ray_session):
    """split_sequences: lossless ≤max_len parts in order (incl. exact
    multiples, short rows, empty/null rows), zero tokens lost;
    assign_splits: disjoint labels, deterministic across block splits,
    fractions must sum to 1e6."""
    import ray.data

    from beamium_ray.datapipe.packing import split_sequences
    from beamium_ray.datapipe.sample import assign_splits

    lists = [list(range(7)), list(range(4)), [], list(range(8)), None]
    t = pa.table({
        "ord": pa.array(range(5), pa.int64()),
        "tokens": pa.array(lists, pa.list_(pa.int32())),
    })
    got = (
        split_sequences(
            ray.data.from_arrow(t).repartition(3), max_len=4
        ).to_pandas().sort_values(["ord", "part"]).reset_index(drop=True)
    )
    rows = [
        (r["ord"], r["part"], list(r["tokens"]), r["n_tok"])
        for _, r in got.iterrows()
    ]
    assert rows == [
        (0, 0, [0, 1, 2, 3], 4), (0, 1, [4, 5, 6], 3),
        (1, 0, [0, 1, 2, 3], 4),
        (2, 0, [], 0),
        (3, 0, [0, 1, 2, 3], 4), (3, 1, [4, 5, 6, 7], 4),
        (4, 0, [], 0),
    ]

    n = 10_000
    ids = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64))})
    fr = {"train": 900_000, "val": 50_000, "test": 50_000}
    a = assign_splits(
        ray.data.from_arrow(ids).repartition(1), "doc_id", fr
    ).to_pandas()
    b = assign_splits(
        ray.data.from_arrow(ids).repartition(9), "doc_id", fr
    ).to_pandas()
    assert (
        a.sort_values("doc_id")["split"].tolist()
        == b.sort_values("doc_id")["split"].tolist()
    )
    frac = a["split"].value_counts(normalize=True)
    assert abs(frac["train"] - 0.9) < 0.02
    assert abs(frac["val"] - 0.05) < 0.01
    with pytest.raises(ValueError, match="sum"):
        assign_splits(ray.data.from_arrow(ids), "doc_id", {"a": 1})


def test_run_clean_pipeline_e2e(ray_session, tmp_path):
    """The config-driven cleaning pipeline end to end: quality filter,
    exact dedup, decontamination, split assignment compose into one
    run; output parquet is partitioned by split; -t validates bad
    configs without Ray."""
    import pyarrow.parquet as pq
    import ray.data

    from beamium_ray.pipelines.clean import (
        CleanConfig, build_clean_pipeline, run_clean,
    )

    # words ≥4 chars so the Gopher mean-word-length rule passes
    good = " ".join(f"word{i}" for i in range(30))
    dup = " ".join(f"dupw{i}" for i in range(25))
    contaminated = " ".join(f"shared{i}" for i in range(24))
    docs = pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": pa.array([
            good,            # survives
            "too short",     # quality-dropped
            dup, dup,        # dedup keeps id 2 only
            contaminated,    # shares an 8-gram with the benchmark
            good + " tail words here",  # survives
        ]),
        "source": pa.array(["a"] * 6),
    })
    bench = pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "text": pa.array([" ".join(f"shared{i}" for i in range(8))]),
    })
    inp, bpath, out = tmp_path / "in", tmp_path / "bench", tmp_path / "out"
    import os
    os.makedirs(inp); os.makedirs(bpath)
    pq.write_table(docs, f"{inp}/part.parquet")
    pq.write_table(bench, f"{bpath}/part.parquet")

    cfg = CleanConfig(
        input=str(inp),
        output=str(out),
        stages=[
            {"quality_filter": {"min_words": 20}},
            {"redact_pii": None},
            {"dedup_exact": None},
            {"decontaminate": {"benchmark": f"{bpath}/part.parquet"}},
            {"assign_splits": {"fractions_ppm":
                               {"train": 500_000, "val": 500_000}}},
        ],
    )
    res = run_clean(cfg)
    assert res["rows_in"] == 6
    assert res["rows_out"] == 3  # good, dup-rep(2), good+tail
    assert res["partitioned_by_split"]
    got = ray.data.read_parquet(str(out)).to_pandas()
    assert sorted(got["doc_id"]) == [0, 2, 5]
    assert set(got["split"]) <= {"train", "val"}

    # validation catches unknown stages / missing benchmark
    bad = CleanConfig(input="x", output="y", stages=[{"nope": None}])
    with pytest.raises(ValueError, match="unknown stage"):
        bad.validate()
    bad2 = CleanConfig(input="x", output="y",
                       stages=[{"decontaminate": {}}])
    with pytest.raises(ValueError, match="benchmark"):
        bad2.validate()


def test_run_clean_sharded_resume(ray_session, tmp_path):
    """Sharded clean runs: per-shard atomic manifests, skip-on-rerun,
    crash-residue sweep, one-shot row equality for shard-safe stages,
    cross-doc refusal, and config-change refusal."""
    import os

    import pyarrow.parquet as pq
    import ray.data

    from beamium_ray.pipelines.clean import (
        CleanConfig, run_clean, run_clean_sharded,
    )

    inp = tmp_path / "in"
    os.makedirs(inp)
    text = " ".join(f"word{i}" for i in range(30))
    for f in range(4):
        pq.write_table(
            pa.table({
                "doc_id": pa.array(range(f * 10, f * 10 + 10), pa.int64()),
                "text": pa.array(
                    [text if i % 2 == 0 else "too short" for i in range(10)]
                ),
                "source": pa.array(["a"] * 10),
            }),
            f"{inp}/part{f}.parquet",
        )
    stages = [
        {"quality_filter": {"min_words": 20}},
        {"assign_splits": {"fractions_ppm":
                           {"train": 800000, "val": 200000}}},
    ]

    out = tmp_path / "out_sharded"
    res = run_clean_sharded(
        CleanConfig(input=str(inp), output=str(out), stages=stages),
        files_per_shard=2,
    )
    assert res["shards"] == 2 and res["shards_run"] == 2
    assert res["rows_in"] == 40 and res["rows_out"] == 20

    # row-for-row equal to the one-shot run (shard-safe stages only)
    out1 = tmp_path / "out_oneshot"
    run_clean(CleanConfig(input=str(inp), output=str(out1), stages=stages))

    def rows(p):
        t = ray.data.read_parquet(str(p)).take_all()
        return sorted((r["doc_id"], r["split"]) for r in t)

    assert rows(out) == rows(out1)

    # rerun: everything skips, committed manifests untouched
    sdir = out / "_shards"
    manifests = sorted(f for f in os.listdir(sdir) if not f.startswith("_"))
    mtimes = {f: os.path.getmtime(sdir / f) for f in manifests}
    res2 = run_clean_sharded(
        CleanConfig(input=str(inp), output=str(out), stages=stages),
        files_per_shard=2,
    )
    assert res2["shards_run"] == 0 and res2["shards_skipped"] == 2
    assert res2["rows_out"] == 20
    assert all(os.path.getmtime(sdir / f) == m for f, m in mtimes.items())

    # crash residue: a shard dir without its manifest is swept + redone
    victim = manifests[0]
    fp = victim[:-5]
    os.remove(sdir / victim)
    with open(out / f"shard={fp}" / "garbage.parquet", "wb") as f:
        f.write(b"not parquet")
    res3 = run_clean_sharded(
        CleanConfig(input=str(inp), output=str(out), stages=stages),
        files_per_shard=2,
    )
    assert res3["shards_run"] == 1 and res3["shards_skipped"] == 1
    assert rows(out) == rows(out1)

    # cross-document stage: refused unless explicitly allowed
    cross = CleanConfig(
        input=str(inp), output=str(tmp_path / "out_x"),
        stages=[{"dedup_exact": None}],
    )
    with pytest.raises(ValueError, match="cross-document"):
        run_clean_sharded(cross, files_per_shard=2)
    resx = run_clean_sharded(
        cross, files_per_shard=2, allow_within_shard=True
    )
    assert resx["shards_run"] == 2 and resx["rows_out"] == 4

    # semantic config change over a committed dir: refused
    with pytest.raises(RuntimeError, match="different pipeline"):
        run_clean_sharded(
            CleanConfig(input=str(inp), output=str(out),
                        stages=[{"quality_filter": {"min_words": 5}}]),
            files_per_shard=2,
        )

    # input regrouping: stale committed shards are swept, never
    # double-counted by a reader of the output dir
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(100, 110), pa.int64()),
            "text": pa.array([text] * 10),
            "source": pa.array(["a"] * 10),
        }),
        f"{inp}/part4.parquet",
    )
    # appended file: old groupings keep their fingerprints (skipped),
    # only the new shard runs
    res4 = run_clean_sharded(
        CleanConfig(input=str(inp), output=str(out), stages=stages),
        files_per_shard=2,
    )
    assert res4["shards"] == 3 and res4["shards_run"] == 1
    assert res4["shards_skipped"] == 2 and res4["shards_swept"] == 0
    assert res4["rows_in"] == 50 and res4["rows_out"] == 30
    # regrouping (files_per_shard changed): every old shard is stale —
    # swept (manifest + dir each), rerun under the new grouping
    res5 = run_clean_sharded(
        CleanConfig(input=str(inp), output=str(out), stages=stages),
        files_per_shard=3,
    )
    assert res5["shards"] == 2 and res5["shards_run"] == 2
    assert res5["shards_swept"] == 6  # 3 stale manifests + 3 stale dirs
    assert res5["rows_out"] == 30
    assert ray.data.read_parquet(str(out)).count() == 30  # no stale rows

    # a non-empty NON-sharded output dir is refused (mixing guard)
    with pytest.raises(RuntimeError, match="not a sharded"):
        run_clean_sharded(
            CleanConfig(input=str(inp), output=str(out1), stages=stages),
            files_per_shard=2,
        )


def test_run_clean_dedup_minhash_stage(ray_session, tmp_path):
    """The near-dup stage keeps one representative per verified minhash
    cluster inside the composed pipeline."""
    import os

    import pyarrow.parquet as pq

    from beamium_ray.pipelines.clean import CleanConfig, run_clean

    base = "the quick brown fox jumps over the lazy dog " * 3
    near = base.replace("lazy", "sleepy")
    docs = pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array([base, near, "completely different words " * 6,
                          base]),
    })
    inp, out = tmp_path / "in", tmp_path / "out"
    os.makedirs(inp)
    pq.write_table(docs, f"{inp}/d.parquet")
    res = run_clean(CleanConfig(
        input=str(inp), output=str(out),
        stages=[{"dedup_minhash": {"verify_threshold": 0.5}}],
    ))
    assert res["rows_in"] == 4
    assert res["rows_out"] == 2  # cluster {0,1,3} -> rep 0; unique doc


def test_clean_stage_composition_fixes(ray_session, tmp_path):
    """Fourth-review regressions: drop_boilerplate(replace) preserves
    all columns through the composed pipeline (split partitioning after
    it works); chained sampling stages draw with independent salts
    (uniform second-stage rates apply to survivors, not collapse to
    min(rate1, rate2)); dataset_report honors a custom id_col."""
    import os

    import pyarrow.parquet as pq
    import ray.data

    from beamium_ray.datapipe.textstats import dataset_report
    from beamium_ray.pipelines.clean import CleanConfig, run_clean

    bp = " ".join(f"bword{i}" for i in range(10))
    docs = pa.table({
        "doc_id": pa.array(range(400), pa.int64()),
        "text": pa.array([
            f"{bp} " + " ".join(f"uniq{d}w{i}" for i in range(25))
            for d in range(400)
        ]),
        "source": pa.array(["a"] * 400),
    })
    inp, out = tmp_path / "in", tmp_path / "out"
    os.makedirs(inp)
    pq.write_table(docs, f"{inp}/d.parquet")
    res = run_clean(CleanConfig(
        input=str(inp), output=str(out),
        stages=[
            {"drop_boilerplate": {"max_occurrences": 1}},
            {"sample": {"rate_ppm": 500_000}},
            {"sample": {"rate_ppm": 500_000}},
            {"assign_splits": {"fractions_ppm":
                               {"train": 500_000, "val": 500_000}}},
        ],
    ))
    # independent draws: two 50% samples ≈ 25% (one shared salt would
    # give 50%); splits ≈ half each (correlated would give all-train)
    assert 60 <= res["rows_out"] <= 140, res
    got = ray.data.read_parquet(str(out)).to_pandas()
    assert {"doc_id", "text", "source", "split"} <= set(got.columns)
    assert bp not in got["text"].iloc[0]  # boilerplate actually removed
    assert got["split"].nunique() == 2

    # dataset_report with a custom id column name
    t2 = pa.table({
        "id": pa.array([1], pa.int64()),
        "body": pa.array([" ".join(f"word{i}" for i in range(25))]),
        "src": pa.array(["x"]),
    })
    rep = dataset_report(
        ray.data.from_arrow(t2), strat_col="src",
        text_col="body", id_col="id",
    ).to_pandas()
    assert rep["n_tok_ws"].tolist() == [25]


def test_redact_pii_rules():
    """Emails, IPv4s and phone-shaped numbers are replaced in place
    (all other columns untouched); clean text passes through; rules
    apply sequentially."""
    from beamium_ray.datapipe.textstats import redact_pii_batch

    t = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([
            "mail a.b+c@ex-ample.org or ping 192.168.0.1 or 555-123-4567",
            "no pii here at all",
            "edge 1.2.3.4.5 and version 1.2 stay partial",
        ]),
        "source": pa.array(["s"] * 3),
    })
    got = redact_pii_batch(t)
    assert got["text"].to_pylist() == [
        "mail <EMAIL> or ping <IP> or <PHONE>",
        "no pii here at all",
        "edge <IP>.5 and version 1.2 stay partial",
    ]
    assert got["source"].to_pylist() == ["s"] * 3


def test_run_clean_dedup_semantic_stage(ray_session, tmp_path):
    """The SemDeDup stage keeps one representative per semantic group
    inside the composed pipeline (embedding column supplied)."""
    import os

    import pyarrow.parquet as pq

    from beamium_ray.pipelines.clean import CleanConfig, run_clean

    rng = np.random.default_rng(2)
    base = rng.normal(size=(2, 12))
    rows = [base[0], base[0] + 1e-4 * rng.normal(size=12), base[1]]
    docs = pa.table({
        "doc_id": pa.array(range(3), pa.int64()),
        "text": pa.array(["a", "b", "c"]),
        "embedding": pa.array([r.tolist() for r in rows],
                              pa.list_(pa.float64())),
    })
    inp, out = tmp_path / "in", tmp_path / "out"
    os.makedirs(inp)
    pq.write_table(docs, f"{inp}/d.parquet")
    res = run_clean(CleanConfig(
        input=str(inp), output=str(out),
        stages=[{"dedup_semantic":
                 {"n_clusters": 2, "threshold": 0.999}}],
    ))
    assert res["rows_out"] == 2  # near-identical pair collapsed


def test_run_clean_tokenize_stage(ray_session, tmp_path):
    """tokenize stage: BPE ids in the canonical sequence shape, other
    columns (split) preserved so the partitioned write still works."""
    import pyarrow.parquet as pq_

    from beamium_ray.datapipe.bpe import build_vocab, default_merges, encode_word
    from beamium_ray.pipelines.clean import CleanConfig, run_clean

    src = tmp_path / "in"
    src.mkdir()
    pq_.write_table(
        pa.table(
            {
                "doc_id": pa.array([1, 2], pa.int64()),
                "text": pa.array(["table value table", "big query"]),
                "source": pa.array(["web", "code"]),
            }
        ),
        src / "d.parquet",
    )
    out = tmp_path / "out"
    res = run_clean(
        CleanConfig(
            input=str(src),
            output=str(out),
            stages=[{"assign_splits": None}, {"tokenize": None}],
        )
    )
    assert res["rows_out"] == 2
    got = pq_.read_table(str(out)).sort_by("doc_id")
    assert "text" not in got.column_names  # keep_text defaults off
    assert set(got.column_names) >= {"doc_id", "source", "split",
                                     "tokens", "n_tok"}
    merges = default_merges()
    vocab = build_vocab(merges)
    ranks = {p: i for i, p in enumerate(merges)}
    want = [
        vocab[s]
        for w in "table value table".split()
        for s in encode_word(w, ranks)
    ]
    assert got["tokens"].to_pylist()[0] == want
    assert got["n_tok"].to_pylist()[0] == len(want)


def test_run_clean_tokenize_truncate_pack(ray_session, tmp_path):
    """Terminal pack stage: tokenize -> truncate -> pack emits the
    (seq_id, pos_in_seq, token) training stream; validation rejects
    pack anywhere but last and pack+assign_splits."""
    import pyarrow.parquet as pq_

    from beamium_ray.pipelines.clean import CleanConfig, run_clean

    src = tmp_path / "in"
    src.mkdir()
    pq_.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "text": pa.array(
                    ["table value", "big query window", "row"]
                ),
            }
        ),
        src / "d.parquet",
    )
    out = tmp_path / "out"
    res = run_clean(
        CleanConfig(
            input=str(src),
            output=str(out),
            stages=[
                {"tokenize": None},
                {"truncate": {"max_len": 4}},
                {"pack": {"seq_len": 3, "id_col": "doc_id"}},
            ],
        )
    )
    got = pq_.read_table(str(out)).sort_by(
        [("seq_id", "ascending"), ("pos_in_seq", "ascending")]
    )
    assert set(got.column_names) == {
        "seq_id", "pos_in_seq", "token", "src_id"
    }
    n = got.num_rows
    assert res["rows_out"] == n and n > 0
    # the packed stream is dense: positions cycle 0..seq_len-1
    pos = got["pos_in_seq"].to_pylist()
    assert pos == [i % 3 for i in range(n)]

    with pytest.raises(ValueError, match="LAST stage"):
        CleanConfig(
            input=str(src), output=str(out),
            stages=[{"pack": None}, {"tokenize": None}],
        ).validate()
    with pytest.raises(ValueError, match="assign_splits"):
        CleanConfig(
            input=str(src), output=str(out),
            stages=[{"assign_splits": None}, {"pack": None}],
        ).validate()


def test_cap_per_key_threshold_semantics(ray_session):
    """cap_per_key keeps exactly the cap lowest (h, id) docs per key,
    leaves under-cap keys untouched, and never ships the payload."""
    import ray.data

    from beamium_ray.datapipe.sample import CAP_SALT, cap_per_key
    from beamium_ray.functions.hashing import splitmix64

    n = 900
    ids = np.arange(n, dtype=np.int64)
    keys = np.where(ids < 600, "hot", np.where(ids < 880, "warm", "tiny"))
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(ids),
                "source": pa.array(keys.tolist()),
                "text": pa.array(["payload"] * n),
            }
        )
    )
    out = pa.concat_tables(
        list(
            cap_per_key(ds, key_col="source", cap=100, id_col="doc_id")
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
    )
    h = splitmix64(ids.astype(np.uint64) ^ np.uint64(CAP_SALT))
    want: set = set()
    for k in ("hot", "warm", "tiny"):
        rows = np.flatnonzero(keys == k)
        order = rows[np.lexsort((ids[rows], h[rows]))]
        want |= set(ids[order[:100]].tolist())
    assert set(out["doc_id"].to_pylist()) == want
    from collections import Counter

    c = Counter(out["source"].to_pylist())
    assert c == {"hot": 100, "warm": 100, "tiny": 20}
    # other columns pass through
    assert set(out.column_names) == {"doc_id", "source", "text"}
    with pytest.raises(ValueError, match="cap"):
        cap_per_key(ds, cap=0)


def test_shuffle_order_global_rank(ray_session):
    """shuffle_order emits a 0..n-1 permutation equal to the lexsort
    rank of (splitmix64(id ^ salt), id), across bucket counts."""
    import ray.data

    from beamium_ray.datapipe.sample import SHUFFLE_SALT, shuffle_order
    from beamium_ray.functions.hashing import splitmix64

    ids = np.arange(777, dtype=np.int64) * 13 + 5  # sparse, unordered ids
    ds = ray.data.from_arrow(pa.table({"doc_id": pa.array(ids)}))
    h = splitmix64(ids.astype(np.uint64) ^ np.uint64(SHUFFLE_SALT))
    order = np.lexsort((ids, h))
    want = dict(zip(ids[order].tolist(), range(len(ids))))
    for nb in (2, 7, 32):
        out = pa.concat_tables(
            list(
                shuffle_order(ds, id_col="doc_id", num_buckets=nb)
                .iter_batches(batch_format="pyarrow", batch_size=None)
            )
        )
        got = dict(
            zip(out["doc_id"].to_pylist(), out["shuffle_pos"].to_pylist())
        )
        assert got == want, nb


def test_run_clean_cap_and_shuffle_stages(ray_session, tmp_path):
    """cap_per_key and shuffle compose in the cleaning CLI: caps apply
    per source, and the output order is the deterministic salted-hash
    permutation (matching sample.shuffle_order)."""
    import os

    import pyarrow.parquet as pq
    import ray.data

    from beamium_ray.datapipe.sample import SHUFFLE_SALT
    from beamium_ray.functions.hashing import splitmix64
    from beamium_ray.pipelines.clean import CleanConfig, run_clean

    n = 40
    ids = np.arange(n, dtype=np.int64)
    docs = pa.table(
        {
            "doc_id": pa.array(ids),
            "text": pa.array(
                [" ".join(f"word{i}x{j}" for j in range(25)) for i in ids]
            ),
            "source": pa.array((["a"] * 30) + (["b"] * 10)),
        }
    )
    inp, out = tmp_path / "in", tmp_path / "out"
    os.makedirs(inp)
    pq.write_table(docs, f"{inp}/part.parquet")
    res = run_clean(
        CleanConfig(
            input=str(inp),
            output=str(out),
            stages=[
                {"cap_per_key": {"key_col": "source", "cap": 12}},
                {"shuffle": None},
            ],
        )
    )
    assert res["rows_out"] == 22  # a capped to 12, b kept whole (10)
    got = ray.data.read_parquet(str(out)).to_pandas()
    assert got["source"].value_counts().to_dict() == {"a": 12, "b": 10}
    # each written file holds one sorted block: rows inside a file
    # must follow the salted-hash (shuffle_order) permutation
    files = sorted(
        f for f in os.listdir(out) if f.endswith(".parquet")
    )
    assert files
    for f in files:
        ids_f = pq.read_table(os.path.join(out, f))["doc_id"].to_numpy()
        h = splitmix64(ids_f.astype(np.uint64) ^ np.uint64(SHUFFLE_SALT))
        assert np.all(h[:-1] <= h[1:]), f


def test_token_budget_per_key_semantics(ray_session):
    """Docs admitted in salted-hash order while the key's running sum
    stays ≤ budget; the crossing doc drops; a doc bigger than the
    whole budget drops its key entirely; under-budget keys untouched."""
    import ray.data

    from beamium_ray.datapipe.sample import (
        CAP_SALT, token_budget_per_key,
    )
    from beamium_ray.functions.hashing import splitmix64

    ids = np.arange(60, dtype=np.int64)
    keys = np.where(ids < 40, "big", np.where(ids < 55, "fits", "huge"))
    n = np.where(ids < 40, 10, np.where(ids < 55, 1, 1000)).astype(np.int64)
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(ids),
                "source": pa.array(keys.tolist()),
                "n_tok": pa.array(n),
            }
        )
    )
    out = pa.concat_tables(
        list(
            token_budget_per_key(
                ds, key_col="source", budget=100, count_col="n_tok"
            ).iter_batches(batch_format="pyarrow", batch_size=None)
        )
    )
    h = splitmix64(ids.astype(np.uint64) ^ np.uint64(CAP_SALT))
    want: set = set()
    for k in ("big", "fits", "huge"):
        rows = np.flatnonzero(keys == k)
        order = rows[np.lexsort((ids[rows], h[rows]))]
        cum = np.cumsum(n[order])
        want |= set(ids[order[: int(np.searchsorted(cum, 100, "right"))]].tolist())
    assert set(out["doc_id"].to_pylist()) == want
    from collections import Counter

    c = Counter(out["source"].to_pylist())
    assert c["big"] == 10      # 10 docs × 10 tokens fill the budget
    assert c["fits"] == 15     # whole key under budget
    assert "huge" not in c     # every doc alone exceeds the budget
    with pytest.raises(ValueError, match="budget"):
        token_budget_per_key(ds, budget=0)


def test_minhash_tokens_shingles(ray_session):
    """shingles='tokens': near-identical token arrays (2 of 30 tokens
    changed, J = 21/25 = 0.84) merge at tau=0.8; disjoint arrays stay
    apart; a 0.84-J pair is decided by exact token-gram verify, and
    the distributed route lands on identical clusters."""
    import ray.data

    from beamium_ray.datapipe.dedup import minhash_dedup

    rng = np.random.default_rng(13)
    a = rng.integers(100, 50000, size=30).tolist()
    near = a[:28] + rng.integers(100, 50000, size=2).tolist()
    other = rng.integers(100, 50000, size=30).tolist()
    # J(a, near): shared 8-grams at positions 0..20 (21), each has 23
    # grams -> 21/25 = 0.84 >= 0.8; J(a, other) = 0
    t = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "tokens": pa.array([a, near, other], pa.list_(pa.int32())),
        }
    )
    for cap in (2_000_000, 0):
        out = minhash_dedup(
            ray.data.from_arrow(t), text_col="tokens", id_col="doc_id",
            k=8, verify_threshold=0.8, shingles="tokens",
            max_broadcast_pairs=cap,
        )
        got = {
            r["doc_id"]: r["cluster"]
            for b in out.iter_batches(batch_format="pyarrow")
            for r in b.to_pylist()
        }
        assert got == {0: 0, 1: 0, 2: 2}


def test_minhash_tokens_subthreshold_rejected(ray_session):
    """A token pair just UNDER tau must be rejected by the exact
    verify even when banding proposes it: 4 of 20 tokens changed ->
    shared grams 9, each 13 -> J = 9/17 = 0.53 < 0.8."""
    import ray.data

    from beamium_ray.datapipe.dedup import minhash_dedup

    rng = np.random.default_rng(17)
    a = rng.integers(100, 50000, size=20).tolist()
    low = a[:16] + rng.integers(100, 50000, size=4).tolist()
    t = pa.table(
        {
            "doc_id": pa.array([0, 1], pa.int64()),
            "tokens": pa.array([a, low], pa.list_(pa.int32())),
        }
    )
    out = minhash_dedup(
        ray.data.from_arrow(t), text_col="tokens", id_col="doc_id",
        k=8, verify_threshold=0.8, shingles="tokens",
    )
    got = {
        r["doc_id"]: r["cluster"]
        for b in out.iter_batches(batch_format="pyarrow")
        for r in b.to_pylist()
    }
    assert got == {0: 0, 1: 1}


def test_run_clean_dedup_minhash_tokens_stage(ray_session, tmp_path):
    """dedup_minhash stage with shingles=tokens: near-dup token arrays
    collapse to the representative after a pre-tokenized input."""
    import pyarrow.parquet as pq_

    from beamium_ray.pipelines.clean import CleanConfig, run_clean

    rng = np.random.default_rng(23)
    a = rng.integers(100, 50000, size=30).tolist()
    near = a[:28] + rng.integers(100, 50000, size=2).tolist()
    other = rng.integers(100, 50000, size=30).tolist()
    src = tmp_path / "in"
    src.mkdir()
    pq_.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], pa.int64()),
                "tokens": pa.array(
                    [a, near, other], pa.list_(pa.int32())
                ),
            }
        ),
        src / "d.parquet",
    )
    out = tmp_path / "out"
    res = run_clean(
        CleanConfig(
            input=str(src),
            output=str(out),
            stages=[
                {
                    "dedup_minhash": {
                        "shingles": "tokens",
                        "verify_threshold": 0.8,
                    }
                }
            ],
        )
    )
    assert res["rows_out"] == 2
    got = pq_.read_table(str(out)).sort_by("doc_id")
    assert got["doc_id"].to_pylist() == [0, 2]


def test_ppm_decoder_real_roundtrip(ray_session):
    """The zero-dependency netpbm decoder is a REAL parser: encode →
    decode roundtrips exactly; headers with comments and P6 color
    parse; non-netpbm payloads are rejected."""
    import ray.data

    from beamium_ray.datapipe.multimodal import encode_pgm, synth_pgm_batch

    rng = np.random.default_rng(9)
    px = rng.integers(0, 256, (6, 8)).astype(np.uint8)
    dec = DecodeImage(decoder="ppm")
    got = dec._decode(encode_pgm(px), 0, 0)  # sidecar hint ignored
    assert got.shape == (6, 8) and (got == px.astype(np.float32)).all()

    # comment + multi-whitespace header (the netpbm spec's ugly corner)
    payload = b"P5 # magic\n# a comment line\n 8\t6 # dims\n255\n" \
        + px.tobytes()
    got = dec._decode(payload, 0, 0)
    assert (got == px.astype(np.float32)).all()

    # P6 color → grayscale mean of channels
    rgb = rng.integers(0, 256, (4, 5, 3)).astype(np.uint8)
    p6 = b"P6\n5 4\n255\n" + rgb.tobytes()
    got = dec._decode(p6, 0, 0)
    assert np.allclose(got, rgb.astype(np.float32).mean(axis=2))

    with pytest.raises(ValueError, match="netpbm"):
        dec._decode(b"JFIFxxxx", 0, 0)

    # the gate arm's synthetic PGMs decode to the digest bytes exactly,
    # through the real actor-pool path
    media = synth_pgm_batch(0, 32)
    ds = ray.data.from_arrow(media).repartition(2)
    rows = decode_dataset(ds, decoder="ppm", batch_size=8,
                          concurrency=2).take_all()
    assert len(rows) == 32
    import hashlib as _hl

    for r in rows[:4]:
        seed = _hl.sha256(str(r["media_id"]).encode()).digest()
        want = np.frombuffer((seed * 33)[:1024], np.uint8).astype(np.int64)
        assert r["px_sum"] == int(want.sum())
        assert r["n_px"] == 1024


def test_ppm_decoder_truncated_header_named_error():
    """Truncated/malformed headers raise a descriptive ValueError, not
    a bare IndexError out of header-byte indexing (review finding)."""
    from beamium_ray.datapipe.multimodal import DecodeImage

    dec = DecodeImage(decoder="ppm")
    for bad in (
        b"P5",                      # magic only
        b"P5 8",                    # cut mid-header
        b"P5 # unterminated comment",
        b"P5 8 six 255 ",           # non-integer token
    ):
        with pytest.raises(ValueError, match="netpbm header"):
            dec._decode(bad, 0, 0)
