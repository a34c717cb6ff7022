"""The pair verifier: each metric kernel against a brute-force Python
reference (no Ray), and ``verify_pairs`` agreeing row for row on its
driver and Dataset routes."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from beamium_ray.datapipe.pairjoin import (
    cosine_metric,
    jaccard_metric,
    pair_schema,
    sig_agreement_metric,
    to_table,
    verify_pairs,
)

TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "the quick brown fox jumps over the lazy dog",  # exact dup of 0
    "the quick brown fox jumps over a lazy dog",  # near dup of 0
    "completely different content about astronomy and galaxies",
    "",
    "",
    "tiny",  # shorter than k: no shingles
    "le chat est sur la table et le chien est dans le jardin",
]
# doc 0 appears in many pairs; (4, 5) are two empty docs, (4, 0) one
# empty doc against a non-empty one
PAIRS = [(0, 1), (0, 2), (0, 3), (0, 7), (0, 6), (4, 5), (0, 4), (2, 7),
         (1, 2), (3, 6)]


def _score(metric, payload: pa.Array, pairs) -> np.ndarray:
    ia = np.array([a for a, _ in pairs], np.int64)
    ib = np.array([b for _, b in pairs], np.int64)
    return metric.score(metric.rows(payload), ia, ib)


def _jaccard(A: set, B: set) -> float:
    return len(A & B) / len(A | B) if A | B else 0.0


def _grams(seq, k: int) -> set:
    return {tuple(seq[i: i + k]) for i in range(len(seq) - k + 1)}


def test_jaccard_chars_kernel_matches_brute_force():
    got = _score(jaccard_metric(5), pa.array(TEXTS), PAIRS)
    want = [
        _jaccard(_grams(TEXTS[a].encode(), 5), _grams(TEXTS[b].encode(), 5))
        for a, b in PAIRS
    ]
    assert got.tolist() == pytest.approx(want, abs=1e-15)
    j = dict(zip(PAIRS, got.tolist()))
    assert j[(0, 1)] == 1.0  # identical docs
    assert 0.5 < j[(0, 2)] < 1.0  # a near pair
    assert j[(0, 3)] < 0.1  # an unrelated pair
    assert j[(4, 5)] == 0.0 and j[(0, 4)] == 0.0 and j[(0, 6)] == 0.0


def test_jaccard_tokens_kernel_matches_brute_force():
    rng = np.random.default_rng(3)
    base = rng.integers(0, 500, size=40).tolist()
    docs = [
        base,
        base,
        base[:30] + rng.integers(0, 500, size=10).tolist(),
        rng.integers(0, 500, size=40).tolist(),
        [],
        [],
        base[:5],  # shorter than k
        base[10:] + base[:10],
    ]
    got = _score(
        jaccard_metric(8, "tokens"), pa.array(docs, pa.list_(pa.int32())),
        PAIRS,
    )
    want = [_jaccard(_grams(docs[a], 8), _grams(docs[b], 8))
            for a, b in PAIRS]
    assert got.tolist() == pytest.approx(want, abs=1e-15)
    assert got[0] == 1.0 and 0.0 < got[1] < 1.0


def test_sig_agreement_kernel_matches_brute_force():
    rng = np.random.default_rng(5)
    S = rng.integers(0, 4, size=(8, 16))  # small alphabet: partial agreement
    S[1] = S[0]
    got = _score(
        sig_agreement_metric(16), pa.array(S.tolist(), pa.list_(pa.int64())),
        PAIRS,
    )
    want = [sum(int(x == y) for x, y in zip(S[a], S[b])) / 16
            for a, b in PAIRS]
    assert got.tolist() == want
    assert got[0] == 1.0


def test_cosine_kernel_matches_brute_force():
    rng = np.random.default_rng(9)
    V = rng.normal(size=(8, 6))
    V[1] = V[0] * 3.0  # scaled copy: cosine 1
    V[4] = 0.0  # zero vectors score 0
    V[5] = 0.0
    got = _score(
        cosine_metric(), pa.array(V.tolist(), pa.list_(pa.float64())), PAIRS
    )

    def cos(x, y):
        nx = sum(v * v for v in x) ** 0.5
        ny = sum(v * v for v in y) ** 0.5
        if nx == 0 or ny == 0:
            return 0.0
        return sum(a * b for a, b in zip(x, y)) / (nx * ny)

    want = [cos(V[a].tolist(), V[b].tolist()) for a, b in PAIRS]
    assert got.tolist() == pytest.approx(want, abs=1e-12)
    assert got[PAIRS.index((4, 5))] == 0.0
    assert got[PAIRS.index((0, 4))] == 0.0


def _payloads():
    rng = np.random.default_rng(11)
    V = rng.normal(size=(len(TEXTS), 4))
    V[1] = V[0]
    V[4] = 0.0
    return [
        ("text", pa.array(TEXTS), jaccard_metric(5), 0.0),
        ("text", pa.array(TEXTS), jaccard_metric(5), 0.5),
        ("vec", pa.array(V.tolist(), pa.list_(pa.float64())),
         cosine_metric(), -1.0),
    ]


def test_verify_pairs_routes_agree(ray_session):
    import ray.data

    pairs = pa.table(
        {
            "a": pa.array([a for a, _ in PAIRS], pa.int64()),
            "b": pa.array([b for _, b in PAIRS], pa.int64()),
        }
    )
    ids = pa.array(range(len(TEXTS)), pa.int64())
    for col, values, metric, thr in _payloads():
        payload = ray.data.from_arrow(
            pa.table({"doc_id": ids, col: values})
        ).repartition(2)
        drv = verify_pairs(pairs, payload, "doc_id", col, metric, thr, "m")
        dist = verify_pairs(
            ray.data.from_arrow(pairs).repartition(3).materialize(),
            payload, "doc_id", col, metric, thr, "m", num_partitions=4,
        )
        assert isinstance(drv, pa.Table)
        assert drv.schema == pair_schema("m")
        dist = to_table(dist, pair_schema("m"))
        assert dist.schema == pair_schema("m")

        def rows(t):
            return sorted(zip(t["a"].to_pylist(), t["b"].to_pylist(),
                              t["m"].to_pylist()))

        assert rows(drv) == rows(dist)
        assert len(rows(drv)) == sum(
            s >= thr for s in _score(metric, values, PAIRS)
        )


def test_verify_pairs_empty(ray_session):
    import ray.data

    payload = ray.data.from_arrow(
        pa.table({"doc_id": pa.array([0, 1], pa.int64()),
                  "text": pa.array(TEXTS[:2])})
    )
    empty = pa.schema([("a", pa.int64()), ("b", pa.int64())]).empty_table()
    args = (payload, "doc_id", "text", jaccard_metric(5), 0.0, "jaccard")
    drv = verify_pairs(empty, *args)
    dist = to_table(
        verify_pairs(ray.data.from_arrow(empty).materialize(), *args),
        pair_schema("jaccard"),
    )
    for t in (drv, dist):
        assert t.num_rows == 0 and t.schema == pair_schema("jaccard")
