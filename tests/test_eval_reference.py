"""The vectorized rankers and silhouette against the per-row loops in
``helpers``: the same names in the same order (ties by row id), scores
and silhouette values within 1e-12. The tables hold exact duplicate rows
at the start, the middle and the end, so ties are common, and a zero row.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from event2vec import Geometry, ModelParams, Vocabulary
from event2vec.evaluation import _top_k, analogy, nearest_neighbors, silhouette
from helpers import (
    ball_points,
    reference_analogy,
    reference_nearest_neighbors,
    reference_silhouette,
)

TOL = 1e-12
V, DIM = 40, 5
DUPLICATES = (0, V // 2, V - 1)  # copies of row 7
ZERO_ROW = 11


def table(seed: int, geometry: Geometry) -> ModelParams:
    rng = np.random.default_rng(seed)
    if geometry.is_hyperbolic:
        emb = ball_points(rng, V, DIM, geometry.c)
    else:
        emb = rng.normal(size=(V, DIM))
    emb[list(DUPLICATES)] = emb[7]
    emb[ZERO_ROW] = 0.0
    return ModelParams(geometry, Vocabulary([f"e{i}" for i in range(V)]), emb)


def assert_same(got, expected):
    assert [name for name, _ in got] == [name for name, _ in expected]
    assert np.allclose([s for _, s in got], [s for _, s in expected], rtol=0.0, atol=TOL)


GEOMETRIES = [Geometry("euclidean"), Geometry("hyperbolic", c=1.0), Geometry("hyperbolic", c=2.0)]


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=["flat", "ball-c1", "ball-c2"])
class TestRankersMatchReference:
    def test_neighbors_of_every_row(self, geometry):
        params = table(1, geometry)
        for event in params.vocab.names:
            for k in (1, 3, V - 1, V + 5):
                assert_same(nearest_neighbors(params, event, k), reference_nearest_neighbors(params, event, k))

    def test_cut_inside_a_tie_group(self, geometry):
        # Rows 0, V/2 and V-1 copy row 7; for a query of row 7, k = 1 and
        # k = 2 cut the group of tied copies after its first and second member.
        params = table(2, geometry)
        for k in (1, 2, 3, 4):
            got = nearest_neighbors(params, "e7", k)
            assert_same(got, reference_nearest_neighbors(params, "e7", k))
        assert [name for name, _ in nearest_neighbors(params, "e7", 3)] == ["e0", "e20", "e39"]

    def test_analogies(self, geometry):
        params = table(3, geometry)
        rng = np.random.default_rng(4)
        queries = [tuple(f"e{i}" for i in rng.integers(0, V, size=3)) for _ in range(30)]
        queries += [("e7", "e0", "e20"), ("e1", "e7", "e7"), ("e3", f"e{ZERO_ROW}", "e3")]
        for a, b, c in queries:
            for k in (1, 5, V):  # k = V: k + |excluded| >= V sorts everything
                for keep in (True, False):
                    got = analogy(params, a, b, c, k=k, exclude_queries=keep)
                    assert_same(list(got.ranked), reference_analogy(params, a, b, c, k, keep))


def test_zero_analogy_target_ranks_by_row_id():
    # a - a + 0 is the zero vector: every cosine is 0 by convention.
    params = table(5, Geometry("euclidean"))
    for keep in (True, False):
        got = analogy(params, "e4", "e4", f"e{ZERO_ROW}", k=6, exclude_queries=keep)
        assert_same(list(got.ranked), reference_analogy(params, "e4", "e4", f"e{ZERO_ROW}", 6, keep))
        assert all(score == 0.0 for _, score in got.ranked)
    names = [name for name, _ in analogy(params, "e4", "e4", f"e{ZERO_ROW}", k=5).ranked]
    assert names == ["e0", "e1", "e2", "e3", "e5"]


def test_zero_row_query_ranks_by_row_id():
    params = table(6, Geometry("euclidean"))
    got = nearest_neighbors(params, f"e{ZERO_ROW}", 4)
    assert_same(got, reference_nearest_neighbors(params, f"e{ZERO_ROW}", 4))
    assert got == [("e0", 0.0), ("e1", 0.0), ("e2", 0.0), ("e3", 0.0)]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=30),
    st.data(),
)
def test_top_k_is_the_full_stable_sort_prefix(keys, data):
    key = np.array(keys, dtype=np.float64)
    n = len(key)
    skip = set(data.draw(st.lists(st.integers(0, n - 1), max_size=n)))
    k = data.draw(st.integers(1, n + 2))
    names = [f"r{i}" for i in range(n)]
    scores = key * 10.0
    expected = [int(i) for i in np.argsort(-key, kind="stable") if int(i) not in skip][:k]
    assert _top_k(names, key, scores, skip, k) == [(names[i], scores[i]) for i in expected]


@pytest.mark.parametrize("metric", ["cosine", "euclidean", "poincare"])
def test_silhouette_matches_the_per_point_loop(metric):
    rng = np.random.default_rng(8)
    points = ball_points(rng, 60, 4, 1.0)
    points[5] = 0.0  # a zero point, which the cosine metric scores by convention
    labels = list(rng.choice(["a", "b", "c"], size=60))
    labels[17] = "solo"
    with pytest.warns(UserWarning, match="singleton"):
        report = silhouette(points, labels, metric=metric)
    overall, per_cluster = reference_silhouette(points, labels, metric)
    assert report.overall == pytest.approx(overall, abs=TOL)
    assert report.per_cluster.keys() == per_cluster.keys()
    for lab, value in per_cluster.items():
        assert report.per_cluster[lab] == pytest.approx(value, abs=TOL)
    assert report.per_cluster["solo"] == 0.0
