"""The vectorized evaluations against the per-row, per-trial and
per-occurrence loops in ``helpers``.

The rankers return the same names in the same order (ties by row id),
with scores and silhouette values within 1e-12. Their tables hold exact
duplicate rows at the start, the middle and the end, so ties are common,
and a zero row. The additivity curve and pattern composition match byte
for byte.
"""

from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from event2vec import Geometry, ModelParams, UsageError, Vocabulary, evaluation
from event2vec.corpus import (
    UNK_TOKEN,
    PatternOccurrence,
    build_vocab,
    compose_vectors,
    find_pattern_occurrences,
    load_tagged_corpus,
    parse_patterns,
)
from event2vec.evaluation import _top_k, additivity_curve, analogy, nearest_neighbors, silhouette
from event2vec.model import forward
from event2vec.seeding import rng_for
from helpers import (
    ball_points,
    reference_additivity_curve,
    reference_analogy,
    reference_compose_vectors,
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


# ---------------------------------------------------------------------------
# Additivity curve: all trials of a length at once, byte for byte
# ---------------------------------------------------------------------------

CURVE_LENGTHS = [1, 2, 5, 17]
SEEDS = [0, 1, 2]
# Rows have norm ~1.2, so a running sum passes 1.5 within a few steps:
# the clip fires on some steps and not on others.
CLIP = 1.5


def flat_model(seed: int, max_norm: float | None) -> ModelParams:
    rng = np.random.default_rng(seed)
    emb = rng.normal(0.0, 0.5, size=(30, 6))
    return ModelParams(Geometry("euclidean", max_norm=max_norm), Vocabulary([f"e{i}" for i in range(30)]), emb)


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def clip_steps(params, lengths, num_trials, seed) -> tuple[int, int]:
    """(steps the clip fired on, steps it did not) over the trials the curve draws."""
    rng = rng_for(seed, "eval")
    fired = total = 0
    for length in lengths:
        for _ in range(num_trials):
            traj = forward(params, rng.integers(0, params.vocab_size, size=length))
            fired += int(np.any(traj.raw_states != traj.states[1:], axis=1).sum())
            total += length
    return fired, total - fired


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("max_norm", [None, CLIP], ids=["unclipped", "clipped"])
# One block of 1 or 40 trials; blocks of 4 with 8 trials (whole blocks)
# and 10 (a part block at the end).
@pytest.mark.parametrize("block, num_trials", [(None, 1), (None, 40), (4, 8), (4, 10)])
def test_additivity_curve_matches_per_trial_forward(monkeypatch, seed, max_norm, block, num_trials):
    if block is not None:
        monkeypatch.setattr(evaluation, "TRIAL_BLOCK", block)
    params = flat_model(seed, max_norm)
    got = additivity_curve(params, CURVE_LENGTHS, num_trials=num_trials, seed=seed)
    assert hexes(got.mean_cosine) == hexes(reference_additivity_curve(params, CURVE_LENGTHS, num_trials, seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_the_clipped_curve_clips_some_steps_but_not_all(seed):
    fired, kept = clip_steps(flat_model(seed, CLIP), CURVE_LENGTHS, 40, seed)
    assert fired > 0 and kept > 0


# ---------------------------------------------------------------------------
# Pattern composition: all spans of a length at once, byte for byte
# ---------------------------------------------------------------------------

SAMPLE_PATH = str(resources.files("event2vec").joinpath("data/sample_tagged_corpus.txt"))
MIXED_PATTERNS = "NN,PPS-VBD,AT-JJ-NN,AT-JJ-NN-VBD"


def mixed_occurrences() -> tuple:
    """The bundled corpus and its occurrences of spans 1-4 long, shuffled so the lengths interleave."""
    tagged = load_tagged_corpus(SAMPLE_PATH)
    occ = find_pattern_occurrences(tagged, parse_patterns(MIXED_PATTERNS), max_per_pattern=40, seed=0)
    order = np.random.default_rng(0).permutation(len(occ))
    return tagged, [occ[i] for i in order]


def assert_same_vectors(got, expected):
    assert [label for _, label in got] == [label for _, label in expected]
    for (vec, _), (ref, _) in zip(got, expected):
        assert vec.dtype == ref.dtype and vec.shape == ref.shape and vec.tobytes() == ref.tobytes()


@pytest.mark.parametrize("geometry", GEOMETRIES, ids=["flat", "ball-c1", "ball-c2"])
@pytest.mark.parametrize("dim", [1, 5])
def test_compose_vectors_matches_per_occurrence_fold(geometry, dim):
    tagged, occ = mixed_occurrences()
    assert {len(o.tokens) for o in occ} == {1, 2, 3, 4}
    assert len({len(o.tokens) for o in occ[:8]}) > 1
    # Words seen fewer than 13 times fall back to the <unk> row.
    vocab = build_vocab(tagged, min_count=13)
    assert any(tok not in vocab for o in occ for tok in o.tokens)
    rng = np.random.default_rng(dim)
    if geometry.is_hyperbolic:
        emb = ball_points(rng, len(vocab), dim, geometry.c, max_frac=0.6)
    else:
        emb = rng.normal(size=(len(vocab), dim))
    params = ModelParams(geometry, vocab, emb)
    assert_same_vectors(compose_vectors(params, occ), reference_compose_vectors(params, occ))


def test_compose_vectors_of_no_occurrences():
    params = table(0, Geometry("euclidean"))
    assert compose_vectors(params, []) == reference_compose_vectors(params, []) == []


def test_unknown_token_error_names_the_first_in_occurrence_order():
    # Without an <unk> row the first unknown token in occurrence order
    # fails: "zz" in the one-token span, before the two-token span's "qq".
    occ = [
        PatternOccurrence(("A", "B"), ("x", "y"), 0, 0),
        PatternOccurrence(("A",), ("zz",), 1, 0),
        PatternOccurrence(("A", "B"), ("x", "qq"), 2, 0),
    ]
    params = ModelParams(Geometry("euclidean"), Vocabulary(["x", "y"]), np.eye(2))
    assert UNK_TOKEN not in params.vocab
    with pytest.raises(UsageError) as expected:
        reference_compose_vectors(params, occ)
    with pytest.raises(UsageError) as got:
        compose_vectors(params, occ)
    assert str(got.value) == str(expected.value)
    assert "'zz'" in str(got.value)
