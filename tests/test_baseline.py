"""Skip-gram baseline tests: the negative-sampling distribution, the
pair update against finite differences of an independent pair loss, and
the training loop's agreement with the per-pair reference loop, its
determinism and learning signal.
"""

import math

import numpy as np
import pytest

from event2vec import EventDataset, UsageError, Vocabulary
from event2vec.baseline import (
    NegativeSampler,
    SgnsConfig,
    _sgd_pair_step,
    train_sgns,
)
from event2vec.seeding import rng_for
from helpers import reference_pair_loss, reference_train_sgns


def shared_context_dataset(n: int = 60) -> EventDataset:
    """'b' and 'c' appear in identical contexts; SGNS should align them."""
    vocab = Vocabulary(["p", "b", "c", "q", "r", "s"])
    sents = []
    for i in range(n):
        mid = "b" if i % 2 == 0 else "c"
        sents.append(["p", mid, "q"])
        sents.append(["r", mid, "s"])
    return EventDataset(vocab, [vocab.encode(s) for s in sents])


# ---------------------------------------------------------------------------
# Config and sampler
# ---------------------------------------------------------------------------


class TestSgnsConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 0},
            {"window": 0},
            {"negatives": 0},
            {"epochs": -1},
            {"learning_rate": 0.0},
            {"unigram_power": -0.1},
            {"dim": 2.5},
            {"window": True},
            {"negatives": 5.0},
            {"epochs": "1"},
            {"seed": 0.5},
            {"learning_rate": float("inf")},
            {"unigram_power": float("inf")},
            {"unigram_power": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(UsageError):
            SgnsConfig(**kwargs)


class TestNegativeSampler:
    def test_probabilities_follow_powered_counts(self):
        # counts (1, 16) with power 0.75 give weights (1, 8) exactly.
        sampler = NegativeSampler(np.array([1.0, 16.0]), power=0.75)
        assert np.allclose(sampler.probabilities, [1 / 9, 8 / 9], atol=1e-15)

    def test_empirical_frequencies_match(self):
        counts = np.array([10.0, 0.0, 40.0, 90.0])
        sampler = NegativeSampler(counts, power=0.75)
        rng = np.random.default_rng(0)
        draws = sampler.sample(rng, 40000)
        freq = np.bincount(draws, minlength=4) / 40000
        # Zero-count words are never drawn.
        assert freq[1] == 0.0
        sigma = np.sqrt(sampler.probabilities * (1 - sampler.probabilities) / 40000)
        assert np.all(np.abs(freq - sampler.probabilities) <= 4 * sigma + 1e-12)

    def test_sampling_is_rng_deterministic(self):
        sampler = NegativeSampler(np.array([3.0, 5.0, 2.0]))
        a = sampler.sample(np.random.default_rng(7), 100)
        b = sampler.sample(np.random.default_rng(7), 100)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(UsageError):
            NegativeSampler(np.array([]))
        with pytest.raises(UsageError):
            NegativeSampler(np.array([[1.0]]))
        with pytest.raises(UsageError):
            NegativeSampler(np.array([1.0, -1.0]))
        with pytest.raises(UsageError):
            NegativeSampler(np.array([0.0, 0.0]))


# ---------------------------------------------------------------------------
# Pair objective
# ---------------------------------------------------------------------------


def pair_loss(w_in, w_out, center, context, negs) -> float:
    return reference_pair_loss(w_in[center], w_out[context], w_out[np.asarray(negs, dtype=np.int64)])


def fd_pair_grads(w_in, w_out, center, context, negs, eps=1e-6):
    """Central-difference gradient of the pair loss w.r.t. both whole tables."""
    grads = []
    for arr in (w_in, w_out):
        grad = np.zeros_like(arr)
        flat, gf = arr.ravel(), grad.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = pair_loss(w_in, w_out, center, context, negs)
            flat[i] = keep - eps
            lo = pair_loss(w_in, w_out, center, context, negs)
            flat[i] = keep
            gf[i] = (hi - lo) / (2 * eps)
        grads.append(grad)
    return grads


def stepped(w_in, w_out, center, context, negs, lr):
    a, b = w_in.copy(), w_out.copy()
    _sgd_pair_step(a, b, center, context, np.asarray(negs, dtype=np.int64), lr)
    return a, b


class TestPairLoss:
    def test_hand_value_at_zero_vectors(self):
        # All dot products are 0, every sigmoid is 1/2: the loss is
        # -log(1/2) for the positive pair plus -log(1/2) per negative.
        z = np.zeros(3)
        assert reference_pair_loss(z, z, np.zeros((2, 3))) == pytest.approx(3 * math.log(2), rel=1e-15)
        # Every gradient is a multiple of a zero row, so nothing moves.
        w_in, w_out = np.zeros((4, 3)), np.zeros((4, 3))
        a, b = stepped(w_in, w_out, 0, 1, [2, 3], lr=0.5)
        assert np.array_equal(a, w_in) and np.array_equal(b, w_out)

    def test_gradients_match_finite_differences(self):
        # The step moves every row by -lr times the loss gradient at the
        # pre-step values: the center row, the context row, each negative
        # (index 3 drawn twice moves twice) and, with no negatives left
        # after dropping the context, the positive pair alone.
        rng = np.random.default_rng(1)
        w_in = rng.normal(size=(6, 4)) * 0.7
        w_out = rng.normal(size=(6, 4)) * 0.7
        lr = 1e-3
        for center, context, negs, kept in [
            (1, 2, [3, 4, 3], [3, 4, 3]),
            (1, 2, [2, 5], [5]),
            (4, 4, [0], [0]),
            (0, 5, [], []),
            (0, 5, [5, 5], []),
        ]:
            g_in, g_out = fd_pair_grads(w_in, w_out, center, context, kept)
            a, b = stepped(w_in, w_out, center, context, negs, lr)
            assert np.allclose((w_in - a) / lr, g_in, atol=1e-8, rtol=0.0)
            assert np.allclose((w_out - b) / lr, g_out, atol=1e-8, rtol=0.0)
            touched_out = {context, *kept}
            untouched = [r for r in range(6) if r not in touched_out]
            assert np.array_equal(b[untouched], w_out[untouched])
            assert np.array_equal(np.delete(a, center, axis=0), np.delete(w_in, center, axis=0))

    def test_loss_decreases_along_negative_gradient(self):
        rng = np.random.default_rng(2)
        w_in = rng.normal(size=(5, 3))
        w_out = rng.normal(size=(5, 3))
        negs = [3, 4]
        before = pair_loss(w_in, w_out, 0, 2, negs)
        a, b = stepped(w_in, w_out, 0, 2, negs, lr=0.01)
        assert pair_loss(a, b, 0, 2, negs) < before


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def random_dataset(vocab_size: int, lengths, seed: int = 0) -> EventDataset:
    vocab = Vocabulary([f"w{i}" for i in range(vocab_size)])
    rng = np.random.default_rng(seed)
    return EventDataset(vocab, [rng.integers(0, vocab_size, size=n) for n in lengths])


class TestTrainSgns:
    @pytest.mark.parametrize("dataset,config", [
        # V = 3: most draws hit the context, often leaving no negative at all.
        (random_dataset(3, [4, 2, 5, 3]), SgnsConfig(dim=3, window=2, negatives=1, epochs=2, seed=1)),
        (random_dataset(3, [4, 2, 5, 3]), SgnsConfig(dim=3, window=2, negatives=2, epochs=2, seed=2)),
        # A window longer than every sentence, and a one-token sentence with no pairs.
        (random_dataset(8, [6, 1, 3, 7], seed=3), SgnsConfig(dim=5, window=20, negatives=2, epochs=2, seed=0)),
        (shared_context_dataset(6), SgnsConfig(dim=6, window=1, negatives=3, epochs=3, seed=4)),
    ], ids=["v3-neg1", "v3-neg2", "long-window", "shared-context"])
    def test_matches_reference_loop(self, dataset, config):
        assert train_sgns(dataset, config).embeddings.tobytes() == reference_train_sgns(dataset, config).tobytes()

    def test_zero_epochs_returns_seeded_init(self):
        ds = shared_context_dataset(4)
        config = SgnsConfig(dim=8, epochs=0, seed=3)
        model = train_sgns(ds, config)
        expected = rng_for(3, "sgns").uniform(-0.5 / 8, 0.5 / 8, size=(6, 8))
        assert np.array_equal(model.embeddings, expected)
        assert not model.has_decoder
        assert not model.geometry.is_hyperbolic
        assert model.vocab is ds.vocab

    def test_bitwise_deterministic(self):
        ds = shared_context_dataset(8)
        config = SgnsConfig(dim=6, epochs=2, seed=0)
        m1 = train_sgns(ds, config)
        m2 = train_sgns(ds, config)
        m3 = train_sgns(ds, SgnsConfig(dim=6, epochs=2, seed=1))
        assert np.array_equal(m1.embeddings, m2.embeddings)
        assert not np.array_equal(m1.embeddings, m3.embeddings)

    def test_shared_contexts_align_embeddings(self):
        # 'b' and 'c' are interchangeable in the corpus; training should
        # push their input vectors together relative to init.
        ds = shared_context_dataset(60)
        before = train_sgns(ds, SgnsConfig(dim=16, epochs=0, seed=0))
        after = train_sgns(ds, SgnsConfig(dim=16, epochs=8, seed=0))

        def cos(model, x, y):
            u = model.embeddings[model.vocab.id_of(x)]
            v = model.embeddings[model.vocab.id_of(y)]
            return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

        assert cos(after, "b", "c") > cos(before, "b", "c")
        assert cos(after, "b", "c") > 0.5

    def test_window_clamps_at_sentence_edges(self):
        # Window far larger than any sentence must still train cleanly.
        ds = shared_context_dataset(4)
        model = train_sgns(ds, SgnsConfig(dim=4, window=50, epochs=1, seed=0, negatives=2))
        assert np.all(np.isfinite(model.embeddings))

    def test_window_size_changes_the_result(self):
        vocab = Vocabulary([f"w{i}" for i in range(8)])
        rng = np.random.default_rng(5)
        seqs = [rng.integers(0, 8, size=6) for _ in range(10)]
        ds = EventDataset(vocab, seqs)
        narrow = train_sgns(ds, SgnsConfig(dim=4, window=1, epochs=1, seed=0, negatives=2))
        wide = train_sgns(ds, SgnsConfig(dim=4, window=5, epochs=1, seed=0, negatives=2))
        assert not np.array_equal(narrow.embeddings, wide.embeddings)

    def test_rejects_empty_dataset_and_tiny_vocab(self):
        ds = shared_context_dataset(2)
        empty = EventDataset.__new__(EventDataset)
        empty.vocab = ds.vocab
        empty.sequences = []
        with pytest.raises(UsageError):
            train_sgns(empty, SgnsConfig())
        small_vocab = EventDataset(Vocabulary(["a", "b"]), [np.array([0, 1])])
        with pytest.raises(UsageError):
            train_sgns(small_vocab, SgnsConfig(negatives=5))
