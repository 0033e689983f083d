"""Skip-gram baseline tests: the negative-sampling distribution, the
pair objective against finite differences and a hand value, and the
training loop's determinism and learning signal.
"""

import math

import numpy as np
import pytest

from event2vec import EventDataset, UsageError, Vocabulary
from event2vec.baseline import (
    NegativeSampler,
    SgnsConfig,
    pair_loss_and_grads,
    train_sgns,
)
from event2vec.seeding import rng_for


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


class TestPairLoss:
    def test_hand_value_at_zero_vectors(self):
        # All dot products are 0, every sigmoid is 1/2: the loss is
        # -log(1/2) for the positive pair plus -log(1/2) per negative.
        z = np.zeros(3)
        loss, g_w, g_c, g_negs = pair_loss_and_grads(z, z, np.zeros((2, 3)))
        assert loss == pytest.approx(3 * math.log(2), rel=1e-15)
        assert np.array_equal(g_w, z)
        assert np.array_equal(g_c, z)
        assert np.array_equal(g_negs, np.zeros((2, 3)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=4) * 0.7
        c = rng.normal(size=4) * 0.7
        negs = rng.normal(size=(3, 4)) * 0.7
        loss, g_w, g_c, g_negs = pair_loss_and_grads(w, c, negs)

        eps = 1e-6

        def fd(arr, setter):
            grad = np.zeros_like(arr)
            flat, gf = arr.ravel(), grad.ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + eps
                hi = pair_loss_and_grads(*setter())[0]
                flat[i] = keep - eps
                lo = pair_loss_and_grads(*setter())[0]
                flat[i] = keep
                gf[i] = (hi - lo) / (2 * eps)
            return grad

        assert np.allclose(g_w, fd(w, lambda: (w, c, negs)), atol=1e-8)
        assert np.allclose(g_c, fd(c, lambda: (w, c, negs)), atol=1e-8)
        assert np.allclose(g_negs, fd(negs, lambda: (w, c, negs)), atol=1e-8)

    def test_loss_decreases_along_negative_gradient(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=3)
        c = rng.normal(size=3)
        negs = rng.normal(size=(2, 3))
        loss, g_w, g_c, g_negs = pair_loss_and_grads(w, c, negs)
        step = 0.01
        after, _, _, _ = pair_loss_and_grads(w - step * g_w, c - step * g_c, negs - step * g_negs)
        assert after < loss


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


class TestTrainSgns:
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
