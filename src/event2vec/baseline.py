"""Minimal skip-gram with negative sampling, the comparison baseline.

Kept deliberately small: fixed window, constant learning rate, no
frequent-word subsampling. The published embedding is the input-side
vector table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .dataset import EventDataset
from .errors import UsageError, check_config_types
from .model import ModelParams
from .seeding import rng_for


@dataclass(frozen=True)
class SgnsConfig:
    dim: int = 64
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    seed: int = 0
    unigram_power: float = 0.75

    def __post_init__(self) -> None:
        check_config_types(
            self,
            ints=("dim", "window", "negatives", "epochs", "seed"),
            reals=("learning_rate", "unigram_power"),
        )
        if self.dim < 1:
            raise UsageError(f"dim must be >= 1, got {self.dim}")
        if self.window < 1:
            raise UsageError(f"window must be >= 1, got {self.window}")
        if self.negatives < 1:
            raise UsageError(f"negatives must be >= 1, got {self.negatives}")
        if self.epochs < 0:
            raise UsageError(f"epochs must be >= 0, got {self.epochs}")
        if not (self.learning_rate > 0.0):
            raise UsageError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.unigram_power < 0.0:
            raise UsageError(f"unigram_power must be >= 0, got {self.unigram_power}")


class NegativeSampler:
    """Draws word ids with probability proportional to count^power."""

    def __init__(self, counts: np.ndarray, power: float = 0.75):
        counts = np.asarray(counts, dtype=np.float64)
        if counts.ndim != 1 or len(counts) == 0:
            raise UsageError("counts must be a non-empty 1-D array")
        if np.any(counts < 0):
            raise UsageError("counts must be nonnegative")
        weights = counts**power
        total = weights.sum()
        if total <= 0:
            raise UsageError("at least one count must be positive")
        self.probabilities = weights / total
        self._cum = np.cumsum(self.probabilities)
        self._cum[-1] = 1.0  # guard accumulated rounding

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        return np.searchsorted(self._cum, u, side="right")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign to avoid overflow in exp.
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _sgd_pair_step(
    w_in: np.ndarray, w_out: np.ndarray, center: int, context: int, negs: np.ndarray, lr: float
) -> None:
    """One in-place SGD step on -log sigmoid(w.c) - sum_i log sigmoid(-w.n_i).

    w = w_in[center], c = w_out[context], n_i = w_out[negs[i]]; draws equal
    to ``context`` are dropped, as in word2vec. Gradients are taken before
    the step, so a negative drawn twice moves twice.
    """
    negs = negs[negs != context]
    w_vec = w_in[center]
    s_pos = _sigmoid(np.array([w_vec @ w_out[context]]))[0]
    g_pos = s_pos - 1.0
    if len(negs):
        nv = w_out[negs]
        s_negs = _sigmoid(nv @ w_vec)
        g_w = g_pos * w_out[context] + s_negs @ nv
        # subtract.at so repeated negative draws accumulate
        np.subtract.at(w_out, negs, lr * s_negs[:, None] * w_vec[None, :])
    else:
        g_w = g_pos * w_out[context]
    w_out[context] -= lr * g_pos * w_vec
    w_in[center] = w_vec - lr * g_w


def train_sgns(dataset: EventDataset, config: SgnsConfig) -> ModelParams:
    """Train skip-gram embeddings; returns the input vectors as a model.

    The result reuses the Euclidean model container (no decoder), so the
    same checkpoint format and evaluation tooling apply.
    """
    if len(dataset) == 0:
        raise UsageError("cannot train on an empty dataset")
    vocab_size = len(dataset.vocab)
    if vocab_size < config.negatives + 1:
        raise UsageError(
            f"vocabulary size {vocab_size} is too small for {config.negatives} negatives"
        )

    counts = np.zeros(vocab_size)
    for seq in dataset.sequences:
        np.add.at(counts, seq, 1)
    sampler = NegativeSampler(counts, config.unigram_power)

    rng = rng_for(config.seed, "sgns")
    w_in = rng.uniform(-0.5 / config.dim, 0.5 / config.dim, size=(vocab_size, config.dim))
    w_out = np.zeros((vocab_size, config.dim))

    window, k = config.window, config.negatives
    for _epoch in range(config.epochs):
        for seq in dataset.sequences:
            n = len(seq)
            pairs = [
                (int(seq[i]), int(seq[j]))
                for i in range(n)
                for j in range(max(0, i - window), min(n, i + window + 1))
                if j != i
            ]
            # One draw per sentence is the same stream as one per pair.
            negs = sampler.sample(rng, len(pairs) * k).reshape(len(pairs), k)
            for (center, context), pair_negs in zip(pairs, negs):
                _sgd_pair_step(w_in, w_out, center, context, pair_negs, config.learning_rate)
    return ModelParams(
        geometry=geo.Geometry(geo.EUCLIDEAN),
        vocab=dataset.vocab,
        embeddings=w_in,
    )
