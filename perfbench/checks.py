"""Output checks and failure accounting for the benchmark.

The rankers here are independent plain-numpy re-implementations of the
package's cosine and Poincare rankings, so a query result is checked
against arithmetic that shares no code with the program under test.
"""

from __future__ import annotations

import traceback

import numpy as np

SCORE_TOL = 1e-9
# The package clamps the artanh argument to this bound; the reference must too.
ATANH_BOUND = 1.0 - 1e-7


class Tally:
    """Counts attempted and failed operations; an operation fails if it raises or its check fails."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, fn, *args) -> bool:
        self.attempted += 1
        try:
            ok = bool(fn(*args))
            reason = f"{fn.__name__}{args}: check failed"
        except Exception:  # the benchmark keeps running and reports the failure
            ok = False
            reason = traceback.format_exc(limit=3)
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(reason)
        return ok


def all_finite(*arrays) -> bool:
    return all(a is None or bool(np.all(np.isfinite(a))) for a in arrays)


def _same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_params(p, q) -> bool:
    """Bit-for-bit equality of two ModelParams."""
    return (
        p.geometry == q.geometry
        and p.vocab == q.vocab
        and _same_bits(p.embeddings, q.embeddings)
        and _same_bits(p.decoder_weights, q.decoder_weights)
        and _same_bits(p.decoder_bias, q.decoder_bias)
    )


def _cosines(table: np.ndarray, target: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(table, axis=1)
    t_norm = np.linalg.norm(target)
    if t_norm < 1e-15:
        return np.zeros(len(table))
    out = (table @ target) / (np.maximum(norms, 1e-15) * t_norm)
    out[norms < 1e-15] = 0.0
    return out


def _mobius(x: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    xy = np.sum(x * y, axis=-1, keepdims=True)
    x2 = np.sum(x * x, axis=-1, keepdims=True)
    y2 = np.sum(y * y, axis=-1, keepdims=True)
    num = (1.0 + 2.0 * c * xy + c * y2) * x + (1.0 - c * x2) * y
    return num / np.maximum(1.0 + 2.0 * c * xy + c * c * x2 * y2, 1e-15)


def _distances(table: np.ndarray, target: np.ndarray, c: float) -> np.ndarray:
    diff = _mobius(-table, np.broadcast_to(target, table.shape), c)
    s = np.sqrt(c)
    return (2.0 / s) * np.arctanh(np.clip(s * np.linalg.norm(diff, axis=1), 0.0, ATANH_BOUND))


def _ranking_ok(got, names, key: np.ndarray, reported: np.ndarray, excluded: set[int], k: int) -> bool:
    """``got`` lists (name, score) best first; ``key`` orders rows (higher is better).

    Ties may come back in any order, so position i passes when its row's
    key is within SCORE_TOL of the i-th best key and its score matches
    the reference score of that row.
    """
    index = {name: i for i, name in enumerate(names)}
    order = [int(i) for i in np.argsort(-key, kind="stable") if int(i) not in excluded]
    expected = order[:k]
    if len(got) != len(expected):
        return False
    ids = [index.get(name, -1) for name, _ in got]
    if len(set(ids)) != len(ids) or any(i < 0 or i in excluded for i in ids):
        return False
    for i, (row, (_, score)) in enumerate(zip(ids, got)):
        if abs(key[row] - key[expected[i]]) > SCORE_TOL or abs(score - reported[row]) > SCORE_TOL:
            return False
    return True


def analogy_ok(params, a: str, b: str, c: str, k: int, got) -> bool:
    """Check ``evaluation.analogy(params, a, b, c, k).ranked`` against a plain-numpy ranking."""
    names = params.vocab.names
    ia, ib, ic = (names.index(x) for x in (a, b, c))
    table, geo = params.embeddings, params.geometry
    if geo.is_hyperbolic:
        target = _mobius(_mobius(table[ia], -table[ib], geo.c), table[ic], geo.c)
        key = -_distances(table, target, geo.c)
    else:
        key = _cosines(table, table[ia] - table[ib] + table[ic])
    return _ranking_ok(got, names, key, key, {ia, ib, ic}, k)


def neighbors_ok(params, event: str, k: int, got) -> bool:
    """Check ``evaluation.nearest_neighbors(params, event, k)`` against a plain-numpy ranking."""
    names = params.vocab.names
    q = names.index(event)
    table, geo = params.embeddings, params.geometry
    if geo.is_hyperbolic:
        dist = _distances(table, table[q], geo.c)
        return _ranking_ok(got, names, -dist, dist, {q}, k)
    key = _cosines(table, table[q])
    return _ranking_ok(got, names, key, key, {q}, k)
