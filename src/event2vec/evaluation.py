"""Quantitative evaluations: additivity decay, analogies, silhouette,
nearest neighbors, and PCA export.

The rankers score the whole embedding table at once (cosines from
per-row norms and dot products, or Poincare distances) and select with
:func:`_top_k`, which sorts only the rows that can reach the top k and
returns them in the order a full stable sort would: best first, ties by
row id.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import UsageError
from .model import ModelParams
from .seeding import rng_for

SILHOUETTE_METRICS = ("cosine", "euclidean", "poincare")

# additivity_curve composes this many trials at once, so its working set
# is a few (TRIAL_BLOCK, dim) arrays whatever the number of trials.
TRIAL_BLOCK = 1024


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < 1e-15 or nv < 1e-15:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def _cosines(table: np.ndarray, target: np.ndarray) -> np.ndarray:
    """:func:`_cosine` of every row of ``table`` with ``target``.

    Each row's norm and dot product come from the same einsum loop, so
    equal rows get equal scores (a BLAS matrix-vector product does not
    guarantee that). A row or target with norm < 1e-15 scores 0.
    """
    t_norm = np.linalg.norm(target)
    if t_norm < 1e-15:
        return np.zeros(len(table))
    norms = np.sqrt(np.einsum("ij,ij->i", table, table))
    dots = np.einsum("ij,j->i", table, target)
    return np.divide(dots, norms * t_norm, out=np.zeros(len(table)), where=norms >= 1e-15)


def _top_k(names, key: np.ndarray, scores: np.ndarray, skip: set[int], k: int) -> list[tuple[str, float]]:
    """The k rows with the highest ``key``, ties by row id, leaving out the ids in ``skip``.

    Returns ``(name, score)`` pairs, the same prefix as a full
    ``np.argsort(-key, kind="stable")``. Only the rows whose key reaches
    the m-th best (m = k + |skip|) are sorted; a NaN key ranks last.
    """
    # Array methods rather than the np.* wrappers: on a 45-row table the
    # wrappers' dispatch costs more than the selection itself.
    m = k + len(skip)
    kth = math.nan
    if m < len(key):
        neg = -key
        neg.partition(m - 1)
        kth = -neg[m - 1]
    if math.isnan(kth):  # m >= V, or fewer than m keys are not NaN: any row may be needed
        order = (-key).argsort(kind="stable")
    else:
        rows = (key >= kth).nonzero()[0]
        order = rows[(-key[rows]).argsort(kind="stable")]
    out = []
    for i in order.tolist():
        if i in skip:
            continue
        out.append((names[i], float(scores[i])))
        if len(out) == k:
            break
    return out


@dataclass(frozen=True)
class AdditivityCurve:
    lengths: tuple[int, ...]
    mean_cosine: tuple[float, ...]
    num_trials: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "lengths": list(self.lengths),
            "mean_cosine": list(self.mean_cosine),
            "num_trials": self.num_trials,
            "seed": self.seed,
        }


def additivity_curve(
    params: ModelParams, lengths: list[int], num_trials: int = 100, seed: int = 0
) -> AdditivityCurve:
    """Cosine between the clipped running state and the ideal plain sum.

    For each length, random event sequences are drawn uniformly over the
    vocabulary; the curve reports the mean cosine per length. Only
    meaningful for Euclidean models, where the ideal composition is the
    literal vector sum.

    The trials of one length are composed together, in blocks of
    :data:`TRIAL_BLOCK`, so memory does not grow with ``num_trials``.
    Each trial draws the same ids and steps the same per-row arithmetic
    as a per-trial :func:`~event2vec.model.forward`, so the curve is
    unchanged, bit for bit.
    """
    if params.geometry.is_hyperbolic:
        raise UsageError(
            "additivity_curve requires a Euclidean model: the ideal-sum reference "
            "is the plain vector sum, which has no hyperbolic counterpart"
        )
    if not lengths:
        raise UsageError("lengths must be nonempty")
    if any(length < 1 for length in lengths):
        raise UsageError("lengths must be positive")
    if num_trials < 1:
        raise UsageError("num_trials must be >= 1")
    rng = rng_for(seed, "eval")
    emb, max_norm = params.embeddings, params.geometry.max_norm
    means = []
    for length in lengths:
        total = 0.0
        for start in range(0, num_trials, TRIAL_BLOCK):
            # One draw fills the block row by row: the same ids as one
            # draw of ``length`` per trial.
            ids = rng.integers(0, params.vocab_size, size=(min(TRIAL_BLOCK, num_trials - start), length))
            ideal = np.zeros((len(ids), params.dim))
            state = ideal if max_norm is None else ideal.copy()
            for t in range(length):
                rows = emb[ids[:, t]]
                ideal += rows
                if max_norm is not None:
                    state = geo.clip_norm(state + rows, max_norm)
            for h, s in zip(state, ideal):
                total += _cosine(h, s)
        means.append(total / num_trials)
    return AdditivityCurve(tuple(lengths), tuple(means), num_trials, seed)


@dataclass(frozen=True)
class AnalogyResult:
    query: tuple[str, str, str]
    ranked: tuple[tuple[str, float], ...]
    excluded: frozenset[str]

    def to_dict(self) -> dict:
        return {
            "query": list(self.query),
            "ranked": [[name, score] for name, score in self.ranked],
            "excluded": sorted(self.excluded),
        }


def analogy(
    params: ModelParams,
    a: str,
    b: str,
    c: str,
    k: int = 5,
    exclude_queries: bool = True,
) -> AnalogyResult:
    """Rank vocabulary entries against the composed query "a - b + c".

    Euclidean: target = e_a - e_b + e_c, ranked by cosine similarity.
    Hyperbolic: target = (e_a (+) -e_b) (+) e_c, ranked by negative
    Poincare distance. Scores sort descending either way.
    """
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    ids = [params.vocab.id_of(name) for name in (a, b, c)]
    e_a, e_b, e_c = (params.embeddings[i] for i in ids)
    g = params.geometry
    if g.is_hyperbolic:
        target = geo.mobius_add(geo.mobius_add(e_a, -e_b, g.c), e_c, g.c)
        scores = -geo.poincare_distance(params.embeddings, target, g.c)
    else:
        scores = _cosines(params.embeddings, e_a - e_b + e_c)
    excluded = frozenset({a, b, c}) if exclude_queries else frozenset()
    skip = set(ids) if exclude_queries else set()
    ranked = _top_k(params.vocab.names, scores, scores, skip, k)
    return AnalogyResult(query=(a, b, c), ranked=tuple(ranked), excluded=excluded)


@dataclass(frozen=True)
class SilhouetteReport:
    overall: float
    per_cluster: dict[str, float]
    n_points: int
    metric: str

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "per_cluster": dict(sorted(self.per_cluster.items())),
            "n_points": self.n_points,
            "metric": self.metric,
        }


def _pairwise_distances(x: np.ndarray, metric: str, c: float) -> np.ndarray:
    if metric == "cosine":
        norms = np.linalg.norm(x, axis=1)
        safe = np.maximum(norms, 1e-15)
        unit = x / safe[:, None]
        sim = unit @ unit.T
        sim[norms < 1e-15, :] = 0.0
        sim[:, norms < 1e-15] = 0.0
        return 1.0 - sim
    if metric == "euclidean":
        sq = np.sum(x * x, axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
        return np.sqrt(d2)
    if metric == "poincare":
        # Row-at-a-time keeps memory at O(n*d) instead of O(n^2*d).
        n = len(x)
        out = np.empty((n, n))
        for i in range(n):
            out[i] = geo.poincare_distance(x[i], x, c)
        return out
    raise UsageError(f"unknown metric {metric!r}; choose from {', '.join(SILHOUETTE_METRICS)}")


def silhouette(
    points, labels, metric: str = "cosine", c: float = 1.0
) -> SilhouetteReport:
    """Standard silhouette score over labeled points.

    Per point: a = mean distance to its own cluster (self excluded),
    b = smallest mean distance to another cluster, s = (b-a)/max(a,b).
    Conventions: a point in a singleton cluster scores 0 (with a
    warning), and a = b = 0 scores 0. ``c`` is the curvature parameter
    used only by the poincare metric.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2:
        raise UsageError("points must be a 2-D array-like (n_points, dim)")
    labels = [str(label) for label in labels]
    n = len(x)
    if len(labels) != n:
        raise UsageError(f"{n} points but {len(labels)} labels")
    if n < 4:
        raise UsageError(f"silhouette needs at least 4 points, got {n}")
    unique = sorted(set(labels))
    if len(unique) < 2:
        raise UsageError("silhouette needs at least 2 distinct labels")

    dist = _pairwise_distances(x, metric, c)
    column = {lab: j for j, lab in enumerate(unique)}
    label_ids = np.array([column[lab] for lab in labels])
    rows = np.arange(n)
    onehot = np.zeros((n, len(unique)))
    onehot[rows, label_ids] = 1.0
    sizes = onehot.sum(axis=0)
    singletons = [lab for lab, size in zip(unique, sizes) if size == 1]
    if singletons:
        warnings.warn(
            f"singleton clusters scored 0 by convention: {', '.join(singletons)}", stacklevel=2
        )

    # sums[i, j]: point i's summed distance to cluster j (itself included).
    sums = dist @ onehot
    own_size = sizes[label_ids]
    a = sums[rows, label_ids] / np.maximum(own_size - 1, 1)
    means = sums / sizes
    means[rows, label_ids] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.divide(b - a, denom, out=np.zeros(n), where=(own_size > 1) & (denom > 0.0))
    per_cluster = {lab: float(scores[label_ids == j].mean()) for j, lab in enumerate(unique)}
    return SilhouetteReport(
        overall=float(scores.mean()),
        per_cluster=per_cluster,
        n_points=n,
        metric=metric,
    )


def nearest_neighbors(params: ModelParams, event: str, k: int) -> list[tuple[str, float]]:
    """Closest vocabulary entries to an event's embedding.

    Euclidean models rank by cosine similarity (descending); hyperbolic
    models rank by Poincare distance (ascending), and the reported score
    is that distance.
    """
    if k < 0:
        raise UsageError(f"k must be >= 0, got {k}")
    query_id = params.vocab.id_of(event)
    if k == 0:
        return []
    g = params.geometry
    query = params.embeddings[query_id]
    if g.is_hyperbolic:
        dist = geo.poincare_distance(params.embeddings, query, g.c)
        return _top_k(params.vocab.names, -dist, dist, {query_id}, k)
    scores = _cosines(params.embeddings, query)
    return _top_k(params.vocab.names, scores, scores, {query_id}, k)


def pca_project(points, out_dim: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Project mean-centered points onto the top principal directions.

    Returns (projected points, explained-variance ratios). Ratios are
    descending, nonnegative, and sum to at most 1; zero-variance data
    yields all-zero ratios.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2:
        raise UsageError("points must be a 2-D array-like (n_points, dim)")
    if out_dim not in (2, 3):
        raise UsageError(f"out_dim must be 2 or 3, got {out_dim}")
    n, d = x.shape
    if n <= out_dim:
        raise UsageError(f"need more than {out_dim} points, got {n}")
    if d < out_dim:
        raise UsageError(f"cannot project {d}-dimensional points to {out_dim} dimensions")
    centered = x - x.mean(axis=0)
    cov = (centered.T @ centered) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order]
    # Deterministic sign: largest-magnitude entry of each axis is positive.
    top = eigvecs[:, :out_dim]
    for j in range(out_dim):
        pivot = np.argmax(np.abs(top[:, j]))
        if top[pivot, j] < 0:
            top[:, j] = -top[:, j]
    total = eigvals.sum()
    ratios = eigvals[:out_dim] / total if total > 0 else np.zeros(out_dim)
    return centered @ top, ratios
