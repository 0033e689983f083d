"""Euclidean and Poincare-ball primitives.

All operations act on the last axis and broadcast over leading axes.
Hyperbolic space is parameterised by ``c > 0``: the model lives in the
open ball of radius ``1/sqrt(c)`` (sectional curvature ``-c``).

The public functions validate their input (curvature, dimensions, ball
membership). The ``_*_vjp`` helpers are closed-form vector-Jacobian
products used by the training code. They are exact for the branch
actually taken by the forward pass (norm clipping and ball projection
are piecewise maps).

The ``_*_row`` kernels at the end serve the one per-step recurrence and
reverse sweep of :mod:`event2vec.model`, ball and clipped flat alike.
Their rows are valid by construction (ball rows are clipped to the
projection radius); they check nothing and run only the branch the clip
takes. They repeat the arithmetic of their vectorized counterparts
operation for operation, so their results are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BallDomainError, UsageError

# Guards shared by every routine that divides or calls arctanh.
MIN_DENOM = 1e-15
ATANH_BOUND = 1.0 - 1e-7
# project_to_ball pulls points back to (1 - BALL_MARGIN) times the ball radius.
BALL_MARGIN = 1e-5

EUCLIDEAN = "euclidean"
HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class Geometry:
    """Which state space the model accumulates in.

    ``max_norm`` only applies to the Euclidean kind (optional norm clip
    after every additive update). Hyperbolic states are instead projected
    back into the ball, so ``max_norm`` must stay unset there.
    """

    kind: str
    c: float = 1.0
    max_norm: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in (EUCLIDEAN, HYPERBOLIC):
            raise UsageError(f"unknown geometry kind: {self.kind!r}")
        if self.kind == HYPERBOLIC:
            if not (0.0 < self.c < np.inf):
                raise UsageError(f"hyperbolic geometry needs a finite c > 0, got {self.c}")
            if self.max_norm is not None:
                raise UsageError("max_norm applies to euclidean geometry only")
        elif self.max_norm is not None and not (0.0 < self.max_norm < np.inf):
            raise UsageError(f"geometry max_norm must be a finite positive number, got {self.max_norm}")

    @property
    def is_hyperbolic(self) -> bool:
        return self.kind == HYPERBOLIC

    @property
    def ball_radius(self) -> float:
        if not self.is_hyperbolic:
            raise UsageError("ball_radius is defined for hyperbolic geometry only")
        return 1.0 / np.sqrt(self.c)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.is_hyperbolic:
            out["c"] = self.c
        elif self.max_norm is not None:
            out["max_norm"] = self.max_norm
        return out

    @staticmethod
    def from_dict(d: dict) -> "Geometry":
        """Read :meth:`to_dict`'s form: ``kind`` and, if present, that kind's number (``c`` or ``max_norm``).

        Any other key, and a value that is not a JSON number, raise
        :class:`UsageError` naming the geometry.
        """
        if not isinstance(d, dict):
            raise UsageError(f"a geometry must be a JSON object, got {d!r}")
        kind = d.get("kind")
        field = {HYPERBOLIC: "c", EUCLIDEAN: "max_norm"}.get(kind) if isinstance(kind, str) else None
        if field is None:
            raise UsageError(f"unknown geometry kind: {kind!r}")
        extra = [key for key in d if key not in ("kind", field)]
        if extra:
            raise UsageError(f"a {kind} geometry holds only kind and {field}, got {', '.join(map(repr, extra))}")
        if field not in d:
            return Geometry(kind)
        value = d[field]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise UsageError(f"geometry {field} must be a number, got {value!r}")
        try:
            return Geometry(kind, **{field: float(value)})
        except OverflowError:
            raise UsageError(f"geometry {field} must be a finite number, got {value!r}") from None


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _sqnorm(x: np.ndarray) -> np.ndarray:
    return np.sum(x * x, axis=-1, keepdims=True)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.sum(x * y, axis=-1, keepdims=True)


def _ball_limit(c: float) -> float:
    """Radius :func:`project_to_ball` pulls boundary points back to."""
    return (1.0 - BALL_MARGIN) / np.sqrt(c)


def _check_in_ball(x: np.ndarray, c: float, name: str) -> None:
    if np.any(c * np.sum(x * x, axis=-1) >= 1.0):
        raise BallDomainError(f"{name} lies outside the open ball of radius {1.0 / np.sqrt(c):g}")


def mobius_add(x, y, c: float):
    """Mobius addition ``x (+)_c y`` on the ball of curvature ``-c``.

    Non-commutative and non-associative in general; reduces to vector
    addition as ``c -> 0`` and is exact for collinear 1-D inputs.
    """
    x, y = _as_f64(x), _as_f64(y)
    if c <= 0.0:
        raise UsageError(f"mobius_add needs c > 0, got {c}")
    if x.shape[-1] != y.shape[-1]:
        raise UsageError(f"dimension mismatch: {x.shape[-1]} vs {y.shape[-1]}")
    _check_in_ball(x, c, "x")
    _check_in_ball(y, c, "y")
    xy, x2, y2 = _dot(x, y), _sqnorm(x), _sqnorm(y)
    num = (1.0 + 2.0 * c * xy + c * y2) * x + (1.0 - c * x2) * y
    den = 1.0 + 2.0 * c * xy + c * c * x2 * y2
    return num / np.maximum(den, MIN_DENOM)


def poincare_distance(x, y, c: float):
    """Geodesic distance ``(2/sqrt(c)) artanh(sqrt(c) |(-x) (+)_c y|)``.

    Returns an array with the last axis reduced (a scalar for 1-D input).
    """
    x, y = _as_f64(x), _as_f64(y)
    return _distance_of_difference(mobius_add(-x, y, c), c)


def _distance_of_difference(m: np.ndarray, c: float) -> np.ndarray:
    """:func:`poincare_distance` given the Mobius difference ``m = (-x) (+)_c y``."""
    s = np.sqrt(c)
    r = np.sqrt(np.sum(m * m, axis=-1))
    return (2.0 / s) * np.arctanh(np.clip(s * r, 0.0, ATANH_BOUND))


def log_map_origin(x, c: float):
    """Map a ball point to the tangent space at the origin.

    ``log_0(x) = artanh(sqrt(c) |x|) * x / (sqrt(c) |x|)``; the origin
    maps to the zero vector.
    """
    x = _as_f64(x)
    if c <= 0.0:
        raise UsageError(f"log_map_origin needs c > 0, got {c}")
    _check_in_ball(x, c, "x")
    s = np.sqrt(c)
    r = np.sqrt(_sqnorm(x))
    sr = np.clip(s * r, 0.0, ATANH_BOUND)
    # artanh(sr)/(sr) -> 1 as r -> 0
    factor = np.where(sr < MIN_DENOM, 1.0, np.arctanh(sr) / np.maximum(sr, MIN_DENOM))
    return factor * x


def exp_map_origin(v, c: float):
    """Inverse of :func:`log_map_origin`: tangent vector to ball point."""
    v = _as_f64(v)
    if c <= 0.0:
        raise UsageError(f"exp_map_origin needs c > 0, got {c}")
    s = np.sqrt(c)
    r = np.sqrt(_sqnorm(v))
    sr = s * r
    factor = np.where(sr < MIN_DENOM, 1.0, np.tanh(sr) / np.maximum(sr, MIN_DENOM))
    return factor * v


def clip_norm(x, max_norm: float):
    """Rescale rows with L2 norm above ``max_norm`` onto that sphere."""
    x = _as_f64(x)
    if not (max_norm > 0.0):
        raise UsageError(f"max_norm must be positive, got {max_norm}")
    r = np.sqrt(_sqnorm(x))
    scale = np.where(r > max_norm, max_norm / np.maximum(r, MIN_DENOM), 1.0)
    return x * scale


def project_to_ball(x, c: float):
    """Pull points at or past the boundary back to radius ``(1-BALL_MARGIN)/sqrt(c)``.

    Identity for interior points, so gradients flow untouched there.
    """
    if c <= 0.0:
        raise UsageError(f"project_to_ball needs c > 0, got {c}")
    return clip_norm(x, _ball_limit(c))


# ---------------------------------------------------------------------------
# Vector-Jacobian products (reverse-mode building blocks)
# ---------------------------------------------------------------------------


def _mobius_add_vjp(x, y, c: float, g) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate ``g`` through ``out = x (+)_c y`` to both inputs."""
    x, y, g = _as_f64(x), _as_f64(y), _as_f64(g)
    xy, x2, y2 = _dot(x, y), _sqnorm(x), _sqnorm(y)
    a = 1.0 + 2.0 * c * xy + c * y2
    b = 1.0 - c * x2
    den = np.maximum(1.0 + 2.0 * c * xy + c * c * x2 * y2, MIN_DENOM)
    out = (a * x + b * y) / den
    gx_d, gy_d, go = _dot(g, x), _dot(g, y), _dot(g, out)
    gx = (2.0 * c * gx_d * y + a * g - 2.0 * c * gy_d * x - go * (2.0 * c * y + 2.0 * c * c * y2 * x)) / den
    gy = (2.0 * c * gx_d * (x + y) + b * g - go * (2.0 * c * x + 2.0 * c * c * x2 * y)) / den
    return gx, gy


def _log_map_origin_vjp(x, c: float, g) -> np.ndarray:
    """Backpropagate through ``log_0``: J = f(r) I + (f'(r)/r) x x^T.

    Unlike the distance VJP this ignores the arctanh guard. The model
    only maps states, which are clipped to ``(1 - BALL_MARGIN)/sqrt(c)``,
    so ``sqrt(c)|x|`` stays below ``ATANH_BOUND`` there.
    """
    x, g = _as_f64(x), _as_f64(g)
    s = np.sqrt(c)
    r2 = _sqnorm(x)
    r = np.sqrt(r2)
    sr = np.clip(s * r, 0.0, ATANH_BOUND)
    f = np.where(sr < MIN_DENOM, 1.0, np.arctanh(sr) / np.maximum(sr, MIN_DENOM))
    # f'(r)/r = [r/(1-s^2 r^2) - artanh(sr)/s] / r^3; series kills the
    # catastrophic cancellation near the origin.
    series = (2.0 / 3.0) * c + (4.0 / 5.0) * c * c * r2
    exact_num = r / np.maximum(1.0 - sr * sr, MIN_DENOM) - np.arctanh(sr) / s
    fp_over_r = np.where(sr < 1e-3, series, exact_num / np.maximum(r2 * r, MIN_DENOM))
    return f * g + fp_over_r * _dot(g, x) * x


def _dist_sq_weight(r: np.ndarray, c: float) -> np.ndarray:
    """d(d_c^2)/dm = w(|m|) * m for m the Mobius difference; w(0) = 8.

    Zero where ``sqrt(c)|m|`` reached ``ATANH_BOUND``: the guarded
    distance is constant in ``|m|`` there.
    """
    s = np.sqrt(c)
    sr = np.clip(s * r, 0.0, ATANH_BOUND)
    series = 8.0 + (32.0 / 3.0) * sr * sr
    exact = 8.0 * np.arctanh(sr) / np.maximum(sr * (1.0 - sr * sr), MIN_DENOM)
    return np.where(sr < 1e-3, series, np.where(sr < ATANH_BOUND, exact, 0.0))


def _poincare_dist_sq_vjp(x, y, m, c: float, weight: float) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate ``weight * sum(d_c(x, y)^2)`` to ``x`` and ``y``.

    ``m`` is the Mobius difference ``(-x) (+)_c y`` the forward value
    was computed from.
    """
    x, y = _as_f64(x), _as_f64(y)
    r = np.sqrt(_sqnorm(m))
    gm = weight * _dist_sq_weight(r, c) * m
    gnx, gy = _mobius_add_vjp(-x, y, c, gm)
    return -gnx, gy


def _clip_norm_vjp(x, max_norm: float, g) -> np.ndarray:
    """Backpropagate through the branch :func:`clip_norm` actually took."""
    x, g = _as_f64(x), _as_f64(g)
    r = np.sqrt(_sqnorm(x))
    safe_r = np.maximum(r, MIN_DENOM)
    scaled = (max_norm / safe_r) * (g - _dot(x, g) * x / (safe_r * safe_r))
    return np.where(r > max_norm, scaled, g)


# ---------------------------------------------------------------------------
# Single-row kernels for the per-step recurrence (inputs valid by construction)
# ---------------------------------------------------------------------------
#
# Dot products are ``np.add.reduce`` over the row: the same pairwise
# summation ``np.sum`` runs, without its wrapper. ``max(den, MIN_DENOM)``
# keeps ``np.maximum``'s NaN propagation because the NaN comes first.


def _mobius_add_row(x: np.ndarray, y: np.ndarray, c: float) -> np.ndarray:
    xy = np.add.reduce(x * y)
    x2 = np.add.reduce(x * x)
    y2 = np.add.reduce(y * y)
    num = (1.0 + 2.0 * c * xy + c * y2) * x + (1.0 - c * x2) * y
    den = 1.0 + 2.0 * c * xy + c * c * x2 * y2
    return num / max(den, MIN_DENOM)


def _clip_row(x: np.ndarray, limit: float) -> np.ndarray:
    """``clip_norm`` / ``project_to_ball`` for one row; returns ``x`` itself when no clip fires."""
    r = np.sqrt(np.add.reduce(x * x))
    if r > limit:
        return x * (limit / max(r, MIN_DENOM))
    return x


def _clip_row_vjp(x: np.ndarray, limit: float, g: np.ndarray) -> np.ndarray:
    """``_clip_norm_vjp`` for one row; returns ``g`` itself when no clip fired."""
    r = np.sqrt(np.add.reduce(x * x))
    if r > limit:
        safe_r = max(r, MIN_DENOM)
        return (limit / safe_r) * (g - np.add.reduce(x * g) * x / (safe_r * safe_r))
    return g


def _mobius_add_row_vjp(x: np.ndarray, y: np.ndarray, c: float, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    xy = np.add.reduce(x * y)
    x2 = np.add.reduce(x * x)
    y2 = np.add.reduce(y * y)
    a = 1.0 + 2.0 * c * xy + c * y2
    b = 1.0 - c * x2
    den = max(1.0 + 2.0 * c * xy + c * c * x2 * y2, MIN_DENOM)
    out = (a * x + b * y) / den
    gx_d = np.add.reduce(g * x)
    gy_d = np.add.reduce(g * y)
    go = np.add.reduce(g * out)
    gx = (2.0 * c * gx_d * y + a * g - 2.0 * c * gy_d * x - go * (2.0 * c * y + 2.0 * c * c * y2 * x)) / den
    gy = (2.0 * c * gx_d * (x + y) + b * g - go * (2.0 * c * x + 2.0 * c * c * x2 * y)) / den
    return gx, gy
