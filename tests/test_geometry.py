import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from event2vec import (
    BallDomainError,
    Geometry,
    UsageError,
    clip_norm,
    exp_map_origin,
    log_map_origin,
    mobius_add,
    poincare_distance,
    project_to_ball,
)
from event2vec.geometry import (
    ATANH_BOUND,
    BALL_MARGIN,
    _ball_limit,
    _clip_norm_vjp,
    _log_map_origin_vjp,
    _mobius_add_vjp,
    _poincare_dist_sq_vjp,
)
from helpers import ball_points


# ---------------------------------------------------------------------------
# Frozen single-value oracles
# ---------------------------------------------------------------------------


def test_mobius_add_one_dimensional_value():
    # velocity-addition law: (0.3 + 0.4) / (1 + 0.12) = 0.625
    out = mobius_add(np.array([0.3]), np.array([0.4]), 1.0)
    assert abs(out[0] - 0.625) < 1e-15


def test_distance_from_origin_value():
    # 2 * artanh(0.5)
    d = poincare_distance(np.array([0.0, 0.0]), np.array([0.5, 0.0]), 1.0)
    assert abs(d - 1.0986122886681098) < 1e-15
    assert abs(poincare_distance(np.array([0.5, 0.0]), np.array([0.0, 0.0]), 1.0) - d) < 1e-15


def test_log_map_value_and_inverse():
    out = log_map_origin(np.array([0.5]), 1.0)
    assert abs(out[0] - 0.5493061443340548) < 1e-15

    rng = np.random.default_rng(7)
    for c in (0.5, 1.0, 2.0):
        x = ball_points(rng, 50, 3, c)
        back = exp_map_origin(log_map_origin(x, c), c)
        assert np.max(np.abs(back - x)) < 1e-12


def test_maps_fix_origin():
    z = np.zeros(4)
    assert np.array_equal(log_map_origin(z, 1.0), z)
    assert np.array_equal(exp_map_origin(z, 1.0), z)


def test_clip_norm_values():
    assert np.allclose(clip_norm(np.array([3.0, 4.0]), 1.0), [0.6, 0.8], atol=1e-15)
    small = np.array([0.3, -0.1])
    assert np.array_equal(clip_norm(small, 1.0), small)
    assert np.array_equal(clip_norm(np.zeros(3), 1.0), np.zeros(3))


# ---------------------------------------------------------------------------
# Algebraic properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_gyro_identities(c):
    rng = np.random.default_rng(int(c * 10))
    x = ball_points(rng, 200, 4, c)
    y = ball_points(rng, 200, 4, c)
    zero = np.zeros_like(x)

    assert np.max(np.abs(mobius_add(zero, x, c) - x)) < 1e-9
    assert np.max(np.abs(mobius_add(x, zero, c) - x)) < 1e-9
    assert np.max(np.abs(mobius_add(-x, x, c))) < 1e-9
    assert np.max(np.abs(mobius_add(x, -x, c))) < 1e-9
    # left cancellation
    assert np.max(np.abs(mobius_add(-x, mobius_add(x, y, c), c) - y)) < 1e-9


def test_collinear_reduces_to_scalar_law():
    rng = np.random.default_rng(3)
    for c in (0.5, 1.0, 2.0):
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        a, b = 0.63 / np.sqrt(c), -0.41 / np.sqrt(c)
        out = mobius_add(a * u, b * u, c)
        expected = (a + b) / (1.0 + c * a * b) * u
        assert np.max(np.abs(out - expected)) < 1e-9


def test_not_commutative_in_general():
    x = np.array([0.3, 0.0])
    y = np.array([0.0, 0.4])
    gap = np.linalg.norm(mobius_add(x, y, 1.0) - mobius_add(y, x, 1.0))
    assert gap > 1e-2


def test_small_curvature_approaches_vector_addition():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(100, 5))
    y = rng.normal(size=(100, 5))
    out = mobius_add(x, y, 1e-8)
    assert np.max(np.abs(out - (x + y))) < 1e-5


def test_addition_stays_inside_ball():
    rng = np.random.default_rng(13)
    for c in (0.5, 1.0, 2.0):
        x = ball_points(rng, 300, 3, c, max_frac=0.999)
        y = ball_points(rng, 300, 3, c, max_frac=0.999)
        out = mobius_add(x, y, c)
        assert np.all(c * np.sum(out * out, axis=-1) < 1.0)


def test_distance_invariant_under_left_translation():
    rng = np.random.default_rng(17)
    c = 1.0
    x = ball_points(rng, 100, 4, c, max_frac=0.7)
    y = ball_points(rng, 100, 4, c, max_frac=0.7)
    z = ball_points(rng, 100, 4, c, max_frac=0.7)
    base = poincare_distance(x, y, c)
    moved = poincare_distance(mobius_add(z, x, c), mobius_add(z, y, c), c)
    assert np.max(np.abs(base - moved)) < 1e-8


def test_triangle_inequality():
    rng = np.random.default_rng(19)
    c = 1.0
    x, y, z = (ball_points(rng, 100, 3, c) for _ in range(3))
    lhs = poincare_distance(x, z, c)
    rhs = poincare_distance(x, y, c) + poincare_distance(y, z, c)
    assert np.all(lhs <= rhs + 1e-12)


def test_distance_batch_shape():
    rng = np.random.default_rng(23)
    x = ball_points(rng, 8, 3, 1.0)
    y = ball_points(rng, 8, 3, 1.0)
    assert poincare_distance(x, y, 1.0).shape == (8,)
    assert np.ndim(poincare_distance(x[0], y[0], 1.0)) == 0


# ---------------------------------------------------------------------------
# Row independence: a stack of rows gives each row's own result, bit for bit
# ---------------------------------------------------------------------------
#
# Batched callers (the additivity curve, pattern composition) step whole
# (n, d) stacks and rely on this. d up to 130 crosses numpy's 8-wide unrolled
# reduction and its 128-element pairwise block.


def rows_near(rng, n: int, d: int, radius: float, outside: bool) -> np.ndarray:
    """n random rows: about half within a relative 1e-6 of ``radius`` (past it
    too when ``outside``), the rest anywhere inside, a few exactly zero."""
    v = rng.normal(size=(n, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    frac = rng.uniform(0.0, 1.0, size=n)
    near = rng.random(n) < 0.5
    frac[near] = 1.0 - rng.uniform(-1e-6 if outside else 1e-9, 1e-6, size=near.sum())
    frac[rng.random(n) < 0.1] = 0.0
    return v * (frac * radius)[:, None]


def assert_rowwise(stacked: np.ndarray, per_row) -> None:
    for i, row in enumerate(stacked):
        assert row.tobytes() == per_row(i).tobytes(), i


ROW_STACKS = dict(
    n=st.integers(1, 64), d=st.integers(1, 130), c=st.floats(0.1, 10.0), seed=st.integers(0, 2**32 - 1)
)


@settings(max_examples=80, deadline=None)
@given(**ROW_STACKS)
def test_clip_norm_is_row_independent(n, d, c, seed):
    rng = np.random.default_rng(seed)
    max_norm = c  # the curvature's range serves as the clip radius's
    x = rows_near(rng, n, d, max_norm, outside=True)
    assert_rowwise(clip_norm(x, max_norm), lambda i: clip_norm(x[i], max_norm))


@settings(max_examples=80, deadline=None)
@given(**ROW_STACKS)
def test_project_to_ball_is_row_independent(n, d, c, seed):
    rng = np.random.default_rng(seed)
    # Rows about the projection limit and about the boundary itself.
    radius = _ball_limit(c) if seed % 2 else 1.0 / np.sqrt(c)
    x = rows_near(rng, n, d, radius, outside=True)
    assert_rowwise(project_to_ball(x, c), lambda i: project_to_ball(x[i], c))


@settings(max_examples=80, deadline=None)
@given(**ROW_STACKS)
def test_mobius_add_is_row_independent(n, d, c, seed):
    rng = np.random.default_rng(seed)
    x = rows_near(rng, n, d, 1.0 / np.sqrt(c), outside=False)
    y = rows_near(rng, n, d, 1.0 / np.sqrt(c), outside=False)
    assert_rowwise(mobius_add(x, y, c), lambda i: mobius_add(x[i], y[i], c))


# ---------------------------------------------------------------------------
# Projection / domain handling
# ---------------------------------------------------------------------------


def test_project_to_ball_behaviour():
    c = 1.0
    inside = np.array([0.3, 0.2])
    assert np.array_equal(project_to_ball(inside, c), inside)

    outside = np.array([3.0, 4.0])
    proj = project_to_ball(outside, c)
    assert abs(np.linalg.norm(proj) - (1.0 - BALL_MARGIN)) < 1e-12
    assert np.array_equal(project_to_ball(proj, c), proj)  # idempotent
    # direction preserved
    assert np.allclose(proj / np.linalg.norm(proj), outside / np.linalg.norm(outside))


def test_mobius_add_rejects_points_outside_ball():
    with pytest.raises(BallDomainError):
        mobius_add(np.array([1.2, 0.0]), np.array([0.1, 0.0]), 1.0)
    with pytest.raises(BallDomainError):
        mobius_add(np.array([0.1, 0.0]), np.array([0.0, 1.0]), 1.0)  # boundary is excluded


def test_argument_validation():
    with pytest.raises(UsageError):
        mobius_add(np.array([0.1]), np.array([0.1]), 0.0)
    with pytest.raises(UsageError):
        mobius_add(np.array([0.1, 0.2]), np.array([0.1]), 1.0)
    with pytest.raises(UsageError):
        clip_norm(np.array([1.0]), 0.0)
    with pytest.raises(UsageError):
        log_map_origin(np.array([0.1]), -1.0)


def test_geometry_dataclass_validation_and_round_trip():
    with pytest.raises(UsageError):
        Geometry("spherical")
    with pytest.raises(UsageError):
        Geometry("hyperbolic", c=0.0)
    with pytest.raises(UsageError):
        Geometry("hyperbolic", max_norm=1.0)
    with pytest.raises(UsageError):
        Geometry("euclidean", max_norm=-2.0)
    with pytest.raises(UsageError):
        Geometry("hyperbolic", c=float("inf"))
    with pytest.raises(UsageError):
        Geometry("euclidean", max_norm=float("inf"))

    for g in (Geometry("euclidean"), Geometry("euclidean", max_norm=10.0),
              Geometry("hyperbolic", c=0.5)):
        assert Geometry.from_dict(g.to_dict()) == g
    assert Geometry("hyperbolic", c=2.0).ball_radius == pytest.approx(1.0 / np.sqrt(2.0))
    with pytest.raises(UsageError):
        Geometry("euclidean").ball_radius


@pytest.mark.parametrize("d", [
    {"kind": "hyperbolic", "max_norm": 5},  # another kind's field
    {"kind": "euclidean", "c": 3},
    {"kind": "euclidean", "max_nrom": 5.0},  # misspelt
    {"kind": "hyperbolic", "c": 1.0, "note": "x"},
    {"kind": "hyperbolic", "c": True},  # not numbers
    {"kind": "hyperbolic", "c": "2"},
    {"kind": "euclidean", "max_norm": None},
    {"kind": "euclidean", "max_norm": [1.0]},
    {"kind": "hyperbolic", "c": 10**400},  # a JSON integer too large for a double
    {"kind": ["hyperbolic"]},
    {"c": 1.0},
], ids=["ball-max_norm", "flat-c", "misspelt", "extra-key", "c-true", "c-string", "max_norm-null",
        "max_norm-list", "c-huge-int", "kind-list", "no-kind"])
def test_geometry_from_dict_refuses_other_keys_and_non_numbers(d):
    with pytest.raises(UsageError, match="geometry"):
        Geometry.from_dict(d)


def test_geometry_from_dict_reads_integers_and_defaults():
    assert Geometry.from_dict({"kind": "hyperbolic", "c": 2}) == Geometry("hyperbolic", c=2.0)
    assert Geometry.from_dict({"kind": "hyperbolic"}) == Geometry("hyperbolic", c=1.0)
    assert Geometry.from_dict({"kind": "euclidean", "max_norm": 3}) == Geometry("euclidean", max_norm=3.0)
    assert Geometry.from_dict({"kind": "euclidean"}) == Geometry("euclidean")


# ---------------------------------------------------------------------------
# Vector-Jacobian products against finite differences
# ---------------------------------------------------------------------------


def _fd_vec(fun, x, g, eps=1e-6):
    """FD gradient of sum(g * fun(x)) w.r.t. x."""
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp.flat[i] += eps
        xm.flat[i] -= eps
        grad.flat[i] = (np.sum(g * fun(xp)) - np.sum(g * fun(xm))) / (2.0 * eps)
    return grad


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_mobius_add_vjp_matches_fd(c):
    rng = np.random.default_rng(int(c * 100))
    x = ball_points(rng, 1, 4, c, max_frac=0.6)[0]
    y = ball_points(rng, 1, 4, c, max_frac=0.6)[0]
    g = rng.normal(size=4)
    gx, gy = _mobius_add_vjp(x, y, c, g)
    assert np.allclose(gx, _fd_vec(lambda v: mobius_add(v, y, c), x, g), atol=1e-7)
    assert np.allclose(gy, _fd_vec(lambda v: mobius_add(x, v, c), y, g), atol=1e-7)


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_log_map_vjp_matches_fd(c):
    rng = np.random.default_rng(int(c * 101))
    g = rng.normal(size=3)
    for frac in (0.5, 1e-5):  # generic point and the near-origin series branch
        x = ball_points(rng, 1, 3, c, max_frac=frac)[0]
        gx = _log_map_origin_vjp(x, c, g)
        assert np.allclose(gx, _fd_vec(lambda v: log_map_origin(v, c), x, g), atol=1e-6)


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_dist_sq_vjp_matches_fd(c):
    rng = np.random.default_rng(int(c * 102))
    x = ball_points(rng, 1, 4, c, max_frac=0.5)[0]
    y = ball_points(rng, 1, 4, c, max_frac=0.5)[0]
    gx, gy = _poincare_dist_sq_vjp(x, y, mobius_add(-x, y, c), c, 1.0)
    assert np.allclose(gx, _fd_vec(lambda v: poincare_distance(v, y, c) ** 2, x, 1.0), atol=1e-6)
    assert np.allclose(gy, _fd_vec(lambda v: poincare_distance(x, v, c) ** 2, y, 1.0), atol=1e-6)


@pytest.mark.parametrize("c", [1.0, 2.5])
@pytest.mark.parametrize("frac_x,frac_y", [(0.9999, 0.9999), (0.99999, 0.9999)])
def test_dist_sq_vjp_follows_the_arctanh_guard(c, frac_x, frac_y):
    # Nearly antipodal rim points: sqrt(c)|m| passes ATANH_BOUND, so the
    # computed distance is constant nearby and its gradient is zero.
    u = np.random.default_rng(31).normal(size=4)
    u /= np.linalg.norm(u)
    x, y = -frac_x * u / np.sqrt(c), frac_y * u / np.sqrt(c)
    m = mobius_add(-x, y, c)
    assert np.sqrt(c) * np.linalg.norm(m) >= ATANH_BOUND
    gx, gy = _poincare_dist_sq_vjp(x, y, m, c, 1.0)
    for grad, fun, at in ((gx, lambda v: poincare_distance(v, y, c) ** 2, x),
                          (gy, lambda v: poincare_distance(x, v, c) ** 2, y)):
        fd = _fd_vec(fun, at, 1.0, eps=1e-6)
        assert np.array_equal(fd, _fd_vec(fun, at, 1.0, eps=1e-7))  # converged
        assert np.allclose(grad, fd, atol=1e-6)


def test_dist_sq_vjp_coincident_points_is_zero():
    x = np.array([0.2, -0.1])
    gx, gy = _poincare_dist_sq_vjp(x, x.copy(), mobius_add(-x, x, 1.0), 1.0, 1.0)
    assert np.allclose(gx, 0.0, atol=1e-12)
    assert np.allclose(gy, 0.0, atol=1e-12)


def test_clip_and_projection_vjps_match_fd():
    rng = np.random.default_rng(29)
    g = rng.normal(size=3)
    over = np.array([1.2, -0.8, 0.5])
    under = np.array([0.2, 0.1, -0.1])
    assert np.allclose(_clip_norm_vjp(over, 1.0, g),
                       _fd_vec(lambda v: clip_norm(v, 1.0), over, g), atol=1e-7)
    assert np.array_equal(_clip_norm_vjp(under, 1.0, g), g)  # identity branch is exact
    # The projection's VJP is the clip's at the ball limit.
    assert np.allclose(_clip_norm_vjp(over, _ball_limit(1.0), g),
                       _fd_vec(lambda v: project_to_ball(v, 1.0), over, g), atol=1e-7)
