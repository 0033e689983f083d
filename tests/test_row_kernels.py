"""The unchecked row kernels against the validating public geometry functions.

``model.forward`` and ``model._backward_through_trajectory`` step through
the ball and clipped-flat recurrences with ``geometry._*_row`` kernels.
Sources of truth here:
- the per-step reference loop in ``helpers`` (public functions on 1-row
  arrays) and the reference reconstruction and consistency heads, which
  trajectories and gradients must match byte for byte, clipped or not;
- the vectorized public functions, which every kernel must match byte
  for byte on random and near-boundary rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from event2vec import DropoutSpec, Geometry, ModelParams, Vocabulary, clip_norm, mobius_add, project_to_ball
from event2vec import geometry as geo
from event2vec import model
from helpers import (ball_points, reference_backward, reference_consist_grads, reference_forward,
                     reference_recon_grads, tiny_params)

SEQ = np.array([3, 3, 5, 4, 3, 3, 3, 5, 1, 4, 4, 0])


def _near_boundary_params(geometry: Geometry) -> ModelParams:
    # Rows up to 0.9995 of the radius: Mobius sums of two such rows can
    # pass the projection radius, and dropout's rescaling can push a row
    # past the boundary, on some steps but not on others.
    rng = np.random.default_rng(1)
    emb = ball_points(rng, 6, 5, geometry.c, max_frac=0.9995)
    return ModelParams(geometry, Vocabulary([f"e{i}" for i in range(6)]), emb,
                       rng.normal(0.0, 0.3, size=(6, 5)), rng.normal(0.0, 0.1, size=6))


CASES = {
    "ball-c1": lambda: _near_boundary_params(Geometry("hyperbolic", c=1.0)),
    "ball-c2": lambda: _near_boundary_params(Geometry("hyperbolic", c=2.0)),
    "flat-clipped": lambda: tiny_params(1, Geometry("euclidean", max_norm=0.3), vocab_size=6, dim=5, scale=0.2),
    "flat": lambda: tiny_params(1, Geometry("euclidean"), vocab_size=6, dim=5, scale=0.2),
    "flat-never-fires": lambda: tiny_params(1, Geometry("euclidean", max_norm=10.0), vocab_size=6, dim=5, scale=0.2),
}
CLIPPED = {"ball-c1", "ball-c2", "flat-clipped"}


def _passes(rate):
    if rate == 0.0:
        return [None]
    spec = DropoutSpec(rate, seed=3)
    return [None, spec, DropoutSpec(rate, model.consistency_seed(spec.seed))]


def _fired(traj) -> np.ndarray:
    return np.any(traj.raw_states != traj.states[1:], axis=1)


@pytest.mark.parametrize("rate", [0.0, 0.1])
@pytest.mark.parametrize("case", sorted(CASES))
def test_forward_matches_reference_byte_for_byte(case, rate):
    params = CASES[case]()
    for spec in _passes(rate):
        for seq in (SEQ[:1], SEQ):
            got, want = model.forward(params, seq, spec), reference_forward(params, seq, spec)
            for field in ("states", "raw_states", "inputs"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
        if case in CLIPPED:
            # The clip or projection fired on some steps of the full pass, not on all.
            assert 0 < _fired(got).sum() < len(SEQ)
        else:
            assert _fired(got).sum() == 0


@pytest.mark.parametrize("rate", [0.0, 0.1])
@pytest.mark.parametrize("case", sorted(CASES))
def test_gradients_match_reference_byte_for_byte(case, rate, monkeypatch):
    params = CASES[case]()
    spec = DropoutSpec(rate, seed=3)
    for seq in (SEQ, SEQ[:1]):
        got_losses, got = model.gradients(params, seq, 0.8, 1.3, spec)
        with monkeypatch.context() as m:
            m.setattr(model, "forward", reference_forward)
            m.setattr(model, "_backward_through_trajectory", reference_backward)
            m.setattr(model, "_add_recon_grads", reference_recon_grads)
            m.setattr(model, "_add_consist_grads", reference_consist_grads)
            want_losses, want = model.gradients(params, seq, 0.8, 1.3, spec)
        assert got_losses == want_losses
        assert sorted(got) == sorted(want)
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), key


def test_ball_input_projection_fires_under_dropout():
    # Covers the input-projection branch (and its VJP) in the cases above.
    params = CASES["ball-c1"]()
    traj = model.forward(params, SEQ, DropoutSpec(0.1, seed=3))
    assert np.any(traj.inputs != traj.masked)


# ---------------------------------------------------------------------------
# Each kernel against its vectorized public counterpart
# ---------------------------------------------------------------------------

# Radii as a fraction of the ball radius: anywhere inside, or within a
# hair of the boundary.
RADIUS_FRAC = st.one_of(st.floats(0.0, 0.99), st.floats(0.99, 1.0 - 1e-9))


def _row(rng, dim, radius):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v) * radius


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 40), c=st.floats(0.05, 5.0),
       fx=RADIUS_FRAC, fy=RADIUS_FRAC)
def test_mobius_kernels_match_public_functions(seed, dim, c, fx, fy):
    rng = np.random.default_rng(seed)
    radius = 1.0 / np.sqrt(c)
    x, y, g = _row(rng, dim, fx * radius), _row(rng, dim, fy * radius), rng.normal(size=dim)
    assert geo._mobius_add_row(x, y, c).tobytes() == mobius_add(x, y, c).tobytes()
    for got, want in zip(geo._mobius_add_row_vjp(x, y, c, g), geo._mobius_add_vjp(x, y, c, g)):
        assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 40), c=st.floats(0.05, 5.0),
       ratio=st.one_of(st.floats(0.0, 2.0), st.floats(1.0 - 1e-9, 1.0 + 1e-9)))
def test_clip_kernels_match_public_functions(seed, dim, c, ratio):
    # ``ratio`` places the row inside, at, or past the clip radius.
    rng = np.random.default_rng(seed)
    limit = geo._ball_limit(c)
    x, g = _row(rng, dim, ratio * limit), rng.normal(size=dim)
    assert geo._clip_row(x, limit).tobytes() == project_to_ball(x, c).tobytes()
    assert geo._clip_row(x, limit).tobytes() == clip_norm(x, limit).tobytes()
    assert geo._clip_row_vjp(x, limit, g).tobytes() == geo._clip_norm_vjp(x, limit, g).tobytes()
