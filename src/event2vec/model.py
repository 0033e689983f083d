"""Additive recurrent event embedding model.

The state after reading a prefix is the running composition of the
embeddings of the events read so far:

* Euclidean: ``h_t = h_{t-1} + e_t`` with optional norm clipping.
* Hyperbolic: ``h_t = h_{t-1} (+)_c e_t`` (Mobius addition), with the
  state re-projected into the ball after every step.

Both geometries share one per-step loop (``raw = step(h, e)``, then a
clip to the geometry's limit) and one reverse sweep. Where flat
composition never clips, a cumulative sum replaces both.

Three losses attach to trajectories. Next-event prediction scores a
linear decoder applied to the state (after a log map at the origin in
the hyperbolic case). Path reconstruction penalises how far stepping
back by the current event lands from the previous state, evaluated on a
dropout-free trajectory. Consistency penalises divergence between two
independently masked trajectories of the same sequence.

Reconstruction and consistency are both sums of squared distances,
so one head serves both: it differentiates ``sum_i d(x_i, y_i)^2`` for
the geometry's distance. Gradients are computed by hand with reverse
sweeps over the stored trajectories; no autodiff framework is involved.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import geometry as geo
from .dataset import Vocabulary
from .errors import DataFormatError, UsageError
from .fileio import (SCHEMA_VERSION, array_field, check_schema_version, encode_array, int_field, read_json,
                     write_array_document)
from .seeding import derive_seed, rng_for


@dataclass(frozen=True)
class DropoutSpec:
    """Per-coordinate embedding dropout configuration.

    Masks use inverted scaling: kept coordinates are multiplied by
    ``1/(1-rate)`` so the masked embedding is unbiased in expectation.
    The masks are a pure function of (seed, sequence length, dim), so
    equal seeds reproduce equal masks.
    """

    rate: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 <= self.rate < 1.0):
            raise UsageError(f"dropout rate must lie in [0, 1), got {self.rate}")


def consistency_seed(seed: int) -> int:
    """Mask seed for the second trajectory of the consistency loss.

    Derived, not user-supplied, so the combined loss needs only one
    dropout seed while the two passes stay independently masked.
    """
    return derive_seed(seed, "consistency")


@dataclass
class ModelParams:
    """Learnable state: one embedding per event, plus a linear decoder."""

    geometry: geo.Geometry
    vocab: Vocabulary
    embeddings: np.ndarray  # (V, d)
    decoder_weights: np.ndarray | None = None  # (V, d)
    decoder_bias: np.ndarray | None = None  # (V,)

    def __post_init__(self) -> None:
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        if self.embeddings.ndim != 2 or self.embeddings.shape[0] != len(self.vocab):
            raise UsageError(
                f"embeddings must have shape ({len(self.vocab)}, dim), got {self.embeddings.shape}"
            )
        if (self.decoder_weights is None) != (self.decoder_bias is None):
            raise UsageError("decoder weights and bias must be provided together")
        if self.decoder_weights is not None:
            self.decoder_weights = np.asarray(self.decoder_weights, dtype=np.float64)
            self.decoder_bias = np.asarray(self.decoder_bias, dtype=np.float64)
            if self.decoder_weights.shape != self.embeddings.shape:
                raise UsageError("decoder weights must match the embedding table shape")
            if self.decoder_bias.shape != (len(self.vocab),):
                raise UsageError("decoder bias must have one entry per event")

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.embeddings.shape[0]

    @property
    def has_decoder(self) -> bool:
        return self.decoder_weights is not None

    def copy(self) -> "ModelParams":
        return ModelParams(
            geometry=self.geometry,
            vocab=self.vocab,
            embeddings=self.embeddings.copy(),
            decoder_weights=None if self.decoder_weights is None else self.decoder_weights.copy(),
            decoder_bias=None if self.decoder_bias is None else self.decoder_bias.copy(),
        )


def init_params(
    vocab: Vocabulary,
    dim: int,
    geometry: geo.Geometry,
    seed: int = 0,
    with_decoder: bool = True,
) -> ModelParams:
    """Uniform(-0.5/dim, 0.5/dim) embeddings, zero decoder."""
    if dim < 1:
        raise UsageError(f"dim must be >= 1, got {dim}")
    rng = rng_for(seed, "init")
    emb = rng.uniform(-0.5 / dim, 0.5 / dim, size=(len(vocab), dim))
    if geometry.is_hyperbolic:
        emb = geo.project_to_ball(emb, geometry.c)
    dec_w = np.zeros((len(vocab), dim)) if with_decoder else None
    dec_b = np.zeros(len(vocab)) if with_decoder else None
    return ModelParams(geometry, vocab, emb, dec_w, dec_b)


def param_arrays(params: ModelParams) -> dict[str, np.ndarray]:
    """The trainable arrays by name; gradients, Adam and train states use these keys."""
    return {
        "embeddings": params.embeddings,
        "decoder_weights": params.decoder_weights,
        "decoder_bias": params.decoder_bias,
    }


def zero_grads(params: ModelParams) -> dict[str, np.ndarray]:
    """A zero gradient for every trainable array of a model with a decoder."""
    return {name: np.zeros_like(arr) for name, arr in param_arrays(params).items()}


@dataclass
class HiddenTrajectory:
    """Everything the backward sweep needs from one forward pass.

    ``states[0]`` is the origin; ``states[t]`` is the state after event
    ``sequence[t-1]``. ``masked`` holds embeddings after dropout,
    ``inputs`` the vectors actually combined (after any ball
    projection), and ``raw_states`` the combination result before
    clip/projection.
    """

    sequence: np.ndarray  # (T,)
    states: np.ndarray  # (T+1, d)
    inputs: np.ndarray  # (T, d)
    masked: np.ndarray  # (T, d)
    raw_states: np.ndarray  # (T, d)
    masks: np.ndarray | None  # (T, d) or None for a clean pass

    @property
    def length(self) -> int:
        return len(self.sequence)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _dropout_masks(spec: DropoutSpec, length: int, dim: int) -> np.ndarray:
    rng = rng_for(spec.seed, "dropout")
    keep = rng.random((length, dim)) >= spec.rate
    return keep / (1.0 - spec.rate)


def forward(
    params: ModelParams,
    seq: np.ndarray,
    dropout: DropoutSpec | None = None,
) -> HiddenTrajectory:
    """Run one sequence through the recurrence and keep intermediates."""
    seq = np.asarray(seq, dtype=np.int64)
    if seq.ndim != 1 or seq.size == 0:
        raise UsageError("seq must be a non-empty 1-D array of event ids")
    if seq.min() < 0 or seq.max() >= params.vocab_size:
        raise UsageError("seq contains ids outside the vocabulary")
    t_len, dim = len(seq), params.dim
    g = params.geometry

    emb_rows = params.embeddings[seq]
    masks = None
    if dropout is not None and dropout.rate > 0.0:
        masks = _dropout_masks(dropout, t_len, dim)
        masked = emb_rows * masks
    else:
        masked = emb_rows.copy()

    states = np.zeros((t_len + 1, dim))
    if g.is_hyperbolic:
        # Mask rescaling can push a row past the boundary; pull it back
        # before the Mobius step (identity for interior rows). The row
        # kernels check nothing: inputs and states stay inside the ball
        # because both come out of a clip to the projection radius.
        inputs = geo.project_to_ball(masked, g.c)
        raw_states = np.empty((t_len, dim))
        step, limit = partial(geo._mobius_add_row, c=g.c), geo._ball_limit(g.c)
    else:
        inputs = masked
        raw_states = np.cumsum(inputs, axis=0)
        if g.max_norm is None or not np.any(np.sum(raw_states**2, axis=1) > g.max_norm**2):
            states[1:] = raw_states
            return HiddenTrajectory(seq, states, inputs, masked, raw_states, masks)
        step, limit = operator.add, g.max_norm
    for t in range(t_len):
        raw_states[t] = raw = step(states[t], inputs[t])
        states[t + 1] = geo._clip_row(raw, limit)
    return HiddenTrajectory(seq, states, inputs, masked, raw_states, masks)


def state_to_tangent(params: ModelParams, states: np.ndarray) -> np.ndarray:
    """Decoder input: the state itself, or its log map for ball states."""
    if params.geometry.is_hyperbolic:
        return geo.log_map_origin(states, params.geometry.c)
    return np.asarray(states, dtype=np.float64)


def predict_logits(params: ModelParams, states: np.ndarray) -> np.ndarray:
    """Next-event scores for one state (or a stack of states)."""
    if not params.has_decoder:
        raise UsageError("model has no decoder; next-event scores are unavailable")
    states = np.asarray(states, dtype=np.float64)
    if states.shape[-1] != params.dim:
        raise UsageError(f"state dimension {states.shape[-1]} does not match model dim {params.dim}")
    z = state_to_tangent(params, states)
    return z @ params.decoder_weights.T + params.decoder_bias


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    m = logits.max(axis=-1, keepdims=True)
    shifted = logits - m
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def loss_pred(params: ModelParams, traj: HiddenTrajectory) -> float:
    """Summed next-event cross-entropy along the trajectory.

    The state after event t scores event t+1, so a length-1 sequence
    has no prediction terms (returns 0 with a warning).
    """
    if traj.length < 2:
        warnings.warn("length-1 sequence has no next-event prediction terms", stacklevel=2)
        return 0.0
    logits = predict_logits(params, traj.states[1:-1])
    logp = _log_softmax(logits)
    targets = traj.sequence[1:]
    return float(-np.sum(logp[np.arange(len(targets)), targets]))


def loss_recon(params: ModelParams, traj: HiddenTrajectory) -> float:
    """How far stepping back by each event lands from the previous state.

    Evaluated on a dropout-free trajectory with the unmasked embedding
    table. Zero for unclipped Euclidean composition by construction.
    """
    if traj.masks is not None:
        raise UsageError("reconstruction loss is defined on a clean (mask-free) trajectory")
    g = params.geometry
    emb = params.embeddings[traj.sequence]
    h_prev, h_cur = traj.states[:-1], traj.states[1:]
    if g.is_hyperbolic:
        back = geo.mobius_add(h_cur, -emb, g.c)
        d = geo.poincare_distance(back, h_prev, g.c)
        return float(np.sum(d * d))
    delta = h_cur - emb - h_prev
    return float(np.sum(delta * delta))


def _consist_value(params: ModelParams, traj_a: HiddenTrajectory, traj_b: HiddenTrajectory) -> float:
    g = params.geometry
    a, b = traj_a.states[1:], traj_b.states[1:]
    if g.is_hyperbolic:
        d = geo.poincare_distance(a, b, g.c)
        return float(np.sum(d * d))
    delta = a - b
    return float(np.sum(delta * delta))


@dataclass(frozen=True)
class LossBreakdown:
    pred: float
    recon: float
    consist: float
    total: float

    @classmethod
    def weighted(cls, pred: float, recon: float, consist: float, lambda_recon: float,
                 lambda_consist: float) -> "LossBreakdown":
        return cls(pred, recon, consist, pred + lambda_recon * recon + lambda_consist * consist)


def _passes(params: ModelParams, seq: np.ndarray, dropout: DropoutSpec | None) -> list[HiddenTrajectory]:
    """The distinct forward passes feeding the combined loss.

    With dropout active: two independently masked passes (prediction
    reads the first, consistency compares both) and last a clean pass
    for reconstruction. Without: one clean pass serves prediction and
    reconstruction, and consistency vanishes.
    """
    if dropout is not None and dropout.rate > 0.0:
        return [
            forward(params, seq, dropout),
            forward(params, seq, DropoutSpec(dropout.rate, consistency_seed(dropout.seed))),
            forward(params, seq, None),
        ]
    return [forward(params, seq, None)]


def total_loss(
    params: ModelParams,
    seq: np.ndarray,
    lambda_recon: float = 1.0,
    lambda_consist: float = 1.0,
    dropout: DropoutSpec | None = None,
) -> LossBreakdown:
    passes = _passes(params, seq, dropout)
    pred = loss_pred(params, passes[0]) if len(np.atleast_1d(seq)) >= 2 else 0.0
    recon = loss_recon(params, passes[-1])
    consist = _consist_value(params, passes[0], passes[1]) if len(passes) > 1 else 0.0
    return LossBreakdown.weighted(pred, recon, consist, lambda_recon, lambda_consist)


def _backward_through_trajectory(
    params: ModelParams, traj: HiddenTrajectory, g_states: np.ndarray, grads: dict[str, np.ndarray]
) -> None:
    """Push accumulated state gradients back to the embedding table.

    ``g_states[t]`` is dL/d(states[t]). Walks t = T..1 through the
    clip/projection and combination of each step, following exactly the
    branch the forward pass took.
    """
    g = params.geometry
    if not g.is_hyperbolic and (g.max_norm is None or np.array_equal(traj.raw_states, traj.states[1:])):
        # Identity chain: each state's gradient flows to every
        # earlier input, i.e. a reversed cumulative sum.
        g_masked = np.cumsum(g_states[1:][::-1], axis=0)[::-1]
    else:
        limit = geo._ball_limit(g.c) if g.is_hyperbolic else g.max_norm
        g_inputs = np.empty_like(traj.inputs)
        for t in range(traj.length - 1, -1, -1):
            gr = geo._clip_row_vjp(traj.raw_states[t], limit, g_states[t + 1])
            if g.is_hyperbolic:
                gh_prev, g_inputs[t] = geo._mobius_add_row_vjp(traj.states[t], traj.inputs[t], g.c, gr)
            else:  # h + e passes gr on to both operands
                gh_prev = g_inputs[t] = gr
            g_states[t] += gh_prev
        # Ball inputs are the masked rows after their projection.
        g_masked = geo._clip_norm_vjp(traj.masked, limit, g_inputs) if g.is_hyperbolic else g_inputs
    if traj.masks is not None:
        g_masked = g_masked * traj.masks
    np.add.at(grads["embeddings"], traj.sequence, g_masked)


def _add_pred_grads(
    params: ModelParams, traj: HiddenTrajectory, g_states: np.ndarray, grads: dict[str, np.ndarray]
) -> float:
    """Cross-entropy value plus its gradients (decoder directly, states via g_states)."""
    if traj.length < 2:
        return 0.0
    states = traj.states[1:-1]
    z = state_to_tangent(params, states)
    logits = z @ params.decoder_weights.T + params.decoder_bias
    logp = _log_softmax(logits)
    targets = traj.sequence[1:]
    rows = np.arange(len(targets))
    value = float(-np.sum(logp[rows, targets]))

    g_logits = np.exp(logp)
    g_logits[rows, targets] -= 1.0
    grads["decoder_weights"] += g_logits.T @ z
    grads["decoder_bias"] += g_logits.sum(axis=0)
    g_z = g_logits @ params.decoder_weights
    g = params.geometry
    g_states[1:-1] += geo._log_map_origin_vjp(states, g.c, g_z) if g.is_hyperbolic else g_z
    return value


def _dist_sq_grads(
    geometry: geo.Geometry, x: np.ndarray, y: np.ndarray, weight: float
) -> tuple[float, np.ndarray | None, np.ndarray | None]:
    """``sum_i d(x_i, y_i)^2``, and ``weight`` times its gradients w.r.t. ``x`` and ``y`` (None when 0).

    ``d`` is the Poincare distance in the ball and the L2 distance in flat space.
    """
    if geometry.is_hyperbolic:
        m = geo.mobius_add(-x, y, geometry.c)
        d = geo._distance_of_difference(m, geometry.c)
    else:
        d = x - y
    value = float(np.sum(d * d))
    if weight == 0.0:
        return value, None, None
    if geometry.is_hyperbolic:
        return (value, *geo._poincare_dist_sq_vjp(x, y, m, geometry.c, weight))
    gd = 2.0 * weight * d
    return value, gd, -gd


def _add_recon_grads(
    params: ModelParams, clean: HiddenTrajectory, weight: float, g_states: np.ndarray, grads: dict[str, np.ndarray]
) -> float:
    """Reconstruction value and gradients (states via g_states, embeddings direct)."""
    g = params.geometry
    emb = params.embeddings[clean.sequence]
    h_prev, h_cur = clean.states[:-1], clean.states[1:]
    back = geo.mobius_add(h_cur, -emb, g.c) if g.is_hyperbolic else h_cur - emb
    value, g_back, g_hprev = _dist_sq_grads(g, back, h_prev, weight)
    if g_back is not None:
        if g.is_hyperbolic:
            g_hcur, g_negemb = geo._mobius_add_vjp(h_cur, -emb, g.c, g_back)
        else:
            g_hcur = g_negemb = g_back
        g_states[1:] += g_hcur
        g_states[:-1] += g_hprev
        np.add.at(grads["embeddings"], clean.sequence, -g_negemb)
    return value


def _add_consist_grads(params: ModelParams, traj_a: HiddenTrajectory, traj_b: HiddenTrajectory, weight: float,
                       g_a: np.ndarray, g_b: np.ndarray) -> float:
    """Consistency value and gradients (both passes' states via g_a and g_b)."""
    value, ga, gb = _dist_sq_grads(params.geometry, traj_a.states[1:], traj_b.states[1:], weight)
    if ga is not None:
        g_a[1:] += ga
        g_b[1:] += gb
    return value


def gradients(
    params: ModelParams,
    seq: np.ndarray,
    lambda_recon: float = 1.0,
    lambda_consist: float = 1.0,
    dropout: DropoutSpec | None = None,
    into: dict[str, np.ndarray] | None = None,
) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    """Combined loss for one sequence, and its exact gradients added into ``into``.

    ``into`` is a :func:`zero_grads` dict, or a running total built from
    one: each gradient term adds straight into its arrays, which are
    returned. A training loop passes its batch total, so no per-sequence
    (V, d) buffer is made. Without ``into`` the gradients land in fresh
    zeros.
    """
    if not params.has_decoder:
        raise UsageError("training requires a decoder; build params with with_decoder=True")
    passes = _passes(params, seq, dropout)
    grads = zero_grads(params) if into is None else into
    g_states = [np.zeros_like(traj.states) for traj in passes]
    pred = _add_pred_grads(params, passes[0], g_states[0], grads)
    consist = 0.0
    if len(passes) > 1:
        consist = _add_consist_grads(params, passes[0], passes[1], lambda_consist, g_states[0], g_states[1])
    recon = _add_recon_grads(params, passes[-1], lambda_recon, g_states[-1], grads)
    for traj, g_traj in zip(passes, g_states):
        _backward_through_trajectory(params, traj, g_traj, grads)
    return LossBreakdown.weighted(pred, recon, consist, lambda_recon, lambda_consist), grads


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def model_to_doc(params: ModelParams) -> dict:
    """The JSON document a checkpoint holds; train states embed the same one.

    Arrays are encoded by :func:`fileio.encode_array`, which refuses
    non-finite values.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "geometry": params.geometry.to_dict(),
        "dim": params.dim,
        "vocab": list(params.vocab.names),
        **{name: None if arr is None else encode_array(arr, name) for name, arr in param_arrays(params).items()},
    }


def model_from_doc(doc, path: str) -> ModelParams:
    """Parse and fully validate a :func:`model_to_doc` document read from ``path``.

    Both schema versions load. Every problem raises
    :class:`DataFormatError` naming ``path`` and the field: schema,
    missing keys, array encodings, shapes, ``dim``, non-finite values,
    and hyperbolic embedding rows outside the open ball.
    """
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: the model document must be a JSON object")
    check_schema_version(doc, path, "model")
    required = ("geometry", "dim", "vocab", "embeddings")
    missing = [k for k in required if k not in doc]
    if missing:
        raise DataFormatError(f"{path}: missing checkpoint keys: {', '.join(missing)}")
    arrays = {
        name: None if doc.get(name) is None else array_field(doc[name], path, name)
        for name in ("embeddings", "decoder_weights", "decoder_bias")
    }
    try:
        geometry = geo.Geometry.from_dict(doc["geometry"])
        vocab = Vocabulary(doc["vocab"])
        params = ModelParams(geometry=geometry, vocab=vocab, **arrays)
    except (UsageError, ValueError, TypeError, OverflowError) as e:
        raise DataFormatError(f"{path}: malformed checkpoint: {e}") from None
    if params.dim != int_field(doc["dim"], path, "dim"):
        raise DataFormatError(f"{path}: dim field does not match embedding shape")
    for name, arr in param_arrays(params).items():
        if arr is not None and not np.all(np.isfinite(arr)):
            raise DataFormatError(f"{path}: {name} contain non-finite values")
    if geometry.is_hyperbolic:
        outside = np.flatnonzero(geometry.c * np.sum(params.embeddings**2, axis=1) >= 1.0)
        if outside.size:
            raise DataFormatError(
                f"{path}: embeddings row {outside[0]} ({vocab.names[outside[0]]!r}) lies outside "
                f"the open ball of radius {geometry.ball_radius:g}"
            )
    return params


def save_checkpoint(params: ModelParams, path: str) -> None:
    """Write params as one JSON document; arrays are raw float64 bytes, so they reload bit-exactly.

    :func:`fileio.write_array_document` writes the file: the bytes of
    ``json.dumps(model_to_doc(params))`` plus a newline, with the base64
    payloads copied in unescaped. A non-finite array raises
    ``ValueError`` before any file is written.
    """
    write_array_document(path, model_to_doc(params))


def load_checkpoint(path: str) -> ModelParams:
    return model_from_doc(read_json(path, "checkpoint"), path)
