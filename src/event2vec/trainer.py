"""Training loop: seeded shuffling, batched Adam updates, logging, resume.

Reproducibility contract: with a fixed config and dataset, the whole
run is bit-reproducible on one platform. Every random stream (shuffle
order, per-sequence dropout masks) is derived from ``config.seed`` plus
structural indices (epoch, sequence index), never from global state, so
a run resumed from a saved state at epoch k replays exactly the epochs
an uninterrupted run would have performed.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import IO

import numpy as np

from . import geometry as geo
from .dataset import EventDataset
from .errors import DataFormatError, NumericalError, UsageError, check_config_types
from .fileio import (SCHEMA_VERSION, array_field, check_schema_version, encode_array, int_field, read_json,
                     write_array_document)
from .model import (
    DropoutSpec,
    ModelParams,
    gradients,
    init_params,
    model_from_doc,
    model_to_doc,
    param_arrays,
    save_checkpoint,
    zero_grads,
)
from .seeding import derive_seed, rng_for


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 0.02
    lambda_recon: float = 1.0
    lambda_consist: float = 1.0
    dropout_rate: float = 0.1
    dim: int = 32
    seed: int = 0
    geometry: geo.Geometry = field(default_factory=lambda: geo.Geometry(geo.EUCLIDEAN, max_norm=10.0))
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        check_config_types(
            self,
            ints=("epochs", "batch_size", "dim", "seed", "checkpoint_every"),
            reals=("learning_rate", "lambda_recon", "lambda_consist", "dropout_rate",
                   "adam_beta1", "adam_beta2", "adam_eps"),
        )
        if not isinstance(self.geometry, geo.Geometry):
            raise UsageError(f"geometry must be a Geometry, got {self.geometry!r}")
        if self.epochs < 0:
            raise UsageError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise UsageError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (self.learning_rate > 0.0):
            raise UsageError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise UsageError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.dim < 1:
            raise UsageError(f"dim must be >= 1, got {self.dim}")
        if not (0.0 < self.adam_beta1 < 1.0 and 0.0 < self.adam_beta2 < 1.0):
            raise UsageError("adam betas must lie in (0, 1)")
        if not (self.adam_eps > 0.0):
            raise UsageError("adam_eps must be positive")
        if self.checkpoint_every < 0:
            raise UsageError("checkpoint_every must be >= 0")

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["geometry"] = self.geometry.to_dict()
        return d

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        d = dict(d)
        if "geometry" in d and isinstance(d["geometry"], dict):
            d["geometry"] = geo.Geometry.from_dict(d["geometry"])
        unknown = set(d) - set(TrainConfig.__dataclass_fields__)
        if unknown:
            raise UsageError(f"unknown train config fields: {', '.join(sorted(unknown))}")
        return TrainConfig(**d)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    mean_total: float
    mean_pred: float
    mean_recon: float
    mean_consist: float
    wall_seconds: float


TrainLog = list[EpochRecord]


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Parameters plus first/second moment buffers and a step counter."""

    params: dict[str, np.ndarray]
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            params=params,
            m={k: np.zeros_like(a) for k, a in params.items()},
            v={k: np.zeros_like(a) for k, a in params.items()},
        )


def adam_step(state: AdamState, grads: dict[str, np.ndarray], config: TrainConfig) -> AdamState:
    """One bias-corrected Adam update, in place. Returns the state."""
    for key, g in grads.items():
        if key not in state.params:
            raise UsageError(f"gradient for unknown parameter {key!r}")
        if g.shape != state.params[key].shape:
            raise UsageError(
                f"gradient shape {g.shape} does not match parameter {key!r} shape {state.params[key].shape}"
            )
    state.step += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    corr1 = 1.0 - b1**state.step
    corr2 = 1.0 - b2**state.step
    for key, g in grads.items():
        m, v, p = state.m[key], state.v[key], state.params[key]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= config.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + config.adam_eps)
    return state


# ---------------------------------------------------------------------------
# Resumable state
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    """Everything needed to continue a run exactly: model, moments, epoch."""

    params: ModelParams
    adam: AdamState
    next_epoch: int


def save_train_state(path: str, state: TrainState) -> None:
    """Write ``state`` as one JSON document; the model and Adam arrays reload bit-exactly.

    The model part is :func:`model.model_to_doc`'s document. Like a
    checkpoint, the file is written by :func:`fileio.write_array_document`,
    so it holds the bytes of ``json.dumps(doc)`` plus a newline. A
    non-finite array raises ``ValueError`` before any file is written.
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "model": model_to_doc(state.params),
        "adam": {
            "step": state.adam.step,
            "m": {k: encode_array(a, f"adam.m.{k}") for k, a in state.adam.m.items()},
            "v": {k: encode_array(a, f"adam.v.{k}") for k, a in state.adam.v.items()},
        },
        "next_epoch": state.next_epoch,
    }
    write_array_document(path, doc)


def load_train_state(path: str) -> TrainState:
    """Read a :func:`save_train_state` file of either schema version, validating every value in it.

    The model goes through the checkpoint validator; the Adam moments must
    match the parameter shapes and be finite, with ``v >= 0``, and the step
    and epoch counters must be non-negative.
    """
    doc = read_json(path, "train state")
    check_schema_version(doc, path, "train state")
    params = model_from_doc(doc.get("model"), path)
    if not params.has_decoder:
        raise DataFormatError(f"{path}: train state model has no decoder")
    arrs = param_arrays(params)
    try:
        m = {k: array_field(a, path, f"adam.m.{k}") for k, a in doc["adam"]["m"].items()}
        v = {k: array_field(a, path, f"adam.v.{k}") for k, a in doc["adam"]["v"].items()}
        step, next_epoch = doc["adam"]["step"], doc["next_epoch"]
    except (KeyError, TypeError, AttributeError) as e:
        raise DataFormatError(f"{path}: malformed train state: {e}") from None
    adam = AdamState(params=arrs, m=m, v=v, step=int_field(step, path, "adam.step"))
    next_epoch = int_field(next_epoch, path, "next_epoch")
    if adam.step < 0 or next_epoch < 0:
        raise DataFormatError(f"{path}: adam.step and next_epoch must be >= 0")
    for name, moments in (("m", adam.m), ("v", adam.v)):
        if set(moments) != set(arrs):
            raise DataFormatError(f"{path}: adam.{name} must hold exactly {', '.join(sorted(arrs))}")
        for k, a in moments.items():
            if a.shape != arrs[k].shape:
                raise DataFormatError(f"{path}: moment buffer adam.{name}.{k} does not match parameter shape")
            if not np.all(np.isfinite(a)):
                raise DataFormatError(f"{path}: adam.{name}.{k} contain non-finite values")
    for k, a in adam.v.items():
        if np.any(a < 0.0):
            raise DataFormatError(f"{path}: adam.v.{k} contain negative values")
    return TrainState(params=params, adam=adam, next_epoch=next_epoch)


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------


def _sequence_work(params, sequence, config: TrainConfig, epoch: int, index: int, into):
    spec = None
    if config.dropout_rate > 0.0:
        spec = DropoutSpec(config.dropout_rate, derive_seed(config.seed, "dropout", epoch, index))
    return gradients(params, sequence, config.lambda_recon, config.lambda_consist, spec, into)


def train(
    dataset: EventDataset,
    config: TrainConfig,
    *,
    resume_state: TrainState | None = None,
    checkpoint_path: str | None = None,
    state_path: str | None = None,
    log_stream: IO[str] | None = None,
) -> tuple[ModelParams, TrainLog]:
    """Train on the dataset and return (params, per-epoch log).

    ``resume_state`` continues a run saved by ``save_train_state``;
    epochs before ``state.next_epoch`` are skipped, and the remaining
    ones replay exactly as in the uninterrupted run. The log covers the
    epochs executed by this call.
    """
    if len(dataset) == 0:
        raise UsageError("cannot train on an empty dataset")

    if resume_state is not None:
        params = resume_state.params
        if params.geometry != config.geometry or params.dim != config.dim:
            raise UsageError("resume state geometry/dim does not match the train config")
        if params.vocab != dataset.vocab:
            raise UsageError("resume state vocabulary does not match the dataset")
        adam = resume_state.adam
        start_epoch = resume_state.next_epoch
    else:
        params = init_params(dataset.vocab, config.dim, config.geometry, config.seed)
        adam = AdamState.for_params(param_arrays(params))
        start_epoch = 0

    n = len(dataset)
    log: TrainLog = []
    batch_grads = zero_grads(params)
    for epoch in range(start_epoch, config.epochs):
        t0 = time.perf_counter()
        order = rng_for(config.seed, "shuffle", epoch).permutation(n)
        sums = np.zeros(4)  # pred, recon, consist, total
        for b_start in range(0, n, config.batch_size):
            batch = order[b_start : b_start + config.batch_size]
            for arr in batch_grads.values():
                arr.fill(0.0)
            # Deterministic reduction: sequences add into the total in batch index order.
            for i in batch:
                lb, _ = _sequence_work(params, dataset.sequences[int(i)], config, epoch, int(i), batch_grads)
                sums += (lb.pred, lb.recon, lb.consist, lb.total)
            for arr in batch_grads.values():
                arr *= 1.0 / len(batch)
            if not np.isfinite(sums[3]) or any(
                not np.all(np.isfinite(a)) for a in batch_grads.values()
            ):
                raise NumericalError(
                    f"non-finite loss or gradient at epoch {epoch}, batch {b_start // config.batch_size}"
                )
            adam_step(adam, batch_grads, config)
            if config.geometry.is_hyperbolic:
                emb = adam.params["embeddings"]
                emb[...] = geo.project_to_ball(emb, config.geometry.c)
        record = EpochRecord(
            epoch=epoch,
            mean_total=float(sums[3] / n),
            mean_pred=float(sums[0] / n),
            mean_recon=float(sums[1] / n),
            mean_consist=float(sums[2] / n),
            wall_seconds=time.perf_counter() - t0,
        )
        log.append(record)
        if log_stream is not None:
            log_stream.write(json.dumps(asdict(record)) + "\n")
            log_stream.flush()
        done = epoch + 1
        if config.checkpoint_every > 0 and done % config.checkpoint_every == 0 and done < config.epochs:
            _snapshot(params, adam, done, checkpoint_path, state_path)

    _snapshot(params, adam, config.epochs, checkpoint_path, state_path)
    return params, log


def _snapshot(params, adam, next_epoch, checkpoint_path, state_path) -> None:
    if checkpoint_path is not None:
        save_checkpoint(params, checkpoint_path)
    if state_path is not None:
        save_train_state(state_path, TrainState(params=params, adam=adam, next_epoch=next_epoch))
