"""Additive recurrent event embeddings in flat and hyperbolic space."""

from .dataset import EventDataset, Vocabulary, load_jsonl
from .errors import (
    BallDomainError,
    DataFormatError,
    Event2VecError,
    NumericalError,
    UsageError,
)
from .geometry import (
    Geometry,
    clip_norm,
    exp_map_origin,
    log_map_origin,
    mobius_add,
    poincare_distance,
    project_to_ball,
)
from .model import (
    DropoutSpec,
    HiddenTrajectory,
    LossBreakdown,
    ModelParams,
    consistency_seed,
    forward,
    gradients,
    init_params,
    load_checkpoint,
    loss_pred,
    loss_recon,
    predict_logits,
    save_checkpoint,
    total_loss,
)

__version__ = "0.1.0"

__all__ = [
    "BallDomainError",
    "DataFormatError",
    "DropoutSpec",
    "Event2VecError",
    "EventDataset",
    "Geometry",
    "LossBreakdown",
    "ModelParams",
    "NumericalError",
    "UsageError",
    "Vocabulary",
    "__version__",
    "HiddenTrajectory",
    "clip_norm",
    "consistency_seed",
    "exp_map_origin",
    "forward",
    "gradients",
    "init_params",
    "load_checkpoint",
    "load_jsonl",
    "log_map_origin",
    "loss_pred",
    "loss_recon",
    "mobius_add",
    "poincare_distance",
    "predict_logits",
    "project_to_ball",
    "save_checkpoint",
    "total_loss",
]
