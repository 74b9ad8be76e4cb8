"""Numerical laboratory for the unconstrained feature model under
cross-entropy and label-smoothing losses."""

from .config import OptimizerConfig, ProblemConfig, smooth_labels
from .core import ModelState, loss_and_grad, softmax_cols, ufm_loss
from .closed_form import (
    class_probabilities,
    global_minimizer,
    logit_scale,
    mean_logit_matrix,
    partial_orthogonal,
)
from .nc_metrics import nc1, nc2, nc3

__all__ = [
    "OptimizerConfig",
    "ProblemConfig",
    "ModelState",
    "softmax_cols",
    "smooth_labels",
    "ufm_loss",
    "loss_and_grad",
    "logit_scale",
    "class_probabilities",
    "partial_orthogonal",
    "mean_logit_matrix",
    "global_minimizer",
    "nc1",
    "nc2",
    "nc3",
]

__version__ = "0.1.0"
