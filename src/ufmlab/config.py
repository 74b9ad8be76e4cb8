"""Problem and optimizer configuration dataclasses, and the label matrices."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


def one_hot_labels(K: int, n: int) -> np.ndarray:
    """Class-major one-hot label matrix Y (K x nK)."""
    labels = np.repeat(np.arange(K), n)
    Y = np.zeros((K, K * n))
    Y[labels, np.arange(K * n)] = 1.0
    return Y


def smooth_labels(Y: np.ndarray, delta: float) -> np.ndarray:
    """Smoothed targets (1 - delta) * Y + delta / K."""
    K = Y.shape[0]
    return (1.0 - delta) * Y + delta / K


def _require_integers(obj, names: tuple[str, ...]):
    """Raise ValueError naming the first field that is a bool or not an integer."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ProblemConfig:
    """One unconstrained-feature-model instance.

    K classes, n samples per class, feature dimension d, smoothing
    parameter delta in [0, 1), and L2 weights for the classifier,
    the features, and the bias.  The sample layout is class-major:
    column k*n + i holds sample i of class k.
    """

    K: int
    n: int
    d: int
    delta: float = 0.0
    lambda_w: float = 5e-3
    lambda_h: float = 5e-3
    lambda_b: float = 5e-3

    def __post_init__(self):
        _require_integers(self, ("K", "n", "d"))
        if self.K < 2:
            raise ValueError(f"K must be >= 2, got {self.K}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.d < self.K:
            raise ValueError(f"d must be >= K ({self.K}), got {self.d}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        for name in ("lambda_w", "lambda_h", "lambda_b"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        # The minimizer's scales read these two; finite and nonzero, they keep it finite.
        for name, value in (("lambda_w * lambda_h", self.lambda_w * self.lambda_h),
                            ("n * lambda_h / lambda_w", self.n * self.lambda_h / self.lambda_w)):
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"{name} {'underflows to 0' if value == 0.0 else 'overflows'} "
                    f"(lambda_w={self.lambda_w}, lambda_h={self.lambda_h})"
                )

    @property
    def N(self) -> int:
        """Total sample count n*K."""
        return self.n * self.K

    @property
    def lambda_z(self) -> float:
        """Geometric mean of the classifier and feature weights."""
        return math.sqrt(self.lambda_w * self.lambda_h)


@dataclass(frozen=True)
class OptimizerConfig:
    """Full-batch gradient descent settings."""

    learning_rate: float = 0.5
    momentum: float = 0.9
    max_iters: int = 50_000
    loss_tol: float = 1e-10
    record_every: int = 100
    init_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _require_integers(self, ("max_iters", "record_every", "seed"))
        for name in ("learning_rate", "loss_tol", "init_scale"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.loss_tol <= 0.0:
            raise ValueError("loss_tol must be positive")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.init_scale < 0.0:
            raise ValueError("init_scale must be nonnegative")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
