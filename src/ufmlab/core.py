"""Smoothed-label risk of the unconstrained feature model and its gradients.

Matrix conventions: the classifier W is d x K, the feature matrix H is
d x N with column (k*n + i) holding sample i of class k (classes are
0-based), and the bias b is a K-vector.  Labels are stored one-hot as a
K x N matrix Y; the smoothed targets come from ProblemConfig.targets, which
is built once per problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The label builders live in config; core re-exports them.
from .config import ProblemConfig, one_hot_labels, smooth_labels  # noqa: F401

# Stand-in for an infinite cross-entropy term (exact zero probability
# against a positive target).
SATURATION_VALUE = 1e30


@dataclass
class ModelState:
    """Optimization variables (W: d x K, H: d x N, b: K)."""

    W: np.ndarray
    H: np.ndarray
    b: np.ndarray

    def copy(self) -> "ModelState":
        return ModelState(self.W.copy(), self.H.copy(), self.b.copy())

    def check_shapes(self, cfg: ProblemConfig):
        d, K, N = cfg.d, cfg.K, cfg.N
        if self.W.shape != (d, K):
            raise ValueError(f"W has shape {self.W.shape}, expected {(d, K)}")
        if self.H.shape != (d, N):
            raise ValueError(f"H has shape {self.H.shape}, expected {(d, N)}")
        if self.b.shape != (K,):
            raise ValueError(f"b has shape {self.b.shape}, expected {(K,)}")

    def logits(self) -> np.ndarray:
        """Z = W^T H + b 1^T, shape K x N."""
        return self.W.T @ self.H + self.b[:, None]


def _softmax_parts(Z: np.ndarray):
    """Max-shifted columns, their exponentials and the column sums of those."""
    shifted = Z - Z.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=0, keepdims=True)


def softmax_cols(Z: np.ndarray) -> np.ndarray:
    """Column-wise softmax with per-column max subtraction."""
    Z = np.asarray(Z, dtype=float)
    if not np.all(np.isfinite(Z)):
        raise ValueError("softmax_cols: input contains non-finite entries")
    _, e, s = _softmax_parts(Z)
    return e / s


def log_softmax_cols(Z: np.ndarray) -> np.ndarray:
    # Slicing drops the exponentials before the result is allocated.
    shifted, s = _softmax_parts(Z)[::2]
    return shifted - np.log(s)


def cross_entropy_cols(Z: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Per-column cross entropy of softmax(Z) against target columns T."""
    return (T * -log_softmax_cols(Z)).sum(axis=0)


def _forward(state: ModelState, cfg: ProblemConfig):
    """Loss, smoothed targets and softmax parts: the pass the gradient reuses.

    Non-finite logits are not rejected here; they make the loss non-finite,
    which callers treat as divergence.
    """
    state.check_shapes(cfg)
    Yd = cfg.targets
    shifted, e, s = _softmax_parts(state.logits())
    ce = (Yd * -(shifted - np.log(s))).sum(axis=0).sum() / cfg.N
    reg = (
        0.5 * cfg.lambda_w * np.sum(state.W**2)
        + 0.5 * cfg.lambda_h * np.sum(state.H**2)
        + 0.5 * cfg.lambda_b * np.sum(state.b**2)
    )
    return float(ce + reg), Yd, e, s


def ufm_loss(state: ModelState, cfg: ProblemConfig) -> float:
    """Regularized smoothed-label risk L(W, H, b)."""
    return _forward(state, cfg)[0]


def loss_and_grad(state: ModelState, cfg: ProblemConfig):
    """ufm_loss and its exact gradient blocks (G_W, G_H, g_b) from one forward pass."""
    loss, Yd, e, s = _forward(state, cfg)
    dZ = (e / s - Yd) / cfg.N
    G_W = state.H @ dZ.T + cfg.lambda_w * state.W
    G_H = state.W @ dZ + cfg.lambda_h * state.H
    g_b = dZ.sum(axis=1) + cfg.lambda_b * state.b
    return loss, (G_W, G_H, g_b)


def grad_blocks_norm(grads) -> float:
    """Euclidean norm of the gradient blocks (G_W, G_H, g_b) taken together."""
    return float(np.sqrt(sum(np.sum(g**2) for g in grads)))


def gradient_norm(state: ModelState, cfg: ProblemConfig) -> float:
    return grad_blocks_norm(loss_and_grad(state, cfg)[1])


def _smoothed_ce(p: np.ndarray, target: int, delta: float) -> tuple[float, bool]:
    """Cross entropy of p against the delta-smoothed one-hot target.

    Returns (value, saturated); zero probabilities against a positive
    target saturate at SATURATION_VALUE instead of producing inf.
    """
    K = p.shape[0]
    t = np.full(K, delta / K)
    t[target] += 1.0 - delta
    saturated = bool(np.any((p <= 0.0) & (t > 0.0)))
    if saturated:
        return SATURATION_VALUE, True
    with np.errstate(divide="ignore"):
        return float(-(t * np.log(p)).sum()), False


def ls_equalization_gap(
    p: np.ndarray, target: int, delta: float, with_flag: bool = False
):
    """Excess smoothed-label loss of p over its non-target-equalized version.

    The comparison point keeps p[target] and spreads the remaining mass
    uniformly over the other classes; by Jensen the gap is nonnegative and
    vanishes exactly when the non-target entries are already equal.
    """
    p = np.asarray(p, dtype=float)
    K = p.shape[0]
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not (0 <= target < K):
        raise ValueError(f"target {target} out of range for K={K}")
    if abs(p.sum() - 1.0) > 1e-9 or np.any(p < -1e-12):
        raise ValueError("p must be a probability vector")

    p_eq = np.full(K, (1.0 - p[target]) / (K - 1))
    p_eq[target] = p[target]

    loss_p, sat_p = _smoothed_ce(p, target, delta)
    loss_eq, sat_eq = _smoothed_ce(p_eq, target, delta)
    if sat_p or sat_eq:
        gap = SATURATION_VALUE if sat_p and not sat_eq else loss_p - loss_eq
        flag = True
    else:
        gap = loss_p - loss_eq
        flag = False
    if with_flag:
        return gap, flag
    return gap
