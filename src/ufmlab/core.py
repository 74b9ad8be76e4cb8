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

from .config import ProblemConfig


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
