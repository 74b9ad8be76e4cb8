"""Neural-collapse metrics of class-major features.

The columns of H follow the layout that ProblemConfig fixes: column
k*n + i holds sample i of class k, n samples per class.  The metrics read
the class means of H, which class_means computes once per feature set.
Every metric also takes a stack of B feature sets (H: B x d x M,
W: B x d x K, class means: B x d x K) and then returns a B-vector, one
value per member, equal to what that member alone gives.
"""

from __future__ import annotations

import numpy as np

from .closed_form import simplex_etf_core

# Relative singular-value cutoff for the pseudo-inverse of Sigma_B.
PINV_RCOND = 1e-10

# Sentinel for NC1 when Sigma_B vanishes but Sigma_W does not.
NC1_UNDEFINED = np.inf


def class_means(H: np.ndarray, K: int) -> np.ndarray:
    """Class means (d x K, or B x d x K) of the class-major columns of H."""
    return H.reshape(*H.shape[:-1], K, -1).mean(axis=-1)


def centered(means: np.ndarray) -> np.ndarray:
    """Hbar: the class means minus the global mean, which for balanced classes is their mean."""
    return means - means.mean(axis=-1, keepdims=True)


def _unit(A: np.ndarray) -> np.ndarray:
    """A / ||A||_F, NaN where A = 0."""
    norm = np.linalg.norm(A, axis=(-2, -1))
    return A / np.where(norm == 0.0, np.nan, norm)[..., None, None]


def nc1(H: np.ndarray, means: np.ndarray):
    """Within-class variability: trace(Sigma_W pinv(Sigma_B)) / K.

    With dev = H minus each column's class mean, Sigma_W = dev dev^T / M and,
    for the thin SVD Hbar = U diag(s) V^T, Sigma_B = Hbar Hbar^T / K; the trace is
    sum_i u_i^T (dev dev^T) u_i / (M s_i^2) over s_i^2 > PINV_RCOND s_1^2,
    the cutoff of pinv(Sigma_B, rcond=PINV_RCOND).
    Returns 0 when both covariances vanish (fully collapsed and coincident
    classes) and the infinite sentinel NC1_UNDEFINED when Sigma_B = 0 but
    Sigma_W != 0.
    """
    dev = (H.reshape(*means.shape, -1) - means[..., None]).reshape(H.shape)
    U, s, _ = np.linalg.svd(centered(means), full_matrices=False)
    s2 = s * s
    inv = np.divide(1.0, s2, out=np.zeros_like(s2), where=s2 > PINV_RCOND * s2[..., :1])
    quad = (U * (dev @ np.swapaxes(dev, -1, -2) @ U)).sum(axis=-2)
    ratio = (quad * inv).sum(axis=-1) / H.shape[-1]
    undefined = (s[..., 0] == 0.0) & dev.any(axis=(-2, -1))
    return np.where(undefined, NC1_UNDEFINED, ratio)[()]


def nc2(W: np.ndarray, means: np.ndarray):
    """Distance of the normalized W^T Hbar to the normalized simplex ETF; NaN if W^T Hbar = 0."""
    M = np.swapaxes(W, -1, -2) @ centered(means)
    return np.linalg.norm(_unit(M) - _unit(simplex_etf_core(means.shape[-1])), axis=(-2, -1))


def nc3(W: np.ndarray, means: np.ndarray):
    """Self-duality: || W/||W|| - Hbar/||Hbar|| ||_F; NaN if W = 0 or Hbar = 0."""
    return np.linalg.norm(_unit(W) - _unit(centered(means)), axis=(-2, -1))


def norm_summary(W: np.ndarray, means: np.ndarray):
    """Mean classifier-column norm and mean class-mean norm."""
    w_norms = np.linalg.norm(W, axis=-2)
    h_norms = np.linalg.norm(means, axis=-2)
    return w_norms.mean(axis=-1), h_norms.mean(axis=-1)
