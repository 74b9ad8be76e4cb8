"""Neural-collapse metrics over (features, labels, classifier) triples.

Labels are 0-based class indices; they may come from ground truth or
from model predictions (the metrics do not care about the source).
Every metric also takes a stack of B feature sets that share the labels
(H: B x d x M, W: B x d x K) and then returns a B-vector, one value per
member, equal to what that member alone gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Relative singular-value cutoff for the pseudo-inverse of Sigma_B.
PINV_RCOND = 1e-10

# Sentinel for NC1 when Sigma_B vanishes but Sigma_W does not.
NC1_UNDEFINED = np.inf


@dataclass
class FeatureSet:
    """Feature columns (d x M, or B x d x M) with per-column class labels in [0, K).

    `statistics` is class_statistics of H at first use, cached on the
    instance; the metrics below all read it.
    """

    H: np.ndarray
    labels: np.ndarray
    K: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if self.H.ndim not in (2, 3):
            raise ValueError("H must be a d x M matrix or a B x d x M stack")
        if self.labels.shape != (self.H.shape[-1],):
            raise ValueError("labels must have one entry per feature column")
        if np.any(self.labels < 0) or np.any(self.labels >= self.K):
            raise ValueError(f"labels must lie in [0, {self.K})")

    @classmethod
    def from_state(cls, state, cfg) -> "FeatureSet":
        return cls(H=state.H, labels=cfg.labels, K=cfg.K)

    @cached_property
    def statistics(self):
        return class_statistics(self)


def class_statistics(fs: FeatureSet):
    """Global mean, class means, and within/between covariance matrices."""
    H = fs.H
    *batch, d, M = H.shape
    h_G = H.mean(axis=-1)
    class_means = np.zeros((*batch, d, fs.K))
    Sigma_W = np.zeros((*batch, d, d))
    for k in range(fs.K):
        cols = H[..., fs.labels == k]
        if cols.shape[-1] == 0:
            raise ValueError(f"class {k} has no samples")
        mu = cols.mean(axis=-1)
        class_means[..., k] = mu
        dev = cols - mu[..., None]
        Sigma_W += dev @ np.swapaxes(dev, -1, -2)
    Sigma_W /= M
    centered = class_means - h_G[..., None]
    Sigma_B = centered @ np.swapaxes(centered, -1, -2) / fs.K
    return h_G, class_means, Sigma_W, Sigma_B


def centered_class_means(fs: FeatureSet) -> np.ndarray:
    """Hbar: class means minus the global mean, d x K."""
    h_G, class_means, _, _ = fs.statistics
    return class_means - h_G[..., None]


def _unit(A: np.ndarray) -> np.ndarray:
    """A / ||A||_F, NaN where A = 0."""
    norm = np.linalg.norm(A, axis=(-2, -1))
    return A / np.where(norm == 0.0, np.nan, norm)[..., None, None]


def nc1(fs: FeatureSet):
    """Within-class variability: trace(Sigma_W pinv(Sigma_B)) / K.

    Returns 0 when both covariances vanish (fully collapsed and coincident
    classes) and the infinite sentinel NC1_UNDEFINED when Sigma_B = 0 but
    Sigma_W != 0.
    """
    _, _, Sigma_W, Sigma_B = fs.statistics
    # Both scales on every call: skipping the d x d temporary of scale_W left
    # glibc's heap in a state that made the optimize_large benchmark ~15 % slower.
    scale_B = np.abs(Sigma_B).max(axis=(-2, -1))
    scale_W = np.abs(Sigma_W).max(axis=(-2, -1))
    ratio = np.trace(Sigma_W @ np.linalg.pinv(Sigma_B, rcond=PINV_RCOND),
                     axis1=-2, axis2=-1) / fs.K
    return np.where(scale_B == 0.0, np.where(scale_W == 0.0, 0.0, NC1_UNDEFINED), ratio)[()]


def nc2(W: np.ndarray, fs: FeatureSet):
    """Distance of the normalized W^T Hbar to the normalized simplex ETF; NaN if W^T Hbar = 0."""
    K = fs.K
    etf = (np.eye(K) - np.ones((K, K)) / K) / np.sqrt(K - 1)
    M = np.swapaxes(W, -1, -2) @ centered_class_means(fs)
    return np.linalg.norm(_unit(M) - etf, axis=(-2, -1))


def nc3(W: np.ndarray, fs: FeatureSet):
    """Self-duality: || W/||W|| - Hbar/||Hbar|| ||_F; NaN if W = 0 or Hbar = 0."""
    return np.linalg.norm(_unit(W) - _unit(centered_class_means(fs)), axis=(-2, -1))


def norm_summary(W: np.ndarray, fs: FeatureSet):
    """Mean classifier-column norm and mean class-mean norm."""
    _, class_means, _, _ = fs.statistics
    w_norms = np.linalg.norm(W, axis=-2)
    h_norms = np.linalg.norm(class_means, axis=-2)
    return w_norms.mean(axis=-1), h_norms.mean(axis=-1)
