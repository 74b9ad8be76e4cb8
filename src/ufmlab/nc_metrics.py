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
    """Global mean and class means (d x K): one GEMM against the M x K class indicator."""
    M = fs.labels.size
    counts = np.bincount(fs.labels, minlength=fs.K)
    if not counts.all():
        raise ValueError(f"class {np.argmin(counts)} has no samples")
    indicator = np.zeros((M, fs.K))
    indicator[np.arange(M), fs.labels] = 1.0
    return fs.H.mean(axis=-1), fs.H @ indicator / counts


def centered_class_means(fs: FeatureSet) -> np.ndarray:
    """Hbar: class means minus the global mean, d x K."""
    h_G, class_means = fs.statistics
    return class_means - h_G[..., None]


def _unit(A: np.ndarray) -> np.ndarray:
    """A / ||A||_F, NaN where A = 0."""
    norm = np.linalg.norm(A, axis=(-2, -1))
    return A / np.where(norm == 0.0, np.nan, norm)[..., None, None]


def nc1(fs: FeatureSet):
    """Within-class variability: trace(Sigma_W pinv(Sigma_B)) / K.

    With dev = H - class_means[labels], Sigma_W = dev dev^T / M and, for the
    thin SVD Hbar = U diag(s) V^T, Sigma_B = Hbar Hbar^T / K; the trace is
    sum_i u_i^T (dev dev^T) u_i / (M s_i^2) over s_i^2 > PINV_RCOND s_1^2,
    the cutoff of pinv(Sigma_B, rcond=PINV_RCOND).
    Returns 0 when both covariances vanish (fully collapsed and coincident
    classes) and the infinite sentinel NC1_UNDEFINED when Sigma_B = 0 but
    Sigma_W != 0.
    """
    _, class_means = fs.statistics
    dev = class_means[..., fs.labels]
    np.subtract(fs.H, dev, out=dev)
    U, s, _ = np.linalg.svd(centered_class_means(fs), full_matrices=False)
    s2 = s * s
    inv = np.divide(1.0, s2, out=np.zeros_like(s2), where=s2 > PINV_RCOND * s2[..., :1])
    quad = (U * (dev @ np.swapaxes(dev, -1, -2) @ U)).sum(axis=-2)
    ratio = (quad * inv).sum(axis=-1) / fs.labels.size
    undefined = (s[..., 0] == 0.0) & dev.any(axis=(-2, -1))
    return np.where(undefined, NC1_UNDEFINED, ratio)[()]


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
    _, class_means = fs.statistics
    w_norms = np.linalg.norm(W, axis=-2)
    h_norms = np.linalg.norm(class_means, axis=-2)
    return w_norms.mean(axis=-1), h_norms.mean(axis=-1)
