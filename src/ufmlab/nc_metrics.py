"""Neural-collapse metrics over (features, labels, classifier) triples.

Labels are 0-based class indices; they may come from ground truth or
from model predictions (the metrics do not care about the source).
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
    """Feature columns (d x M) with per-column class labels in [0, K).

    `statistics` is class_statistics of H at first use, cached on the
    instance; the metrics below all read it.
    """

    H: np.ndarray
    labels: np.ndarray
    K: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if self.H.ndim != 2:
            raise ValueError("H must be a d x M matrix")
        if self.labels.shape != (self.H.shape[1],):
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
    d, M = fs.H.shape
    h_G = fs.H.mean(axis=1)
    class_means = np.zeros((d, fs.K))
    Sigma_W = np.zeros((d, d))
    for k in range(fs.K):
        cols = fs.H[:, fs.labels == k]
        if cols.shape[1] == 0:
            raise ValueError(f"class {k} has no samples")
        mu = cols.mean(axis=1)
        class_means[:, k] = mu
        dev = cols - mu[:, None]
        Sigma_W += dev @ dev.T
    Sigma_W /= M
    centered = class_means - h_G[:, None]
    Sigma_B = centered @ centered.T / fs.K
    return h_G, class_means, Sigma_W, Sigma_B


def centered_class_means(fs: FeatureSet) -> np.ndarray:
    """Hbar: class means minus the global mean, d x K."""
    h_G, class_means, _, _ = fs.statistics
    return class_means - h_G[:, None]


def nc1(fs: FeatureSet) -> float:
    """Within-class variability: trace(Sigma_W pinv(Sigma_B)) / K.

    Returns 0 when both covariances vanish (fully collapsed and coincident
    classes) and the infinite sentinel NC1_UNDEFINED when Sigma_B = 0 but
    Sigma_W != 0.
    """
    _, _, Sigma_W, Sigma_B = fs.statistics
    # Both scales on every call: skipping the d x d temporary of scale_W left
    # glibc's heap in a state that made the optimize_large benchmark ~15 % slower.
    scale_B = np.abs(Sigma_B).max()
    scale_W = np.abs(Sigma_W).max()
    if scale_B == 0.0:
        return 0.0 if scale_W == 0.0 else NC1_UNDEFINED
    return float(np.trace(Sigma_W @ np.linalg.pinv(Sigma_B, rcond=PINV_RCOND)) / fs.K)


def nc2(W: np.ndarray, fs: FeatureSet) -> float:
    """Distance of the normalized W^T Hbar to the normalized simplex ETF."""
    K = fs.K
    M = W.T @ centered_class_means(fs)
    norm = np.linalg.norm(M)
    if norm == 0.0:
        raise ValueError("W^T Hbar is zero; NC2 undefined")
    etf = (np.eye(K) - np.ones((K, K)) / K) / np.sqrt(K - 1)
    return float(np.linalg.norm(M / norm - etf))


def nc3(W: np.ndarray, fs: FeatureSet) -> float:
    """Self-duality: || W/||W|| - Hbar/||Hbar|| ||_F."""
    Hbar = centered_class_means(fs)
    nw, nh = np.linalg.norm(W), np.linalg.norm(Hbar)
    if nw == 0.0 or nh == 0.0:
        raise ValueError("W or Hbar is zero; NC3 undefined")
    return float(np.linalg.norm(W / nw - Hbar / nh))


def norm_summary(W: np.ndarray, fs: FeatureSet) -> tuple[float, float]:
    """Mean classifier-column norm and mean class-mean norm."""
    _, class_means, _, _ = fs.statistics
    w_norms = np.linalg.norm(W, axis=0)
    h_norms = np.linalg.norm(class_means, axis=0)
    return float(w_norms.mean()), float(h_norms.mean())
