"""Hessian spectra of the unregularized risk at the global minimizer.

Both partial Hessians (features with W fixed, classifier with H fixed)
have closed-form spectra built from the Laplacian of the optimal
prediction vector; the condition number over the nonzero eigenvalues is
K * p_t for both, which shrinks as the smoothing parameter grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ProblemConfig
from .closed_form import class_probabilities, minimizer_scales
from .core import ModelState, softmax_cols

# Relative gap used to cluster numerically equal eigenvalues.
CLUSTER_REL_GAP = 1e-8
# Eigenvalues at or below this fraction of lambda_max count as zero.
ZERO_CUTOFF = 1e-10


@dataclass
class SpectrumReport:
    """Eigenvalues with multiplicities, plus the condition number."""

    eigenpairs: list[tuple[float, int]]
    condition_number: float
    source: str
    degenerate: bool = False
    notes: list[str] = field(default_factory=list)


def probability_laplacian(p: np.ndarray) -> np.ndarray:
    """diag(p) - p p^T for a probability vector p.

    A K x N matrix is read as N probability columns; the result is then
    K x K x N, with the Laplacian of column j in [:, :, j].
    """
    p = np.asarray(p, dtype=float)
    # written so that NaN fails it
    if not (np.all(p >= 0) and np.all(np.abs(p.sum(axis=0) - 1.0) <= 1e-9)):
        raise ValueError("p must be a probability vector")
    K = p.shape[0]
    D = np.zeros((K,) + p.shape)
    D[range(K), range(K)] = p
    D -= p[:, None] * p[None, :]
    return D


def condition_number(eigenvalues) -> float:
    """lambda_max / lambda_min over eigenvalues above ZERO_CUTOFF * lambda_max."""
    vals = np.sort(np.asarray(eigenvalues, dtype=float))
    lam_max = vals[-1]
    if lam_max <= 0.0:
        raise ValueError("all-zero spectrum has no condition number")
    nonzero = vals[vals > ZERO_CUTOFF * lam_max]
    return float(lam_max / nonzero[0])


def analytic_feature_hessian_spectrum(cfg: ProblemConfig) -> SpectrumReport:
    """Spectrum of one per-sample feature block (1/N) W D W^T (d x d)."""
    p_t, p_n = class_probabilities(cfg)
    K, d, N = cfg.K, cfg.d, cfg.N
    # W = c_w P (K I - 11^T) = s P (I - 11^T/K), with s = K c_w.
    s2 = (K * minimizer_scales(cfg)[0]) ** 2
    pairs = [(0.0, 1 + d - K)]
    if K > 2:
        pairs.append((s2 * p_n / N, K - 2))
    pairs.append((s2 * K * p_t * p_n / N, 1))
    notes = []
    degenerate = False
    if s2 == 0.0:
        kappa = math.nan
        degenerate = True
        notes.append("zero logit scale: all eigenvalues vanish")
    elif K == 2:
        kappa = 1.0
        degenerate = True
        notes.append("K=2: single nonzero eigenvalue, condition number trivially 1")
    else:
        kappa = K * p_t
    return SpectrumReport(pairs, kappa, "analytic", degenerate, notes)


def analytic_classifier_hessian_spectrum(cfg: ProblemConfig) -> SpectrumReport:
    """Spectrum of the full classifier Hessian (Kd x Kd) at the minimizer."""
    K, d = cfg.K, cfg.d
    if K < 3:
        raise ValueError("classifier spectrum requires K >= 3 (K=2 degenerates)")
    p_t, p_n = class_probabilities(cfg)
    c = K * minimizer_scales(cfg)[1] ** 2  # K c_h^2: the spectrum's prefactor
    lam_mid = (1.0 - p_t + p_n) * (p_n + (K - 1) * p_t) / K
    pairs = [
        (0.0, 2 * K - 1 + K * (d - K)),
        (c * p_n, K * K - 3 * K + 1),
        (c * lam_mid, K - 1),
        (c * K * p_n * p_t, 1),
    ]
    notes = []
    degenerate = False
    if c == 0.0:
        kappa = math.nan
        degenerate = True
        notes.append("zero logit scale: all eigenvalues vanish")
    else:
        kappa = K * p_t
    return SpectrumReport(pairs, kappa, "analytic", degenerate, notes)


def numeric_hessian_features(state: ModelState, cfg: ProblemConfig) -> np.ndarray:
    """The d x d block (1/N) W D W^T of the first sample (class 0)."""
    state.check_shapes(cfg)
    D = probability_laplacian(softmax_cols(state.logits())[:, 0])
    return state.W @ D @ state.W.T / cfg.N


def numeric_hessian_classifier(state: ModelState, cfg: ProblemConfig) -> np.ndarray:
    """Classifier Hessian w.r.t. vec(W) (columns stacked), H fixed, in range(H).

    (1/N) sum_j kron(D_j, h_j h_j^T) vanishes on every W whose columns are
    orthogonal to range(H).  With U_r the r left singular vectors of H above
    NumPy's matrix_rank tolerance and G = U_r^T H, the Hessian is
    kron(I, U_r) M kron(I, U_r)^T for the Kr x Kr block M built here from G.
    When r = d, G is H itself and M the full Kd x Kd Hessian; H = 0 gives 0 x 0.
    """
    state.check_shapes(cfg)
    H = state.H
    D = probability_laplacian(softmax_cols(state.logits()))
    K, N = cfg.K, cfg.N
    U, sv, _ = np.linalg.svd(H, full_matrices=False)
    r = int(np.count_nonzero(sv > sv[0] * max(H.shape) * np.finfo(float).eps))
    G = H if r == cfg.d else U[:, :r].T @ H
    # M[a, p, b, q] = sum_j (g_j[p] D_j[a, b]) g_j[q], one GEMM per block row a,
    # written straight into M.
    M = np.empty((K, r, K, r))
    A = np.empty((r, K, N))
    for a in range(K):
        np.multiply(G[:, None, :], D[a], out=A)
        np.matmul(A.reshape(r * K, N), G.T, out=M[a].reshape(r * K, r))
    M /= N
    return M.reshape(K * r, K * r)


def classifier_eigenvalues(state: ModelState, cfg: ProblemConfig) -> np.ndarray:
    """Ascending Kd eigenvalues of the classifier Hessian: those of its block in
    range(H), plus K (d - r) exact zeros for the directions orthogonal to H."""
    M = numeric_hessian_classifier(state, cfg)
    vals = np.linalg.eigvalsh(M)
    return np.sort(np.concatenate([np.zeros(cfg.K * cfg.d - len(M)), vals]))


def cluster_eigenvalues(values: np.ndarray) -> list[tuple[float, int]]:
    """Group nearly equal eigenvalues; returns (mean, count) ascending."""
    vals = np.sort(np.asarray(values, dtype=float))
    lam_max = max(abs(vals[0]), abs(vals[-1]))
    if lam_max == 0.0:
        return [(0.0, len(vals))]
    starts = np.flatnonzero(np.diff(vals, prepend=-np.inf) > CLUSTER_REL_GAP * lam_max)
    counts = np.diff(starts, append=len(vals))
    means = np.add.reduceat(vals, starts) / counts
    return [(float(m), int(c)) for m, c in zip(means, counts)]


def compare_to_analytic(
    analytic: SpectrumReport, numeric_values: np.ndarray
) -> tuple[float, bool]:
    """Cluster numeric eigenvalues and match them against the analytic pairs.

    Returns (max relative deviation, multiplicities matched).  Deviation
    for a zero analytic eigenvalue is measured relative to lambda_max.
    """
    clusters = cluster_eigenvalues(numeric_values)
    pairs = sorted(analytic.eigenpairs)
    lam_max = max(abs(v) for v, _ in pairs)
    if lam_max == 0.0:
        lam_max = max(abs(np.asarray(numeric_values)).max(), 1.0)
    mults_ok = len(clusters) == len(pairs) and all(
        c[1] == p[1] for c, p in zip(clusters, pairs)
    )
    max_dev = 0.0
    for (num_val, _), (ana_val, _) in zip(clusters, pairs):
        if ana_val == 0.0:
            dev = abs(num_val) / lam_max
        else:
            dev = abs(num_val - ana_val) / abs(ana_val)
        max_dev = max(max_dev, dev)
    return max_dev, mults_ok


def numeric_spectrum(vals: np.ndarray) -> SpectrumReport:
    """Numeric report from ascending eigenvalues of an assembled Hessian.

    The report is flagged degenerate when fewer than two eigenvalue clusters
    lie above ZERO_CUTOFF * lambda_max (all zero, or one nonzero value as in
    a K = 2 feature block).
    """
    pairs = cluster_eigenvalues(vals)
    lam_max = vals[-1]
    kappa = math.nan if lam_max <= 0.0 else condition_number(vals)
    nonzero = sum(v > ZERO_CUTOFF * lam_max for v, _ in pairs)
    return SpectrumReport(pairs, kappa, "numeric", bool(nonzero < 2))
