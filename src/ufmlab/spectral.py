"""Hessian spectra of the unregularized risk at the global minimizer.

Both partial Hessians (features with W fixed, classifier with H fixed)
have closed-form spectra built from the Laplacian of the optimal
prediction vector.  For K >= 3 the condition number over the nonzero
eigenvalues is K * p_t = K - (K - 1) s for both, which shrinks as the
smoothing parameter grows; at K = 2 both have one nonzero eigenvalue, so
both reports are degenerate with condition number 1.
Analytic and numeric reports cluster every eigenvalue of their Hessian by
one rule, and compare_to_analytic matches them eigenvalue by eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .config import ProblemConfig
from .closed_form import class_probabilities, minimizer_scales, s_axis
from .core import ModelState, softmax_cols

# Relative gap used to cluster numerically equal eigenvalues.
CLUSTER_REL_GAP = 1e-8
# Eigenvalues at or below this fraction of lambda_max count as zero.
ZERO_CUTOFF = 1e-10
# The note of a degenerate report, by its count of nonzero eigenvalues.
DEGENERATE_NOTES = (
    "zero logit scale: all eigenvalues vanish",
    "K=2: single nonzero eigenvalue, condition number trivially 1",
)


@dataclass
class SpectrumReport:
    """Every eigenvalue of a Hessian, clustered, and what they say about conditioning.

    Runs of sorted values with steps of at most CLUSTER_REL_GAP * max |value| form clusters,
    kept in eigenpairs as (first value + mean offset, count), ascending: a repeated value stays
    exact.  Clusters above ZERO_CUTOFF * lambda_max are nonzero; the condition number is
    lambda_max over the smallest of them (NaN if none); degenerate means fewer than two.
    """

    values: InitVar[np.ndarray]
    eigenpairs: list[tuple[float, int]] = field(init=False)
    source: str
    condition_number: float = field(init=False)
    degenerate: bool = field(init=False)
    notes: list[str] = field(init=False)

    def __post_init__(self, values):
        vals = np.sort(np.asarray(values, dtype=float))
        gap = CLUSTER_REL_GAP * max(abs(vals[0]), abs(vals[-1]))
        starts = np.flatnonzero(np.diff(vals, prepend=-np.inf) > gap)
        counts = np.diff(starts, append=len(vals))
        offsets = vals - vals[np.repeat(starts, counts)]
        means = vals[starts] + np.add.reduceat(offsets, starts) / counts
        self.eigenpairs = [(float(m), int(c)) for m, c in zip(means, counts)]
        lam_max = self.eigenpairs[-1][0]
        nonzero = [v for v, _ in self.eigenpairs if v > ZERO_CUTOFF * lam_max]
        self.condition_number = lam_max / min(nonzero) if nonzero else math.nan
        self.degenerate = len(nonzero) < 2
        self.notes = [DEGENERATE_NOTES[len(nonzero)]] if self.degenerate else []


def probability_laplacian(p: np.ndarray) -> np.ndarray:
    """diag(p) - p p^T for a probability vector p."""
    return np.diag(p) - np.outer(p, p)


def analytic_feature_hessian_spectrum(cfg: ProblemConfig) -> SpectrumReport:
    """Spectrum of one per-sample feature block (1/N) W D W^T (d x d)."""
    p_t, p_n = class_probabilities(cfg)
    K, d, N = cfg.K, cfg.d, cfg.N
    # W = c_w P (K I - 11^T) = g P (I - 11^T/K), with g = K c_w.
    g2 = (K * minimizer_scales(cfg)[0]) ** 2
    values = [0.0, g2 * p_n / N, g2 * K * p_t * p_n / N]
    return SpectrumReport(np.repeat(values, [1 + d - K, K - 2, 1]), "analytic")


def analytic_classifier_hessian_spectrum(cfg: ProblemConfig) -> SpectrumReport:
    """Spectrum of the full classifier Hessian (Kd x Kd) at the minimizer."""
    K, d, s = cfg.K, cfg.d, s_axis(cfg)
    p_t, p_n = class_probabilities(cfg)
    c = K * minimizer_scales(cfg)[1] ** 2  # K c_h^2: the spectrum's prefactor
    pairs = [(0.0, 2 * K - 1 + K * (d - K)), (c * K * p_n * p_t, 1)]
    if K > 2:  # at K = 2 these two clusters are (c p_n, -1) and (c p_n, +1)
        # (1 - p_t + p_n) (p_n + (K - 1) p_t) / K, with 1 - p_t + p_n = s
        pairs += [(c * p_n, K * K - 3 * K + 1), (c * s * ((K - 2) * (1 - s) + 1) / K, K - 1)]
    return SpectrumReport(np.repeat(*zip(*pairs)), "analytic")


def numeric_hessian_features(state: ModelState, cfg: ProblemConfig) -> np.ndarray:
    """The d x d block (1/N) W D W^T of the first sample (class 0)."""
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
    H = state.H
    P = softmax_cols(state.logits())
    K, N = cfg.K, cfg.N
    U, sv, _ = np.linalg.svd(H, full_matrices=False)
    r = int(np.count_nonzero(sv > sv[0] * max(H.shape) * np.finfo(float).eps))
    G = H if r == cfg.d else U[:, :r].T @ H
    # With D_j = diag(p_j) - p_j p_j^T, the block (a, b != a) is -(1/N) G diag(P[a] P[b]) G^T:
    # -(1/N) V V^T with V[(a, p), j] = P[a, j] G[p, j], one syrk.  Diagonal block a is then
    # overwritten with (1/N) G diag(P[a] - P[a]^2) G^T from the Laplacian's own diagonal;
    # G diag(P[a]) G^T - (V V^T)_aa would cancel at confident columns.
    V = (P[:, None, :] * G).reshape(K * r, N)
    M = V @ V.T
    M /= -N
    M.reshape(K, r, K, r)[range(K), :, range(K)] = ((P - P * P)[:, None, :] * G) @ G.T / N
    return M


def classifier_eigenvalues(state: ModelState, cfg: ProblemConfig) -> np.ndarray:
    """Ascending Kd eigenvalues of the classifier Hessian: those of its block in
    range(H), plus K (d - r) exact zeros for the directions orthogonal to H."""
    M = numeric_hessian_classifier(state, cfg)
    vals = np.linalg.eigvalsh(M)
    return np.sort(np.concatenate([np.zeros(cfg.K * cfg.d - len(M)), vals]))


def compare_to_analytic(analytic: SpectrumReport, numeric: SpectrumReport) -> tuple[float, bool]:
    """Max relative deviation, eigenvalue by eigenvalue, and whether the cluster counts match.

    A zero analytic eigenvalue is measured against the analytic lambda_max (the numeric one,
    at least 1, when that is 0 too).  Spectra of different dimensions raise ValueError.
    """
    (a_vals, a_counts), (n_vals, n_counts) = (zip(*r.eigenpairs) for r in (analytic, numeric))
    ana, num = np.repeat(a_vals, a_counts), np.repeat(n_vals, n_counts)
    if len(ana) != len(num):
        raise ValueError(f"analytic spectrum has {len(ana)} eigenvalues, numeric {len(num)}")
    lam_max = np.abs(ana).max() or max(np.abs(num).max(), 1.0)
    dev = np.abs(num - ana) / np.where(ana == 0.0, lam_max, np.abs(ana))
    return float(dev.max()), a_counts == n_counts
