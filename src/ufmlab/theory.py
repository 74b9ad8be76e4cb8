"""Numerical witnesses for the variational machinery behind the closed form.

Covers the nuclear-norm lower bound for balanced factorizations, the
balanced SVD factorization that attains it, and the self-duality of the
classifier and the class-mean features at the minimizer.  CLAIMS holds the
named checks that `ufmlab check` runs and the acceptance suite tests.
"""

from __future__ import annotations

import numpy as np

from . import descent
from .closed_form import global_minimizer
from .config import OptimizerConfig, ProblemConfig
from .core import gradient_norm
from .nc_metrics import centered, class_means


def nuclear_norm(Z: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(Z, compute_uv=False).sum())


def balanced_factorization(Z: np.ndarray, alpha: float):
    """Factor Z = W^T H with the balance (alpha > 0) that attains the nuclear norm.

    W = alpha^{1/4} S^{1/2} U^T and H = alpha^{-1/4} S^{1/2} V^T from the
    reduced SVD Z = U S V^T, so (||W||^2 + alpha ||H||^2) / (2 sqrt(alpha))
    equals ||Z||_*.
    """
    U, s, Vt = np.linalg.svd(Z, full_matrices=False)
    root = np.sqrt(s)[:, None]
    W = alpha**0.25 * (root * U.T)
    H = alpha**-0.25 * (root * Vt)
    return W, H


def factorization_gap(W: np.ndarray, H: np.ndarray, alpha: float) -> float:
    """(||W||^2 + alpha ||H||^2) / (2 sqrt(alpha)) - ||W^T H||_* for alpha > 0; always >= 0."""
    bound = (np.sum(W**2) + alpha * np.sum(H**2)) / (2.0 * np.sqrt(alpha))
    return float(bound - nuclear_norm(W.T @ H))


def duality_gap(W: np.ndarray, H_bar: np.ndarray, cfg: ProblemConfig) -> float:
    """|| W - sqrt(n lambda_h / lambda_w) * Hbar ||_F."""
    scale = np.sqrt(cfg.n * cfg.lambda_h / cfg.lambda_w)
    return float(np.linalg.norm(W - scale * H_bar))


def logit_spread(Z: np.ndarray, K: int, n: int) -> float:
    """Max over classes of the within-class spread of logit columns."""
    cols = Z.reshape(Z.shape[0], K, n)  # column k*n + i is sample i of class k
    return float(np.abs(cols - cols.mean(axis=2, keepdims=True)).max())


# Claims: claim(seed, perturb) -> (ok, detail).  Each seeds its own generator.

def _nuclear_norm_identity(seed: int, perturb: float):
    """The balanced factorization reconstructs Z and attains ||Z||_*."""
    Z = np.random.default_rng(seed).standard_normal((4, 7))
    W, H = balanced_factorization(Z, 3.0)
    recon = float(np.linalg.norm(W.T @ H - Z))
    gap = factorization_gap(W, H, 3.0)
    return (bool(recon < 1e-10 * np.linalg.norm(Z) and abs(gap) < 1e-10),
            f"reconstruction {recon:.3e}, gap {gap:.3e}")


def _factorization_lower_bound(seed: int, perturb: float):
    """No random factorization W^T H beats ||W^T H||_* (1,000 draws)."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(1000):
        k, n, r = rng.integers(2, 5), rng.integers(2, 6), rng.integers(1, 5)
        W = rng.standard_normal((r, k))
        H = rng.standard_normal((r, n))
        worst = min(worst, factorization_gap(W, H, float(rng.uniform(0.1, 5.0))))
    return worst >= -1e-10, f"min gap {worst:.3e}"


def _perturbed_minimizer(seed: int, perturb: float):
    """A K=4 closed-form minimizer whose W is moved by perturb times N(0, 1) noise."""
    cfg = ProblemConfig(K=4, n=3, d=6, delta=0.1)
    state = global_minimizer(cfg)
    state.W += perturb * np.random.default_rng(seed).standard_normal(state.W.shape)
    return state, cfg


def _self_duality(seed: int, perturb: float):
    """W = sqrt(n lambda_h / lambda_w) Hbar at the minimizer."""
    state, cfg = _perturbed_minimizer(seed, perturb)
    gap = duality_gap(state.W, centered(class_means(state.H, cfg.K)), cfg)
    return gap < 1e-10, f"gap {gap:.3e}"


def _stationarity(seed: int, perturb: float):
    """The gradient vanishes at the minimizer."""
    resid = gradient_norm(*_perturbed_minimizer(seed, perturb))
    return resid < 1e-8, f"residual {resid:.3e}"


def _logit_collapse(seed: int, perturb: float):
    """Descent from a seeded start collapses the logits within each class."""
    opt = OptimizerConfig(learning_rate=0.5, momentum=0.9, max_iters=20_000,
                          loss_tol=1e-9, record_every=500, seed=seed)
    traj = descent.run(ProblemConfig(K=3, n=2, d=4, delta=0.1), opt, compute_metrics=False)
    spread = logit_spread(traj.final_state.logits(), 3, 2)
    return spread < 1e-3, f"spread {spread:.3e}"


CLAIMS = {
    "nuclear-norm-identity": _nuclear_norm_identity,
    "factorization-lower-bound": _factorization_lower_bound,
    "self-duality": _self_duality,
    "stationarity": _stationarity,
    "logit-collapse": _logit_collapse,
}
