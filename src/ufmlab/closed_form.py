"""Closed-form global minimizer of the regularized smoothed-label risk.

The minimizer is a simplex ETF: W and the class-mean feature matrix are
both proportional to P (K I - 11^T) for a partial orthogonal P (built
here for P = I[:, :K]).  The optimum depends on delta and the weights only
through s = min(sqrt(KN) * lambda_z + delta, 1): p_n = s/K, and the logit
scale shrinks as s grows and is zero at s = 1.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ProblemConfig, one_hot_labels
from .core import ModelState


def s_axis(cfg: ProblemConfig) -> float:
    """s = min(sqrt(KN) lambda_z + delta, 1), the optimum's one axis: K p_n = s."""
    return min(math.sqrt(cfg.K * cfg.N) * cfg.lambda_z + cfg.delta, 1.0)


def logit_scale(cfg: ProblemConfig) -> float:
    """Optimal logit scale a, from e^{aK} = 1 + K (1 - s) / s; exactly 0 at s = 1."""
    s = s_axis(cfg)
    return math.log1p(cfg.K * (1.0 - s) / s) / cfg.K


def class_probabilities(cfg: ProblemConfig) -> tuple[float, float]:
    """Optimal (p_t, p_n) = ((K (1 - s) + s) / K, s / K); not 1 - (K - 1) s / K, which cancels."""
    s = s_axis(cfg)
    return (cfg.K * (1.0 - s) + s) / cfg.K, s / cfg.K


def simplex_etf_core(K: int) -> np.ndarray:
    """K I - 11^T, the unnormalized simplex ETF generator."""
    return K * np.eye(K) - np.ones((K, K))


def mean_logit_matrix(cfg: ProblemConfig) -> np.ndarray:
    """Optimal class-mean logit matrix a * (K I - 11^T)."""
    return logit_scale(cfg) * simplex_etf_core(cfg.K)


def minimizer_scales(cfg: ProblemConfig) -> tuple[float, float]:
    """Scalar prefactors (c_w, c_h) of W and the class-mean matrix.

    W = c_w * P (K I - 11^T) and Hbar = c_h * P (K I - 11^T), chosen so
    that W^T Hbar reproduces the optimal mean logit matrix and
    W = sqrt(n lambda_h / lambda_w) * Hbar (self-duality).
    """
    a = logit_scale(cfg)
    ratio = (cfg.n * cfg.lambda_h / cfg.lambda_w) ** 0.25
    base = math.sqrt(a / cfg.K)
    return ratio * base, base / ratio


def minimizer_norms(cfg: ProblemConfig) -> tuple[float, float]:
    """Frobenius norms (||W||, ||Hbar||) of the minimizer, as ||K I - 11^T|| = K sqrt(K - 1)."""
    c_w, c_h = minimizer_scales(cfg)
    core_norm = cfg.K * math.sqrt(cfg.K - 1)
    return c_w * core_norm, c_h * core_norm


def global_minimizer(cfg: ProblemConfig) -> ModelState:
    """Closed-form global minimizer (W, H, b) for P = I[:, :K], with H = Hbar Y and b = 0."""
    c_w, c_h = minimizer_scales(cfg)
    core = np.eye(cfg.d, cfg.K) @ simplex_etf_core(cfg.K)
    W = c_w * core
    H = (c_h * core) @ one_hot_labels(cfg.K, cfg.n)
    return ModelState(W=W, H=H, b=np.zeros(cfg.K))


def optimal_loss(cfg: ProblemConfig) -> float:
    """Loss value L* at the closed-form minimizer, as a scalar formula.

    There b = 0 and class-k samples have logits a (K - 1) on k and -a elsewhere, so with
    Z = K - 1 + e^{aK}, -log p_t = log Z - aK and -log p_n = log Z.  The targets
    t_t = 1 - delta + delta/K and t_n = delta/K have t_t + (K - 1) t_n = 1, so the data term
    t_t (log Z - aK) + (K - 1) t_n log Z is log1p((K - 1) e^{-aK}) + delta (K - 1) a, where
    (K - 1) e^{-aK} = (K - 1) s / (K (1 - s) + s); it does not cancel as p_t -> 1.  The
    weight decay adds a K (K - 1) sqrt(n) lambda_z.
    """
    K, s, a = cfg.K, s_axis(cfg), logit_scale(cfg)
    ce = math.log1p((K - 1) * s / (K * (1.0 - s) + s)) + cfg.delta * (K - 1) * a
    return ce + a * K * (K - 1) * math.sqrt(cfg.n) * cfg.lambda_z
