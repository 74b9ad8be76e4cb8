"""Deterministic full-batch gradient descent on the regularized risk.

A single run owns its state; trajectories record loss every iteration
(cheap) and the neural-collapse metrics every `record_every` iterations.
Distance to the closed-form optimum is tracked through rotation-invariant
quantities only (loss gap and the mean-logit mismatch), since the
minimizer's orthogonal factor is not unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import OptimizerConfig, ProblemConfig
from .closed_form import logit_scale, mean_logit_matrix, minimizer_scales, optimal_loss
from .core import ModelState, grad_blocks_norm, loss_and_grad
from . import nc_metrics
from . import spectral

DIVERGENCE_LOSS = 1e6


class DivergenceError(RuntimeError):
    """Raised when the loss blows up or turns non-finite.

    rows holds the trajectory rows recorded before the failure.
    """

    def __init__(self, message: str, rows: list[TrajectoryRow]):
        super().__init__(message)
        self.rows = rows


@dataclass
class TrajectoryRow:
    iter: int
    loss: float
    nc1: float
    nc2: float
    nc3: float
    w_norm: float
    h_mean_norm: float
    grad_norm: float
    loss_gap: float


@dataclass
class Trajectory:
    rows: list[TrajectoryRow] = field(default_factory=list)
    loss_history: np.ndarray | None = None  # loss at every iteration
    optimal_value: float = float("nan")
    final_state: ModelState | None = None
    converged: bool = False


def init_state(cfg: ProblemConfig, opt: OptimizerConfig) -> ModelState:
    """Seeded Gaussian init scaled by init_scale / sqrt(d); zero bias."""
    rng = np.random.default_rng(opt.seed)
    scale = opt.init_scale / np.sqrt(cfg.d)
    return ModelState(
        W=scale * rng.standard_normal((cfg.d, cfg.K)),
        H=scale * rng.standard_normal((cfg.d, cfg.N)),
        b=np.zeros(cfg.K),
    )


def _metrics_row(state, cfg, it, loss, grad_norm, L_star) -> TrajectoryRow:
    fs = nc_metrics.FeatureSet.from_state(state, cfg)
    try:
        v1 = nc_metrics.nc1(fs)
    except ValueError:
        v1 = float("nan")
    try:
        v2 = nc_metrics.nc2(state.W, fs)
        v3 = nc_metrics.nc3(state.W, fs)
    except ValueError:
        v2 = v3 = float("nan")
    w_norm, h_norm = nc_metrics.norm_summary(state.W, fs)
    return TrajectoryRow(
        iter=it,
        loss=loss,
        nc1=float(v1),
        nc2=v2,
        nc3=v3,
        w_norm=w_norm,
        h_mean_norm=h_norm,
        grad_norm=grad_norm,
        loss_gap=loss - L_star,
    )


def run(
    cfg: ProblemConfig,
    opt: OptimizerConfig,
    state: ModelState | None = None,
    compute_metrics: bool = True,
) -> Trajectory:
    """Heavy-ball gradient descent until loss - L* < loss_tol or max_iters."""
    if state is None:
        state = init_state(cfg, opt)
    else:
        state = state.copy()
    L_star = optimal_loss(cfg)

    vel_W = np.zeros_like(state.W)
    vel_H = np.zeros_like(state.H)
    vel_b = np.zeros_like(state.b)

    traj = Trajectory(optimal_value=L_star)
    losses = []

    def record(it, loss, grads):
        grad_norm = grad_blocks_norm(grads)
        if compute_metrics:
            traj.rows.append(_metrics_row(state, cfg, it, loss, grad_norm, L_star))
        else:
            traj.rows.append(
                TrajectoryRow(it, loss, np.nan, np.nan, np.nan, np.nan, np.nan,
                              grad_norm, loss - L_star)
            )

    it = 0
    while True:
        loss, grads = loss_and_grad(state, cfg)
        losses.append(loss)
        if not np.isfinite(loss) or loss > DIVERGENCE_LOSS:
            raise DivergenceError(f"loss diverged at iteration {it}: {loss}", traj.rows)
        converged = loss - L_star < opt.loss_tol
        if it % opt.record_every == 0 or converged or it == opt.max_iters:
            record(it, loss, grads)
        if converged or it >= opt.max_iters:
            traj.converged = converged
            break
        G_W, G_H, g_b = grads
        vel_W = opt.momentum * vel_W - opt.learning_rate * G_W
        vel_H = opt.momentum * vel_H - opt.learning_rate * G_H
        vel_b = opt.momentum * vel_b - opt.learning_rate * g_b
        state.W += vel_W
        state.H += vel_H
        state.b += vel_b
        it += 1

    traj.loss_history = np.array(losses)
    traj.final_state = state
    return traj


def iterations_to_epsilon(traj: Trajectory, eps: float):
    """First iteration with loss - L* < eps (L* = traj.optimal_value), or None if never reached."""
    hits = np.nonzero(traj.loss_history - traj.optimal_value < eps)[0]
    return int(hits[0]) if len(hits) else None


def mean_logit_distance(state: ModelState, cfg: ProblemConfig) -> float:
    """|| W^T Hbar - a (K I - 11^T) ||_F (rotation-invariant optimum distance)."""
    fs = nc_metrics.FeatureSet.from_state(state, cfg)
    Hbar = nc_metrics.centered_class_means(fs)
    return float(np.linalg.norm(state.W.T @ Hbar - mean_logit_matrix(cfg)))


@dataclass
class SweepRow:
    delta: float
    a_delta: float
    w_norm: float
    kappa_h: float
    kappa_w: float
    iters_to_eps: int | None
    nc1: float
    nc2: float
    nc3: float

    @property
    def degenerate(self) -> bool:
        """Zero logit scale: the optimum collapses to the origin."""
        return self.a_delta == 0.0


def delta_sweep(
    cfg_base: ProblemConfig, deltas, opt: OptimizerConfig
) -> list[SweepRow]:
    """One descent run plus analytic quantities per smoothing value."""
    rows = []
    for delta in deltas:
        cfg = replace(cfg_base, delta=delta)
        a = logit_scale(cfg)
        # ||W|| of the minimizer: W = c_w P (K I - 11^T) and ||K I - 11^T|| = K sqrt(K - 1).
        w_norm = minimizer_scales(cfg)[0] * cfg.K * math.sqrt(cfg.K - 1)
        if a == 0.0:
            kappa_h = kappa_w = float("nan")
        else:
            kappa_h = spectral.analytic_feature_hessian_spectrum(cfg).condition_number
            kappa_w = (
                spectral.analytic_classifier_hessian_spectrum(cfg).condition_number
                if cfg.K >= 3
                else float("nan")
            )
        traj = run(cfg, opt)
        last = traj.rows[-1]
        rows.append(
            SweepRow(
                delta=delta,
                a_delta=a,
                w_norm=w_norm,
                kappa_h=kappa_h,
                kappa_w=kappa_w,
                iters_to_eps=last.iter if traj.converged else None,
                nc1=last.nc1,
                nc2=last.nc2,
                nc3=last.nc3,
            )
        )
    return rows


# The race's seed count and its target: this fraction of the initial loss gap.
RACE_SEEDS = 10
RACE_REL_EPS = 1e-4


@dataclass
class RaceRow:
    seed: int
    iters_ce: int | None  # delta = 0
    iters_ls: int | None  # the smoothed run
    smoothing_won: bool


def convergence_race(cfg: ProblemConfig, opt: OptimizerConfig) -> list[RaceRow]:
    """Race delta = 0 against cfg.delta from RACE_SEEDS shared initializations.

    Seeds run from opt.seed upwards; each run counts the iterations until
    the loss gap falls below RACE_REL_EPS times its initial value (None if
    max_iters comes first).
    """
    rows = []
    for seed in range(opt.seed, opt.seed + RACE_SEEDS):
        iters = []
        for delta in (0.0, cfg.delta):
            traj = run(replace(cfg, delta=delta), replace(opt, seed=seed),
                       compute_metrics=False)
            init_gap = traj.loss_history[0] - traj.optimal_value
            iters.append(iterations_to_epsilon(traj, RACE_REL_EPS * init_gap))
        ce, ls = iters
        won = ls is not None and (ce is None or ls < ce)
        rows.append(RaceRow(seed, ce, ls, won))
    return rows
