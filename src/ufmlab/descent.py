"""Deterministic full-batch gradient descent on the regularized risk.

A single run owns its state; trajectories record loss every iteration
(cheap) and the neural-collapse metrics every `record_every` iterations.
Distance to the closed-form optimum is tracked through rotation-invariant
quantities only (loss gap and the mean-logit mismatch), since the
minimizer's orthogonal factor is not unique.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .config import OptimizerConfig, ProblemConfig
from .closed_form import logit_scale, mean_logit_matrix, minimizer_norms, optimal_loss
from .core import ModelState, Workspace, loss_and_grad
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


def _stack_rows(ws, cfg, it, loss, gap, compute_metrics, rec) -> list[TrajectoryRow]:
    """Row it of the stack members rec (indices, in order); ws holds the pass over them."""
    W, H, G = ws.W, ws.H, ws.G
    if len(rec) < len(G):
        W, H, G, loss, gap = W[rec], H[rec], G[rec], loss[rec], gap[rec]
    # ws.t is the pass's scratch, free until the next pass.
    grad_norm = np.sqrt(np.add.reduce(np.square(G, out=ws.t[: len(G)]), axis=1))
    if compute_metrics:
        means = nc_metrics.class_means(H, cfg.K)
        metrics = (nc_metrics.nc1(H, means), nc_metrics.nc2(W, means),
                   nc_metrics.nc3(W, means), *nc_metrics.norm_summary(W, means))
    else:
        metrics = (np.full(len(loss), np.nan),) * 5
    return [TrajectoryRow(it, *map(float, row))
            for row in zip(loss, *metrics, grad_norm, gap)]


def run(cfg: ProblemConfig, opt: OptimizerConfig, compute_metrics: bool = True) -> Trajectory:
    """Heavy-ball gradient descent from init_state until loss - L* < loss_tol or max_iters."""
    return next(run_stack([cfg], opt, [opt.seed], compute_metrics))


# The reused arrays of one stack stay within this many bytes; longer member
# lists run as successive stacks.  Stacking saves per-call overhead, which
# only weighs on small problems: at K=10, n=5, d=12 over a hundred members
# fit, from K=10, n=100, d=64 up one does.
STACK_BYTES = 2**22


def member_bytes(cfg: ProblemConfig) -> int:
    """Bytes of a stack member's arrays: flat, vel, G, t and lam (P each), L, weights, E, s."""
    return 8 * (5 * (cfg.d + 1) * (cfg.K + cfg.N) + 3 * (cfg.K + 1) * cfg.N)


def run_stack(cfgs, opt, seeds, compute_metrics: bool = True,
              rel_tol: float | None = None) -> Iterator[Trajectory]:
    """run(cfgs[i], opt with seed seeds[i]) for each member, as stacked problems.

    The members share K, n and d; a member's seed picks its initial state.
    Each iteration is one loss_and_grad pass over the members still running;
    a member leaves the stack when it stops, and its trajectory is the one
    run gives it alone.  With rel_tol set, a member converges once its loss
    gap falls below rel_tol times its gap at iteration 0, not below
    opt.loss_tol.  Trajectories are yielded in member order as each stack
    finishes, so a caller that keeps none of them holds at most one stack's
    final states.
    """
    if not cfgs:
        return
    width = max(1, STACK_BYTES // member_bytes(cfgs[0]))
    if len(cfgs) > width:
        for i in range(0, len(cfgs), width):
            yield from run_stack(cfgs[i : i + width], opt, seeds[i : i + width],
                                 compute_metrics, rel_tol)
        return
    ws = Workspace(cfgs)
    flat = np.stack([init_state(c, replace(opt, seed=seed)).ravel()
                     for c, seed in zip(cfgs, seeds)])
    vel = np.zeros_like(flat)
    L_stars = [optimal_loss(c) for c in cfgs]
    trajs = [Trajectory(optimal_value=L) for L in L_stars]
    members, L_star = np.arange(len(cfgs)), np.array(L_stars)
    tol = np.full(len(cfgs), opt.loss_tol)  # each member's stop target
    history = np.empty((min(opt.max_iters, 1023) + 1, len(cfgs)))  # column i: stack slot i

    for it in range(opt.max_iters + 1):  # every member stops by it == max_iters
        loss = loss_and_grad(flat, ws)[0]
        if it == len(history):
            history = np.concatenate([history, np.empty_like(history)])
        history[it] = loss
        # The loss is never negative, so this catches blow-ups, and NaN, which
        # makes the max NaN and the comparison false.
        if not np.maximum.reduce(loss) <= DIVERGENCE_LOSS:
            i = np.argmin(loss <= DIVERGENCE_LOSS)
            j = members[i]
            raise DivergenceError(f"loss diverged at iteration {it}: {loss[i]} (delta "
                                  f"{cfgs[j].delta}, seed {seeds[j]})", trajs[j].rows)
        gap, keep = loss - L_star, None
        if it == 0 and rel_tol is not None:
            tol = rel_tol * gap
        if (gap < tol).any() or it % opt.record_every == 0 or it == opt.max_iters:
            converged = gap < tol
            stop = converged | (it == opt.max_iters)
            rec = np.flatnonzero(stop | (it % opt.record_every == 0))
            rows = _stack_rows(ws, cfgs[0], it, loss, gap, compute_metrics, rec)
            for i, row in zip(rec, rows):
                j = members[i]
                trajs[j].rows.append(row)
                if stop[i]:
                    trajs[j].converged = bool(converged[i])
                    trajs[j].loss_history = history[: it + 1, i].copy()
                    trajs[j].final_state = ModelState(ws.W[i], ws.H[i], ws.b[i]).copy()
            if stop.all():
                yield from trajs
                return
            keep = ~stop if stop.any() else None
        # Heavy ball on the flat stack: vel = momentum vel - lr grad; theta += vel.
        vel *= opt.momentum
        vel -= np.multiply(ws.G, opt.learning_rate, out=ws.G)
        flat += vel
        if keep is not None:  # the stopped members leave after the step
            flat, vel, members = flat[keep], vel[keep], members[keep]
            L_star, tol, history = L_star[keep], tol[keep], history[:, keep]
            ws.take(keep)


def mean_logit_distance(state: ModelState, cfg: ProblemConfig) -> float:
    """|| W^T Hbar - a (K I - 11^T) ||_F (rotation-invariant optimum distance)."""
    Hbar = nc_metrics.centered(nc_metrics.class_means(state.H, cfg.K))
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
    """One descent run plus analytic quantities per smoothing value; the runs share a stack."""
    cfgs = [replace(cfg_base, delta=delta) for delta in deltas]
    rows = []
    for cfg, traj in zip(cfgs, run_stack(cfgs, opt, [opt.seed] * len(cfgs))):
        last = traj.rows[-1]
        rows.append(
            SweepRow(
                delta=cfg.delta,
                a_delta=logit_scale(cfg),
                w_norm=minimizer_norms(cfg)[0],
                kappa_h=spectral.analytic_feature_hessian_spectrum(cfg).condition_number,
                kappa_w=spectral.analytic_classifier_hessian_spectrum(cfg).condition_number,
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

    Seeds run from opt.seed upwards; each run stops, and counts its
    iterations, once the loss gap falls below RACE_REL_EPS times its initial
    value, whatever opt.loss_tol is (None if max_iters comes first).
    """
    seeds = [seed for seed in range(opt.seed, opt.seed + RACE_SEEDS) for _ in range(2)]
    cfgs = [replace(cfg, delta=0.0), cfg] * RACE_SEEDS
    iters = [t.rows[-1].iter if t.converged else None
             for t in run_stack(cfgs, opt, seeds, compute_metrics=False, rel_tol=RACE_REL_EPS)]
    return [RaceRow(seed, ce, ls, ls is not None and (ce is None or ls < ce))
            for seed, ce, ls in zip(seeds[::2], iters[::2], iters[1::2])]
