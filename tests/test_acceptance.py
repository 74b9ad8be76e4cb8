"""Acceptance suite: one test per criterion and per theory claim, each printing a pass line."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from ufmlab.config import OptimizerConfig, ProblemConfig
from ufmlab.calibration import LogitDataset, ece, fit_temperature, nll
from ufmlab.closed_form import (
    global_minimizer,
    logit_scale,
    mean_logit_matrix,
)
from ufmlab.core import gradient_norm, loss_and_grad, softmax_cols
from ufmlab.descent import run
from ufmlab.nc_metrics import centered, class_means, nc1, nc2, nc3
from ufmlab.spectral import (
    SpectrumReport,
    analytic_classifier_hessian_spectrum,
    analytic_feature_hessian_spectrum,
    classifier_eigenvalues,
    compare_to_analytic,
    numeric_hessian_features,
)
from ufmlab.theory import CLAIMS

from helpers import (CONFIG_GRID, fd_gradient, iterations_to_epsilon, random_state,
                     solve_logit_scale_by_bisection)


def report(num, ok, msg):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {msg}")
    assert ok, msg


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(20):
        K = int(rng.integers(2, 6))
        cfg = ProblemConfig(K=K, n=int(rng.integers(1, 4)),
                            d=int(rng.integers(K, 7)),
                            delta=float(rng.uniform(0, 0.5)))
        state = random_state(cfg, rng, scale=0.8)
        G_W, G_H, g_b = loss_and_grad(state, cfg)[1]
        analytic = np.concatenate([G_W.ravel(), G_H.ravel(), g_b])
        numeric = fd_gradient(cfg, state)
        worst = max(worst, np.linalg.norm(analytic - numeric)
                    / max(np.linalg.norm(numeric), 1e-12))
    elapsed = time.monotonic() - start
    report(1, worst < 1e-6 and elapsed < 5.0,
           f"max relative gradient error {worst:.2e} in {elapsed:.1f}s")


def test_criterion_2_stationarity_and_optimality():
    start = time.monotonic()
    rng = np.random.default_rng(200)
    worst_grad = 0.0
    beaten = True
    for cfg in CONFIG_GRID:
        state = global_minimizer(cfg)
        worst_grad = max(worst_grad, gradient_norm(state, cfg))
    # perturbation optimality on a representative subset (full 200 each)
    for cfg in CONFIG_GRID[:: len(CONFIG_GRID) // 8]:
        state = global_minimizer(cfg)
        base = loss_and_grad(state, cfg)[0]
        for _ in range(200):
            pert = random_state(cfg, rng, scale=0.1)
            noisy = state.copy()
            noisy.W += pert.W
            noisy.H += pert.H
            noisy.b += pert.b
            beaten &= loss_and_grad(noisy, cfg)[0] >= base
    elapsed = time.monotonic() - start
    report(2, worst_grad < 1e-8 and beaten and elapsed < 30.0,
           f"max gradient norm {worst_grad:.2e}, perturbations beaten={beaten}, "
           f"{elapsed:.1f}s")


def test_criterion_3_logit_scale_formula():
    worst = 0.0
    for cfg in CONFIG_GRID:
        worst = max(worst, abs(logit_scale(cfg) - solve_logit_scale_by_bisection(cfg)))
    boundary_ok = True
    for cfg in (
        ProblemConfig(K=3, n=10, d=3, delta=0.9, lambda_w=0.5, lambda_h=0.5),
        ProblemConfig(K=4, n=5, d=4, delta=0.99, lambda_w=0.05, lambda_h=0.05),
    ):
        s = math.sqrt(cfg.K * cfg.N) * cfg.lambda_z + cfg.delta
        boundary_ok &= s >= 1 and logit_scale(cfg) == 0.0
    report(3, worst < 1e-10 and boundary_ok,
           f"max |formula - bisection| = {worst:.2e}, boundary zeros exact")


def test_criterion_4_hessian_spectra():
    start = time.monotonic()
    worst = 0.0
    mults_ok = True
    for K in (2, 3, 4, 10):
        for d in (K, K + 3):
            for delta in (0.0, 0.1):
                cfg = ProblemConfig(K=K, n=5, d=d, delta=delta)
                state = global_minimizer(cfg)
                ana_h = analytic_feature_hessian_spectrum(cfg)
                vals = np.linalg.eigvalsh(numeric_hessian_features(state, cfg))
                dev, ok = compare_to_analytic(ana_h, SpectrumReport(vals, "numeric"))
                worst = max(worst, dev)
                mults_ok &= ok
                ana_w = analytic_classifier_hessian_spectrum(cfg)
                vals = classifier_eigenvalues(state, cfg)
                dev, ok = compare_to_analytic(ana_w, SpectrumReport(vals, "numeric"))
                worst = max(worst, dev)
                mults_ok &= ok
    elapsed = time.monotonic() - start
    report(4, worst < 1e-6 and mults_ok and elapsed < 60.0,
           f"max relative deviation {worst:.2e}, multiplicities exact, {elapsed:.1f}s")


def test_criterion_5_condition_number_ordering():
    base = ProblemConfig(K=10, n=5, d=12)
    kappas = []
    worst = 0.0
    for delta in (0.0, 0.05, 0.1, 0.3):
        cfg = replace(base, delta=delta)
        kappa = analytic_feature_hessian_spectrum(cfg).condition_number
        expected = cfg.K - (cfg.K - 1) * (
            math.sqrt(cfg.K * cfg.N) * cfg.lambda_z + cfg.delta
        )
        worst = max(worst, abs(kappa - expected))
        kappas.append(kappa)
    decreasing = all(a > b for a, b in zip(kappas, kappas[1:]))
    report(5, decreasing and worst < 1e-10,
           f"kappa strictly decreasing {['%.4f' % k for k in kappas]}, "
           f"identity error {worst:.2e}")


def test_criterion_6_convergence_race():
    start = time.monotonic()
    cfg = ProblemConfig(K=10, n=5, d=12, lambda_w=5e-3, lambda_h=5e-3)
    wins = 0
    for seed in range(10):
        iters = {}
        for delta in (0.0, 0.1):
            opt = OptimizerConfig(learning_rate=10.0, momentum=0.0,
                                  max_iters=30_000, loss_tol=1e-12,
                                  record_every=10**9, seed=seed)
            traj = run(replace(cfg, delta=delta), opt, compute_metrics=False)
            init_gap = traj.loss_history[0] - traj.optimal_value
            iters[delta] = iterations_to_epsilon(traj, 1e-4 * init_gap)
        if iters[0.1] is not None and (iters[0.0] is None or iters[0.1] < iters[0.0]):
            wins += 1
    elapsed = time.monotonic() - start
    report(6, wins >= 9 and elapsed < 120.0,
           f"smoothing won the race in {wins}/10 seeds, {elapsed:.1f}s")


def test_criterion_7_descent_reaches_collapse():
    cfg = ProblemConfig(K=3, n=2, d=4, delta=0.1, lambda_w=5e-3, lambda_h=5e-3)
    opt = OptimizerConfig(learning_rate=0.5, momentum=0.9, max_iters=100_000,
                          loss_tol=1e-12, record_every=1000, seed=0)
    traj = run(cfg, opt)
    state = traj.final_state
    means = class_means(state.H, cfg.K)
    v1, v2, v3 = nc1(state.H, means), nc2(state.W, means), nc3(state.W, means)
    logit_err = np.linalg.norm(state.W.T @ centered(means) - mean_logit_matrix(cfg))
    ok = v1 < 1e-6 and v2 < 1e-4 and v3 < 1e-4 and logit_err < 1e-4
    report(7, ok, f"NC1={v1:.2e} NC2={v2:.2e} NC3={v3:.2e} "
                  f"mean-logit error {logit_err:.2e}")


@pytest.mark.parametrize("name", CLAIMS)
def test_claim(name):
    # The claims that `ufmlab check` runs, each with its own bound.
    ok, detail = CLAIMS[name](800, 0.0)
    print(f"[claim {name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_9_norm_trend():
    base = ProblemConfig(K=3, n=2, d=4, lambda_w=5e-3, lambda_h=5e-3)
    deltas = (0.0, 0.05, 0.1, 0.3, 0.98)
    w_norms, h_norms = [], []
    for delta in deltas:
        cfg = replace(base, delta=delta)
        state = global_minimizer(cfg)
        w_norms.append(float(np.linalg.norm(state.W)))
        h_norms.append(float(np.linalg.norm(centered(class_means(state.H, cfg.K)))))
    monotone = all(a >= b for a, b in zip(w_norms, w_norms[1:])) and \
               all(a >= b for a, b in zip(h_norms, h_norms[1:]))
    boundary_cfg = replace(base, delta=0.98)
    s = math.sqrt(boundary_cfg.K * boundary_cfg.N) * boundary_cfg.lambda_z + 0.98
    boundary_zero = s >= 1 and w_norms[-1] == 0.0 and h_norms[-1] == 0.0
    report(9, monotone and boundary_zero,
           f"norms non-increasing {['%.3f' % w for w in w_norms]}, boundary exact zero")


def test_criterion_10_calibration_oracles():
    rng = np.random.default_rng(1000)
    # hand dataset: two confidence levels across two bins
    def logit_pair(conf):
        return [math.log(conf / (1 - conf)), 0.0]

    logits = np.array([logit_pair(0.9), logit_pair(0.9),
                       logit_pair(0.6), logit_pair(0.6)]).T
    ds_hand = LogitDataset(logits.copy(), np.array([0, 1, 0, 0]))  # it shifts its array in place
    expected_ece = 0.5 * abs(0.5 - 0.9) + 0.5 * abs(1.0 - 0.6)
    hand_report = ece(ds_hand, bins=10)
    ece_ok = hand_report.ece == pytest.approx(expected_ece, rel=1e-12)

    P = softmax_cols(logits)
    expected_entropy = np.mean([-(P[:, j] * np.log(P[:, j])).sum() for j in range(4)])
    entropy_ok = hand_report.mean_entropy == pytest.approx(expected_entropy, rel=1e-12)

    logits = 4.0 * rng.standard_normal((4, 300))
    ds = LogitDataset(logits.copy(), rng.integers(0, 4, size=300))
    T, _, _ = fit_temperature(ds, nll(ds, 1.0))
    grid = np.exp(np.linspace(math.log(0.05), math.log(20.0), 2000))
    T_grid = grid[int(np.argmin([nll(ds, t) for t in grid]))]
    resolution = math.log(20.0 / 0.05) / 1999
    grid_ok = abs(math.log(T) - math.log(T_grid)) < 2 * resolution

    acc_ok = np.array_equal(softmax_cols(logits).argmax(axis=0),
                            softmax_cols(logits / T).argmax(axis=0))
    report(10, ece_ok and entropy_ok and grid_ok and acc_ok,
           f"ECE/entropy oracles exact, T={T:.3f} matches grid, accuracy preserved")
