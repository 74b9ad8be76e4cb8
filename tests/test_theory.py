import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufmlab.config import OptimizerConfig, ProblemConfig
from ufmlab.closed_form import global_minimizer
from ufmlab.descent import run
from ufmlab.nc_metrics import centered, class_means
from ufmlab.theory import (
    balanced_factorization,
    duality_gap,
    factorization_gap,
    logit_spread,
    nuclear_norm,
)


class TestNuclearNorm:
    def test_zero(self):
        assert nuclear_norm(np.zeros((3, 4))) == 0.0

    def test_diagonal(self):
        assert nuclear_norm(np.diag([3.0, 4.0])) == pytest.approx(7.0)

    def test_svd_oracle(self):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((4, 6))
        s = np.linalg.svd(Z, compute_uv=False)
        assert nuclear_norm(Z) == pytest.approx(s.sum(), rel=1e-12)


class TestBalancedFactorization:
    def test_zero_matrix(self):
        W, H = balanced_factorization(np.zeros((3, 5)), 2.0)
        assert np.all(W == 0) and np.all(H == 0)

    def test_orthogonal_unit_alpha(self):
        Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 4)))
        W, H = balanced_factorization(Q, 1.0)
        assert np.sum(W**2) == pytest.approx(4.0, rel=1e-10)
        assert np.sum(H**2) == pytest.approx(4.0, rel=1e-10)

    def test_reconstruction_and_identity(self):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((3, 7))
        W, H = balanced_factorization(Z, 3.0)
        assert np.linalg.norm(W.T @ H - Z) < 1e-10 * np.linalg.norm(Z)
        objective = (np.sum(W**2) + 3.0 * np.sum(H**2)) / (2 * np.sqrt(3.0))
        assert objective == pytest.approx(nuclear_norm(Z), abs=1e-10)

class TestFactorizationGap:
    def test_balanced_pair_has_zero_gap(self):
        rng = np.random.default_rng(3)
        Z = rng.standard_normal((4, 5))
        W, H = balanced_factorization(Z, 1.7)
        assert abs(factorization_gap(W, H, 1.7)) < 1e-10

    def test_unbalanced_pair_positive_gap(self):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((3, 4))
        W, H = balanced_factorization(Z, 1.0)
        assert factorization_gap(2 * W, H / 2, 1.0) > 1e-6

    @given(st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=200)
    def test_scalar_young_inequality(self, a, b):
        # |ab| <= a^2/2 + b^2/2, equality iff |a| = |b|
        assert abs(a * b) <= a * a / 2 + b * b / 2 + 1e-12
        if abs(abs(a) - abs(b)) > 1e-4:
            assert a * a / 2 + b * b / 2 - abs(a * b) > 0

    def test_young_equality_case(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            a = rng.standard_normal()
            for b in (a, -a):
                assert a * a / 2 + b * b / 2 - abs(a * b) < 1e-12


class TestDualityGap:
    def test_closed_form_is_self_dual(self):
        cfg = ProblemConfig(K=4, n=3, d=6, delta=0.1)
        state = global_minimizer(cfg)
        assert duality_gap(state.W, centered(class_means(state.H, cfg.K)), cfg) < 1e-10

    def test_perturbation_linearity(self):
        cfg = ProblemConfig(K=3, n=2, d=4, delta=0.05)
        state = global_minimizer(cfg)
        Hbar = centered(class_means(state.H, cfg.K))
        E = np.random.default_rng(7).standard_normal((4, 3))
        eps = 1e-3
        gap = duality_gap(state.W + eps * E, Hbar, cfg)
        assert gap == pytest.approx(eps * np.linalg.norm(E), abs=1e-12)

    def test_converged_descent_nearly_self_dual(self):
        cfg = ProblemConfig(K=3, n=2, d=4, delta=0.1)
        opt = OptimizerConfig(learning_rate=0.5, momentum=0.9, max_iters=50_000,
                              loss_tol=1e-9, record_every=1000, seed=0)
        traj = run(cfg, opt, compute_metrics=False)
        state = traj.final_state
        assert duality_gap(state.W, centered(class_means(state.H, cfg.K)), cfg) < 1e-3


class TestLogitCollapse:
    def test_converged_logits_collapse_within_class(self):
        cfg = ProblemConfig(K=3, n=3, d=5, delta=0.1)
        opt = OptimizerConfig(learning_rate=0.5, momentum=0.9, max_iters=50_000,
                              loss_tol=1e-9, record_every=1000, seed=1)
        traj = run(cfg, opt, compute_metrics=False)
        assert logit_spread(traj.final_state.logits(), cfg.K, cfg.n) < 1e-3

    def test_collapsed_state_zero_spread(self):
        cfg = ProblemConfig(K=3, n=4, d=5, delta=0.1)
        state = global_minimizer(cfg)
        assert logit_spread(state.logits(), 3, 4) < 1e-12
