import decimal
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ufmlab.config import ProblemConfig
from ufmlab.closed_form import (
    class_probabilities,
    global_minimizer,
    logit_scale,
    mean_logit_matrix,
    minimizer_norms,
    minimizer_scales,
    optimal_loss,
    s_axis,
    simplex_etf_core,
)
from ufmlab.core import gradient_norm, loss_and_grad, softmax_cols
from ufmlab.nc_metrics import centered, class_means
from ufmlab.spectral import analytic_classifier_hessian_spectrum, analytic_feature_hessian_spectrum

from helpers import (
    CONFIG_GRID as GRID,
    random_state,
    rotated_minimizer,
    solve_logit_scale_by_bisection,
)


EPS = np.finfo(float).eps
# The 40-digit oracle's grid, s >= 1 included.
S_GRID = [
    ProblemConfig(K=K, n=n, d=K, delta=delta, lambda_w=lam, lambda_h=lam)
    for K in (2, 3, 10, 100)
    for n in (1, 5, 20)
    for lam in (1e-8, 1e-6, 1e-3, 5e-3, 2e-2)
    for delta in (0.0, 0.05, 0.1, 0.3, 0.5, 0.9, 0.98)
]


def minimizer_class_means(cfg: ProblemConfig) -> np.ndarray:
    """Centered class means Hbar (d x K) of the built minimizer."""
    return centered(class_means(global_minimizer(cfg).H, cfg.K))


class TestLogitScale:
    def test_boundary_regime_zero(self):
        cfg = ProblemConfig(K=3, n=10, d=3, delta=0.9, lambda_w=0.5, lambda_h=0.5)
        assert math.sqrt(cfg.K * cfg.N) * cfg.lambda_z + cfg.delta >= 1
        assert logit_scale(cfg) == 0.0

    def test_exact_boundary_continuous(self):
        # choose lambda so that sqrt(KN) lambda_z + delta = 1 exactly
        K, n, delta = 2, 2, 0.5
        lam = (1 - delta) / math.sqrt(K * K * n)
        cfg = ProblemConfig(K=K, n=n, d=K, delta=delta, lambda_w=lam, lambda_h=lam)
        assert math.isclose(math.sqrt(K * K * n) * cfg.lambda_z + delta, 1.0)
        assert logit_scale(cfg) == pytest.approx(0.0, abs=1e-14)

    def test_bisection_oracle(self):
        cfg = ProblemConfig(K=4, n=5, d=4, delta=0.0, lambda_w=0.005, lambda_h=0.005)
        assert logit_scale(cfg) == pytest.approx(
            solve_logit_scale_by_bisection(cfg), abs=1e-10
        )

    def test_bisection_oracle_grid(self):
        for cfg in GRID:
            assert logit_scale(cfg) == pytest.approx(
                solve_logit_scale_by_bisection(cfg), abs=1e-10
            )

    def test_decreasing_in_delta(self):
        base = ProblemConfig(K=5, n=3, d=7)
        vals = [logit_scale(replace(base, delta=dd)) for dd in (0.0, 0.1, 0.2, 0.4)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestClassProbabilities:
    def test_zero_scale_uniform(self):
        cfg = ProblemConfig(K=4, n=10, d=4, delta=0.9, lambda_w=0.5, lambda_h=0.5)
        p_t, p_n = class_probabilities(cfg)
        assert p_t == pytest.approx(0.25) and p_n == pytest.approx(0.25)

    def test_sum_identity(self):
        for cfg in GRID:
            p_t, p_n = class_probabilities(cfg)
            assert p_t + (cfg.K - 1) * p_n == pytest.approx(1.0, abs=1e-12)
            assert p_t >= p_n > 0

    def test_interior_non_target_formula(self):
        cfg = ProblemConfig(K=4, n=5, d=6, delta=0.1)
        s = math.sqrt(cfg.K * cfg.N) * cfg.lambda_z + cfg.delta
        assert s < 1
        _, p_n = class_probabilities(cfg)
        assert p_n == pytest.approx(s / cfg.K, rel=1e-12)


class TestOptimalLoss:
    def test_matches_loss_at_minimizer(self):
        # The forward pass is the oracle.
        for cfg in GRID:
            assert optimal_loss(cfg) == pytest.approx(
                loss_and_grad(global_minimizer(cfg), cfg)[0], rel=1e-12)

    @pytest.mark.parametrize("cfg", [
        ProblemConfig(K=2, n=1, d=2, lambda_w=1e-4, lambda_h=1e-4),
        ProblemConfig(K=3, n=1, d=3, lambda_w=1e-4, lambda_h=1e-4),
        ProblemConfig(K=10, n=5, d=12, delta=0.1),
        ProblemConfig(K=100, n=20, d=100, delta=0.05, lambda_w=1e-5, lambda_h=1e-5),
    ], ids=lambda cfg: f"K{cfg.K}-delta{cfg.delta}")
    def test_matches_high_precision_formula(self, cfg):
        # p_t near 1 (large aK): log Z - aK cancels in floating point but not in 40 digits.
        with decimal.localcontext(decimal.Context(prec=40)):
            D = decimal.Decimal
            K, n, delta = D(cfg.K), D(cfg.n), D(cfg.delta)
            lz = (D(cfg.lambda_w) * D(cfg.lambda_h)).sqrt()
            a = ((K / ((K * K * n).sqrt() * lz + delta) - K + 1).ln()) / K
            log_z = (K - 1 + (a * K).exp()).ln()
            t_t, t_n = 1 - delta + delta / K, delta / K
            exact = (t_t * (log_z - a * K) + (K - 1) * t_n * log_z
                     + a * K * (K - 1) * n.sqrt() * lz)
        assert optimal_loss(cfg) == pytest.approx(float(exact), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("cfg", [
        ProblemConfig(K=3, n=10, d=3, delta=0.9, lambda_w=0.5, lambda_h=0.5),
        ProblemConfig(K=10, n=5, d=12, delta=0.98),
        ProblemConfig(K=100, n=20, d=100, delta=0.1),
    ], ids=lambda cfg: f"K{cfg.K}")
    def test_collapsed_optimum_is_log_k(self, cfg):
        assert logit_scale(cfg) == 0.0
        assert optimal_loss(cfg) == pytest.approx(math.log(cfg.K), rel=1e-15, abs=0.0)


class TestFortyDigitOracle:
    """a, p_t, p_n and L* against their formulas in s, evaluated at 40 digits
    from the float s that the code uses, so only the code's own rounding shows."""

    @staticmethod
    def exact(cfg):
        with decimal.localcontext(decimal.Context(prec=40)):
            D = decimal.Decimal
            K, s = D(cfg.K), D(s_axis(cfg))
            a = (1 + K * (1 - s) / s).ln() / K
            loss = ((1 + (K - 1) * s / (K * (1 - s) + s)).ln() + D(cfg.delta) * (K - 1) * a
                    + a * K * (K - 1) * D(cfg.n).sqrt() * D(cfg.lambda_z))
            return {"a": a, "p_t": (K * (1 - s) + s) / K, "p_n": s / K, "L*": loss,
                    "kappa": K - (K - 1) * s}

    @staticmethod
    def rel_err(got: float, want) -> float:
        """|got - want| / |want| in units of eps; 0 only for an exact 0."""
        with decimal.localcontext(decimal.Context(prec=40)):
            if want == 0:
                return 0.0 if got == 0.0 else math.inf
            return float(abs(decimal.Decimal(got) - want) / abs(want)) / EPS

    @pytest.mark.parametrize("K", [2, 3, 10, 100])
    def test_within_two_ulp(self, K):
        cfgs = [cfg for cfg in S_GRID if cfg.K == K]
        assert any(s_axis(cfg) == 1.0 for cfg in cfgs) and any(s_axis(cfg) < 1.0 for cfg in cfgs)
        worst = dict.fromkeys(("a", "p_t", "p_n", "L*"), 0.0)
        for cfg in cfgs:
            want = self.exact(cfg)
            got = dict(zip(("a", "p_t", "p_n", "L*"),
                           (logit_scale(cfg), *class_probabilities(cfg), optimal_loss(cfg))))
            for name in worst:
                worst[name] = max(worst[name], self.rel_err(got[name], want[name]))
            assert got["p_n"] == s_axis(cfg) / K
        assert max(worst.values()) <= 2.0, worst

    @pytest.mark.parametrize("K", [3, 10, 100])
    def test_kappa_is_k_minus_k_minus_one_s(self, K):
        for cfg in (c for c in S_GRID if c.K == K and s_axis(c) < 1.0):
            want = self.exact(cfg)["kappa"]
            for report in (analytic_feature_hessian_spectrum(cfg),
                           analytic_classifier_hessian_spectrum(cfg)):
                assert self.rel_err(report.condition_number, want) <= 4.0, cfg


class TestMeanLogitMatrix:
    def test_zero_scale_zero_matrix(self):
        cfg = ProblemConfig(K=3, n=10, d=3, delta=0.9, lambda_w=0.5, lambda_h=0.5)
        assert np.array_equal(mean_logit_matrix(cfg), np.zeros((3, 3)))

    def test_structure(self):
        cfg = ProblemConfig(K=5, n=2, d=6, delta=0.05)
        Z = mean_logit_matrix(cfg)
        a = logit_scale(cfg)
        assert np.allclose(Z, Z.T)
        assert np.allclose(Z.sum(axis=0), 0, atol=1e-12)
        assert np.allclose(np.diag(Z), a * (cfg.K - 1))

    def test_softmax_reproduces_probabilities(self):
        cfg = ProblemConfig(K=4, n=3, d=5, delta=0.1)
        p_t, p_n = class_probabilities(cfg)
        P = softmax_cols(mean_logit_matrix(cfg))
        for k in range(4):
            assert P[k, k] == pytest.approx(p_t, rel=1e-12)
            off = np.delete(P[:, k], k)
            assert np.allclose(off, p_n, rtol=1e-12)


class TestGlobalMinimizer:
    def test_canonical_identity_embedding(self):
        cfg = ProblemConfig(K=3, n=2, d=5, delta=0.1)
        c_w = minimizer_scales(cfg)[0]
        state = global_minimizer(cfg)
        assert np.array_equal(state.W, np.eye(5, 3) @ (c_w * simplex_etf_core(3)))
        assert np.array_equal(state.H[3:], np.zeros((2, 6)))

    def test_bias_exactly_zero(self):
        state = global_minimizer(ProblemConfig(K=3, n=2, d=4, delta=0.1))
        assert np.array_equal(state.b, np.zeros(3))

    def test_zero_scale_regime_zero_state(self):
        cfg = ProblemConfig(K=3, n=10, d=3, delta=0.9, lambda_w=0.5, lambda_h=0.5)
        state = global_minimizer(cfg)
        assert np.all(state.W == 0) and np.all(state.H == 0)

    def test_w_norm_formula(self):
        cfg = ProblemConfig(K=4, n=3, d=6, delta=0.05)
        state = global_minimizer(cfg)
        a = logit_scale(cfg)
        expected = math.sqrt(cfg.n * cfg.lambda_h / cfg.lambda_w) * a * cfg.K * (cfg.K - 1)
        assert np.sum(state.W**2) == pytest.approx(expected, rel=1e-12)

    def test_stationarity_grid(self):
        for cfg in GRID:
            assert gradient_norm(global_minimizer(cfg), cfg) < 1e-8

    def test_beats_random_perturbations(self):
        rng = np.random.default_rng(17)
        cfg = ProblemConfig(K=4, n=2, d=6, delta=0.1)
        state = global_minimizer(cfg)
        base_loss = loss_and_grad(state, cfg)[0]
        for _ in range(100):
            pert = random_state(cfg, rng, scale=0.1)
            noisy = state.copy()
            noisy.W += pert.W
            noisy.H += pert.H
            noisy.b += pert.b
            assert loss_and_grad(noisy, cfg)[0] >= base_loss

    def test_mean_logits_match(self):
        for cfg in GRID:
            state = global_minimizer(cfg)
            Hbar = centered(class_means(state.H, cfg.K))
            assert np.allclose(state.W.T @ Hbar, mean_logit_matrix(cfg), atol=1e-10)

    def test_gram_is_simplex_etf(self):
        cfg = ProblemConfig(K=5, n=2, d=8, delta=0.05)
        Hbar = minimizer_class_means(cfg)
        G = Hbar.T @ Hbar
        _, c_h = minimizer_scales(cfg)
        expected = c_h**2 * cfg.K * simplex_etf_core(cfg.K)
        assert np.allclose(G, expected, atol=1e-10)

    def test_feature_columns_collapsed(self):
        cfg = ProblemConfig(K=3, n=4, d=5, delta=0.1)
        state = global_minimizer(cfg)
        for k in range(3):
            cols = state.H[:, k * 4 : (k + 1) * 4]
            assert np.allclose(cols, cols[:, :1])

    def test_norm_non_increasing_in_delta(self):
        base = ProblemConfig(K=4, n=3, d=6)
        norms_w, norms_h = [], []
        for dd in (0.0, 0.05, 0.1, 0.3, 0.6, 0.9):
            cfg = replace(base, delta=dd)
            norms_w.append(np.linalg.norm(global_minimizer(cfg).W))
            norms_h.append(np.linalg.norm(minimizer_class_means(cfg)))
        assert all(a >= b for a, b in zip(norms_w, norms_w[1:]))
        assert all(a >= b for a, b in zip(norms_h, norms_h[1:]))

    def test_seeded_rotation_still_stationary(self):
        cfg = ProblemConfig(K=3, n=2, d=6, delta=0.1)
        assert gradient_norm(rotated_minimizer(cfg, 4), cfg) < 1e-8


@st.composite
def problem_configs(draw):
    """K in [2, 12], n in [1, 8], d in [K, K + 6], delta in [0, 0.99], lambdas in [1e-4, 0.1]."""
    K = draw(st.integers(2, 12))
    lam = st.floats(1e-4, 0.1)
    return ProblemConfig(K=K, n=draw(st.integers(1, 8)), d=draw(st.integers(K, K + 6)),
                         delta=draw(st.floats(0.0, 0.99)), lambda_w=draw(lam),
                         lambda_h=draw(lam), lambda_b=draw(lam))


class TestConfigSpace:
    @given(st.integers(2, 12), st.integers(1, 8), st.integers(0, 6), st.floats(0.0, 0.99),
           st.floats(-323.3, 308.2), st.floats(-323.3, 308.2))
    @settings(max_examples=300, deadline=None)
    def test_every_constructible_config_has_a_finite_optimum(self, K, n, extra_d, delta,
                                                              log_w, log_h):
        # lambda_w and lambda_h log-uniform across the float range; the config
        # boundary must reject every pair whose optimum is not finite.
        try:
            cfg = ProblemConfig(K=K, n=n, d=K + extra_d, delta=delta,
                                lambda_w=10.0**log_w, lambda_h=10.0**log_h)
        except ValueError:
            assume(False)
        state = global_minimizer(cfg)
        Z = state.logits()
        for value in (state.W, state.H, state.b, Z, minimizer_norms(cfg), optimal_loss(cfg),
                      class_probabilities(cfg), gradient_norm(state, cfg)):
            assert np.isfinite(value).all()
        P = softmax_cols(Z)
        assert np.all(P >= 0.0) and np.all(np.abs(P.sum(axis=0) - 1.0) <= 1e-12)

    @given(problem_configs())
    @settings(max_examples=100, deadline=None)
    def test_optimum_is_stationary(self, cfg):
        state = global_minimizer(cfg)
        # At a stationary point the data gradient balances the weight decay.
        decay = math.hypot(cfg.lambda_w * np.linalg.norm(state.W),
                           cfg.lambda_h * np.linalg.norm(state.H))
        assert gradient_norm(state, cfg) <= 1e-10 * decay + 1e-14

    @given(problem_configs())
    @settings(max_examples=100, deadline=None)
    def test_minimizer_norms_match_the_built_minimizer(self, cfg):
        w_norm, h_bar_norm = minimizer_norms(cfg)
        assert w_norm == pytest.approx(np.linalg.norm(global_minimizer(cfg).W), rel=1e-12, abs=0)
        assert h_bar_norm == pytest.approx(np.linalg.norm(minimizer_class_means(cfg)),
                                           rel=1e-12, abs=0)

    @given(problem_configs())
    @settings(max_examples=200, deadline=None)
    def test_bisection_agrees_with_logit_scale(self, cfg):
        assert logit_scale(cfg) == pytest.approx(solve_logit_scale_by_bisection(cfg), abs=1e-10)

    @given(problem_configs(), st.floats(1e-6, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_k_p_t_strictly_decreases_in_delta(self, cfg, gap):
        hi = replace(cfg, delta=min(cfg.delta + gap, 0.999))
        if logit_scale(hi) > 0.0:  # then a > 0 at the smaller delta too
            assert cfg.K * class_probabilities(hi)[0] < cfg.K * class_probabilities(cfg)[0]
