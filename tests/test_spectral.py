import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufmlab.config import ProblemConfig
from ufmlab.closed_form import class_probabilities, global_minimizer, logit_scale
from ufmlab.core import ModelState
from ufmlab.spectral import (
    SpectrumReport,
    analytic_classifier_hessian_spectrum,
    analytic_feature_hessian_spectrum,
    classifier_eigenvalues,
    compare_to_analytic,
    numeric_hessian_classifier,
    numeric_hessian_features,
    probability_laplacian,
)

from helpers import (CONFIG_GRID, dense_classifier_hessian, phi_unregularized, random_state,
                     rotated_minimizer)

# CONFIG_GRID plus delta = 0.98, where the logit scale is 0 at the larger sizes
RULE_GRID = CONFIG_GRID + [replace(c, delta=0.98) for c in CONFIG_GRID if c.delta == 0.3]

SPECTRUM_GRID = [
    ProblemConfig(K=K, n=n, d=d, delta=delta)
    for K in (3, 4, 10)
    for n in (2, 5)
    for d in (K, K + 3)
    for delta in (0.0, 0.05, 0.1, 0.3)
]


class TestProbabilityLaplacian:
    def test_uniform_spectrum(self):
        K = 5
        D = probability_laplacian(np.full(K, 1 / K))
        vals = np.sort(np.linalg.eigvalsh(D))
        assert vals[0] == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(vals[1:], 1 / K, atol=1e-12)

    def test_annihilates_ones(self):
        rng = np.random.default_rng(0)
        p = rng.dirichlet(np.ones(6))
        D = probability_laplacian(p)
        assert np.allclose(D @ np.ones(6), 0, atol=1e-14)
        assert np.allclose(D, D.T)

    def test_optimum_prediction_spectrum(self):
        cfg = ProblemConfig(K=5, n=2, d=6, delta=0.1)
        p_t, p_n = class_probabilities(cfg)
        p = np.full(5, p_n)
        p[2] = p_t
        vals = np.sort(np.linalg.eigvalsh(probability_laplacian(p)))
        expected = np.sort([0.0] + [p_n] * (5 - 2) + [5 * p_t * p_n])
        assert np.allclose(vals, expected, atol=1e-12)


class TestSpectrumReport:
    def test_arithmetic(self):
        report = SpectrumReport([0.0, 2.0, 6.0, 2.0], "numeric")
        assert report.eigenpairs == [(0.0, 1), (2.0, 2), (6.0, 1)]
        assert report.condition_number == pytest.approx(3.0)
        assert report.degenerate is False and report.notes == []

    def test_analytic_feature_kappa_is_k_pt(self):
        cfg = ProblemConfig(K=4, n=3, d=6, delta=0.05)
        p_t, _ = class_probabilities(cfg)
        report = analytic_feature_hessian_spectrum(cfg)
        assert report.condition_number == pytest.approx(4 * p_t, rel=1e-12)
        values, mults = zip(*report.eigenpairs)
        numeric = SpectrumReport(np.repeat(values, mults), "numeric")
        assert numeric.condition_number == pytest.approx(4 * p_t, rel=1e-9)

    def test_all_zero_is_degenerate(self):
        report = SpectrumReport([0.0, 0.0], "numeric")
        assert math.isnan(report.condition_number)
        assert report.degenerate is True
        assert report.notes == ["zero logit scale: all eigenvalues vanish"]

    def test_single_nonzero_is_degenerate(self):
        report = SpectrumReport([0, 0, 0, 1e-12, 0.5, 0.5], "analytic")
        assert report.condition_number == 1.0
        assert report.degenerate is True
        assert report.notes == ["K=2: single nonzero eigenvalue, condition number trivially 1"]

    def test_analytic_kappa_is_k_pt(self):
        assert any(logit_scale(cfg) == 0.0 for cfg in RULE_GRID)
        for cfg in RULE_GRID:
            p_t, _ = class_probabilities(cfg)
            for report in (analytic_feature_hessian_spectrum(cfg),
                           analytic_classifier_hessian_spectrum(cfg)):
                if logit_scale(cfg) == 0.0:
                    assert math.isnan(report.condition_number)
                elif cfg.K == 2:
                    assert report.condition_number == 1.0
                else:
                    assert report.condition_number == pytest.approx(cfg.K * p_t, rel=1e-12)

    def test_numeric_report_agrees_with_analytic(self):
        for cfg in RULE_GRID:
            state = global_minimizer(cfg)
            cases = [(analytic_feature_hessian_spectrum(cfg),
                      np.linalg.eigvalsh(numeric_hessian_features(state, cfg))),
                     (analytic_classifier_hessian_spectrum(cfg),
                      classifier_eigenvalues(state, cfg))]
            for analytic, vals in cases:
                numeric = SpectrumReport(vals, "numeric")
                assert numeric.degenerate is analytic.degenerate, cfg
                assert numeric.notes == analytic.notes, cfg
                assert numeric.condition_number == pytest.approx(
                    analytic.condition_number, rel=1e-9, nan_ok=True), cfg


class TestAnalyticSpectra:
    def test_feature_multiplicities_sum_to_d(self):
        for cfg in SPECTRUM_GRID:
            report = analytic_feature_hessian_spectrum(cfg)
            assert sum(m for _, m in report.eigenpairs) == cfg.d

    def test_classifier_multiplicities_sum_to_kd(self):
        for cfg in SPECTRUM_GRID:
            report = analytic_classifier_hessian_spectrum(cfg)
            assert sum(m for _, m in report.eigenpairs) == cfg.K * cfg.d

    def test_kappa_equals_interior_identity(self):
        for cfg in SPECTRUM_GRID:
            s = math.sqrt(cfg.K * cfg.N) * cfg.lambda_z + cfg.delta
            assert s < 1  # interior regime throughout the grid
            expected = cfg.K - (cfg.K - 1) * s
            for report in (
                analytic_feature_hessian_spectrum(cfg),
                analytic_classifier_hessian_spectrum(cfg),
            ):
                assert report.condition_number == pytest.approx(expected, abs=1e-10)

    def test_kappa_strictly_decreasing_in_delta(self):
        base = ProblemConfig(K=5, n=3, d=7)
        kappas = [
            analytic_feature_hessian_spectrum(replace(base, delta=dd)).condition_number
            for dd in (0.0, 0.05, 0.1, 0.3)
        ]
        assert all(a > b for a, b in zip(kappas, kappas[1:]))

    @pytest.mark.parametrize("cfg", [
        ProblemConfig(K=2, n=2, d=2, delta=0.1),
        ProblemConfig(K=2, n=1, d=3, delta=0.0, lambda_w=1e-3, lambda_h=2e-2),
        ProblemConfig(K=2, n=5, d=4, delta=0.3, lambda_w=2e-2, lambda_h=2e-2, lambda_b=1e-3),
        ProblemConfig(K=2, n=3, d=4, delta=0.05, lambda_w=1e-6, lambda_h=1e-6),
    ], ids=lambda cfg: f"d{cfg.d}-delta{cfg.delta}-lam{cfg.lambda_w}")
    def test_k2_classifier_matches_numeric(self, cfg):
        # The (c p_n, -1) and (c p_n, +1) middle clusters cancel, leaving one nonzero eigenvalue.
        analytic = analytic_classifier_hessian_spectrum(cfg)
        numeric = SpectrumReport(classifier_eigenvalues(global_minimizer(cfg), cfg), "numeric")
        dev, mults = compare_to_analytic(analytic, numeric)
        assert mults and dev < 1e-8
        assert [m for _, m in analytic.eigenpairs] == [2 * cfg.d - 1, 1]
        for report in (analytic, numeric):
            assert report.degenerate and report.condition_number == 1.0
            assert report.notes == ["K=2: single nonzero eigenvalue, condition number trivially 1"]

    def test_k2_feature_degenerate_flag(self):
        report = analytic_feature_hessian_spectrum(ProblemConfig(K=2, n=2, d=3, delta=0.1))
        assert report.degenerate
        assert report.condition_number == 1.0

    def test_zero_scale_spectrum_flagged(self):
        cfg = ProblemConfig(K=3, n=10, d=3, delta=0.9, lambda_w=0.5, lambda_h=0.5)
        report = analytic_feature_hessian_spectrum(cfg)
        assert report.degenerate
        assert all(v == 0.0 for v, _ in report.eigenpairs)

    def test_middle_classifier_eigenvalue_within_bounds(self):
        for cfg in SPECTRUM_GRID:
            p_t, p_n = class_probabilities(cfg)
            lam_mid = (1 - p_t + p_n) * (p_n + (cfg.K - 1) * p_t) / cfg.K
            assert p_n <= lam_mid <= cfg.K * p_n * p_t + 1e-15


class TestNumericHessians:
    def test_numeric_matches_analytic_feature(self):
        for cfg in SPECTRUM_GRID:
            state = global_minimizer(cfg)
            analytic = analytic_feature_hessian_spectrum(cfg)
            vals = np.linalg.eigvalsh(numeric_hessian_features(state, cfg))
            dev, mults_ok = compare_to_analytic(analytic, SpectrumReport(vals, "numeric"))
            assert dev < 1e-6 and mults_ok

    def test_numeric_matches_analytic_classifier(self):
        # the grid, plus the Kd = 600 and Kd = 1200 sizes of the dense spectrum benchmark
        dense = [ProblemConfig(K=10, n=20, d=60), ProblemConfig(K=20, n=10, d=60)]
        for cfg in SPECTRUM_GRID + dense:
            state = global_minimizer(cfg)
            analytic = analytic_classifier_hessian_spectrum(cfg)
            vals = classifier_eigenvalues(state, cfg)
            dev, mults_ok = compare_to_analytic(analytic, SpectrumReport(vals, "numeric"))
            assert dev < 1e-6 and mults_ok

    def test_psd_at_optimum(self):
        cfg = ProblemConfig(K=4, n=2, d=6, delta=0.1)
        state = global_minimizer(cfg)
        block = numeric_hessian_features(state, cfg)
        vals = np.linalg.eigvalsh(block)
        assert vals[0] > -1e-10 * vals[-1]
        vals = np.linalg.eigvalsh(numeric_hessian_classifier(state, cfg))
        assert vals[0] > -1e-10 * vals[-1]

    def test_zero_classifier_gives_zero_blocks(self):
        cfg = ProblemConfig(K=3, n=2, d=4, delta=0.1)
        state = global_minimizer(cfg)
        state.W[:] = 0.0
        assert np.allclose(numeric_hessian_features(state, cfg), 0)

    def test_zero_features_give_zero_matrix(self):
        cfg = ProblemConfig(K=3, n=2, d=4, delta=0.1)
        state = global_minimizer(cfg)
        state.H[:] = 0.0
        assert numeric_hessian_classifier(state, cfg).shape == (0, 0)
        assert np.array_equal(classifier_eigenvalues(state, cfg), np.zeros(cfg.K * cfg.d))

    def test_classifier_matches_kron_sum(self):
        # The assembly sums in BLAS order, not the kron sum's, so it is held to
        # the float64 summation bound of (1/N) sum_j kron(D_j, h_j h_j^T):
        # |M - ref| <= 2 (N + 2) eps R with R = (1/N) sum_j kron(|D_j|, |h_j||h_j|^T).
        cases = [(ProblemConfig(K=4, n=3, d=5, delta=0.1), 0.01),
                 (ProblemConfig(K=5, n=4, d=9, delta=0.9), 1.0)]
        for cfg, noise in cases:
            state = global_minimizer(cfg)
            state.H = state.H + noise * np.random.default_rng(0).standard_normal(state.H.shape)
            ref = dense_classifier_hessian(state, cfg)
            R = dense_classifier_hessian(state, cfg, np.abs)
            bound = 2 * (cfg.N + 2) * np.finfo(float).eps * R
            assert np.all(np.abs(numeric_hessian_classifier(state, cfg) - ref) <= bound)

    @pytest.mark.parametrize("cfg, noise", [
        (ProblemConfig(K=3, n=2, d=4, lambda_w=1e-6, lambda_h=1e-6, lambda_b=1e-6), 1e-3),
        (ProblemConfig(K=4, n=3, d=5, lambda_w=1e-4, lambda_h=1e-4, lambda_b=1e-4), 1e-2),
        (ProblemConfig(K=10, n=5, d=12, lambda_w=1e-4, lambda_h=1e-4, lambda_b=1e-4), 1e-2),
        (ProblemConfig(K=6, n=8, d=7, delta=0.01, lambda_w=1e-5, lambda_h=1e-5,
                       lambda_b=1e-5), 0.1),
    ])
    def test_classifier_matches_kron_sum_at_confident_columns(self, cfg, noise):
        # p_t near 1: a diagonal block formed as G diag(p_a) G^T - (V V^T)_aa, a difference
        # of two near-equal terms, breaks the bound of test_classifier_matches_kron_sum.
        state = global_minimizer(cfg)
        state.H = state.H + noise * np.random.default_rng(0).standard_normal(state.H.shape)
        M = numeric_hessian_classifier(state, cfg)
        assert len(M) == cfg.K * cfg.d
        bound = 2 * (cfg.N + 2) * np.finfo(float).eps * dense_classifier_hessian(state, cfg, np.abs)
        assert np.all(np.abs(M - dense_classifier_hessian(state, cfg)) <= bound)

    def test_rotation_invariant_spectra(self):
        cfg = ProblemConfig(K=4, n=2, d=7, delta=0.1)
        states = [global_minimizer(cfg), rotated_minimizer(cfg, 3), rotated_minimizer(cfg, 8)]
        vals = [np.linalg.eigvalsh(numeric_hessian_features(s, cfg)) for s in states]
        assert np.allclose(vals[0], vals[1], atol=1e-12)
        assert np.allclose(vals[0], vals[2], atol=1e-12)

    def test_feature_block_matches_finite_differences(self):
        # second differences of the unregularized loss w.r.t. one feature column
        cfg = ProblemConfig(K=3, n=2, d=4, delta=0.1)
        state = global_minimizer(cfg)
        block = numeric_hessian_features(state, cfg)
        h = 1e-5
        fd = np.zeros((cfg.d, cfg.d))
        for i in range(cfg.d):
            for j in range(cfg.d):
                vals = []
                for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    s = state.copy()
                    s.H[i, 0] += si * h
                    s.H[j, 0] += sj * h
                    vals.append(phi_unregularized(s, cfg))
                fd[i, j] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4 * h * h)
        assert np.abs(fd - block).max() / np.abs(block).max() < 1e-4

    def test_classifier_spot_check_finite_differences(self):
        # At the optimum H has rank K - 1 < d: expand the block in range(H) to Kd x Kd
        # with the basis it was built in (the same SVD call, so the same signs).
        cfg = ProblemConfig(K=3, n=2, d=4, delta=0.1)
        state = global_minimizer(cfg)
        M = numeric_hessian_classifier(state, cfg)
        r = len(M) // cfg.K
        assert r == cfg.K - 1
        Q = np.kron(np.eye(cfg.K), np.linalg.svd(state.H, full_matrices=False)[0][:, :r])
        M = Q @ M @ Q.T
        rng = np.random.default_rng(1)
        h = 1e-5
        scale = np.abs(M).max()
        for _ in range(5):
            a = rng.integers(cfg.K * cfg.d)
            b = rng.integers(cfg.K * cfg.d)
            vals = []
            for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                s = state.copy()
                s.W[a % cfg.d, a // cfg.d] += sa * h
                s.W[b % cfg.d, b // cfg.d] += sb * h
                vals.append(phi_unregularized(s, cfg))
            fd = (vals[0] - vals[1] - vals[2] + vals[3]) / (4 * h * h)
            assert abs(fd - M[a, b]) < 1e-4 * max(scale, 1e-12) + 1e-7


def assert_matches_dense(state, cfg):
    """classifier_eigenvalues against a dense solve of the kron sum: within
    1e-12 lambda_max, with the same cluster multiplicities."""
    vals = classifier_eigenvalues(state, cfg)
    dense = np.linalg.eigvalsh(dense_classifier_hessian(state, cfg))
    assert vals.shape == (cfg.K * cfg.d,) and np.all(np.diff(vals) >= 0)
    lam_max = max(abs(dense).max(), 1e-300)
    assert np.abs(vals - dense).max() <= 1e-12 * lam_max
    counts = [[c for _, c in SpectrumReport(v, "numeric").eigenpairs] for v in (vals, dense)]
    assert counts[0] == counts[1]
    return vals


class TestClassifierEigenvalues:
    def test_optimum_across_grid(self):
        # r = K - 1 < d at every optimum, so every case runs the reduced block
        for cfg in CONFIG_GRID:
            state = global_minimizer(cfg)
            assert len(numeric_hessian_classifier(state, cfg)) == cfg.K * (cfg.K - 1)
            assert_matches_dense(state, cfg)

    def test_full_rank_states(self):
        rng = np.random.default_rng(5)
        for cfg in (ProblemConfig(K=4, n=3, d=5, delta=0.1), ProblemConfig(K=5, n=4, d=9),
                    ProblemConfig(K=3, n=1, d=3, delta=0.3)):
            state = random_state(cfg, rng, scale=0.5)
            assert len(numeric_hessian_classifier(state, cfg)) == cfg.K * cfg.d
            assert_matches_dense(state, cfg)

    @settings(max_examples=60, deadline=None)
    @given(K=st.integers(2, 6), n=st.integers(1, 4), extra=st.integers(0, 4),
           rank=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
    def test_low_rank_features(self, K, n, extra, rank, seed):
        # H = A B with inner rank 0..d (H = 0 at rank 0); W and b are dense
        d = K + extra
        cfg = ProblemConfig(K=K, n=n, d=d, delta=0.1)
        rng = np.random.default_rng(seed)
        rank = min(rank, d)
        H = rng.standard_normal((d, rank)) @ rng.standard_normal((rank, cfg.N)) / max(rank, 1)
        state = ModelState(rng.standard_normal((d, K)), H, rng.standard_normal(K))
        assert len(numeric_hessian_classifier(state, cfg)) <= K * min(d, cfg.N)
        vals = assert_matches_dense(state, cfg)
        if rank == 0:
            assert np.array_equal(vals, np.zeros(K * d))
            assert SpectrumReport(vals, "numeric").degenerate


class TestNumericDegenerateFlag:
    def test_k2_optimum_degenerate(self):
        cfg = ProblemConfig(K=2, n=2, d=3, delta=0.1)
        vals = np.linalg.eigvalsh(numeric_hessian_features(global_minimizer(cfg), cfg))
        report = SpectrumReport(vals, "numeric")
        assert report.degenerate is True
        assert report.condition_number == 1.0

    @pytest.mark.parametrize("K", [3, 4, 10])
    def test_k3_and_above_optimum_not_degenerate(self, K):
        cfg = ProblemConfig(K=K, n=2, d=K + 1, delta=0.1)
        state = global_minimizer(cfg)
        for vals in (np.linalg.eigvalsh(numeric_hessian_features(state, cfg)),
                     classifier_eigenvalues(state, cfg)):
            report = SpectrumReport(vals, "numeric")
            assert report.degenerate is False
            assert report.condition_number > 1.0


class TestClustering:
    def test_cluster_counts(self):
        vals = np.array([0.0, 1e-17, 0.5, 0.5 + 1e-12, 2.0])
        clusters = SpectrumReport(vals, "numeric").eigenpairs
        assert [c for _, c in clusters] == [2, 2, 1]

    def test_all_zero(self):
        assert SpectrumReport(np.zeros(4), "numeric").eigenpairs == [(0.0, 4)]

    @settings(max_examples=100, deadline=None)
    @given(value=st.floats(-1e300, 1e300), count=st.integers(1, 50))
    def test_repeated_value_is_kept_exactly(self, value, count):
        # np.add.reduceat(vals, starts) / counts is not: 7 copies of 0.45906189476824555
        # sum to a float whose seventh is one ulp off
        assert SpectrumReport(np.full(count, value), "numeric").eigenpairs == [(value, count)]


class TestCompareToAnalytic:
    @pytest.mark.parametrize("K, d", [(3, 4), (10, 12)])
    def test_zero_logit_scale_matches(self, K, d):
        # s >= 1: every eigenvalue of both Hessians is 0, and the analytic formulas that
        # vanish there form one cluster, as the numeric zeros do
        cfg = ProblemConfig(K=K, n=2, d=d, delta=0.98)
        assert logit_scale(cfg) == 0.0
        state = global_minimizer(cfg)
        cases = [(analytic_feature_hessian_spectrum(cfg),
                  np.linalg.eigvalsh(numeric_hessian_features(state, cfg))),
                 (analytic_classifier_hessian_spectrum(cfg), classifier_eigenvalues(state, cfg))]
        for analytic, vals in cases:
            numeric = SpectrumReport(vals, "numeric")
            assert compare_to_analytic(analytic, numeric) == (0.0, True)
            for report in (analytic, numeric):
                assert report.degenerate
                assert report.notes == ["zero logit scale: all eigenvalues vanish"]

    def test_count_mismatch_reads_as_deviation(self):
        analytic = SpectrumReport([1.0, 1.0, 2.0], "analytic")
        numeric = SpectrumReport([1.0, 2.0, 2.0], "numeric")
        assert compare_to_analytic(analytic, numeric) == (1.0, False)

    def test_dimension_mismatch_raises(self):
        analytic = SpectrumReport([1.0, 1.0, 2.0], "analytic")
        with pytest.raises(ValueError, match="has 3 eigenvalues, numeric 2"):
            compare_to_analytic(analytic, SpectrumReport([1.0, 1.0], "numeric"))
