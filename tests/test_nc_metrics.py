import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import reference_class_covariances, reference_nc1, rotated_minimizer
from ufmlab.config import ProblemConfig
from ufmlab.closed_form import global_minimizer
from ufmlab.nc_metrics import (
    NC1_UNDEFINED,
    centered,
    class_means,
    nc1,
    nc2,
    nc3,
    norm_summary,
)

# K=2, d=1: class 0 holds {0, 2}, class 1 holds {4, 6}
HAND_H = np.array([[0.0, 2.0, 4.0, 6.0]])


def class_major(K, n):
    """The label of each column of the class-major layout."""
    return np.repeat(np.arange(K), n)


def nc1_of(H, K):
    return nc1(H, class_means(H, K))


def state_means(state, cfg):
    return class_means(state.H, cfg.K)


class TestClassStatistics:
    def test_hand_example(self):
        means = class_means(HAND_H, 2)
        Sigma_W, Sigma_B = reference_class_covariances(HAND_H, class_major(2, 2), 2)
        assert means[0].tolist() == [1.0, 5.0]
        assert centered(means)[0].tolist() == [-2.0, 2.0]
        assert Sigma_W[0, 0] == pytest.approx(1.0)
        assert Sigma_B[0, 0] == pytest.approx(4.0)

    def test_identical_columns_zero_covariances(self):
        H = np.tile(np.array([[1.0], [2.0]]), (1, 6))
        Sigma_W, Sigma_B = reference_class_covariances(H, class_major(3, 2), 3)
        assert np.allclose(Sigma_W, 0) and np.allclose(Sigma_B, 0)

    def test_collapsed_features_zero_within(self):
        rng = np.random.default_rng(0)
        means = rng.standard_normal((4, 3))
        H = np.repeat(means, 5, axis=1)
        Sigma_W, _ = reference_class_covariances(H, class_major(3, 5), 3)
        assert np.allclose(Sigma_W, 0)

    def test_balanced_class_means_average_to_global(self):
        rng = np.random.default_rng(1)
        H = rng.standard_normal((2, 3, 12))
        means, labels = class_means(H, 4), class_major(4, 3)
        for k in range(4):
            assert np.allclose(means[..., k], H[..., labels == k].mean(axis=-1), rtol=1e-14)
        assert np.allclose(means.mean(axis=-1), H.mean(axis=-1))
        assert np.allclose(centered(means), means - H.mean(axis=-1)[..., None])


class TestNC1:
    def test_collapsed_is_zero(self):
        rng = np.random.default_rng(2)
        means = rng.standard_normal((4, 3))
        H = np.repeat(means, 4, axis=1)
        assert nc1_of(H, 3) == pytest.approx(0.0, abs=1e-12)

    def test_hand_example_value(self):
        # (1/K) trace(Sigma_W pinv(Sigma_B)) = (1/2) * 1 * (1/4) = 1/8
        assert nc1_of(HAND_H, 2) == pytest.approx(0.125, rel=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        H = rng.standard_normal((5, 20))
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        assert nc1_of(Q @ H, 4) == pytest.approx(nc1_of(H, 4), abs=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        H = rng.standard_normal((3, 9))
        assert nc1_of(3.7 * H, 3) == pytest.approx(nc1_of(H, 3), rel=1e-10)

    def test_degenerate_all_zero_flagged(self):
        assert nc1_of(np.zeros((2, 4)), 2) == 0.0

    def test_undefined_sentinel(self):
        # all class means coincide but samples spread: Sigma_B = 0, Sigma_W != 0
        H = np.array([[1.0, -1.0, 1.0, -1.0]])
        assert nc1_of(H, 2) == NC1_UNDEFINED and np.isinf(NC1_UNDEFINED)

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(5)
        H = rng.standard_normal((4, 12))
        perm = np.concatenate([4 * k + rng.permutation(4) for k in range(3)])
        # class-preserving permutation: identical sums in a different order
        assert nc1_of(H[:, perm], 3) == pytest.approx(nc1_of(H, 3), rel=1e-12)


@st.composite
def feature_stacks(draw):
    """Class-major features with K in [2, 8], n in [1, 8] and d in [1, 14], one
    d x M set or a stack of 1 to 3, scale 1e-6 to 1e3, and within-class spread
    from 1e-9 (near collapse) to 1 of the class-mean spread; returns (H, K)."""
    K, n = draw(st.integers(2, 8)), draw(st.integers(1, 8))
    d, B = draw(st.integers(1, 14)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-6.0, 3.0))
    spread = 10.0 ** draw(st.floats(-9.0, 0.0))
    means = rng.standard_normal((max(B, 1), d, K))
    H = scale * (np.repeat(means, n, axis=-1) + spread * rng.standard_normal((max(B, 1), d, K * n)))
    return (H if B else H[0]), K


class TestNC1Oracle:
    @given(feature_stacks())
    @settings(max_examples=150, deadline=None)
    def test_matches_pinv_of_sigma_b(self, stack):
        # The oracle forms Sigma_B = Hbar Hbar^T / K, so its own relative error grows
        # as eps * cond(Hbar)^2: about 2e-10 at cond(Hbar) = 1e3, 4e-8 at 1.4e4.
        H, K = stack
        means = class_means(H, K)
        s = np.linalg.svd(centered(means), compute_uv=False)
        rank = min(H.shape[-2], K - 1)
        assume(np.all(s[..., rank - 1] > 1e-3 * s[..., 0]))
        got, want = nc1(H, means), reference_nc1(H, class_major(K, H.shape[-1] // K), K)
        assert np.shape(got) == np.shape(want)
        assert np.allclose(got, want, rtol=1e-8, atol=0.0)


class TestNC2:
    def test_closed_form_is_zero(self):
        cfg = ProblemConfig(K=4, n=3, d=6, delta=0.1)
        state = global_minimizer(cfg)
        assert nc2(state.W, state_means(state, cfg)) < 1e-10

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        W = rng.standard_normal((4, 3))
        means = class_means(rng.standard_normal((4, 6)), 3)
        assert nc2(7.0 * W, means) == pytest.approx(nc2(W, means), abs=1e-12)

    def test_direct_formula_oracle(self):
        rng = np.random.default_rng(7)
        K = 3
        W = rng.standard_normal((4, K))
        means = class_means(rng.standard_normal((4, 6)), K)
        M = W.T @ centered(means)
        etf = (np.eye(K) - np.ones((K, K)) / K) / np.sqrt(K - 1)
        expected = np.sqrt(((M / np.sqrt((M**2).sum()) - etf) ** 2).sum())
        assert nc2(W, means) == pytest.approx(expected, rel=1e-12)

    def test_zero_product_rejected(self):
        assert np.isnan(nc2(np.ones((3, 2)), class_means(np.zeros((3, 4)), 2)))


class TestNC3:
    def test_proportional_is_zero(self):
        rng = np.random.default_rng(8)
        means = class_means(rng.standard_normal((4, 6)), 3)
        W = 2.5 * centered(means)
        assert nc3(W, means) == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_is_two(self):
        rng = np.random.default_rng(9)
        means = class_means(rng.standard_normal((4, 6)), 3)
        W = -centered(means)
        assert nc3(W, means) == pytest.approx(2.0, rel=1e-12)

    def test_direct_formula_oracle(self):
        rng = np.random.default_rng(10)
        means = class_means(rng.standard_normal((5, 8)), 4)
        W = rng.standard_normal((5, 4))
        Hbar = centered(means)
        expected = np.linalg.norm(W / np.linalg.norm(W) - Hbar / np.linalg.norm(Hbar))
        assert nc3(W, means) == pytest.approx(expected, rel=1e-12)

    def test_zero_inputs_rejected(self):
        assert np.isnan(nc3(np.zeros((3, 2)), class_means(np.ones((3, 4)), 2)))


class TestNormSummary:
    def test_zero_classifier(self):
        w_norm, _ = norm_summary(np.zeros((3, 2)), class_means(np.ones((3, 4)), 2))
        assert w_norm == 0.0

    def test_orthonormal_columns(self):
        w_norm, _ = norm_summary(np.eye(4), class_means(np.ones((4, 4)), 4))
        assert w_norm == pytest.approx(1.0)

    def test_smaller_delta_larger_norm(self):
        cfg1 = ProblemConfig(K=3, n=2, d=4, delta=0.05)
        cfg2 = ProblemConfig(K=3, n=2, d=4, delta=0.3)
        state1, state2 = global_minimizer(cfg1), global_minimizer(cfg2)
        n1 = norm_summary(state1.W, state_means(state1, cfg1))[0]
        n2 = norm_summary(state2.W, state_means(state2, cfg2))[0]
        assert n1 > n2


class TestClosedFormMetrics:
    def test_all_metrics_small_with_random_rotations(self):
        for seed in (1, 2, 3):
            cfg = ProblemConfig(K=4, n=2, d=7, delta=0.1)
            state = rotated_minimizer(cfg, seed)
            means = state_means(state, cfg)
            assert nc1(state.H, means) < 1e-8
            assert nc2(state.W, means) < 1e-8
            assert nc3(state.W, means) < 1e-8


class TestStack:
    def test_members_equal_their_single_set_values(self):
        # K=3, n=2, d=4 with integer features, so class means are exact.
        rng = np.random.default_rng(12)
        H = rng.integers(-3, 4, size=(4, 4, 6)).astype(float)
        W = rng.standard_normal((4, 4, 3))
        H[1] = np.repeat(H[1][:, ::2], 2, axis=1)  # collapsed: Sigma_W = 0
        H[2, :, 1::2] = -H[2, :, ::2]  # every class mean 0: Sigma_B = 0
        W[3] = 0.0
        means = class_means(H, 3)
        stacked = [nc1(H, means), nc2(W, means), nc3(W, means), *norm_summary(W, means)]
        for i in range(4):
            one = class_means(H[i], 3)
            assert np.array_equal(one, means[i])
            single = [nc1(H[i], one), nc2(W[i], one), nc3(W[i], one), *norm_summary(W[i], one)]
            for got, want in zip(stacked, single):
                assert got.shape == (4,) and np.ndim(want) == 0
                assert np.array_equal(got[i], want, equal_nan=True)
        v1, v2, v3 = stacked[:3]
        assert v1[1] == 0.0 and v1[2] == NC1_UNDEFINED and np.all(np.isfinite(v1[[0, 3]]))
        # Hbar = 0 in member 2 and W = 0 in member 3 leave NC2 and NC3 undefined there only.
        assert np.array_equal(np.isnan(v2), [False, False, True, True])
        assert np.array_equal(np.isnan(v3), [False, False, True, True])
