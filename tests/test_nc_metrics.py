import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import reference_class_covariances, reference_nc1
from ufmlab.config import ProblemConfig
from ufmlab.closed_form import global_minimizer, partial_orthogonal
from ufmlab.nc_metrics import (
    NC1_UNDEFINED,
    FeatureSet,
    centered_class_means,
    class_statistics,
    nc1,
    nc2,
    nc3,
    norm_summary,
)


def hand_feature_set():
    # K=2, d=1: class 0 holds {0, 2}, class 1 holds {4, 6}
    H = np.array([[0.0, 2.0, 4.0, 6.0]])
    return FeatureSet(H=H, labels=np.array([0, 0, 1, 1]), K=2)


class TestClassStatistics:
    def test_hand_example(self):
        h_G, means = class_statistics(hand_feature_set())
        Sigma_W, Sigma_B = reference_class_covariances(hand_feature_set())
        assert h_G[0] == pytest.approx(3.0)
        assert means[0].tolist() == [1.0, 5.0]
        assert Sigma_W[0, 0] == pytest.approx(1.0)
        assert Sigma_B[0, 0] == pytest.approx(4.0)

    def test_identical_columns_zero_covariances(self):
        H = np.tile(np.array([[1.0], [2.0]]), (1, 6))
        fs = FeatureSet(H=H, labels=np.array([0, 0, 1, 1, 2, 2]), K=3)
        Sigma_W, Sigma_B = reference_class_covariances(fs)
        assert np.allclose(Sigma_W, 0) and np.allclose(Sigma_B, 0)

    def test_collapsed_features_zero_within(self):
        rng = np.random.default_rng(0)
        means = rng.standard_normal((4, 3))
        H = np.repeat(means, 5, axis=1)
        fs = FeatureSet(H=H, labels=np.repeat(np.arange(3), 5), K=3)
        Sigma_W, _ = reference_class_covariances(fs)
        assert np.allclose(Sigma_W, 0)

    def test_empty_class_rejected(self):
        fs = FeatureSet(H=np.zeros((2, 2)), labels=np.array([0, 0]), K=2)
        with pytest.raises(ValueError, match="class 1 has no samples"):
            class_statistics(fs)

    def test_balanced_class_means_average_to_global(self):
        rng = np.random.default_rng(1)
        fs = FeatureSet(H=rng.standard_normal((3, 12)),
                        labels=np.repeat(np.arange(4), 3), K=4)
        h_G, means = class_statistics(fs)
        assert np.allclose(means.mean(axis=1), h_G)

    def test_unsorted_unbalanced_labels(self):
        rng = np.random.default_rng(13)
        H = rng.standard_normal((2, 3, 9))
        labels = np.array([2, 0, 1, 2, 2, 0, 1, 2, 2])
        h_G, means = class_statistics(FeatureSet(H=H, labels=labels, K=3))
        assert np.array_equal(h_G, H.mean(axis=-1))
        for k in range(3):
            assert np.allclose(means[..., k], H[..., labels == k].mean(axis=-1), rtol=1e-14)


class TestNC1:
    def test_collapsed_is_zero(self):
        rng = np.random.default_rng(2)
        means = rng.standard_normal((4, 3))
        H = np.repeat(means, 4, axis=1)
        fs = FeatureSet(H=H, labels=np.repeat(np.arange(3), 4), K=3)
        assert nc1(fs) == pytest.approx(0.0, abs=1e-12)

    def test_hand_example_value(self):
        # (1/K) trace(Sigma_W pinv(Sigma_B)) = (1/2) * 1 * (1/4) = 1/8
        assert nc1(hand_feature_set()) == pytest.approx(0.125, rel=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(3)
        H = rng.standard_normal((5, 20))
        labels = np.repeat(np.arange(4), 5)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        v0 = nc1(FeatureSet(H=H, labels=labels, K=4))
        v1 = nc1(FeatureSet(H=Q @ H, labels=labels, K=4))
        assert v1 == pytest.approx(v0, abs=1e-10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        H = rng.standard_normal((3, 9))
        labels = np.repeat(np.arange(3), 3)
        v0 = nc1(FeatureSet(H=H, labels=labels, K=3))
        v1 = nc1(FeatureSet(H=3.7 * H, labels=labels, K=3))
        assert v1 == pytest.approx(v0, rel=1e-10)

    def test_degenerate_all_zero_flagged(self):
        fs = FeatureSet(H=np.zeros((2, 4)), labels=np.array([0, 0, 1, 1]), K=2)
        assert nc1(fs) == 0.0

    def test_undefined_sentinel(self):
        # all class means coincide but samples spread: Sigma_B = 0, Sigma_W != 0
        H = np.array([[1.0, -1.0, 1.0, -1.0]])
        fs = FeatureSet(H=H, labels=np.array([0, 0, 1, 1]), K=2)
        assert nc1(fs) == NC1_UNDEFINED and np.isinf(NC1_UNDEFINED)

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(5)
        H = rng.standard_normal((4, 12))
        labels = np.repeat(np.arange(3), 4)
        fs = FeatureSet(H=H, labels=labels, K=3)
        perm = rng.permutation(12)
        fs_p = FeatureSet(H=H[:, perm], labels=labels[perm], K=3)
        # class-preserving permutation: identical sums in a different order
        assert nc1(fs_p) == pytest.approx(nc1(fs), rel=1e-12)


@st.composite
def feature_sets(draw):
    """K in [2, 8], d in [1, 14], shuffled unbalanced labels with every class
    present, one d x M set or a stack of 1 to 3, scale 1e-6 to 1e3, and
    within-class spread from 1e-9 (near collapse) to 1 of the class-mean spread."""
    K, d, B = draw(st.integers(2, 8)), draw(st.integers(1, 14)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.concatenate([np.arange(K), rng.integers(0, K, draw(st.integers(0, 30)))])
    rng.shuffle(labels)
    scale = 10.0 ** draw(st.floats(-6.0, 3.0))
    spread = 10.0 ** draw(st.floats(-9.0, 0.0))
    means = rng.standard_normal((max(B, 1), d, K))
    H = scale * (means[..., labels] + spread * rng.standard_normal((max(B, 1), d, labels.size)))
    return FeatureSet(H=H if B else H[0], labels=labels, K=K)


class TestNC1Oracle:
    @given(feature_sets())
    @settings(max_examples=150, deadline=None)
    def test_matches_pinv_of_sigma_b(self, fs):
        # The oracle forms Sigma_B = Hbar Hbar^T / K, so its own relative error grows
        # as eps * cond(Hbar)^2: about 2e-10 at cond(Hbar) = 1e3, 4e-8 at 1.4e4.
        s = np.linalg.svd(centered_class_means(fs), compute_uv=False)
        rank = min(fs.H.shape[-2], fs.K - 1)
        assume(np.all(s[..., rank - 1] > 1e-3 * s[..., 0]))
        got, want = nc1(fs), reference_nc1(fs)
        assert np.shape(got) == np.shape(want)
        assert np.allclose(got, want, rtol=1e-8, atol=0.0)


class TestStatisticsCache:
    def test_statistics_cached_and_equal_to_class_statistics(self):
        fs = hand_feature_set()
        stats = fs.statistics
        assert fs.statistics is stats
        for cached, fresh in zip(stats, class_statistics(fs)):
            assert np.array_equal(cached, fresh)

    def test_from_state_takes_the_problem_labels(self):
        cfg = ProblemConfig(K=3, n=2, d=4)
        fs = FeatureSet.from_state(global_minimizer(cfg), cfg)
        assert np.array_equal(fs.labels, [0, 0, 1, 1, 2, 2])
        assert np.array_equal(fs.labels, cfg.labels)


class TestNC2:
    def test_closed_form_is_zero(self):
        cfg = ProblemConfig(K=4, n=3, d=6, delta=0.1)
        state = global_minimizer(cfg)
        fs = FeatureSet.from_state(state, cfg)
        assert nc2(state.W, fs) < 1e-10

    def test_scale_invariance(self):
        rng = np.random.default_rng(6)
        W = rng.standard_normal((4, 3))
        fs = FeatureSet(H=rng.standard_normal((4, 6)),
                        labels=np.repeat(np.arange(3), 2), K=3)
        assert nc2(7.0 * W, fs) == pytest.approx(nc2(W, fs), abs=1e-12)

    def test_direct_formula_oracle(self):
        rng = np.random.default_rng(7)
        K = 3
        W = rng.standard_normal((4, K))
        fs = FeatureSet(H=rng.standard_normal((4, 6)),
                        labels=np.repeat(np.arange(K), 2), K=K)
        Hbar = centered_class_means(fs)
        M = W.T @ Hbar
        etf = (np.eye(K) - np.ones((K, K)) / K) / np.sqrt(K - 1)
        expected = np.sqrt(((M / np.sqrt((M**2).sum()) - etf) ** 2).sum())
        assert nc2(W, fs) == pytest.approx(expected, rel=1e-12)

    def test_zero_product_rejected(self):
        fs = FeatureSet(H=np.zeros((3, 4)), labels=np.array([0, 0, 1, 1]), K=2)
        assert np.isnan(nc2(np.ones((3, 2)), fs))


class TestNC3:
    def test_proportional_is_zero(self):
        rng = np.random.default_rng(8)
        fs = FeatureSet(H=rng.standard_normal((4, 6)),
                        labels=np.repeat(np.arange(3), 2), K=3)
        W = 2.5 * centered_class_means(fs)
        assert nc3(W, fs) == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_is_two(self):
        rng = np.random.default_rng(9)
        fs = FeatureSet(H=rng.standard_normal((4, 6)),
                        labels=np.repeat(np.arange(3), 2), K=3)
        W = -centered_class_means(fs)
        assert nc3(W, fs) == pytest.approx(2.0, rel=1e-12)

    def test_direct_formula_oracle(self):
        rng = np.random.default_rng(10)
        fs = FeatureSet(H=rng.standard_normal((5, 8)),
                        labels=np.repeat(np.arange(4), 2), K=4)
        W = rng.standard_normal((5, 4))
        Hbar = centered_class_means(fs)
        expected = np.linalg.norm(W / np.linalg.norm(W) - Hbar / np.linalg.norm(Hbar))
        assert nc3(W, fs) == pytest.approx(expected, rel=1e-12)

    def test_zero_inputs_rejected(self):
        fs = FeatureSet(H=np.ones((3, 4)), labels=np.array([0, 0, 1, 1]), K=2)
        assert np.isnan(nc3(np.zeros((3, 2)), fs))


class TestNormSummary:
    def test_zero_classifier(self):
        fs = FeatureSet(H=np.ones((3, 4)), labels=np.array([0, 0, 1, 1]), K=2)
        w_norm, _ = norm_summary(np.zeros((3, 2)), fs)
        assert w_norm == 0.0

    def test_orthonormal_columns(self):
        fs = FeatureSet(H=np.ones((4, 4)), labels=np.array([0, 1, 2, 3]), K=4)
        w_norm, _ = norm_summary(np.eye(4), fs)
        assert w_norm == pytest.approx(1.0)

    def test_smaller_delta_larger_norm(self):
        cfg1 = ProblemConfig(K=3, n=2, d=4, delta=0.05)
        cfg2 = ProblemConfig(K=3, n=2, d=4, delta=0.3)
        n1 = norm_summary(global_minimizer(cfg1).W,
                          FeatureSet.from_state(global_minimizer(cfg1), cfg1))[0]
        n2 = norm_summary(global_minimizer(cfg2).W,
                          FeatureSet.from_state(global_minimizer(cfg2), cfg2))[0]
        assert n1 > n2


class TestClosedFormMetrics:
    def test_all_metrics_small_with_random_rotations(self):
        for seed in (1, 2, 3):
            cfg = ProblemConfig(K=4, n=2, d=7, delta=0.1)
            P = partial_orthogonal(cfg.d, cfg.K, seed=seed)
            state = global_minimizer(cfg, P)
            fs = FeatureSet.from_state(state, cfg)
            assert nc1(fs) < 1e-8
            assert nc2(state.W, fs) < 1e-8
            assert nc3(state.W, fs) < 1e-8

    def test_predicted_label_subsets_accepted(self):
        # labels may come from predictions rather than ground truth
        rng = np.random.default_rng(11)
        H = rng.standard_normal((3, 10))
        predicted = rng.integers(0, 2, size=10)
        predicted[:2] = [0, 1]  # both classes present
        fs = FeatureSet(H=H, labels=predicted, K=2)
        assert np.isfinite(nc1(fs))


class TestStack:
    def test_members_equal_their_single_set_values(self):
        # K=3, n=2, d=4 with integer features, so class means are exact.
        rng = np.random.default_rng(12)
        labels = np.repeat(np.arange(3), 2)
        H = rng.integers(-3, 4, size=(4, 4, 6)).astype(float)
        W = rng.standard_normal((4, 4, 3))
        H[1] = np.repeat(H[1][:, ::2], 2, axis=1)  # collapsed: Sigma_W = 0
        H[2, :, 1::2] = -H[2, :, ::2]  # every class mean 0: Sigma_B = 0
        W[3] = 0.0
        fs = FeatureSet(H=H, labels=labels, K=3)
        stacked = [nc1(fs), nc2(W, fs), nc3(W, fs), *norm_summary(W, fs)]
        for i in range(4):
            one = FeatureSet(H=H[i], labels=labels, K=3)
            single = [nc1(one), nc2(W[i], one), nc3(W[i], one), *norm_summary(W[i], one)]
            for got, want in zip(stacked, single):
                assert got.shape == (4,) and np.ndim(want) == 0
                assert np.array_equal(got[i], want, equal_nan=True)
        v1, v2, v3 = stacked[:3]
        assert v1[1] == 0.0 and v1[2] == NC1_UNDEFINED and np.all(np.isfinite(v1[[0, 3]]))
        # Hbar = 0 in member 2 and W = 0 in member 3 leave NC2 and NC3 undefined there only.
        assert np.array_equal(np.isnan(v2), [False, False, True, True])
        assert np.array_equal(np.isnan(v3), [False, False, True, True])
