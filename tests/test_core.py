import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufmlab.config import ProblemConfig, one_hot_labels, smooth_labels
from ufmlab.core import ModelState, Workspace, loss_and_grad, softmax_cols
from helpers import (
    CONFIG_GRID,
    SATURATION_VALUE,
    fd_gradient,
    ls_equalization_gap,
    product_form_loss_and_grad,
    random_state,
    reference_loss_and_grad,
)


class TestSoftmax:
    def test_zero_column_is_uniform(self):
        out = softmax_cols(np.zeros((4, 1)))
        assert np.allclose(out, 0.25)

    def test_analytic_two_class(self):
        out = softmax_cols(np.array([[math.log(3.0)], [0.0]]))
        assert np.allclose(out[:, 0], [0.75, 0.25])

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=6),
           st.floats(-100, 100))
    @settings(max_examples=50)
    def test_shift_invariance(self, col, c):
        z = np.array(col)[:, None]
        assert np.allclose(softmax_cols(z + c), softmax_cols(z), atol=1e-12)

    def test_columns_sum_to_one_and_positive(self):
        rng = np.random.default_rng(0)
        out = softmax_cols(rng.standard_normal((5, 40)) * 10)
        assert np.allclose(out.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(out > 0)


class TestSmoothLabels:
    def test_zero_delta_identity(self):
        Y = one_hot_labels(3, 2)
        assert np.array_equal(smooth_labels(Y, 0.0), Y)

    def test_delta_one_uniform(self):
        Y = one_hot_labels(4, 1)
        assert np.allclose(smooth_labels(Y, 1.0), 0.25)

    def test_forced_entries(self):
        Y = one_hot_labels(4, 1)
        Yd = smooth_labels(Y, 0.2)
        assert np.allclose(np.sort(Yd[:, 0])[-1], 0.85)
        assert np.allclose(np.sort(Yd[:, 0])[:-1], 0.05)

    def test_columns_sum_to_one(self):
        Yd = smooth_labels(one_hot_labels(5, 3), 0.3)
        assert np.allclose(Yd.sum(axis=0), 1.0)


class TestLoss:
    def test_zero_state_gives_log_k(self):
        cfg = ProblemConfig(K=4, n=2, d=5, delta=0.1)
        state = ModelState(np.zeros((5, 4)), np.zeros((5, 8)), np.zeros(4))
        assert loss_and_grad(state, cfg)[0] == pytest.approx(math.log(4), abs=1e-12)

    def test_hand_computed_small_instance(self):
        cfg = ProblemConfig(K=2, n=1, d=2, delta=0.0,
                            lambda_w=0.01, lambda_h=0.02, lambda_b=0.03)
        W = np.array([[1.0, -0.5], [0.2, 0.3]])
        H = np.array([[0.4, -0.1], [-0.2, 0.6]])
        b = np.array([0.1, -0.2])
        state = ModelState(W, H, b)
        # scalar-by-scalar cross entropy, no matrix shortcuts
        total = 0.0
        for j, label in enumerate((0, 1)):
            z = [W[0, 0] * H[0, j] + W[1, 0] * H[1, j] + b[0],
                 W[0, 1] * H[0, j] + W[1, 1] * H[1, j] + b[1]]
            denom = math.exp(z[0]) + math.exp(z[1])
            total += -math.log(math.exp(z[label]) / denom)
        expected = total / 2
        expected += 0.005 * sum(W.ravel() ** 2) + 0.01 * sum(H.ravel() ** 2)
        expected += 0.015 * sum(b**2)
        assert loss_and_grad(state, cfg)[0] == pytest.approx(expected, rel=1e-12)

    def test_affine_in_target(self):
        # loss with smoothed targets = (1-delta) loss(one-hot) + delta loss(uniform)
        from helpers import phi_unregularized

        rng = np.random.default_rng(3)
        delta = 0.25
        base = dict(K=3, n=2, d=4, lambda_w=4e-3, lambda_h=6e-3, lambda_b=2e-3)
        cfg_d = ProblemConfig(delta=delta, **base)
        cfg_0 = ProblemConfig(delta=0.0, **base)
        for _ in range(10):
            state = random_state(cfg_d, rng)
            l_0 = loss_and_grad(state, cfg_0)[0]
            reg = l_0 - phi_unregularized(state, cfg_0)
            # uniform targets 1/K: the data term is the mean of -log softmax
            l_u = -np.log(softmax_cols(state.logits())).mean(axis=0).sum() / 6 + reg
            assert loss_and_grad(state, cfg_d)[0] == pytest.approx(
                (1 - delta) * l_0 + delta * l_u, abs=1e-12
            )


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        cfg = ProblemConfig(K=3, n=2, d=4, delta=0.1)
        state = random_state(cfg, rng)
        G_W, G_H, g_b = loss_and_grad(state, cfg)[1]
        analytic = np.concatenate([G_W.ravel(), G_H.ravel(), g_b])
        numeric = fd_gradient(cfg, state)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-6

    def test_zero_state_gradient_vanishes(self):
        # balanced classes make the uniform-prediction gradient cancel
        cfg = ProblemConfig(K=4, n=3, d=5, delta=0.2)
        state = ModelState(np.zeros((5, 4)), np.zeros((5, 12)), np.zeros(4))
        G_W, G_H, g_b = loss_and_grad(state, cfg)[1]
        assert np.allclose(G_W, 0) and np.allclose(G_H, 0)
        assert np.allclose(g_b, 0, atol=1e-15)

    def test_random_instances_property(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            K = int(rng.integers(2, 6))
            d = int(rng.integers(K, 7))
            n = int(rng.integers(1, 4))
            cfg = ProblemConfig(K=K, n=n, d=d, delta=float(rng.uniform(0, 0.5)))
            state = random_state(cfg, rng, scale=0.8)
            G_W, G_H, g_b = loss_and_grad(state, cfg)[1]
            analytic = np.concatenate([G_W.ravel(), G_H.ravel(), g_b])
            numeric = fd_gradient(cfg, state)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert rel < 1e-6


def stacked(states):
    """The states as one flat B x P array, the layout descent runs on."""
    return np.stack([s.ravel() for s in states])


class TestStackedKernel:
    def test_one_problem_matches_reference(self):
        rng = np.random.default_rng(3)
        for cfg in CONFIG_GRID[::7]:
            state = random_state(cfg, rng)
            loss, grads = loss_and_grad(state, cfg)
            ref_loss, ref_grads = reference_loss_and_grad(state, cfg)
            assert type(loss) is float and loss == ref_loss
            assert all(np.array_equal(g, r) for g, r in zip(grads, ref_grads))

    @pytest.mark.parametrize("logit_max", [None, 50.0])
    def test_within_rounding_of_the_product_form(self, logit_max):
        # The bound was fixed before the forms were compared.  Both forms add
        # the same nonnegative terms (at most K N + P of them) in different
        # orders, so their losses differ by at most 2 (K N + P + 8) eps L.  Each
        # dL/dZ entry rounds a few times, within 6 eps (p + y) / N, and each
        # gradient entry sums at most N + K products: c eps times the sum of the
        # magnitudes it adds, with c = 2 (N + K + 8).
        eps = np.finfo(float).eps
        rng = np.random.default_rng(6)
        cfgs = CONFIG_GRID + [replace(c, delta=0.98) for c in CONFIG_GRID[::4]]
        for cfg in cfgs:
            state = random_state(cfg, rng)
            if logit_max is not None:  # logits scaled so that the largest is logit_max
                f = logit_max / np.abs(state.logits()).max()
                state = ModelState(np.sqrt(f) * state.W, np.sqrt(f) * state.H, f * state.b)
            loss, grads = loss_and_grad(state, cfg)
            ref_loss, ref_grads = product_form_loss_and_grad(state, cfg)
            K, N = cfg.K, cfg.N
            P = cfg.d * (K + N) + K
            assert abs(loss - ref_loss) <= 2 * (K * N + P + 8) * eps * ref_loss
            M = (softmax_cols(state.logits()) + one_hot_labels(K, cfg.n)) / N
            W, H, b = np.abs(state.W), np.abs(state.H), np.abs(state.b)
            scales = (H @ M.T + cfg.lambda_w * W, W @ M + cfg.lambda_h * H,
                      M.sum(axis=1) + cfg.lambda_b * b)
            c = 2 * (N + K + 8)
            for g, ref, scale in zip(grads, ref_grads, scales):
                assert np.all(np.abs(g - ref) <= c * eps * scale)

    def test_each_member_equals_its_own_pass(self):
        rng = np.random.default_rng(4)
        cfgs = [ProblemConfig(K=4, n=3, d=6, delta=delta, lambda_w=lam, lambda_h=2 * lam,
                              lambda_b=lam / 2)
                for delta in (0.0, 0.1, 0.5) for lam in (1e-3, 5e-2)]
        states = [random_state(c, rng, scale=float(rng.uniform(0.1, 3))) for c in cfgs]
        ws = Workspace(cfgs)
        loss, grads = loss_and_grad(stacked(states), ws)
        assert loss.shape == (len(cfgs),) and grads[1].shape == (len(cfgs), 6, 12)
        for i, (state, cfg) in enumerate(zip(states, cfgs)):
            one_loss, one_grads = loss_and_grad(state, cfg)
            assert loss[i] == one_loss
            assert all(np.array_equal(g[i], r) for g, r in zip(grads, one_grads))

    def test_take_keeps_members_in_order(self):
        rng = np.random.default_rng(5)
        cfgs = [ProblemConfig(K=3, n=2, d=4, delta=delta) for delta in (0.0, 0.2, 0.4, 0.6)]
        states = [random_state(c, rng) for c in cfgs]
        ws = Workspace(cfgs)
        loss_and_grad(stacked(states), ws)
        keep = np.array([False, True, False, True])
        ws.take(keep)
        loss, grads = loss_and_grad(stacked([states[1], states[3]]), ws)
        for i, j in enumerate((1, 3)):
            one_loss, one_grads = loss_and_grad(states[j], cfgs[j])
            assert loss[i] == one_loss
            assert all(np.array_equal(g[i], r) for g, r in zip(grads, one_grads))

    def test_workspace_targets_follow_each_members_delta(self):
        # Classes run along axis 0 and members along axis 1: rows :K of a
        # member's weights are its targets over -N, row K is 1/N.
        cfgs = [ProblemConfig(K=3, n=2, d=4, delta=delta) for delta in (0.1, 0.2, 0.1)]
        weights = Workspace(cfgs).weights
        assert weights.shape == (4, 3, 6)
        for i, cfg in enumerate(cfgs):
            assert np.array_equal(weights[:3, i],
                                  -(smooth_labels(one_hot_labels(3, 2), cfg.delta) / 6))
            assert np.all(weights[3, i] == 1 / 6)
        assert weights[0, 1, 0] == pytest.approx(-(0.8 + 0.2 / 3) / 6)

    def test_blocks_are_views(self):
        # Each row is [W; b^T] (5 x 3) then [H; 1^T] (5 x 6), raveled.
        cfg = ProblemConfig(K=3, n=2, d=4)
        flat = np.zeros((2, 5 * 3 + 5 * 6))
        W, H, b = Workspace([cfg, cfg]).blocks(flat)
        W[1] += 1.0
        H[0] += 2.0
        b[1] += 3.0
        assert flat.sum() == 12 + 2 * 24 + 3 * 3
        assert np.all(flat[1, 12:15] == 3.0) and np.all(flat[0, 15:39] == 2.0)
        assert not flat[:, -6:].any()

    def test_blocks_read_back_a_raveled_state(self):
        rng = np.random.default_rng(8)
        cfg = ProblemConfig(K=4, n=3, d=5)
        state = random_state(cfg, rng)
        W, H, b = Workspace([cfg]).blocks(state.ravel()[None])
        assert all(np.array_equal(x[0], y) for x, y in zip((W, H, b), (state.W, state.H, state.b)))

    def test_the_ones_row_stays_exactly_one(self):
        # Heavy ball on a 3-member stack, one member leaving part way: the ones
        # row has lambda 0 and gradient 0, so it never moves off 1.
        rng = np.random.default_rng(9)
        cfgs = [ProblemConfig(K=3, n=2, d=4, delta=delta, lambda_b=1e-2)
                for delta in (0.0, 0.1, 0.3)]
        ws = Workspace(cfgs)
        flat = stacked([random_state(c, rng) for c in cfgs])
        vel = np.zeros_like(flat)
        for it in range(60):
            loss_and_grad(flat, ws)
            assert np.all(flat[:, -6:] == 1.0) and np.all(ws.G[:, -6:] == 0.0)
            assert ws.G[:, :-6].all()
            vel *= 0.9
            vel -= 0.5 * ws.G
            flat += vel
            if it == 30:
                keep = np.array([True, False, True])
                flat, vel = flat[keep], vel[keep]
                ws.take(keep)
        assert len(flat) == 2


class TestEqualizationGap:
    def test_equal_non_target_gives_zero(self):
        p = np.array([0.6, 0.2, 0.2])
        assert ls_equalization_gap(p, 0, 0.1) == pytest.approx(0.0, abs=1e-12)

    def test_unequal_non_target_positive(self):
        p = np.array([0.6, 0.3, 0.1])
        assert ls_equalization_gap(p, 0, 0.1) > 0

    def test_direct_evaluation_oracle(self):
        p = np.array([0.5, 0.3, 0.15, 0.05])
        delta, K, t = 0.2, 4, 1
        target = np.full(K, delta / K)
        target[t] += 1 - delta
        p_eq = np.full(K, (1 - p[t]) / (K - 1))
        p_eq[t] = p[t]
        expected = -(target * np.log(p)).sum() + (target * np.log(p_eq)).sum()
        assert ls_equalization_gap(p, t, delta) == pytest.approx(expected, rel=1e-12)

    def test_random_vectors_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            K = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(K))
            gap = ls_equalization_gap(p, int(rng.integers(K)), 0.3)
            assert gap >= -1e-12

    def test_tiny_non_target_mass_gives_zero(self):
        # 1 - p[target] rounds to 0 here; the equalized point must still equal p
        gap, flag = ls_equalization_gap(np.array([1.0, 1e-10, 1e-10]), 0, 0.1, with_flag=True)
        assert (gap, flag) == (0.0, False)

    def test_sparse_dirichlet_draws_nonnegative(self):
        # small concentrations give exact zeros and near-one targets
        rng = np.random.default_rng(11)
        for _ in range(20_000):
            K = int(rng.integers(2, 8))
            p = rng.dirichlet(np.full(K, rng.uniform(0.05, 3.0)))
            assert ls_equalization_gap(p, int(rng.integers(K)), 0.3) >= 0.0

    def test_zero_non_target_saturates_with_flag(self):
        p = np.array([0.7, 0.3, 0.0])
        gap, flag = ls_equalization_gap(p, 0, 0.1, with_flag=True)
        assert flag
        assert gap >= SATURATION_VALUE * 0.5

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ls_equalization_gap(np.array([0.5, 0.5]), 0, 0.0)
        with pytest.raises(ValueError):
            ls_equalization_gap(np.array([0.5, 0.4]), 0, 0.1)
