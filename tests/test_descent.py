import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest

from ufmlab import closed_form, config, core, descent, nc_metrics
from ufmlab.config import OptimizerConfig, ProblemConfig
from ufmlab.closed_form import global_minimizer, mean_logit_matrix
from ufmlab.descent import (
    DivergenceError,
    convergence_race,
    delta_sweep,
    init_state,
    mean_logit_distance,
    run,
    run_stack,
)

from helpers import CONFIG_GRID, balancedness_step, iterations_to_epsilon, reference_losses


REF_CFG = ProblemConfig(K=3, n=2, d=4, delta=0.1, lambda_w=5e-3, lambda_h=5e-3)
REF_OPT = OptimizerConfig(learning_rate=0.5, momentum=0.9, max_iters=50_000,
                          loss_tol=1e-11, record_every=500, seed=0)
# Degenerate (a = 0): the minimizer is the origin, where a zero init starts.
AT_OPTIMUM = replace(REF_CFG, delta=0.98), replace(REF_OPT, init_scale=0.0)


class TestInitState:
    def test_seed_determinism(self):
        s1 = init_state(REF_CFG, REF_OPT)
        s2 = init_state(REF_CFG, REF_OPT)
        assert np.array_equal(s1.W, s2.W)
        assert np.array_equal(s1.H, s2.H)
        assert np.array_equal(s1.b, s2.b)

    def test_zero_scale_zero_state(self):
        opt = replace(REF_OPT, init_scale=0.0)
        s = init_state(REF_CFG, opt)
        assert np.all(s.W == 0) and np.all(s.H == 0) and np.all(s.b == 0)

    def test_shapes(self):
        cfg = ProblemConfig(K=3, n=2, d=4)
        s = init_state(cfg, REF_OPT)
        assert s.W.shape == (4, 3) and s.H.shape == (4, 6) and s.b.shape == (3,)


class TestRun:
    def test_start_at_optimum_terminates_immediately(self):
        traj = run(*AT_OPTIMUM)
        assert traj.converged
        assert traj.rows[-1].iter == 0

    def test_reference_config_converges_to_collapse(self):
        traj = run(REF_CFG, REF_OPT)
        last = traj.rows[-1]
        assert traj.converged
        assert last.loss - traj.optimal_value < 1e-6
        assert last.nc1 < 1e-6
        assert last.nc2 < 1e-4
        assert last.nc3 < 1e-4

    def test_final_mean_logits_match_closed_form(self):
        traj = run(REF_CFG, REF_OPT)
        assert mean_logit_distance(traj.final_state, REF_CFG) < 1e-4

    def test_bit_identical_trajectories(self):
        t1 = run(REF_CFG, replace(REF_OPT, max_iters=200, loss_tol=1e-12))
        t2 = run(REF_CFG, replace(REF_OPT, max_iters=200, loss_tol=1e-12))
        assert np.array_equal(t1.loss_history, t2.loss_history)

    def test_plain_gd_monotone_tail(self):
        opt = OptimizerConfig(learning_rate=1.0, momentum=0.0, max_iters=3000,
                              loss_tol=1e-14, record_every=100, seed=2)
        traj = run(REF_CFG, opt, compute_metrics=False)
        tail = traj.loss_history[len(traj.loss_history) // 10 :]
        assert np.all(np.diff(tail) <= 1e-12)

    def test_divergence_guard(self):
        opt = OptimizerConfig(learning_rate=1e4, momentum=0.9, max_iters=5000,
                              loss_tol=1e-12, record_every=100, seed=0, init_scale=5.0)
        with pytest.raises(DivergenceError):
            run(ProblemConfig(K=3, n=2, d=4, delta=0.0), opt, compute_metrics=False)

    def test_convergence_basin(self):
        # at least 9 of 10 seeds reach a 1e-6 loss gap
        hits = 0
        for seed in range(10):
            opt = replace(REF_OPT, seed=seed, loss_tol=1e-6)
            traj = run(REF_CFG, opt, compute_metrics=False)
            hits += traj.converged
        assert hits >= 9


    @pytest.mark.parametrize("compute_metrics", [True, False])
    def test_one_loss_and_grad_pass_per_iteration(self, monkeypatch, compute_metrics):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        # core's own binding catches gradient_norm and any other gradient use
        monkeypatch.setattr(descent, "loss_and_grad", counted(core.loss_and_grad))
        monkeypatch.setattr(core, "loss_and_grad", counted(core.loss_and_grad))
        opt = replace(REF_OPT, loss_tol=1e-8, record_every=7)
        traj = run(REF_CFG, opt, compute_metrics=compute_metrics)
        assert traj.converged and len(traj.rows) > 2
        assert calls == ["loss_and_grad"] * (traj.rows[-1].iter + 1)

    def test_targets_built_once_per_problem(self, monkeypatch):
        builder = config.one_hot_labels
        calls = []

        def counted(K, n):
            calls.append((K, n))
            return builder(K, n)

        for mod in (config, core, closed_form, descent, nc_metrics):
            if getattr(mod, "one_hot_labels", None) is builder:
                monkeypatch.setattr(mod, "one_hot_labels", counted)
        # The README config, built here so that nothing is cached on it yet.
        cfg = ProblemConfig(K=3, n=2, d=4, delta=0.1)
        traj = run(cfg, replace(REF_OPT, loss_tol=1e-7))
        assert traj.converged and traj.rows[-1].iter > 100
        # A descent run builds the labels once, for the targets.
        assert 1 <= len(calls) <= 2

    def test_no_minimizer_or_loss_pass_for_optimal_value(self, monkeypatch):
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        # The only loss pass is the one per iteration that
        # test_one_loss_and_grad_pass_per_iteration counts.
        assert not hasattr(descent, "global_minimizer")
        monkeypatch.setattr(closed_form, "global_minimizer", counted(closed_form.global_minimizer))
        # The README config.
        cfg = ProblemConfig(K=3, n=2, d=4, delta=0.1)
        traj = run(cfg, replace(REF_OPT, loss_tol=1e-7))
        assert traj.converged
        assert traj.optimal_value == closed_form.optimal_loss(cfg)
        assert calls == []

    def test_one_class_statistics_pass_per_record_step(self, monkeypatch):
        original = nc_metrics.class_means
        stack_sizes = []

        def counted(H, K):
            stack_sizes.append(len(H))
            return original(H, K)

        monkeypatch.setattr(nc_metrics, "class_means", counted)
        cfgs = [replace(REF_CFG, delta=delta) for delta in (0.0, 0.1, 0.3)]
        trajs = list(run_stack(cfgs, replace(REF_OPT, loss_tol=1e-7, record_every=7), [0, 1, 2]))
        stops = [t.rows[-1].iter for t in trajs]
        steps = sorted({row.iter for t in trajs for row in t.rows})
        # One call per record step, over the members that record a row there.
        assert stack_sizes == [sum(it in {row.iter for row in t.rows} for t in trajs)
                               for it in steps]
        assert len(set(stops)) == 3 and stack_sizes[0] == 3
        for t in trajs:
            assert np.all(np.isfinite([astuple(row) for row in t.rows]))


def assert_same_trajectory(got, want):
    assert np.array_equal(got.loss_history, want.loss_history)
    assert got.optimal_value == want.optimal_value and got.converged == want.converged
    assert len(got.rows) == len(want.rows)
    for a, b in zip(got.rows, want.rows):
        assert np.array_equal(astuple(a), astuple(b), equal_nan=True)
    for name in ("W", "H", "b"):
        assert np.array_equal(getattr(got.final_state, name), getattr(want.final_state, name))


class TestRunStack:
    # delta x seed x lambda; delta = 0.98 is degenerate (a = 0), and at lambda
    # 5e-3 it stops at max_iters.
    GRID = [(replace(REF_CFG, delta=delta, lambda_w=lam, lambda_h=lam), replace(REF_OPT, seed=seed))
            for delta in (0.0, 0.1, 0.98) for seed in (0, 1) for lam in (5e-3, 1e-2)]
    OPT = replace(REF_OPT, loss_tol=1e-7, max_iters=400, record_every=7)

    @pytest.mark.parametrize("compute_metrics", [True, False])
    def test_members_equal_their_own_runs(self, compute_metrics):
        cfgs = [c for c, _ in self.GRID]
        opts = [replace(self.OPT, seed=o.seed) for _, o in self.GRID]
        seeds = [o.seed for o in opts]
        trajs = list(run_stack(cfgs, self.OPT, seeds, compute_metrics=compute_metrics))
        assert len(cfgs) * descent.member_bytes(cfgs[0]) <= descent.STACK_BYTES  # one stack
        stops = [t.rows[-1].iter for t in trajs]
        # Members leave from the middle of the stack, not only from its end,
        # some stop off the record grid, and the degenerate ones hit max_iters.
        assert stops != sorted(stops, reverse=True)
        assert any(it % self.OPT.record_every for it in stops)
        assert [t.converged for t in trajs] == [(c.delta, c.lambda_w) != (0.98, 5e-3) for c in cfgs]
        for cfg, opt, traj in zip(cfgs, opts, trajs):
            assert_same_trajectory(traj, run(cfg, opt, compute_metrics=compute_metrics))

    @pytest.mark.parametrize("cfg", [REF_CFG, ProblemConfig(K=10, n=5, d=12, delta=0.3),
                                     ProblemConfig(K=4, n=3, d=5, delta=0.0, lambda_b=1e-2)])
    def test_run_matches_the_reference_loop(self, cfg):
        opt = replace(REF_OPT, loss_tol=1e-6, max_iters=2000)
        traj = run(cfg, opt, compute_metrics=False)
        assert traj.converged
        assert np.array_equal(traj.loss_history, reference_losses(cfg, opt, init_state(cfg, opt)))

    def test_sweep_makes_one_pass_per_iteration_of_its_longest_member(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(len(args[0]))
            return core.loss_and_grad(*args)

        monkeypatch.setattr(descent, "loss_and_grad", counted)
        rows = delta_sweep(REF_CFG, [0.0, 0.1, 0.3], replace(REF_OPT, loss_tol=1e-7))
        iters = [r.iters_to_eps for r in rows]
        assert len(set(iters)) == 3
        assert len(calls) == max(iters) + 1 < sum(i + 1 for i in iters)
        # The stack shrinks as members converge.
        assert calls[0] == 3 and calls[-1] == 1

    def test_builds_only_the_rows_it_keeps(self, monkeypatch):
        # Paper scale: every member stops between record steps, one at a time.
        original, built = descent._stack_rows, []

        def counted(*args):
            rows = original(*args)
            built.append(len(rows))
            return rows

        monkeypatch.setattr(descent, "_stack_rows", counted)
        cfg = ProblemConfig(K=10, n=5, d=12)
        cfgs = [replace(cfg, delta=delta) for delta in (0.0, 0.05, 0.1, 0.2, 0.3)]
        opt = replace(REF_OPT, loss_tol=1e-7)
        trajs = list(run_stack(cfgs, opt, [0] * 5))
        assert all(t.converged and t.rows[-1].iter % opt.record_every for t in trajs)
        # One row at iteration 0 and one at its stop for each member.
        assert built == [5, 1, 1, 1, 1, 1]
        assert sum(built) == sum(len(t.rows) for t in trajs) == 10
        for c, traj in zip(cfgs, trajs):
            assert_same_trajectory(traj, run(c, opt))

    def test_iterations_allocate_no_k_by_n_array(self, monkeypatch):
        # Mid rung: 200 iterations after a warm-up, no record step among them.
        cfg = ProblemConfig(K=10, n=100, d=64, delta=0.1)
        opt = replace(REF_OPT, loss_tol=1e-300, max_iters=300, record_every=1000)
        start, window, seen = 20, 200, {}

        def traced(flat, ws):
            calls = seen["calls"] = seen.get("calls", 0) + 1
            if calls == start:
                tracemalloc.reset_peak()
                seen["base"] = tracemalloc.get_traced_memory()[0]
            elif calls == start + window:
                seen["peak"] = tracemalloc.get_traced_memory()[1]
            return core.loss_and_grad(flat, ws)

        monkeypatch.setattr(descent, "loss_and_grad", traced)
        tracemalloc.start()
        try:
            traj = next(run_stack([cfg], opt, [0], compute_metrics=False))
        finally:
            tracemalloc.stop()
        assert traj.rows[-1].iter == opt.max_iters
        assert seen["peak"] - seen["base"] < cfg.K * cfg.N * 8

    @pytest.mark.parametrize("K, n, d", [(10, 5, 12), (10, 100, 64), (100, 20, 128)])
    def test_member_bytes_is_what_a_member_allocates(self, K, n, d):
        # The arrays of a one-member stack, as run_stack builds them, after one pass;
        # the untraced first build keeps one-off allocations out of the count.
        cfg = ProblemConfig(K=K, n=n, d=d, delta=0.1)

        def build():
            ws = core.Workspace([cfg])
            flat = np.stack([init_state(cfg, REF_OPT).ravel()])
            vel = np.zeros_like(flat)
            core.loss_and_grad(flat, ws)
            return ws, flat, vel

        build()
        tracemalloc.start()
        try:
            arrays = build()  # alive while the traced memory is read
            traced = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del arrays
        assert 0 <= traced - descent.member_bytes(cfg) <= 16_000

    def test_diverging_member_is_named(self):
        # lr * lambda far above the heavy-ball stability bound 2 (1 + momentum).
        bad = replace(REF_CFG, delta=0.3, lambda_w=20.0, lambda_h=20.0)
        opt = replace(REF_OPT, seed=3)
        with pytest.raises(DivergenceError) as stacked:
            list(run_stack([REF_CFG, bad], opt, [3, 3]))
        with pytest.raises(DivergenceError) as alone:
            run(bad, opt)
        assert str(stacked.value) == str(alone.value)
        assert "delta 0.3" in str(alone.value) and "seed 3" in str(alone.value)
        assert "iteration" in str(alone.value) and "iteration 0:" not in str(alone.value)
        assert [astuple(r) for r in stacked.value.rows] == [astuple(r) for r in alone.value.rows]

    def test_empty_stack(self):
        assert list(run_stack([], REF_OPT, [])) == []
        assert delta_sweep(REF_CFG, [], REF_OPT) == []

    def test_members_beyond_the_byte_budget_run_in_successive_stacks(self, monkeypatch):
        cfgs = [c for c, _ in self.GRID]
        seeds = [o.seed for _, o in self.GRID]
        whole = list(run_stack(cfgs, self.OPT, seeds))
        monkeypatch.setattr(descent, "STACK_BYTES", 5 * descent.member_bytes(cfgs[0]))
        widths = []

        def counted(flat, ws):
            widths.append(len(flat))
            return core.loss_and_grad(flat, ws)

        monkeypatch.setattr(descent, "loss_and_grad", counted)
        for got, want in zip(run_stack(cfgs, self.OPT, seeds), whole):
            assert_same_trajectory(got, want)
        assert widths[0] == max(widths) == 5


class TestBalancednessLaw:
    @pytest.mark.parametrize("cfg", [
        ProblemConfig(K=10, n=5, d=12, delta=0.1),
        ProblemConfig(K=3, n=2, d=4, delta=0.1, lambda_w=2e-3, lambda_h=5e-4, lambda_b=1e-2),
        ProblemConfig(K=100, n=20, d=128, delta=0.1),
        ProblemConfig(K=100, n=20, d=128, delta=0.1, lambda_w=1e-3, lambda_h=5e-3,
                      lambda_b=2e-3),
    ], ids=lambda c: f"K{c.K}-lam{c.lambda_w},{c.lambda_h},{c.lambda_b}")
    def test_plain_step_obeys_the_law(self, cfg):
        # The states after t and t + 1 steps come from two runs; at momentum 0
        # step t + 1 depends on the state after t alone.
        opt = replace(REF_OPT, momentum=0.0, loss_tol=1e-300, record_every=10**9)
        t = 5
        before = run(cfg, replace(opt, max_iters=t), compute_metrics=False)
        after = run(cfg, replace(opt, max_iters=t + 1), compute_metrics=False)
        assert np.array_equal(after.loss_history[: t + 1], before.loss_history)
        W, H = after.final_state.W, after.final_state.H
        WW, HH = W @ W.T, H @ H.T
        rhs = balancedness_step(before.final_state, cfg, opt.learning_rate)
        assert np.linalg.norm(WW - HH - rhs) <= 1e-14 * (np.linalg.norm(WW) + np.linalg.norm(HH))


class TestRace:
    def test_label_smoothing_converges_faster(self):
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
        assert wins >= 9

    def test_seeds_start_at_optimizer_seed(self):
        opt = replace(REF_OPT, loss_tol=1e-6, seed=5)
        rows = convergence_race(REF_CFG, opt)
        assert [r.seed for r in rows] == list(range(5, 15))
        for r in rows:
            ce = run(replace(REF_CFG, delta=0.0), replace(opt, seed=r.seed),
                     compute_metrics=False)
            gap = ce.loss_history - ce.optimal_value
            assert r.iters_ce == iterations_to_epsilon(ce, 1e-4 * gap[0])
            assert r.smoothing_won == (r.iters_ls is not None and
                                       (r.iters_ce is None or r.iters_ls < r.iters_ce))


class TestDeltaSweep:
    def test_monotone_columns_and_boundary_flag(self):
        cfg = ProblemConfig(K=3, n=2, d=4, lambda_w=5e-3, lambda_h=5e-3)
        opt = replace(REF_OPT, loss_tol=1e-6, max_iters=20_000)
        rows = delta_sweep(cfg, [0.0, 0.05, 0.1, 0.3, 0.98], opt)
        a_vals = [r.a_delta for r in rows]
        w_vals = [r.w_norm for r in rows]
        assert all(x >= y for x, y in zip(a_vals, a_vals[1:]))
        assert all(x >= y for x, y in zip(w_vals, w_vals[1:]))
        interior = [r for r in rows if not r.degenerate]
        kappas = [r.kappa_h for r in interior]
        assert all(x > y for x, y in zip(kappas, kappas[1:]))
        boundary = rows[-1]
        assert boundary.degenerate
        assert boundary.a_delta == 0.0 and boundary.w_norm == 0.0
        assert np.isnan(boundary.kappa_h)

    def test_iters_to_eps_is_the_runs_own_stop(self):
        cfg = ProblemConfig(K=3, n=2, d=4, lambda_w=5e-3, lambda_h=5e-3)
        opt = replace(REF_OPT, loss_tol=1e-7, max_iters=300, record_every=100)
        # delta = 0.1 converges; the degenerate delta = 0.98 stops at max_iters.
        rows = delta_sweep(cfg, [0.1, 0.98], opt)
        assert rows[0].iters_to_eps is not None and rows[1].iters_to_eps is None
        for row in rows:
            traj = run(replace(cfg, delta=row.delta), opt)
            assert traj.converged == (row.iters_to_eps is not None)
            assert row.iters_to_eps == iterations_to_epsilon(traj, opt.loss_tol)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            delta_sweep(REF_CFG, [1.5], REF_OPT)

    def test_w_norm_matches_minimizer(self):
        opt = replace(REF_OPT, max_iters=1)
        for cfg in CONFIG_GRID:
            (row,) = delta_sweep(cfg, [cfg.delta], opt)
            expected = np.linalg.norm(global_minimizer(cfg).W)
            assert abs(row.w_norm - expected) <= 1e-13 * expected
