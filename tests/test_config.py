import math
import numpy as np
import pytest

from ufmlab.config import OptimizerConfig, ProblemConfig, one_hot_labels, smooth_labels
from ufmlab.closed_form import logit_scale


class TestProblemConfigLambdas:
    @pytest.mark.parametrize("name", ["lambda_w", "lambda_h", "lambda_b"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-3])
    def test_rejects_non_positive_or_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            ProblemConfig(K=3, n=2, d=4, **{name: value})

    def test_rejects_underflowing_lambda_z(self):
        # 1e-200 * 1e-200 underflows, which used to divide by zero in logit_scale; the
        # other pairs gave the minimizer infinite norms, a division by zero or a NaN L*.
        for (K, d, lambda_w, lambda_h), message in (
            ((3, 4, 1e-200, 1e-200), "lambda_w \\* lambda_h underflows to 0"),
            ((3, 4, 5e-324, 1e308), "n \\* lambda_h / lambda_w overflows"),
            ((3, 4, 1e308, 5e-324), "n \\* lambda_h / lambda_w underflows to 0"),
            ((4, 6, 8e281, 2e261), "lambda_w \\* lambda_h overflows"),
        ):
            with pytest.raises(ValueError, match=message):
                ProblemConfig(K=K, n=2, d=d, lambda_w=lambda_w, lambda_h=lambda_h)

    def test_tiny_lambdas_without_underflow_are_accepted(self):
        cfg = ProblemConfig(K=3, n=2, d=4, lambda_w=1e-150, lambda_h=1e-150)
        assert cfg.lambda_z > 0.0
        assert math.isfinite(logit_scale(cfg)) and logit_scale(cfg) > 0.0


class TestProblemConfigSizes:
    def test_rejects_d_less_than_k(self):
        with pytest.raises(ValueError, match=r"d must be >= K \(3\), got 2"):
            ProblemConfig(K=3, n=2, d=2)


class TestProblemConfigLabels:
    def test_class_major_layout(self):
        cfg = ProblemConfig(K=3, n=2, d=4, delta=0.3)
        # column k*n + i holds sample i of class k
        targets = smooth_labels(one_hot_labels(cfg.K, cfg.n), cfg.delta)
        assert np.array_equal(targets.argmax(axis=0), [0, 0, 1, 1, 2, 2])
        assert np.array_equal(targets.argmax(axis=0), np.repeat(np.arange(cfg.K), cfg.n))


class TestOptimizerConfigFinite:
    @pytest.mark.parametrize("name", ["learning_rate", "loss_tol", "init_scale"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            OptimizerConfig(**{name: value})


class TestOptimizerConfigSeed:
    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            OptimizerConfig(seed=-1)


class TestIntegerFields:
    @pytest.mark.parametrize("name, value", [
        ("K", 3.5), ("K", 3.0), ("n", True), ("n", "2"), ("d", np.float64(4.0)),
    ])
    def test_problem_rejects_non_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ProblemConfig(**{"K": 3, "n": 2, "d": 4, name: value})

    @pytest.mark.parametrize("name, value", [
        ("max_iters", 2.5), ("record_every", False), ("seed", 1.0), ("seed", None),
    ])
    def test_optimizer_rejects_non_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            OptimizerConfig(**{name: value})

    def test_numpy_integers_accepted(self):
        cfg = ProblemConfig(K=np.int64(3), n=np.int32(2), d=np.uint8(4))
        assert cfg.N == 6
        assert smooth_labels(one_hot_labels(cfg.K, cfg.n), cfg.delta).shape == (3, 6)
        opt = OptimizerConfig(max_iters=np.int64(10), record_every=np.int16(5),
                              seed=np.int64(1))
        assert opt.max_iters == 10
