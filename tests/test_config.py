import math

import pytest

from ufmlab.config import ProblemConfig
from ufmlab.closed_form import logit_scale


class TestProblemConfigLambdas:
    @pytest.mark.parametrize("name", ["lambda_w", "lambda_h", "lambda_b"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-3])
    def test_rejects_non_positive_or_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            ProblemConfig(K=3, n=2, d=4, **{name: value})

    def test_rejects_underflowing_lambda_z(self):
        # 1e-200 * 1e-200 underflows, which used to divide by zero in logit_scale
        with pytest.raises(ValueError, match="lambda_w \\* lambda_h underflows"):
            ProblemConfig(K=3, n=2, d=4, lambda_w=1e-200, lambda_h=1e-200)

    def test_tiny_lambdas_without_underflow_are_accepted(self):
        cfg = ProblemConfig(K=3, n=2, d=4, lambda_w=1e-150, lambda_h=1e-150)
        assert cfg.lambda_z > 0.0
        assert math.isfinite(logit_scale(cfg)) and logit_scale(cfg) > 0.0
