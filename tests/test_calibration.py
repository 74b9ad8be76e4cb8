import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ufmlab import calibration
from ufmlab.calibration import (
    LogitDataset,
    calibration_report,
    ece,
    ece_from_bins,
    fit_temperature,
    nll,
    reliability_bins,
)
from ufmlab.core import softmax_cols


def brute_force_ece(logits: np.ndarray, labels: np.ndarray, bins: int) -> float:
    P = softmax_cols(logits)
    conf = P.max(axis=0)
    correct = P.argmax(axis=0) == labels
    total = 0.0
    for b in range(bins):
        lo, hi = b / bins, (b + 1) / bins
        if b == bins - 1:
            mask = (conf >= lo) & (conf <= hi)
        else:
            mask = (conf >= lo) & (conf < hi)
        if mask.sum() == 0:
            continue
        total += mask.sum() / len(labels) * abs(correct[mask].mean() - conf[mask].mean())
    return total


def random_logits(rng, K=4, M=200, sharpness=2.0):
    logits = sharpness * rng.standard_normal((K, M))
    return logits, rng.integers(0, K, size=M)


def random_dataset(rng, K=4, M=200, sharpness=2.0):
    return LogitDataset(*random_logits(rng, K, M, sharpness))


def owned(logits: np.ndarray, labels: np.ndarray) -> LogitDataset:
    """A dataset over a copy of logits: LogitDataset shifts the array it is given in place."""
    return LogitDataset(logits.copy(), labels)


class TestECE:
    def test_single_confident_correct_sample(self):
        ds = LogitDataset(np.array([[50.0], [-50.0]]), np.array([0]))
        assert ece(ds).ece == pytest.approx(0.0, abs=1e-10)

    def test_perfectly_calibrated_bins(self):
        # confidence equals accuracy inside each occupied bin
        logits = np.array([[math.log(3.0), math.log(3.0), math.log(3.0), math.log(3.0)],
                           [0.0, 0.0, 0.0, 0.0]])
        labels = np.array([0, 0, 0, 1])  # accuracy 0.75 = confidence
        ds = LogitDataset(logits, labels)
        assert ece(ds, bins=20).ece == pytest.approx(0.0, abs=1e-12)

    def test_hand_built_two_bins(self):
        # two samples at confidence 0.9 (one right), two at 0.6 (both right)
        def logit_pair(conf):
            return [math.log(conf / (1 - conf)), 0.0]

        logits = np.array([logit_pair(0.9), logit_pair(0.9),
                           logit_pair(0.6), logit_pair(0.6)]).T
        labels = np.array([0, 1, 0, 0])
        ds = LogitDataset(logits, labels)
        expected = 0.5 * abs(0.5 - 0.9) + 0.5 * abs(1.0 - 0.6)
        assert ece(ds, bins=10).ece == pytest.approx(expected, rel=1e-12)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            logits, labels = random_logits(rng)
            assert ece(owned(logits, labels), bins=20).ece == pytest.approx(
                brute_force_ece(logits, labels, 20), abs=1e-12
            )

    def test_depends_only_on_confidence_correctness(self):
        # reconstruct the value from (confidence, correct) pairs alone
        rng = np.random.default_rng(1)
        logits, labels = random_logits(rng, K=5, M=150)
        ds = owned(logits, labels)
        P = softmax_cols(logits)
        conf = P.max(axis=0)
        correct = P.argmax(axis=0) == labels
        bins = 20
        idx = np.minimum((conf * bins).astype(int), bins - 1)
        total = 0.0
        for b in range(bins):
            mask = idx == b
            if mask.sum():
                total += mask.sum() / ds.M * abs(correct[mask].mean() - conf[mask].mean())
        assert ece(ds, bins=bins).ece == pytest.approx(total, abs=1e-12)


class TestReliabilityBins:
    def test_counts_sum_to_m(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, M=123)
        bins = ece(ds, 20).bins
        assert sum(b.count for b in bins) == 123

    def test_uniform_confidence_single_bin(self):
        ds = LogitDataset(np.zeros((4, 10)), np.zeros(10, dtype=int))
        bins = ece(ds, 20).bins
        occupied = [b for b in bins if b.count > 0]
        assert len(occupied) == 1
        assert occupied[0].count == 10
        assert occupied[0].bin_lower <= 0.25 <= occupied[0].bin_upper

    def test_matches_per_sample_grouping(self):
        rng = np.random.default_rng(3)
        logits, labels = random_logits(rng)
        ds = owned(logits, labels)
        P = softmax_cols(logits)
        conf = P.max(axis=0)
        correct = P.argmax(axis=0) == labels
        for b in ece(ds, 10).bins:
            if b.bin_upper == 1.0:
                mask = (conf >= b.bin_lower) & (conf <= b.bin_upper)
            else:
                mask = (conf >= b.bin_lower) & (conf < b.bin_upper)
            assert b.count == mask.sum()
            if b.count:
                assert b.confidence == pytest.approx(conf[mask].mean(), rel=1e-12)
                assert b.accuracy == pytest.approx(correct[mask].mean(), rel=1e-12)

    def test_ece_recomputable_from_bins(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng)
        report = ece(ds, bins=15)
        assert report.ece == pytest.approx(ece_from_bins(report.bins, ds.M), abs=1e-15)


class TestTemperature:
    def test_rescaled_logits_rescale_t(self):
        # labels drawn from the model's own distribution keep T near 1,
        # well inside the search interval
        rng = np.random.default_rng(5)
        logits = 2.0 * rng.standard_normal((4, 300))
        P = softmax_cols(logits)
        labels = np.array([rng.choice(4, p=P[:, j]) for j in range(300)])
        ds = owned(logits, labels)
        T1, _, _ = fit_temperature(ds, nll(ds, 1.0))
        c = 2.5
        scaled = LogitDataset(c * logits, labels)
        T2, _, _ = fit_temperature(scaled, nll(scaled, 1.0))
        assert 0.05 < c * T1 < 20.0
        assert T2 == pytest.approx(c * T1, rel=1e-3)

    def test_fitted_beats_identity(self):
        rng = np.random.default_rng(6)
        ds = random_dataset(rng, sharpness=5.0)
        before = nll(ds, 1.0)
        T, after, flag = fit_temperature(ds, before)
        assert flag is None
        assert after <= before + 1e-12

    def test_matches_grid_search(self):
        rng = np.random.default_rng(7)
        ds = random_dataset(rng, sharpness=4.0)
        T, _, _ = fit_temperature(ds, nll(ds, 1.0))
        grid = np.exp(np.linspace(math.log(0.05), math.log(20.0), 2000))
        nlls = [nll(ds, t) for t in grid]
        T_grid = grid[int(np.argmin(nlls))]
        resolution = math.log(20.0 / 0.05) / 1999
        assert abs(math.log(T) - math.log(T_grid)) < 2 * resolution

    def test_degenerate_logits_flagged(self):
        ds = LogitDataset(np.ones((3, 5)), np.zeros(5, dtype=int))
        before = nll(ds, 1.0)
        T, after, flag = fit_temperature(ds, before)
        assert T == 1.0 and flag == "degenerate" and before == after

    def test_accuracy_preserved(self):
        rng = np.random.default_rng(8)
        logits, labels = random_logits(rng)
        ds = owned(logits, labels)
        T, _, _ = fit_temperature(ds, nll(ds, 1.0))
        pred_before = softmax_cols(logits).argmax(axis=0)
        pred_after = softmax_cols(logits / T).argmax(axis=0)
        assert np.array_equal(pred_before, pred_after)

    def test_ece_usually_improves(self):
        rng = np.random.default_rng(9)
        improved = 0
        trials = 20
        for _ in range(trials):
            logits, labels = random_logits(rng, K=3, M=400, sharpness=6.0)
            ds = owned(logits, labels)
            before = ece(ds, bins=15).ece
            T, _, _ = fit_temperature(ds, nll(ds, 1.0))
            after = ece(LogitDataset(logits / T, labels), bins=15).ece
            improved += after <= before + 1e-12
        assert improved >= 0.9 * trials


class TestEntropy:
    def test_uniform_is_log_k(self):
        ds = LogitDataset(np.zeros((5, 7)), np.zeros(7, dtype=int))
        assert ece(ds).mean_entropy == pytest.approx(math.log(5), abs=1e-12)

    def test_saturated_is_near_zero(self):
        logits = np.full((3, 4), -50.0)
        logits[0] = 50.0
        ds = LogitDataset(logits, np.zeros(4, dtype=int))
        assert ece(ds).mean_entropy == pytest.approx(0.0, abs=1e-10)

    def test_matches_per_sample_summation(self):
        rng = np.random.default_rng(10)
        logits, labels = random_logits(rng, K=3, M=20)
        ds = owned(logits, labels)
        P = softmax_cols(logits)
        expected = np.mean([-(P[:, j] * np.log(P[:, j])).sum() for j in range(20)])
        assert ece(ds).mean_entropy == pytest.approx(expected, rel=1e-12)


class TestReport:
    def test_full_report_with_holdout(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng, M=300, sharpness=4.0)
        report = calibration_report(ds, bins=20, fit_T=True, holdout_fraction=0.5)
        assert 0.0 <= report.ece <= 1.0
        assert report.temperature > 0
        assert sum(b.count for b in report.bins) == 300

    @pytest.mark.parametrize("sharpness", [4.0, 0.0])  # fitted, and degenerate logits
    def test_no_holdout_reuses_the_fits_nlls(self, monkeypatch, sharpness):
        ds = random_dataset(np.random.default_rng(12), M=300, sharpness=sharpness)
        calls = []
        monkeypatch.setattr(calibration, "nll", lambda *a: calls.append(a) or nll(*a))
        before = nll(ds, 1.0)
        T, after, flag = fit_temperature(ds, before)
        fit_calls = len(calls)
        report = calibration_report(ds, bins=20, fit_T=True)
        assert len(calls) == 2 * fit_calls
        assert (report.temperature, report.temperature_flag) == (T, flag)
        assert report.nll_before == before == nll(ds, 1.0)
        assert report.nll_after == after == nll(ds, T)

    @pytest.mark.parametrize("holdout", [0.0, 0.2])
    def test_nll_at_one_comes_from_the_ece_pass(self, monkeypatch, holdout):
        ds = random_dataset(np.random.default_rng(13), M=300, sharpness=4.0)
        calls = []
        monkeypatch.setattr(calibration, "nll", lambda *a: calls.append((a[0].M, a[1])) or nll(*a))
        report = calibration_report(ds, bins=20, fit_T=True, holdout_fraction=holdout, seed=1)
        assert (ds.M, 1.0) not in calls
        assert report.nll_before == nll(ds, 1.0)
        assert calibration_report(ds, bins=20).nll_before is None


@st.composite
def logit_arrays(draw):
    """(logits, labels): K in [2, 12], M in [1, 300], logits within +-700 (rounded half
    the time, for ties)."""
    K, M = draw(st.integers(2, 12)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = draw(st.floats(0.0, 700.0)) * rng.uniform(-1.0, 1.0, (K, M))
    if draw(st.booleans()):
        logits = np.round(logits)
    return logits, rng.integers(0, K, M)


def per_sample_softmax(z: np.ndarray) -> list[float]:
    m = max(z)
    e = [math.exp(x - m) for x in z]
    s = math.fsum(e)
    return [x / s for x in e]


def old_reliability_bins(conf, correct, bins):
    """The mask-per-bin loop that reliability_bins replaced: (count, mean confidence, accuracy)."""
    idx = np.minimum((conf * bins).astype(int), bins - 1)
    out = []
    for b in range(bins):
        mask = idx == b
        count = int(mask.sum())
        out.append((count, float(conf[mask].mean()) if count else 0.0,
                    float(correct[mask].mean()) if count else 0.0))
    return out


class TestShiftedKernels:
    @given(logit_arrays(), st.floats(0.05, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_nll_matches_per_sample_log_sum_exp(self, data, T):
        logits, labels = data
        ds = owned(logits, labels)
        terms = []
        for z, y in zip(logits.T / T, labels):
            m = max(z)
            terms.append(m + math.log(math.fsum(math.exp(x - m) for x in z)) - z[y])
        assert nll(ds, T) == pytest.approx(math.fsum(terms) / ds.M, rel=1e-9, abs=1e-12)

    @given(logit_arrays(), st.integers(1, 30))
    # The reference confidence is 0.4999999999999999, one ulp below ece's 0.5.
    @example((np.array([[0.0], [0.0], [-36.5], [-36.5]]), np.array([0])), 2)
    @settings(max_examples=60, deadline=None)
    def test_ece_matches_per_sample_softmax(self, data, bins):
        logits, labels = data
        ds = owned(logits, labels)
        conf, correct, entropy = [], [], []
        for z, y in zip(logits.T, labels):
            p = per_sample_softmax(z)
            conf.append(max(p))
            correct.append(max(range(len(z)), key=lambda k: z[k]) == y)
            entropy.append(-math.fsum(q * math.log(q) for q in p if q > 0.0))
        report = ece(ds, bins)
        assert report.accuracy == sum(correct) / ds.M
        # exp(S / 1.0) is exp(S): the NLL at T = 1 from ece's pass is nll's bit for bit.
        assert report.nll_before == nll(ds, 1.0)
        assert report.mean_entropy == pytest.approx(math.fsum(entropy) / ds.M,
                                                    rel=1e-9, abs=1e-12)
        # A confidence within the tolerance tol of an inner bin edge may land on
        # either side of it; every other one has exactly one bin.
        tol = 1e-12
        options = [{min(int(c * f * bins), bins - 1) for f in (1 - tol, 1, 1 + tol)}
                   for c in conf]
        assert sum(got.count for got in report.bins) == ds.M
        for b, got in enumerate(report.bins):
            sure = [c for c, o in zip(conf, options) if o == {b}]
            maybe = sorted(c for c, o in zip(conf, options) if b in o and len(o) > 1)
            k = got.count - len(sure)
            assert 0 <= k <= len(maybe)
            if got.count:
                # the k members drawn from maybe are at least its k smallest, at most its k largest
                low = math.fsum(sure + maybe[:k]) / got.count
                high = math.fsum(sure + maybe[len(maybe) - k:]) / got.count
                assert low * (1 - tol) <= got.confidence <= high * (1 + tol)

    @given(st.integers(1, 300).flatmap(lambda M: st.tuples(
               arrays(float, M, elements=st.floats(0.0, 1.0)), arrays(bool, M))),
           st.integers(1, 30))
    @settings(max_examples=100, deadline=None)
    def test_reliability_bins_match_mask_loop(self, data, bins):
        conf, correct = data
        got = reliability_bins(conf, correct, bins)
        for b, (want, bin_) in enumerate(zip(old_reliability_bins(conf, correct, bins), got)):
            assert (bin_.bin_lower, bin_.bin_upper) == (b / bins, (b + 1) / bins)
            assert bin_.count == want[0] and bin_.accuracy == want[2]
            assert bin_.confidence == pytest.approx(want[1], rel=1e-12)
        assert len(got) == bins


# Columns whose maxima tie: repeated, +0.0 against -0.0, constant, at K = 2 and M = 1.
# A label on a later copy of its column's max is a wrong prediction: argmax takes the first.
TIED_LOGITS = [
    ([[1.0, 3.0, 2.0, -4.0, 7.0],
      [3.0, 3.0, 0.0, -4.0, 7.0],
      [3.0, 1.0, 2.0, -5.0, 7.0]], [1, 0, 2, 1, 2]),
    ([[-0.0, 0.0, -0.0, -1.0],
      [0.0, -0.0, -0.0, 0.0],
      [-1.0, -3.0, -0.0, -0.0]], [1, 0, 2, 1]),
    (np.full((3, 4), 2.5), [0, 1, 2, 0]),
    ([[1.0, 2.0, 2.0, -0.0], [2.0, 1.0, 2.0, 0.0]], [0, 0, 1, 0]),
    ([[0.5], [0.5], [0.1]], [1]),
]


class TestPrediction:
    @staticmethod
    def check_matches_argmax(logits, labels, bins):
        logits, labels = np.array(logits, dtype=float), np.array(labels)
        reference = logits.copy()  # LogitDataset shifts logits in place
        correct = reference.argmax(axis=0) == labels
        report = ece(LogitDataset(logits, labels), bins)
        conf = 1.0 / np.exp(reference - reference.max(axis=0)).sum(axis=0)
        assert report.accuracy == correct.mean()
        assert [b.accuracy for b in report.bins] == [
            b.accuracy for b in reliability_bins(conf, correct, bins)]

    @pytest.mark.parametrize("logits, labels", TIED_LOGITS)
    @pytest.mark.parametrize("bins", [1, 3, 20])
    def test_tied_maxima_predict_the_first(self, logits, labels, bins):
        self.check_matches_argmax(logits, labels, bins)

    @given(st.integers(2, 5).flatmap(lambda K: st.integers(1, 40).flatmap(lambda M: st.tuples(
               arrays(float, (K, M), elements=st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0])),
               arrays(int, M, elements=st.integers(0, K - 1))))),
           st.integers(1, 10))
    @settings(max_examples=100, deadline=None)
    def test_few_values_predict_as_argmax(self, data, bins):
        self.check_matches_argmax(*data, bins)


class TestMemory:
    def test_a_report_holds_one_copy_of_the_logits(self):
        rng = np.random.default_rng(14)
        logits, labels = random_logits(rng, K=10, M=20_000)
        tracemalloc.start()
        try:
            ds = LogitDataset(logits, labels)
            calibration_report(ds, bins=20, fit_T=True, holdout_fraction=0.2, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the matrix was allocated before tracing; each exp pass adds one K x M scratch
        assert peak <= 2.0 * logits.nbytes
        assert ds.shifted is logits
