"""Calibration analysis over externally supplied (logits, labels).

Expected calibration error with equal-width confidence bins, reliability
bin statistics, temperature scaling fitted by negative log-likelihood,
and average prediction entropy, all from the logits shifted once by their
column maxima (LogitDataset.shifted): no pass builds a probability matrix.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

T_SEARCH_LOG_BOUNDS = (math.log(0.05), math.log(20.0))
T_SEARCH_TOL = 1e-4


@dataclass
class LogitDataset:
    """Finite float logit columns (K x M, M >= 1) with their 0-based integer labels
    in [0, K), as cmd_calibrate checks them; shifted is S = logits minus each
    column's max (S <= 0, a 0 in each column), shifted_at_label is S[y_j, j]."""

    logits: np.ndarray
    labels: np.ndarray
    shifted: np.ndarray = field(init=False, repr=False)
    shifted_at_label: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.shifted = self.logits - self.logits.max(axis=0)
        self.shifted_at_label = self.shifted[self.labels, np.arange(self.M)]

    def subset(self, idx: np.ndarray) -> LogitDataset:
        """The columns idx; a column's max is its own, so their shift is gathered, not redone."""
        sub = copy.copy(self)
        sub.logits, sub.labels, sub.shifted, sub.shifted_at_label = (
            a[..., idx] for a in (self.logits, self.labels, self.shifted, self.shifted_at_label))
        return sub

    @property
    def M(self) -> int:
        return self.logits.shape[1]


@dataclass
class Bin:
    lower: float
    upper: float
    mean_confidence: float
    accuracy: float
    count: int


@dataclass
class CalibrationReport:
    ece: float
    bins: list[Bin]
    temperature: float | None = None
    nll_before: float | None = None
    nll_after: float | None = None
    mean_entropy: float | None = None
    temperature_flag: str | None = None
    accuracy: float | None = None


def reliability_bins(conf: np.ndarray, correct: np.ndarray, bins: int) -> list[Bin]:
    """Equal-width confidence bins on [0, 1]; last bin closed above."""
    idx = np.minimum((conf * bins).astype(int), bins - 1)
    counts, conf_sums, correct_sums = (np.bincount(idx, weights=w, minlength=bins)
                                       for w in (None, conf, correct))
    return [Bin(lower=b / bins, upper=(b + 1) / bins,
                mean_confidence=float(c / n) if n else 0.0,
                accuracy=float(a / n) if n else 0.0, count=int(n))
            for b, (n, c, a) in enumerate(zip(counts, conf_sums, correct_sums))]


def ece_from_bins(bins: list[Bin], M: int) -> float:
    return float(
        sum(b.count / M * abs(b.accuracy - b.mean_confidence) for b in bins)
    )


def ece(ds: LogitDataset, bins: int = 20) -> CalibrationReport:
    """Expected calibration error report (no temperature fitting).

    With E = exp(S) and s its column sums, p = E / s: the top class has
    S = 0, so the confidence is 1 / s, the entropy is log s - sum(E S) / s,
    and the NLL at T = 1 (nll_before) is mean(log s) - mean(S_y).
    """
    # argmax over axis 0 copies the logits; done first, the copy is freed before E exists.
    correct = ds.logits.argmax(axis=0) == ds.labels
    E = np.exp(ds.shifted)
    s = E.sum(axis=0)
    bin_list = reliability_bins(1.0 / s, correct, bins)
    E *= ds.shifted
    log_s = np.log(s)
    return CalibrationReport(
        ece=ece_from_bins(bin_list, ds.M),
        bins=bin_list,
        nll_before=float(log_s.mean() - ds.shifted_at_label.mean()),
        mean_entropy=float(np.mean(log_s - E.sum(axis=0) / s)),
        accuracy=float(correct.mean()),
    )


def nll(ds: LogitDataset, T: float = 1.0) -> float:
    """Mean NLL of softmax(logits / T): mean_j log sum_k exp(S_kj / T) - mean(S_y) / T."""
    E = np.divide(ds.shifted, T)
    s = np.exp(E, out=E).sum(axis=0)
    return float(np.log(s).mean() - ds.shifted_at_label.mean() / T)


def fit_temperature(ds: LogitDataset, nll_before: float):
    """Golden-section search for the NLL-minimizing temperature.

    nll_before is nll(ds, 1.0), which ece's pass over ds already gives.
    Returns (T, nll_after, flag); flag is set when the logits
    carry no information (all columns constant), in which case T = 1.
    """
    if ds.shifted.min() > -1e-12:  # every logit within 1e-12 of its column's max
        return 1.0, nll_before, "degenerate"

    lo, hi = T_SEARCH_LOG_BOUNDS
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = nll(ds, math.exp(c))
    fd = nll(ds, math.exp(d))
    while b - a > T_SEARCH_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = nll(ds, math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = nll(ds, math.exp(d))
    T = math.exp(0.5 * (a + b))
    nll_after = nll(ds, T)
    if nll_after > nll_before:  # boundary cases: keep the no-op temperature
        return 1.0, nll_before, "no_improvement"
    return T, nll_after, None


def calibration_report(
    ds: LogitDataset,
    bins: int = 20,
    fit_T: bool = False,
    holdout_fraction: float = 0.0,
    seed: int = 0,
) -> CalibrationReport:
    """Full report; optionally fits T (on a held-out split if requested)."""
    report = ece(ds, bins)
    if not fit_T:
        report.nll_before = None  # reported next to a fitted temperature only
        return report
    if holdout_fraction > 0.0:
        rng = np.random.default_rng(seed)
        m_fit = max(1, int(round(holdout_fraction * ds.M)))
        fit = ds.subset(rng.permutation(ds.M)[:m_fit])
        T, _, flag = fit_temperature(fit, nll(fit, 1.0))
        after = nll(ds, T)
    else:  # the fit's own NLLs are on ds already
        T, after, flag = fit_temperature(ds, report.nll_before)
    report.temperature = T
    report.nll_after = after
    report.temperature_flag = flag
    return report
