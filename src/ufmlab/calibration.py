"""Calibration analysis over externally supplied (logits, labels).

Expected calibration error with equal-width confidence bins, reliability
bin statistics, temperature scaling fitted by negative log-likelihood,
and average prediction entropy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import log_softmax_cols, softmax_cols

T_SEARCH_LOG_BOUNDS = (math.log(0.05), math.log(20.0))
T_SEARCH_TOL = 1e-4


@dataclass
class LogitDataset:
    """Logit columns (K x M) with 0-based true labels."""

    logits: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.logits = np.asarray(self.logits, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.logits.ndim != 2 or self.logits.shape[1] < 1:
            raise ValueError("logits must be a K x M matrix with M >= 1")
        if self.labels.shape != (self.logits.shape[1],):
            raise ValueError("labels must have one entry per logit column")
        K = self.logits.shape[0]
        if np.any(self.labels < 0) or np.any(self.labels >= K):
            raise ValueError(f"labels must lie in [0, {K})")

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
    if bins < 1:
        raise ValueError("bins must be >= 1")
    idx = np.minimum((conf * bins).astype(int), bins - 1)
    out = []
    for b in range(bins):
        mask = idx == b
        count = int(mask.sum())
        out.append(
            Bin(
                lower=b / bins,
                upper=(b + 1) / bins,
                mean_confidence=float(conf[mask].mean()) if count else 0.0,
                accuracy=float(correct[mask].mean()) if count else 0.0,
                count=count,
            )
        )
    return out


def _entropy(P: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(P > 0.0, P * np.log(P), 0.0)
    return float(-terms.sum(axis=0).mean())


def ece_from_bins(bins: list[Bin], M: int) -> float:
    return float(
        sum(b.count / M * abs(b.accuracy - b.mean_confidence) for b in bins)
    )


def ece(ds: LogitDataset, bins: int = 20) -> CalibrationReport:
    """Expected calibration error report (no temperature fitting)."""
    P = softmax_cols(ds.logits)  # one pass for the bins, the accuracy and the entropy
    correct = P.argmax(axis=0) == ds.labels
    bin_list = reliability_bins(P.max(axis=0), correct, bins)
    return CalibrationReport(
        ece=ece_from_bins(bin_list, ds.M),
        bins=bin_list,
        mean_entropy=_entropy(P),
        accuracy=float(correct.mean()),
    )


def nll(ds: LogitDataset, T: float = 1.0) -> float:
    """Mean negative log-likelihood of softmax(logits / T)."""
    logp = log_softmax_cols(ds.logits / T)
    return float(-logp[ds.labels, np.arange(ds.M)].mean())


def fit_temperature(ds: LogitDataset):
    """Golden-section search for the NLL-minimizing temperature.

    Returns (T, nll_before, nll_after, flag); flag is set when the logits
    carry no information (all columns constant), in which case T = 1.
    """
    nll_before = nll(ds, 1.0)
    spread = ds.logits - ds.logits.mean(axis=0, keepdims=True)
    if np.abs(spread).max() < 1e-12:
        return 1.0, nll_before, nll_before, "degenerate"

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
        return 1.0, nll_before, nll_before, "no_improvement"
    return T, nll_before, nll_after, None


def calibration_report(
    ds: LogitDataset,
    bins: int = 20,
    fit_T: bool = False,
    holdout_fraction: float = 0.0,
    seed: int = 0,
) -> CalibrationReport:
    """Full report; optionally fits T (on a held-out split if requested)."""
    report = ece(ds, bins)
    if fit_T:
        if holdout_fraction > 0.0:
            rng = np.random.default_rng(seed)
            m_fit = max(1, int(round(holdout_fraction * ds.M)))
            idx = rng.permutation(ds.M)
            fit_ds = LogitDataset(ds.logits[:, idx[:m_fit]], ds.labels[idx[:m_fit]])
        else:
            fit_ds = ds
        T, before, after, flag = fit_temperature(fit_ds)
        report.temperature = T
        report.nll_before = nll(ds, 1.0)
        report.nll_after = nll(ds, T)
        report.temperature_flag = flag
    return report
