"""Evaluation metrics for RUL predictions.

All metrics are driven by the per-instance error delta = predicted - actual.
The timeliness score penalizes late predictions (delta > 0) more steeply
than early ones via two decay constants; accuracy counts predictions inside
the closed window [-tau1, tau2]; false positives and negatives are the two
ways of leaving that window. The three outcomes partition every record set,
so A + FPR + FNR is 100 by construction.

An ``EvalRecord`` checks itself on construction, so every record a metric
sees is valid: a NaN estimate or a non-finite true RUL would fall in
neither tail and count as accurate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EvalRecord:
    """One test instance's prediction vs. truth, validated on construction.

    Attributes:
        predicted: Estimated RUL, not NaN.
        actual: True RUL at truncation, finite and >= 0.
        observed_len: Cycles observed before truncation, >= 1.
    """

    predicted: float
    actual: float
    observed_len: int

    @property
    def delta(self) -> float:
        return self.predicted - self.actual

    def __post_init__(self) -> None:
        if math.isnan(self.predicted):
            raise ValueError("predicted RUL must not be NaN")
        if not (math.isfinite(self.actual) and self.actual >= 0):
            raise ValueError(f"actual RUL must be finite and >= 0, got {self.actual}")
        if not self.observed_len >= 1:
            raise ValueError(
                f"observed length must be >= 1, got {self.observed_len}"
            )


@dataclass(frozen=True)
class MetricsReport:
    """Full metric set for one evaluation run."""

    s: float
    a: float
    mae: float
    mse: float
    mape1: float
    mape2: float
    fpr: float
    fnr: float
    tau1: float
    tau2: float
    n: int

    def as_table(self) -> str:
        mape1 = "undefined" if math.isnan(self.mape1) else f"{self.mape1:.4f}"
        rows = [
            ("S", f"{self.s:.4f}"),
            ("A (%)", f"{self.a:.2f}"),
            ("MAE", f"{self.mae:.4f}"),
            ("MSE", f"{self.mse:.4f}"),
            ("MAPE1 (%)", mape1),
            ("MAPE2 (%)", f"{self.mape2:.4f}"),
            ("FPR (%)", f"{self.fpr:.2f}"),
            ("FNR (%)", f"{self.fnr:.2f}"),
        ]
        width = max(len(name) for name, _ in rows)
        lines = [f"{name:<{width}}  {value}" for name, value in rows]
        header = f"metrics over {self.n} instances (tau1={self.tau1:g}, tau2={self.tau2:g})"
        return "\n".join([header] + lines)


def _check(records: list[EvalRecord], tau1: float, tau2: float) -> None:
    if not (tau1 > 0 and tau2 > 0):  # a NaN bound fails too: no delta lies outside it
        raise ValueError(f"tau1 and tau2 must be > 0, got {tau1}, {tau2}")
    if not records:
        raise ValueError("no evaluation records")


@np.errstate(over="ignore")
def timeliness(records: list[EvalRecord], tau1: float, tau2: float) -> float:
    """Asymmetric exponential score: sum of exp(|delta|/tau)-1 per record.

    Early predictions (delta < 0) decay with tau1, late and exact ones with
    tau2; a delta of zero contributes nothing either way. A term too large
    for a float (such as a delta of 1e6) makes the score inf, without a
    warning.
    """
    _check(records, tau1, tau2)
    total = 0.0
    for r in records:
        gamma = 1.0 / tau1 if r.delta < 0 else 1.0 / tau2
        total += float(np.exp(gamma * abs(r.delta))) - 1.0
    return total


def outcome_counts(
    records: list[EvalRecord], tau1: float, tau2: float
) -> tuple[int, int, int]:
    """Partition records into (accurate, false positive, false negative) counts.

    Accurate: delta in the closed interval [-tau1, tau2]. False positive:
    delta < -tau1 (too early). False negative: delta > tau2 (too late).
    The three counts always sum to the record count.
    """
    _check(records, tau1, tau2)
    acc = fp = fn = 0
    for r in records:
        if r.delta < -tau1:
            fp += 1
        elif r.delta > tau2:
            fn += 1
        else:
            acc += 1
    return acc, fp, fn


def full_report(
    records: list[EvalRecord], tau1: float = 13.0, tau2: float = 10.0
) -> MetricsReport:
    """All metrics in one report; defaults penalize lateness over earliness.

    A is the percentage of records inside [-tau1, tau2], FPR and FNR the
    percentages too early and too late. MAPE1 divides each absolute error
    by the true RUL, MAPE2 by the true total life (RUL plus observed
    length). MAPE1 is undefined when any true RUL is 0; it is then NaN, and
    the table shows it as ``undefined``, while every other metric is
    reported.
    """
    s = timeliness(records, tau1, tau2)
    acc, fp, fn = outcome_counts(records, tau1, tau2)
    n = len(records)
    mae = mse = mape1 = mape2 = 0.0
    for r in records:
        d = abs(r.delta)
        mae += d
        mse += d * d
        mape1 += d / r.actual if r.actual > 0 else math.nan
        mape2 += d / (r.actual + r.observed_len)
    return MetricsReport(
        s=s,
        a=100.0 * acc / n,
        mae=mae / n,
        mse=mse / n,
        mape1=100.0 * mape1 / n,
        mape2=100.0 * mape2 / n,
        fpr=100.0 * fp / n,
        fnr=100.0 * fn / n,
        tau1=tau1,
        tau2=tau2,
        n=n,
    )
