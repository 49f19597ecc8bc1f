"""RUL estimation by time-lagged similarity matching of HI curves.

A truncated test instance's HI curve is slid along every run-to-failure
train curve over lags 1..tau. Each feasible (train, lag) pair yields a
candidate RUL (the train instance's remaining cycles past the aligned
segment) weighted by a Gaussian-kernel similarity of the aligned curves.
Candidates far below the best similarity are discarded; the survivors'
similarity-weighted mean, capped from above, is the estimate. Candidate
dispersion doubles as a confidence signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .health import HiCurve


@dataclass(frozen=True)
class RulCandidate:
    """One surviving (train instance, lag) match.

    Attributes:
        train_id: Identifier of the matched train instance.
        lag: Alignment offset t >= 1 into the train curve.
        similarity: exp(-d^2/lambda), in (0, 1] for survivors.
        estimate: Train cycles remaining past the aligned segment.
    """

    train_id: str
    lag: int
    similarity: float
    estimate: float


@dataclass(frozen=True)
class RulEstimate:
    """Weighted RUL with the evidence behind it.

    Attributes:
        value: Final estimate, after capping (or the fallback).
        candidates: Surviving candidates the value was averaged over.
        std_dev: Population standard deviation of candidate estimates;
            NaN when the fallback fired.
        spread: Max minus min candidate estimate; NaN on fallback.
        capped: True when the cap lowered the weighted mean.
        fallback: True when no candidate survived and the length-based
            fallback supplied the value.
    """

    value: float
    candidates: list[RulCandidate] = field(default_factory=list)
    std_dev: float = float("nan")
    spread: float = float("nan")
    capped: bool = False
    fallback: bool = False


def curve_distance(test: HiCurve, train: HiCurve, lag: int) -> float:
    """Mean squared gap between the test curve and a lag-shifted train segment.

    d^2 = (1/L*) * sum_i (test_i - train_{i+lag})^2 over the test curve's
    full length L*.

    Raises:
        ValueError: If lag < 1 or the shifted segment overruns the train curve.
    """
    l_star = test.length
    if lag < 1:
        raise ValueError(f"lag must be >= 1, got {lag}")
    if lag + l_star > train.length:
        raise ValueError(
            f"lag {lag} plus test length {l_star} exceeds train length {train.length}"
        )
    diff = test.values - train.values[lag : lag + l_star]
    return float(diff @ diff) / l_star


def similarity(d_squared: float, lam: float) -> float:
    """Gaussian-kernel similarity exp(-d^2/lambda)."""
    if d_squared < 0:
        raise ValueError("squared distance must be nonnegative")
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return float(np.exp(-d_squared / lam))


def candidate_estimates(
    test: HiCurve,
    train_set: list[tuple[str, HiCurve]],
    config: RunConfig,
) -> list[RulCandidate]:
    """Enumerate and filter candidate matches for one test instance.

    Every (train instance, lag) pair with lag in 1..tau and the whole test
    curve fitting inside the train curve produces a candidate. The cutoff
    alpha * s_max is taken against the best similarity over the full
    unfiltered set; candidates whose similarity underflows to exactly zero
    are dropped as well, since they cannot carry weight. Order is the train
    set's own order, then ascending lag, so reruns are bit-identical.

    Args:
        test: Truncated test instance's HI curve.
        train_set: (id, full run-to-failure curve) pairs.
        config: Run configuration; reads lam, tau and alpha.

    Returns:
        Surviving candidates; may be empty.

    Raises:
        ValueError: On an empty test curve.
    """
    if test.length == 0:
        raise ValueError("empty test curve")
    l_star = test.length
    raw: list[RulCandidate] = []
    for train_id, curve in train_set:
        max_lag = min(config.tau, curve.length - l_star)
        for lag in range(1, max_lag + 1):
            d2 = curve_distance(test, curve, lag)
            s = similarity(d2, config.lam)
            raw.append(
                RulCandidate(
                    train_id=train_id,
                    lag=lag,
                    similarity=s,
                    estimate=float(curve.length - l_star - lag),
                )
            )
    if not raw:
        return []
    s_max = max(c.similarity for c in raw)
    cutoff = config.alpha * s_max
    return [c for c in raw if c.similarity >= cutoff and c.similarity > 0.0]


def estimate_rul(
    candidates: list[RulCandidate],
    config: RunConfig,
    test_len: int,
    train_lengths: list[int],
) -> RulEstimate:
    """Similarity-weighted mean of the candidate estimates, capped at r_max.

    With no surviving candidates (test longer than every train curve, or the
    similarity filter emptied the set), the fallback returns the largest
    length headroom any train instance offers, still capped, with dispersion
    fields set to NaN.

    Args:
        candidates: Output of candidate_estimates.
        config: Run configuration; reads r_max.
        test_len: Observed length of the test instance.
        train_lengths: Full lengths of all train instances, for the fallback.

    Returns:
        RulEstimate with value, dispersion, and flag fields filled in.
    """
    if not candidates:
        headroom = max(
            (max(length - test_len, 0) for length in train_lengths), default=0
        )
        value = min(config.r_max, float(headroom))
        return RulEstimate(value=value, fallback=True, capped=headroom > config.r_max)
    num = 0.0
    den = 0.0
    for c in candidates:
        num += c.similarity * c.estimate
        den += c.similarity
    value = num / den
    estimates = np.array([c.estimate for c in candidates])
    capped = value > config.r_max
    if capped:
        value = config.r_max
    return RulEstimate(
        value=value,
        candidates=list(candidates),
        std_dev=float(np.std(estimates)),
        spread=float(np.max(estimates) - np.min(estimates)),
        capped=capped,
    )
