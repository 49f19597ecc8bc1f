"""RUL estimation by time-lagged similarity matching of HI curves.

A truncated test instance's HI curve is slid along every run-to-failure
train curve over lags 1..tau. Each feasible (train, lag) pair yields a
candidate RUL (the train instance's remaining cycles past the aligned
segment) weighted by a Gaussian-kernel similarity of the aligned curves.
Candidates far below the best similarity are discarded; the survivors'
similarity-weighted mean, capped from above, is the estimate. Candidate
dispersion doubles as a confidence signal.

``candidate_estimates`` scores every (train, lag) pair of one test instance
in array passes, in two steps. ``pair_distances`` lays the library curves
end to end, takes each pair as a window of that flat array and gets every
d^2 from batched row-by-column products; ``select_candidates`` then applies
the lag bound tau, one ``exp`` and the alpha cut, and keeps the survivors
as arrays (``Survivors``) through ``estimate_rul``: ``RulCandidate`` tuples
are built only when someone reads them. Each product runs the
same dot kernel as the scalar ``curve_distance``, so candidate sets are
bitwise those of the pair-by-pair loop that ``curve_distance`` and
``similarity`` spell out. Pairs are gathered in blocks of at most
``_BLOCK_VALUES`` window values, so memory stays bounded however large the
library is. A sweep computes the pairs once per test curve at its largest
tau and runs only ``select_candidates`` per grid point; the pairs at a
smaller tau are a subset in the same order, with the same bits.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import RunConfig
from .health import HiCurve

# float64 window values gathered per block of pairs: 8 MiB
_BLOCK_VALUES = 1 << 20


class RulCandidate(NamedTuple):
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


@dataclass(frozen=True, eq=False)
class Survivors:
    """The surviving candidates of one test curve, as parallel arrays.

    ``len()`` is the survivor count; indexing and iteration build
    ``RulCandidate`` tuples (``str``, ``int``, ``float``, ``float``) on call.

    Attributes:
        owner: Index of each survivor's train instance in ``library``.
        lags, similarities, estimates: The ``RulCandidate`` fields.
        library: Item k starts with train instance k's id: the train set,
            or the candidate list itself for ``Survivors.of``.
        n_pairs: Feasible pairs with lag <= tau, before the alpha cut.
    """

    owner: np.ndarray
    lags: np.ndarray
    similarities: np.ndarray
    estimates: np.ndarray
    library: Sequence[tuple]
    n_pairs: int

    @classmethod
    def of(cls, candidates: Survivors | list[RulCandidate]) -> Survivors:
        """Survivors as they are, or a plain list as arrays, each one a pair."""
        if isinstance(candidates, Survivors):
            return candidates
        candidates = list(candidates)
        n = len(candidates)
        _, lags, sims, ests = zip(*candidates) if n else ((),) * 4
        floats = (np.array(col, dtype=np.float64) for col in (sims, ests))
        return cls(np.arange(n), np.array(lags, dtype=np.int64), *floats, candidates, n)

    def __len__(self) -> int:
        return len(self.lags)

    def __getitem__(self, k: int) -> RulCandidate:
        fields = (a[k].item() for a in (self.lags, self.similarities, self.estimates))
        return RulCandidate(self.library[self.owner[k]][0], *fields)

    def __iter__(self) -> Iterator[RulCandidate]:
        ids = [self.library[k][0] for k in self.owner.tolist()]
        columns = (a.tolist() for a in (self.lags, self.similarities, self.estimates))
        # tuple.__new__ builds each RulCandidate from its field tuple without
        # the Python-level NamedTuple constructor: about half the cost each
        return map(tuple.__new__, repeat(RulCandidate), zip(ids, *columns))


@dataclass(frozen=True, eq=False)
class RulEstimate:
    """Weighted RUL with the evidence behind it; compared by identity.

    Attributes:
        value: Final estimate, after capping (or the fallback).
        survivors: Surviving candidates the value was averaged over.
        std_dev: Population standard deviation of candidate estimates;
            NaN when the fallback fired.
        spread: Max minus min candidate estimate; NaN on fallback.
        capped: True when the cap lowered the weighted mean.
        fallback: True when no candidate survived and the length-based
            fallback supplied the value.
    """

    value: float
    survivors: Survivors
    std_dev: float = float("nan")
    spread: float = float("nan")
    capped: bool = False
    fallback: bool = False

    @property
    def candidates(self) -> list[RulCandidate]:
        """The survivors as tuples, built on each read; [] on fallback."""
        return list(self.survivors)

    @property
    def best_match(self) -> RulCandidate | None:
        """The most similar survivor (the first on ties); None on fallback."""
        sims = self.survivors.similarities
        return self.survivors[int(np.argmax(sims))] if sims.size else None

    @property
    def n_pairs(self) -> int:
        """Feasible (train, lag) pairs before the alpha cut."""
        return self.survivors.n_pairs


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


class Pairs(NamedTuple):
    """The feasible (train instance, lag) pairs of one test curve.

    Parallel arrays, one entry per pair, in the train set's own order and
    then ascending lag.

    Attributes:
        owner: Index of the pair's train instance in the train set.
        lags: Alignment offset t >= 1 into the train curve.
        d2: Squared curve distance, bitwise that of ``curve_distance``.
        estimates: Train cycles remaining past the aligned segment.
        tau: The largest lag enumerated.
    """

    owner: np.ndarray
    lags: np.ndarray
    d2: np.ndarray
    estimates: np.ndarray
    tau: int


def pair_distances(
    test: HiCurve, train_set: list[tuple[str, HiCurve]], tau: int
) -> Pairs:
    """Every (train instance, lag) pair with lag in 1..tau, with its d^2.

    A pair is feasible when the whole test curve fits inside the lag-shifted
    train curve. Each d^2 is bitwise that of ``curve_distance``, whichever
    other pairs are computed with it, so the pairs at a smaller tau are
    exactly this result's pairs with lag <= tau, in the same order.

    Raises:
        ValueError: On an empty test curve.
    """
    l_star = test.length
    if l_star == 0:
        raise ValueError("empty test curve")
    lengths = np.array([curve.length for _, curve in train_set], dtype=np.int64)
    n_lags = np.clip(np.minimum(tau, lengths - l_star), 0, None)
    n_pairs = int(n_lags.sum())
    # pair k belongs to train curve owner[k] at lag lags[k]; train-major, lag-minor
    owner = np.repeat(np.arange(len(train_set)), n_lags)
    lags = np.arange(n_pairs) - np.repeat(np.cumsum(n_lags) - n_lags, n_lags) + 1
    estimates = (lengths[owner] - l_star - lags).astype(np.float64)
    d2 = np.empty(n_pairs)
    if n_pairs:
        flat = np.concatenate([curve.values for _, curve in train_set])
        starts = np.cumsum(lengths) - lengths
        windows = sliding_window_view(flat, l_star)
        rows = starts[owner] + lags
        block = max(1, _BLOCK_VALUES // l_star)
        for lo in range(0, n_pairs, block):
            segments = windows[rows[lo : lo + block]]
            diff = np.subtract(test.values, segments, out=segments)
            # (1, L*) @ (L*, 1) per pair: the dot kernel of the 1-D diff @ diff
            d2[lo : lo + block] = (diff[:, None, :] @ diff[:, :, None])[:, 0, 0]
        d2 /= l_star
    return Pairs(owner, lags, d2, estimates, tau)


def select_candidates(
    pairs: Pairs, train_set: list[tuple[str, HiCurve]], config: RunConfig
) -> Survivors:
    """Weigh and filter the pairs of ``pair_distances`` into candidates.

    Only pairs with lag <= config.tau take part, so pairs enumerated once
    at a sweep's largest tau serve each of its smaller taus. The cutoff
    alpha * s_max is taken against the best similarity over those pairs;
    candidates whose similarity underflows to exactly zero are dropped as
    well, since they cannot carry weight. Each similarity is bitwise that
    of ``similarity``.

    Args:
        pairs: Output of pair_distances for the test curve.
        train_set: The train set the pairs were enumerated against.
        config: Run configuration; reads tau, lam and alpha.

    Returns:
        Surviving candidates in pair order; may be empty.

    Raises:
        ValueError: When config.tau exceeds the pairs' tau, or a pair's
            distance is NaN (a NaN in the test or a library curve), naming
            the first train instance it occurs against.
    """
    if config.tau > pairs.tau:
        raise ValueError(f"pairs enumerated to lag {pairs.tau}, tau is {config.tau}")
    owner, lags, d2, estimates, _ = pairs
    if config.tau < pairs.tau:
        within = np.flatnonzero(lags <= config.tau)
        owner, lags, d2, estimates = (a[within] for a in (owner, lags, d2, estimates))
    sims = np.exp(-d2 / config.lam)
    s_max = sims.max(initial=0.0)  # 0.0 when there is no pair
    if np.isnan(s_max):
        bad = train_set[owner[np.flatnonzero(np.isnan(sims))[0]]][0]
        raise ValueError(f"NaN curve distance against train instance {bad}")
    keep = np.flatnonzero((sims >= config.alpha * s_max) & (sims > 0.0))
    return Survivors(
        owner[keep], lags[keep], sims[keep], estimates[keep], train_set, d2.size
    )


def candidate_estimates(
    test: HiCurve,
    train_set: list[tuple[str, HiCurve]],
    config: RunConfig,
) -> Survivors:
    """Enumerate and filter candidate matches for one test instance.

    Every (train instance, lag) pair with lag in 1..tau and the whole test
    curve fitting inside the train curve produces a candidate; see
    ``pair_distances`` and ``select_candidates``, which this composes.
    Order is the train set's own order, then ascending lag, so reruns are
    bit-identical.

    Args:
        test: Truncated test instance's HI curve.
        train_set: (id, full run-to-failure curve) pairs.
        config: Run configuration; reads lam, tau and alpha.

    Returns:
        Surviving candidates; may be empty.

    Raises:
        ValueError: On an empty test curve, or when a curve distance is NaN
            (a NaN in the test or a library curve), naming the first train
            instance it occurs against.
    """
    pairs = pair_distances(test, train_set, config.tau)
    return select_candidates(pairs, train_set, config)


def estimate_rul(
    candidates: Survivors | list[RulCandidate],
    config: RunConfig,
    test_len: int,
    train_lengths: list[int],
) -> RulEstimate:
    """Similarity-weighted mean of the candidate estimates, capped at r_max.

    Both sums are ``cumsum`` passes, which add in candidate order one term
    at a time, so the mean is bitwise that of a loop over the candidates.
    With no surviving candidates (test longer than every train curve, or the
    similarity filter emptied the set), the fallback returns the largest
    length headroom any train instance offers, still capped, with dispersion
    fields set to NaN.

    Args:
        candidates: Output of candidate_estimates, or a plain list of
            candidates, which is converted to arrays first.
        config: Run configuration; reads r_max.
        test_len: Observed length of the test instance.
        train_lengths: Full lengths of all train instances, for the fallback.

    Returns:
        RulEstimate with value, dispersion, and flag fields filled in.
    """
    survivors = Survivors.of(candidates)
    if not survivors:
        headroom = max(
            (max(length - test_len, 0) for length in train_lengths), default=0
        )
        value = min(config.r_max, float(headroom))
        return RulEstimate(
            value, survivors, fallback=True, capped=headroom > config.r_max
        )
    sims, estimates = survivors.similarities, survivors.estimates
    value = float(np.cumsum(sims * estimates)[-1] / np.cumsum(sims)[-1])
    capped = value > config.r_max
    if capped:
        value = config.r_max
    return RulEstimate(
        value,
        survivors,
        std_dev=float(np.std(estimates)),
        spread=float(np.max(estimates) - np.min(estimates)),
        capped=capped,
    )
