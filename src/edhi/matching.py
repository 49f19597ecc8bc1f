"""RUL estimation by time-lagged similarity matching of HI curves.

A truncated test instance's HI curve is slid along every run-to-failure
train curve over lags 1..tau. Each feasible (train, lag) pair yields a
candidate RUL (the train instance's remaining cycles past the aligned
segment) weighted by a Gaussian-kernel similarity of the aligned curves.
Candidates far below the best similarity are discarded; the survivors'
similarity-weighted mean, capped from above, is the estimate. Candidate
dispersion doubles as a confidence signal.

The train curves form a ``Library``, laid out once per pipeline: every
curve end to end in one read-only array, with each curve's start and
length. The matching functions take that library and lay nothing out.
``candidate_estimates`` scores every (train, lag) pair of one test
instance in array passes, in three steps. ``pair_distances`` finds the
feasible pairs with one comparison of lags against each curve's headroom,
takes each pair as a window of a strided view of the library's flat
array, subtracts the window from the test row and gets every d^2 from
batched row-by-column products. ``weigh_pairs`` applies one ``exp`` at
lambda to every pair it is given and finds the best similarity. ``alpha_cut``
returns the indices of the pairs at or above alpha times it, and
``Candidates.take`` keeps them. Each subtraction takes the operands the
scalar ``curve_distance`` takes and each product runs its dot kernel, so
candidate sets are bitwise those of the pair-by-pair loop that
``curve_distance`` and ``similarity`` spell out. Pairs are gathered in
blocks of at most ``_BLOCK_VALUES`` window values and subtracted from a
block of test rows filled once per call, so memory stays bounded however
large the library is.

One record, ``Candidates``, holds both the weighed pairs and the survivors
taken from them, as parallel arrays with the best similarity and the
pair count before the cut. It stays arrays through ``estimate_rul``:
``RulCandidate`` tuples are built, and the dispersion computed, only when
someone reads them. ``estimate_rul`` wraps ``weighted_rul``, the weighted
mean, cap and fallback on survivor arrays. ``pairs_within`` cuts pairs
found at one tau to a smaller one: a subset in the same order, with the
same bits as ``pair_distances`` at the smaller tau.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .config import RunConfig
from .health import HiCurve

# float64 window values gathered per block of pairs: 256 KiB. With the test
# rows the block is subtracted from, 512 KiB stay in a core's L2 cache from
# the gather through the products. On score_fd001's curves (2-vCPU host)
# 2^14 and 2^16 values per block both took longer
_BLOCK_VALUES = 1 << 15


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
class Library:
    """The matching library: train ids and full HI curves, laid out once.

    Built once per pipeline (``of``), so that scoring a test curve reads the
    layout instead of rebuilding it. Iterating yields the (train id, curve)
    pairs in library order. Compared by identity.

    Attributes:
        ids: Train instance ids, in library order.
        curves: The train curves; each one's values are a view into ``flat``.
        lengths: Curve lengths, int64.
        flat: All curve values end to end, read-only.
        starts: Offset of each curve in ``flat``.
    """

    ids: tuple[str, ...]
    curves: tuple[HiCurve, ...]
    lengths: np.ndarray
    flat: np.ndarray
    starts: np.ndarray

    @classmethod
    def of(cls, pairs: Sequence[tuple[str, HiCurve]]) -> Library:
        """(id, curve) pairs laid out end to end."""
        ids, curves = zip(*pairs) if pairs else ((), ())
        lengths = np.array([curve.length for curve in curves], dtype=np.int64)
        flat = np.concatenate([c.values for c in curves]) if curves else np.empty(0)
        flat.flags.writeable = False
        starts = np.cumsum(lengths) - lengths
        views = tuple(
            HiCurve(values=flat[start : start + n])
            for start, n in zip(starts.tolist(), lengths.tolist())
        )
        return cls(tuple(ids), views, lengths, flat, starts)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[tuple[str, HiCurve]]:
        return zip(self.ids, self.curves)


@dataclass(frozen=True, eq=False)
class Candidates:
    """The candidates of one test curve as parallel arrays: every weighed
    pair within tau, or the survivors of an alpha cut. Compared by identity.

    ``len()`` is the candidate count; indexing and iteration build
    ``RulCandidate`` tuples (``str``, ``int``, ``float``, ``float``) on call.

    Attributes:
        owner: Index of each candidate's train id in ``ids``.
        lags, similarities, estimates: The ``RulCandidate`` fields;
            similarities are bitwise those of ``similarity``.
        ids: The train ids that ``owner`` indexes: the library's ids, or
            each candidate's own id for ``Candidates.of``.
        s_max: The best similarity of the pairs before any cut; 0.0 when
            there is no pair.
        n_pairs: Feasible pairs with lag <= tau, before the alpha cut.
    """

    owner: np.ndarray
    lags: np.ndarray
    similarities: np.ndarray
    estimates: np.ndarray
    ids: tuple[str, ...]
    s_max: float
    n_pairs: int

    @classmethod
    def of(cls, candidates: Candidates | list[RulCandidate]) -> Candidates:
        """Candidates as they are, or a plain list as arrays, each one a pair."""
        if isinstance(candidates, Candidates):
            return candidates
        candidates = list(candidates)
        n = len(candidates)
        ids, lags, sims, ests = zip(*candidates) if n else ((),) * 4
        lags = np.array(lags, dtype=np.int64)
        sims, ests = (np.array(col, dtype=np.float64) for col in (sims, ests))
        return cls(np.arange(n), lags, sims, ests, ids, float(sims.max(initial=0.0)), n)

    def take(self, keep: np.ndarray) -> Candidates:
        """The candidates at indices ``keep``, with this record's ``s_max``
        and ``n_pairs``."""
        return Candidates(
            self.owner[keep],
            self.lags[keep],
            self.similarities[keep],
            self.estimates[keep],
            self.ids,
            self.s_max,
            self.n_pairs,
        )

    def __len__(self) -> int:
        return len(self.lags)

    def __getitem__(self, k: int) -> RulCandidate:
        fields = (a[k].item() for a in (self.lags, self.similarities, self.estimates))
        return RulCandidate(self.ids[self.owner[k]], *fields)

    def __iter__(self) -> Iterator[RulCandidate]:
        ids = map(self.ids.__getitem__, self.owner.tolist())
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
        capped: True when the cap lowered the weighted mean.
        fallback: True when no candidate survived and the length-based
            fallback supplied the value.
    """

    value: float
    survivors: Candidates
    capped: bool = False
    fallback: bool = False

    @property
    def std_dev(self) -> float:
        """Population standard deviation of the survivors' estimates; NaN
        on fallback."""
        estimates = self.survivors.estimates
        return float(np.std(estimates)) if estimates.size else float("nan")

    @property
    def spread(self) -> float:
        """Max minus min survivor estimate; NaN on fallback."""
        estimates = self.survivors.estimates
        if not estimates.size:
            return float("nan")
        return float(np.max(estimates) - np.min(estimates))

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

    Parallel arrays, one entry per pair, in the library's own order and
    then ascending lag.

    Attributes:
        owner: Index of the pair's train instance in the library.
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


def pair_distances(test: HiCurve, library: Library, tau: int) -> Pairs:
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
    spans = library.lengths - l_star  # the largest lag each train curve fits
    t = min(tau, max(0, int(spans.max(initial=0))))
    # pair k belongs to train curve owner[k] at lag lags[k]; train-major, lag-minor
    owner, lags = np.nonzero(np.arange(1, t + 1) <= spans[:, None])
    lags += 1
    n_pairs = lags.size
    estimates = (spans[owner] - lags).astype(np.float64)
    d2 = np.empty(n_pairs)
    if n_pairs:
        flat = library.flat
        windows = as_strided(
            flat, (flat.size - l_star + 1, l_star), 2 * flat.strides, writeable=False
        )
        rows = library.starts[owner] + lags
        block = min(max(1, _BLOCK_VALUES // l_star), n_pairs)
        # the test row repeated once per block row: a same-shape subtraction
        # runs at about half the cost of a broadcast one, with the same bits
        test_rows = np.empty((block, l_star))
        test_rows[...] = test.values
        for lo in range(0, n_pairs, block):
            diff = windows[rows[lo : lo + block]]  # a gathered copy
            np.subtract(test_rows[: diff.shape[0]], diff, out=diff)
            # (1, L*) @ (L*, 1) per pair: the dot kernel of the 1-D diff @ diff
            out = d2[lo : lo + block, None, None]
            np.matmul(diff[:, None, :], diff[:, :, None], out=out)
        d2 /= l_star
    return Pairs(owner, lags, d2, estimates, tau)


def pairs_within(pairs: Pairs, tau: int) -> Pairs:
    """The pairs with lag <= tau, in pair order: bitwise what
    ``pair_distances`` returns at tau. The pairs themselves when tau is
    their own.

    Raises:
        ValueError: When tau exceeds the pairs' tau.
    """
    if tau > pairs.tau:
        raise ValueError(f"pairs enumerated to lag {pairs.tau}, tau is {tau}")
    if tau == pairs.tau:
        return pairs
    within = np.flatnonzero(pairs.lags <= tau)
    owner, lags, d2, estimates = (a[within] for a in pairs[:4])
    return Pairs(owner, lags, d2, estimates, tau)


def weigh_pairs(pairs: Pairs, library: Library, lam: float) -> Candidates:
    """Every one of the pairs, weighed at lam; one weighing serves every alpha.

    Returns:
        The pairs in pair order, with ``s_max`` their best similarity and
        ``n_pairs`` their count.

    Raises:
        ValueError: When a pair's distance is NaN (a NaN in the test or a
            library curve), naming the first train instance it occurs
            against.
    """
    owner, lags, d2, estimates, _ = pairs
    # d2 / -lam has the bits of -d2 / lam: IEEE division is sign-symmetric
    sims = d2 / -lam
    np.exp(sims, out=sims)
    s_max = float(sims.max(initial=0.0))  # 0.0 when there is no pair
    if math.isnan(s_max):
        bad = library.ids[owner[np.flatnonzero(np.isnan(sims))[0]]]
        raise ValueError(f"NaN curve distance against train instance {bad}")
    return Candidates(owner, lags, sims, estimates, library.ids, s_max, lags.size)


def alpha_cut(weighed: Candidates, alpha: float) -> np.ndarray:
    """Indices of the weighed pairs whose similarity is at least alpha * s_max.

    Pairs whose similarity underflows to exactly zero are dropped as well,
    since they cannot carry weight.
    """
    sims = weighed.similarities
    cutoff = alpha * weighed.s_max
    # a positive cutoff also drops every zero similarity
    return (sims >= cutoff if cutoff > 0.0 else sims > 0.0).nonzero()[0]


def candidate_estimates(
    test: HiCurve, library: Library, config: RunConfig
) -> Candidates:
    """Enumerate and filter candidate matches for one test instance.

    Every (train instance, lag) pair with lag in 1..tau and the whole test
    curve fitting inside the train curve produces a candidate
    (``pair_distances``), weighed at lam (``weigh_pairs``); the candidates
    at or above alpha times the best similarity survive (``alpha_cut``).
    Order is the library's own order, then ascending lag, so reruns are
    bit-identical.

    Args:
        test: Truncated test instance's HI curve.
        library: The train ids and full run-to-failure curves, laid out.
        config: Run configuration; reads lam, tau and alpha.

    Returns:
        Surviving candidates; may be empty.

    Raises:
        ValueError: On an empty test curve, or when a curve distance is NaN
            (a NaN in the test or a library curve), naming the first train
            instance it occurs against.
    """
    pairs = pair_distances(test, library, config.tau)
    weighed = weigh_pairs(pairs, library, config.lam)
    return weighed.take(alpha_cut(weighed, config.alpha))


def weighted_rul(
    similarities: np.ndarray,
    estimates: np.ndarray,
    r_max: float,
    test_len: int,
    train_lengths: Sequence[int],
) -> tuple[float, bool, bool]:
    """The arithmetic of ``estimate_rul`` on survivor arrays.

    Returns:
        (value, capped, fallback), as in ``RulEstimate``.
    """
    if not similarities.size:
        headroom = max(0, max(train_lengths, default=0) - test_len)
        return min(r_max, float(headroom)), bool(headroom > r_max), True
    # cumsum, not sum: it adds in candidate order, as a loop would
    weighted = (similarities * estimates).cumsum()
    value = float(weighted[-1] / similarities.cumsum()[-1])
    if value > r_max:
        return r_max, True, False
    return value, False, False


def estimate_rul(
    candidates: Candidates | list[RulCandidate],
    config: RunConfig,
    test_len: int,
    train_lengths: Sequence[int],
) -> RulEstimate:
    """Similarity-weighted mean of the candidate estimates, capped at r_max.

    Both sums are ``cumsum`` passes, which add in candidate order one term
    at a time, so the mean is bitwise that of a loop over the candidates.
    With no surviving candidates (test longer than every train curve, or the
    similarity filter emptied the set), the fallback returns the largest
    length headroom any train instance offers, still capped, and the
    dispersion reads NaN. The arithmetic is ``weighted_rul``'s.

    Args:
        candidates: Output of candidate_estimates, or a plain list of
            candidates, which is converted to arrays first.
        config: Run configuration; reads r_max.
        test_len: Observed length of the test instance.
        train_lengths: Full lengths of all train instances, for the fallback
            (``Library.lengths``, or a list).

    Returns:
        RulEstimate with value and flag fields filled in.
    """
    survivors = Candidates.of(candidates)
    sims, estimates = survivors.similarities, survivors.estimates
    value, capped, fallback = weighted_rul(
        sims, estimates, config.r_max, test_len, train_lengths
    )
    return RulEstimate(value, survivors, capped=capped, fallback=fallback)
