"""Tests for HI curve matching.

The oracle is an independent brute-force enumeration over every (train, lag)
pair with its own filter logic and fsum-based weighted mean; candidate sets
must agree bitwise, weighted means to 1e-12. estimate_rul must also agree
bitwise with the per-candidate loop in helpers.reference_estimate_rul.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edhi import matching
from edhi.config import RunConfig
from edhi.data import SyntheticSpec, generate_synthetic
from edhi.health import HiCurve
from edhi.matching import (
    Candidates,
    Library,
    RulCandidate,
    alpha_cut,
    candidate_estimates,
    curve_distance,
    estimate_rul,
    pair_distances,
    pairs_within,
    similarity,
    weigh_pairs,
)
from edhi.pipeline import build_pipeline, predict_one
from helpers import reference_estimate_rul


def brute_force_pairs(test, train_set, config):
    """Every feasible (train id, lag, similarity, estimate), one double loop
    independent of candidate_estimates."""
    raw = []
    for train_id, curve in train_set:
        for lag in range(1, config.tau + 1):
            if lag + test.length <= curve.length:
                seg = curve.values[lag : lag + test.length]
                diff = test.values - seg
                d2 = float(diff @ diff) / test.length
                s = float(np.exp(-d2 / config.lam))
                raw.append(
                    (train_id, lag, s, float(curve.length - test.length - lag))
                )
    return raw


def brute_force_candidates(test, train_set, config):
    """Exhaustive double loop, independent of candidate_estimates."""
    raw = brute_force_pairs(test, train_set, config)
    if not raw:
        return []
    s_max = max(r[2] for r in raw)
    return [r for r in raw if r[2] >= config.alpha * s_max and r[2] > 0.0]


def brute_force_weighted_mean(survivors):
    return math.fsum(s * e for _, _, s, e in survivors) / math.fsum(
        s for _, _, s, e in survivors
    )


def random_curve_case(rng, n_trains=None, max_len=30, tau=None):
    n_trains = n_trains if n_trains is not None else int(rng.integers(1, 6))
    test_len = int(rng.integers(2, max_len - 1))
    test = HiCurve(values=rng.uniform(0, 1, size=test_len))
    pairs = [
        (f"u{k}", HiCurve(values=rng.uniform(0, 1, size=int(rng.integers(2, max_len + 1)))))
        for k in range(n_trains)
    ]
    trains = Library.of(pairs)
    config = RunConfig(
        lam=float(rng.uniform(0.05, 2.0)),
        tau=tau if tau is not None else int(rng.integers(1, 6)),
        alpha=float(rng.uniform(0.0, 1.0)),
        r_max=float(rng.integers(5, 50)),
    )
    return test, trains, config


class TestCurveDistance:
    def test_identical_segments(self):
        test = HiCurve(values=np.array([0.5, 0.4, 0.3]))
        train = HiCurve(values=np.array([1.0, 0.5, 0.4, 0.3, 0.1]))
        assert curve_distance(test, train, lag=1) == 0.0

    def test_opposite_corners(self):
        test = HiCurve(values=np.array([1.0, 0.0]))
        train = HiCurve(values=np.array([0.9, 0.0, 1.0]))
        assert curve_distance(test, train, lag=1) == pytest.approx(1.0, abs=1e-12)

    def test_constant_offset(self):
        test = HiCurve(values=np.full(7, 0.6))
        train = HiCurve(values=np.full(12, 0.35))
        assert curve_distance(test, train, lag=2) == pytest.approx(
            0.25**2, abs=1e-12
        )

    def test_infeasible_lag_rejected(self):
        test = HiCurve(values=np.zeros(4))
        train = HiCurve(values=np.zeros(5))
        with pytest.raises(ValueError, match="exceeds"):
            curve_distance(test, train, lag=2)
        with pytest.raises(ValueError, match="lag"):
            curve_distance(test, train, lag=0)


class TestSimilarity:
    def test_zero_distance(self):
        assert similarity(0.0, 0.0005) == 1.0

    def test_distance_equal_to_lambda(self):
        assert similarity(0.3, 0.3) == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_halving_scale(self):
        lam = 0.0005
        d_half = math.log(2.0) * lam
        assert similarity(d_half, lam) == pytest.approx(0.5, abs=1e-12)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            similarity(-0.1, 1.0)
        with pytest.raises(ValueError):
            similarity(0.1, 0.0)


class TestCandidateEstimates:
    def test_short_train_contributes_nothing(self):
        test = HiCurve(values=np.linspace(1, 0, 10))
        trains = Library.of([("short", HiCurve(values=np.linspace(1, 0, 8)))])
        config = RunConfig(lam=0.1, tau=5, alpha=0.0, r_max=50)
        assert as_tuples(candidate_estimates(test, trains, config)) == []

    def test_alpha_one_keeps_only_best(self):
        rng = np.random.default_rng(0)
        test = HiCurve(values=rng.uniform(0, 1, size=6))
        trains = Library.of(
            [
                ("a", HiCurve(values=rng.uniform(0, 1, size=15))),
                ("b", HiCurve(values=rng.uniform(0, 1, size=12))),
            ]
        )
        config = RunConfig(lam=0.5, tau=4, alpha=1.0, r_max=50)
        survivors = candidate_estimates(test, trains, config)
        assert len(survivors) >= 1
        best = max(s.similarity for s in survivors)
        for c in survivors:
            assert c.similarity == best

    def test_candidate_fields(self):
        test = HiCurve(values=np.array([0.9, 0.8]))
        curve = HiCurve(values=np.array([1.0, 0.9, 0.8, 0.2, 0.1]))
        trains = Library.of([("u7", curve)])
        config = RunConfig(lam=0.1, tau=2, alpha=0.0, r_max=50)
        cands = candidate_estimates(test, trains, config)
        assert [(c.train_id, c.lag) for c in cands] == [("u7", 1), ("u7", 2)]
        # estimate is remaining train cycles past the aligned window
        assert cands[0].estimate == 5 - 2 - 1
        assert cands[1].estimate == 5 - 2 - 2
        assert cands[0].similarity == 1.0  # exact overlay at lag 1

    def test_underflowed_similarities_are_pruned(self):
        test = HiCurve(values=np.ones(5))
        trains = Library.of([("far", HiCurve(values=np.zeros(10)))])
        config = RunConfig(lam=1e-300, tau=3, alpha=0.0, r_max=50)
        assert as_tuples(candidate_estimates(test, trains, config)) == []

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        test, trains, config = random_curve_case(rng)
        got = candidate_estimates(test, trains, config)
        expected = brute_force_candidates(test, trains, config)
        assert [(c.train_id, c.lag, c.similarity, c.estimate) for c in got] == expected

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_survivor_similarity_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        test, trains, config = random_curve_case(rng)
        for c in candidate_estimates(test, trains, config):
            assert 0.0 < c.similarity <= 1.0
            assert c.estimate >= 0.0
            assert 1 <= c.lag <= config.tau


def degradation_curve(rng, length):
    """A noisy HI-like curve: near 1 early, falling to about 0 at failure."""
    t = np.arange(length) / length
    return np.clip(1.0 - t**2 + rng.normal(0.0, 0.02, size=length), 0.0, 1.0)


def bench_case(rng, n_trains):
    """Library and test curve at the sizes the scoring benchmark matches."""
    pairs = [
        (f"u{k}", HiCurve(values=degradation_curve(rng, int(rng.integers(2, 401)))))
        for k in range(n_trains)
    ]
    trains = Library.of(pairs)
    life = int(rng.integers(2, 401))
    test_len = int(rng.integers(1, life))
    test = HiCurve(values=degradation_curve(rng, life)[:test_len])
    config = RunConfig(
        lam=float(10 ** rng.uniform(-4, -1)),
        tau=int(rng.integers(1, 61)),
        alpha=float(rng.uniform(0.0, 1.0)),
    )
    return test, trains, config


def as_tuples(candidates):
    return [(c.train_id, c.lag, c.similarity, c.estimate) for c in candidates]


class TestLibrary:
    def _pairs(self):
        rng = np.random.default_rng(3)
        return [
            (f"u{k}", HiCurve(values=rng.uniform(0, 1, size=n)))
            for k, n in enumerate((7, 1, 12))
        ]

    def test_is_a_sequence_of_pairs(self):
        pairs = self._pairs()
        library = Library.of(pairs)
        assert len(library) == 3
        assert library.ids == ("u0", "u1", "u2")
        assert library.lengths.dtype == np.int64
        assert library.lengths.tolist() == [7, 1, 12]
        assert library.starts.tolist() == [0, 7, 8]
        # running sums from 0, one row per count; shorter curves hold their total
        assert library.prefix.shape == (13, 3)
        for k, (_, curve) in enumerate(pairs):
            sums = np.concatenate([[0.0], np.cumsum(curve.values)])
            assert library.prefix[: sums.size, k].tobytes() == sums.tobytes()
            assert (library.prefix[sums.size :, k] == sums[-1]).all()
        assert library.scale == max(abs(v) for _, c in pairs for v in c.values)
        for (uid, curve), (k, (want_id, want)) in zip(library, enumerate(pairs)):
            assert uid == want_id == library.ids[k]
            assert curve.values.tobytes() == want.values.tobytes()
            assert library.curves[k] is curve
        assert dict(library).keys() == {"u0", "u1", "u2"}

    def test_compares_by_identity(self):
        pairs = self._pairs()
        library = Library.of(pairs)
        assert library == library
        assert library != Library.of(pairs)
        assert len(Library.of([])) == 0 and list(Library.of([])) == []

    def test_flat_is_read_only(self):
        pairs = self._pairs()
        library = Library.of(pairs)
        assert not library.flat.flags.writeable
        assert not library.prefix.flags.writeable
        with pytest.raises(ValueError):
            library.flat[0] = 0.5
        for _, curve in library:
            assert np.shares_memory(curve.values, library.flat)
            with pytest.raises(ValueError):
                curve.values[0] = 0.5
        # the library holds its own copy of the source curves
        before = library.flat.tobytes()
        pairs[0][1].values[0] = -1.0
        assert library.flat.tobytes() == before

    def test_no_item_assignment(self):
        library = Library.of(self._pairs())
        with pytest.raises(TypeError):
            library[0] = ("u9", HiCurve(values=np.ones(3)))


class TestBenchmarkSizes:
    """The array pass against the oracle at up to 80 curves, 400 cycles, tau 60."""

    @given(st.integers(0, 2**32 - 1), st.integers(0, 80))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_oracle(self, seed, n_trains):
        rng = np.random.default_rng(seed)
        test, trains, config = bench_case(rng, n_trains)
        got = candidate_estimates(test, trains, config)
        assert as_tuples(got) == brute_force_candidates(test, trains, config)
        for c in got:
            assert type(c.lag) is int
            assert type(c.similarity) is float and type(c.estimate) is float

    def test_survivors_exist_at_benchmark_sizes(self):
        # guards the oracle test above against passing on empty sets only
        rng = np.random.default_rng(5)
        test, trains, config = bench_case(rng, 80)
        config = RunConfig(lam=0.05, tau=60, alpha=0.5)
        got = candidate_estimates(test, trains, config)
        assert len(got) > 10
        assert as_tuples(got) == brute_force_candidates(test, trains, config)

    @pytest.mark.parametrize("block_values", [1, 500, 20_000])
    def test_small_blocks_match_brute_force_oracle(self, monkeypatch, block_values):
        # block_values 1 scores one pair per block; 20_000 leaves a short
        # last block
        monkeypatch.setattr(matching, "_BLOCK_VALUES", block_values)
        rng = np.random.default_rng(5)
        test, trains, _ = bench_case(rng, 80)
        config = RunConfig(lam=0.05, tau=60, alpha=0.5)
        got = candidate_estimates(test, trains, config)
        assert len(got) > 10
        assert as_tuples(got) == brute_force_candidates(test, trains, config)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 80), st.integers(1, 60))
    @settings(max_examples=30, deadline=None)
    def test_pairs_at_a_larger_tau_serve_a_smaller_one(self, seed, n_trains, extra):
        # a sweep enumerates pairs once at its largest tau, weighs them once
        # per (lam, tau) and cuts that weighing at each of its alphas
        rng = np.random.default_rng(seed)
        test, trains, config = bench_case(rng, n_trains)
        pairs = pair_distances(test, trains, config.tau + extra)
        weighed = weigh_pairs(pairs_within(pairs, config.tau), trains, config.lam)
        assert len(weighed) == weighed.n_pairs
        assert weighed.ids is trains.ids
        want = candidate_estimates(test, trains, config)
        assert weighed.n_pairs == want.n_pairs and weighed.s_max == want.s_max
        for alpha in (config.alpha, float(rng.uniform(0.0, 1.0))):
            cut = weighed.take(alpha_cut(weighed, alpha))
            assert (cut.s_max, cut.n_pairs) == (weighed.s_max, weighed.n_pairs)
            expected = dataclasses.replace(config, alpha=alpha)
            assert as_tuples(cut) == brute_force_candidates(test, trains, expected)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.integers(0, 30))
    @settings(max_examples=20, deadline=None)
    def test_pairs_within_a_smaller_tau_are_its_pairs(self, seed, n_trains, extra):
        rng = np.random.default_rng(seed)
        test, trains, config = bench_case(rng, n_trains)
        pairs = pair_distances(test, trains, config.tau + extra)
        got = pairs_within(pairs, config.tau)
        want = pair_distances(test, trains, config.tau)
        assert got.tau == want.tau == config.tau
        for a, b in zip(got[:4], want[:4]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert pairs_within(pairs, pairs.tau) is pairs
        with pytest.raises(ValueError, match="pairs enumerated to lag"):
            pairs_within(pairs, pairs.tau + 1)

    def test_empty_test_curve_refused(self):
        library = Library.of([("u1", HiCurve(values=np.linspace(1, 0, 20)))])
        with pytest.raises(ValueError, match="^empty test curve$"):
            pair_distances(HiCurve(values=np.empty(0)), library, 5)

    def test_empty_library(self):
        test = HiCurve(values=np.linspace(1, 0, 50))
        library = Library.of([])
        assert as_tuples(candidate_estimates(test, library, RunConfig(tau=60))) == []

    def test_every_curve_shorter_than_test(self):
        rng = np.random.default_rng(1)
        test = HiCurve(values=degradation_curve(rng, 400))
        pairs = [
            (f"u{k}", HiCurve(values=degradation_curve(rng, int(rng.integers(2, 401)))))
            for k in range(80)
        ]
        trains = Library.of(pairs)
        config = RunConfig(tau=60, lam=0.01)
        assert as_tuples(candidate_estimates(test, trains, config)) == []
        assert brute_force_candidates(test, trains, config) == []

    def test_every_similarity_underflows(self):
        rng = np.random.default_rng(2)
        test, trains, _ = bench_case(rng, 80)
        config = RunConfig(lam=1e-300, tau=60, alpha=0.0)
        test = HiCurve(values=test.values + 5.0)  # far from every train curve
        assert as_tuples(candidate_estimates(test, trains, config)) == []
        assert brute_force_candidates(test, trains, config) == []

    def test_nan_in_library_curve_rejected(self):
        # The pair-by-pair loop's answer depends on where the NaN falls: its
        # max() skips a NaN similarity unless the NaN comes first, and then
        # every candidate is dropped. The array pass refuses instead and
        # names the curve.
        rng = np.random.default_rng(3)
        pairs = [
            (f"u{k}", HiCurve(values=degradation_curve(rng, 300))) for k in range(5)
        ]
        pairs[3][1].values[150] = np.nan
        trains = Library.of(pairs)
        test = HiCurve(values=degradation_curve(rng, 300)[:120])
        config = RunConfig(tau=60, lam=0.01)
        with pytest.raises(ValueError, match="NaN curve distance .* instance u3$"):
            candidate_estimates(test, trains, config)


def loop_pairs(test, library, tau):
    """(owner, lag, d2, estimate) of every feasible pair, one curve_distance each."""
    rows = []
    for k, (_, curve) in enumerate(library):
        for lag in range(1, tau + 1):
            if lag + test.length <= curve.length:
                estimate = float(curve.length - test.length - lag)
                rows.append((k, lag, curve_distance(test, curve, lag), estimate))
    return rows


def signed_zero_curve(rng, length):
    """A degradation curve with -0.0, +0.0 and subnormal values mixed in."""
    values = degradation_curve(rng, length)
    specials = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2e-308])
    at = rng.random(length) < 0.2
    values[at] = rng.choice(specials, size=int(at.sum()))
    return values


class TestPairDistancesBitwise:
    """Every d2 against curve_distance byte for byte, however pairs are blocked."""

    def _case(self, kind):
        rng = np.random.default_rng(11)
        test_len, tau = {
            "blocks": (120, 60),  # several blocks at the module's block size
            "one_block": (20, 5),  # fewer pairs than one block holds
            "few_lags": (150, 40),  # every curve offers fewer than tau lags
            "tau_past_every_curve": (60, 10**9),  # the lag grid stays bounded
        }[kind]
        if kind == "one_block":
            lengths = [30, 26, 21, 19]
        elif kind == "few_lags":
            lengths = list(rng.integers(140, test_len + 40, size=40))
        else:
            lengths = list(rng.integers(2, 401, size=80))
        curves = [HiCurve(values=signed_zero_curve(rng, int(n))) for n in lengths]
        library = Library.of([(f"u{k}", curve) for k, curve in enumerate(curves)])
        test = HiCurve(values=signed_zero_curve(rng, 400)[:test_len])
        return test, library, tau

    @pytest.mark.parametrize("block_values", [None, 1], ids=["module_block", "block_1"])
    @pytest.mark.parametrize(
        "kind", ["blocks", "one_block", "few_lags", "tau_past_every_curve"]
    )
    def test_d2_bytes_are_curve_distance(self, monkeypatch, block_values, kind):
        if block_values is not None:
            monkeypatch.setattr(matching, "_BLOCK_VALUES", block_values)
        test, library, tau = self._case(kind)
        pairs = pair_distances(test, library, tau)
        owner, lags, d2, estimates = zip(*loop_pairs(test, library, min(tau, 400)))
        assert pairs.owner.tolist() == list(owner)
        assert pairs.lags.tolist() == list(lags)
        assert pairs.d2.tobytes() == np.array(d2).tobytes()
        assert pairs.estimates.tobytes() == np.array(estimates).tobytes()
        assert pairs.tau == tau

    def test_cases_cover_what_they_name(self):
        test, library, tau = self._case("blocks")
        n = pair_distances(test, library, tau).d2.size
        assert n > matching._BLOCK_VALUES // test.length * 3
        test, library, tau = self._case("one_block")
        n = pair_distances(test, library, tau).d2.size
        assert 0 < n < matching._BLOCK_VALUES // test.length
        test, library, tau = self._case("few_lags")
        assert max(library.lengths) - test.length < tau
        test, library, tau = self._case("tau_past_every_curve")
        assert tau > max(library.lengths)


class TestSegmentBoundPrune:
    """candidate_estimates with its segment-sum bound used at every size,
    against the brute-force loop: n_pairs, s_max and the survivors' bits."""

    @pytest.fixture(autouse=True)
    def bound_at_every_size(self, monkeypatch):
        monkeypatch.setattr(matching, "_PRUNE_MIN_VALUES", 0)

    @staticmethod
    def check(test, trains, config):
        """The pruned result against the loop; returns how many feasible
        pairs the bound ruled out."""
        got = candidate_estimates(test, trains, config)
        raw = brute_force_pairs(test, trains, config)
        assert got.n_pairs == len(raw)
        assert got.s_max == max((r[2] for r in raw), default=0.0)
        assert as_tuples(got) == brute_force_candidates(test, trains, config)
        _, feasible = matching._feasible(test, trains, config.tau)
        kept = matching._unpruned(test, trains, feasible, config)
        assert not np.any(kept & ~feasible)
        return int(np.count_nonzero(feasible) - np.count_nonzero(kept))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 80))
    @settings(max_examples=40, deadline=None)
    def test_no_pruned_pair_would_survive(self, seed, n_trains):
        rng = np.random.default_rng(seed)
        test, trains, config = bench_case(rng, n_trains)
        self.check(test, trains, config)
        _, feasible = matching._feasible(test, trains, config.tau)
        kept = matching._unpruned(test, trains, feasible, config)[feasible]
        raw = brute_force_pairs(test, trains, config)  # in pair order
        cutoff = config.alpha * max((r[2] for r in raw), default=0.0)
        for (_, _, sim, _), keep in zip(raw, kept.tolist()):
            if not keep:
                assert not (sim >= cutoff and sim > 0.0)

    def test_bound_rules_out_most_pairs_at_benchmark_sizes(self):
        # guards the tests of this class against a bound that rules out nothing
        rng = np.random.default_rng(5)
        test, trains, _ = bench_case(rng, 80)
        config = RunConfig(lam=0.0005, tau=40, alpha=0.87)
        n_pairs = candidate_estimates(test, trains, config).n_pairs
        assert self.check(test, trains, config) > n_pairs // 2

    def test_pairs_planted_at_the_cut_edge(self):
        # each library curve is one value and then the test curve plus an
        # offset, so lag 1 is its one pair, and that pair's bound is its d^2
        # but for rounding. Offset 0.005 gives the smallest d^2, which is U,
        # and the other offsets step d^2 by about 2 ulps across d^2_min +
        # lam * ln(1/alpha): only the margin keeps the bound from ruling out
        # pairs that survive
        rng = np.random.default_rng(8)
        test = HiCurve(values=degradation_curve(rng, 300)[100:180])
        lam, alpha = 1e-3, 0.9
        edge = 0.005**2 + lam * math.log(1 / alpha)
        offsets = [0.005] + [math.sqrt(edge) * (1 + 2**-52 * j) for j in range(-40, 41)]
        trains = Library.of(
            [
                (f"u{j}", HiCurve(values=np.concatenate([[0.5], test.values + offset])))
                for j, offset in enumerate(offsets)
            ]
        )
        config = RunConfig(lam=lam, tau=40, alpha=alpha)
        self.check(test, trains, config)
        survivors = len(candidate_estimates(test, trains, config))
        assert 1 < survivors < len(offsets)

    def test_no_window_before_the_first_lag_sets_u(self):
        # the curve starts with the test curve itself, at lag 0, which is no
        # pair; U must be the d^2 of the pair with the smallest bound (lag 1
        # here), or the best pair is ruled out with the rest
        rng = np.random.default_rng(9)
        test = HiCurve(values=degradation_curve(rng, 300)[100:180])
        values = np.concatenate([test.values, rng.uniform(0, 1, 40)])
        trains = Library.of([("u0", HiCurve(values=values))])
        self.check(test, trains, RunConfig(lam=1e-4, tau=40, alpha=0.87))

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 1e4]))
    @settings(max_examples=30, deadline=None)
    def test_values_near_1e6(self, seed, spread):
        # curves 1e6 + spread * an HI curve: the running sums reach ~4e8, and
        # the margin grows with the values, not with their spread
        rng = np.random.default_rng(seed)
        test, trains, config = bench_case(rng, 30)
        shifted = Library.of(
            [(uid, HiCurve(values=1e6 + spread * c.values)) for uid, c in trains]
        )
        test = HiCurve(values=1e6 + spread * test.values)
        config = dataclasses.replace(config, lam=config.lam * spread**2)
        self.check(test, shifted, config)

    def test_values_near_1e6_still_prune(self):
        rng = np.random.default_rng(5)
        test, trains, _ = bench_case(rng, 80)
        shifted = Library.of(
            [(uid, HiCurve(values=1e6 + 1e4 * c.values)) for uid, c in trains]
        )
        test = HiCurve(values=1e6 + 1e4 * test.values)
        config = RunConfig(lam=0.0005 * 1e8, tau=40, alpha=0.87)
        assert self.check(test, shifted, config) > 0

    @pytest.mark.parametrize("l_star", [1, 2, 3, 4, 5])
    def test_test_curves_shorter_than_the_segments(self, l_star):
        rng = np.random.default_rng(l_star)
        _, trains, _ = bench_case(rng, 80)
        test = HiCurve(values=degradation_curve(rng, 200)[50 : 50 + l_star])
        for lam in (0.0005, 0.01):
            config = RunConfig(lam=lam, tau=60, alpha=0.87)
            assert self.check(test, trains, config) > 0

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_at_its_ends(self, alpha):
        rng = np.random.default_rng(4)
        test, trains, _ = bench_case(rng, 80)
        config = RunConfig(lam=0.001, tau=60, alpha=alpha)
        pruned = self.check(test, trains, config)
        # alpha 0 keeps every pair that does not underflow: nothing to rule out
        assert (pruned == 0) == (alpha == 0.0)

    def test_every_similarity_underflows(self):
        rng = np.random.default_rng(2)
        test, trains, _ = bench_case(rng, 80)
        test = HiCurve(values=test.values + 5.0)
        for lam in (1e-300, 1e-3):
            config = RunConfig(lam=lam, tau=60, alpha=0.87)
            assert brute_force_candidates(test, trains, config) == []
            # the cutoff would not be a normal float: every pair is computed
            assert self.check(test, trains, config) == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["test", "library"])
    def test_non_finite_values(self, monkeypatch, value, where):
        rng = np.random.default_rng(3)
        pairs = [
            (f"u{k}", HiCurve(values=degradation_curve(rng, 300))) for k in range(5)
        ]
        test = HiCurve(values=degradation_curve(rng, 300)[:120].copy())
        if where == "test":
            test.values[10] = value
        else:
            pairs[3][1].values[150] = value
        trains = Library.of(pairs)
        config = RunConfig(tau=60, lam=0.01)

        def outcome():
            try:
                got = candidate_estimates(test, trains, config)
            except ValueError as exc:
                return str(exc)
            return as_tuples(got), got.n_pairs, got.s_max

        pruned = outcome()
        monkeypatch.setattr(matching, "_PRUNE_MIN_VALUES", 1 << 62)
        assert pruned == outcome()
        if np.isnan(value):
            want = "u0" if where == "test" else "u3"
            assert pruned == f"NaN curve distance against train instance {want}"
        else:
            assert pruned[0] == brute_force_candidates(test, trains, config)

    def test_empty_library(self):
        test = HiCurve(values=np.linspace(1, 0, 50))
        assert self.check(test, Library.of([]), RunConfig(tau=60)) == 0


class TestEstimateRul:
    def test_equal_weights_average(self):
        cands = [
            RulCandidate(train_id="a", lag=1, similarity=1.0, estimate=10.0),
            RulCandidate(train_id="b", lag=1, similarity=1.0, estimate=20.0),
        ]
        config = RunConfig(lam=0.1, tau=5, alpha=0.0, r_max=125)
        result = estimate_rul(cands, config, test_len=10, train_lengths=[40, 40])
        assert result.value == pytest.approx(15.0, abs=1e-12)
        assert result.spread == 10.0
        assert result.std_dev == pytest.approx(5.0, abs=1e-12)
        assert not result.capped and not result.fallback

    def test_single_candidate(self):
        cands = [RulCandidate(train_id="a", lag=2, similarity=0.4, estimate=7.0)]
        config = RunConfig(lam=0.1, tau=5, alpha=0.0, r_max=125)
        result = estimate_rul(cands, config, test_len=5, train_lengths=[14])
        assert result.value == 7.0
        assert result.std_dev == 0.0
        assert result.spread == 0.0

    def test_cap_applies(self):
        cands = [RulCandidate(train_id="a", lag=1, similarity=1.0, estimate=200.0)]
        config = RunConfig(lam=0.1, tau=5, alpha=0.0, r_max=125)
        result = estimate_rul(cands, config, test_len=5, train_lengths=[300])
        assert result.value == 125.0
        assert result.capped

    def test_empty_candidates_fallback(self):
        config = RunConfig(lam=0.1, tau=5, alpha=0.0, r_max=125)
        result = estimate_rul([], config, test_len=50, train_lengths=[80, 120, 60])
        assert result.fallback
        assert result.value == 70.0  # best headroom: 120 - 50
        assert math.isnan(result.std_dev) and math.isnan(result.spread)

    def test_fallback_respects_cap(self):
        config = RunConfig(lam=0.1, tau=5, alpha=0.0, r_max=30)
        result = estimate_rul([], config, test_len=10, train_lengths=[200])
        assert result.value == 30.0
        assert result.fallback and result.capped

    def test_fallback_with_no_longer_train(self):
        config = RunConfig(lam=0.1, tau=5, alpha=0.0, r_max=125)
        result = estimate_rul([], config, test_len=90, train_lengths=[50, 60])
        assert result.value == 0.0
        assert result.fallback

    def test_weighted_mean_is_convex_combination(self):
        rng = np.random.default_rng(3)
        config = RunConfig(lam=0.1, tau=5, alpha=0.0, r_max=1e9)
        for _ in range(20):
            cands = [
                RulCandidate(
                    train_id=f"u{k}",
                    lag=1,
                    similarity=float(rng.uniform(1e-6, 1)),
                    estimate=float(rng.integers(0, 100)),
                )
                for k in range(int(rng.integers(1, 8)))
            ]
            result = estimate_rul(cands, config, test_len=10, train_lengths=[200])
            ests = [c.estimate for c in cands]
            assert min(ests) - 1e-9 <= result.value <= max(ests) + 1e-9

    def test_similarity_scale_invariance(self):
        config = RunConfig(lam=0.1, tau=5, alpha=0.0, r_max=1e9)
        base = [
            RulCandidate(train_id="a", lag=1, similarity=0.2, estimate=12.0),
            RulCandidate(train_id="b", lag=2, similarity=0.05, estimate=30.0),
            RulCandidate(train_id="c", lag=1, similarity=0.7, estimate=21.0),
        ]
        scaled = [
            RulCandidate(
                train_id=c.train_id,
                lag=c.lag,
                similarity=c.similarity * 3.5,
                estimate=c.estimate,
            )
            for c in base
        ]
        a = estimate_rul(base, config, test_len=10, train_lengths=[100])
        b = estimate_rul(scaled, config, test_len=10, train_lengths=[100])
        assert a.value == pytest.approx(b.value, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_end_to_end_matches_oracle_mean(self, seed):
        rng = np.random.default_rng(seed)
        test, trains, config = random_curve_case(rng)
        cands = candidate_estimates(test, trains, config)
        result = estimate_rul(
            cands, config, test.length, [c.length for _, c in trains]
        )
        survivors = brute_force_candidates(test, trains, config)
        if survivors:
            expected = min(config.r_max, brute_force_weighted_mean(survivors))
            assert result.value == pytest.approx(expected, abs=1e-12)
        else:
            assert result.fallback

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_total_length_bound_post_cap(self, seed):
        # estimate plus observed length never exceeds the longest train life
        rng = np.random.default_rng(seed)
        test, trains, config = random_curve_case(rng)
        lengths = [c.length for _, c in trains]
        cands = candidate_estimates(test, trains, config)
        result = estimate_rul(cands, config, test.length, lengths)
        if cands or max(lengths) > test.length:
            assert result.value + test.length <= max(lengths) + 1e-9


def estimate_bits(value, std_dev, spread, capped, fallback):
    """The estimate fields with value, std_dev and spread as raw bytes."""
    return np.array([value, std_dev, spread]).tobytes(), capped, fallback


def fields_of(est):
    return estimate_bits(est.value, est.std_dev, est.spread, est.capped, est.fallback)


class TestEstimateRulBitwise:
    """The cumsum passes against the per-candidate loop they replaced."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(0, 3000),
        st.integers(-300, 0),
        st.sampled_from(["integer", "real", "equal"]),
        st.one_of(st.floats(1.0, 400.0), st.just(1e9)),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_candidate_loop(self, seed, n, min_exp, kind, r_max):
        # similarities span 10**min_exp..1, down to 1e-300; a cap of at most
        # 400 binds on most estimate sets, 1e9 never does; n = 0 falls back
        rng = np.random.default_rng(seed)
        similarities = 10.0 ** rng.uniform(min_exp, 0.0, size=n)
        if kind == "integer":
            estimates = rng.integers(0, 400, size=n).astype(np.float64)
        elif kind == "real":
            estimates = rng.uniform(0.0, 400.0, size=n)
        else:
            estimates = np.full(n, float(rng.integers(0, 400)))
        survivors = Candidates(
            rng.integers(0, 7, size=n),
            rng.integers(1, 61, size=n),
            similarities,
            estimates,
            tuple(f"u{k}" for k in range(7)),
            float(similarities.max(initial=0.0)),
            n,
        )
        config = RunConfig(r_max=r_max)
        test_len = int(rng.integers(1, 400))
        lengths = [int(length) for length in rng.integers(2, 500, size=5)]
        cands = list(survivors)

        from_arrays = estimate_rul(survivors, config, test_len, lengths)
        from_list = estimate_rul(cands, config, test_len, lengths)
        expected = reference_estimate_rul(cands, config, test_len, lengths)
        assert fields_of(from_arrays) == estimate_bits(**expected)
        assert fields_of(from_list) == fields_of(from_arrays)
        assert from_list.candidates == from_arrays.candidates == cands
        assert from_list.best_match == from_arrays.best_match
        assert from_list.n_pairs == from_arrays.n_pairs == n
        assert from_list.survivors.s_max == from_arrays.survivors.s_max


@pytest.fixture(scope="module")
def bench_bundle():
    """A pipeline over 80 FD001-shaped lives of 128-362 cycles, no LSTM."""
    spec = SyntheticSpec(
        n_instances=100, n_sensors=21, min_len=128, max_len=362, seed=5
    )
    ds = generate_synthetic(spec)
    bundle, _ = build_pipeline(ds, RunConfig(hi_variant="linear", tau=60, seed=5))
    return ds, bundle


class TestLazyCandidates:
    def test_predict_one_candidates_match_brute_force(self, bench_bundle):
        ds, bundle = bench_bundle
        library, config = bundle.hi_train_curves, bundle.config
        nonempty = 0
        for _, series in ds.instances[::10]:
            for frac in (0.3, 0.6, 0.9):
                est, curve = predict_one(bundle, series[: int(frac * len(series))])
                expected = brute_force_candidates(curve, library, config)
                got = est.candidates
                assert got == expected
                assert len(got) == len(est.survivors) == len(expected)
                assert {tuple(map(type, c)) for c in got} <= {(str, int, float, float)}
                assert est.n_pairs == sum(
                    max(0, min(config.tau, c.length - curve.length)) for _, c in library
                )
                if expected:
                    nonempty += 1
                    # the best pair survives any cut at alpha <= 1
                    assert est.survivors.s_max == Candidates.of(expected).s_max
                    assert est.survivors[-1] == got[-1]
                    assert est.best_match == max(expected, key=lambda c: c[2])
                    assert type(est.best_match) is RulCandidate
        assert nonempty >= 20

    def test_dispersion_is_that_of_the_candidate_loop(self, bench_bundle):
        # std_dev and spread are computed from the survivors on each read
        ds, bundle = bench_bundle
        config, lengths = bundle.config, bundle.hi_train_curves.lengths.tolist()
        fallbacks = 0
        for _, series in ds.instances[::10]:
            # three lives end to end outlast every library curve
            for cut in (series[: len(series) // 2], np.tile(series, (3, 1))):
                est, curve = predict_one(bundle, cut)
                expected = reference_estimate_rul(
                    est.candidates, config, curve.length, lengths
                )
                assert fields_of(est) == estimate_bits(**expected)
                if est.fallback:
                    fallbacks += 1
                    assert math.isnan(est.std_dev) and math.isnan(est.spread)
        assert fallbacks == 10

    def test_fallback_has_no_candidates(self):
        test = HiCurve(values=np.linspace(1, 0, 50))
        trains = Library.of([("short", HiCurve(values=np.linspace(1, 0, 30)))])
        config = RunConfig()
        est = estimate_rul(candidate_estimates(test, trains, config), config, 50, [30])
        assert est.fallback
        assert est.candidates == []
        assert est.best_match is None
        assert est.n_pairs == 0

    def test_underflow_fallback_counts_its_pairs(self):
        test = HiCurve(values=np.ones(5))
        trains = Library.of([("far", HiCurve(values=np.zeros(10)))])
        config = RunConfig(lam=1e-300, tau=3, alpha=0.0)
        est = estimate_rul(candidate_estimates(test, trains, config), config, 5, [10])
        assert est.fallback
        assert est.candidates == []
        assert est.best_match is None
        assert est.n_pairs == 3

    def test_ids_repeat_across_lags(self):
        # candidates built from a list keep their own train ids, however
        # often one train instance recurs at other lags
        cands = [
            RulCandidate(train_id="u1", lag=1, similarity=0.4, estimate=20.0),
            RulCandidate(train_id="u1", lag=2, similarity=0.9, estimate=19.0),
            RulCandidate(train_id="u0", lag=1, similarity=0.5, estimate=30.0),
            RulCandidate(train_id="u1", lag=3, similarity=0.2, estimate=18.0),
        ]
        survivors = Candidates.of(cands)
        assert survivors.ids == ("u1", "u1", "u0", "u1")
        assert survivors.s_max == 0.9 and survivors.n_pairs == 4
        assert Candidates.of(survivors) is survivors
        assert survivors != Candidates.of(cands)  # compared by identity
        none = survivors.take(np.array([], dtype=np.int64))
        assert len(none) == 0 and (none.s_max, none.n_pairs) == (0.9, 4)
        assert [survivors[k].train_id for k in range(4)] == ["u1", "u1", "u0", "u1"]
        assert list(survivors) == cands
        est = estimate_rul(cands, RunConfig(), test_len=10, train_lengths=[40, 50])
        assert est.best_match == cands[1]
        assert est.candidates == cands
