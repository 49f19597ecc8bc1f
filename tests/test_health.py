"""Tests for health-index construction.

The pointwise-reconstruction oracle decodes each window separately and
averages with explicit loops, independent of the batched implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import edhi.health
from edhi.health import (
    HiCurve,
    endpoint_targets,
    exponential_target_hi,
    fit_hi_model,
    frac_count,
    hi_curve,
    linear_target_hi,
    pointwise_reconstruction,
    pointwise_reconstructions,
    reconstruction_error,
    sliding_windows,
    smooth_curve,
    target_hi_from_error,
)
from edhi.lstm import LstmEdModel, decode_infer, encode, init_model
from edhi.numerics import OlsModel
from helpers import reference_smooth_curve, traced_peak


class TestSlidingWindows:
    def test_count_and_starts(self):
        series = np.arange(10.0).reshape(5, 2)
        wins = sliding_windows(series, 3)
        assert [s for s, _ in wins] == [1, 2, 3]
        np.testing.assert_array_equal(wins[0][1], series[0:3])
        np.testing.assert_array_equal(wins[2][1], series[2:5])

    def test_window_equal_to_series(self):
        series = np.arange(6.0).reshape(3, 2)
        wins = sliding_windows(series, 3)
        assert len(wins) == 1
        assert wins[0][0] == 1
        np.testing.assert_array_equal(wins[0][1], series)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            sliding_windows(np.zeros((2, 2)), 3)

    @given(st.integers(1, 8), st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_window_count_formula(self, l, extra):
        big_l = l + extra
        series = np.zeros((big_l, 2))
        wins = sliding_windows(series, l)
        assert len(wins) == big_l - l + 1
        assert wins[-1][0] == big_l - l + 1


class TestPointwiseReconstruction:
    def test_zero_model_emits_bias(self):
        zero = init_model(2, 3, 4, seed=0)
        for arr in (
            zero.encoder.w,
            zero.encoder.b,
            zero.decoder.w,
            zero.decoder.b,
            zero.out_weight,
        ):
            arr[...] = 0.0
        zero.out_bias[...] = [0.7, -0.2]
        series = np.random.default_rng(0).uniform(-1, 1, size=(9, 2))
        recon = pointwise_reconstruction(zero, series)
        np.testing.assert_allclose(recon, np.tile([0.7, -0.2], (9, 1)), atol=1e-12)

    def test_matches_per_window_average_oracle(self):
        model = init_model(2, 4, 3, seed=3)
        series = np.random.default_rng(1).uniform(-1, 1, size=(7, 2))
        recon = pointwise_reconstruction(model, series)

        l = 3
        sums = np.zeros((7, 2))
        counts = np.zeros(7)
        for start0 in range(7 - l + 1):
            window = series[None, start0 : start0 + l]
            single = decode_infer(model, encode(model, window), steps=l)[0]
            for j in range(l):
                sums[start0 + j] += single[j]
                counts[start0 + j] += 1
        np.testing.assert_allclose(recon, sums / counts[:, None], atol=1e-12)

    @given(
        st.integers(1, 6),
        st.integers(0, 30),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.sampled_from([np.float64, np.float32]),
    )
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_to_stacked_windows(self, l, extra, p, seed, dtype):
        # a float32 model decodes float32 windows, averaged in float64
        rng = np.random.default_rng(seed)
        model = LstmEdModel(init_model(p, 4, l, seed=seed).params.astype(dtype), p, 4, l)
        series = rng.normal(size=(l + extra, p))
        stacked = np.stack([w for _, w in sliding_windows(series, l)]).astype(dtype)
        recons = decode_infer(model, encode(model, stacked), steps=l)
        sums = np.zeros_like(series)
        counts = np.zeros(l + extra)
        for k, window in enumerate(recons):
            sums[k : k + l] += window
            counts[k : k + l] += 1.0
        got = pointwise_reconstruction(model, series)
        assert got.dtype == np.float64
        assert np.array_equal(got, sums / counts[:, None])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_windows_reach_the_encoder_as_a_view(self, dtype, monkeypatch):
        # the float64 series is cast to the model's dtype once, before its
        # windows are viewed, so the encoder gets a view in its own dtype
        # and makes no (B, l, p) copy of it
        seen = []

        def spy(model, window, **kwargs):
            seen.append(window)
            return encode(model, window, **kwargs)

        monkeypatch.setattr(edhi.health, "encode", spy)
        model = LstmEdModel(init_model(3, 4, 5, seed=1).params.astype(dtype), 3, 4, 5)
        pointwise_reconstruction(model, np.random.default_rng(1).normal(size=(30, 3)))
        (window,) = seen
        assert window.shape == (26, 5, 3)
        assert window.dtype == dtype
        assert not window.flags.owndata

    def test_bad_series_rejected(self):
        model = init_model(2, 3, 4, seed=0)
        with pytest.raises(ValueError, match=r"series must be 2-D, got shape \(8,\)"):
            pointwise_reconstruction(model, np.zeros(8))
        with pytest.raises(ValueError, match="series has 3 cycles, shorter than window length 4"):
            pointwise_reconstruction(model, np.zeros((3, 2)))

    def test_coverage_counts(self):
        # interior cycles are covered by exactly l windows, the first and
        # last cycle by exactly one
        l, big_l = 4, 12
        counts = np.zeros(big_l)
        for start0 in range(big_l - l + 1):
            counts[start0 : start0 + l] += 1
        assert counts[0] == 1 and counts[-1] == 1
        assert np.all(counts[l - 1 : big_l - l + 1] == l)


class TestGroupedReconstruction:
    """pointwise_reconstructions shares one pass among consecutive units,
    with each step's GEMMs run per unit, so every unit's reconstruction is
    bit for bit that of a lone pointwise_reconstruction call."""

    # window counts of every residue mod 16 (a GEMM computes its last
    # N mod 16 columns with another kernel), one unit over the budget, and
    # one window alone (a matrix-vector product)
    COUNTS = [*range(2, 9), 1, *range(9, 17), 50, 17, 33]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p, c, l", [(3, 30, 20), (2, 8, 10)])
    def test_each_unit_bitwise_equal_to_a_lone_call(self, p, c, l, dtype, monkeypatch):
        # a budget of 40 windows' gate block: eight groups, the one-window
        # and the 50-window unit each alone
        gate_bytes = 4 * c * np.dtype(dtype).itemsize
        monkeypatch.setattr(edhi.health, "_GROUP_BYTES", 40 * gate_bytes)
        cuts = []

        def spy(model, window, **kwargs):
            cuts.append(kwargs["_cuts"])
            return encode(model, window, **kwargs)

        monkeypatch.setattr(edhi.health, "encode", spy)
        model = LstmEdModel(init_model(p, c, l, seed=c).params.astype(dtype), p, c, l)
        rng = np.random.default_rng(c)
        series = [rng.normal(size=(n + l - 1, p)) for n in self.COUNTS]
        grouped = pointwise_reconstructions(model, series)
        assert [len(group) - 1 for group in cuts] == [7, 1, 3, 3, 2, 1, 1, 1]
        assert cuts[1] == (0, 1) and cuts[5] == (0, 50)
        for x, got in zip(series, grouped):
            assert got.tobytes() == pointwise_reconstruction(model, x).tobytes()

    def test_first_bad_series_raises_before_any_pass(self, monkeypatch):
        monkeypatch.setattr(edhi.health, "encode", None)  # any pass would fail
        model = init_model(2, 3, 4, seed=0)
        good, short = np.zeros((9, 2)), np.zeros((3, 2))
        with pytest.raises(ValueError, match="series has 3 cycles, shorter than"):
            pointwise_reconstructions(model, [good, short, np.zeros(8)])


class TestReconstructionMemory:
    """Consecutive units share a pass only while their gate block fits in
    _GROUP_BYTES, so beyond the reconstructions it returns, reconstructing
    many units takes one group's memory whatever their number. One pass over
    all 200 units below would take about five times as much."""

    def _excess(self, n_units):
        params = init_model(2, 8, 10, seed=1).params.astype(np.float32)
        model = LstmEdModel(params, 2, 8, 10)
        rng = np.random.default_rng(n_units)
        # 50 windows each: 40 units fill a 2048-window group
        series = [rng.normal(size=(59, 2)) for _ in range(n_units)]
        peak, recons = traced_peak(lambda: pointwise_reconstructions(model, series))
        return peak - sum(recon.nbytes for recon in recons)

    def test_peak_does_not_grow_with_the_unit_count(self):
        few, many = self._excess(50), self._excess(200)
        assert many < 1.1 * few
        # a full group's buffers take about 6x its gate block
        assert many < 8 * edhi.health._GROUP_BYTES


class TestReconstructionError:
    def test_perfect_reconstruction(self):
        x = np.random.default_rng(0).uniform(size=(5, 3))
        err = reconstruction_error(x, x)
        np.testing.assert_array_equal(err, np.zeros(5))

    def test_three_four_five(self):
        err = reconstruction_error(np.array([[3.0, 4.0]]), np.array([[0.0, 0.0]]))
        assert err[0] == pytest.approx(5.0, abs=1e-12)

    def test_extremes_recorded(self):
        err = reconstruction_error(np.array([[2.0], [-5.0], [8.0]]), np.zeros((3, 1)))
        assert isinstance(err, np.ndarray) and err.shape == (3,)
        assert err.min() == 2.0
        assert err.max() == 8.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reconstruction_error(np.zeros((3, 2)), np.zeros((2, 2)))


class TestTargetHiFromError:
    def test_plain_normalization(self):
        curve = target_hi_from_error(np.array([2.0, 5.0, 8.0]), squared=False)
        np.testing.assert_allclose(curve.values, [1.0, 0.5, 0.0], atol=1e-12)

    def test_squared_normalization(self):
        curve = target_hi_from_error(np.array([2.0, 5.0, 8.0]), squared=True)
        # squared errors [4, 25, 64]: (64-25)/60 = 0.65
        np.testing.assert_allclose(curve.values, [1.0, 0.65, 0.0], atol=1e-12)

    def test_constant_errors_degenerate_to_ones(self):
        curve = target_hi_from_error(np.full(4, 3.3), squared=False)
        np.testing.assert_array_equal(curve.values, np.ones(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            target_hi_from_error(np.array([]), squared=False)

    @given(
        arrays(
            np.float64,
            st.integers(2, 30),
            elements=st.floats(0, 100, allow_nan=False, width=64),
        ),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_and_extremes(self, errors, squared):
        curve = target_hi_from_error(errors, squared=squared)
        assert np.all(curve.values >= 0.0) and np.all(curve.values <= 1.0)
        e = errors * errors if squared else errors
        if np.max(e) - np.min(e) >= 1e-12:
            assert curve.values[np.argmin(e)] == 1.0
            assert curve.values[np.argmax(e)] == 0.0


class TestExponentialTargetHi:
    def test_reference_values(self):
        curve = exponential_target_hi(100, beta=0.05)
        assert curve.values[2] == 1.0  # t=3, inside the leading fraction
        assert curve.values[4] == pytest.approx(0.95, abs=1e-12)  # t = beta*L
        expected_95 = 1.0 - np.exp(np.log(0.05) * 5.0 / 95.0)
        assert curve.values[94] == pytest.approx(expected_95, abs=1e-12)
        assert expected_95 == pytest.approx(0.1459, abs=5e-5)
        assert curve.values[95] == 0.0  # t=96, past the trailing bound

    def test_nonincreasing_everywhere(self):
        for length, beta in ((100, 0.05), (37, 0.2), (5, 0.3)):
            curve = exponential_target_hi(length, beta)
            assert np.all(np.diff(curve.values) <= 1e-15)

    def test_discontinuity_preserved(self):
        curve = exponential_target_hi(100, beta=0.05)
        # the formula value just inside the bound stays well above the 0 tail
        assert curve.values[94] > 0.14
        assert curve.values[95] == 0.0

    def test_invalid_beta_rejected(self):
        for beta in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                exponential_target_hi(50, beta)

    @given(st.integers(1, 200), st.floats(0.01, 0.49))
    @settings(max_examples=60, deadline=None)
    def test_values_in_unit_interval(self, length, beta):
        curve = exponential_target_hi(length, beta)
        assert curve.length == length
        assert np.all(curve.values >= 0.0) and np.all(curve.values <= 1.0)


class TestLinearTargetHi:
    def test_two_cycle_endpoints(self):
        np.testing.assert_array_equal(linear_target_hi(2).values, [1.0, 0.0])

    def test_midpoint(self):
        assert linear_target_hi(5).values[2] == pytest.approx(0.5, abs=1e-12)
        assert linear_target_hi(101).values[50] == pytest.approx(0.5, abs=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            linear_target_hi(1)


class TestEndpointTargets:
    def test_default_fractions(self):
        idx, values = endpoint_targets(100, 0.05, 0.05)
        np.testing.assert_array_equal(idx[:5], np.arange(5))
        np.testing.assert_array_equal(idx[5:], np.arange(95, 100))
        np.testing.assert_array_equal(values, [1.0] * 5 + [0.0] * 5)

    def test_minimum_one_cycle_each(self):
        idx, values = endpoint_targets(10, 0.001, 0.001)
        np.testing.assert_array_equal(idx, [0, 9])
        np.testing.assert_array_equal(values, [1.0, 0.0])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            endpoint_targets(3, 0.9, 0.9)


class TestFracCount:
    def test_float_boundary_is_tolerant(self):
        # 0.05 * 100 is 5.000000000000001 in binary; must still count as 5
        assert frac_count(0.05, 100) == 5
        assert frac_count(0.2, 10) == 2
        assert frac_count(0.05, 90) == 5  # 4.5 rounds up
        assert frac_count(0.0, 50) == 1


class TestFitHiModel:
    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(0)
        derived = [rng.uniform(-1, 1, size=(20, 2)) for _ in range(3)]
        theta = np.array([0.4, -0.3])
        targets = [HiCurve(values=z @ theta + 0.55) for z in derived]
        model = fit_hi_model(derived, targets)
        np.testing.assert_allclose(model.theta, theta, atol=1e-8)
        assert model.theta0 == pytest.approx(0.55, abs=1e-8)

    def test_scalar_regression_matches_hand_solution(self):
        derived = [np.array([[1.0], [2.0], [3.0]])]
        targets = [HiCurve(values=np.array([2.0, 4.0, 6.0]))]
        model = fit_hi_model(derived, targets)
        assert model.theta[0] == pytest.approx(2.0, abs=1e-10)
        assert model.theta0 == pytest.approx(0.0, abs=1e-10)

    def test_instance_order_invariant(self):
        rng = np.random.default_rng(1)
        derived = [rng.uniform(-1, 1, size=(rng.integers(5, 15), 2)) for _ in range(4)]
        targets = [HiCurve(values=rng.uniform(0, 1, size=z.shape[0])) for z in derived]
        a = fit_hi_model(derived, targets)
        b = fit_hi_model(derived[::-1], targets[::-1])
        np.testing.assert_allclose(a.theta, b.theta, rtol=1e-9, atol=1e-12)
        assert a.theta0 == pytest.approx(b.theta0, rel=1e-9, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fit_hi_model(
                [np.zeros((3, 1))], [HiCurve(values=np.zeros(4))]
            )
        with pytest.raises(ValueError):
            fit_hi_model([np.zeros((3, 1))], [])


# finite readings with signed zeros and subnormals drawn often
_SMOOTH_ELEMENTS = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310]
)


class TestSmoothCurve:
    @given(arrays(np.float64, st.integers(0, 80), elements=_SMOOTH_ELEMENTS))
    def test_width_one_is_identity(self, values):
        # a new array, bytes and all, except that -0.0 becomes +0.0 as it
        # does in every wider window's mean
        got = smooth_curve(values, 1)
        assert got is not values
        assert got.tobytes() == np.where(values == 0.0, 0.0, values).tobytes()

    def test_interior_average_width_three(self):
        x = np.array([0.0, 3.0, 6.0, 9.0, 12.0])
        out = smooth_curve(x, 3)
        np.testing.assert_allclose(out[1:4], [3.0, 6.0, 9.0], atol=1e-12)
        # edges average over the available neighbors only
        assert out[0] == pytest.approx(1.5)
        assert out[4] == pytest.approx(10.5)

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            smooth_curve(np.zeros(3), 0)

    @given(
        arrays(np.float64, st.integers(0, 80), elements=_SMOOTH_ELEMENTS),
        st.integers(1, 25),
    )
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_per_cycle_loop(self, values, window):
        # bytes, not assert_array_equal, which takes -0.0 for 0.0
        got = smooth_curve(values, window)
        assert got.tobytes() == reference_smooth_curve(values, window).tobytes()


class TestHiCurveFinal:
    def test_constant_positive_predictions_become_ones(self):
        model = OlsModel(theta=np.zeros(2), theta0=0.8)
        derived = np.random.default_rng(0).uniform(size=(30, 2))
        curve = hi_curve(model, derived, smooth_window=5, init_frac=0.05)
        np.testing.assert_allclose(curve.values, np.ones(30), atol=1e-12)

    def test_near_zero_divisor_skips_scaling(self):
        model = OlsModel(theta=np.zeros(2), theta0=0.0)
        derived = np.zeros((10, 2))
        curve = hi_curve(model, derived, smooth_window=1, init_frac=0.05)
        assert np.all(np.isfinite(curve.values))
        np.testing.assert_array_equal(curve.values, np.zeros(10))

    def test_initial_health_divisor_window(self):
        # raw predictions 2.0 on the first five cycles, then 1.0: scaling by
        # the first-5 mean maps the head to 1 and the tail to 0.5
        model = OlsModel(theta=np.array([1.0]), theta0=0.0)
        derived = np.concatenate([np.full((5, 1), 2.0), np.full((95, 1), 1.0)])
        curve = hi_curve(model, derived, smooth_window=1, init_frac=0.05)
        np.testing.assert_allclose(curve.values[:5], 1.0, atol=1e-12)
        np.testing.assert_allclose(curve.values[5:], 0.5, atol=1e-12)

    def test_clipped_to_unit_interval(self):
        model = OlsModel(theta=np.array([10.0]), theta0=-2.0)
        derived = np.linspace(-3, 3, 50)[:, None]
        curve = hi_curve(model, derived, smooth_window=3, init_frac=0.1)
        assert np.all(curve.values >= 0.0) and np.all(curve.values <= 1.0)

    def test_empty_rejected(self):
        model = OlsModel(theta=np.array([1.0]), theta0=0.0)
        with pytest.raises(ValueError):
            hi_curve(model, np.zeros((0, 1)), smooth_window=1, init_frac=0.05)
