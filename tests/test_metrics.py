"""Tests for the evaluation metrics.

The partition property (accurate + false positive + false negative covers
every record exactly once) is checked on the integer counts, where it is
exact by construction, and on the percentage identity to float precision.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edhi.metrics import EvalRecord, full_report, outcome_counts, timeliness


def _rec(delta, actual=50.0, observed=100):
    return EvalRecord(predicted=actual + delta, actual=actual, observed_len=observed)


record_lists = st.lists(
    st.floats(-200, 200, allow_nan=False, width=64).map(_rec), min_size=1, max_size=40
)


class TestTimeliness:
    def test_all_exact_is_zero(self):
        assert timeliness([_rec(0.0)] * 5, 13, 10) == 0.0

    def test_late_by_tau2(self):
        assert timeliness([_rec(10.0)], 13, 10) == pytest.approx(
            np.e - 1.0, abs=1e-12
        )

    def test_early_by_tau1(self):
        assert timeliness([_rec(-13.0)], 13, 10) == pytest.approx(
            np.e - 1.0, abs=1e-12
        )

    def test_late_penalized_more_than_early(self):
        late = timeliness([_rec(12.0)], 13, 10)
        early = timeliness([_rec(-12.0)], 13, 10)
        assert late > early

    @given(record_lists)
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_zero_only_at_exact(self, records):
        s = timeliness(records, 13, 10)
        assert s >= 0.0
        if any(r.delta != 0 for r in records):
            assert s > 0.0

    def test_overflow_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert timeliness([_rec(1e6), _rec(0.0)], 13, 10) == math.inf
            assert timeliness([_rec(-1e6)], 13, 10) == math.inf

    def test_strictly_increasing_in_magnitude(self):
        for sign in (1.0, -1.0):
            scores = [
                timeliness([_rec(sign * mag)], 13, 10) for mag in (1, 5, 20, 80)
            ]
            assert all(a < b for a, b in zip(scores, scores[1:]))

    def test_invalid_taus_rejected(self):
        with pytest.raises(ValueError):
            timeliness([_rec(0.0)], 0, 10)
        for tau1, tau2 in ((math.nan, 10), (13, math.nan)):
            with pytest.raises(ValueError, match="must be > 0"):
                full_report([_rec(-40.0)], tau1, tau2)
        with pytest.raises(ValueError):
            timeliness([], 13, 10)


class TestAccuracy:
    def test_boundaries_are_closed(self):
        assert full_report([_rec(-13.0)], 13, 10).a == 100.0
        assert full_report([_rec(10.0)], 13, 10).a == 100.0
        assert full_report([_rec(-13.001)], 13, 10).a == 0.0
        assert full_report([_rec(11.0)], 13, 10).a == 0.0

    def test_two_of_three(self):
        records = [_rec(0.0), _rec(-20.0), _rec(5.0)]
        assert full_report(records, 13, 10).a == pytest.approx(200.0 / 3.0, abs=1e-9)


class TestErrorStats:
    def test_mae_mse(self):
        records = [_rec(3.0), _rec(-4.0)]
        report = full_report(records)
        assert report.mae == pytest.approx(3.5, abs=1e-12)
        assert report.mse == pytest.approx(12.5, abs=1e-12)

    def test_perfect_predictions(self):
        records = [_rec(0.0)] * 4
        report = full_report(records)
        assert (report.mae, report.mse, report.mape1, report.mape2) == pytest.approx(
            (0.0, 0.0, 0.0, 0.0)
        )

    def test_mape_denominators(self):
        records = [EvalRecord(predicted=60.0, actual=50.0, observed_len=150)]
        report = full_report(records)
        assert report.mape1 == pytest.approx(20.0, abs=1e-12)  # 10/50
        assert report.mape2 == pytest.approx(5.0, abs=1e-12)  # 10/200

    def test_zero_actual_makes_mape1_nan(self):
        records = [_rec(3.0), EvalRecord(predicted=5.0, actual=0.0, observed_len=10)]
        report = full_report(records)
        assert math.isnan(report.mape1)
        assert (report.mae, report.mse) == pytest.approx((4.0, 17.0), abs=1e-12)
        assert report.mape2 == pytest.approx(100 * (3 / 150 + 5 / 10) / 2, abs=1e-12)

    @given(record_lists)
    @settings(max_examples=40, deadline=None)
    def test_mse_dominates_mae_for_large_errors(self, records):
        if all(abs(r.delta) >= 1.0 for r in records):
            report = full_report(records)
            assert report.mse >= report.mae - 1e-12


class TestFpFnRates:
    def test_strict_inequalities(self):
        cases = {-14.0: (100.0, 0.0), -13.0: (0.0, 0.0), 11.0: (0.0, 100.0)}
        for delta, rates in cases.items():
            report = full_report([_rec(delta)], 13, 10)
            assert (report.fpr, report.fnr) == rates

    def test_one_each_of_three(self):
        records = [_rec(-20.0), _rec(0.0), _rec(15.0)]
        report = full_report(records, 13, 10)
        assert report.fpr == pytest.approx(100.0 / 3.0, abs=1e-9)
        assert report.fnr == pytest.approx(100.0 / 3.0, abs=1e-9)


class TestPartition:
    @given(record_lists, st.floats(0.5, 30), st.floats(0.5, 30))
    @settings(max_examples=200, deadline=None)
    def test_counts_partition_exactly(self, records, tau1, tau2):
        acc, fp, fn = outcome_counts(records, tau1, tau2)
        assert acc + fp + fn == len(records)

    @given(record_lists)
    @settings(max_examples=100, deadline=None)
    def test_percentages_sum_to_hundred(self, records):
        report = full_report(records, 13, 10)
        assert report.a + report.fpr + report.fnr == pytest.approx(100.0, abs=1e-9)


class TestFullReport:
    def test_fields_consistent(self):
        records = [_rec(3.0), _rec(-20.0), _rec(11.0), _rec(0.0)]
        report = full_report(records)
        assert report.n == 4
        assert report.tau1 == 13.0 and report.tau2 == 10.0
        assert report.a == pytest.approx(50.0)
        assert report.fpr == pytest.approx(25.0)
        assert report.fnr == pytest.approx(25.0)
        assert report.s == pytest.approx(timeliness(records, 13, 10))

    def test_renderings_carry_all_metrics(self):
        report = full_report([_rec(3.0), _rec(-2.0)])
        table = report.as_table()
        for token in ("S", "MAE", "MSE", "MAPE1", "FPR", "FNR"):
            assert token in table

    def test_zero_actual_makes_mape1_undefined(self):
        zero = EvalRecord(predicted=4.0, actual=0.0, observed_len=10)
        others = [_rec(3.0), _rec(-2.0)]
        report = full_report(others + [zero])
        assert math.isnan(report.mape1)
        assert report.mae == pytest.approx((3 + 2 + 4) / 3, abs=1e-12)
        assert report.mse == pytest.approx((9 + 4 + 16) / 3, abs=1e-12)
        assert report.mape2 == pytest.approx(100 * (3 / 150 + 2 / 150 + 4 / 10) / 3)
        assert report.n == 3
        assert "MAPE1 (%)  undefined" in report.as_table()

    def test_record_validation(self):
        with pytest.raises(ValueError):
            EvalRecord(predicted=1.0, actual=-1.0, observed_len=5)
        for observed_len in (0, math.nan):
            with pytest.raises(ValueError, match="observed length must be >= 1"):
                EvalRecord(predicted=1.0, actual=1.0, observed_len=observed_len)
        for actual in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="actual RUL must be finite and >= 0"):
                EvalRecord(1.0, actual, 5)
        with pytest.raises(ValueError, match="predicted RUL must not be NaN"):
            EvalRecord(math.nan, 4.0, 5)

    def test_nan_record_cannot_count_as_accurate(self):
        # a NaN delta falls in neither tail, so it would read as accurate
        with pytest.raises(ValueError):
            full_report([EvalRecord(10.0, math.nan, 5), EvalRecord(3.0, 4.0, 5)])

    def test_infinite_predicted_is_late(self):
        report = full_report([EvalRecord(math.inf, 4.0, 5)])
        assert (report.a, report.fnr, report.s) == (0.0, 100.0, math.inf)
