"""Tests for normalization, PCA, and OLS.

The OLS oracle is the textbook closed form (A^T A)^{-1} A^T y evaluated with
an explicit inverse, independent of the solve path used by the implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from edhi.numerics import (
    apply_norm,
    fit_norm_stats,
    ols_fit,
    ols_predict,
    pca_fit,
    pca_transform,
)


def _ols_oracle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    a = np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)
    return np.linalg.inv(a.T @ a) @ (a.T @ y)


# matrices with enough rows and bounded entries so covariance is well behaved
def _matrix_strategy(min_rows=4, max_rows=12, min_cols=2, max_cols=4):
    return st.integers(min_rows, max_rows).flatmap(
        lambda n: st.integers(min_cols, max_cols).flatmap(
            lambda d: arrays(
                np.float64,
                (n, d),
                elements=st.floats(-50, 50, allow_nan=False, width=64),
            )
        )
    )


class TestNormStats:
    def test_pooled_mean_and_population_std(self):
        stats = fit_norm_stats([np.array([[1.0], [2.0]]), np.array([[3.0]])])
        assert stats.mean[0] == pytest.approx(2.0)
        assert stats.std[0] == pytest.approx(np.sqrt(2.0 / 3.0))
        assert stats.dropped == ()

    def test_apply_norm_values(self):
        stats = fit_norm_stats([np.array([[1.0], [2.0], [3.0]])])
        out = apply_norm(np.array([[1.0], [2.0], [3.0]]), stats)
        expected = np.array([[-1.2247448713915892], [0.0], [1.2247448713915892]])
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_constant_sensor_dropped(self):
        data = np.column_stack([np.full(5, 7.0), np.arange(5.0)])
        stats = fit_norm_stats([data])
        assert stats.dropped == (0,)
        assert stats.kept == (1,)
        out = apply_norm(data, stats)
        assert out.shape == (5, 1)

    def test_near_constant_sensor_dropped_by_relative_tolerance(self):
        # ulp-level jitter around a large constant still counts as constant
        col = np.full(6, 1e6)
        col[3] = np.nextafter(1e6, 2e6)
        data = np.column_stack([col, np.arange(6.0)])
        stats = fit_norm_stats([data])
        assert 0 in stats.dropped

    def test_sensor_count_mismatch_rejected(self):
        stats = fit_norm_stats([np.zeros((3, 2)) + np.arange(3.0)[:, None]])
        with pytest.raises(ValueError):
            apply_norm(np.zeros((3, 3)), stats)
        with pytest.raises(ValueError, match=r"^series must be 2-D, got shape \(3,\)$"):
            apply_norm(np.zeros(3), stats)
        with pytest.raises(ValueError):
            fit_norm_stats([np.zeros((2, 2)), np.zeros((2, 3))])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            fit_norm_stats([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fit_norm_stats([np.array([[1.0], [np.nan]])])

    @given(_matrix_strategy())
    @settings(max_examples=60, deadline=None)
    def test_fit_data_has_zero_mean_unit_variance(self, data):
        stats = fit_norm_stats([data])
        out = apply_norm(data, stats)
        if out.shape[1] == 0:
            return
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-6)

    @given(_matrix_strategy())
    @settings(max_examples=30, deadline=None)
    def test_fit_is_bit_reproducible(self, data):
        a = fit_norm_stats([data])
        b = fit_norm_stats([data.copy()])
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.std, b.std)
        assert a.dropped == b.dropped


class TestPca:
    def test_perfectly_correlated_pair(self):
        data = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        model = pca_fit(data, p=1)
        np.testing.assert_allclose(
            model.components[0], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-12
        )

    def test_transform_is_uncentered_linear_map(self):
        data = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        model = pca_fit(data, p=1)
        out = pca_transform(np.zeros((2, 2)), model)
        np.testing.assert_array_equal(out, np.zeros((2, 1)))
        one = pca_transform(np.array([[1.0, 1.0]]), model)
        assert one[0, 0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
        with pytest.raises(ValueError, match="^input has 3 columns, model expects 2$"):
            pca_transform(np.zeros((2, 3)), model)

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(40, 3))
        model = pca_fit(data, p=3)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_inverse_transform_round_trip_full_rank(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(30, 4))
        model = pca_fit(data, p=4)
        z = pca_transform(data, model)
        np.testing.assert_allclose(z @ model.components, data, atol=1e-10)

    def test_p_out_of_range_rejected(self):
        data = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(ValueError):
            pca_fit(data, p=0)
        with pytest.raises(ValueError):
            pca_fit(data, p=4)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            pca_fit(np.ones((1, 3)), p=1)

    @given(_matrix_strategy(min_rows=6, max_rows=20, min_cols=2, max_cols=4))
    @settings(max_examples=40, deadline=None)
    def test_components_orthonormal(self, data):
        d = data.shape[1]
        model = pca_fit(data, p=d)
        gram = model.components @ model.components.T
        np.testing.assert_allclose(gram, np.eye(d), atol=1e-8)

    def test_projected_training_data_decorrelated(self):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(200, 4)) @ rng.normal(size=(4, 4))
        centered = base - base.mean(axis=0)
        model = pca_fit(centered, p=4)
        z = pca_transform(centered, model)
        cov = np.cov(z, rowvar=False, ddof=1)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 1e-8
        diag = np.diag(cov)
        assert np.all(np.diff(diag) <= 1e-8)  # descending variance order

    @given(_matrix_strategy(min_rows=6, max_rows=15))
    @settings(max_examples=30, deadline=None)
    def test_fit_is_bit_reproducible(self, data):
        a = pca_fit(data, p=data.shape[1])
        b = pca_fit(data.copy(), p=data.shape[1])
        assert np.array_equal(a.components, b.components)


class TestOls:
    def test_exact_line(self):
        z = np.array([[1.0], [2.0], [3.0]])
        h = np.array([2.0, 4.0, 6.0])
        model = ols_fit(z, h)
        assert model.theta[0] == pytest.approx(2.0, abs=1e-10)
        assert model.theta0 == pytest.approx(0.0, abs=1e-10)

    def test_matches_explicit_normal_equations(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(40, 3))
        y = x @ np.array([1.5, -2.0, 0.5]) + 3.0 + rng.normal(scale=0.1, size=40)
        model = ols_fit(x, y)
        oracle = _ols_oracle(x, y)
        np.testing.assert_allclose(model.theta, oracle[:3], atol=1e-8)
        assert model.theta0 == pytest.approx(oracle[3], abs=1e-8)

    def test_predict_rows(self):
        model = ols_fit(np.array([[1.0], [2.0], [3.0]]), np.array([2.0, 4.0, 6.0]))
        out = ols_predict(model, np.array([[1.0], [5.0]]))
        np.testing.assert_allclose(out, [2.0, 10.0], atol=1e-9)
        assert ols_predict(model, np.array([[5.0]])).shape == (1,)

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError, match="underdetermined"):
            ols_fit(np.ones((2, 2)), np.ones(2))

    def test_collinear_inputs_fall_back_to_ridge(self):
        # duplicate column makes the Gram matrix singular
        x = np.column_stack([np.arange(6.0), np.arange(6.0)])
        y = np.arange(6.0) * 3.0 + 1.0
        model = ols_fit(x, y)
        pred = ols_predict(model, x)
        np.testing.assert_allclose(pred, y, atol=1e-3)

    def test_dimension_mismatch_rejected(self):
        model = ols_fit(np.array([[1.0], [2.0], [3.0]]), np.array([2.0, 4.0, 6.0]))
        with pytest.raises(ValueError, match=r"shape \(N, 1\), got \(1, 2\)"):
            ols_predict(model, np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match=r"shape \(N, 1\), got \(1,\)"):
            ols_predict(model, np.array([5.0]))
        with pytest.raises(ValueError):
            ols_fit(np.ones((3, 1)), np.ones(4))
        with pytest.raises(ValueError, match="^targets contain non-finite values$"):
            ols_fit(np.arange(3.0)[:, None], np.array([1.0, np.nan, 2.0]))

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
        st.integers(8, 30),
    )
    @settings(max_examples=40, deadline=None)
    def test_residual_orthogonal_to_inputs(self, seed, p, n):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        model = ols_fit(x, y)
        resid = y - ols_predict(model, x)
        a = np.concatenate([x, np.ones((n, 1))], axis=1)
        assert np.max(np.abs(a.T @ resid)) < 1e-6 * max(1.0, np.abs(y).max()) * n
