"""Dense numerics shared by the whole pipeline.

Pooled z-normalization statistics, PCA-derived sensors, and ordinary least
squares. Everything is float64 and deterministic: fitting the same data twice
yields bit-identical models, which the pipeline's reproducibility contract
depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# A pooled-constant sensor can land a few ulp away from zero variance, so
# "zero variance" is relative to the sensor's scale.
_ZERO_STD_RTOL = 1e-12


def _as_float_matrix(x, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class NormStats:
    """Per-sensor pooled mean/std plus the indices of zero-variance sensors.

    Compared by identity: mean and std are arrays.

    Attributes:
        mean: Pooled mean per original sensor, shape (m,).
        std: Pooled population standard deviation per original sensor, shape (m,).
        dropped: Sorted indices of sensors with zero pooled variance; these are
            removed by :func:`apply_norm` before any downstream step sees them.
    """

    mean: np.ndarray
    std: np.ndarray
    dropped: tuple[int, ...]

    @property
    def n_sensors(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def kept(self) -> tuple[int, ...]:
        """Indices of the retained sensors, ascending; computed once."""
        dropped = set(self.dropped)
        return tuple(j for j in range(self.n_sensors) if j not in dropped)

    @cached_property
    def _kept_index(self) -> np.ndarray:
        """``kept`` as an index array, so a gather converts no tuple."""
        return np.array(self.kept, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class PcaModel:
    """Orthonormal principal directions over the retained sensors.

    Compared by identity.

    Attributes:
        components: Shape (p, d); row k is the k-th principal direction,
            ordered by descending eigenvalue of the sample covariance.
    """

    components: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.components.shape[1]


@dataclass(frozen=True, eq=False)
class OlsModel:
    """Affine map from derived sensors to a scalar: theta @ z + theta0.

    Compared by identity.
    """

    theta: np.ndarray
    theta0: float


def fit_norm_stats(train: list[np.ndarray]) -> NormStats:
    """Fit pooled per-sensor normalization statistics over all cycles of all instances.

    The mean and standard deviation for sensor j are computed over every cycle
    of every training instance pooled together (population convention, divide
    by N). Sensors whose pooled variance is zero are recorded in ``dropped``.

    Multi-regime note: when several operating modes exist, fit one NormStats
    per mode by partitioning the cycles before calling this; no regime
    detection is built in.

    Args:
        train: List of instance series, each shape (L_u, m) with a common m.

    Returns:
        NormStats over the pooled cycles.

    Raises:
        ValueError: On empty input or inconsistent sensor counts.
    """
    if not train:
        raise ValueError("no training data")
    mats = [_as_float_matrix(x, f"instance {k}") for k, x in enumerate(train)]
    m = mats[0].shape[1]
    for k, mat in enumerate(mats):
        if mat.shape[1] != m:
            raise ValueError(
                f"instance {k} has {mat.shape[1]} sensors, expected {m}"
            )
    pooled = np.concatenate(mats, axis=0)
    mean = pooled.mean(axis=0)
    std = pooled.std(axis=0)  # population: divide by N
    tol = _ZERO_STD_RTOL * np.maximum(1.0, np.abs(mean))
    dropped = tuple(int(j) for j in np.nonzero(std <= tol)[0])
    return NormStats(mean=mean, std=std, dropped=dropped)


def apply_norm(series: np.ndarray, stats: NormStats) -> np.ndarray:
    """Z-normalize one instance's series and drop the zero-variance sensors.

    Each retained entry becomes (x - mean_j) / std_j.

    Args:
        series: Shape (L, m) with m matching the fitted sensor count.
        stats: Fitted statistics.

    Returns:
        Shape (L, m - len(dropped)) normalized matrix.

    Raises:
        ValueError: If the sensor count does not match the statistics.
    """
    x = _as_float_matrix(series, "series")
    if x.shape[1] != stats.n_sensors:
        raise ValueError(
            f"series has {x.shape[1]} sensors, stats were fit on {stats.n_sensors}"
        )
    # a column gather even when no sensor is dropped: its Fortran-ordered
    # result feeds np.cov in pca_fit, where a C-ordered array of the same
    # values gives other PCA bits, and so other pipeline bytes
    keep = stats._kept_index
    return (x[:, keep] - stats.mean[keep]) / stats.std[keep]


def pca_fit(normalized: np.ndarray, p: int) -> PcaModel:
    """Fit the top-p principal directions of the sample covariance.

    Components are eigenvectors of the sample covariance (ddof=1) ordered by
    descending eigenvalue. Eigenvector sign is fixed by making the
    largest-magnitude entry of each component positive, so refits are
    bit-reproducible.

    Args:
        normalized: Shape (L, d), typically the z-normalized training pool.
        p: Number of components to keep, 1 <= p <= d.

    Returns:
        PcaModel with orthonormal ``components`` of shape (p, d).

    Raises:
        ValueError: If p is out of range or there are fewer than 2 rows.
    """
    x = _as_float_matrix(normalized, "normalized")
    n, d = x.shape
    if n < 2:
        raise ValueError(f"need at least 2 rows to estimate covariance, got {n}")
    if not 1 <= p <= d:
        raise ValueError(f"p={p} out of range [1, {d}]")
    cov = np.cov(x, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    evals, evecs = np.linalg.eigh(cov)  # ascending eigenvalues
    order = np.argsort(evals)[::-1][:p]
    comps = evecs[:, order].T.copy()
    for k in range(p):
        j = int(np.argmax(np.abs(comps[k])))
        if comps[k, j] < 0:
            comps[k] = -comps[k]
    return PcaModel(components=comps)


def pca_transform(normalized: np.ndarray, model: PcaModel) -> np.ndarray:
    """Project rows onto the fitted principal directions (pure linear map).

    Args:
        normalized: Shape (L, d) with d matching the model.
        model: Fitted PCA model.

    Returns:
        Shape (L, p) derived-sensor series.

    Raises:
        ValueError: On column-count mismatch.
    """
    x = _as_float_matrix(normalized, "normalized")
    if x.shape[1] != model.input_dim:
        raise ValueError(
            f"input has {x.shape[1]} columns, model expects {model.input_dim}"
        )
    return x @ model.components.T


def ols_fit(inputs: np.ndarray, targets: np.ndarray) -> OlsModel:
    """Least-squares fit of targets = theta @ z + theta0 via normal equations.

    A Tikhonov fallback (1e-10 on the Gram diagonal) kicks in when the Gram
    matrix is numerically singular, which happens on collinear derived sensors.

    Args:
        inputs: Shape (N, p) derived-sensor rows.
        targets: Shape (N,) target values, one per row.

    Returns:
        Fitted OlsModel.

    Raises:
        ValueError: On shape mismatch or an underdetermined system (N < p + 1).
    """
    x = _as_float_matrix(inputs, "inputs")
    y = np.asarray(targets, dtype=np.float64).reshape(-1)
    n, p = x.shape
    if y.shape[0] != n:
        raise ValueError(f"{n} input rows but {y.shape[0]} targets")
    if not np.all(np.isfinite(y)):
        raise ValueError("targets contain non-finite values")
    if n < p + 1:
        raise ValueError(f"underdetermined: {n} rows for {p + 1} unknowns")
    a = np.concatenate([x, np.ones((n, 1))], axis=1)
    gram = a.T @ a
    rhs = a.T @ y
    try:
        sol = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        sol = None
    if sol is None or not np.all(np.isfinite(sol)):
        sol = np.linalg.solve(gram + 1e-10 * np.eye(p + 1), rhs)
    return OlsModel(theta=sol[:p], theta0=float(sol[p]))


def ols_predict(model: OlsModel, z: np.ndarray) -> np.ndarray:
    """Evaluate theta @ z + theta0, unclipped, for each row of an (N, p) z.

    Raises:
        ValueError: On any other shape.
    """
    arr = np.asarray(z, dtype=np.float64)
    p = model.theta.shape[0]
    if arr.ndim != 2 or arr.shape[1] != p:
        raise ValueError(f"input must have shape (N, {p}), got {arr.shape}")
    return arr @ model.theta + model.theta0
