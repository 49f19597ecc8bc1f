"""Health-index construction.

Target HI curves come from one of five sources: reconstruction error of the
trained encoder-decoder (plain or squared, normalized to [0,1]), an assumed
exponential or linear degradation shape, or endpoint labels (healthy start 1,
failed end 0, middle unlabeled). A linear model fitted against the target
maps derived sensors to HI for any instance; final curves are smoothed,
scaled by initial health, and clipped.

A build reconstructs all its fitting units in one call
(pointwise_reconstructions). Consecutive units share one encoder-decoder
pass while their windows' gate block fits in _GROUP_BYTES, so small units
share numpy's per-call cost; every unit's reconstruction is bit for bit
that of the unit reconstructed alone.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .lstm import LstmEdModel, decode_infer, encode
from .numerics import OlsModel, ols_fit, ols_predict

# guards against float dust: a spread or divisor below this is degenerate
_DEGENERATE_EPS = 1e-12
# fraction-of-length boundaries computed with this slack so that e.g.
# 0.05 * 100 counts as exactly 5 cycles despite float rounding
_FRAC_TOL = 1e-9
# The largest (4c, B) gate block, in bytes, that consecutive series share in
# one reconstruction pass (pointwise_reconstructions): 2048 windows at c=8
# and 546 at c=30 in float32. A full group's buffers take about six times
# its gate block. Of 64 KiB to 1 MiB, 256 KiB reconstructed FD001-shaped
# units (c=30) fastest, and one unbounded group took 1.5x as long.
_GROUP_BYTES = 256 * 1024


@dataclass(frozen=True, eq=False)
class HiCurve:
    """Per-cycle health values for one instance, cycle t at values[t-1].

    Compared by identity; compare ``values`` with ``np.array_equal`` instead.
    """

    values: np.ndarray

    @property
    def length(self) -> int:
        return self.values.shape[0]


def frac_count(frac: float, length: int) -> int:
    """Cycles in a leading/trailing fraction of an instance, at least 1."""
    return max(1, math.ceil(frac * length - _FRAC_TOL))


def _series_of(series, l: int) -> np.ndarray:
    """``series`` as a float64 (L, p) array with L >= l >= 1.

    Raises:
        ValueError: If the series is not 2-D, l < 1, or L < l.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"series must be 2-D, got shape {x.shape}")
    if l < 1:
        raise ValueError("window length must be >= 1")
    big_l = x.shape[0]
    if big_l < l:
        raise ValueError(f"series has {big_l} cycles, shorter than window length {l}")
    return x


def sliding_windows(series: np.ndarray, l: int) -> list[tuple[int, np.ndarray]]:
    """All length-l windows at stride 1, with 1-based start cycles.

    Args:
        series: Shape (L, p) with L >= l.
        l: Window length, >= 1.

    Returns:
        L - l + 1 pairs (start, window), starts running 1..L-l+1.

    Raises:
        ValueError: If the series is shorter than l.
    """
    x = _series_of(series, l)
    return [(s + 1, x[s : s + l]) for s in range(x.shape[0] - l + 1)]


def pointwise_reconstruction(model: LstmEdModel, series: np.ndarray) -> np.ndarray:
    """Reconstruct a whole series by averaging overlapping window decodes.

    Every window is encoded and regenerated autoregressively; each cycle's
    final reconstruction is the mean over all windows covering it (interior
    cycles: exactly l windows; cycles near either edge: fewer). The
    one-series call of pointwise_reconstructions.

    Args:
        model: Trained encoder-decoder.
        series: Shape (L, p) with L >= model.window_len.

    Returns:
        Shape (L, p) averaged reconstruction, float64 whatever the model's
        dtype.

    Raises:
        ValueError: If the series is not 2-D or is shorter than the window.
    """
    (recon,) = pointwise_reconstructions(model, [series])
    return recon


def pointwise_reconstructions(
    model: LstmEdModel, series_list: list[np.ndarray]
) -> list[np.ndarray]:
    """pointwise_reconstruction of each series, in order, in shared passes.

    Every series is checked, in order, before any is reconstructed, so the
    first bad one raises. Consecutive series then share one encode and one
    decode_infer pass while their windows' (4c, B) gate block stays within
    _GROUP_BYTES; a series too large for it runs alone. In a shared pass,
    each step's elementwise work runs once over the group and its GEMMs once
    per series, on that series' columns, so every result is bit for bit
    that of the series reconstructed alone.

    Raises:
        ValueError: If a series is not 2-D or is shorter than the window.
    """
    l = model.window_len
    xs = [_series_of(series, l) for series in series_list]
    window_bytes = 4 * model.hidden_units * model.params.dtype.itemsize
    recons = []
    for group in _groups(xs, l, window_bytes):
        recons.extend(_group_reconstructions(model, group))
    return recons


def _groups(
    xs: list[np.ndarray], l: int, window_bytes: int
) -> Iterator[list[np.ndarray]]:
    """Runs of consecutive series whose windows take at most _GROUP_BYTES
    at ``window_bytes`` each; a series over the budget is a run alone.

    A one-window series is a run alone too: its GEMMs are matrix-vector
    products, which on a column strided by a group's width can give other
    bits than on a contiguous one.
    """
    group: list[np.ndarray] = []
    width = 0
    for x in xs:
        n_windows = x.shape[0] - l + 1
        full = (width + n_windows) * window_bytes > _GROUP_BYTES
        if group and (full or 1 in (width, n_windows)):
            yield group
            group, width = [], 0
        group.append(x)
        width += n_windows
    if group:
        yield group


def _group_reconstructions(
    model: LstmEdModel, group: list[np.ndarray]
) -> list[np.ndarray]:
    """Each checked series' reconstruction, from one pass over the group.

    A function of its own, so that one group's buffers are freed before the
    next group's are made.
    """
    l = model.window_len
    # every window of a series as one (L-l+1, l, p) view in the model's
    # dtype; the encoder copies its input into its own buffer, so a lone
    # series is never stacked, and a group's stacked windows are bounded by
    # the budget
    views = []
    for x in group:
        x_model = x.astype(model.params.dtype, copy=False)
        views.append(sliding_window_view(x_model, l, axis=0).transpose(0, 2, 1))
    batch = views[0] if len(views) == 1 else np.concatenate(views)
    cuts = tuple(accumulate((view.shape[0] for view in views), initial=0))
    state = encode(model, batch, _cuts=cuts)
    preds = decode_infer(model, state, steps=l, _cuts=cuts)
    recons = []
    for x, lo, hi in zip(group, cuts, cuts[1:]):
        sums = np.zeros((x.shape[0], model.input_dim))
        counts = np.zeros(x.shape[0])
        # row j of every window at once; descending j adds each cycle's
        # windows in start order, the order a per-window loop would use
        for j in range(l - 1, -1, -1):
            sums[j : j + hi - lo] += preds[lo:hi, j]
            counts[j : j + hi - lo] += 1.0
        recons.append(sums / counts[:, None])
    return recons


def reconstruction_error(actual: np.ndarray, reconstructed: np.ndarray) -> np.ndarray:
    """Per-cycle Euclidean distance between actual and reconstructed rows.

    Raises:
        ValueError: On shape mismatch.
    """
    a = np.asarray(actual, dtype=np.float64)
    r = np.asarray(reconstructed, dtype=np.float64)
    if a.shape != r.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {r.shape}")
    return np.linalg.norm(a - r, axis=1)


def target_hi_from_error(errors: np.ndarray, squared: bool) -> HiCurve:
    """Normalize an error series to a target HI: worst error 0, best error 1.

    h_t = (e_M - e_t) / (e_M - e_m), applied to the squared errors (with
    their own extremes) when ``squared``. A flat error series carries no
    degradation signal and maps to all ones.

    Raises:
        ValueError: On an empty series.
    """
    e = np.asarray(errors, dtype=np.float64)
    if e.shape[0] == 0:
        raise ValueError("empty error series")
    if squared:
        e = e * e
    top = float(np.max(e))
    bot = float(np.min(e))
    if top - bot < _DEGENERATE_EPS:
        return HiCurve(values=np.ones_like(e))
    return HiCurve(values=(top - e) / (top - bot))


def exponential_target_hi(length: int, beta: float) -> HiCurve:
    """Assumed exponential degradation shape over cycles 1..L.

    Cycles strictly before beta*L get 1; cycles strictly after (1-beta)*L get
    0; between the two bounds (inclusive) the value is
    1 - exp(ln(beta) * (L - t) / ((1 - beta) * L)). The jump at the upper
    bound is part of the shape and deliberately kept.

    Raises:
        ValueError: If beta is outside (0, 1) or length < 1.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0,1), got {beta}")
    if length < 1:
        raise ValueError("length must be >= 1")
    t = np.arange(1, length + 1, dtype=np.float64)
    lo = beta * length
    hi = (1.0 - beta) * length
    values = 1.0 - np.exp(np.log(beta) * (length - t) / ((1.0 - beta) * length))
    values[t < lo - _FRAC_TOL] = 1.0
    values[t > hi + _FRAC_TOL] = 0.0
    return HiCurve(values=values)


def linear_target_hi(length: int) -> HiCurve:
    """Linear ramp from 1 at the first cycle to 0 at the last.

    Raises:
        ValueError: If length < 2 (the ramp needs two distinct endpoints).
    """
    if length < 2:
        raise ValueError("length must be >= 2")
    t = np.arange(1, length + 1, dtype=np.float64)
    return HiCurve(values=(length - t) / (length - 1.0))


def endpoint_targets(
    length: int, healthy_frac: float, faulty_frac: float
) -> tuple[np.ndarray, np.ndarray]:
    """Cycle labels for the endpoint variant: leading 1s, trailing 0s.

    Returns 0-based row indices of the labeled cycles and their target
    values; the unlabeled middle is meant to be excluded from fitting.

    Raises:
        ValueError: If the two labeled ranges would overlap.
    """
    n_healthy = frac_count(healthy_frac, length)
    n_faulty = frac_count(faulty_frac, length)
    if n_healthy + n_faulty > length:
        raise ValueError(
            f"endpoint fractions overlap: {n_healthy} healthy + {n_faulty} faulty"
            f" cycles exceed length {length}"
        )
    idx = np.concatenate(
        [np.arange(n_healthy), np.arange(length - n_faulty, length)]
    )
    values = np.concatenate([np.ones(n_healthy), np.zeros(n_faulty)])
    return idx, values


def fit_hi_model(derived: list[np.ndarray], targets: list[HiCurve]) -> OlsModel:
    """Fit the linear HI map on all cycles of all instances pooled.

    Args:
        derived: Per-instance derived-sensor matrices, each (L_u, p).
        targets: Per-instance target curves with matching lengths.

    Returns:
        Least-squares model mapping a derived row to an HI value.

    Raises:
        ValueError: On count or length mismatches.
    """
    if len(derived) != len(targets):
        raise ValueError(
            f"{len(derived)} derived series but {len(targets)} target curves"
        )
    if not derived:
        raise ValueError("no instances to fit")
    rows = []
    vals = []
    for k, (z, h) in enumerate(zip(derived, targets)):
        z = np.asarray(z, dtype=np.float64)
        if z.shape[0] != h.length:
            raise ValueError(
                f"instance {k}: {z.shape[0]} cycles but target length {h.length}"
            )
        rows.append(z)
        vals.append(h.values)
    return ols_fit(np.concatenate(rows, axis=0), np.concatenate(vals))


def smooth_curve(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average; the window shrinks near the edges.

    Every width runs the same sums, width 1 included: each value comes back
    in a new array as 0.0 + value, so an exact -0.0 reads +0.0 at every width.
    """
    if window < 1:
        raise ValueError("smoothing window must be >= 1")
    half_lo = (window - 1) // 2
    half_hi = window // 2
    out = np.empty_like(values)
    n = values.shape[0]
    if n >= window:
        # the window sums of np.mean without its per-call checks: one add
        # reduce over a strided view of every full window, then / window
        # (not shifted-slice sums: those differ in the last bit from window 8)
        (stride,) = values.strides
        windows = as_strided(
            values, (n - window + 1, window), (stride, stride), writeable=False
        )
        out[half_lo : n - half_hi] = np.add.reduce(windows, axis=-1) / window
    # only the cycles whose window is cut by an edge remain; sum / count is
    # np.mean's own arithmetic without its per-call overhead
    edges = chain(range(min(half_lo, n)), range(max(half_lo, n - half_hi), n))
    for t in edges:
        seg = values[max(0, t - half_lo) : t + half_hi + 1]
        out[t] = np.add.reduce(seg) / seg.shape[0]
    return out


def hi_curve(
    model: OlsModel,
    derived: np.ndarray,
    smooth_window: int,
    init_frac: float,
) -> HiCurve:
    """Final HI curve: predict, smooth, scale by initial health, clip.

    The smoothed predictions are divided by the mean of their first
    ceil(init_frac * L) values so every instance starts near full health;
    a near-zero divisor skips the scaling rather than exploding. Values are
    clipped to [0, 1] last.

    Args:
        model: Fitted linear HI map.
        derived: Shape (L, p) derived sensors for one instance.
        smooth_window: Moving-average width; 1 disables smoothing.
        init_frac: Fraction of leading cycles that define initial health.

    Returns:
        HiCurve of length L.

    Raises:
        ValueError: On an empty series.
    """
    z = np.asarray(derived, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] == 0:
        raise ValueError("derived series must be a nonempty matrix")
    raw = ols_predict(model, z)
    smoothed = smooth_curve(raw, smooth_window)  # a new array, changed in place
    k = frac_count(init_frac, smoothed.shape[0])
    divisor = float(smoothed[:k].sum() / k)
    if abs(divisor) >= _DEGENERATE_EPS:
        smoothed /= divisor
    return HiCurve(values=np.clip(smoothed, 0.0, 1.0, out=smoothed))
