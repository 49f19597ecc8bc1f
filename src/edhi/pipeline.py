"""End-to-end orchestration: build, evaluate, predict, sweep.

Building a pipeline runs the full recipe: split instances, fit pooled
normalization and PCA on the fitting split, train the encoder-decoder on
healthy windows, in float32 (only for the reconstruction-error HI variants,
the ones that read it), construct target HI curves, fit the linear HI map, and
store the fitting split's final curves as the matching library. Validation
instances steer early stopping and sweep scoring, so their curves stay out
of the library. Every stage failure is re-raised with the stage's name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig, SweepGrid, apply_overrides, build_key
from .data import RunToFailureDataset, truncate_at_fracs
from .health import (
    HiCurve,
    endpoint_targets,
    exponential_target_hi,
    fit_hi_model,
    frac_count,
    hi_curve,
    linear_target_hi,
    # unused here: builds reconstruct through pointwise_reconstructions, so
    # no build calls this name, and perfbench's traced health.recon_s and
    # health.recon_windows, which wrap it, read 0 (ROADMAP items 6 and 18)
    pointwise_reconstruction,
    pointwise_reconstructions,
    reconstruction_error,
    sliding_windows,
    target_hi_from_error,
)
from .lstm import LstmEdModel, TrainResult, train
from .matching import (
    Candidates,
    Library,
    Pairs,
    RulEstimate,
    alpha_cut,
    candidate_estimates,
    estimate_rul,
    pair_distances,
    pairs_within,
    weigh_pairs,
    weighted_rul,
)
from .metrics import EvalRecord, MetricsReport, full_report, timeliness
from .numerics import apply_norm, fit_norm_stats, ols_fit, pca_fit, pca_transform
from .persist import PipelineBundle

# the five validation truncation locations used for sweep scoring
SWEEP_TRUNCATION_FRACS = tuple(np.linspace(0.20, 0.96, 5))
# target HI variants built from the encoder-decoder's reconstruction error
_RECON_VARIANTS = ("recon_error", "recon_error_squared")
# The dtype a build trains and reconstructs in. The encoder-decoder only
# supplies a reconstruction error, normalised per unit into a target HI, so
# float32 loses no held-out quality (tests/test_acceptance.py checks it
# against float64) and trains about 1.8x faster on the FD001-shaped fleet.
_LSTM_DTYPE = np.float32


class StageError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"{stage}: {message}")
        self.stage = stage


@dataclass(frozen=True)
class BuildInfo:
    """What happened during a build, beyond the bundle itself.

    The trained encoder-decoder lives here (``train_result.model``), not in
    the bundle: it only supplies the target HI curves, and scoring never
    reads it. ``train_result`` is None for the ``exponential``, ``linear``
    and ``endpoints`` variants, whose targets do not come from the model,
    so no model is trained for them.
    """

    train_result: TrainResult | None
    fit_ids: list[str]
    val_ids: list[str]


@dataclass(frozen=True)
class InstanceEstimate:
    """One test instance's outcome in evaluation output order, with the HI
    curve it was matched with."""

    test_id: str
    estimate: RulEstimate
    actual: float | None
    curve: HiCurve


def split_instances(
    ds: RunToFailureDataset, validation_frac: float, seed: int
) -> tuple[list[int], list[int]]:
    """Seeded instance split; returns (fit indices, validation indices).

    Both lists keep the dataset's original order. The validation share is
    rounded to the nearest instance count.
    """
    n = len(ds.instances)
    n_val = int(round(validation_frac * n))
    if n_val >= n:
        raise ValueError(
            f"validation_frac {validation_frac} leaves no fitting instances"
        )
    order = np.random.default_rng(seed).permutation(n)
    val = sorted(int(i) for i in order[:n_val])
    fit = sorted(int(i) for i in order[n_val:])
    return fit, val


def _healthy_windows(
    derived: np.ndarray, l: int, healthy_frac: float | None
) -> list[np.ndarray]:
    """Training windows from one instance's healthy lead-in.

    None means the single first window; a fraction means every window inside
    the leading healthy prefix. Instances too short to yield a window
    contribute nothing.
    """
    length = derived.shape[0]
    if length < l:
        return []
    if healthy_frac is None:
        return [derived[:l]]
    prefix = derived[: frac_count(healthy_frac, length)]
    if prefix.shape[0] < l:
        return []
    return [w for _, w in sliding_windows(prefix, l)]


def _stage(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise StageError(stage, str(exc)) from exc


def _uses_model(config: RunConfig) -> bool:
    """Only the reconstruction-error variants read the encoder-decoder."""
    return config.hi_variant in _RECON_VARIANTS


def _train_model(
    derived_fit: list[np.ndarray], derived_val: list[np.ndarray], config: RunConfig
) -> TrainResult:
    """Train the encoder-decoder on the healthy windows of both splits."""
    splits = ((derived_fit, "instance"), (derived_val, "validation instance"))
    batches = []
    for derived, which in splits:
        windows = []
        for z in derived:
            windows.extend(_healthy_windows(z, config.l, config.healthy_frac))
        if not windows:
            raise StageError(
                "train-lstm",
                f"no {which} yields a healthy window of length {config.l}",
            )
        batches.append(np.stack(windows, dtype=_LSTM_DTYPE))
    train_batch, val_batch = batches
    return _stage("train-lstm", train, train_batch, config, val_batch)


def _recon_targets(
    model: LstmEdModel, derived: list[np.ndarray], squared: bool
) -> list[HiCurve]:
    """Each unit's target HI from its whole-series reconstruction, in order."""
    recons = _stage("target-hi", pointwise_reconstructions, model, derived)
    return [
        target_hi_from_error(reconstruction_error(z, recon), squared=squared)
        for z, recon in zip(derived, recons)
    ]


def build_pipeline(
    ds: RunToFailureDataset, config: RunConfig
) -> tuple[PipelineBundle, BuildInfo]:
    """Train the full pipeline on a run-to-failure dataset.

    Args:
        ds: Full-life training instances.
        config: Run configuration.

    Returns:
        (bundle, info): the persistable pipeline and the build details.

    Raises:
        StageError: Naming the failing stage: split, normalize, pca,
            train-lstm, target-hi, fit-lr, or hi-curves.
    """
    fit_idx, val_idx = _stage(
        "split", split_instances, ds, config.validation_frac, config.seed
    )
    if not val_idx:
        raise StageError("split", "validation split required for early stopping")
    fit_instances = [ds.instances[i] for i in fit_idx]
    val_instances = [ds.instances[i] for i in val_idx]

    norm = _stage(
        "normalize", fit_norm_stats, [series for _, series in fit_instances]
    )
    normalized_fit = [
        _stage("normalize", apply_norm, series, norm) for _, series in fit_instances
    ]
    normalized_val = [
        _stage("normalize", apply_norm, series, norm) for _, series in val_instances
    ]

    pca = _stage("pca", pca_fit, np.concatenate(normalized_fit, axis=0), config.p)
    derived_fit = [pca_transform(z, pca) for z in normalized_fit]
    derived_val = [pca_transform(z, pca) for z in normalized_val]
    # the normalized copies are ~m/p times the derived sensors; not held
    # through training
    del normalized_fit, normalized_val

    result = None
    if _uses_model(config):
        result = _train_model(derived_fit, derived_val, config)

    if config.hi_variant == "endpoints":
        healthy = config.healthy_frac if config.healthy_frac is not None else 0.05
        rows = []
        targets = []
        for z in derived_fit:
            idx, values = _stage(
                "target-hi", endpoint_targets, z.shape[0], healthy, config.faulty_frac
            )
            rows.append(z[idx])
            targets.append(values)
        lr = _stage(
            "fit-lr", ols_fit, np.concatenate(rows, axis=0), np.concatenate(targets)
        )
    else:
        if config.hi_variant in _RECON_VARIANTS:
            squared = config.hi_variant == "recon_error_squared"
            target_curves = _recon_targets(result.model, derived_fit, squared)
        elif config.hi_variant == "exponential":
            target_curves = [
                _stage("target-hi", exponential_target_hi, z.shape[0], config.beta)
                for z in derived_fit
            ]
        else:
            target_curves = [
                _stage("target-hi", linear_target_hi, z.shape[0]) for z in derived_fit
            ]
        lr = _stage("fit-lr", fit_hi_model, derived_fit, target_curves)

    library = []
    for (uid, _), z in zip(fit_instances, derived_fit):
        curve = _stage(
            "hi-curves", hi_curve, lr, z, config.smooth_window, config.init_frac
        )
        library.append((uid, curve))

    bundle = PipelineBundle(
        norm=norm,
        pca=pca,
        lr=lr,
        hi_train_curves=Library.of(library),
        config=config,
    )
    info = BuildInfo(
        train_result=result,
        fit_ids=[uid for uid, _ in fit_instances],
        val_ids=[uid for uid, _ in val_instances],
    )
    return bundle, info


def series_hi_curve(bundle: PipelineBundle, series: np.ndarray) -> HiCurve:
    """HI curve for one possibly-truncated instance under a built pipeline."""
    normalized = apply_norm(series, bundle.norm)
    derived = pca_transform(normalized, bundle.pca)
    cfg = bundle.config
    return hi_curve(bundle.lr, derived, cfg.smooth_window, cfg.init_frac)


def predict_one(bundle: PipelineBundle, series: np.ndarray) -> tuple[RulEstimate, HiCurve]:
    """RUL estimate plus the HI curve it was matched with."""
    if np.asarray(series).shape[0] == 0:
        raise ValueError("empty series")
    curve = series_hi_curve(bundle, series)
    library = bundle.hi_train_curves
    cands = candidate_estimates(curve, library, bundle.config)
    est = estimate_rul(cands, bundle.config, curve.length, library.lengths)
    return est, curve


def evaluate_pipeline(
    bundle: PipelineBundle, test_ds: RunToFailureDataset
) -> tuple[MetricsReport, list[InstanceEstimate]]:
    """Score a labeled truncated test set.

    Raises:
        ValueError: If the test set has no RUL labels or its sensor count
            does not match the pipeline.
    """
    if test_ds.rul_labels is None:
        raise ValueError("test dataset has no RUL labels")
    rows = []
    records = []
    for (uid, series), actual in zip(test_ds.instances, test_ds.rul_labels):
        est, curve = predict_one(bundle, series)
        rows.append(
            InstanceEstimate(test_id=uid, estimate=est, actual=actual, curve=curve)
        )
        records.append(
            EvalRecord(
                predicted=est.value, actual=actual, observed_len=curve.length
            )
        )
    report = full_report(records, bundle.config.tau1, bundle.config.tau2)
    return report, rows


@dataclass(frozen=True)
class SweepTrial:
    """One grid point's outcome.

    ``best_epoch`` is the early-stopping epoch of the encoder-decoder the
    point's build trained, shared by every point of that build; None for
    the variants that train none.
    """

    overrides: dict[str, str]
    config: RunConfig
    score: float
    best_epoch: int | None


def _validation_cases(
    bundle: PipelineBundle, instances: list[tuple[str, np.ndarray]]
) -> tuple[list[HiCurve], list[float]]:
    """The validation units cut at SWEEP_TRUNCATION_FRACS: each case's HI
    curve under the bundle, and its true RUL."""
    cases = truncate_at_fracs(
        RunToFailureDataset(instances=instances), list(SWEEP_TRUNCATION_FRACS)
    )
    curves = [series_hi_curve(bundle, series) for _, series in cases.instances]
    return curves, cases.rul_labels


def _matching_scores(
    curves: list[HiCurve],
    labels: list[float],
    library: Library,
    configs: list[RunConfig],
) -> list[float]:
    """Timeliness of each config's matching on the cases, in config order.

    The configs share one library, so they share work down four levels.
    Each curve's pairs are found once, at the configs' largest tau. The
    configs that share a smaller tau share each curve's pairs cut to it
    (``pairs_within``), cut the first time a config needs them. The configs
    that also share lam share each curve's weighed pairs, weighed the first
    time a config needs them. Each config then runs only predict_one's alpha
    cut, weighted mean, r_max cap and fallback per case, on index arrays,
    and the timeliness score. Scores are bitwise those of ``predict_one``.
    """
    top = max(config.tau for config in configs)
    pairs = [pair_distances(curve, library, top) for curve in curves]
    within: dict[int, list[Pairs]] = {}
    weighed: dict[tuple[float, int], list[Candidates]] = {}
    scores = []
    for config in configs:
        tau, lam = config.tau, config.lam
        if (lam, tau) not in weighed:
            if tau not in within:
                within[tau] = [pairs_within(p, tau) for p in pairs]
            weighed[lam, tau] = [weigh_pairs(p, library, lam) for p in within[tau]]
        records = []
        for curve, cands, actual in zip(curves, weighed[lam, tau], labels):
            keep = alpha_cut(cands, config.alpha)
            sims, estimates = cands.similarities[keep], cands.estimates[keep]
            value, _, _ = weighted_rul(
                sims, estimates, config.r_max, curve.length, library.lengths
            )
            records.append(EvalRecord(value, actual, curve.length))
        scores.append(timeliness(records, config.tau1, config.tau2))
    return scores


def run_sweep(
    ds: RunToFailureDataset, base: RunConfig, grid: SweepGrid
) -> tuple[SweepTrial, list[SweepTrial]]:
    """Grid search scored by timeliness on truncated validation instances.

    Every grid point is scored on the validation split of a pipeline built
    on the same data with the same seed, truncated at the five standard
    life fractions. Grid points that differ only in SCORING_FIELDS share one
    build key (``build_key``): one build and one set of validation HI
    curves, which ``_matching_scores`` scores for every point of the key.
    Keys are built one at a time, in order of first appearance, and each
    key's points are scored in grid order. Scores are bitwise those of a
    separate build and ``predict_one`` per point. Lowest score wins; ties
    keep the earliest grid point in the deterministic enumeration order.

    Returns:
        (best trial, all trials in enumeration order).
    """
    combos = grid.combinations()
    if not grid.values or not combos:  # no key, or a key with no value
        raise ValueError("empty sweep grid")
    configs = [apply_overrides(base, overrides) for overrides in combos]
    groups: dict[RunConfig, list[int]] = {}
    for k, config in enumerate(configs):
        groups.setdefault(build_key(config, base), []).append(k)
    trials = [None] * len(combos)
    by_id = dict(ds.instances)
    for key, members in groups.items():
        bundle, info = build_pipeline(ds, key)
        val = [(uid, by_id[uid]) for uid in info.val_ids]
        curves, labels = _validation_cases(bundle, val)
        points = [configs[k] for k in members]
        scores = _matching_scores(curves, labels, bundle.hi_train_curves, points)
        result = info.train_result
        best_epoch = None if result is None else result.best_epoch
        for k, score in zip(members, scores):
            trials[k] = SweepTrial(combos[k], configs[k], score, best_epoch)
        del bundle, info, result, curves  # one build alive at a time
    best = min(trials, key=lambda t: t.score)
    return best, trials
