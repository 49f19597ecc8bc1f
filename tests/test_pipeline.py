"""End-to-end pipeline orchestration tests on a tiny synthetic dataset."""

import dataclasses
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

import edhi.pipeline
from edhi.config import SCORING_FIELDS, RunConfig, SweepGrid
from edhi.data import (
    RunToFailureDataset,
    SyntheticSpec,
    generate_synthetic,
    truncate_instance,
    truncate_random,
)
from edhi.health import HiCurve
from edhi.matching import Library
from edhi.persist import _sections_of, load_pipeline, save_pipeline
from edhi.pipeline import (
    StageError,
    _healthy_windows,
    build_pipeline,
    evaluate_pipeline,
    predict_one,
    run_sweep,
    series_hi_curve,
    split_instances,
)
from helpers import naive_sweep_scores


class TestSplit:
    def test_disjoint_and_covering(self, tiny_ds):
        fit, val = split_instances(tiny_ds, 0.25, seed=3)
        assert sorted(fit + val) == list(range(8))
        assert not set(fit) & set(val)
        assert len(val) == 2

    def test_rounds_to_nearest(self, tiny_ds):
        _, val = split_instances(tiny_ds, 0.3, seed=0)
        assert len(val) == 2  # round(2.4)

    def test_same_seed_same_split(self, tiny_ds):
        assert split_instances(tiny_ds, 0.25, 5) == split_instances(tiny_ds, 0.25, 5)

    def test_different_seed_differs_somewhere(self, tiny_ds):
        splits = {tuple(split_instances(tiny_ds, 0.5, s)[1]) for s in range(12)}
        assert len(splits) > 1

    def test_all_validation_rejected(self, tiny_ds):
        with pytest.raises(ValueError, match="no fitting instances"):
            split_instances(tiny_ds, 0.99, seed=0)

    def test_indices_sorted(self, tiny_ds):
        fit, val = split_instances(tiny_ds, 0.25, seed=9)
        assert fit == sorted(fit) and val == sorted(val)


class TestHealthyWindows:
    def test_none_takes_first_window_only(self):
        series = np.arange(40.0).reshape(20, 2)
        windows = _healthy_windows(series, 6, None)
        assert len(windows) == 1
        assert np.array_equal(windows[0], series[:6])

    def test_fraction_takes_all_prefix_windows(self):
        series = np.arange(40.0).reshape(20, 2)
        windows = _healthy_windows(series, 4, 0.5)  # prefix of 10 cycles
        assert len(windows) == 7
        assert np.array_equal(windows[0], series[:4])
        assert np.array_equal(windows[-1], series[6:10])

    def test_short_series_yields_nothing(self):
        assert _healthy_windows(np.zeros((5, 2)), 6, None) == []

    def test_short_prefix_yields_nothing(self):
        assert _healthy_windows(np.zeros((20, 2)), 8, 0.2) == []


class TestBuild:
    def test_zero_validation_frac_refused(self, tiny_ds, tiny_config):
        with pytest.raises(ValueError, match=r"^validation_frac must be in \(0,1\)"):
            dataclasses.replace(tiny_config, validation_frac=0.0)
        # a share that rounds to no unit passes the config but not the split
        config = dataclasses.replace(tiny_config, validation_frac=1e-9)
        with pytest.raises(StageError, match="validation split required"):
            build_pipeline(tiny_ds, config)

    def test_window_longer_than_every_life_refused(self, tiny_ds, tiny_config):
        config = dataclasses.replace(tiny_config, l=200)
        message = "^train-lstm: no instance yields a healthy window of length 200$"
        with pytest.raises(StageError, match=message):
            build_pipeline(tiny_ds, config)

    def test_validation_without_a_window_refused(self, tiny_ds, tiny_config):
        _, val_idx = split_instances(
            tiny_ds, tiny_config.validation_frac, tiny_config.seed
        )
        instances = [
            (uid, series[:5] if k in val_idx else series)
            for k, (uid, series) in enumerate(tiny_ds.instances)
        ]
        ds = RunToFailureDataset(instances=instances, sensor_names=tiny_ds.sensor_names)
        message = (
            "^train-lstm: no validation instance yields a healthy window of length 8$"
        )
        with pytest.raises(StageError, match=message):
            build_pipeline(ds, tiny_config)

    @pytest.mark.parametrize(
        "short", [{0: 5}, {-1: 5}, {0: 6, -1: 5}], ids=["first", "last", "both"]
    )
    def test_short_fit_unit_fails_the_target_stage(self, tiny_ds, tiny_config, short):
        # a fit unit shorter than l=8 gives no training window and cannot be
        # reconstructed; the error names the first such unit's length
        fit_idx, _ = split_instances(
            tiny_ds, tiny_config.validation_frac, tiny_config.seed
        )
        cut = {fit_idx[k]: length for k, length in short.items()}
        instances = [
            (uid, series[: cut.get(i, len(series))])
            for i, (uid, series) in enumerate(tiny_ds.instances)
        ]
        ds = RunToFailureDataset(instances=instances, sensor_names=tiny_ds.sensor_names)
        first = min(short, key=lambda k: k % len(fit_idx))
        with pytest.raises(StageError) as err:
            build_pipeline(ds, tiny_config)
        assert str(err.value) == (
            f"target-hi: series has {short[first]} cycles, "
            "shorter than window length 8"
        )

    def test_diverged_training_fails_train_lstm_stage(self, tiny_ds, tiny_config):
        config = dataclasses.replace(tiny_config, learning_rate=1e200, max_epochs=3)
        with pytest.raises(StageError, match="train-lstm: training diverged"):
            build_pipeline(tiny_ds, config)

    def test_normalized_copies_freed_before_training(self, monkeypatch):
        # 30 sensors to the 3 kept: the normalized copies of the fleet, and
        # the pooled one PCA is fitted on, outweigh the derived sensors 10:1
        spec = SyntheticSpec(
            n_instances=16, n_sensors=30, min_len=60, max_len=100, seed=1
        )
        ds = generate_synthetic(spec)
        fleet = sum(series.nbytes for _, series in ds.instances)
        config = RunConfig(
            p=3, c=8, l=10, healthy_frac=0.5, max_epochs=1, patience=2, seed=1
        )
        live = []
        train = edhi.pipeline.train

        def spy(*args, **kwargs):
            live.append(tracemalloc.get_traced_memory()[0])
            return train(*args, **kwargs)

        monkeypatch.setattr(edhi.pipeline, "train", spy)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            build_pipeline(ds, config)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # when training starts: 0.56x, the derived sensors and the healthy
        # windows; 2.3x when the copies lived through training
        assert live[0] - start < fleet
        # 3.3x; 5.1x when the copies lived through training
        assert peak < 4 * fleet

    def test_split_is_disjoint_and_complete(self, tiny_ds, tiny_build):
        _, info = tiny_build
        all_ids = {uid for uid, _ in tiny_ds.instances}
        assert set(info.fit_ids) | set(info.val_ids) == all_ids
        assert not set(info.fit_ids) & set(info.val_ids)
        assert len(info.val_ids) == 2

    def test_library_covers_fit_split_only(self, tiny_ds, tiny_build):
        bundle, info = tiny_build
        assert [uid for uid, _ in bundle.hi_train_curves] == info.fit_ids
        lengths = dict(
            (uid, series.shape[0]) for uid, series in tiny_ds.instances
        )
        for uid, curve in bundle.hi_train_curves:
            assert curve.length == lengths[uid]

    def test_curves_bounded_and_finite(self, tiny_build):
        bundle, _ = tiny_build
        for _, curve in bundle.hi_train_curves:
            assert np.all(np.isfinite(curve.values))
            assert curve.values.min() >= 0.0 and curve.values.max() <= 1.0

    def test_config_carried_verbatim(self, tiny_config, tiny_build):
        bundle, _ = tiny_build
        assert bundle.config == tiny_config

    def test_training_ran_with_early_stopping(self, tiny_build):
        _, info = tiny_build
        result = info.train_result
        assert len(result.val_history) >= 2
        assert result.best_epoch == int(np.argmin(result.val_history))

    def test_rebuild_is_deterministic(self, tiny_ds, tiny_config, tiny_build):
        bundle_a, info_a = tiny_build
        bundle_b, info_b = build_pipeline(tiny_ds, tiny_config)
        model_a, model_b = info_a.train_result.model, info_b.train_result.model
        assert np.array_equal(model_a.encoder.w, model_b.encoder.w)
        assert np.array_equal(bundle_a.lr.theta, bundle_b.lr.theta)
        for (_, ca), (_, cb) in zip(
            bundle_a.hi_train_curves, bundle_b.hi_train_curves
        ):
            assert np.array_equal(ca.values, cb.values)


class TestVariants:
    @pytest.mark.parametrize("variant", ["exponential", "linear", "endpoints"])
    def test_targets_build_everywhere(self, tiny_ds, tiny_config, variant):
        config = dataclasses.replace(
            tiny_config, hi_variant=variant, max_epochs=3, patience=2
        )
        bundle, info = build_pipeline(tiny_ds, config)
        assert len(bundle.hi_train_curves) == len(info.fit_ids)
        for _, curve in bundle.hi_train_curves:
            assert np.all(np.isfinite(curve.values))

    @pytest.mark.parametrize("variant", ["exponential", "linear", "endpoints"])
    def test_model_free_variants_train_nothing(
        self, tiny_ds, tiny_config, variant, monkeypatch, tmp_path
    ):
        config = dataclasses.replace(
            tiny_config, hi_variant=variant, max_epochs=3, patience=2
        )

        def no_training(*args):
            raise AssertionError(f"{variant} trained an encoder-decoder")

        with monkeypatch.context() as mp:
            mp.setattr(edhi.pipeline, "train", no_training)
            bundle, info = build_pipeline(tiny_ds, config)
        assert info.train_result is None
        save_pipeline(tmp_path / "skipped.edhi", bundle)

        # the earlier build trained the model and then ignored it; doing
        # that again must store the same bytes
        monkeypatch.setattr(edhi.pipeline, "_uses_model", lambda config: True)
        trained_bundle, trained_info = build_pipeline(tiny_ds, config)
        assert len(trained_info.train_result.train_history) == 3
        save_pipeline(tmp_path / "trained.edhi", trained_bundle)
        assert (tmp_path / "skipped.edhi").read_bytes() == (
            tmp_path / "trained.edhi"
        ).read_bytes()

    def test_healthy_frac_enables_multi_window_training(
        self, tiny_ds, tiny_config
    ):
        config = dataclasses.replace(
            tiny_config, healthy_frac=0.5, max_epochs=3, patience=2
        )
        bundle, _ = build_pipeline(tiny_ds, config)
        assert bundle.config.healthy_frac == 0.5


class TestPredict:
    def test_truncated_fit_instance(self, tiny_ds, tiny_build):
        bundle, info = tiny_build
        by_id = dict(tiny_ds.instances)
        series = by_id[info.fit_ids[0]]
        prefix, actual = truncate_instance(series, 0.6)
        est, curve = predict_one(bundle, prefix)
        assert curve.length == prefix.shape[0]
        assert est.value >= 0.0
        assert est.value <= bundle.config.r_max

    def test_full_fit_instance_matches_library_curve(
        self, tiny_ds, tiny_build, tmp_path
    ):
        # scoring a full fit instance must retrace its build bit for bit, so
        # the build and the scoring path normalise, project and smooth alike
        bundle, info = tiny_build
        save_pipeline(tmp_path / "pipe.edhi", bundle)
        by_id = dict(tiny_ds.instances)
        for scored in (bundle, load_pipeline(tmp_path / "pipe.edhi")):
            assert list(scored.hi_train_curves.ids) == info.fit_ids
            for uid, stored in scored.hi_train_curves:
                curve = series_hi_curve(scored, by_id[uid])
                assert curve.values.tobytes() == stored.values.tobytes()

    def test_loaded_library_is_not_laid_out_again(
        self, tiny_ds, tiny_build, tmp_path, monkeypatch
    ):
        bundle, _ = tiny_build
        save_pipeline(tmp_path / "pipe.edhi", bundle)
        loaded = load_pipeline(tmp_path / "pipe.edhi")
        test_ds = truncate_random(tiny_ds, 0.2, 0.9, seed=4)
        calls = []
        real_concatenate = np.concatenate

        def counting(*args, **kwargs):
            calls.append(1)
            return real_concatenate(*args, **kwargs)

        monkeypatch.setattr(np, "concatenate", counting)
        for _, series in test_ds.instances:
            predict_one(loaded, series)
        assert calls == []

    def test_empty_series_rejected(self, tiny_build):
        bundle, _ = tiny_build
        with pytest.raises(ValueError, match="empty series"):
            predict_one(bundle, np.zeros((0, 4)))


class TestEvaluate:
    def test_labels_required(self, tiny_ds, tiny_build):
        bundle, _ = tiny_build
        with pytest.raises(ValueError, match="no RUL labels"):
            evaluate_pipeline(bundle, tiny_ds)

    def test_report_over_truncated_set(self, tiny_ds, tiny_build):
        bundle, _ = tiny_build
        test_ds = truncate_random(tiny_ds, 0.4, 0.8, seed=2)
        report, rows = evaluate_pipeline(bundle, test_ds)
        assert report.n == len(tiny_ds.instances)
        assert np.isfinite(report.s) and np.isfinite(report.mape1)
        assert len(rows) == report.n
        for row, (uid, series) in zip(rows, test_ds.instances):
            assert row.test_id == uid
            assert row.curve.length == series.shape[0]
            assert row.actual is not None
            # the curve the estimate was matched with, as scoring it alone gives
            expected = series_hi_curve(bundle, series).values
            assert row.curve.values.tobytes() == expected.tobytes()

    def test_sensor_mismatch_rejected(self, tiny_ds, tiny_build):
        bundle, _ = tiny_build
        bad = truncate_random(tiny_ds, 0.5, 0.5, seed=0)
        bad = dataclasses.replace(
            bad,
            instances=[(uid, s[:, :2]) for uid, s in bad.instances],
        )
        with pytest.raises(ValueError):
            evaluate_pipeline(bundle, bad)


class TestSweep:
    def test_grid_order_and_best(self, tiny_ds, tiny_config):
        base = dataclasses.replace(tiny_config, max_epochs=2, patience=1)
        grid = SweepGrid(values={"alpha": ["0.3", "0.9"]})
        best, trials = run_sweep(tiny_ds, base, grid)
        assert [t.overrides["alpha"] for t in trials] == ["0.3", "0.9"]
        assert best.score == min(t.score for t in trials)
        assert all(np.isfinite(t.score) for t in trials)
        assert {t.config.alpha for t in trials} == {0.3, 0.9}

    def test_empty_dimension_rejected(self, tiny_ds, tiny_config):
        with pytest.raises(ValueError, match="empty sweep grid"):
            run_sweep(tiny_ds, tiny_config, SweepGrid(values={"alpha": []}))

    def test_keyless_grid_rejected(self, tiny_ds, tiny_config):
        # its one combination, {}, would be an untuned single trial
        with pytest.raises(ValueError, match="empty sweep grid"):
            run_sweep(tiny_ds, tiny_config, SweepGrid(values={}))

    # grids mixing build fields with scoring fields; taus 2 and 3 fall below
    # most curves' lag headroom, 40 exceeds every curve's
    @pytest.mark.parametrize(
        "values",
        [
            {
                "hi_variant": ["recon_error", "linear"],
                "smooth_window": ["1", "3"],
                "alpha": ["0.3", "0.9"],
                "tau": ["2", "10", "40"],
            },
            {
                "healthy_frac": ["0.5", "none"],
                "lam": ["0.01", "0.1"],
                "tau": ["40", "3"],
                "r_max": ["8", "60"],
            },
            # one build; each (lam, tau) weighing serves four points that
            # differ in alpha, r_max and tau1. At lam 1e-300 every
            # similarity underflows to zero, so every estimate falls back
            {
                "lam": ["1e-300", "0.05"],
                "tau": ["40", "3"],
                "alpha": ["0.3", "0.9"],
                "r_max": ["8", "60"],
                "tau1": ["5", "13"],
            },
        ],
        ids=["variant-smoothing", "healthy-frac", "shared-weights"],
    )
    def test_scores_bitwise_equal_per_point_rebuilds(
        self, tiny_ds, tiny_config, values
    ):
        base = dataclasses.replace(tiny_config, max_epochs=2, patience=1)
        grid = SweepGrid(values=values)
        best, trials = run_sweep(tiny_ds, base, grid)
        scores = [t.score.hex() for t in trials]
        assert scores == [s.hex() for s in naive_sweep_scores(tiny_ds, base, grid)]
        assert len(set(scores)) > len(scores) // 2
        assert best is trials[scores.index(min(t.score for t in trials).hex())]
        # a fallback reads neither alpha nor tau
        fallback = {}
        for trial, score in zip(trials, scores):
            if trial.config.lam == 1e-300:
                c = trial.config
                fallback.setdefault((c.r_max, c.tau1), set()).add(score)
        assert all(len(group) == 1 for group in fallback.values())

    def test_one_build_and_training_per_build_key(
        self, tiny_ds, tiny_config, monkeypatch
    ):
        base = dataclasses.replace(tiny_config, max_epochs=2, patience=1)
        built = []
        trainings = []
        real_build = edhi.pipeline.build_pipeline
        real_train = edhi.pipeline.train

        def counting_build(ds, config):
            built.append(config)
            return real_build(ds, config)

        def counting_train(*args):
            trainings.append(real_train(*args))
            return trainings[-1]

        monkeypatch.setattr(edhi.pipeline, "build_pipeline", counting_build)
        monkeypatch.setattr(edhi.pipeline, "train", counting_train)
        grid = SweepGrid(
            values={
                "alpha": ["0.3", "0.9"],
                "hi_variant": ["recon_error", "linear", "recon_error_squared"],
                "lam": ["0.01", "0.1"],
                "tau": ["3", "40"],
                "tau1": ["5", "13"],
            }
        )
        _, trials = run_sweep(tiny_ds, base, grid)
        assert len(trials) == 48
        assert [c.hi_variant for c in built] == [
            "recon_error", "linear", "recon_error_squared"
        ]
        # each build runs with the base's scoring fields
        for config in built:
            for name in SCORING_FIELDS:
                assert getattr(config, name) == getattr(base, name)
        assert len(trainings) == 2
        # every point of a build reports that build's training
        best_epoch = {
            "recon_error": trainings[0].best_epoch,
            "linear": None,
            "recon_error_squared": trainings[1].best_epoch,
        }
        assert [t.best_epoch for t in trials] == [
            best_epoch[t.config.hi_variant] for t in trials
        ]

    def test_previous_build_freed_before_the_next(
        self, tiny_ds, tiny_config, monkeypatch
    ):
        base = dataclasses.replace(tiny_config, max_epochs=2, patience=1)
        refs = []
        real_build = edhi.pipeline.build_pipeline

        def watched_build(ds, config):
            assert all(ref() is None for ref in refs), "an earlier build is alive"
            bundle, info = real_build(ds, config)
            refs.append(weakref.ref(bundle.hi_train_curves))
            refs.append(weakref.ref(info.train_result))
            return bundle, info

        monkeypatch.setattr(edhi.pipeline, "build_pipeline", watched_build)
        grid = SweepGrid(
            values={
                "smooth_window": ["1", "3"],
                "alpha": ["0.3", "0.9"],
                "tau": ["3", "40"],
            }
        )
        _, trials = run_sweep(tiny_ds, base, grid)
        assert len(trials) == 8 and len(refs) == 4
        assert all(ref() is None for ref in refs)

    def test_one_weighing_per_curve_lam_and_tau(
        self, tiny_ds, tiny_config, monkeypatch
    ):
        base = dataclasses.replace(tiny_config, max_epochs=2, patience=1)
        weighings = []
        real_weigh = edhi.pipeline.weigh_pairs

        def counting_weigh(pairs, library, lam):
            weighings.append((lam, pairs.tau))
            return real_weigh(pairs, library, lam)

        monkeypatch.setattr(edhi.pipeline, "weigh_pairs", counting_weigh)
        grid = SweepGrid(
            values={
                "alpha": ["0.3", "0.9"],
                "smooth_window": ["1", "3"],
                "lam": ["0.01", "0.1"],
                "tau": ["3", "40"],
                "r_max": ["8", "60"],
            }
        )
        _, trials = run_sweep(tiny_ds, base, grid)
        assert len(trials) == 32
        # two builds, each weighing its validation curves once per (lam, tau)
        n_curves = len(weighings) // 8
        assert n_curves == 5 * round(base.validation_frac * len(tiny_ds.instances))
        per_build = [(lam, tau) for lam in (0.01, 0.1) for tau in (3, 40)]
        expected = [key for key in per_build for _ in range(n_curves)]
        assert weighings == expected + expected

    def test_one_restriction_per_curve_and_smaller_tau(
        self, tiny_ds, tiny_config, monkeypatch
    ):
        base = dataclasses.replace(tiny_config, max_epochs=2, patience=1)
        cuts = []
        real_within = edhi.pipeline.pairs_within

        def counting_within(pairs, tau):
            if tau < pairs.tau:
                cuts.append((pairs.tau, tau))
            return real_within(pairs, tau)

        monkeypatch.setattr(edhi.pipeline, "pairs_within", counting_within)
        grid = SweepGrid(
            values={
                "alpha": ["0.3", "0.9"],
                "smooth_window": ["1", "3"],
                "lam": ["0.01", "0.1"],
                "tau": ["3", "40", "10"],
            }
        )
        _, trials = run_sweep(tiny_ds, base, grid)
        assert len(trials) == 24
        # two builds, each cutting its curves once to each tau below 40,
        # whatever the lams and alphas that share it
        n_curves = 5 * round(base.validation_frac * len(tiny_ds.instances))
        assert Counter(cuts) == {(40, 3): 2 * n_curves, (40, 10): 2 * n_curves}

    def test_scoring_fields_do_not_change_the_build(self, tiny_ds, tiny_config):
        other = dataclasses.replace(
            tiny_config, tau=3, alpha=0.99, lam=1.0, r_max=5.0, tau1=1.0, tau2=2.0
        )
        for name in SCORING_FIELDS:
            assert getattr(other, name) != getattr(tiny_config, name)
        a, info_a = build_pipeline(tiny_ds, tiny_config)
        b, info_b = build_pipeline(tiny_ds, other)
        assert [uid for uid, _ in a.hi_train_curves] == [
            uid for uid, _ in b.hi_train_curves
        ]
        assert info_a.val_ids == info_b.val_ids
        for (name_a, arr_a), (name_b, arr_b) in zip(_sections_of(a), _sections_of(b)):
            assert name_a == name_b
            assert arr_a.dtype == arr_b.dtype and arr_a.shape == arr_b.shape
            assert arr_a.tobytes() == arr_b.tobytes()

    @pytest.mark.parametrize("taus", [["5", "40"], ["40", "5"]])
    def test_nan_beyond_a_smaller_tau_scores_like_rebuilds(
        self, tiny_ds, tiny_config, monkeypatch, taus
    ):
        # a library curve extended by a tail whose only NaN lies past every
        # window lag 5 can reach, but inside those of lag 40
        real_build = edhi.pipeline.build_pipeline

        def build_with_nan(ds, config):
            bundle, info = real_build(ds, config)
            (uid, curve), *rest = bundle.hi_train_curves
            tail = np.full(60, curve.values[-1])
            tail[20] = np.nan
            values = np.concatenate([curve.values, tail])
            library = Library.of([(uid, HiCurve(values=values)), *rest])
            return dataclasses.replace(bundle, hi_train_curves=library), info

        monkeypatch.setattr(edhi.pipeline, "build_pipeline", build_with_nan)
        base = dataclasses.replace(tiny_config, max_epochs=2, patience=1)
        grid = SweepGrid(values={"alpha": ["0.5", "0.9"], "tau": taus})
        expected = []
        with pytest.raises(ValueError, match="NaN curve distance") as naive_err:
            for score in naive_sweep_scores(tiny_ds, base, grid):
                expected.append(score.hex())
        swept = []
        real_timeliness = edhi.pipeline.timeliness

        def recording_timeliness(*args):
            score = real_timeliness(*args)
            swept.append(score.hex())
            return score

        monkeypatch.setattr(edhi.pipeline, "timeliness", recording_timeliness)
        with pytest.raises(ValueError) as swept_err:
            run_sweep(tiny_ds, base, grid)
        assert str(swept_err.value) == str(naive_err.value)
        assert swept == expected
        assert len(expected) == (1 if taus[0] == "5" else 0)
