"""Command line behavior: files in, files out, exit codes, error text."""

import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edhi
from edhi.cli import _load_dataset, _sniff_format, build_parser, main
from edhi.data import (
    RunToFailureDataset,
    SyntheticSpec,
    generate_synthetic,
    parse_generic,
    parse_turbofan_series,
    truncate_random,
    write_generic,
    write_rul_labels,
)
from edhi.persist import load_pipeline
from edhi.pipeline import predict_one
from helpers import join_pipeline, section_past_payload, split_pipeline, with_float

TRAIN_FLAGS = [
    "--p", "2", "--c", "5", "--l", "6", "--tau", "8",
    "--alpha", "0.5", "--lambda", "0.05", "--r-max", "60",
    "--smooth-window", "3", "--max-epochs", "10", "--patience", "3",
    "--seed", "4",
]


SYNTH_FLAGS = [
    "--n-instances", "8", "--n-sensors", "3", "--min-len", "24",
    "--max-len", "30", "--noise-std", "0.03", "--seed", "3",
]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """8 training lives in data.csv; held-out units s9..s16, truncated."""
    out = tmp_path_factory.mktemp("synth")
    code = main(["synth", "--out", str(out), "--truncate", "0.4,0.8"] + SYNTH_FLAGS)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def quick_start(tmp_path_factory):
    """The README quick-start fleet and pipeline, trained 5 epochs instead of 50."""
    root = tmp_path_factory.mktemp("quick_start")
    assert main([
        "synth", "--out", str(root / "fleet"), "--n-instances", "30",
        "--n-sensors", "5", "--seed", "1", "--truncate", "0.4,0.9",
    ]) == 0
    assert main([
        "train", "--data", str(root / "fleet" / "data.csv"),
        "--out", str(root / "pipe.edhi"),
        "--p", "2", "--c", "8", "--l", "10", "--tau", "5", "--alpha", "0.5",
        "--lambda", "0.01", "--max-epochs", "5", "--seed", "13",
    ]) == 0
    return root


def _evaluate(root, data, rul, out):
    return main([
        "evaluate", "--pipeline", str(root / "pipe.edhi"), "--data", str(data),
        "--rul", str(rul), "--out", str(out),
    ])


@pytest.fixture(scope="module")
def trained(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("model") / "pipe.edhi"
    code = main(
        ["train", "--data", str(synth_dir / "data.csv"), "--out", str(out)]
        + TRAIN_FLAGS
    )
    assert code == 0
    return out


class TestSynth:
    def test_writes_parseable_files(self, synth_dir):
        full = parse_generic((synth_dir / "data.csv").read_text())
        truncated = parse_generic((synth_dir / "truncated.csv").read_text())
        assert len(full.instances) == 8
        assert len(truncated.instances) == 8
        labels = (synth_dir / "rul.txt").read_text().split()
        assert len(labels) == 8

    def test_truncation_shortens_every_instance(self, synth_dir):
        # the held-out units are units 9..16 of one 16-unit draw
        spec = SyntheticSpec(
            n_instances=16, n_sensors=3, min_len=24, max_len=30, noise_std=0.03,
            seed=3,
        )
        full = dict(generate_synthetic(spec).instances)
        truncated = parse_generic((synth_dir / "truncated.csv").read_text())
        for uid, series in truncated.instances:
            assert series.shape[0] < full[uid].shape[0]
            np.testing.assert_allclose(series, full[uid][: series.shape[0]])

    def test_data_csv_unchanged_by_truncate(self, synth_dir, tmp_path):
        assert main(["synth", "--out", str(tmp_path)] + SYNTH_FLAGS) == 0
        plain = (tmp_path / "data.csv").read_bytes()
        assert plain == (synth_dir / "data.csv").read_bytes()

    def test_truncated_units_are_held_out(self, synth_dir):
        train = parse_generic((synth_dir / "data.csv").read_text())
        truncated = parse_generic((synth_dir / "truncated.csv").read_text())
        train_ids = [uid for uid, _ in train.instances]
        held_ids = [uid for uid, _ in truncated.instances]
        assert train_ids == [f"s{u}" for u in range(1, 9)]
        assert held_ids == [f"s{u}" for u in range(9, 17)]
        assert not set(train_ids) & set(held_ids)

    def test_defaults_are_the_spec_defaults(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path)]) == 0
        want = write_generic(generate_synthetic(SyntheticSpec()))
        assert (tmp_path / "data.csv").read_text() == want
        assert f"({SyntheticSpec().n_instances} instances)" in capsys.readouterr().out

    def test_bad_truncate_spec(self, tmp_path):
        code = main(["synth", "--out", str(tmp_path), "--truncate", "0.4"])
        assert code == 1

    @pytest.mark.parametrize("spec", ["0.4,x", "0.9,0.4"])
    def test_bad_truncate_value_writes_nothing(self, tmp_path, capsys, spec):
        out = tmp_path / "bad_trunc"
        assert main(["synth", "--out", str(out), "--truncate", spec]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: --truncate ")
        assert repr(spec) in err[0]
        assert not (out / "data.csv").exists()

    def test_shape_flag_and_test_copy_seed(self, tmp_path):
        assert main([
            "synth", "--out", str(tmp_path), "--n-instances", "3", "--seed", "4",
            "--shape", "linear", "--truncate", "0.4,0.9",
        ]) == 0
        spec = SyntheticSpec(n_instances=3, seed=4, degradation_shape="linear")
        ds = generate_synthetic(spec)
        assert (tmp_path / "data.csv").read_text() == write_generic(ds)
        # the test copy is units 4..6 of one 6-unit draw, cut with the
        # spec's seed + 1
        both = generate_synthetic(replace(spec, n_instances=6))
        held = RunToFailureDataset(both.instances[3:], sensor_names=both.sensor_names)
        cut = truncate_random(held, 0.4, 0.9, seed=5)
        assert (tmp_path / "truncated.csv").read_text() == write_generic(cut)
        assert (tmp_path / "rul.txt").read_text() == write_rul_labels(cut.rul_labels)

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n-instances", "2.5", "config key 'n_instances': bad value '2.5'"),
            ("--n-instances", "0", "n_instances must be >= 1, got 0"),
            ("--min-len", "1", "need 2 <= min_len <= max_len, got 1, 120"),
            ("--noise-std", "nan", "noise_std must be finite and >= 0, got nan"),
            ("--noise-std", "inf", "noise_std must be finite and >= 0, got inf"),
            ("--noise-std", "-1", "noise_std must be finite and >= 0, got -1.0"),
            ("--fault-onset-frac", "1", "fault_onset_frac must be in (0,1), got 1.0"),
            (
                "--shape",
                "bogus",
                "unknown shape 'bogus', expected one of"
                " ('linear', 'exponential', 'piecewise')",
            ),
            ("--seed", "-1", "seed must be >= 0, got -1"),
        ],
    )
    def test_bad_setting_one_error_line_naming_it(
        self, tmp_path, capsys, flag, value, message
    ):
        out = tmp_path / "bad"
        code = main(["synth", "--out", str(out), "--truncate", "0.4,0.9", flag, value])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not out.exists()


class TestTrain:
    def test_writes_pipeline_and_log(self, trained, capsys):
        assert trained.exists()
        log = trained.parent / "pipe.edhi.log"
        assert log.exists()
        text = log.read_text()
        assert "epoch 0 train_loss" in text
        assert "best_epoch" in text
        assert "fit_instances 6" in text
        assert "val_instances 2" in text

    def test_same_seed_same_bytes(self, synth_dir, tmp_path):
        outs = []
        for name in ("a.edhi", "b.edhi"):
            out = tmp_path / name
            code = main(
                ["train", "--data", str(synth_dir / "data.csv"), "--out", str(out)]
                + TRAIN_FLAGS
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_untrained_model_warns_once(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "untrained.edhi"
        code = main(
            ["train", "--data", str(synth_dir / "data.csv"), "--out", str(out)]
            + TRAIN_FLAGS
            + ["--learning-rate", "1e6"]
        )
        assert code == 0
        assert "best_epoch 0" in out.with_suffix(".edhi.log").read_text()
        warnings = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("warning:")
        ]
        assert len(warnings) == 1 and "untrained" in warnings[0]

    def test_improved_model_does_not_warn(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "trained.edhi"
        code = main(
            ["train", "--data", str(synth_dir / "data.csv"), "--out", str(out)]
            + TRAIN_FLAGS
        )
        assert code == 0
        assert "best_epoch 0\n" not in out.with_suffix(".edhi.log").read_text()
        assert "warning:" not in capsys.readouterr().err

    def test_model_free_variant_logs_no_epochs(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "linear.edhi"
        code = main(
            ["train", "--data", str(synth_dir / "data.csv"), "--out", str(out)]
            + TRAIN_FLAGS
            # would leave the model untrained, and warn, if one were trained
            + ["--hi-variant", "linear", "--learning-rate", "1e6"]
        )
        assert code == 0
        log = out.with_suffix(".edhi.log").read_text()
        assert log == "fit_instances 6\nval_instances 2\n"
        captured = capsys.readouterr()
        assert "warning:" not in captured.err
        assert "hi_variant linear reads no encoder-decoder" in captured.out
        assert load_pipeline(out).config.hi_variant == "linear"

    def test_diverged_training_fails_with_one_error_line(
        self, synth_dir, tmp_path, capsys
    ):
        code = main(
            ["train", "--data", str(synth_dir / "data.csv"),
             "--out", str(tmp_path / "x.edhi")]
            + TRAIN_FLAGS
            + ["--learning-rate", "1e200"]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: train-lstm: training diverged")
        assert not (tmp_path / "x.edhi").exists()

    def test_zero_validation_frac_fails(self, tmp_path, capsys):
        # refused by the config, before the data file is read
        code = main([
            "train", "--data", str(tmp_path / "missing.csv"),
            "--out", str(tmp_path / "x.edhi"),
            "--validation-frac", "0",
        ] + TRAIN_FLAGS)
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "validation_frac must be in (0,1)" in err[0]
        assert not (tmp_path / "x.edhi").exists()

    def test_out_in_a_missing_directory_refused_before_training(
        self, synth_dir, tmp_path, capsys
    ):
        out = tmp_path / "nodir" / "p.edhi"
        code = main(
            ["train", "--data", str(synth_dir / "data.csv"), "--out", str(out)]
            + TRAIN_FLAGS
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --out {str(out)!r}: directory {str(out.parent)!r} does not exist"
        ]
        assert not out.parent.exists()

    def test_flag_beats_config_file(self, synth_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=0.9\nlambda=0.01  # kernel width\n")
        out = tmp_path / "c.edhi"
        code = main([
            "train", "--data", str(synth_dir / "data.csv"),
            "--config", str(cfg), "--out", str(out),
            "--p", "2", "--c", "4", "--l", "6", "--max-epochs", "3",
            "--patience", "2", "--alpha", "0.25", "--seed", "1",
        ])
        assert code == 0
        config = load_pipeline(out).config
        assert config.alpha == 0.25  # flag wins
        assert config.lam == 0.01  # file beats default

    def test_unknown_config_key_fails(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        code = main([
            "train", "--data", str(synth_dir / "data.csv"),
            "--config", str(cfg), "--out", str(tmp_path / "x.edhi"),
        ])
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "alpha=0.5\n# a note\nalpha=0.9\n",
                "config line 3: key 'alpha' already set on line 1",
            ),
            ("lambda=0.01\nlam=0.02\n", "config keys 'lambda' and 'lam' both set lam"),
        ],
    )
    def test_key_given_twice_one_error_line(
        self, synth_dir, tmp_path, capsys, text, message
    ):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(text)
        out = tmp_path / "x.edhi"
        code = main([
            "train", "--data", str(synth_dir / "data.csv"),
            "--config", str(cfg), "--out", str(out),
        ] + TRAIN_FLAGS)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not out.exists()


class TestEvaluate:
    def test_prints_metrics_and_writes_outputs(
        self, trained, synth_dir, tmp_path, capsys
    ):
        est_path = tmp_path / "estimates.csv"
        curves = tmp_path / "curves"
        code = main([
            "evaluate", "--pipeline", str(trained),
            "--data", str(synth_dir / "truncated.csv"),
            "--rul", str(synth_dir / "rul.txt"),
            "--out", str(est_path), "--curves-dir", str(curves),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics over 8 instances" in out
        assert "MAPE1" in out

        lines = est_path.read_text().splitlines()
        assert lines[0] == (
            "test_id,rul_estimate,std_dev,spread,n_candidates,capped,fallback"
        )
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "s9"
        assert float(first[1]) >= 0.0
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 7 and cells[6] in ("true", "false")
            # the fallback fires exactly when no candidate survives
            assert (cells[6] == "true") == (cells[4] == "0")

        # instances observed past every training life have no candidates
        long_dir = tmp_path / "long"
        assert main([
            "synth", "--out", str(long_dir), "--n-instances", "2",
            "--n-sensors", "3", "--min-len", "40", "--max-len", "44",
            "--seed", "5", "--truncate", "0.95,0.98",
        ]) == 0
        long_est = tmp_path / "long.csv"
        assert main([
            "evaluate", "--pipeline", str(trained),
            "--data", str(long_dir / "truncated.csv"),
            "--rul", str(long_dir / "rul.txt"), "--out", str(long_est),
        ]) == 0
        for line in long_est.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert cells[4:] == ["0", "false", "true"]

        files = sorted(curves.glob("*.csv"))
        assert len(files) == 8
        truncated = dict(
            parse_generic((synth_dir / "truncated.csv").read_text()).instances
        )
        curve_lines = (curves / "s9.csv").read_text().splitlines()
        assert curve_lines[0] == "cycle,hi"
        assert len(curve_lines) == 1 + truncated["s9"].shape[0]
        # the matched curve, byte for byte as predict --curve-out writes it
        single = tmp_path / "s9_hi.csv"
        assert main([
            "predict", "--pipeline", str(trained),
            "--data", str(synth_dir / "truncated.csv"), "--instance", "s9",
            "--curve-out", str(single),
        ]) == 0
        assert (curves / "s9.csv").read_bytes() == single.read_bytes()

    def test_label_count_mismatch_fails(self, trained, synth_dir, tmp_path, capsys):
        bad = tmp_path / "short.txt"
        bad.write_text("5\n7\n")
        code = main([
            "evaluate", "--pipeline", str(trained),
            "--data", str(synth_dir / "truncated.csv"), "--rul", str(bad),
        ])
        assert code == 1
        assert "2 labels for 8 instances" in capsys.readouterr().err

    def test_out_in_a_missing_directory_refused_before_scoring(
        self, trained, synth_dir, tmp_path, capsys
    ):
        out = tmp_path / "nodir" / "estimates.csv"
        code = main([
            "evaluate", "--pipeline", str(trained),
            "--data", str(synth_dir / "truncated.csv"),
            "--rul", str(synth_dir / "rul.txt"), "--out", str(out),
            "--curves-dir", str(tmp_path / "curves"),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --out {str(out)!r}: directory {str(out.parent)!r} does not exist"
        ]
        assert not (tmp_path / "curves").exists()

    def test_missing_pipeline_file_fails(self, synth_dir, capsys):
        code = main([
            "evaluate", "--pipeline", "no-such.edhi",
            "--data", str(synth_dir / "truncated.csv"),
            "--rul", str(synth_dir / "rul.txt"),
        ])
        assert code == 1

    def test_corrupt_pipeline_fails(self, trained, synth_dir, tmp_path, capsys):
        blob = bytearray(trained.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        bad = tmp_path / "corrupt.edhi"
        bad.write_bytes(bytes(blob))
        code = main([
            "evaluate", "--pipeline", str(bad),
            "--data", str(synth_dir / "truncated.csv"),
            "--rul", str(synth_dir / "rul.txt"),
        ])
        assert code == 1
        assert "corrupt" in capsys.readouterr().err

    def test_repeated_train_id_one_error_line(
        self, trained, synth_dir, tmp_path, capsys
    ):
        version, header, payload = split_pipeline(trained.read_bytes())
        ids = header["train_ids"]
        ids[1] = ids[0]
        bad = tmp_path / "repeated.edhi"
        bad.write_bytes(join_pipeline(version, header, payload))
        code = main([
            "evaluate", "--pipeline", str(bad),
            "--data", str(synth_dir / "truncated.csv"),
            "--rul", str(synth_dir / "rul.txt"),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: pipeline file {bad}: duplicate train id {ids[0]!r}"
        ]

    @pytest.mark.parametrize("uid", ["../escaped", "a/b", "..", ".", "nul\0id"])
    def test_id_that_is_no_file_name_refused_with_curves_dir(
        self, trained, synth_dir, tmp_path, capsys, uid
    ):
        text = (synth_dir / "truncated.csv").read_text()
        data = tmp_path / "ids.csv"
        data.write_text(text.replace("\ns10,", f"\n{uid},"))
        estimates = tmp_path / "run" / "estimates.csv"
        curves = tmp_path / "run" / "curves"
        code = main([
            "evaluate", "--pipeline", str(trained), "--data", str(data),
            "--rul", str(synth_dir / "rul.txt"),
            "--out", str(estimates), "--curves-dir", str(curves),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: instance id {uid!r} is not a plain file name;"
            " --curves-dir names each curve file after its instance"
        ]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ids.csv"]

    def test_blank_label_file_one_error_line(self, trained, synth_dir, tmp_path, capsys):
        blank = tmp_path / "blank.txt"
        blank.write_text("\n  \n")
        code = main([
            "evaluate", "--pipeline", str(trained),
            "--data", str(synth_dir / "truncated.csv"), "--rul", str(blank),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {blank}: no labels"]

    def test_tau_overrides_change_header(self, trained, synth_dir, capsys):
        code = main([
            "evaluate", "--pipeline", str(trained),
            "--data", str(synth_dir / "truncated.csv"),
            "--rul", str(synth_dir / "rul.txt"),
            "--tau1", "20", "--tau2", "15",
        ])
        assert code == 0
        assert "tau1=20, tau2=15" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--tau1", "x", "error: config key 'tau1': bad value 'x'"),
            ("--tau2", "", "error: config key 'tau2': bad value ''"),
            ("--tau1", "nan", "error: tau1 must be > 0, got nan"),
        ],
    )
    def test_bad_tau_one_error_line_naming_it(
        self, trained, synth_dir, capsys, flag, value, message
    ):
        code = main([
            "evaluate", "--pipeline", str(trained),
            "--data", str(synth_dir / "truncated.csv"),
            "--rul", str(synth_dir / "rul.txt"),
            flag, value,
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]


class TestQuickStartFleet:
    def test_zero_label_warns_and_still_writes_out(
        self, quick_start, tmp_path, capsys
    ):
        fleet = quick_start / "fleet"
        data = fleet / "truncated.csv"
        labels = (fleet / "rul.txt").read_text().splitlines()
        zeroed = tmp_path / "rul.txt"
        zeroed.write_text("\n".join(["0"] + labels[1:]) + "\n")
        reference = tmp_path / "reference.csv"
        assert _evaluate(quick_start, data, fleet / "rul.txt", reference) == 0
        capsys.readouterr()

        code = _evaluate(quick_start, data, zeroed, tmp_path / "est.csv")
        assert code == 0
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning: 1 of 30 true RULs are 0")
        assert "MAPE1 (%)  undefined" in captured.out
        assert "metrics over 30 instances" in captured.out
        # the estimates do not depend on the labels
        assert (tmp_path / "est.csv").read_text() == reference.read_text()

    @pytest.mark.parametrize(
        "line, last_field, message",
        [
            (5, None, "line 5: expected 7 columns, got 6"),
            (7, "nan", "line 7: non-finite value 'nan'"),
        ],
        ids=["malformed-row", "nan-reading"],
    )
    def test_bad_reading_one_error_line(
        self, quick_start, tmp_path, capsys, line, last_field, message
    ):
        fleet = quick_start / "fleet"
        rows = (fleet / "truncated.csv").read_text().splitlines()
        fields = rows[line - 1].split(",")
        fields[-1:] = [last_field] if last_field else []
        rows[line - 1] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(rows) + "\n")
        code = _evaluate(quick_start, bad, fleet / "rul.txt", tmp_path / "est.csv")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad} {message}"]
        assert not (tmp_path / "est.csv").exists()

    def test_non_integer_cycle_one_error_line(self, quick_start, tmp_path, capsys):
        fleet = quick_start / "fleet"
        rows = (fleet / "truncated.csv").read_text().splitlines()
        fields = rows[3].split(",")
        fields[1] += ".5"
        rows[3] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(rows) + "\n")
        code = _evaluate(quick_start, bad, fleet / "rul.txt", tmp_path / "est.csv")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad} line 4: non-integer cycle '{fields[1]}'"]
        assert not (tmp_path / "est.csv").exists()

    @pytest.mark.parametrize("prefix", ["s", ""], ids=["ids_s1", "ids_1"])
    def test_headerless_csv_names_the_missing_header(
        self, quick_start, tmp_path, capsys, prefix
    ):
        # a comma on the first line reads as generic CSV, whatever the ids
        fleet = quick_start / "fleet"
        rows = (fleet / "truncated.csv").read_text().splitlines()[1:]
        bad = tmp_path / "headerless.csv"
        bad.write_text("".join(prefix + row[1:] + "\n" for row in rows))
        assert bad.read_text().startswith(prefix + "31,1,")
        code = _evaluate(quick_start, bad, fleet / "rul.txt", tmp_path / "est.csv")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {bad} line 1: header must start with instance_id,cycle"]
        assert not (tmp_path / "est.csv").exists()

    def test_negative_label_one_error_line(self, quick_start, tmp_path, capsys):
        fleet = quick_start / "fleet"
        labels = (fleet / "rul.txt").read_text().splitlines()
        labels[2] = "-4.0"
        rul = tmp_path / "rul.txt"
        rul.write_text("\n".join(labels) + "\n")
        code = _evaluate(quick_start, fleet / "truncated.csv", rul, tmp_path / "e.csv")
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {rul} line 3: negative RUL '-4.0'"]

    def test_huge_label_scores_inf_without_warning(
        self, quick_start, tmp_path, capsys
    ):
        fleet = quick_start / "fleet"
        labels = (fleet / "rul.txt").read_text().splitlines()
        labels[0] = "1e6"
        rul = tmp_path / "rul.txt"
        rul.write_text("\n".join(labels) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = _evaluate(
                quick_start, fleet / "truncated.csv", rul, tmp_path / "e.csv"
            )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "S          inf" in captured.out


class TestPredict:
    def test_selected_instance(self, trained, synth_dir, capsys):
        code = main([
            "predict", "--pipeline", str(trained),
            "--data", str(synth_dir / "truncated.csv"), "--instance", "s11",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "instance s11" in out
        assert "rul_estimate" in out
        assert "n_candidates" in out

    def test_match_evidence_lines(self, trained, synth_dir, tmp_path, capsys):
        def predict(data, instance):
            assert main([
                "predict", "--pipeline", str(trained), "--data", str(data),
                "--instance", instance,
            ]) == 0
            return capsys.readouterr().out.splitlines()

        lines = predict(synth_dir / "truncated.csv", "s11")
        ds = parse_generic((synth_dir / "truncated.csv").read_text())
        est, _ = predict_one(load_pipeline(trained), dict(ds.instances)["s11"])
        best = est.best_match
        at = lines.index(f"n_candidates {len(est.candidates)}")
        assert lines[at + 1 : at + 3] == [
            f"best_match {best.train_id} lag {best.lag}"
            f" similarity {best.similarity:.6g}",
            f"n_pairs {est.n_pairs}",
        ]
        assert est.n_pairs >= len(est.candidates) > 0

        # observed past every training life: no pair, so no best match
        long_dir = tmp_path / "long"
        assert main([
            "synth", "--out", str(long_dir), "--n-instances", "2",
            "--n-sensors", "3", "--min-len", "40", "--max-len", "44",
            "--seed", "5", "--truncate", "0.95,0.98",
        ]) == 0
        capsys.readouterr()
        lines = predict(long_dir / "truncated.csv", "s3")
        assert lines[lines.index("n_candidates 0") + 1 :][:2] == [
            "best_match none",
            "n_pairs 0",
        ]
        assert "fallback true" in lines

    def test_multi_instance_needs_flag(self, trained, synth_dir, capsys):
        code = main([
            "predict", "--pipeline", str(trained),
            "--data", str(synth_dir / "truncated.csv"),
        ])
        assert code == 1
        assert "pass --instance" in capsys.readouterr().err

    def test_unknown_instance_fails(self, trained, synth_dir, capsys):
        code = main([
            "predict", "--pipeline", str(trained),
            "--data", str(synth_dir / "truncated.csv"), "--instance", "s99",
        ])
        assert code == 1
        assert "'s99' not in" in capsys.readouterr().err

    def test_single_instance_file_and_curve_out(
        self, trained, synth_dir, tmp_path, capsys
    ):
        ds = parse_generic((synth_dir / "truncated.csv").read_text())
        one = RunToFailureDataset(
            instances=[ds.instances[1]], sensor_names=ds.sensor_names
        )
        single = tmp_path / "single.csv"
        single.write_text(write_generic(one))
        curve_path = tmp_path / "curve.csv"
        code = main([
            "predict", "--pipeline", str(trained),
            "--data", str(single), "--curve-out", str(curve_path),
        ])
        assert code == 0
        assert "instance s10" in capsys.readouterr().out
        lines = curve_path.read_text().splitlines()
        assert lines[0] == "cycle,hi"
        assert len(lines) == 1 + one.instances[0][1].shape[0]


    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda h: h.pop("sections"), id="no-sections"),
            pytest.param(lambda h: h["train_ids"].append("zz"), id="extra-train-id"),
            pytest.param(lambda h: h["config"].update(p="x"), id="p-is-a-string"),
            pytest.param(lambda h: h.update(config=[]), id="config-is-a-list"),
        ],
    )
    def test_malformed_signed_pipeline_one_error_line(
        self, trained, synth_dir, tmp_path, capsys, edit
    ):
        version, header, payload = split_pipeline(trained.read_bytes())
        edit(header)
        bad = tmp_path / "malformed.edhi"
        bad.write_bytes(join_pipeline(version, header, payload))
        code = main([
            "predict", "--pipeline", str(bad),
            "--data", str(synth_dir / "truncated.csv"), "--instance", "s11",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: pipeline file {bad}:")

    @pytest.mark.parametrize(
        "edit, reason",
        [
            pytest.param(lambda h: b"{not json", "unreadable header", id="not-json"),
            pytest.param(
                lambda h: section_past_payload(h, "lr_theta"),
                "truncated section lr_theta",
                id="section-past-payload",
            ),
        ],
    )
    def test_unreadable_signed_pipeline_one_error_line(
        self, trained, synth_dir, tmp_path, capsys, edit, reason
    ):
        version, header, payload = split_pipeline(trained.read_bytes())
        bad = tmp_path / "unreadable.edhi"
        bad.write_bytes(join_pipeline(version, edit(header), payload))
        code = main([
            "predict", "--pipeline", str(bad),
            "--data", str(synth_dir / "truncated.csv"), "--instance", "s11",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: pipeline file {bad}: {reason}"]


    @pytest.mark.parametrize(
        "section, value, reason",
        [
            ("norm_std", 0.0, "a kept sensor has std <= 0"),
            ("lr_theta", np.inf, "non-finite values"),
        ],
    )
    def test_bad_signed_value_one_error_line(
        self, trained, synth_dir, tmp_path, capsys, section, value, reason
    ):
        assert load_pipeline(trained).norm.kept[0] == 0
        bad = tmp_path / "bad_value.edhi"
        bad.write_bytes(with_float(trained.read_bytes(), section, 0, value))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "predict", "--pipeline", str(bad),
                "--data", str(synth_dir / "truncated.csv"), "--instance", "s11",
            ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: pipeline file {bad}: section {section}: {reason}"
        ]


class TestSweep:
    def test_grid_runs_and_reports_best(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("alpha=0.3,0.9\nmax_epochs=2\npatience=1\n")
        results = tmp_path / "results.csv"
        code = main([
            "sweep", "--data", str(synth_dir / "data.csv"),
            "--config", str(cfg), "--out", str(results),
            "--p", "2", "--c", "4", "--l", "6", "--tau", "8",
            "--lambda", "0.05", "--r-max", "60", "--seed", "2",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "warning:" not in captured.err
        out = captured.out
        assert "trial 0 score" in out
        assert "trial 1 score" in out
        assert "best score" in out

        lines = results.read_text().splitlines()
        assert lines[0] == "trial,score,alpha,max_epochs,patience"
        assert len(lines) == 3
        assert lines[1].split(",")[2] == "0.3"
        assert lines[2].split(",")[2] == "0.9"


    @pytest.mark.parametrize(
        "text, message",
        [
            ("alpha=0.3\nbogus\n", "config line 2: expected key=value, got 'bogus'"),
            ("alpha= , \n", "config key 'alpha' has no values"),
            (
                "alpha=0.3\nalpha=0.9\n",
                "config line 2: key 'alpha' already set on line 1",
            ),
            (
                "lam=0.01,0.02\nlambda=0.05\n",
                "config keys 'lam' and 'lambda' both set lam",
            ),
        ],
    )
    def test_bad_grid_file_one_error_line(
        self, synth_dir, tmp_path, capsys, text, message
    ):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        results = tmp_path / "results.csv"
        code = main([
            "sweep", "--data", str(synth_dir / "data.csv"),
            "--config", str(cfg), "--out", str(results),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]
        assert not results.exists()

    def test_out_in_a_missing_directory_refused_before_building(
        self, synth_dir, tmp_path, capsys
    ):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("alpha=0.3,0.9\nmax_epochs=2\npatience=1\n")
        out = tmp_path / "nodir" / "results.csv"
        code = main([
            "sweep", "--data", str(synth_dir / "data.csv"),
            "--config", str(cfg), "--out", str(out),
            "--p", "2", "--c", "4", "--l", "6", "--seed", "2",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: --out {str(out)!r}: directory {str(out.parent)!r} does not exist"
        ]

    def test_keyless_config_is_one_error(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "keyless.cfg"
        cfg.write_text("# nothing to sweep\n")
        results = tmp_path / "results.csv"
        code = main([
            "sweep", "--data", str(synth_dir / "data.csv"),
            "--config", str(cfg), "--out", str(results),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: empty sweep grid"]
        assert not results.exists()

    def test_untrained_shared_model_warns_once(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("alpha=0.3,0.9\nhi_variant=recon_error,linear\n")
        code = main(
            ["sweep", "--data", str(synth_dir / "data.csv"), "--config", str(cfg)]
            + TRAIN_FLAGS
            + ["--learning-rate", "1e6"]
        )
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert sum(line.startswith("trial ") for line in lines) == 4
        # trials 0 and 2 share the one trained (recon_error) build; the
        # linear trials train nothing
        warnings = captured.err.splitlines()
        assert len(warnings) == 1
        assert warnings[0].startswith("warning: trials 0,2: ")
        assert "untrained" in warnings[0]


class TestRepeatedFlag:
    """A setting given by two flags is refused, as a config file that sets
    it twice is: one error line naming both flags, exit 1, nothing written."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ["--alpha", "0.3", "--alpha", "0.4"],
                "'--alpha' and '--alpha' both set alpha",
            ),
            (["--lam", "1", "--lambda", "2"], "'--lam' and '--lambda' both set lam"),
            (["--lambda", "1", "--lam=2"], "'--lambda' and '--lam' both set lam"),
            (["--tau1", "1", "--tau1", "1"], "'--tau1' and '--tau1' both set tau1"),
        ],
    )
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_train_and_sweep(
        self, synth_dir, tmp_path, capsys, command, flags, message
    ):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("alpha=0.3,0.9\n" if command == "sweep" else "p=2\n")
        out = tmp_path / "out"
        code = main([
            command, "--data", str(synth_dir / "data.csv"),
            "--config", str(cfg), "--out", str(out),
        ] + flags)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: flags {message}"]
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "1", "--seed", "2"], "'--seed' and '--seed' both set seed"),
            (
                ["--shape", "linear", "--shape", "linear"],
                "'--shape' and '--shape' both set degradation_shape",
            ),
        ],
    )
    def test_synth(self, tmp_path, capsys, flags, message):
        out = tmp_path / "fleet"
        code = main(["synth", "--out", str(out), "--truncate", "0.4,0.9"] + flags)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: flags {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--tau1", "--tau2"])
    def test_evaluate_tolerance(self, trained, synth_dir, tmp_path, capsys, flag):
        out = tmp_path / "estimates.csv"
        code = main([
            "evaluate", "--pipeline", str(trained),
            "--data", str(synth_dir / "truncated.csv"),
            "--rul", str(synth_dir / "rul.txt"),
            "--out", str(out), "--curves-dir", str(tmp_path / "curves"),
            flag, "20", flag, "15",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        name = flag[2:]
        assert captured.err.splitlines() == [
            f"error: flags {flag!r} and {flag!r} both set {name}"
        ]
        assert list(tmp_path.iterdir()) == []


class TestFormats:
    def _turbofan_text(self, units=2, cycles=10):
        rng = np.random.default_rng(0)
        lines = []
        for u in range(1, units + 1):
            for t in range(1, cycles + 1):
                vals = " ".join(f"{v:.4f}" for v in rng.normal(size=24))
                lines.append(f"{u} {t} {vals}")
        return "\n".join(lines) + "\n"

    def test_sniffing(self):
        assert _sniff_format("instance_id,cycle,s1\na,1,0.5\n") == "generic"
        assert _sniff_format(self._turbofan_text()) == "turbofan"
        # leading blank lines are skipped
        assert _sniff_format("\n \n\t\ninstance_id,cycle,s1\na,1,0.5\n") == "generic"
        assert _sniff_format("\r\n\n" + self._turbofan_text()) == "turbofan"
        # a comma means CSV, header or not; so does a leading instance_id
        assert _sniff_format("s1,1,0.5\n") == "generic"
        assert _sniff_format("1,1,0.5\n") == "generic"
        assert _sniff_format("instance_id cycle s1\n") == "generic"
        with pytest.raises(ValueError, match="empty data file"):
            _sniff_format("\n  \n")

    @pytest.mark.parametrize("sep", list("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_sniffing_ends_the_line_where_splitlines_does(self, sep):
        assert _sniff_format(f" {sep}{sep}instance_id{sep}1 1 0.5") == "generic"
        assert _sniff_format(f"x{sep}instance_id,cycle") == "turbofan"
        assert _sniff_format(f"1 1 0.5{sep}1,1,0.5") == "turbofan"

    @given(
        st.lists(
            st.sampled_from(
                ["instance_id", "1 1 0.5", ",", " ", "\t", "\xa0", "x"]
                + ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1f", "\x85", "\u2028"]
            ),
            max_size=8,
        )
    )
    @settings(max_examples=300)
    def test_sniffing_reads_the_first_non_blank_line(self, parts):
        def by_lines(text):  # the first non-blank line, from every line
            for line in text.splitlines():
                if line.strip():
                    generic = "," in line or line.split()[0] == "instance_id"
                    return "generic" if generic else "turbofan"
            return "empty"

        text = "".join(parts)
        try:
            got = _sniff_format(text)
        except ValueError as err:
            assert str(err) == "empty data file"
            got = "empty"
        assert got == by_lines(text)

    @pytest.mark.parametrize(
        "kind, edit, parses",
        [
            ("generic", lambda text: text, True),
            ("generic", lambda text: text.replace("\n", "\r\n"), True),
            # no header on line 1: the parse fails, the sniffed one alike
            ("generic", lambda text: "\n \n" + text, False),
            ("generic", lambda text: "instance_id,cycle,a\nu,1,0.5\n\nu,2,1e3\n", True),
            ("turbofan", lambda text: text, True),
            ("turbofan", lambda text: "\n\t\r\n" + text, True),
            ("turbofan", lambda text: text.replace("\n", "\r\n"), True),
        ],
        ids=[
            "synth", "synth_crlf", "synth_leading_blanks", "hand_written",
            "turbofan", "turbofan_leading_blanks", "turbofan_crlf",
        ],
    )
    def test_sniffed_parse_is_the_parse_of_its_format(
        self, tmp_path, kind, edit, parses
    ):
        if kind == "generic":
            ds = generate_synthetic(SyntheticSpec(n_instances=3, n_sensors=2, seed=1))
            text, parse = edit(write_generic(ds)), parse_generic
        else:
            text, parse = edit(self._turbofan_text()), parse_turbofan_series
        path = tmp_path / "fleet.txt"
        path.write_text(text, newline="")

        def outcome(load):
            try:
                ds = load()
            except ValueError as exc:
                return str(exc)
            series = [(uid, s.dtype, s.shape, s.tobytes()) for uid, s in ds.instances]
            return ds.sensor_names, series

        assert _sniff_format(text) == kind
        # what the file read under an explicit format used to run
        expected = outcome(lambda: parse(path.read_text(), str(path)))
        assert isinstance(expected, tuple) == parses
        assert outcome(lambda: _load_dataset(str(path))) == expected

    def test_turbofan_load(self, tmp_path):
        path = tmp_path / "fleet.txt"
        path.write_text(self._turbofan_text())
        ds = _load_dataset(str(path))
        assert len(ds.instances) == 2
        assert ds.n_sensors == 24
        assert ds.instances[0][0] == "1"

    def test_turbofan_short_row_names_its_line(self, tmp_path):
        lines = self._turbofan_text().splitlines()
        lines[4] = lines[4].rsplit(" ", 1)[0]
        path = tmp_path / "fleet.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as err:
            _load_dataset(str(path))
        assert str(err.value) == f"{path} line 5: expected 26 columns, got 25"

    @pytest.mark.parametrize("command", ["train", "evaluate", "predict", "sweep"])
    def test_format_flag_is_refused(self, command, capsys):
        required = {
            "train": [],
            "evaluate": ["--pipeline", "p.edhi", "--rul", "rul.txt"],
            "predict": ["--pipeline", "p.edhi"],
            "sweep": ["--config", "grid.cfg"],
        }[command]
        argv = [command, "--data", "d.csv", *required, "--format", "generic"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --format generic" in capsys.readouterr().err

    def test_rul_labels_attach(self, tmp_path):
        path = tmp_path / "fleet.txt"
        path.write_text(self._turbofan_text())
        rul = tmp_path / "rul.txt"
        rul.write_text("12\n30\n")
        ds = _load_dataset(str(path), rul_path=str(rul))
        assert ds.rul_labels == [12.0, 30.0]


# train's and sweep's settings flags, one per RunConfig field
RUN_SETTINGS = [
    (("--p",), "cfg_p"),
    (("--c",), "cfg_c"),
    (("--l",), "cfg_l"),
    (("--tau",), "cfg_tau"),
    (("--alpha",), "cfg_alpha"),
    (("--r-max",), "cfg_r_max"),
    (("--lam", "--lambda"), "cfg_lam"),
    (("--beta",), "cfg_beta"),
    (("--hi-variant",), "cfg_hi_variant"),
    (("--smooth-window",), "cfg_smooth_window"),
    (("--init-frac",), "cfg_init_frac"),
    (("--validation-frac",), "cfg_validation_frac"),
    (("--healthy-frac",), "cfg_healthy_frac"),
    (("--faulty-frac",), "cfg_faulty_frac"),
    (("--seed",), "cfg_seed"),
    (("--tau1",), "cfg_tau1"),
    (("--tau2",), "cfg_tau2"),
    (("--learning-rate",), "cfg_learning_rate"),
    (("--max-epochs",), "cfg_max_epochs"),
    (("--batch-size",), "cfg_batch_size"),
    (("--grad-clip-norm",), "cfg_grad_clip_norm"),
    (("--patience",), "cfg_patience"),
]
HELP = [(("-h", "--help"), "help")]
SURFACE = {
    "train": HELP + [
        (("--data",), "data"),
        (("--config",), "config"),
        (("--out",), "out"),
        (("--log",), "log"),
    ] + RUN_SETTINGS,
    "evaluate": HELP + [
        (("--pipeline",), "pipeline"),
        (("--data",), "data"),
        (("--rul",), "rul"),
        (("--tau1",), "tau1"),
        (("--tau2",), "tau2"),
        (("--out",), "out"),
        (("--curves-dir",), "curves_dir"),
    ],
    "predict": HELP + [
        (("--pipeline",), "pipeline"),
        (("--data",), "data"),
        (("--instance",), "instance"),
        (("--curve-out",), "curve_out"),
    ],
    "synth": HELP + [
        (("--out",), "out"),
        (("--truncate",), "truncate"),
        (("--n-instances",), "cfg_n_instances"),
        (("--n-sensors",), "cfg_n_sensors"),
        (("--min-len",), "cfg_min_len"),
        (("--max-len",), "cfg_max_len"),
        (("--noise-std",), "cfg_noise_std"),
        (("--fault-onset-frac",), "cfg_fault_onset_frac"),
        (("--shape",), "cfg_degradation_shape"),
        (("--seed",), "cfg_seed"),
    ],
    "sweep": HELP + [
        (("--data",), "data"),
        (("--config",), "config"),
        (("--out",), "out"),
    ] + RUN_SETTINGS,
}


class TestSurface:
    def _subparsers(self):
        parser = build_parser()
        return next(a for a in parser._actions if a.dest == "command").choices

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_option_strings_and_dests(self, command):
        actions = self._subparsers()[command]._actions
        got = [(tuple(a.option_strings), a.dest) for a in actions]
        assert got == SURFACE[command]

    @pytest.mark.parametrize("command", ["train", "synth", "sweep"])
    def test_every_setting_has_help(self, command):
        for action in self._subparsers()[command]._actions:
            if action.dest.startswith("cfg_"):
                assert action.help, action.dest

    def test_percent_in_a_help_text_prints_as_is(self):
        text = " ".join(self._subparsers()["train"].format_help().split())
        assert "labels the leading 5% healthy" in text


def test_train_bytes_do_not_depend_on_blas_variables(tmp_path):
    """``edhi train`` writes the same bytes with the BLAS thread variables
    unset as with them set to 1, since importing edhi sets them to 1.

    Without that default OpenBLAS starts one thread per CPU, which changes
    this fleet's pipeline file (the smallest such fleet found on 2 CPUs).
    One CPU gives one BLAS thread either way, so this test can only fail on a
    host with 2 or more CPUs.
    """
    assert main([
        "synth", "--out", str(tmp_path), "--n-instances", "20", "--n-sensors", "3",
        "--min-len", "128", "--max-len", "362", "--seed", "1",
    ]) == 0
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    unset = {k: v for k, v in os.environ.items() if k not in blas}
    paths = [str(Path(edhi.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    unset["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    outs = []
    for env in (unset, {**unset, **dict.fromkeys(blas, "1")}):
        out = tmp_path / f"pipe{len(outs)}.edhi"
        subprocess.run(
            [
                sys.executable, "-m", "edhi.cli", "train",
                "--data", str(tmp_path / "data.csv"), "--out", str(out),
                "--healthy-frac", "0.3", "--max-epochs", "1", "--seed", "1",
            ],
            env=env, check=True, capture_output=True,
        )
        outs.append(out)
    assert outs[0].read_bytes() == outs[1].read_bytes()
    log = Path(f"{outs[0]}.log").read_bytes()
    assert log == Path(f"{outs[1]}.log").read_bytes()
