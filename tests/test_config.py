"""Tests for RunConfig: every way of making one validates every field."""

import math
from dataclasses import fields, replace

import pytest

from edhi.config import (
    HI_VARIANTS,
    RunConfig,
    _resolve,
    apply_overrides,
    config_from_dict,
    parse_config_text,
    parse_sweep_grid,
)
from edhi.data import SyntheticSpec

# one invalid value per field
INVALID = {
    "p": 0,
    "c": 0,
    "l": 0,
    "tau": 0,
    "alpha": 1.0001,
    "r_max": 0.5,
    "lam": 0.0,
    "beta": 1.2,
    "hi_variant": "cubic",
    "smooth_window": 0,
    "init_frac": 1.5,
    "validation_frac": 1.0,
    "healthy_frac": 0.0,
    "faulty_frac": 0.0,
    "seed": -1,
    "tau1": 0.0,
    "tau2": -1.0,
    "learning_rate": 0.0,
    "max_epochs": 0,
    "batch_size": 0,
    "grad_clip_norm": 0.0,
    "patience": 0,
}
FLOAT_FIELDS = [
    f.name for f in fields(RunConfig) if f.type in ("float", "float | None")
]
INT_FIELDS = [f.name for f in fields(RunConfig) if f.type == "int"]


def test_invalid_table_covers_every_field():
    assert set(INVALID) == {f.name for f in fields(RunConfig)}


@pytest.mark.parametrize("name", sorted(INVALID))
class TestEveryFieldValidated:
    def test_construction(self, name):
        with pytest.raises(ValueError, match="must be|unknown HI variant"):
            RunConfig(**{name: INVALID[name]})

    def test_replace(self, name):
        with pytest.raises(ValueError):
            replace(RunConfig(), **{name: INVALID[name]})

    def test_apply_overrides(self, name):
        with pytest.raises(ValueError):
            apply_overrides(RunConfig(), {name: str(INVALID[name])})

    def test_config_from_dict(self, name):
        with pytest.raises(ValueError):
            config_from_dict({**RunConfig().to_dict(), name: INVALID[name]})


@pytest.mark.parametrize(
    "name, value",
    [("p", "x"), ("p", 2.5), ("p", True), ("seed", None), ("lam", "x"),
     ("healthy_frac", "x"), ("hi_variant", 7), ("tau1", [])],
)
def test_wrong_type_is_a_value_error(name, value):
    with pytest.raises(ValueError):
        RunConfig(**{name: value})


@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_nan_rejected(name):
    with pytest.raises(ValueError):
        RunConfig(**{name: math.nan})


@pytest.mark.parametrize("name", INT_FIELDS)
def test_integer_annotated_fields_reject_floats(name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got 2.0$"):
        RunConfig(**{name: 2.0})
    with pytest.raises(ValueError, match=f"config key '{name}': bad value '2.0'"):
        apply_overrides(RunConfig(), {name: "2.0"})


def test_int_and_float_fields_cover_the_numeric_fields():
    numeric = {f.name for f in fields(RunConfig)} - {"hi_variant"}
    assert set(INT_FIELDS) | set(FLOAT_FIELDS) == numeric


@pytest.mark.parametrize("parse", [
    lambda key: apply_overrides(RunConfig(), {key: "1"}),
    lambda key: parse_sweep_grid({key: "1,2"}),
])
def test_keys_resolved_alike_by_overrides_and_grids(parse):
    with pytest.raises(ValueError, match="^unknown config key 'bogus'$"):
        parse("bogus")
    with pytest.raises(ValueError, match="^unknown config key 'lam_'$"):
        parse("lam_")
    # the alias of a SyntheticSpec field names no RunConfig field
    with pytest.raises(ValueError, match="^unknown config key 'shape'$"):
        parse("shape")
    parse("lambda")  # the alias of lam


def test_valid_edges_accepted():
    RunConfig(healthy_frac=None)
    RunConfig(healthy_frac=1.0, alpha=0.0, seed=0)
    assert RunConfig(r_max=60).r_max == 60


def test_validation_frac_is_an_open_unit():
    # a build needs validation units for early stopping and a fit split
    for value in (0.0, 1.0):
        with pytest.raises(ValueError, match=r"^validation_frac must be in \(0,1\)"):
            RunConfig(validation_frac=value)
    assert RunConfig(validation_frac=1e-9).validation_frac == 1e-9


def test_config_from_dict_round_trip_and_field_set():
    cfg = RunConfig(p=2, c=5, healthy_frac=0.3)
    assert config_from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict({**cfg.to_dict(), "bogus": 1})
    partial = cfg.to_dict()
    del partial["tau"]
    with pytest.raises(ValueError, match="missing \\['tau'\\]"):
        config_from_dict(partial)


def test_apply_overrides_alias_and_coercion():
    cfg = apply_overrides(RunConfig(), {"lambda": "0.01", "healthy_frac": "none"})
    assert cfg.lam == 0.01 and cfg.healthy_frac is None
    with pytest.raises(ValueError, match="bad value"):
        apply_overrides(RunConfig(), {"p": "two"})


def test_apply_overrides_on_a_synthetic_spec():
    spec = apply_overrides(
        SyntheticSpec(), {"n_instances": "3", "noise_std": "0.1", "shape": "linear"}
    )
    assert spec == SyntheticSpec(
        n_instances=3, noise_std=0.1, degradation_shape="linear"
    )
    with pytest.raises(ValueError, match="^config key 'n_instances': bad value '2.5'$"):
        apply_overrides(SyntheticSpec(), {"n_instances": "2.5"})
    with pytest.raises(ValueError, match="^unknown config key 'lam'$"):
        apply_overrides(SyntheticSpec(), {"lam": "1"})


def test_config_line_without_equals_named():
    with pytest.raises(ValueError) as err:
        parse_config_text("alpha=0.5\n\n  bogus  # a note\n")
    assert str(err.value) == "config line 3: expected key=value, got '  bogus  # a note'"


def test_grid_key_without_values_named():
    with pytest.raises(ValueError, match="^config key 'lambda' has no values$"):
        parse_sweep_grid({"alpha": "0.5", "lambda": " , "})


class TestMatchFields:
    def test_validation(self):
        RunConfig()
        with pytest.raises(ValueError):
            RunConfig(lam=0.0)
        with pytest.raises(ValueError):
            RunConfig(tau=0)
        with pytest.raises(ValueError):
            RunConfig(alpha=1.0001)
        with pytest.raises(ValueError):
            RunConfig(r_max=0.5)


class TestHiVariant:
    def test_valid_kinds(self):
        assert HI_VARIANTS == (
            "recon_error",
            "recon_error_squared",
            "exponential",
            "linear",
            "endpoints",
        )
        for kind in HI_VARIANTS:
            RunConfig(hi_variant=kind)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown HI variant"):
            RunConfig(hi_variant="cubic")

    def test_bad_beta_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(hi_variant="exponential", beta=1.2)


class TestDeclarations:
    @pytest.mark.parametrize("record", [RunConfig, SyntheticSpec])
    def test_every_field_declares_a_rule_and_help(self, record):
        for f in fields(record):
            check, message = f.metadata["rule"]
            assert callable(check), f.name
            assert f.metadata["help"].strip(), f.name

    @pytest.mark.parametrize(
        "record, key, name",
        [(RunConfig, f.name, f.name) for f in fields(RunConfig)]
        + [(SyntheticSpec, f.name, f.name) for f in fields(SyntheticSpec)]
        + [(RunConfig, "lambda", "lam")]
        + [(SyntheticSpec, "shape", "degradation_shape")],
    )
    def test_every_key_resolves_to_its_field(self, record, key, name):
        assert [(k, f.name) for k, f in _resolve([key], record)] == [(key, name)]

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"n_instances": 2.5}, "n_instances must be an integer, got 2.5"),
            ({"n_sensors": True}, "n_sensors must be an integer, got True"),
            ({"min_len": 30.5, "max_len": 40}, "min_len must be an integer, got 30.5"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"noise_std": "0.1"}, "noise_std must be a number, got '0.1'"),
            ({"degradation_shape": 3}, "degradation_shape must be a string, got 3"),
        ],
    )
    def test_synthetic_spec_refuses_wrong_types(self, setting, message):
        with pytest.raises(ValueError) as err:
            SyntheticSpec(**setting)
        assert str(err.value) == message


class TestKeysOnce:
    def test_config_key_repeated_names_both_lines(self):
        with pytest.raises(ValueError) as err:
            parse_config_text("alpha=0.5\n\n  alpha = 0.9  # again\n")
        assert str(err.value) == "config line 3: key 'alpha' already set on line 1"

    @pytest.mark.parametrize("parse", [
        lambda mapping: apply_overrides(RunConfig(), mapping),
        parse_sweep_grid,
    ])
    def test_two_spellings_of_one_field_named(self, parse):
        with pytest.raises(ValueError) as err:
            parse({"lam": "0.01", "lambda": "0.05"})
        assert str(err.value) == "config keys 'lam' and 'lambda' both set lam"

    def test_two_spellings_of_a_synth_field_named(self):
        with pytest.raises(ValueError) as err:
            apply_overrides(
                SyntheticSpec(), {"shape": "linear", "degradation_shape": "linear"}
            )
        assert str(err.value) == (
            "config keys 'shape' and 'degradation_shape' both set degradation_shape"
        )
