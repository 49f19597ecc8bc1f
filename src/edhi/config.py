"""Run configuration: one flat record covering every pipeline stage.

Defaults are tuned for the turbofan benchmark (p=3, c=30, l=20, tau=40,
alpha=0.87, r_max=125, lambda=0.0005). Config
files are flat key=value text; "lambda" is accepted as an alias for the
``lam`` field since the bare word is reserved in Python.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field, fields, replace

HI_VARIANTS = (
    "recon_error",
    "recon_error_squared",
    "exponential",
    "linear",
    "endpoints",
)

_ALIASES = {"lambda": "lam", "shape": "degradation_shape"}
# fields read only when scoring (matching, capping and timeliness); a build
# never reads them, so configs differing only here share one build
SCORING_FIELDS = ("tau", "alpha", "lam", "r_max", "tau1", "tau2")


def _at_least(lo):
    return (lambda v: v >= lo), f">= {lo}"


_POSITIVE = (lambda v: v > 0, "> 0")
_UNIT = (lambda v: 0 <= v <= 1, "in [0,1]")
_OPEN_UNIT = (lambda v: 0 < v < 1, "in (0,1)")
_UNIT_UPPER = (lambda v: 0 < v <= 1, "in (0,1]")
# field -> (check, requirement); NaN fails every check
_RULES = {
    "p": _at_least(1),
    "c": _at_least(1),
    "l": _at_least(1),
    "tau": _at_least(1),
    "alpha": _UNIT,
    "r_max": _at_least(1),
    "lam": _POSITIVE,
    "beta": _OPEN_UNIT,
    "smooth_window": _at_least(1),
    "init_frac": _UNIT,
    "validation_frac": _OPEN_UNIT,
    "healthy_frac": _UNIT_UPPER,
    "faulty_frac": _UNIT_UPPER,
    "seed": _at_least(0),
    "tau1": _POSITIVE,
    "tau2": _POSITIVE,
    "learning_rate": _POSITIVE,
    "max_epochs": _at_least(1),
    "batch_size": _at_least(1),
    "grad_clip_norm": _POSITIVE,
    "patience": _at_least(1),
}


@dataclass(frozen=True)
class RunConfig:
    """Every knob of the train/evaluate/predict pipeline.

    Construction validates every field, so any RunConfig in hand (built
    directly, by ``dataclasses.replace``, from overrides, or from a stored
    pipeline) is valid. Invalid types or values raise ValueError.

    Attributes:
        p: Principal components kept as derived sensors.
        c: LSTM hidden units.
        l: Window length.
        tau: Maximum matching time-lag.
        alpha: Similarity cutoff fraction of the best similarity.
        r_max: Cap on the RUL estimate.
        lam: Similarity kernel width (config-file alias: "lambda").
        beta: Shape parameter of the exponential target HI.
        hi_variant: Target-HI construction; one of HI_VARIANTS.
        smooth_window: Moving-average width for final HI curves.
        init_frac: Leading fraction defining initial health.
        validation_frac: Instance fraction held out for early stopping
            and sweep scoring.
        healthy_frac: Leading fraction of each instance treated as healthy
            training input; None trains on just the first window per
            instance, and the endpoints variant then labels the leading
            5% of each life healthy.
        faulty_frac: Trailing fraction labeled 0 by the endpoints variant.
        seed: Master seed for splitting, initialization, and batching.
        tau1: Early-prediction tolerance (cycles).
        tau2: Late-prediction tolerance (cycles).
        learning_rate, max_epochs, batch_size, grad_clip_norm, patience:
            Optimizer settings for training.
    """

    p: int = 3
    c: int = 30
    l: int = 20
    tau: int = 40
    alpha: float = 0.87
    r_max: float = 125.0
    lam: float = 0.0005
    beta: float = 0.05
    hi_variant: str = "recon_error_squared"
    smooth_window: int = 5
    init_frac: float = 0.05
    validation_frac: float = 0.2
    healthy_frac: float | None = None
    faulty_frac: float = 0.05
    seed: int = 0
    tau1: float = 13.0
    tau2: float = 10.0
    learning_rate: float = 1e-3
    max_epochs: int = 500
    batch_size: int = 32
    grad_clip_norm: float = 10.0
    patience: int = 10

    def __post_init__(self) -> None:
        if self.hi_variant not in HI_VARIANTS:
            raise ValueError(
                f"unknown HI variant {self.hi_variant!r}, expected one of {HI_VARIANTS}"
            )
        for name, (check, requirement) in _RULES.items():
            value = getattr(self, name)
            if name == "healthy_frac" and value is None:
                continue
            integral = name in _INT_FIELDS
            kind = numbers.Integral if integral else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind):
                what = "an integer" if integral else "a number"
                raise ValueError(f"{name} must be {what}, got {value!r}")
            if not check(value):
                raise ValueError(f"{name} must be {requirement}, got {value!r}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@functools.cache
def _field_types(record: type) -> dict[str, str]:
    """Each field of a record type with its annotation as written:
    "int", "float", "float | None" or "str"."""
    return {f.name: f.type for f in fields(record)}


_INT_FIELDS = frozenset(n for n, k in _field_types(RunConfig).items() if k == "int")


def _field_name(key: str, record: type = RunConfig) -> str:
    """The field of ``record`` a config key names, with aliases resolved.

    Raises:
        ValueError: If no field has that name.
    """
    name = _ALIASES.get(key, key)
    if name not in _field_types(record):
        raise ValueError(f"unknown config key {key!r}")
    return name


def build_key(config: RunConfig, base: RunConfig) -> RunConfig:
    """``config`` with its SCORING_FIELDS reset to ``base``'s values.

    Two configs with the same key build the same pipeline.
    """
    return replace(config, **{name: getattr(base, name) for name in SCORING_FIELDS})


def config_from_dict(data: dict) -> RunConfig:
    """Rebuild a RunConfig from its to_dict form (e.g. a stored pipeline).

    Raises:
        ValueError: Unless ``data`` names every field exactly once with a
            valid value.
    """
    known = set(_field_types(RunConfig))
    if set(data) != known:
        raise ValueError(
            f"config fields differ: unknown {sorted(set(data) - known)},"
            f" missing {sorted(known - set(data))}"
        )
    return RunConfig(**data)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat key=value lines; # starts a comment, blank lines skipped.

    Raises:
        ValueError: On a line without '=', with the line number.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _coerce(kind: str, value: str):
    if kind == "str":
        return value
    if kind == "float | None" and value.lower() in ("none", ""):
        return None
    return int(value) if kind == "int" else float(value)


def apply_overrides(base, overrides: dict[str, str]):
    """Apply string-valued settings (config file or CLI flags) onto a base
    record, a RunConfig or a SyntheticSpec: each value is coerced by its
    field's annotation, then the record validates it.

    Raises:
        ValueError: On unknown keys, or values that fail coercion or
            validation.
    """
    record = type(base)
    kinds = _field_types(record)
    updates = {}
    for key, value in overrides.items():
        name = _field_name(key, record)
        try:
            updates[name] = _coerce(kinds[name], value)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: bad value {value!r}") from exc
    return replace(base, **updates)


@dataclass(frozen=True)
class SweepGrid:
    """Parameter grid for the sweep command: field name -> listed values."""

    values: dict[str, list] = field(default_factory=dict)

    def combinations(self) -> list[dict[str, str]]:
        """All grid points as override mappings, in deterministic order.

        Keys are enumerated sorted; values keep their listed order, the
        rightmost key varying fastest.
        """
        keys = sorted(self.values)
        combos: list[dict[str, str]] = [{}]
        for key in keys:
            combos = [
                {**combo, key: str(v)} for combo in combos for v in self.values[key]
            ]
        return combos


def parse_sweep_grid(mapping: dict[str, str]) -> SweepGrid:
    """Interpret comma-separated config values as grid dimensions.

    Single-valued keys become one-point dimensions, so the same file can
    drive both a run and a sweep.
    """
    grid: dict[str, list] = {}
    for key, value in mapping.items():
        name = _field_name(key)
        grid[name] = [part.strip() for part in value.split(",") if part.strip()]
        if not grid[name]:
            raise ValueError(f"config key {key!r} has no values")
    return SweepGrid(values=grid)
