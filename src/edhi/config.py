"""Run configuration: one flat record covering every pipeline stage.

Defaults are tuned for the turbofan benchmark (p=3, c=30, l=20, tau=40,
alpha=0.87, r_max=125, lambda=0.0005). Config files are flat key=value
text. Each field of a settings record (``RunConfig``, ``SyntheticSpec``) is
declared once by ``setting``, with its rule, help text and any other
spellings ("lambda" for ``lam``, since the bare word is reserved in Python);
``validate`` checks a record against them.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import Field, dataclass, field, fields, replace

HI_VARIANTS = (
    "recon_error",
    "recon_error_squared",
    "exponential",
    "linear",
    "endpoints",
)

# fields read only when scoring (matching, capping and timeliness); a build
# never reads them, so configs differing only here share one build
SCORING_FIELDS = ("tau", "alpha", "lam", "r_max", "tau1", "tau2")


def setting(default, rule, help: str, spellings: tuple[str, ...] = ()) -> Field:
    """A settings field: its default, its rule (``bound``, ``at_least``,
    ``one_of`` or ``ANY``), its --help text and, if its flags and config
    keys are not spelled by its field name alone, their names (each is a
    config key beside the field name)."""
    return field(
        default=default, metadata={"rule": rule, "help": help, "spellings": spellings}
    )


def bound(check, requirement: str):
    """A rule: (check, message); message(name, value) says why check failed."""
    return check, lambda name, value: f"{name} must be {requirement}, got {value!r}"


def at_least(lo):
    return bound(lambda v: v >= lo, f">= {lo}")


def one_of(choices: tuple[str, ...], noun: str):
    def message(name, value):
        return f"unknown {noun} {value!r}, expected one of {choices}"

    return (lambda v: v in choices), message


# NaN fails every bound
POSITIVE = bound(lambda v: v > 0, "> 0")
UNIT = bound(lambda v: 0 <= v <= 1, "in [0,1]")
OPEN_UNIT = bound(lambda v: 0 < v < 1, "in (0,1)")
UNIT_UPPER = bound(lambda v: 0 < v <= 1, "in (0,1]")
ANY = (lambda v: True, None)  # for fields the record checks together

# annotation -> (accepted type, what a message calls it)
_KINDS = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a number"),
    "float | None": (numbers.Real, "a number"),
    "str": (str, "a string"),
}


@functools.cache
def _checks(record: type) -> tuple:
    """(name, None allowed, accepted type, its name, check, message) for
    each field of a settings record type."""
    return tuple(
        (f.name, f.type == "float | None", *_KINDS[f.type], *f.metadata["rule"])
        for f in fields(record)
    )


def validate(record) -> None:
    """Check each field of a settings record by its annotation (int, float,
    ``float | None`` or str; never a bool), then by its rule.

    Raises:
        ValueError: Naming the first field that fails.
    """
    for name, optional, kind, what, check, message in _checks(type(record)):
        value = getattr(record, name)
        if value is None and optional:
            continue
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{name} must be {what}, got {value!r}")
        if not check(value):
            raise ValueError(message(name, value))


@dataclass(frozen=True)
class RunConfig:
    """Every knob of the train/evaluate/predict pipeline.

    Construction validates every field, so any RunConfig in hand (built
    directly, by ``dataclasses.replace``, from overrides, or from a stored
    pipeline) is valid. Invalid types or values raise ValueError. Each
    field's help text says what it sets; ``validation_frac``'s instances
    also score sweep points.
    """

    p: int = setting(3, at_least(1), "derived sensors kept after projection")
    c: int = setting(30, at_least(1), "LSTM hidden units")
    l: int = setting(20, at_least(1), "window length")
    tau: int = setting(40, at_least(1), "maximum matching time-lag")
    alpha: float = setting(0.87, UNIT, "similarity cutoff fraction of the best match")
    r_max: float = setting(125.0, at_least(1), "cap on RUL estimates")
    lam: float = setting(
        0.0005, POSITIVE, "similarity kernel width", spellings=("lam", "lambda")
    )
    beta: float = setting(0.05, OPEN_UNIT, "exponential target HI shape")
    hi_variant: str = setting(
        "recon_error_squared",
        one_of(HI_VARIANTS, "HI variant"),
        "target HI construction",
    )
    smooth_window: int = setting(5, at_least(1), "moving-average width for HI curves")
    init_frac: float = setting(0.05, UNIT, "leading fraction defining initial health")
    validation_frac: float = setting(
        0.2, OPEN_UNIT, "instance fraction held out for early stopping"
    )
    healthy_frac: float | None = setting(
        None,
        UNIT_UPPER,
        "leading healthy fraction for training windows ('none' = first window"
        " only, and the endpoints variant then labels the leading 5% healthy)",
    )
    faulty_frac: float = setting(
        0.05, UNIT_UPPER, "trailing fraction labeled faulty by the endpoints variant"
    )
    seed: int = setting(0, at_least(0), "master seed")
    tau1: float = setting(13.0, POSITIVE, "early-prediction tolerance in cycles")
    tau2: float = setting(10.0, POSITIVE, "late-prediction tolerance in cycles")
    learning_rate: float = setting(1e-3, POSITIVE, "optimizer step size")
    max_epochs: int = setting(500, at_least(1), "training epoch limit")
    batch_size: int = setting(32, at_least(1), "windows per training batch")
    grad_clip_norm: float = setting(10.0, POSITIVE, "global gradient norm clip")
    patience: int = setting(10, at_least(1), "early-stopping patience in epochs")

    def __post_init__(self) -> None:
        validate(self)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@functools.cache
def _keys(record: type) -> dict[str, Field]:
    """Each config key of a settings record type -> the field it sets."""
    return {k: f for f in fields(record) for k in (f.name, *f.metadata["spellings"])}


def _resolve(keys, record: type):
    """Yield each config key with the field of ``record`` it sets, in turn.

    Raises:
        ValueError: On a key no field goes by, or on a second key for one
            field, naming both.
    """
    seen: dict[str, str] = {}
    for key in keys:
        f = _keys(record).get(key)
        if f is None:
            raise ValueError(f"unknown config key {key!r}")
        if f.name in seen:
            raise ValueError(
                f"config keys {seen[f.name]!r} and {key!r} both set {f.name}"
            )
        seen[f.name] = key
        yield key, f


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
    known = {f.name for f in fields(RunConfig)}
    if set(data) != known:
        raise ValueError(
            f"config fields differ: unknown {sorted(set(data) - known)},"
            f" missing {sorted(known - set(data))}"
        )
    return RunConfig(**data)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat key=value lines; # starts a comment, blank lines skipped.

    Raises:
        ValueError: On a line without '=', with the line number, or on a
            key given twice, with both line numbers.
    """
    out: dict[str, str] = {}
    linenos: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in linenos:
            raise ValueError(
                f"config line {lineno}: key {key!r} already set on line {linenos[key]}"
            )
        linenos[key] = lineno
        out[key] = value
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
        ValueError: On unknown keys, two keys for one field, or values that
            fail coercion or validation.
    """
    updates = {}
    for key, f in _resolve(overrides, type(base)):
        value = overrides[key]
        try:
            updates[f.name] = _coerce(f.type, value)
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

    Raises:
        ValueError: On unknown keys, two keys for one field, or a key with
            no values.
    """
    grid: dict[str, list] = {}
    for key, f in _resolve(mapping, RunConfig):
        values = [part.strip() for part in mapping[key].split(",") if part.strip()]
        if not values:
            raise ValueError(f"config key {key!r} has no values")
        grid[f.name] = values
    return SweepGrid(values=grid)
