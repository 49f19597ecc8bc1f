"""Dataset parsing, synthesis, and text output.

Two input formats are supported: the 26-column whitespace-delimited turbofan
layout (unit, cycle, 3 operating settings, 21 sensors) and a generic CSV
with a header row (instance_id, cycle, sensor columns). Both are validated
hard: every malformed row, every non-finite reading and every non-integer
cycle (or turbofan unit) is reported with its line number, and cycle
indices must run 1..L contiguously per instance, which the matching math
relies on.

Both formats share one row loop, and every parse ends in one grouping
routine that checks each unit's cycles. Rows that already run unit by unit,
cycles 1..L, are split in place; any other order is sorted by unit and cycle
into a copy first. The generic parser first tries to read every column with
``np.loadtxt`` instead of the loop. Its lines reach loadtxt in pieces of
about ``_PIECE_CHARS`` characters, so the whole file is never held as one
list of lines, and loadtxt codes the unit ids as it reads. It keeps that
table only when the loop would have read the same rows: every line parsed,
every row the same width, every value finite and every cycle an integer.
The sensor columns are then moved to the front of the table's own buffer,
so ordered rows are grouped without a copy of the readings. Anything else
(including tokens only Python's ``float`` accepts, such as ``1_0``) goes to
the loop, which reports it, so messages and line numbers do not depend on
the fast path. The turbofan parser is the row loop alone.

The synthetic generator produces seeded run-to-failure instances whose
sensors drift from a healthy baseline once a fault sets in, and
``held_out_split`` draws a fleet together with truncated held-out units of
the same physics.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .config import ANY, OPEN_UNIT, at_least, bound, one_of, setting, validate

TURBOFAN_COLUMNS = 26  # unit, cycle, 3 settings, 21 sensors
DEGRADATION_SHAPES = ("linear", "exponential", "piecewise")
_PIECE_CHARS = 1 << 20  # generic CSV text reaches loadtxt in ~1 MB pieces
_COMPACT_ROWS = 1 << 12  # rows moved per step when compacting loadtxt's table


@dataclass(frozen=True, eq=False)
class RunToFailureDataset:
    """Instances plus optional truncation ground truth, validated on construction.

    Compared by identity: the instances hold arrays.

    Attributes:
        instances: (id, series) pairs; series shape (L_u, m), cycle t at
            row t-1.
        rul_labels: True remaining cycles per instance for truncated test
            sets; None for full run-to-failure data.
        sensor_names: Column labels, length m.
    """

    instances: list[tuple[str, np.ndarray]]
    rul_labels: list[float] | None = None
    sensor_names: list[str] | None = None

    def __post_init__(self) -> None:
        ids = [uid for uid, _ in self.instances]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate instance ids")
        if self.rul_labels is not None and len(self.rul_labels) != len(self.instances):
            raise ValueError(
                f"{len(self.rul_labels)} RUL labels for {len(self.instances)} instances"
            )

    @property
    def n_sensors(self) -> int:
        return self.instances[0][1].shape[1]


@dataclass(frozen=True)
class SyntheticSpec:
    """Settings for the synthetic generator, validated on construction like
    ``RunConfig``: wrong types and values raise ValueError."""

    n_instances: int = setting(40, at_least(1), "units to generate")
    n_sensors: int = setting(5, at_least(1), "sensors per unit")
    # both lengths are checked together in __post_init__
    min_len: int = setting(80, ANY, "shortest life in cycles")
    max_len: int = setting(120, ANY, "longest life in cycles")
    noise_std: float = setting(
        0.05,
        bound(lambda v: 0 <= v < math.inf, "finite and >= 0"),
        "standard deviation of the sensor noise",
    )
    fault_onset_frac: float = setting(
        0.3, OPEN_UNIT, "life fraction at which degradation sets in"
    )
    degradation_shape: str = setting(
        "exponential",
        one_of(DEGRADATION_SHAPES, "shape"),
        "degradation drift: linear, exponential or piecewise",
        spellings=("shape",),
    )
    seed: int = setting(0, at_least(0), "master seed")

    def __post_init__(self) -> None:
        validate(self)
        if not 2 <= self.min_len <= self.max_len:
            raise ValueError(
                f"need 2 <= min_len <= max_len, got {self.min_len}, {self.max_len}"
            )


def _parse_float(token: str, lineno: int, path_hint: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(
            f"{path_hint} line {lineno}: non-numeric value {token!r}"
        ) from None
    if not math.isfinite(value):
        raise ValueError(f"{path_hint} line {lineno}: non-finite value {token!r}")
    return value


def _parse_index(token: str, what: str, lineno: int, path_hint: str) -> int:
    """A cycle or turbofan unit number: any integral value, such as 2 or 2.0."""
    value = _parse_float(token, lineno, path_hint)
    if not value.is_integer():
        raise ValueError(f"{path_hint} line {lineno}: non-integer {what} {token!r}")
    return int(value)


class _FirstSeen(dict):
    """Codes each new key as it is looked up: 0, 1, ... in order of first
    appearance. A lookup of a known key runs no Python code."""

    def __missing__(self, key: str) -> int:
        self[key] = code = len(self)
        return code


def _group_table(
    names: list[str],
    codes: np.ndarray,
    cycles: np.ndarray,
    values: np.ndarray,
    path_hint: str,
) -> list[tuple[str, np.ndarray]]:
    """Rows with unit codes into per-unit matrices ordered by cycle.

    Unit k is names[k]; codes number units in order of first appearance.
    Rows that already run unit by unit, each unit's cycles 1..L, are split
    in place: every unit's matrix is a view of ``values``. Any other order is
    sorted by unit and cycle into one copy, which the units then share.
    Either way each matrix is a C-contiguous block of one array.

    Raises:
        ValueError: Naming the first unit, in that order, whose cycles are
            not exactly 1..L.
    """
    counts = np.bincount(codes, minlength=len(names))
    ends = np.cumsum(counts)
    # row r's cycle when the rows run unit by unit: r + 1 - its unit's first row
    expected = np.arange(1, len(codes) + 1)
    expected -= np.repeat(ends - counts, counts)
    if not (np.all(codes[1:] >= codes[:-1]) and np.array_equal(cycles, expected)):
        order = np.lexsort((cycles, codes))
        bad = np.flatnonzero(cycles[order] != expected)
        if bad.size:
            unit = names[codes[order[bad[0]]]]
            raise ValueError(
                f"{path_hint}: unit {unit} cycles are not contiguous 1..L"
            )
        values = values[order]
    return list(zip(names, np.split(values, ends[:-1])))


def _pieces(text: str, start: int) -> Iterator[list[str]]:
    """The lines of text[start:], about _PIECE_CHARS characters at a time.

    start must begin a line. Each piece but the last ends just after a
    "\n", which never splits a "\r\n", so the pieces' lines, joined, are
    exactly ``text[start:].splitlines()``.
    """
    while start < len(text):
        stop = text.find("\n", start + _PIECE_CHARS - 1) + 1 or len(text)
        yield text[start:stop].splitlines()
        start = stop


def _drop_leading_columns(table: np.ndarray, k: int) -> np.ndarray:
    """table[:, k:] as a C-contiguous array in table's own buffer.

    Rows move to the front of the buffer _COMPACT_ROWS at a time. A row's
    new place never lies past its old one, so no row is overwritten before
    it moves, and numpy buffers any overlap within a step.
    """
    n, width = table.shape
    m = width - k
    flat = table.reshape(-1)  # the table owns a C-ordered buffer: a view
    for lo in range(0, n, _COMPACT_ROWS):
        hi = min(lo + _COMPACT_ROWS, n)
        flat[lo * m : hi * m].reshape(hi - lo, m)[...] = table[lo:hi, k:]
    return flat[: n * m].reshape(n, m)


@dataclass(eq=False)
class _Table:
    """loadtxt's rows of the data lines, each row's first column the code
    of its unit id token: token k is ``tokens[k]``."""

    tokens: list[str]
    table: np.ndarray


def _read_span(text: str, start: int, width: int) -> _Table | None:
    """The data lines in text[start:] by loadtxt, or None where the row
    loop must decide.

    The lines reach one loadtxt pass piece by piece, blank lines dropped,
    and loadtxt codes each unit id token as it goes. None whenever loadtxt
    rejects a line or finds another width, or any value is non-finite or
    any cycle non-integral: the row loop then parses and reports. Blank
    lines alone give a table of no rows.
    """
    tokens = _FirstSeen()

    def data_lines(lines: list[str]) -> list[str]:
        if not all(map(str.strip, lines)):  # the row loop skips blank lines
            lines = [line for line in lines if line.strip()]
        return lines

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # "input contained no data"
            table = np.loadtxt(
                chain.from_iterable(map(data_lines, _pieces(text, start))),
                dtype=np.float64,
                delimiter=",",
                comments=None,
                converters={0: tokens.__getitem__},
                encoding=None,  # converters get str, not bytes, on numpy 1.x
                ndmin=2,
            )
    except ValueError:
        return None
    # The rows need no count: with comments=None and no quote character,
    # loadtxt makes each line it is given, none blank and none holding a
    # line break, into one row or raises. Probed on numpy 2.4 with every
    # character below U+3100 as a line, alone, after a space and tripled:
    # none was skipped.
    if not len(table):
        return _Table([], np.empty((0, width)))
    if (
        table.shape[1] != width
        or not np.isfinite(table).all()
        or np.any(table[:, 1] % 1)
    ):
        return None
    return _Table(list(tokens), table)


def _units(span: _Table, path_hint: str) -> list[tuple[str, np.ndarray]] | None:
    """A table of every data line, grouped into units; None if it has no
    rows, where the row loop reports the empty file.

    The readings are grouped in the table's own buffer, compacted to the
    sensor columns.
    """
    table = span.table
    if not len(table):
        return None
    # tokens that differ only in padding name one unit
    codes = _FirstSeen()
    unit_of_token = np.array(
        [codes[token.strip()] for token in span.tokens], dtype=np.intp
    )
    # ids and cycles are read out before the readings move over them
    unit_codes = unit_of_token[table[:, 0].astype(np.intp)]
    cycles = table[:, 1].copy()
    values = _drop_leading_columns(table, 2)
    return _group_table(list(codes), unit_codes, cycles, values, path_hint)


def _rows(
    lines: list[str], first_lineno: int, split, n_columns: int, unit_of, path_hint: str
) -> list[tuple[str, np.ndarray]]:
    """The row loop: every non-blank line parsed, checked and grouped by unit.

    ``split`` turns a stripped line into its tokens; ``unit_of(token,
    lineno)`` reads the unit id from the first token.
    """
    codes = _FirstSeen()
    unit_codes, cycles, values = [], [], []
    for lineno, raw in enumerate(lines, start=first_lineno):
        line = raw.strip()
        if not line:
            continue
        tokens = split(line)
        if len(tokens) != n_columns:
            raise ValueError(
                f"{path_hint} line {lineno}: expected {n_columns} columns,"
                f" got {len(tokens)}"
            )
        unit_codes.append(codes[unit_of(tokens[0], lineno)])
        cycles.append(_parse_index(tokens[1], "cycle", lineno, path_hint))
        values.append([_parse_float(tok, lineno, path_hint) for tok in tokens[2:]])
    if not values:
        raise ValueError(f"{path_hint}: no data rows")
    return _group_table(
        list(codes),
        np.array(unit_codes),
        np.array(cycles, dtype=np.float64),
        np.array(values, dtype=np.float64),
        path_hint,
    )


def _parse_turbofan_file(text: str, path_hint: str) -> list[tuple[str, np.ndarray]]:
    return _rows(
        text.splitlines(),
        1,
        str.split,
        TURBOFAN_COLUMNS,
        lambda token, lineno: str(_parse_index(token, "unit", lineno, path_hint)),
        path_hint,
    )


def parse_rul_labels(text: str, path_hint: str = "rul") -> list[float]:
    """One true RUL per line; a negative one is rejected with its line."""
    labels = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        value = _parse_float(line, lineno, path_hint)
        if value < 0:
            raise ValueError(f"{path_hint} line {lineno}: negative RUL {line!r}")
        labels.append(value)
    if not labels:
        raise ValueError(f"{path_hint}: no labels")
    return labels


def _turbofan_names() -> list[str]:
    return [f"setting_{j + 1}" for j in range(3)] + [
        f"sensor_{j + 1}" for j in range(21)
    ]


def parse_turbofan_series(text: str, path_hint: str = "data") -> RunToFailureDataset:
    """Parse one whitespace-separated 26-column turbofan file, no labels."""
    return RunToFailureDataset(
        instances=_parse_turbofan_file(text, path_hint),
        sensor_names=_turbofan_names(),
    )


def parse_turbofan(
    train_text: str, test_text: str, rul_text: str
) -> tuple[RunToFailureDataset, RunToFailureDataset]:
    """Parse the turbofan triple: train series, test series, test RULs.

    Returns:
        (train, test) datasets; the test set carries its RUL labels.

    Raises:
        ValueError: On malformed rows (with line numbers), non-contiguous
            cycles, or a label count that does not match the test set.
    """
    train = parse_turbofan_series(train_text, "train")
    labels = parse_rul_labels(rul_text, "rul")
    test = RunToFailureDataset(
        instances=_parse_turbofan_file(test_text, "test"),
        rul_labels=labels,
        sensor_names=_turbofan_names(),
    )
    return train, test


def parse_generic(text: str, path_hint: str = "data") -> RunToFailureDataset:
    """Parse the generic CSV format: header then instance_id,cycle,sensors.

    Raises:
        ValueError: On a malformed header or row, with line numbers.
    """
    # the first line with its line break, as splitlines reads it
    head = text[: text.find("\n") + 1 or len(text)].splitlines(keepends=True)
    if not head:
        raise ValueError(f"{path_hint}: empty file")
    header = [h.strip() for h in head[0].splitlines()[0].split(",")]
    if len(header) < 3 or header[0] != "instance_id" or header[1] != "cycle":
        raise ValueError(
            f"{path_hint} line 1: header must start with instance_id,cycle"
        )
    span = _read_span(text, len(head[0]), len(header))
    instances = None if span is None else _units(span, path_hint)
    if instances is None:
        instances = _rows(
            text.splitlines()[1:],
            2,
            lambda line: [t.strip() for t in line.split(",")],
            len(header),
            lambda token, lineno: token,
            path_hint,
        )
    # both paths take only header-wide rows, so every series has its sensors
    return RunToFailureDataset(instances=instances, sensor_names=header[2:])


def write_generic(ds: RunToFailureDataset) -> str:
    """Render a dataset in the generic CSV format (parse_generic's inverse)."""
    m = ds.n_sensors
    names = ds.sensor_names or [f"sensor_{j + 1}" for j in range(m)]
    lines = ["instance_id,cycle," + ",".join(names)]
    for uid, series in ds.instances:
        for t in range(series.shape[0]):
            vals = ",".join(repr(float(v)) for v in series[t])
            lines.append(f"{uid},{t + 1},{vals}")
    return "\n".join(lines) + "\n"


def write_rul_labels(labels: list[float]) -> str:
    return "\n".join(repr(float(r)) for r in labels) + "\n"


def _shape_fn(name: str):
    if name == "linear":
        return lambda tau: tau
    if name == "exponential":
        return lambda tau: (np.expm1(3.0 * tau)) / (np.expm1(3.0))
    # piecewise: slow drift to 0.2 by midlife, then steep to 1.0
    return lambda tau: np.where(tau <= 0.5, 0.4 * tau, 0.2 + 1.6 * (tau - 0.5))


def generate_synthetic(spec: SyntheticSpec) -> RunToFailureDataset:
    """Seeded synthetic run-to-failure data.

    Each instance holds its per-sensor healthy baseline (offsets drawn in
    [-0.5, 0.5], small against the drift so pooled normalization leaves a
    shared healthy level) plus Gaussian noise; from the fault onset onward a
    degradation term of the chosen shape grows from 0 to a per-sensor
    severity (magnitude 1.5-3, a narrow spread because units fail when
    degradation crosses a fleet-common threshold) at end of life. Drift
    direction is a fleet property: each sensor's sign is drawn once and
    shared by every instance, the way a physical quantity degrades the same
    way on every unit.

    Returns:
        Full run-to-failure dataset, deterministic in the seed.
    """
    rng = np.random.default_rng(spec.seed)
    shape = _shape_fn(spec.degradation_shape)
    signs = rng.choice([-1.0, 1.0], size=spec.n_sensors)
    instances = []
    for u in range(spec.n_instances):
        length = int(rng.integers(spec.min_len, spec.max_len + 1))
        offsets = rng.uniform(-0.5, 0.5, size=spec.n_sensors)
        severities = rng.uniform(1.5, 3.0, size=spec.n_sensors) * signs
        onset = int(math.floor(spec.fault_onset_frac * length))
        t = np.arange(length, dtype=np.float64)
        progress = np.zeros(length)
        span = max(1, (length - 1) - onset)
        post = t >= onset
        progress[post] = (t[post] - onset) / span
        drift = shape(progress)[:, None] * severities[None, :]
        drift[~post] = 0.0
        noise = rng.normal(0.0, spec.noise_std, size=(length, spec.n_sensors))
        series = offsets[None, :] + drift + noise
        instances.append((f"s{u + 1}", series))
    return RunToFailureDataset(
        instances=instances,
        sensor_names=[f"sensor_{j + 1}" for j in range(spec.n_sensors)],
    )


def truncate_instance(series: np.ndarray, frac: float) -> tuple[np.ndarray, float]:
    """Cut one full-life series at a life fraction; returns (prefix, true RUL).

    The observed length is floor(frac * L) clamped to [1, L-1], so there is
    always at least one observed and one remaining cycle.
    """
    length = series.shape[0]
    if length < 2:
        raise ValueError("need at least 2 cycles to truncate")
    observed = int(math.floor(frac * length + 1e-9))
    observed = min(max(observed, 1), length - 1)
    return series[:observed], float(length - observed)


def truncate_random(
    ds: RunToFailureDataset, lo: float, hi: float, seed: int
) -> RunToFailureDataset:
    """Truncate every instance at a life fraction drawn uniformly in [lo, hi]."""
    if not 0.0 < lo <= hi < 1.0:
        raise ValueError(f"need 0 < lo <= hi < 1, got {lo}, {hi}")
    rng = np.random.default_rng(seed)
    instances = []
    labels = []
    for uid, series in ds.instances:
        prefix, rul = truncate_instance(series, float(rng.uniform(lo, hi)))
        instances.append((uid, prefix))
        labels.append(rul)
    return RunToFailureDataset(
        instances=instances, rul_labels=labels, sensor_names=ds.sensor_names
    )


def held_out_split(
    spec: SyntheticSpec, lo: float, hi: float, seed: int
) -> tuple[RunToFailureDataset, RunToFailureDataset]:
    """A synthetic fleet and as many held-out units of the same physics.

    Draws 2n units in one ``generate_synthetic`` call, n being
    ``spec.n_instances``. The stream draws the drift signs and then each
    unit in turn, so units 1..n are the n-unit fleet itself, and units
    n+1..2n degrade the same way.

    Args:
        spec: The fleet's settings; its n_instances is n.
        lo, hi: Range of the held-out units' observed life fractions.
        seed: Seed of ``truncate_random``'s draws.

    Returns:
        Units 1..n whole, and units n+1..2n cut by
        ``truncate_random(held, lo, hi, seed)``, with their RUL labels.
    """
    n = spec.n_instances
    fleet = generate_synthetic(replace(spec, n_instances=2 * n))
    names = fleet.sensor_names
    lives = RunToFailureDataset(fleet.instances[:n], sensor_names=names)
    held = RunToFailureDataset(fleet.instances[n:], sensor_names=names)
    return lives, truncate_random(held, lo, hi, seed)


def truncate_at_fracs(
    ds: RunToFailureDataset, fracs: list[float]
) -> RunToFailureDataset:
    """Truncate every instance at each listed fraction (the sweep's scorer).

    Produces len(fracs) cases per instance with ids "<uid>@<k>"; order is
    instance-major, fraction-minor, deterministically.
    """
    instances = []
    labels = []
    for uid, series in ds.instances:
        for k, frac in enumerate(fracs):
            prefix, rul = truncate_instance(series, frac)
            instances.append((f"{uid}@{k}", prefix))
            labels.append(rul)
    return RunToFailureDataset(
        instances=instances, rul_labels=labels, sensor_names=ds.sensor_names
    )
