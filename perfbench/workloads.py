"""The benchmark's three workloads, driven through edhi's public API.

Every workload run has the same shape. Set-up makes the inputs from the
seed (and, for score_fd001, builds and saves the pipeline); it is repeated
and its median reported as ``setup_s``. The timed region then repeats the
workload's own job for the run's seconds. Outside the timed region the run
checks the outputs and measures the remaining end-to-end metrics on the
artifacts it already has, so every workload reports every metric:

- ``train_s``: the run's ``build_pipeline`` + ``save_pipeline`` calls
  (train_fd001: the timed job; score_fd001: set-up; sweep_grid: set-up and
  one rebuild after each scoring chunk).
- ``instances_per_s``/``predict_*``: evaluate-style scoring passes, which
  parse CSV text, load the saved pipeline, call ``predict_one`` per
  instance and finish with ``full_report`` (score_fd001: the timed job;
  the others: one chunk of the held-out instances after each of their
  first timed jobs, so the passes are spread over the run).
- ``sweep_s_per_point``: sweep_grid times ``run_sweep``. The other two
  replay a one-point sweep of their own configuration: the median build
  plus scoring of its validation split at the sweep's truncation fractions.

Every timed operation is kept as a span (start, end, busy seconds) and
becomes a time only in ``end_to_end``, scaled to nominal host speed by the
reference-kernel probes taken around and inside it (see host.py).

The program only ever receives generated inputs: CSV text,
``RunToFailureDataset`` and ``RunConfig``.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import edhi.data
import edhi.metrics
import edhi.persist
import edhi.pipeline
from edhi import RunConfig, RunToFailureDataset, SweepGrid, SyntheticSpec
from edhi.config import apply_overrides
from edhi.matching import RulCandidate, curve_distance, estimate_rul, similarity
from edhi.metrics import EvalRecord, full_report
from edhi.pipeline import SWEEP_TRUNCATION_FRACS
from host import CLOCK

# (start, end, busy seconds) of one timed operation, from time.perf_counter.
Interval = tuple[float, float, float]

# The calls the benchmark makes itself, with the layer each belongs to. A
# traced run swaps them for wrapped versions; an untraced run uses these.
BENCH_CALLS = (
    ("generate_synthetic", edhi.data, "data"),
    ("truncate_at_fracs", edhi.data, "data"),
    ("parse_generic", edhi.data, "data"),
    ("build_pipeline", edhi.pipeline, "pipeline"),
    ("predict_one", edhi.pipeline, "pipeline"),
    ("run_sweep", edhi.pipeline, "pipeline"),
    ("save_pipeline", edhi.persist, "persist"),
    ("load_pipeline", edhi.persist, "persist"),
    ("full_report", edhi.metrics, "metrics"),
    ("timeliness", edhi.metrics, "metrics"),
)
PLAIN_API = SimpleNamespace(
    **{name: getattr(mod, name) for name, mod, _ in BENCH_CALLS}
)

# Every estimate of the scoring pass whose index is a multiple of this is
# checked against the brute-force matching oracle.
ORACLE_STRIDE = 50
# Distinct seeds for the held-out test fleet and the inputs of one run.
TEST_SEED_OFFSET = 1_000_003
# Fleets keep one unit in this many, stratified by life (see make_fleet).
STRATA = 4


@dataclass(frozen=True)
class Plan:
    """Sizes of one workload.

    Attributes:
        fleet: Training fleet; its seed is replaced by the run's seed.
        config: Pipeline configuration; seed replaced likewise. Patience
            exceeds max_epochs, so every training runs every epoch.
        test_fracs: Life fractions at which every unit of a held-out test
            fleet (``fleet``'s shape, ``test_units`` units) is cut for the
            scoring pass.
        test_units: Units in the held-out test fleet.
        grid: Sweep grid (sweep_grid only).
        chunks: Least number of timed jobs, whatever the seconds. On
            train_fd001 and sweep_grid the held-out instances are split into
            this many chunks, one scored after each of the first jobs.
        setup_reps: Number of set-ups, for the median in ``setup_s``.
    """

    fleet: SyntheticSpec
    config: RunConfig
    test_fracs: tuple[float, ...]
    test_units: int = 100
    grid: SweepGrid | None = None
    chunks: int = 1
    setup_reps: int = 3


def _fixed_epochs(config: RunConfig, epochs: int) -> RunConfig:
    return replace(config, max_epochs=epochs, patience=epochs + 1)


FD001_FLEET = SyntheticSpec(n_instances=100, n_sensors=21, min_len=128, max_len=362)
FD001_CONFIG = _fixed_epochs(RunConfig(healthy_frac=0.3), 2)
SCORE_FRACS = tuple(float(f) for f in np.linspace(0.1, 0.95, 10))
SWEEP_FLEET = SyntheticSpec(n_instances=40, n_sensors=5)
SWEEP_CONFIG = _fixed_epochs(RunConfig(p=2, c=8, l=10), 10)
SWEEP_GRID = SweepGrid(
    values={
        "alpha": ["0.8", "0.9"],
        "lam": ["0.0005", "0.005"],
        "tau": ["10", "20", "40"],
    }
)

# Tiny sizes exercise the same code paths in seconds (smoke test only).
TINY_FLEET = SyntheticSpec(n_instances=10, n_sensors=6, min_len=40, max_len=60)
TINY_CONFIG = _fixed_epochs(RunConfig(p=2, c=4, l=8, healthy_frac=0.5), 2)
TINY_GRID = SweepGrid(values={"alpha": ["0.8", "0.9"], "tau": ["10", "20"]})

PLANS = {
    "full": {
        "train_fd001": Plan(FD001_FLEET, FD001_CONFIG, SCORE_FRACS, 50, chunks=3),
        "score_fd001": Plan(FD001_FLEET, FD001_CONFIG, SCORE_FRACS),
        "sweep_grid": Plan(
            SWEEP_FLEET,
            SWEEP_CONFIG,
            SCORE_FRACS,
            grid=SWEEP_GRID,
            chunks=3,
            setup_reps=5,
        ),
    },
    "tiny": {
        "train_fd001": Plan(TINY_FLEET, TINY_CONFIG, SCORE_FRACS, 6, chunks=3),
        "score_fd001": Plan(TINY_FLEET, TINY_CONFIG, SCORE_FRACS, 10),
        "sweep_grid": Plan(
            TINY_FLEET, TINY_CONFIG, SCORE_FRACS, 9, grid=TINY_GRID, chunks=3
        ),
    },
}


class Checks:
    """Counts checked operations; a failed check is recorded, not raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


@dataclass
class Built:
    span: Interval
    blob: bytes
    bundle: object
    info: object


@dataclass
class Scored:
    span: Interval
    latencies: list[Interval]
    records: list[EvalRecord]
    report: object


@dataclass
class Outcome:
    """What one workload run measured, before it becomes metrics."""

    setups: list[Interval] = field(default_factory=list)
    builds: list[Interval] = field(default_factory=list)
    val_loss: float = math.nan
    scored: list[Scored] = field(default_factory=list)
    report: object = None  # over one traversal of the held-out instances
    sweeps: list[Interval] = field(default_factory=list)
    grid_points: int = 1
    # Replayed one-point sweep: scoring of the validation split (the median
    # build is added to it).
    point_scoring: Interval | None = None
    sweep_best_score: float = math.nan

    def quality(self) -> dict[str, float]:
        """The deterministic quality numbers: same seed, same values."""
        return {
            "lstm.val_loss": self.val_loss,
            "pipeline.sweep_best_score": self.sweep_best_score,
            "metrics.mae": self.report.mae,
            "metrics.a_pct": self.report.a,
        }


def _timed(fn, *args) -> tuple[Interval, object]:
    """fn's span, whose busy seconds leave out host probes, and its result."""
    start = time.perf_counter()
    probed = CLOCK.spent_s
    out = fn(*args)
    end = time.perf_counter()
    return (start, end, end - start - (CLOCK.spent_s - probed)), out


def repeat_for(seconds: float, min_reps: int, fn) -> list:
    """Run fn until the next call would overrun ``seconds``; at least min_reps."""
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(fn())
        took = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(results) >= min_reps and elapsed + took > seconds:
            return results


def _seeded(plan: Plan, seed: int) -> tuple[SyntheticSpec, SyntheticSpec, RunConfig]:
    return (
        replace(plan.fleet, seed=seed),
        replace(plan.fleet, seed=seed + TEST_SEED_OFFSET, n_instances=plan.test_units),
        replace(plan.config, seed=seed),
    )


def make_fleet(api, spec: SyntheticSpec) -> RunToFailureDataset:
    """A seeded fleet whose lives are spread evenly over the spec's range.

    Generates STRATA times the units and keeps every STRATA-th by life, in
    generation order, so the fleet's total life (and with it the work of
    every workload) barely moves with the seed while its contents do.
    """
    big = api.generate_synthetic(replace(spec, n_instances=STRATA * spec.n_instances))
    lives = [series.shape[0] for _, series in big.instances]
    by_life = sorted(range(len(lives)), key=lives.__getitem__)
    keep = sorted(by_life[STRATA // 2 :: STRATA])
    return RunToFailureDataset(
        instances=[big.instances[k] for k in keep], sensor_names=big.sensor_names
    )


def render_csv(ds: RunToFailureDataset) -> str:
    """Generic CSV text with five decimals per reading.

    The layout ``edhi.data.write_generic`` writes, at the precision of the
    C-MAPSS text files rather than full repr(), which also keeps set-up short.
    """
    row_format = ",".join(["%.5f"] * ds.n_sensors)
    lines = ["instance_id,cycle," + ",".join(ds.sensor_names)]
    for uid, series in ds.instances:
        for t, row in enumerate(series.tolist(), start=1):
            lines.append(f"{uid},{t}," + row_format % tuple(row))
    return "\n".join(lines) + "\n"


def _test_chunks(api, plan: Plan, spec: SyntheticSpec) -> list[tuple[str, list]]:
    """CSV text and labels of the held-out cases, in plan.chunks whole-unit parts.

    Each part lists its cases in seeded random order: one unit's costliest
    cases then spread over the pass, so the latency tail samples the host's
    speed at many moments rather than within a fraction of a second.
    """
    cases = api.truncate_at_fracs(make_fleet(api, spec), list(plan.test_fracs))
    units, k = spec.n_instances, plan.chunks
    bounds = [len(plan.test_fracs) * (units * j // k) for j in range(k + 1)]
    names = cases.sensor_names
    rng = np.random.default_rng(spec.seed)
    chunks = []
    for lo, hi in zip(bounds, bounds[1:]):
        order = lo + rng.permutation(hi - lo)
        part = RunToFailureDataset(
            [cases.instances[j] for j in order], sensor_names=names
        )
        chunks.append((render_csv(part), [cases.rul_labels[j] for j in order]))
    return chunks


def build_and_save(api, ds, config: RunConfig, path: Path, checks: Checks) -> Built:
    """One timed build_pipeline + save_pipeline, checking the epoch count."""

    def build():
        bundle, info = api.build_pipeline(ds, config)
        api.save_pipeline(path, bundle)
        return bundle, info

    span, (bundle, info) = _timed(build)
    epochs = len(info.train_result.train_history)
    checks.record(
        epochs == config.max_epochs,
        f"training ran {epochs} epochs, configured {config.max_epochs}",
    )
    return Built(span, path.read_bytes(), bundle, info)


def check_same_bytes(builds: list[Built], checks: Checks) -> None:
    for k, built in enumerate(builds[1:], start=1):
        checks.record(
            built.blob == builds[0].blob,
            f"build {k} saved different bytes than build 0 with the same seed",
        )


def oracle_candidates(curve, library, cfg) -> list[RulCandidate]:
    """Brute-force matching from the public distance and similarity."""
    raw = []
    for train_id, train_curve in library:
        for lag in range(1, cfg.tau + 1):
            if lag + curve.length > train_curve.length:
                break
            s = similarity(curve_distance(curve, train_curve, lag), cfg.lam)
            estimate = float(train_curve.length - curve.length - lag)
            raw.append(RulCandidate(train_id, lag, s, estimate))
    if not raw:
        return []
    cutoff = cfg.alpha * max(c.similarity for c in raw)
    return [c for c in raw if c.similarity >= cutoff and c.similarity > 0.0]


def check_estimate(bundle, curve, est, with_oracle: bool, checks: Checks) -> None:
    r_max = bundle.config.r_max
    checks.record(
        math.isfinite(est.value) and 0.0 <= est.value <= r_max,
        f"estimate {est.value!r} outside [0, {r_max}]",
    )
    if not with_oracle:
        return
    cfg = bundle.match_config()
    expected = oracle_candidates(curve, bundle.hi_train_curves, cfg)
    lengths = [c.length for _, c in bundle.hi_train_curves]
    oracle_value = estimate_rul(expected, cfg, curve.length, lengths).value
    checks.record(
        est.candidates == expected and est.value == oracle_value,
        f"candidate_estimates differs from the oracle at length {curve.length}",
    )


def scoring_pass(
    api, text: str, labels: list[float], path: Path, checks: Checks
) -> Scored:
    """Parse, load, predict every instance, report: what ``edhi evaluate`` does.

    The pass's busy seconds leave out the checks between estimates.
    """

    def parse_and_load():
        return api.parse_generic(text), api.load_pipeline(path)

    latencies = []
    records = []
    opened, (ds, bundle) = _timed(parse_and_load)
    for k, ((_, series), actual) in enumerate(zip(ds.instances, labels)):
        try:
            span, (est, curve) = _timed(api.predict_one, bundle, series)
        except Exception:  # a failed estimate is counted, the pass goes on
            checks.record(False, traceback.format_exc(limit=3))
            continue
        latencies.append(span)
        records.append(EvalRecord(est.value, actual, curve.length))
        check_estimate(bundle, curve, est, k % ORACLE_STRIDE == 0, checks)
    cfg = bundle.config
    reported, report = _timed(api.full_report, records, cfg.tau1, cfg.tau2)
    busy = opened[2] + sum(span[2] for span in latencies) + reported[2]
    checks.record(
        len(ds.instances) == len(labels) and math.isfinite(report.mae),
        "scoring pass lost instances or produced a non-finite report",
    )
    return Scored((opened[0], reported[1], busy), latencies, records, report)


def score_chunks_between(seconds: float, plan: Plan, job, chunks, score) -> list:
    """Repeat job for ``seconds``, scoring one chunk after each of the first jobs.

    Spreading the scoring over the run samples the host's speed over the
    whole run instead of one short stretch of it.
    """
    pending = list(chunks)

    def round_():
        result = job()
        if pending:
            score(*pending.pop(0))
        return result

    return repeat_for(seconds, plan.chunks, round_)


def _overall_report(scored: list[Scored], config: RunConfig):
    records = [r for s in scored for r in s.records]
    return full_report(records, config.tau1, config.tau2)


def validation_score(api, ds, built: Built, config: RunConfig) -> float:
    """Timeliness on the build's validation split, as run_sweep scores a point."""
    by_id = dict(ds.instances)
    val_ds = RunToFailureDataset(
        instances=[(uid, by_id[uid]) for uid in built.info.val_ids],
        sensor_names=ds.sensor_names,
    )
    cases = api.truncate_at_fracs(val_ds, list(SWEEP_TRUNCATION_FRACS))
    records = []
    for (_, series), actual in zip(cases.instances, cases.rul_labels):
        est, curve = api.predict_one(built.bundle, series)
        records.append(EvalRecord(est.value, actual, curve.length))
    return api.timeliness(records, config.tau1, config.tau2)


def replay_one_point_sweep(api, ds, built: Built, config, out: Outcome) -> None:
    """A one-point sweep: the run's median build plus scoring its validation."""
    out.point_scoring, score = _timed(validation_score, api, ds, built, config)
    out.sweep_best_score = score


def _setups(plan: Plan, fn) -> tuple[list[Interval], list]:
    """Set up plan.setup_reps times; the last set-up's state is used.

    The set-ups' objects live through the run. They are moved out of the
    garbage collector's view, so that they do not lengthen every full
    collection in the timed region, as they would not in an ``edhi`` command.
    """
    timed = [_timed(fn) for _ in range(plan.setup_reps)]
    gc.collect()
    gc.freeze()
    return [span for span, _ in timed], [state for _, state in timed]


def run_train_fd001(
    api, plan: Plan, seed: int, seconds: float, work: Path, checks: Checks
) -> Outcome:
    """Timed job: build_pipeline + save_pipeline on an FD001-shaped fleet."""
    fleet, test_fleet, config = _seeded(plan, seed)

    def setup():
        return make_fleet(api, fleet), _test_chunks(api, plan, test_fleet)

    out = Outcome()
    out.setups, states = _setups(plan, setup)
    ds, chunks = states[-1]
    path = work / "train.edhi"

    def score(text, labels):
        out.scored.append(scoring_pass(api, text, labels, path, checks))

    def build():
        return build_and_save(api, ds, config, path, checks)

    builds = score_chunks_between(seconds, plan, build, chunks, score)
    check_same_bytes(builds, checks)
    out.builds = [b.span for b in builds]
    out.val_loss = min(builds[0].info.train_result.val_history)
    out.report = _overall_report(out.scored, config)
    replay_one_point_sweep(api, ds, builds[-1], config, out)
    return out


def run_score_fd001(
    api, plan: Plan, seed: int, seconds: float, work: Path, checks: Checks
) -> Outcome:
    """Timed job: score a truncated FD001-shaped fleet from CSV text."""
    fleet, test_fleet, config = _seeded(plan, seed)
    path = work / "score.edhi"

    def setup():
        ds = make_fleet(api, fleet)
        built = build_and_save(api, ds, config, path, checks)
        [(text, labels)] = _test_chunks(api, plan, test_fleet)
        return ds, built, text, labels

    out = Outcome()
    out.setups, states = _setups(plan, setup)
    builds = [built for _, built, _, _ in states]
    ds, built, text, labels = states[-1]
    out.val_loss = min(built.info.train_result.val_history)
    out.scored = repeat_for(
        seconds, plan.chunks, lambda: scoring_pass(api, text, labels, path, checks)
    )
    maes = sorted({s.report.mae for s in out.scored})
    checks.record(len(maes) == 1, f"repeated scoring passes disagree: {maes}")
    out.report = out.scored[0].report
    check_same_bytes(builds, checks)
    out.builds = [b.span for b in builds]
    replay_one_point_sweep(api, ds, built, config, out)
    return out


def run_sweep_grid(
    api, plan: Plan, seed: int, seconds: float, work: Path, checks: Checks
) -> Outcome:
    """Timed job: run_sweep over an alpha x lam x tau grid on a small fleet."""
    fleet, test_fleet, config = _seeded(plan, seed)
    combos = plan.grid.combinations()
    # The scoring passes use the last grid point's pipeline, whichever point
    # wins, so their matching work does not depend on the seed.
    last_config = apply_overrides(config, combos[-1])
    path = work / "sweep.edhi"

    def setup():
        ds = make_fleet(api, fleet)
        built = build_and_save(api, ds, last_config, path, checks)
        return ds, built, _test_chunks(api, plan, test_fleet)

    out = Outcome()
    out.setups, states = _setups(plan, setup)
    builds = [built for _, built, _ in states]
    ds, built, chunks = states[-1]
    out.val_loss = min(built.info.train_result.val_history)

    def sweep():
        span, (best, trials) = _timed(api.run_sweep, ds, config, plan.grid)
        return span, best, trials

    def score_and_rebuild(text, labels):
        # The builds are short, so a few spread over the run time them better
        # than the set-up's alone.
        out.scored.append(scoring_pass(api, text, labels, path, checks))
        builds.append(build_and_save(api, ds, last_config, path, checks))

    sweeps = score_chunks_between(seconds, plan, sweep, chunks, score_and_rebuild)
    check_same_bytes(builds, checks)
    out.builds = [b.span for b in builds]
    out.report = _overall_report(out.scored, last_config)
    out.sweeps = [span for span, _, _ in sweeps]
    out.grid_points = len(combos)
    _, best, trials = sweeps[0]
    out.sweep_best_score = best.score
    for _, _, other_trials in sweeps[1:]:
        checks.record(
            [t.score for t in other_trials] == [t.score for t in trials],
            "repeated sweeps over the same input disagree",
        )
    checks.record(
        len(trials) == len(combos)
        and all(math.isfinite(t.score) for t in trials)
        and trials[-1].config == last_config,
        "sweep lost grid points, scored one as non-finite or reordered them",
    )

    # Naive per-point rebuilds must reproduce the sweep's scores exactly.
    rebuilt = {len(combos) - 1: built}
    for index in (0, trials.index(best)):
        if index not in rebuilt:
            point_path = work / "point.edhi"
            rebuilt[index] = build_and_save(
                api, ds, trials[index].config, point_path, checks
            )
    for index, point in rebuilt.items():
        trial = trials[index]
        score = validation_score(api, ds, point, trial.config)
        checks.record(
            score == trial.score,
            f"grid point {index}: swept {trial.score!r}, rebuilt {score!r}",
        )
    return out


WORKLOADS = {
    "train_fd001": run_train_fd001,
    "score_fd001": run_score_fd001,
    "sweep_grid": run_sweep_grid,
}


def end_to_end(out: Outcome, peak_rss_mb: float, seconds=CLOCK.normalize) -> dict:
    """The end-to-end metrics of one untraced run.

    ``seconds`` turns a span into seconds: normalized to nominal host speed
    by default, or ``wall_seconds`` for the raw figures.
    """
    latencies_ms = [1e3 * seconds(t) for s in out.scored for t in s.latencies]
    # 19 cut points; the last is the 95th percentile, with 25 (train_fd001)
    # or 50 samples beyond it
    p95 = statistics.quantiles(latencies_ms, n=20, method="inclusive")[-1]
    train_s = statistics.median(seconds(b) for b in out.builds)
    if out.sweeps:
        per_point = statistics.median(seconds(s) for s in out.sweeps) / out.grid_points
    else:
        per_point = train_s + seconds(out.point_scoring)
    return {
        "setup_s": statistics.median(seconds(s) for s in out.setups),
        "train_s": train_s,
        "instances_per_s": sum(len(s.records) for s in out.scored)
        / sum(seconds(s.span) for s in out.scored),
        "predict_p50_ms": statistics.median(latencies_ms),
        "predict_p95_ms": p95,
        "sweep_s_per_point": per_point,
        "peak_rss_mb": peak_rss_mb,
    }


def wall_seconds(span: Interval) -> float:
    """A span's busy seconds, unscaled: wall time less the probes inside it."""
    return span[2]
