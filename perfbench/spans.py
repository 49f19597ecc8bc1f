"""Span tracing around the calls into each edhi layer.

A traced run replaces, for that run only, the public functions that
``edhi.pipeline`` calls into each layer (and ``encode``/``decode_infer`` as
``edhi.health`` calls them) with wrappers that record a span: name, layer,
start, end and parent. Spans stay in memory; ``layer_report`` turns them into
per-layer self times, call counts and work counts once the run is over.
Nothing here is imported or installed by an untraced run.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

import edhi.health
import edhi.pipeline
from edhi.health import sliding_windows
from edhi.lstm import decode_infer, encode, grad_bptt, init_model

LAYERS = (
    "data",
    "numerics",
    "lstm",
    "health",
    "matching",
    "metrics",
    "persist",
    "pipeline",
)

# (module whose global is replaced, function name, layer the function lives in)
PATCHES = (
    ("pipeline", "truncate_at_fracs", "data"),
    ("pipeline", "fit_norm_stats", "numerics"),
    ("pipeline", "apply_norm", "numerics"),
    ("pipeline", "pca_fit", "numerics"),
    ("pipeline", "pca_transform", "numerics"),
    ("pipeline", "ols_fit", "numerics"),
    ("pipeline", "train", "lstm"),
    ("pipeline", "sliding_windows", "health"),
    ("pipeline", "frac_count", "health"),
    ("pipeline", "pointwise_reconstruction", "health"),
    ("pipeline", "reconstruction_error", "health"),
    ("pipeline", "target_hi_from_error", "health"),
    ("pipeline", "exponential_target_hi", "health"),
    ("pipeline", "linear_target_hi", "health"),
    ("pipeline", "endpoint_targets", "health"),
    ("pipeline", "fit_hi_model", "health"),
    ("pipeline", "hi_curve", "health"),
    ("pipeline", "candidate_estimates", "matching"),
    ("pipeline", "estimate_rul", "matching"),
    ("pipeline", "full_report", "metrics"),
    ("pipeline", "timeliness", "metrics"),
    ("pipeline", "build_pipeline", "pipeline"),
    ("pipeline", "predict_one", "pipeline"),
    ("health", "encode", "lstm"),
    ("health", "decode_infer", "lstm"),
)
_MODULES = {"pipeline": edhi.pipeline, "health": edhi.health}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    end: float = math.nan
    counts: dict[str, float] = field(default_factory=dict)


def _count_work(name: str, args: tuple, result) -> dict[str, float]:
    """Work done by one call, read from its arguments and result."""
    if name == "train":
        windows, config, validation = args[:3]
        return {
            "epochs": len(result.train_history),
            "configured_epochs": config.max_epochs,
            "train_windows": len(windows),
            "val_windows": len(validation),
        }
    if name == "pointwise_reconstruction":
        model, series = args
        return {"windows": series.shape[0] - model.window_len + 1}
    if name == "hi_curve":
        return {"cycles": result.length}
    if name == "candidate_estimates":
        test, train_set, config = args
        pairs = sum(
            max(0, min(config.tau, curve.length - test.length))
            for _, curve in train_set
        )
        return {"pairs": pairs, "survivors": len(result)}
    if name == "estimate_rul":
        return {"fallbacks": int(result.fallback)}
    if name == "parse_generic":
        return {
            "bytes": len(args[0]),
            "rows": sum(series.shape[0] for _, series in result.instances),
        }
    if name == "save_pipeline":
        return {"file_bytes": os.path.getsize(args[0])}
    if name == "full_report":
        return {"s_score": result.s}
    return {}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, layer, time.perf_counter(), parent)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.counts = _count_work(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every patched global with its traced wrapper."""
        for module_name, attr, layer in PATCHES:
            module = _MODULES[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _sum(spans, key: str) -> float:
    return float(sum(s.counts.get(key, 0) for s in spans))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trainings_per_sweep(spans: list[Span]) -> float:
    """LSTM trainings per run_sweep call (0 when no sweep ran)."""

    def in_sweep(span: Span) -> bool:
        while span.parent is not None:
            span = spans[span.parent]
            if span.name == "run_sweep":
                return True
        return False

    trainings = sum(1 for s in spans if s.name == "train" and in_sweep(s))
    return _ratio(trainings, sum(1 for s in spans if s.name == "run_sweep"))


def layer_report(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans.

    A span's self time is its duration minus the durations of its direct
    children. The layers' self times plus ``trace.untimed_s`` (time spent
    outside every span: the benchmark's own input rendering and checks) add
    up to ``trace.wall_s``.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    covered = 0.0
    for span, children in zip(spans, child_time):
        duration = span.end - span.start
        self_s[span.layer] += duration - children
        calls[span.layer] += 1
        if span.parent is None:
            covered += duration

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def total(items) -> float:
        return float(sum(s.end - s.start for s in items))

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]

    trainings = named("train")
    train_s = total(trainings)
    epochs = _sum(trainings, "epochs")
    window_epochs = sum(
        s.counts["train_windows"] * s.counts["epochs"] for s in trainings
    )
    out["lstm.train_s"] = train_s
    out["lstm.epochs"] = epochs
    out["lstm.epoch_s"] = _ratio(train_s, epochs)
    out["lstm.train_windows"] = _sum(trainings, "train_windows")
    out["lstm.val_windows"] = _sum(trainings, "val_windows")
    out["lstm.window_epochs_per_s"] = _ratio(window_epochs, train_s)

    recon = named("pointwise_reconstruction")
    curves = named("hi_curve")
    out["health.recon_s"] = total(recon)
    out["health.recon_windows"] = _sum(recon, "windows")
    out["health.hi_curve_s"] = total(curves)
    out["health.hi_curve_cycles"] = _sum(curves, "cycles")
    out["health.fit_s"] = total(named("fit_hi_model"))

    cands = named("candidate_estimates")
    cand_s = total(cands)
    pairs = _sum(cands, "pairs")
    survivors = _sum(cands, "survivors")
    estimates = named("estimate_rul")
    out["matching.candidates_s"] = cand_s
    out["matching.pairs"] = pairs
    out["matching.survivors"] = survivors
    out["matching.survivor_ratio"] = _ratio(survivors, pairs)
    out["matching.fallbacks"] = _sum(estimates, "fallbacks")
    out["matching.us_per_pair"] = _ratio(cand_s * 1e6, pairs)
    out["matching.estimate_s"] = total(estimates)

    parses = named("parse_generic")
    parse_s = total(parses)
    out["data.parse_s"] = parse_s
    out["data.parse_mb_per_s"] = _ratio(_sum(parses, "bytes") / 1e6, parse_s)
    out["data.rows"] = _sum(parses, "rows")
    out["data.synth_s"] = total(named("generate_synthetic"))

    saves = named("save_pipeline")
    out["persist.save_s"] = total(saves)
    out["persist.load_s"] = total(named("load_pipeline"))
    out["persist.file_bytes"] = saves[-1].counts["file_bytes"] if saves else 0.0

    reports = named("full_report")
    out["metrics.report_s"] = total(reports) + total(named("timeliness"))
    out["metrics.s_score"] = reports[-1].counts["s_score"] if reports else 0.0

    out["pipeline.builds"] = len(named("build_pipeline"))
    out["pipeline.lstm_trainings"] = trainings_per_sweep(spans)

    out["trace.wall_s"] = wall_s
    out["trace.untimed_s"] = wall_s - covered
    out["trace.spans"] = len(spans)
    return out


def wrap_api(tracer: Tracer, calls) -> SimpleNamespace:
    """The benchmark's own calls, each recorded as a span of its layer."""
    return SimpleNamespace(
        **{name: tracer.wrap(layer, getattr(mod, name)) for name, mod, layer in calls}
    )


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def lstm_probes(seed: int, reps: int = 25) -> dict[str, float]:
    """Two public LSTM functions timed alone at fixed shapes.

    ``grad_bptt`` on a B=32, l=20, p=3, c=30 batch, and ``decode_infer`` over
    the 181 windows of one 200-cycle instance, as pointwise_reconstruction
    decodes them.
    """
    rng = np.random.default_rng(seed)
    model = init_model(3, 30, 20, seed)
    batch = rng.normal(size=(32, 20, 3))
    windows = np.stack([w for _, w in sliding_windows(rng.normal(size=(200, 3)), 20)])
    states = encode(model, windows)
    return {
        "lstm.grad_bptt_ms": _median_ms(lambda: grad_bptt(model, batch), reps),
        "lstm.decode_infer_ms": _median_ms(
            lambda: decode_infer(model, states, 20), reps
        ),
    }
