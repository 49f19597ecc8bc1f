"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload score_fd001 --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, with times scaled to nominal host
speed by reference-kernel probes (host.py); the raw wall-clock figures are
printed on a ``wall:`` line. ``--trace 1`` runs the workload
once untraced and once with span wrappers installed and prints the per-layer
metrics, including the tracing overhead. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; units
and directions come from BENCHMARK.json. The edhi sources are imported from
``src/`` next to this directory, so nothing needs installing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread, set before numpy is first imported: a single closed-loop
# caller, and run-to-run noise is lower than with threads on a shared host.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: smoke-test sizes",
    )
    return parser.parse_args(argv)


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "--no-optional-locks", "-C", str(ROOT), *args],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.25 prints instead
        blas_name = "unknown"
    toplevel = _git("rev-parse", "--show-toplevel")
    in_repo = toplevel is not None and Path(toplevel).resolve() == ROOT
    status = _git("status", "--porcelain") if in_repo else None
    commit = _git("rev-parse", "HEAD") if in_repo else "unknown (not a git checkout)"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {name: os.environ[name] for name in BLAS_ENV},
        "git_commit": commit,
        "git_dirty": bool(status) if status is not None else "unknown",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_untraced(args, plan, work: Path, checks) -> dict[str, float]:
    from host import CLOCK
    from workloads import PLAIN_API, WORKLOADS, end_to_end, wall_seconds

    run = WORKLOADS[args.workload]
    with CLOCK:
        out = run(PLAIN_API, plan, args.seed, args.seconds, work, checks)
    print("info: " + json.dumps(out.quality()))
    wall = end_to_end(out, peak_rss_mb(), wall_seconds)
    print("wall: " + json.dumps(wall))
    print(f"host: {len(CLOCK.kernel_s)} probes, median kernel "
          f"{1e3 * statistics.median(CLOCK.kernel_s):.4f} ms")
    return end_to_end(out, peak_rss_mb())


def run_traced(args, plan, work: Path, checks) -> dict[str, float]:
    """One fixed-size run untraced, then the same run traced.

    Fixed size: one set-up and the plan's minimum number of timed jobs.
    """
    import spans
    from host import CLOCK
    from workloads import BENCH_CALLS, PLAIN_API, WORKLOADS, Checks

    plan = replace(plan, setup_reps=1)
    run = WORKLOADS[args.workload]
    with CLOCK:
        start = time.perf_counter()
        run(PLAIN_API, plan, args.seed, 0.0, work, Checks())
        untraced_s = time.perf_counter() - start

        tracer = spans.Tracer()
        api = spans.wrap_api(tracer, BENCH_CALLS)
        tracer.install()
        try:
            start = time.perf_counter()
            out = run(api, plan, args.seed, 0.0, work, checks)
            traced_s = time.perf_counter() - start
        finally:
            tracer.uninstall()

    trainings = [s for s in tracer.spans if s.name == "train"]
    for span in trainings:
        checks.record(
            span.counts["epochs"] == span.counts["configured_epochs"],
            f"a training stopped after {span.counts['epochs']} epochs",
        )
    if plan.grid is not None:
        points = len(plan.grid.combinations())
        # At most one training per grid point: a staged sweep may share them.
        per_sweep = spans.trainings_per_sweep(tracer.spans)
        checks.record(
            1 <= per_sweep <= points,
            f"{per_sweep} LSTM trainings per sweep of {points} grid points",
        )

    metrics = spans.layer_report(tracer.spans, traced_s)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["host.ref_ms"] = 1e3 * statistics.median(CLOCK.kernel_s)
    metrics.update(out.quality())
    metrics.update(spans.lstm_probes(args.seed))
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "edhi" / "__init__.py").is_file():
        fail(f"no edhi sources under {ROOT / 'src'}; run from a full checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    from workloads import PLANS, Checks

    plan = PLANS[args.size][args.workload]
    checks = Checks()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        runner = run_traced if args.trace else run_untraced
        values = runner(args, plan, Path(tmp), checks)

    if set(values) != set(declared):
        differ = sorted(set(values) ^ set(declared))
        fail(f"metrics differ from BENCHMARK.json: {differ}")
    print(json.dumps({"env": environment()}, sort_keys=True))
    for message in checks.messages[:20]:
        print(f"check failed: {message}")
    for name, m in declared.items():
        value, unit = values[name], m["unit"]
        print(f"{name:<28} {value:>16.6g} {unit:<8} {m['better']} is better")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": m["unit"]}
            for name, m in declared.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
