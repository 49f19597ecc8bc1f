"""Held-out quality of the recipe, next to the null estimator, as one JSON file.

Usage, from the repository root:

    python3 tools/quality.py [--size full|tiny] [--out PATH] [--check]

For each fleet kind, HI variant and seed it builds a pipeline on the fleet's
training units and scores its held-out units twice: at the shipped matching
constants, and at the (lam, alpha) that ``run_sweep`` selects on the build's
own validation units over GRID. The null estimator scores the same units.
Every row reports S, A, MAE and MAPE1 against the true RUL, and S, A and MAE
against min(RUL, r_max). The result goes to ``BENCH_quality_<commit>.json``
in the repository root unless ``--out`` names another path; it holds no
timings, so two runs on one commit write the same bytes. ``--check`` makes
the exit status 1 when a pipeline row on the reference split does not beat
the null estimator's held-out MAE.

Only edhi's public API is used. The edhi sources are imported from ``src/``
next to this directory, and importing edhi pins BLAS to one thread, so a run
reproduces the committed numbers. ``--size tiny`` runs the same code on toy
fleets in about a second; only the smoke test uses it.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import edhi  # noqa: E402
from edhi import (  # noqa: E402
    EvalRecord,
    RunConfig,
    SweepGrid,
    SyntheticSpec,
    build_pipeline,
    evaluate_pipeline,
    full_report,
    held_out_split,
    run_sweep,
)

VARIANTS = ("recon_error_squared", "recon_error", "exponential", "linear")
SEEDS = (1, 2)
# run_sweep's grid: lam x alpha at the shipped tau
GRID = SweepGrid(
    values={
        "lam": ["5e-4", "5e-5", "5e-6"],
        "alpha": ["0.87", "0.95", "0.99"],
        "tau": ["40"],
    }
)
# held-out units observe 40-90% of their lives, drawn with seed + 7
HELD_OUT_FRACS = (0.4, 0.9)

# (fleet kind, spec without its seed, build config without its seed)
FLEETS = {
    "full": (
        # the reference split: units 1-100 build, units 101-200 are scored
        (
            "reference",
            SyntheticSpec(n_instances=100, n_sensors=21, min_len=128, max_len=362),
            RunConfig(healthy_frac=0.3, max_epochs=2),
        ),
        # ROADMAP item 10's small fleet, built at the defaults
        (
            "small",
            SyntheticSpec(n_instances=16, n_sensors=8, min_len=40, max_len=80),
            RunConfig(),
        ),
    ),
    "tiny": (
        (
            "reference",
            SyntheticSpec(n_instances=10, n_sensors=4, min_len=40, max_len=60),
            RunConfig(p=2, c=4, l=8, max_epochs=1),
        ),
        (
            "small",
            SyntheticSpec(n_instances=8, n_sensors=3, min_len=30, max_len=40),
            RunConfig(p=2, c=4, l=8, max_epochs=1),
        ),
    ),
}


def commit() -> str:
    """The short id of the checked-out commit, or "unknown" outside git."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _finite(value: float) -> float | None:
    """JSON has no NaN: an undefined metric (MAPE1 with a true RUL of 0) is null."""
    return value if math.isfinite(value) else None


def scores(records: list[EvalRecord], config: RunConfig) -> dict:
    """S, A, MAE and MAPE1 against the true RUL; S, A and MAE against
    min(RUL, r_max)."""
    true = full_report(records, config.tau1, config.tau2)
    capped_records = [
        replace(r, actual=min(r.actual, config.r_max)) for r in records
    ]
    capped = full_report(capped_records, config.tau1, config.tau2)
    return {
        "n": true.n,
        "true": {
            "s": true.s,
            "a": true.a,
            "mae": true.mae,
            "mape1": _finite(true.mape1),
        },
        "capped": {"s": capped.s, "a": capped.a, "mae": capped.mae},
    }


def null_records(train_ds, test_ds, r_max: float) -> list[EvalRecord]:
    """The null estimator ignores the sensors: mean training life minus the
    observed cycles, floored at 0 and capped at r_max."""
    lives = [series.shape[0] for _, series in train_ds.instances]
    mean_life = sum(lives) / len(lives)
    return [
        EvalRecord(min(max(mean_life - len(series), 0.0), r_max), actual, len(series))
        for (_, series), actual in zip(test_ds.instances, test_ds.rul_labels)
    ]


def fleet_rows(
    kind: str, spec: SyntheticSpec, base: RunConfig, seed: int
) -> list[dict]:
    """The null row and, per HI variant, the shipped and selected rows."""
    train_ds, test_ds = held_out_split(
        replace(spec, seed=seed), *HELD_OUT_FRACS, seed + 7
    )
    head = {"fleet": kind, "seed": seed}
    null = null_records(train_ds, test_ds, base.r_max)
    rows = [{**head, "estimator": "null", **scores(null, base)}]
    for variant in VARIANTS:
        config = replace(base, hi_variant=variant, seed=seed)
        bundle, _ = build_pipeline(train_ds, config)
        best, _ = run_sweep(train_ds, config, GRID)
        # the grid sets scoring fields only, so the selected point's build is
        # this build, with the selected constants in its config
        for matching, bundle_at in (
            ("shipped", bundle),
            ("selected", replace(bundle, config=best.config)),
        ):
            _, estimates = evaluate_pipeline(bundle_at, test_ds)
            records = [
                EvalRecord(row.estimate.value, row.actual, row.curve.length)
                for row in estimates
            ]
            at = bundle_at.config
            rows.append(
                {
                    **head,
                    "estimator": "pipeline",
                    "hi_variant": variant,
                    "matching": matching,
                    "lam": at.lam,
                    "alpha": at.alpha,
                    "tau": at.tau,
                    **scores(records, at),
                }
            )
    return rows


def quality(size: str) -> dict:
    rows = []
    for kind, spec, base in FLEETS[size]:
        for seed in SEEDS:
            rows.extend(fleet_rows(kind, spec, base, seed))
    return {
        "size": size,
        "edhi": edhi.__version__,
        "grid": GRID.values,
        "held_out_fracs": list(HELD_OUT_FRACS),
        "rows": rows,
    }


def behind_null(result: dict) -> list[str]:
    """The reference-split pipeline rows whose held-out MAE does not beat
    the null estimator's on the same units, one line each."""
    rows = [r for r in result["rows"] if r["fleet"] == "reference"]
    null = {r["seed"]: r["true"]["mae"] for r in rows if r["estimator"] == "null"}
    return [
        f"seed {r['seed']} {r['hi_variant']} {r['matching']}: MAE"
        f" {r['true']['mae']:.4f}, null {null[r['seed']]:.4f}"
        for r in rows
        if r["estimator"] == "pipeline" and not r["true"]["mae"] < null[r["seed"]]
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument(
        "--out", help="output path (default: BENCH_quality_<commit>.json)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when a pipeline row on the reference split does not beat"
        " the null estimator's held-out MAE",
    )
    args = parser.parse_args(argv)
    out = Path(args.out) if args.out else ROOT / f"BENCH_quality_{commit()}.json"
    t0 = time.perf_counter()
    result = quality(args.size)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(result['rows'])} rows, {time.perf_counter() - t0:.1f} s)")
    if args.check:
        behind = behind_null(result)
        for line in behind:
            print(f"no better than the null estimator: {line}")
        return 1 if behind else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
