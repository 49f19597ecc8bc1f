"""Command line front end: train, evaluate, predict, synth, sweep.

Config resolution order for train and sweep is defaults, then the
--config file, then individual flags, so a flag always wins; a setting
given by two flags (``--alpha`` twice, or ``--lam`` and ``--lambda``) is
refused, as a config file that sets it twice is. Every command prints
human-readable output; machine-readable results go to the paths given by
--out and friends. Any error prints one ``error:`` line to stderr and
exits nonzero.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

from .config import (
    RunConfig,
    apply_overrides,
    build_key,
    parse_config_text,
    parse_sweep_grid,
)
from .data import (
    RunToFailureDataset,
    SyntheticSpec,
    generate_synthetic,
    held_out_split,
    parse_generic,
    parse_rul_labels,
    parse_turbofan_series,
    write_generic,
    write_rul_labels,
)
from .health import HiCurve
from .persist import load_pipeline, save_pipeline
from .pipeline import (
    StageError,
    build_pipeline,
    evaluate_pipeline,
    predict_one,
    run_sweep,
)


class _Setting(argparse.Action):
    """A settings flag: stores its value, and refuses a second flag for the
    same field, whether the same flag again or another spelling of it."""

    def __call__(self, parser, namespace, values, option_string=None):
        first = getattr(namespace, f"{self.dest}_flag", None)
        if first is not None:
            name = self.dest.removeprefix("cfg_")
            raise ValueError(
                f"flags {first!r} and {option_string!r} both set {name}"
            )
        setattr(namespace, f"{self.dest}_flag", option_string)
        setattr(namespace, self.dest, values)


def _add_config_flags(sub: argparse.ArgumentParser, record: type) -> None:
    """One flag per field of a settings record, spelled as its declaration
    says (``config.setting``), into ``cfg_<field>``."""
    group = sub.add_argument_group("settings")
    for f in fields(record):
        names = f.metadata["spellings"] or (f.name,)
        group.add_argument(
            *("--" + name.replace("_", "-") for name in names),
            dest=f"cfg_{f.name}",
            action=_Setting,
            metavar="V",
            help=f.metadata["help"].replace("%", "%%"),
        )


_DATA_HELP = "series file: generic CSV or turbofan text, told apart by its first line"


def _cli_overrides(args: argparse.Namespace, record: type) -> dict[str, str]:
    out = {}
    for f in fields(record):
        value = getattr(args, f"cfg_{f.name}", None)
        if value is not None:
            out[f.name] = value
    return out


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        config = apply_overrides(
            config, parse_config_text(Path(args.config).read_text())
        )
    return apply_overrides(config, _cli_overrides(args, RunConfig))


# leading whitespace (blank lines included), then the rest of the first
# line: up to any line boundary that str.splitlines knows
_FIRST_LINE = re.compile(r"\s*([^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*)")


def _sniff_format(text: str) -> str:
    """generic if the first non-blank line holds a comma or starts with the
    token instance_id, else turbofan: no turbofan row holds either."""
    # reads only the head of the file; splitting it into lines here would
    # split the whole file once more before its parser does
    line = _FIRST_LINE.match(text).group(1)
    if not line:
        raise ValueError("empty data file")
    generic = "," in line or line.split()[0] == "instance_id"
    return "generic" if generic else "turbofan"


def _load_dataset(path: str, rul_path: str | None = None) -> RunToFailureDataset:
    text = Path(path).read_text()
    if _sniff_format(text) == "generic":
        ds = parse_generic(text, path)
    else:
        ds = parse_turbofan_series(text, path)
    if rul_path is None:
        return ds
    labels = parse_rul_labels(Path(rul_path).read_text(), rul_path)
    if len(labels) != len(ds.instances):
        raise ValueError(
            f"{rul_path}: {len(labels)} labels for {len(ds.instances)} instances"
        )
    return RunToFailureDataset(
        instances=ds.instances, rul_labels=labels, sensor_names=ds.sensor_names
    )


def _write_curve(path: Path, curve: HiCurve) -> None:
    lines = ["cycle,hi"]
    for t, v in enumerate(curve.values, start=1):
        lines.append(f"{t},{float(v)!r}")
    path.write_text("\n".join(lines) + "\n")


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _check_out_dir(out: str | None) -> None:
    """Refuse an --out whose directory does not exist, before the work whose
    result it would hold."""
    if out is not None and not Path(out).parent.is_dir():
        raise ValueError(
            f"--out {out!r}: directory {str(Path(out).parent)!r} does not exist"
        )


def cmd_train(args: argparse.Namespace) -> int:
    _check_out_dir(args.out)
    config = _resolve_config(args)
    ds = _load_dataset(args.data)
    bundle, info = build_pipeline(ds, config)
    out = Path(args.out)
    save_pipeline(out, bundle)

    result = info.train_result
    log_path = Path(args.log) if args.log else out.with_suffix(out.suffix + ".log")
    lines = [
        f"fit_instances {len(info.fit_ids)}",
        f"val_instances {len(info.val_ids)}",
    ]
    if result is not None:
        history = zip(result.train_history, result.val_history)
        for epoch, (tr, va) in enumerate(history):
            lines.append(f"epoch {epoch} train_loss {tr:.10g} val_loss {va:.10g}")
        lines.append(f"best_epoch {result.best_epoch}")
        lines.append(f"best_val_loss {result.val_history[result.best_epoch]:.10g}")
    log_path.write_text("\n".join(lines) + "\n")

    print(f"trained on {len(info.fit_ids)} instances, {len(info.val_ids)} held out")
    if result is None:
        print(f"hi_variant {config.hi_variant} reads no encoder-decoder; none trained")
    else:
        if result.best_epoch == 0:
            print(
                "warning: no epoch beat the untrained model's validation loss;"
                " the HI targets come from the untrained encoder-decoder",
                file=sys.stderr,
            )
        print(
            f"best epoch {result.best_epoch}, validation loss "
            f"{result.val_history[result.best_epoch]:.6g}"
        )
    print(f"wrote {out}")
    print(f"wrote {log_path}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    bundle = load_pipeline(args.pipeline)
    taus = {"tau1": args.tau1, "tau2": args.tau2}
    taus = {key: value for key, value in taus.items() if value is not None}
    bundle = replace(bundle, config=apply_overrides(bundle.config, taus))
    ds = _load_dataset(args.data, rul_path=args.rul)
    if args.curves_dir:
        # each curve file is named after its instance, so an id that is not
        # a plain file name would put it outside --curves-dir
        for uid, _ in ds.instances:
            if uid in (".", "..") or "/" in uid or "\0" in uid:
                raise ValueError(
                    f"instance id {uid!r} is not a plain file name;"
                    " --curves-dir names each curve file after its instance"
                )
    # after the id check, which names the input's fault first, and before
    # any instance is scored
    _check_out_dir(args.out)
    report, rows = evaluate_pipeline(bundle, ds)
    print(report.as_table())
    zeros = sum(1 for actual in ds.rul_labels if actual == 0)
    if zeros:
        print(
            f"warning: {zeros} of {len(rows)} true RULs are 0;"
            " MAPE1 divides by them and is reported as undefined",
            file=sys.stderr,
        )

    if args.out:
        lines = ["test_id,rul_estimate,std_dev,spread,n_candidates,capped,fallback"]
        for row in rows:
            est = row.estimate
            lines.append(
                f"{row.test_id},{float(est.value)!r},{float(est.std_dev)!r},"
                f"{float(est.spread)!r},{len(est.survivors)},{_flag(est.capped)},"
                f"{_flag(est.fallback)}"
            )
        Path(args.out).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    if args.curves_dir:
        curves_dir = Path(args.curves_dir)
        curves_dir.mkdir(parents=True, exist_ok=True)
        for row in rows:
            _write_curve(curves_dir / f"{row.test_id}.csv", row.curve)
        print(f"wrote {len(rows)} curves to {curves_dir}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    bundle = load_pipeline(args.pipeline)
    ds = _load_dataset(args.data)
    if args.instance is not None:
        by_id = dict(ds.instances)
        if args.instance not in by_id:
            raise ValueError(f"instance {args.instance!r} not in {args.data}")
        uid, series = args.instance, by_id[args.instance]
    elif len(ds.instances) == 1:
        uid, series = ds.instances[0]
    else:
        raise ValueError(
            f"{args.data} has {len(ds.instances)} instances; pass --instance"
        )
    est, curve = predict_one(bundle, series)
    print(f"instance {uid}")
    print(f"observed_cycles {curve.length}")
    print(f"rul_estimate {est.value:.6g}")
    print(f"std_dev {est.std_dev:.6g}")
    print(f"spread {est.spread:.6g}")
    print(f"n_candidates {len(est.survivors)}")
    best = est.best_match
    if best is None:
        print("best_match none")
    else:
        print(
            f"best_match {best.train_id} lag {best.lag}"
            f" similarity {best.similarity:.6g}"
        )
    print(f"n_pairs {est.n_pairs}")
    print(f"capped {_flag(est.capped)}")
    print(f"fallback {_flag(est.fallback)}")
    if args.curve_out:
        _write_curve(Path(args.curve_out), curve)
        print(f"wrote {args.curve_out}")
    return 0


def _truncate_range(text: str) -> tuple[float, float]:
    """--truncate's LO,HI, or one ValueError naming the flag."""
    try:
        lo, hi = (float(part) for part in text.split(","))
        if not 0.0 < lo <= hi < 1.0:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"--truncate expects LO,HI with 0 < LO <= HI < 1, got {text!r}"
        ) from None
    return lo, hi


def cmd_synth(args: argparse.Namespace) -> int:
    spec = apply_overrides(SyntheticSpec(), _cli_overrides(args, SyntheticSpec))
    # checked before anything is written, so a bad --truncate leaves no data.csv
    frac_range = _truncate_range(args.truncate) if args.truncate else None
    # with --truncate, units 1..n keep the n-unit fleet's bytes and units
    # n+1..2n of the same draw are the held-out units
    if frac_range:
        lives, truncated = held_out_split(spec, *frac_range, spec.seed + 1)
    else:
        lives = generate_synthetic(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    data_path = out_dir / "data.csv"
    data_path.write_text(write_generic(lives))
    print(f"wrote {data_path} ({spec.n_instances} instances)")
    if frac_range:
        trunc_path = out_dir / "truncated.csv"
        rul_path = out_dir / "rul.txt"
        trunc_path.write_text(write_generic(truncated))
        rul_path.write_text(write_rul_labels(truncated.rul_labels))
        print(f"wrote {trunc_path}")
        print(f"wrote {rul_path}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    _check_out_dir(args.out)
    base = RunConfig()
    base = apply_overrides(base, _cli_overrides(args, RunConfig))
    grid = parse_sweep_grid(parse_config_text(Path(args.config).read_text()))
    ds = _load_dataset(args.data)
    best, trials = run_sweep(ds, base, grid)
    # one warning per shared build whose encoder-decoder stayed untrained
    untrained: dict[RunConfig, list[str]] = {}
    for k, trial in enumerate(trials):
        if trial.best_epoch == 0:
            untrained.setdefault(build_key(trial.config, base), []).append(str(k))
    for ids in untrained.values():
        print(
            f"warning: trials {','.join(ids)}: no epoch beat the untrained model's"
            " validation loss; their HI targets come from the untrained"
            " encoder-decoder",
            file=sys.stderr,
        )
    keys = sorted(grid.values)
    for k, trial in enumerate(trials):
        settings = " ".join(f"{key}={trial.overrides[key]}" for key in keys)
        print(f"trial {k} score {trial.score:.6g} {settings}")
    best_settings = " ".join(f"{key}={best.overrides[key]}" for key in keys)
    print(f"best score {best.score:.6g} {best_settings}")
    if args.out:
        lines = ["trial,score," + ",".join(keys)]
        for k, trial in enumerate(trials):
            vals = ",".join(trial.overrides[key] for key in keys)
            lines.append(f"{k},{float(trial.score)!r},{vals}")
        Path(args.out).write_text("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edhi",
        description="Health-index learning and RUL estimation for run-to-failure data",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    train = subs.add_parser("train", help="fit a pipeline and save it")
    train.add_argument("--data", required=True, help=_DATA_HELP)
    train.add_argument("--config", help="key=value config file")
    train.add_argument("--out", default="pipeline.edhi", help="pipeline output path")
    train.add_argument("--log", help="training log path (default: <out>.log)")
    _add_config_flags(train, RunConfig)
    train.set_defaults(func=cmd_train)

    ev = subs.add_parser("evaluate", help="score a pipeline on a labeled test set")
    ev.add_argument("--pipeline", required=True, help="saved pipeline path")
    ev.add_argument("--data", required=True, help=_DATA_HELP)
    ev.add_argument("--rul", required=True, help="true RUL per test instance")
    ev.add_argument(
        "--tau1", action=_Setting, metavar="V", help="early tolerance override"
    )
    ev.add_argument(
        "--tau2", action=_Setting, metavar="V", help="late tolerance override"
    )
    ev.add_argument("--out", help="per-instance estimates CSV")
    ev.add_argument("--curves-dir", help="directory for per-instance HI curves")
    ev.set_defaults(func=cmd_evaluate)

    pred = subs.add_parser("predict", help="estimate RUL for one instance")
    pred.add_argument("--pipeline", required=True, help="saved pipeline path")
    pred.add_argument("--data", required=True, help=_DATA_HELP)
    pred.add_argument("--instance", help="instance id when the file has several")
    pred.add_argument("--curve-out", help="write the instance's HI curve here")
    pred.set_defaults(func=cmd_predict)

    synth = subs.add_parser("synth", help="generate synthetic run-to-failure data")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument(
        "--truncate",
        metavar="LO,HI",
        help="also write n held-out units of the same fleet (ids n+1..2n),"
        " each truncated at a uniform life fraction drawn with seed + 1",
    )
    _add_config_flags(synth, SyntheticSpec)
    synth.set_defaults(func=cmd_synth)

    sweep = subs.add_parser("sweep", help="grid-search config values")
    sweep.add_argument("--data", required=True, help=_DATA_HELP)
    sweep.add_argument(
        "--config", required=True, help="config file; comma lists form the grid"
    )
    sweep.add_argument("--out", help="per-trial results CSV")
    _add_config_flags(sweep, RunConfig)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # inside the try: a settings flag given twice raises while parsing
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, StageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
