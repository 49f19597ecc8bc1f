"""Smoke test of the benchmark itself, at tiny sizes; takes well under a minute.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import spans  # noqa: E402
from host import REF_S, HostClock  # noqa: E402
from workloads import FD001_FLEET, render_csv  # noqa: E402

from edhi.data import generate_synthetic, parse_generic, write_generic  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT, script: Path | None = None):
    script = script or HERE / "run.py"
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_unit_and_direction(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
        name, unit = re.escape(m["name"]), re.escape(m["unit"])
        row = rf"^{name}\s+\S+\s+{unit}\s+{m['better']} is better$"
        assert any(re.match(row, line) for line in lines), m["name"]
    assert any(line.startswith('{"env"') for line in lines)


def test_quality_numbers_repeat_exactly():
    def quality(done) -> dict:
        lines = done.stdout.splitlines()
        [line] = [line for line in lines if line.startswith("info: ")]
        return json.loads(line[len("info: ") :])

    first, second = (quality(run_bench("sweep_grid", 0)) for _ in range(2))
    assert set(first) == {
        "lstm.val_loss",
        "pipeline.sweep_best_score",
        "metrics.mae",
        "metrics.a_pct",
    }
    assert all(math.isfinite(v) for v in first.values())
    assert first == second


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    copy = tmp_path / "perfbench"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("train_fd001", 0, cwd=tmp_path, script=copy / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_times_and_untimed_remainder_add_up_to_wall():
    tracer = spans.Tracer()
    outer = tracer.wrap("pipeline", lambda: inner())
    inner = tracer.wrap("lstm", lambda: sum(range(10000)))
    outer()
    inner()
    wall = tracer.spans[-1].end - tracer.spans[0].start + 0.5
    report = spans.layer_report(tracer.spans, wall)
    layers = sum(report[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + report["trace.untimed_s"] == pytest.approx(wall)
    assert report["lstm.calls"] == 2 and report["pipeline.calls"] == 1


def test_rendered_csv_has_the_write_generic_layout():
    ds = generate_synthetic(FD001_FLEET)
    ds = type(ds)(instances=ds.instances[:3], sensor_names=ds.sensor_names)
    text = render_csv(ds)
    assert text.splitlines()[0] == write_generic(ds).splitlines()[0]
    parsed = parse_generic(text)
    assert [uid for uid, _ in parsed.instances] == [uid for uid, _ in ds.instances]
    for (_, got), (_, want) in zip(parsed.instances, ds.instances):
        assert got.shape == want.shape
        assert abs(got - want).max() <= 5e-6


def test_host_scale_uses_the_probes_around_a_span():
    clock = HostClock()
    clock.times = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    clock.kernel_s = [x * REF_S for x in (1, 2, 4, 4, 8, 1)]
    # Within WINDOW_S of (4.5, 5.5): probes 2 and 3.
    assert clock.scale(4.5, 5.5) == pytest.approx(1 / 4)
    # (6.1, 6.2): probe 3 within WINDOW_S, and probe 4, the first after it.
    assert clock.scale(6.1, 6.2) == pytest.approx(1 / 6)
    # After the last probe: the last one only.
    assert clock.scale(12.0, 13.0) == pytest.approx(1.0)
    assert clock.normalize((4.5, 5.5, 0.8)) == pytest.approx(0.8 / 4)
