"""Smoke test of tools/quality.py, the held-out quality harness, at toy sizes."""

import importlib.util
import json
from pathlib import Path

from edhi import RunConfig

_PATH = Path(__file__).resolve().parent.parent / "tools" / "quality.py"
_SPEC = importlib.util.spec_from_file_location("quality", _PATH)
quality = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(quality)


def test_tiny_run_writes_every_row(tmp_path, capsys):
    out = tmp_path / "q.json"
    assert quality.main(["--size", "tiny", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {out} (36 rows, ")
    result = json.loads(out.read_text())
    assert result["size"] == "tiny" and result["grid"] == quality.GRID.values
    rows = result["rows"]
    # per fleet kind and seed: one null row, and a shipped and a selected row
    # per HI variant
    keys = [
        (r["fleet"], r["seed"], r["estimator"], r.get("hi_variant"), r.get("matching"))
        for r in rows
    ]
    want = []
    for kind in ("reference", "small"):
        for seed in quality.SEEDS:
            want.append((kind, seed, "null", None, None))
            for variant in quality.VARIANTS:
                for matching in ("shipped", "selected"):
                    want.append((kind, seed, "pipeline", variant, matching))
    assert keys == want
    shipped = RunConfig()
    grid = quality.GRID.values
    for r in rows:
        assert r["n"] > 0
        assert set(r["true"]) == {"s", "a", "mae", "mape1"}
        assert set(r["capped"]) == {"s", "a", "mae"}
        # the capped truth only lowers errors past r_max
        assert r["capped"]["mae"] <= r["true"]["mae"]
        if r.get("matching") == "shipped":
            assert (r["lam"], r["alpha"], r["tau"]) == (
                shipped.lam, shipped.alpha, shipped.tau
            )
        elif r.get("matching") == "selected":
            assert str(r["lam"]) in {str(float(v)) for v in grid["lam"]}
            assert str(r["alpha"]) in grid["alpha"] and str(r["tau"]) in grid["tau"]


def test_check_names_rows_behind_the_null_estimator(tmp_path, capsys):
    # at toy sizes some pipeline rows lose to the null estimator
    out = tmp_path / "q.json"
    assert quality.main(["--size", "tiny", "--out", str(out), "--check"]) == 1
    printed = capsys.readouterr().out.splitlines()[1:]
    behind = quality.behind_null(json.loads(out.read_text()))
    assert printed == [f"no better than the null estimator: {line}" for line in behind]
    assert any(line.startswith("seed 1 linear shipped: MAE ") for line in behind)
