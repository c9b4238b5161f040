"""Smoke tests: each script's main() runs end to end on a short scene."""

import csv
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def script_main(name):
    return runpy.run_path(str(SCRIPTS / name), run_name="script_under_test")["main"]


def test_force_ablation(tmp_path, capsys):
    out = tmp_path / "ablation.csv"
    script_main("force_ablation.py")(["--frames", "12", "--window", "4", "--out", str(out)])
    printed = [line for line in capsys.readouterr().out.splitlines() if "mean accuracy" in line]
    assert len(printed) == 7
    rows = list(csv.DictReader(out.open()))
    assert len({r["forces"] for r in rows}) == 7
    assert all(0.0 <= float(r["mean_accuracy"]) <= 1.0 for r in rows)
