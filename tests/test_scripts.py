"""Smoke tests: the scripts in scripts/ run end to end and write their tables."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def csv_names(directory):
    return sorted(p.name for p in directory.glob("*.csv"))


def test_run_paper_figures(tmp_path):
    out = tmp_path / "figures"
    proc = run_script("run_paper_figures.py", out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert csv_names(out) == [
        "fig1c.csv", "fig2_power.csv", "fig2_yield.csv", "fig3_spectrum.csv",
        "fig3_traces.csv", "fig4_branches.csv", "fig4_spectra.csv"]


def test_design_sweep(tmp_path):
    out = tmp_path / "design"
    proc = run_script("design_sweep.py", out, 3, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert csv_names(out) == ["map.csv", "optq.csv"]
    assert "peak yield enhancement" in proc.stdout
