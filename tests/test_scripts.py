"""Smoke tests: the scripts in scripts/ run end to end and write their tables."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_compare_outputs_same_tree_has_no_differences(tmp_path):
    cases = ("fig1c_grid11", "validate_fig2", "error_grid_zero")
    proc = run_script("compare_outputs.py", ROOT / "src", ROOT / "src",
                      *(arg for case in cases for arg in ("--only", case)), cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "3 invocations, 1 table files, 55 data cells: 0 differences" in proc.stdout


#: appended to a copy of results.py: every table negates each float cell before it is written
NEGATE_FLOAT_CELLS = """

def _negating(write):
    def negated_write(self, *args, **kwargs):
        blocks = self.blocks

        def negated():
            for block in blocks():
                block = block.copy()
                for c in block.dtype.names:
                    if block.dtype[c].kind == "f":
                        block[c] = -block[c]
                yield block
        self.blocks = negated
        return write(self, *args, **kwargs)
    return negated_write


ResultTable.write = _negating(ResultTable.write)
"""


def test_compare_outputs_reports_each_changed_cell(tmp_path):
    # a copy of src that prints every float cell negated moves every float cell of fig1c --grid
    # 11: a wrapper appended to its results.py, which reads only ResultTable's public names
    changed = tmp_path / "src"
    shutil.copytree(ROOT / "src", changed, ignore=shutil.ignore_patterns("__pycache__"))
    results = changed / "plasmonsim" / "results.py"
    results.write_text(results.read_text() + NEGATE_FLOAT_CELLS)
    proc = run_script("compare_outputs.py", ROOT / "src", changed, "--only", "fig1c_grid11",
                      cwd=tmp_path)
    assert proc.returncode == 1
    assert "fig1c.csv: row 0 phi_rad_cavity: " in proc.stdout
    assert "fig1c_grid11 fig1c.csv phi_rad_bare: 11 cells" in proc.stdout


#: one small command of each kind the benchmark workloads run (bench/workloads.py)
TRACED_COMMANDS = {
    "map": ["map", "--grid", "3"],
    "optq": ["optq", "--d-nm", "5"],
    "fig3": ["fig3", "--grid", "11"],
    "fig4": ["fig4", "--grid", "11"],
    "evolve": ["evolve", "--config", "fig3", "--grid", "16"],
    "eigen": ["eigen"],
    "spectrum": ["spectrum", "--config", "fig2", "--grid", "20000"],
}


@pytest.mark.parametrize("command", sorted(TRACED_COMMANDS))
def test_bench_tracer_runs_each_workload_command(tmp_path, command):
    """The benchmark's traced child (bench/child.py --trace) wraps the program's layers from
    outside and reads its results after each call: each command exits 0 with an empty
    stderr, and the spans count every data row of the tables written."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    record, spans, out = tmp_path / "record.json", tmp_path / "spans.json", tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), str(record), "--trace", str(spans),
         "--", *TRACED_COMMANDS[command], "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(record.read_text())["exit"] == 0
    rows = sum(len([line for line in path.read_text().splitlines() if not line.startswith("#")])
               - 1 for path in out.glob("*.csv"))
    assert rows > 0 and json.loads(spans.read_text())["tally"]["rows_written"] == rows
