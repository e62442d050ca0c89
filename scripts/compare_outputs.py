#!/usr/bin/env python3
"""Compare what two plasmonsim source trees write for one fixed set of commands.

    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC [--only ID ...]

OLD_SRC and NEW_SRC are directories holding a `plasmonsim` package (a
checkout's `src`).  Every command runs twice as a cold `python -m
plasmonsim` child, once with PYTHONPATH set to each directory, in a fresh
work directory that holds the command's config files; `--out out` is
appended, so the printed paths are the same on both sides.  The set of 85
commands is:

- the figure commands, with and without `--grid`, `--format json`,
  `--first-principles` and `--sweep`, and with grids of several
  steady-state blocks, of whole rows of a `fig4` map and of rows longer
  than a block; `eigen`, `map` and `optq` variants, among them a `map` of
  10,000 cells in two steady-state blocks and an `optq` at 3,400
  distances, whose float, str and bool columns span three CSV chunks;
- `spectrum`, `yield`, `evolve` and `validate` on every builtin config, and
  one JSON `spectrum`;
- sweeps of several steady-state blocks: `yield --config fig2 --grid 30000`,
  `spectrum --config fig2_first_principles --grid 30000` as JSON, which
  prints every float's repr, `spectrum --config fig2 --grid 1000000` and
  `fig2 --grid 1000000` (MAX_POINTS, 123 blocks a sweep), and a `[sweep]`
  `start_ev`/`stop_ev` range of 3 x 8192 + 2 points;
- a `spectrum` of `fig2` whose G and g1 are projected by `theta_deg = 30`;
- `validate` and `spectrum` of `fig3`'s ellipsoid in `first_principles`
  mode, and a `validate` of a config with three problems at once;
- three error exits, a steady state of condition number ~1e8, a
  `spectrum` and a `yield` whose sweep near an exceptional point takes the
  LU path in several blocks, and an `evolve` at that exceptional point,
  which propagates by the matrix exponential;
- every command of the benchmark workloads (`bench/workloads.py`) at seeds
  0 and 7.

Config texts come from this checkout's `src` and `bench`, so both sides
read the same inputs.  Every difference is printed, one line each: exit
code, stdout, stderr, a table file present on one side only, a metadata
line, a column list, and every data cell (row, column, old, new).  A
summary of the differing cells per table column follows.  The exit code
is 0 when nothing differs and 1 otherwise.
"""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: the children's environment, taken before plasmonsim is imported here
#: (its import sets OPENBLAS_NUM_THREADS in this process)
BASE_ENV = dict(os.environ)

BENCH_SEEDS = (0, 7)

#: (id, argv) of the commands that read only builtin configs
PLAIN = [
    ("fig1c", ["fig1c"]),
    ("fig2", ["fig2"]),
    ("fig3", ["fig3"]),
    ("fig4", ["fig4"]),
    ("fig1c_grid11", ["fig1c", "--grid", "11"]),
    ("fig2_first_principles", ["fig2", "--first-principles"]),
    ("fig3_grid101_json", ["fig3", "--grid", "101", "--format", "json"]),
    ("fig4_sweep_grid51", ["fig4", "--sweep", "-6e-3:6e-3:1e-3", "--grid", "51"]),
    ("fig2_json", ["fig2", "--format", "json"]),
    ("fig1c_grid20000", ["fig1c", "--grid", "20000"]),
    ("fig2_grid20000", ["fig2", "--grid", "20000"]),
    ("fig3_grid20000", ["fig3", "--grid", "20000"]),
    ("fig4_grid2000", ["fig4", "--grid", "2000"]),
    ("fig4_sweep41_grid2000", ["fig4", "--sweep", "-10e-3:10e-3:5e-4", "--grid", "2000"]),
    ("fig4_sweep3_grid10000", ["fig4", "--sweep", "-2e-3:2e-3:2e-3", "--grid", "10000"]),
    ("eigen", ["eigen"]),
    ("eigen_fig3", ["eigen", "--config", "fig3"]),
    ("eigen_fig4_sweep", ["eigen", "--config", "fig4", "--sweep", "-10e-3:10e-3:5e-4"]),
    ("map", ["map"]),
    ("map_grid7", ["map", "--grid", "7"]),
    # 10,000 cells: two LU blocks, each slicing the array rates gamma_c and gamma_m
    ("map_grid100", ["map", "--grid", "100"]),
    ("optq", ["optq"]),
    ("optq_power", ["optq", "--objective", "power", "--d-nm", "3", "--d-nm", "22"]),
    ("spectrum_fig2_json", ["spectrum", "--config", "fig2", "--format", "json"]),
    ("yield_fig2_grid30000", ["yield", "--config", "fig2", "--grid", "30000"]),
    ("spectrum_fig2_first_principles_grid30000_json",
     ["spectrum", "--config", "fig2_first_principles", "--grid", "30000", "--format", "json"]),
    ("spectrum_fig2_grid1000000", ["spectrum", "--config", "fig2", "--grid", "1000000"]),
    ("fig2_grid1000000", ["fig2", "--grid", "1000000"]),
    # float, str and bool columns over three chunks: the writer's path for a mixed table
    ("optq_d3400", ["optq", *(arg for k in range(3400)
                              for arg in ("--d-nm", repr(2.0 + 28.0 * k / 3399)))]),
    ("error_no_config", ["spectrum"]),
    ("error_grid_zero", ["fig1c", "--grid", "0"]),
]


def _edited(text, edits):
    for old, new in edits:
        if old not in text:
            raise SystemExit(f"config edit {old!r} not found")
        text = text.replace(old, new)
    return text


def cases():
    """[(id, argv, {file name: text})] of the whole comparison set."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    from plasmonsim.config import BUILTIN_CONFIGS
    import workloads

    found = [(case_id, argv, {}) for case_id, argv in PLAIN]
    for command in ("spectrum", "yield", "evolve", "validate"):
        for builtin in sorted(BUILTIN_CONFIGS):
            found.append((f"{command}_{builtin}", [command, "--config", builtin], {}))
    # unreachable calibration target: kappa_2 above every bare width, exit 2
    unreachable = _edited(BUILTIN_CONFIGS["fig3"], [("kappa2_mev = 0.11", "kappa2_mev = 10.0")])
    found.append(("error_calibration", ["spectrum", "--config", "cal.ini"],
                  {"cal.ini": unreachable}))
    # decoupled modes of widths 1e-8, ~1e-8 and 1 eV: kappa_2 = 1e8 at zero detuning
    narrow = _edited(BUILTIN_CONFIGS["fig2"], [
        ("g1_mev = -2.9", "g1_mev = 0"), ("G_mev = -7.2", "G_mev = 0"),
        ("J_uev = -144", "J_uev = 0"), ("gamma_o_ev = 0.2", "gamma_o_ev = 0"),
        ("gamma_1r_mev = 2.45", "gamma_1r_mev = 1e-5"),
        ("gamma_s_uev = 3", "gamma_s_uev = 500000"), ("gamma_m_uev = 83", "gamma_m_uev = 500000"),
        ("q_factor = 1e5", "q_factor = 2.3e8"), ("drive = emitter", "drive = plasmon")])
    found.append(("cond_1e8", ["spectrum", "--config", "narrow.ini", "--format", "json"], {
        "narrow.ini": narrow + "\n[sweep]\nstart_ev = -1e-3\nstop_ev = 1e-3\npoints = 5\n"}))
    # the plasmon and a lossless cavity 1e-5 above their exceptional point, beside a 2 neV
    # emitter line that the grid meets: the spectral bound fails, so the cavity sweep takes
    # the LU path in three blocks, while the bare sweep of yield stays spectral
    near_ep = _edited(BUILTIN_CONFIGS["fig2"], [
        ("g1_mev = -2.9", "g1_mev = 12.500125"), ("G_mev = -7.2", "G_mev = 0"),
        ("J_uev = -144", "J_uev = 0"), ("gamma_o_ev = 0.2", "gamma_o_ev = 0.05"),
        ("gamma_1r_mev = 2.45", "gamma_1r_mev = 0"), ("gamma_s_uev = 3", "gamma_s_uev = 0.001"),
        ("gamma_m_uev = 83", "gamma_m_uev = 0.001"), ("q_factor = 1e5", "q_factor = 1e30"),
        ("delta_1e_ev = 0.0", "delta_1e_ev = 0.1"), ("delta_ce_ev = 0.0", "delta_ce_ev = 0.1"),
        ("drive = emitter", "drive = plasmon")])
    # the same pair at its exceptional point: the eigenbasis is defective, so evolve
    # propagates by one (4096, 3, 3) matrix exponential
    found.append(("evolve_near_ep", ["evolve", "--config", "ep.ini"],
                  {"ep.ini": _edited(near_ep, [("g1_mev = 12.500125", "g1_mev = 12.5")])}))
    near_ep += "\n[sweep]\nstart_ev = -0.01\nstop_ev = 0.01\npoints = 20001\n"
    for command in ("spectrum", "yield"):
        found.append((f"{command}_lu_grid20001", [command, "--config", "near_ep.ini"],
                      {"near_ep.ini": near_ep}))
    # G and g1 projected by a tilt outside calibrated mode
    tilted = _edited(BUILTIN_CONFIGS["fig2"],
                     [("mode = paper_exact", "mode = paper_exact\ntheta_deg = 30")])
    found.append(("spectrum_theta30", ["spectrum", "--config", "tilted.ini"],
                  {"tilted.ini": tilted}))
    # fig3's untilted ellipsoid with every coupling derived from the geometry: no quench sum
    ellipsoid = _edited(BUILTIN_CONFIGS["fig3"], [
        ("mode = calibrated", "mode = first_principles"), ("theta_deg = 60.0\n", ""),
        ("two_g_eff_mev = 3.5\n", ""), ("kappa2_mev = 0.11\n", "")])
    for command in ("validate", "spectrum"):
        found.append((f"{command}_first_principles_ellipsoid", [command, "--config", "fpe.ini"],
                      {"fpe.ini": ellipsoid}))
    # a missing required key, an empty map axis and a missing paper_exact key: the validator's
    # messages and their order
    problems = _edited(BUILTIN_CONFIGS["fig2"], [("distance_nm = 10.0\n", ""),
                                                 ("G_mev = -7.2\n", "")])
    found.append(("error_three_problems", ["validate", "--config", "problems.ini"],
                  {"problems.ini": problems + "\n[sweep]\nd_min_nm = 40\n"}))
    # a configured detuning range over three blocks and two points
    span = BUILTIN_CONFIGS["fig2"] + "\n[sweep]\nstart_ev = -0.01\nstop_ev = 0.01\n"
    span += "points = 24578\n"
    found.append(("spectrum_start_stop_grid24578", ["spectrum", "--config", "span.ini"],
                  {"span.ini": span}))
    for name in sorted(workloads.GENERATORS):
        for seed in BENCH_SEEDS:
            workload = workloads.generate(name, seed)
            for command in workload.commands:
                found.append((f"bench_{name}_s{seed}_{command.id}", list(command.argv),
                              workload.files))
    return found


def run(src, argv, files, work):
    """(exit code, stdout, stderr, {table file: bytes}) of one cold child run in `work`."""
    work.mkdir(parents=True)
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")
    env = dict(BASE_ENV, PYTHONPATH=str(Path(src).resolve()))
    proc = subprocess.run([sys.executable, "-m", "plasmonsim", *argv, "--out", "out"],
                          cwd=work, env=env, capture_output=True, text=True)
    out = work / "out"
    tables = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return proc.returncode, proc.stdout, proc.stderr, tables


def _parse(name, data):
    """(metadata lines, columns, rows) of a CSV or JSON table file."""
    text = data.decode("utf-8")
    if name.endswith(".json"):
        payload = json.loads(text)
        meta = [f"{k} = {v!r}" for k, v in payload.items() if k not in ("columns", "rows")]
        return meta, payload["columns"], [[repr(c) for c in row] for row in payload["rows"]]
    lines = text.splitlines()
    meta = [line for line in lines if line.startswith("#")]
    body = list(csv.reader(io.StringIO("\n".join(lines[len(meta):]))))
    return meta, body[0] if body else [], body[1:]


def _csv_cells(data):
    """Data cells of a CSV table file, counted without parsing its rows."""
    start = 0
    while data.startswith(b"#", start):
        start = data.index(b"\n", start) + 1
    columns = data[start:data.find(b"\n", start)].count(b",") + 1
    return columns * (data.count(b"\n", start) - 1)


def diff_tables(name, old, new):
    """(lines naming every difference, cells compared, differing cells per column) of two files."""
    if old == new and name.endswith(".csv"):  # nothing differs: a million-row table is not parsed
        return [], _csv_cells(new), Counter()
    old_meta, old_cols, old_rows = _parse(name, old)
    new_meta, new_cols, new_rows = _parse(name, new)
    lines = [f"{name}: metadata {a!r} -> {b!r}"
             for a, b in zip(old_meta, new_meta) if a != b]
    if len(old_meta) != len(new_meta):
        lines.append(f"{name}: {len(old_meta)} -> {len(new_meta)} metadata lines")
    if old_cols != new_cols:
        lines.append(f"{name}: columns {old_cols} -> {new_cols}")
    if len(old_rows) != len(new_rows):
        lines.append(f"{name}: {len(old_rows)} -> {len(new_rows)} rows")
    cells, columns = 0, Counter()
    for i, (a, b) in enumerate(zip(old_rows, new_rows)):
        cells += len(b)
        for j, (x, y) in enumerate(zip(a, b)):
            if x != y:
                column = new_cols[j] if j < len(new_cols) else str(j)
                lines.append(f"{name}: row {i} {column}: {x} -> {y}")
                columns[column] += 1
    return lines, cells, columns


def compare(old_src, new_src, selected, work):
    """Print every difference of the selected cases; return the number of differences."""
    differences = cells = files = 0
    per_column = Counter()
    for case_id, argv, inputs in selected:
        old = run(old_src, argv, inputs, work / "old" / case_id)
        new = run(new_src, argv, inputs, work / "new" / case_id)
        found = [f"{what}: {a!r} -> {b!r}" for what, a, b in
                 zip(("exit code", "stdout", "stderr"), old[:3], new[:3]) if a != b]
        for name in sorted(set(old[3]) | set(new[3])):
            if name not in old[3] or name not in new[3]:
                found.append(f"{name}: written by {'new' if name in new[3] else 'old'} only")
                continue
            files += 1
            lines, n, columns = diff_tables(name, old[3][name], new[3][name])
            if not lines and old[3][name] != new[3][name]:
                lines = [f"{name}: bytes differ, cells equal"]
            cells += n
            found += lines
            per_column.update({(case_id, name, c): k for c, k in columns.items()})
        shown = " ".join(argv)
        shown = shown if len(shown) <= 200 else f"{shown[:200]}... ({len(argv)} arguments)"
        print(f"{case_id} ({shown}): {len(found)} differences", flush=True)
        for line in found:
            print(f"  {line}")
        differences += len(found)
    print(f"\n{len(selected)} invocations, {files} table files, {cells} data cells: "
          f"{differences} differences")
    for (case_id, name, column), k in sorted(per_column.items()):
        print(f"  {case_id} {name} {column}: {k} cells")
    return differences


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--only", action="append", default=None, metavar="ID",
                        help="run only this case (repeatable)")
    args = parser.parse_args(argv)
    every = cases()
    selected = [c for c in every if args.only is None or c[0] in args.only]
    unknown = set(args.only or ()) - {c[0] for c in every}
    if unknown:
        parser.error(f"unknown case ids: {', '.join(sorted(unknown))}")
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        return 1 if compare(args.old_src, args.new_src, selected, Path(tmp)) else 0


if __name__ == "__main__":
    sys.exit(main())
