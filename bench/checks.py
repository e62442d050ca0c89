"""Output checks behind the benchmark's failure count.

Invariants that hold for every seed: the column contract, the row count,
every numeric cell finite, per-column bounds (yields in [0, 1], powers and
populations >= 0, enhancements > 0), a non-increasing total population, and
a radiated total equal to the sum of its ports.  For the default seed the
tables are also compared with reference tables recorded at the seed commit.
"""

import json
import os

import numpy as np

from workloads import COLUMNS

#: default seed: the one whose outputs are compared with bench/reference/
DEFAULT_SEED = 0

#: relative tolerance of the reference comparison.  Cells carry 9 significant
#: digits, so a value that differs in the 12th digit can still round one unit
#: apart in the 9th; 1e-6 also admits the ~1e-12 changes an exact rewrite of
#: the numerics may make.  Each column adds an absolute floor of RTOL times
#: its largest magnitude, so decayed populations near 0 compare by scale.
RTOL = 1e-6

#: rows of each table kept in the reference file (evenly spaced, ends included)
REFERENCE_SAMPLE = 200

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def read_table(path):
    """(columns, rows as lists of strings) of a CSV written by plasmonsim."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if not line.startswith("#")]
    columns = tuple(lines[0].split(","))
    return columns, [line.split(",") for line in lines[1:]]


def numeric(columns, rows):
    """{column: float array} for every column whose cells all parse as numbers."""
    out = {}
    for i, name in enumerate(columns):
        try:
            out[name] = np.array([float(r[i]) for r in rows])
        except ValueError:
            continue
    return out


def check_table(spec, columns, rows, cols):
    """Problems (strings) of one table against its spec; empty when it passes.

    cols is numeric(columns, rows).
    """
    problems = []
    expected = COLUMNS[spec.name]
    if columns != expected:
        return [f"{spec.name}: columns {columns} != {expected}"]
    if len(rows) != spec.rows:
        problems.append(f"{spec.name}: {len(rows)} rows, expected {spec.rows}")
    if any(len(r) != len(columns) for r in rows):
        return problems + [f"{spec.name}: ragged rows"]
    for name, values in cols.items():
        if not np.all(np.isfinite(values)):
            problems.append(f"{spec.name}.{name}: non-finite cell")
    for name, (low, high) in spec.bounds.items():
        values = cols.get(name)
        if values is None:
            problems.append(f"{spec.name}.{name}: not numeric")
            continue
        if values.size and (values.min() < low or values.max() > high):
            problems.append(f"{spec.name}.{name}: range [{values.min():.9g}, "
                            f"{values.max():.9g}] outside [{low}, {high}]")
    if spec.name == "evolve" and cols:
        total = cols["pop_total"]
        if np.any(np.diff(total) > 1e-8 * total[:-1]):
            problems.append("evolve.pop_total increases")
        if abs(cols["pop_emitter"][0] - 1.0) > 1e-9:
            problems.append("evolve.pop_emitter does not start at 1")
    if spec.name == "spectrum" and cols:
        parts = cols["phi_rad_vacuum"] + cols["phi_rad_cavity_port"]
        if not np.allclose(cols["phi_rad_total"], parts, rtol=1e-7, atol=0.0):
            problems.append("spectrum.phi_rad_total != vacuum + cavity port")
    return problems


def reference_record(columns, rows):
    """Compact reference of a table: row count, |column| sums and a row sample."""
    n = len(rows)
    index = sorted(set(np.linspace(0, n - 1, min(n, REFERENCE_SAMPLE)).round().astype(int)))
    cols = numeric(columns, rows)
    return {
        "columns": list(columns),
        "rows": n,
        "abs_sum": {k: float(np.sum(np.abs(v))) for k, v in cols.items()},
        "abs_max": {k: float(np.max(np.abs(v))) for k, v in cols.items()},
        "sample": {str(i): rows[i] for i in index},
    }


def _close(value, ref, floor):
    return abs(value - ref) <= RTOL * abs(ref) + floor


def compare_reference(key, columns, rows, cols, ref):
    """Problems of one table against its reference record at RTOL."""
    if list(columns) != ref["columns"] or len(rows) != ref["rows"]:
        return [f"{key}: shape differs from reference"]
    problems = []
    for name, values in cols.items():
        if not _close(float(np.sum(np.abs(values))), ref["abs_sum"][name], 0.0):
            problems.append(f"{key}.{name}: sum |x| differs from reference")
    for i, ref_row in ref["sample"].items():
        for name, cell, ref_cell in zip(columns, rows[int(i)], ref_row):
            if name in cols:
                floor = RTOL * ref["abs_max"][name]
                if not _close(float(cell), float(ref_cell), floor):
                    problems.append(f"{key}.{name}[{i}]: {cell} vs reference {ref_cell}")
            elif cell != ref_cell:
                problems.append(f"{key}.{name}[{i}]: {cell!r} vs reference {ref_cell!r}")
    return problems[:5]


def load_reference(workload):
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_command(command, out_dir, stdout, stderr, reference=None):
    """Problems of one finished command: its tables, its printed text and stderr."""
    problems = []
    if "ERROR[" in stderr:
        problems.append(f"{command.id}: ERROR line on stderr")
    if "Warning" in stderr:
        problems.append(f"{command.id}: warning on stderr")
    if command.stdout_has and command.stdout_has not in stdout:
        problems.append(f"{command.id}: stdout lacks {command.stdout_has!r}")
    for spec in command.tables:
        path = os.path.join(out_dir, f"{spec.name}.csv")
        if not os.path.exists(path):
            problems.append(f"{command.id}: {spec.name}.csv not written")
            continue
        columns, rows = read_table(path)
        cols = numeric(columns, rows)
        problems += check_table(spec, columns, rows, cols)
        if reference is not None:
            key = f"{command.id}/{spec.name}"
            if key not in reference:
                problems.append(f"{key}: no reference table")
            else:
                problems += compare_reference(key, columns, rows, cols, reference[key])
    return problems
