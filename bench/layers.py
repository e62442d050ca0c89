"""Per-layer metrics of a traced run, and which end-to-end metric each should move.

Every metric is computed per traced sequence and reported as the median
over the traced sequences of the run.  Counts (*_calls, *_points, *_terms,
rows_written) repeat exactly for a seed.  Times named after a call are
inclusive: they contain the calls it makes, and map cells on two threads
add up.  A per-point or per-row time, or a ratio, is 0 when its layer did no
such work on the workload.  <layer>.self_s is the layer's self time
(bench/spans.py).  trace.overhead_s is the traced minus the untraced run_s.
"""

import json
import statistics
import sys
from collections import defaultdict

from spans import TARGETS, layer_self_times

#: (name, unit, better, end-to-end metric it should move, workloads where);
#: the tracing overhead is no prediction, so it moves nothing
PER_LAYER = (
    ("quantities.require_calls", "count", "lower", "run_s", "design_map"),
    ("quantities.require_s", "s", "lower", "run_s", "design_map"),
    ("couplings.quench_calls", "count", "lower", "run_s", "design_map"),
    ("couplings.quench_s", "s", "lower", "run_s", "design_map"),
    ("couplings.quench_unique_ratio", "ratio", "higher", "run_s", "design_map"),
    ("materials.multipole_terms", "count", "lower", "run_s", "design_map"),
    ("materials.multipole_s", "s", "lower", "run_s", "design_map"),
    ("materials.depolarization_calls", "count", "lower", "run_s", "strong_coupling"),
    ("materials.depolarization_s", "s", "lower", "run_s", "strong_coupling"),
    ("network.hamiltonians_built", "count", "lower", "run_s", "design_map"),
    ("network.assemble_s", "s", "lower", "run_s", "design_map"),
    ("experiments.map_cell_calls", "count", "lower", "run_s", "design_map"),
    ("experiments.map_cell_s", "s", "lower", "run_s", "design_map"),
    ("experiments.reference_system_calls", "count", "lower", "run_s", "design_map"),
    ("experiments.calibrate_calls", "count", "lower", "run_s", "strong_coupling"),
    ("experiments.calibrate_s", "s", "lower", "run_s", "strong_coupling"),
    ("dynamics.solve_calls", "count", "lower", "run_s", "design_map spectra_io"),
    ("dynamics.solve_points", "count", "lower", "run_s", "design_map spectra_io"),
    ("dynamics.solve_s_per_point", "s/point", "lower", "run_s", "design_map spectra_io"),
    ("dynamics.propagate_points", "count", "lower", "run_s", "strong_coupling"),
    ("dynamics.expm_calls", "count", "lower", "run_s", "strong_coupling"),
    ("dynamics.propagate_s_per_point", "s/point", "lower", "run_s", "strong_coupling"),
    ("dynamics.propagate_useful_ratio", "ratio", "higher", "run_s", "strong_coupling"),
    ("dynamics.branch_points", "count", "lower", "run_s", "strong_coupling"),
    ("dynamics.branch_s_per_point", "s/point", "lower", "run_s", "strong_coupling"),
    ("config.parse_calls", "count", "lower", "run_s", "spectra_io strong_coupling"),
    ("config.parse_s", "s", "lower", "run_s", "spectra_io strong_coupling"),
    ("results.rows_written", "count", "higher", "run_s peak_rss_mb", "spectra_io"),
    ("results.bytes_written", "B", "lower", "run_s peak_rss_mb", "spectra_io"),
    ("results.write_s_per_row", "s/row", "lower", "run_s peak_rss_mb", "spectra_io"),
    ("setup.scipy_import_s", "s", "lower", "setup_s wall_s", "every workload"),
    ("setup.plasmonsim_import_s", "s", "lower", "setup_s wall_s", "every workload"),
) + tuple(
    (f"{layer}.self_s", "s", "lower", "run_s", "every workload") for layer in TARGETS
) + (
    ("trace.overhead_s", "s", "lower", None, None),
)


def load_trace(path):
    """Spans (with names), counts, tallies and missing targets of one traced child."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    names = raw["names"]
    raw["spans"] = [(sid, names[i], start, end, parent, counted)
                    for sid, i, start, end, parent, counted in raw["spans"]]
    return raw


def import_times(lines):
    """Self import time (s) of scipy and of plasmonsim from -X importtime lines."""
    totals = {"scipy": 0.0, "plasmonsim": 0.0}
    for line in lines:
        fields = line.split("|")
        if len(fields) != 3 or not fields[0].split(":")[-1].strip().isdigit():
            continue
        package = fields[2].strip().split(".")[0]
        if package in totals:
            totals[package] += int(fields[0].split(":")[-1]) * 1e-6
    return totals


def _ratio(num, den):
    return num / den if den else 0.0


def sequence_metrics(commands):
    """Per-layer metric values of one traced sequence (a list of command results)."""
    calls, inclusive = defaultdict(int), defaultdict(float)
    count_self = defaultdict(float)
    tally = defaultdict(int)
    layer_self = defaultdict(float)
    for command in commands:
        trace = command["trace"]
        for _, name, start, end, _, _ in trace["spans"]:
            calls[name] += 1
            inclusive[name] += end - start
        for name, (n, elapsed, self_s) in trace["counts"].items():
            calls[name] += n
            inclusive[name] += elapsed
            count_self[name] += self_s
        for key, value in trace["tally"].items():
            tally[key] += value
        for layer, value in layer_self_times(trace["spans"], trace["counts"]).items():
            layer_self[layer] += value

    def both(*names):
        return sum(calls[n] for n in names), sum(inclusive[n] for n in names)

    built, assemble_s = both("network.build_three_mode", "network.build_two_mode")
    table_s = both("results.ResultTable.from_arrays", "results.ResultTable.write")[1]
    values = {
        "quantities.require_calls": calls["quantities.require_finite"],
        "quantities.require_s": (count_self["quantities.require_finite"]
                                 + count_self["quantities.require_positive"]),
        "couplings.quench_calls": calls["couplings.multipole_quench_rate"],
        "couplings.quench_s": inclusive["couplings.multipole_quench_rate"],
        "couplings.quench_unique_ratio": _ratio(
            tally["quench_unique_args"], calls["couplings.multipole_quench_rate"]),
        "materials.multipole_terms": calls["materials.multipole_absorption_response"],
        "materials.multipole_s": inclusive["materials.multipole_absorption_response"],
        "materials.depolarization_calls": calls["materials.depolarization_factors"],
        "materials.depolarization_s": inclusive["materials.depolarization_factors"],
        "network.hamiltonians_built": built,
        "network.assemble_s": assemble_s,
        "experiments.map_cell_calls": calls["experiments.map_cell"],
        "experiments.map_cell_s": inclusive["experiments.map_cell"],
        "experiments.reference_system_calls": calls["experiments.reference_sphere_system"],
        "experiments.calibrate_calls": calls["experiments.calibrate_fig3_couplings"],
        "experiments.calibrate_s": inclusive["experiments.calibrate_fig3_couplings"],
        "dynamics.solve_calls": calls["dynamics._solve_amplitudes"],
        "dynamics.solve_points": tally["solve_points"],
        "dynamics.solve_s_per_point": _ratio(
            inclusive["dynamics._solve_amplitudes"], tally["solve_points"]),
        "dynamics.propagate_points": tally["propagate_points"],
        "dynamics.expm_calls": calls["dynamics.expm"],
        "dynamics.propagate_s_per_point": _ratio(
            inclusive["dynamics.evolve"], tally["propagate_points"]),
        "dynamics.propagate_useful_ratio": _ratio(
            tally["propagate_written_points"], tally["propagate_points"]),
        "dynamics.branch_points": tally["branch_points"],
        "dynamics.branch_s_per_point": _ratio(
            inclusive["dynamics.eigen_branches"], tally["branch_points"]),
        "config.parse_calls": calls["config.parse_config"],
        "config.parse_s": inclusive["config.parse_config"],
        "results.rows_written": tally["rows_written"],
        "results.bytes_written": tally["bytes_written"],
        "results.write_s_per_row": _ratio(table_s, tally["rows_written"]),
        "setup.scipy_import_s": statistics.median(c["imports"]["scipy"] for c in commands),
        "setup.plasmonsim_import_s": statistics.median(
            c["imports"]["plasmonsim"] for c in commands),
    }
    for layer in TARGETS:
        values[f"{layer}.self_s"] = layer_self[layer]
    return values


def per_layer_metrics(traced, plain):
    """Medians over traced sequences, plus the overhead against untraced ones."""
    per_sequence = [sequence_metrics(seq) for seq in traced]
    run_traced = statistics.median(sum(c["run_s"] for c in seq) for seq in traced)
    run_plain = statistics.median(sum(c["run_s"] for c in seq) for seq in plain)
    out = {}
    for name, unit, *_ in PER_LAYER:
        if name == "trace.overhead_s":
            value = run_traced - run_plain
        elif unit == "count":
            value = per_sequence[0][name]
            if any(values[name] != value for values in per_sequence):
                print(f"warning: {name} differs between traced sequences", file=sys.stderr)
        else:
            value = statistics.median(values[name] for values in per_sequence)
        out[name] = {"value": value, "unit": unit}
    return out


def missing_targets(traced):
    """Traced functions the program no longer has (their metrics read 0)."""
    return sorted({m for seq in traced for c in seq for m in c["trace"]["missing"]})
