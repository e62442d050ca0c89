"""Self-tests of the benchmark on tiny sizes: generator, output checks, self-time arithmetic.

    python3 -m pytest bench -q
"""

import configparser
import json
import os
import sys
import warnings

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import covered, layer_self_times, span_self_times  # noqa: E402

ROOT = os.path.dirname(BENCH)


# --- generator -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_same_seed_same_inputs(name):
    assert workloads.generate(name, 7) == workloads.generate(name, 7)
    assert workloads.generate(name, 7).files != workloads.generate(name, 8).files


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_work_per_run_is_fixed_across_seeds(name):
    shapes = {
        tuple((c.id, c.argv[0], tuple((t.name, t.rows) for t in c.tables))
              for c in workloads.generate(name, seed).commands)
        for seed in range(5)
    }
    assert len(shapes) == 1


@pytest.mark.parametrize("seed", range(5))
def test_configs_stay_in_the_valid_domain(seed):
    from plasmonsim.config import parse_config_text

    for name in workloads.GENERATORS:
        for rel, text in workloads.generate(name, seed).files.items():
            ini = configparser.ConfigParser()
            ini.read_string(text)
            assert float(ini["emitter"]["distance_nm"]) >= 2.0
            if ini["particle"]["shape"] == "sphere":
                assert float(ini["particle"]["radius_nm"]) == 10.0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                parse_config_text(text, origin=rel)


@pytest.mark.parametrize("seed", range(5))
def test_eigen_sweep_has_fixed_point_count(seed):
    from plasmonsim.cli import _parse_sweep

    eigen = next(c for c in workloads.generate("strong_coupling", seed).commands
                 if c.id == "eigen")
    sweep = _parse_sweep(eigen.argv[eigen.argv.index("--sweep") + 1])
    assert len(sweep) == workloads.EIGEN_POINTS


# --- output checks ---------------------------------------------------------

def _yield_table(n=5):
    rows = [[f"{d:.9g}", "0.5", "0.25"] for d in np.linspace(-1e-3, 1e-3, n)]
    return workloads.COLUMNS["yield"], rows


def _check(spec, columns, rows):
    return checks.check_table(spec, columns, rows, checks.numeric(columns, rows))


def test_check_table_accepts_a_valid_table():
    spec = workloads.Table("yield", 5, {"yield_cavity": workloads.UNIT})
    assert _check(spec, *_yield_table()) == []


def test_check_table_rejects_contract_and_range_violations():
    spec = workloads.Table("yield", 5, {"yield_cavity": workloads.UNIT})
    columns, rows = _yield_table()
    assert _check(spec, columns[::-1], rows)
    assert _check(spec, columns, rows[:-1])
    bad = [r[:] for r in rows]
    bad[2][1] = "1.5"
    assert _check(spec, columns, bad)
    bad[2][1] = "nan"
    assert _check(spec, columns, bad)


def test_check_table_rejects_a_growing_total_population():
    columns = workloads.COLUMNS["evolve"]
    rows = [["0", "0", "0", "1", "1"], ["1", "0", "0", "0.5", "0.5"],
            ["2", "0", "0", "0.6", "0.6"]]
    spec = workloads.Table("evolve", 3)
    assert _check(spec, columns, rows) == ["evolve.pop_total increases"]
    rows[2] = ["2", "0", "0", "0.4", "0.4"]
    assert _check(spec, columns, rows) == []


def test_reference_comparison_tolerance():
    columns, rows = _yield_table(300)
    ref = json.loads(json.dumps(checks.reference_record(columns, rows)))
    assert len(ref["sample"]) == checks.REFERENCE_SAMPLE

    def compare(table):
        return checks.compare_reference("t", columns, table, checks.numeric(columns, table), ref)

    assert compare(rows) == []
    near = [[r[0], f"{0.5 * (1 + 0.1 * checks.RTOL):.12g}", r[2]] for r in rows]
    assert compare(near) == []
    far = [[r[0], f"{0.5 * (1 + 10 * checks.RTOL):.12g}", r[2]] for r in rows]
    assert compare(far)
    assert compare(rows[:-1])


# --- span self-time arithmetic ---------------------------------------------

def test_covered_is_the_union_clipped_to_the_span():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    assert covered([(-5.0, 1.0), (9.0, 20.0)], 0.0, 10.0) == 2.0


def test_self_time_subtracts_children_and_counted_calls():
    spans = [
        # id, name, start, end, parent, counted time inside
        (1, "cli.main", 0.0, 10.0, 0, 0.0),
        (2, "experiments.enhancement_map", 1.0, 9.0, 1, 0.5),
        # two pool threads: overlapping children cover [2, 8] once
        (3, "experiments.map_cell", 2.0, 6.0, 2, 1.0),
        (4, "experiments.map_cell", 3.0, 8.0, 2, 0.0),
        (5, "dynamics.steady_state", 4.0, 5.0, 4, 0.0),
    ]
    selfs = span_self_times(spans)
    assert selfs == {1: 2.0, 2: 1.5, 3: 3.0, 4: 4.0, 5: 1.0}
    counts = {"quantities.require_finite": [100, 1.5, 1.5]}
    assert layer_self_times(spans, counts) == {
        "cli": 2.0, "experiments": 8.5, "dynamics": 1.0, "quantities": 1.5}


# --- wiring ----------------------------------------------------------------

def test_benchmark_json_matches_the_metric_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in layers.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)


def test_traced_tiny_map_counts_its_work(tmp_path):
    command = workloads.Command("map", ("map", "--grid", "3"), (workloads.Table("map", 9),))
    result = run.run_command(command, str(tmp_path), 0, traced=True)
    assert result["problems"] == []
    values = layers.sequence_metrics([result])
    assert values["experiments.map_cell_calls"] == 9
    assert values["couplings.quench_calls"] == 18
    assert values["network.hamiltonians_built"] == 18
    assert values["dynamics.solve_points"] == 18
    assert values["results.rows_written"] == 9
    assert values["dynamics.propagate_points"] == 0
    assert result["trace"]["missing"] == []
