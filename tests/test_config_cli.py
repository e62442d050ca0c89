import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from plasmonsim import __version__, cli
from plasmonsim import dynamics as dyn
from plasmonsim.cli import main
from plasmonsim.config import (BUILTIN_CONFIGS, MAX_POINTS, SCHEMA, parse_config,
                               parse_config_text)
from plasmonsim.errors import ConfigError
from plasmonsim.results import (CELL_FORMATS, CHUNK_CELLS, ResultTable, _csv_block,
                                _float_fields, scenario_metadata)


def read_metadata(text):
    """Parse the '#' metadata block of an emitted CSV back into a dict.

    Values are restored with float() when they parse as numbers, so the
    round trip through repr is exact.
    """
    meta = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            break
        body = line[1:].strip()
        if "=" not in body:
            continue
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        try:
            as_float = float(value)
        except ValueError:
            meta[key] = value
            continue
        if value.lstrip("+-").isdigit():
            meta[key] = int(value)
        else:
            meta[key] = as_float
    return meta


# ---------------------------------------------------------------------------
# config parsing and validation
# ---------------------------------------------------------------------------

def test_builtin_fig2_matches_quoted_set():
    parsed = parse_config("fig2")
    s = parsed.scenario
    assert s["g1_ev"] == pytest.approx(-2.9e-3)
    assert s["G_ev"] == pytest.approx(-7.2e-3)
    assert s["J_ev"] == pytest.approx(-144e-6)
    assert s["gamma_s_ev"] == pytest.approx(3e-6)
    assert s["gamma_m_ev"] == pytest.approx(83e-6)
    assert s["gamma_1r_ev"] == pytest.approx(2.45e-3)
    assert s["delta_0_ev"] == pytest.approx(58e-6, rel=1e-9)
    assert s.provenance["G_ev"] == "paper_exact"


def test_unit_conversion_is_exact():
    # a float multiply is not exact: -7.2 * 1e-3 != -7.2e-3 and 2.45 * 1e-3 != 2.45e-3
    s = parse_config("fig2").scenario
    assert s["G_ev"] == -7.2e-3
    assert s["gamma_1r_ev"] == 2.45e-3
    assert s["delta_0_ev"] == dyn.fano_detuning(-144e-6, -2.9e-3, -7.2e-3)
    calibration = parse_config("fig3").scenario.calibration
    assert calibration["two_g_eff_target_ev"] == 3.5e-3
    assert calibration["kappa_2_target_ev"] == 0.11e-3


def test_empty_config_lists_all_required_sections():
    with pytest.raises(ConfigError) as err:
        parse_config_text("", origin="empty.ini")
    message = str(err.value)
    for section in ("metal", "environment", "particle", "emitter", "cavity", "couplings"):
        assert f"[{section}]" in message


def test_unknown_key_suggests_close_match():
    text = BUILTIN_CONFIGS["fig2"].replace("q_factor = 1e5", "qfactor = 1e5")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert "qfactor" in str(err.value)
    assert "q_factor" in str(err.value)


def test_unknown_section_rejected():
    text = BUILTIN_CONFIGS["fig2"] + "\n[pump]\npower = 1\n"
    with pytest.raises(ConfigError, match=r"unknown section \[pump\]"):
        parse_config_text(text)


def test_missing_keys_reported_together():
    text = BUILTIN_CONFIGS["fig2"].replace("vc_um3 = 1.0\n", "").replace(
        "distance_nm = 10.0\n", "")
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert "vc_um3" in str(err.value)
    assert "distance_nm" in str(err.value)


def test_non_finite_value_rejected():
    text = BUILTIN_CONFIGS["fig2"].replace("vc_um3 = 1.0", "vc_um3 = inf")
    with pytest.raises(ConfigError, match="not finite"):
        parse_config_text(text)


def test_invalid_value_is_not_also_reported_missing():
    text = (BUILTIN_CONFIGS["fig3"].replace("theta_deg = 60.0", "theta_deg = 120")
            .replace("a1_nm = 33.0", "a1_nm = -33").replace("distance_nm = 5.0", "distance_nm = 0"))
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    message = str(err.value)
    assert "theta_deg = '120' must be from 0 to 90" in message
    assert "a1_nm = '-33' must be > 0" in message
    assert "distance_nm = '0' must be > 0" in message
    assert "missing" not in message


def test_paper_exact_requires_overrides():
    text = BUILTIN_CONFIGS["fig2"].replace("G_mev = -7.2\n", "")
    with pytest.raises(ConfigError, match="G_mev"):
        parse_config_text(text)


def test_parse_error_reports_line():
    with pytest.raises(ConfigError, match="line"):
        parse_config_text("[metal\neps_inf = 1\n", origin="broken.ini")


def test_first_principles_sphere_resolution():
    text = BUILTIN_CONFIGS["fig2"].replace(
        "mode = paper_exact", "mode = first_principles")
    for key in ("g1_mev", "G_mev", "J_uev", "gamma_m_uev", "gamma_s_uev", "gamma_1r_mev"):
        lines = [l for l in text.splitlines() if not l.startswith(key)]
        text = "\n".join(lines)
    parsed = parse_config_text(text, name="fp")
    s = parsed.scenario
    assert s["g1_ev"] == pytest.approx(-2.9e-3, rel=0.02)
    assert s["J_ev"] == pytest.approx(-144e-6, rel=0.02)
    # tangential emitter: transverse dipole-dipole geometry, half magnitude
    assert s["G_ev"] == pytest.approx(-0.5 * 7.2e-3, rel=0.02)
    assert s["gamma_m_ev"] == pytest.approx(83e-6, rel=1e-9)


#: builtin fig3's tilted ellipsoid with every coupling derived from the geometry, untilted
FIRST_PRINCIPLES_ELLIPSOID = (
    BUILTIN_CONFIGS["fig3"].replace("mode = calibrated", "mode = first_principles")
    .replace("theta_deg = 60.0\n", "").replace("two_g_eff_mev = 3.5\n", "")
    .replace("kappa2_mev = 0.11\n", ""))


def test_first_principles_ellipsoid_has_no_quench_rate():
    s = parse_config_text(FIRST_PRINCIPLES_ELLIPSOID, name="fp_ellipsoid").scenario
    assert s["gamma_m_ev"] == 0.0
    assert s.notes == ("gamma_m = 0: multipole quenching sum is defined for spheres only",)
    assert s.provenance == {**dict.fromkeys(s.params, "first_principles"), "delta_0_ev": "derived",
                            "gamma_m_ev": "derived"}


@pytest.mark.parametrize("text", [BUILTIN_CONFIGS["fig2"], FIRST_PRINCIPLES_ELLIPSOID],
                         ids=["paper_exact", "first_principles"])
def test_theta_deg_projects_and_tags_the_couplings_outside_calibrated_mode(text):
    # G cos(theta) and g1 sin(theta) of the untilted resolve; a projected coupling is neither the
    # quoted nor the computed value, so it is tagged derived, like Delta_0 that follows from it
    plain = parse_config_text(text, name="s").scenario
    tilted = parse_config_text(text.replace("[couplings]\n", "[couplings]\ntheta_deg = 30\n"),
                               name="s").scenario
    theta = math.radians(30.0)
    assert tilted["G_ev"] == plain["G_ev"] * math.cos(theta)
    assert tilted["g1_ev"] == plain["g1_ev"] * math.sin(theta)
    changed = {"G_ev", "g1_ev", "delta_0_ev", "theta_deg"}
    assert {k: v for k, v in tilted.params.items() if k not in changed} == {
        k: v for k, v in plain.params.items() if k not in changed}
    assert tilted.provenance == {**plain.provenance, "theta_deg": "first_principles",
                                 "G_ev": "derived", "g1_ev": "derived"}


#: the six coupling and rate keys of [couplings] at the paper's values, and the parameters
#: they set
PAPER_COUPLINGS = {"g1_mev": "-2.9", "G_mev": "-7.2", "J_uev": "-144", "gamma_m_uev": "83",
                   "gamma_s_uev": "3", "gamma_1r_mev": "2.45"}
COUPLING_PARAMS = ("g1_ev", "G_ev", "J_ev", "gamma_m_ev", "gamma_s_ev", "gamma_1r_ev")
RESOLVE_MATRIX = [(mode, shape, theta, explicit)
                  for mode in ("paper_exact", "first_principles", "calibrated")
                  for shape in ("sphere", "ellipsoid") for theta in (False, True)
                  for explicit in (False, True)]


def _matrix_config(mode, shape, theta, explicit):
    """fig2's sphere or fig3's ellipsoid with a [couplings] section of the given mode. `explicit`
    says whether G_mev is given: paper_exact otherwise gives all six keys; theta tilts by 30
    degrees outside calibrated mode and by 60 in it."""
    base = BUILTIN_CONFIGS["fig2" if shape == "sphere" else "fig3"].split("[couplings]")[0]
    keys = dict(PAPER_COUPLINGS) if mode == "paper_exact" else {"G_mev": "-7.2"}
    if not explicit:
        del keys["G_mev"]
    if theta:
        keys["theta_deg"] = "60" if mode == "calibrated" else "30"
    lines = [f"mode = {mode}"] + [f"{key} = {value}" for key, value in keys.items()]
    return base + "[couplings]\n" + "\n".join(lines) + "\n\n[run]\ndrive = emitter\n"


def _matrix_problems(mode, shape, theta, explicit):
    """The validator's problem lines for one combination of the matrix, in order."""
    problems = []
    if mode == "paper_exact" and not explicit:
        problems.append("missing required key 'G_mev' in [couplings] (mode = paper_exact)")
    if mode == "calibrated":
        if not theta:
            problems.append("missing required key 'theta_deg' in [couplings] (mode = calibrated)")
        if explicit:
            problems.append("[couplings] G_mev is not allowed with mode = calibrated: "
                            "the couplings and rates are fitted or derived")
        if shape == "sphere":
            problems.append("mode = calibrated applies to the tilted-ellipsoid geometry")
    return problems


def _matrix_tags(params, mode, shape, theta, explicit):
    """Each parameter's provenance as the README states it: inputs and computed values
    first_principles, quoted values paper_exact, fitted couplings and the anchored sphere quench
    rate calibrated, and a value that follows from others or stands in for one derived."""
    tags = dict.fromkeys(params, "first_principles")
    if mode == "paper_exact":
        tags.update(dict.fromkeys(COUPLING_PARAMS, "paper_exact"))
    elif mode == "calibrated":
        tags.update(dict.fromkeys(("g1_ev", "G_ev", "J_ev", "gamma_m_ev"), "calibrated"))
    else:
        tags["gamma_m_ev"] = "calibrated" if shape == "sphere" else "derived"
        if explicit:
            tags["G_ev"] = "paper_exact"
    tags["delta_0_ev"] = "derived"
    if theta and mode != "calibrated":
        tags["G_ev"] = tags["g1_ev"] = "derived"
    return tags


@pytest.mark.parametrize("mode, shape, theta, explicit", RESOLVE_MATRIX,
                         ids=["-".join((m, s, "theta" if t else "flat", "G" if e else "noG"))
                              for m, s, t, e in RESOLVE_MATRIX])
def test_resolve_matrix_tags_and_derives_every_parameter(mode, shape, theta, explicit):
    # every mode x shape x tilt x explicit G: an invalid combination is rejected with exactly its
    # problems, a valid one carries the README's tag on each parameter and the derived values
    text = _matrix_config(mode, shape, theta, explicit)
    problems = _matrix_problems(mode, shape, theta, explicit)
    if problems:
        with pytest.raises(ConfigError) as err:
            parse_config_text(text, origin="matrix.ini")
        assert str(err.value) == "invalid configuration matrix.ini:\n  " + "\n  ".join(problems)
        return
    s = parse_config_text(text, name="matrix").scenario
    shapes = {"sphere": {"radius_nm"}, "ellipsoid": {"a1_nm", "a2_nm", "a3_nm", "axis"}}
    optional = {"theta_deg", *shapes["sphere"], *shapes["ellipsoid"]}
    assert set(s.params) & optional == shapes[shape] | ({"theta_deg"} if theta else set())
    assert {*COUPLING_PARAMS, "delta_0_ev"} <= set(s.params)
    assert s.provenance == _matrix_tags(s.params, mode, shape, theta, explicit)
    assert s["delta_0_ev"] == pytest.approx(-s["J_ev"] * s["g1_ev"] / s["G_ev"], rel=1e-15)
    if mode == "calibrated":
        return  # the fit sets |G| and |g1| on the tilted geometry: nothing is projected
    flat = parse_config_text(_matrix_config(mode, shape, False, explicit), name="m").scenario
    cos, sin = ((math.cos(math.radians(30.0)), math.sin(math.radians(30.0))) if theta
                else (1.0, 1.0))
    assert s["G_ev"] == pytest.approx(flat["G_ev"] * cos, rel=1e-15)
    assert s["g1_ev"] == pytest.approx(flat["g1_ev"] * sin, rel=1e-15)
    if explicit:
        assert flat["G_ev"] == -7.2e-3
    assert {k: s[k] for k in COUPLING_PARAMS if k not in ("G_ev", "g1_ev")} == {
        k: flat[k] for k in COUPLING_PARAMS if k not in ("G_ev", "g1_ev")}


def test_calibrated_mode_requires_ellipsoid():
    text = BUILTIN_CONFIGS["fig2"].replace("mode = paper_exact", "mode = calibrated")
    for key in ("g1_mev", "G_mev", "J_uev", "gamma_m_uev", "gamma_s_uev", "gamma_1r_mev"):
        text = "\n".join(l for l in text.splitlines() if not l.startswith(key))
    with pytest.raises(ConfigError, match="ellipsoid"):
        parse_config_text(text)


def test_readme_annotated_config_parses_to_builtin_fig2():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert "# high-frequency permittivity" in block  # the inline comments are kept
    scenario = parse_config_text(block, name="fig2").scenario
    builtin = parse_config("fig2").scenario
    assert scenario.params == builtin.params
    assert scenario.provenance == builtin.provenance


def test_builtin_fig3_calibrated():
    parsed = parse_config("fig3")
    s = parsed.scenario
    assert s["J_ev"] == 0.0
    assert abs(s["G_ev"]) == pytest.approx(32.2e-3, rel=0.02)
    assert abs(s["g1_ev"]) == pytest.approx(33.7e-3, rel=0.02)
    assert s.provenance["G_ev"] == "calibrated"


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------

def format_cell(value):
    """One data cell as the CSV writer must print it: the oracle of its per-column templates."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".9g")
    return str(value)


def _table(columns, rows, metadata=None):
    """The table of the given row tuples, built column by column."""
    return ResultTable.from_arrays("t", columns, list(zip(*rows)), metadata)


@pytest.fixture(scope="module")
def csv_text(tmp_path_factory):
    """A function giving the CSV text that table.write puts in a file."""
    path = str(tmp_path_factory.mktemp("csv") / "t.csv")

    def read(table):
        with open(table.write(path), encoding="utf-8", newline="") as fh:
            return fh.read()
    return read


def _csv_by_cell(rows):
    """Oracle: the data rows serialized cell by cell with format_cell."""
    return "".join(",".join(format_cell(v) for v in row) + "\n" for row in rows)


def test_csv_format_nine_significant_digits(csv_text):
    table = _table(("a", "b"), [(1.0 / 3.0, 2), (1.23456789012e-7, 3)])
    lines = csv_text(table).strip().splitlines()
    assert lines[-2].split(",")[0] == "0.333333333"
    assert lines[-1].split(",")[0] == "1.23456789e-07"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=True, allow_infinity=True),
                          st.floats(allow_nan=True, allow_infinity=True, width=32)),
                min_size=1, max_size=20))
def test_csv_rows_match_format_cell_on_floats(csv_text, rows):
    table = _table(("a", "b"), rows)
    assert csv_text(table).endswith("\na,b\n" + _csv_by_cell(rows))


def test_csv_rows_match_format_cell_on_every_cell_type(csv_text):
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308,
                1.0 / 3.0, 123456789.5, 1e16, 0.1]
    rows = [
        (x, str(x), i, bool(i % 2), np.float64(x), np.float32(i / 3), np.int64(i), np.bool_(i % 2))
        for i, x in enumerate(specials)
    ]
    rows.append((1.0, "text", 2, True, 3.0, 4.0, 5, False))
    table = _table(tuple("abcdefgh"), rows)
    assert csv_text(table).endswith("\na,b,c,d,e,f,g,h\n" + _csv_by_cell(rows))


def test_written_csv_spanning_many_row_blocks(csv_text):
    # the file is written a block of cells at a time; column c mixes fixed
    # and exponent notation, d and e are formatted by their templates
    rows = [(i / 7.0, i * 1e-9, (-1) ** i * 10.0 ** (i % 25 - 12) * (1 + i / 9001), i, f"s{i}")
            for i in range(9001)]
    table = _table(("a", "b", "c", "d", "e"), rows, {"k": 1.5})
    text = csv_text(table)
    assert "\n# k = 1.5\na,b,c,d,e\n" in text
    assert text.endswith("\na,b,c,d,e\n" + _csv_by_cell(rows))


def _assert_written_as_format_cell(csv_text, *columns):
    """Each written data line equals the row printed cell by cell with format_cell."""
    names = tuple(f"c{i}" for i in range(len(columns)))
    lines = csv_text(ResultTable.from_arrays("t", names, columns)).splitlines()
    lines = lines[len(lines) - len(columns[0]):]
    expected = [",".join(format_cell(v) for v in row) for row in zip(*columns)]
    wrong = [(got, want) for got, want in zip(lines, expected) if got != want]
    assert wrong == [], wrong[:5]


def test_csv_floats_match_format_cell_on_random_bit_patterns(csv_text):
    rng = np.random.default_rng(15)
    special = [0, 1 << 63, 1, 0x000FFFFFFFFFFFFF, 0x8000000000000001, 0x0010000000000000,
               0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
               0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8000000000123, 0xFFFFFFFFFFFFFFFF]
    bits = np.concatenate([rng.integers(0, 2**64, 100_000, dtype=np.uint64),
                           np.array(special, dtype=np.uint64)])
    values = bits.view(np.float64)
    assert np.isnan(values).any() and (values == 0).any() and np.isinf(values).any()
    assert ((values != 0) & (np.abs(values) < np.finfo(np.float64).tiny)).any()
    _assert_written_as_format_cell(csv_text, values)
    # float32 cells print their exact double value
    single = rng.integers(0, 2**32, 20_000, dtype=np.uint32).view(np.float32)
    _assert_written_as_format_cell(csv_text, single, np.array(single.tolist()))


def test_csv_floats_match_format_cell_at_powers_of_ten_and_ties(csv_text):
    powers = np.array([10.0 ** k if k > -300 else float(f"1e{k}") for k in range(-324, 309)])
    _assert_written_as_format_cell(csv_text, powers, powers * (1 - 1e-12), powers * (1 + 1e-12))
    rng = np.random.default_rng(16)
    m = rng.integers(10**8, 10**9, 20_000)
    e = rng.integers(-300, 300, 20_000).astype(np.float64)
    _assert_written_as_format_cell(
        csv_text, (m + 0.5) * 10.0**e, -(m + 0.5) * 10.0 ** (e % 20 - 10))
    # ties and near-ties where rounding carries into a tenth digit
    carry = np.array([float(f"9.999999995e{k}") for k in range(-300, 300)])
    _assert_written_as_format_cell(
        csv_text, np.nextafter(carry, 0.0), carry, np.nextafter(carry, np.inf))


OPTQ_COLUMNS = ("d_nm", "q_opt", "value", "objective", "boundary")


@pytest.mark.parametrize("blocks, extra", [(1, -1), (1, 0), (1, 1), (3, 2)])
def test_csv_written_across_block_boundaries(tmp_path, blocks, extra):
    # optq's kinds (float, str, bool) with nan, inf and -0.0 cells, in tables of a whole
    # number of row blocks, one row short of one, one row over one, and over three, against
    # a cell-by-cell oracle
    rows = blocks * (CHUNK_CELLS // len(OPTQ_COLUMNS)) + extra
    rng = np.random.default_rng(rows)
    special = np.resize([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324], rows)
    columns = (rng.uniform(1.0, 40.0, rows), special,
               rng.standard_normal(rows) * 10.0 ** rng.integers(-12, 12, rows),
               np.where(rng.random(rows) < 0.5, "yield", "power"), rng.random(rows) < 0.3)
    table = ResultTable.from_arrays("optq", OPTQ_COLUMNS, columns)
    kinds = [a.dtype.kind for a in columns]
    expected = b"".join(
        b",".join(b"%.9g" % v if k == "f" else (CELL_FORMATS[k] % v).encode()
                  for k, v in zip(kinds, row)) + b"\n"
        for row in zip(*(a.tolist() for a in columns)))
    written = Path(table.write(str(tmp_path / "optq.csv"))).read_bytes()
    assert written.endswith(b"\n" + ",".join(OPTQ_COLUMNS).encode() + b"\n" + expected)


def test_csv_writer_memory_stays_near_one_block(tmp_path):
    # the writer formats CHUNK_CELLS = 8192 cells at a time, about 87 B of temporaries per
    # cell, the chunk's line buffer included (0.71 MB; 0.84 MB when this write builds the
    # lookup tables); formatting the whole 100,000 x 7 table at once would take over 100 MB
    rng = np.random.default_rng(17)
    columns = [rng.standard_normal(100_000) * 10.0 ** rng.integers(-8, 12, 100_000)
               for _ in range(7)]
    table = ResultTable.from_arrays("t", tuple("abcdefg"), columns)
    tracemalloc.start()
    try:
        table.write(str(tmp_path / "t.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2e6


def _json_oracle(table):
    """json.dumps(indent=1) of the whole table at once, as the writer printed it before."""
    return json.dumps({"tool": f"plasmonsim {__version__}", "table": table.name,
                       "metadata": {k: table.metadata[k] for k in sorted(table.metadata)},
                       "columns": list(table.columns), "rows": table.rows.tolist()},
                      indent=1) + "\n"


@pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 2)])
def test_json_written_across_block_boundaries(tmp_path, blocks, extra):
    # optq's kinds (float, str, bool) with nan, inf and -0.0 cells, in an empty table, a
    # one-row table and tables around chunk boundaries, against one json.dumps
    rows = blocks * (CHUNK_CELLS // len(OPTQ_COLUMNS)) + extra
    rng = np.random.default_rng(rows)
    special = np.resize([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324], rows)
    columns = (rng.uniform(1.0, 40.0, rows), special,
               rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows),
               np.where(rng.random(rows) < 0.5, "yield", "power"), rng.random(rows) < 0.3)
    table = ResultTable.from_arrays("optq", OPTQ_COLUMNS, columns, {"k": 1.5, "s": "[]"})
    written = Path(table.write(str(tmp_path / "optq.json"), "json")).read_text()
    assert written == _json_oracle(table)


def _two_block_table():
    """Rows of 7 float64 columns, and their table of two 8,192-row blocks."""
    rows = np.random.default_rng(7).standard_normal((2 * 8192, 7)).view(
        [(c, float) for c in "abcdefg"])[:, 0]
    return rows, ResultTable("t", rows.dtype, lambda: iter((rows[:8192], rows[8192:])), {})


def test_each_block_is_cut_into_equal_chunks(monkeypatch):
    # two 8,192-row blocks of 7 columns: 7 chunks each, of 1,171 or 1,170 rows; chunks of
    # CHUNK_CELLS // 7 = 1,170 rows left a 2-row eighth in each block
    rows, table = _two_block_table()
    assert [len(chunk) for chunk in table._chunks()] == 2 * ([1171] * 2 + [1170] * 5)
    calls = []
    monkeypatch.setattr("plasmonsim.results._csv_block",
                        lambda chunk: calls.append(len(chunk)) or _csv_block(chunk))
    text = b"".join(table._csv_chunks())
    assert len(calls) == 14 and text.endswith(b"\na,b,c,d,e,f,g\n" + _csv_block(rows))


def test_only_all_float64_chunks_go_through_the_float_formatter(monkeypatch):
    # optq's kinds (float, str, bool) are printed row by row by their %-template; the
    # two-block float table above is formatted by one _float_fields call per chunk
    calls = []
    monkeypatch.setattr("plasmonsim.results._float_fields",
                        lambda x, *out: calls.append(len(x)) or _float_fields(x, *out))
    mixed = ResultTable.from_arrays("optq", OPTQ_COLUMNS, ([5.0, 6.0], [1e4, 2e4], [0.5, 0.25],
                                                         ["yield", "power"], [True, False]))
    assert b"".join(mixed._csv_chunks()).endswith(b"\n5,10000,0.5,yield,1\n6,20000,0.25,power,0\n")
    assert calls == []
    packed = _two_block_table()[1]
    b"".join(packed._csv_chunks())
    assert calls == [7 * len(chunk) for chunk in packed._chunks()] and len(calls) == 14


def test_json_skips_empty_blocks():
    # a table of one-row, empty and many-row blocks reads as the table of their rows
    rows = ResultTable.from_arrays("t", ("a", "b"), ([1.0, -0.0, 3.0], [np.nan, 2.0, 1e300])).rows
    table = ResultTable("t", rows.dtype, lambda: iter((rows[:1], rows[:0], rows[1:], rows[:0])), {})
    assert b"".join(table._json_chunks()).decode() == _json_oracle(table)


def test_json_writer_memory_stays_near_one_block(tmp_path):
    # the JSON writer encodes CHUNK_CELLS = 8192 cells at a time through json's C encoder;
    # json.dumps(indent=1) of the whole 100,000 x 7 table peaked at over 100 MB
    rng = np.random.default_rng(17)
    columns = [rng.standard_normal(100_000) * 10.0 ** rng.integers(-8, 12, 100_000)
               for _ in range(7)]
    table = ResultTable.from_arrays("t", tuple("abcdefg"), columns)
    table.write(str(tmp_path / "warm.json"), "json")
    tracemalloc.start()
    try:
        table.write(str(tmp_path / "t.json"), "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_metadata_round_trip_exact(csv_text):
    parsed = parse_config("fig2")
    meta = scenario_metadata(parsed.scenario)
    table = _table(("x",), [(1.0,)], meta)
    recovered = read_metadata(csv_text(table))
    for key, value in parsed.scenario.params.items():
        assert recovered[f"param.{key}"] == value, key
    for key, value in parsed.scenario.provenance.items():
        assert recovered[f"provenance.{key}"] == value, key


def test_row_width_checked():
    for arrays in (([1.0],), ([1.0], [2.0], [3.0]), ([1.0], [2.0, 3.0])):
        with pytest.raises(ConfigError):
            ResultTable.from_arrays("t", ("a", "b"), arrays)


# ---------------------------------------------------------------------------
# CLI subcommands
# ---------------------------------------------------------------------------

def test_cli_fig2_writes_tables_with_delta0(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["fig2", "--out", str(out)]) == 0
    y = out / "fig2_yield.csv"
    p = out / "fig2_power.csv"
    assert y.exists() and p.exists()
    meta = read_metadata(y.read_text())
    assert meta["param.delta_0_ev"] == pytest.approx(5.8e-5, rel=1e-9)
    assert meta["provenance.G_ev"] == "paper_exact"


def test_cli_fig1c_columns(tmp_path):
    out = tmp_path / "o"
    assert main(["fig1c", "--out", str(out), "--grid", "101"]) == 0
    text = (out / "fig1c.csv").read_text()
    header = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header == "detuning_ev,phi_rad_cavity,phi_rad_bare,phi_abs_cavity,phi_abs_bare"


def test_cli_eigen_sweep_row_count(tmp_path):
    out = tmp_path / "o"
    assert main(["eigen", "--config", "fig4", "--sweep", "-10e-3:10e-3:2e-3",
                 "--out", str(out)]) == 0
    rows = [l for l in (out / "eigen.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) == 1 + 11  # header + 11 sweep points


def test_cli_eigen_sweep_never_passes_its_stop(tmp_path):
    # 0.02 / 0.003 is 6.67 steps: the last row is 0.008, short of the stop, and not 0.011
    out = tmp_path / "o"
    assert main(["eigen", "--sweep=-0.01:0.01:0.003", "--out", str(out)]) == 0
    rows = [l for l in (out / "eigen.csv").read_text().splitlines() if not l.startswith("#")]
    assert len(rows) == 1 + 7
    assert rows[-1].split(",")[0] == "0.008"


@pytest.mark.parametrize("argv, rows", [
    (["fig1c"], {"fig1c": 2001}),
    (["fig2"], {"fig2_yield": 401, "fig2_power": 401}),
    (["fig3"], {"fig3_traces": 4096, "fig3_spectrum": 2001}),
    (["fig4"], {"fig4_branches": 11, "fig4_spectra": 11 * 801}),
    (["evolve", "--config", "fig3"], {"evolve": 4096}),
], ids=["fig1c", "fig2", "fig3", "fig4", "evolve"])
def test_cli_default_grid_row_counts(tmp_path, argv, rows):
    """Without --grid each command writes the point counts of its one stated default."""
    assert main(argv + ["--out", str(tmp_path)]) == 0
    for name, count in rows.items():
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert len([l for l in lines if not l.startswith("#")]) == 1 + count, name


def test_cli_validate_runs_nothing(tmp_path, capsys):
    assert main(["validate", "--config", "fig2", "--out", str(tmp_path / "x")]) == 0
    captured = capsys.readouterr()
    assert "OK" in captured.out
    assert "g1_ev" in captured.out
    assert not (tmp_path / "x").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[metal]\nunknown_thing = 1\n")
    code = main(["spectrum", "--config", str(bad), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("ERROR[config]:")


def test_cli_leaves_no_object_frozen_on_any_exit(tmp_path, capsys):
    # main keeps what import built out of the command's collections (gc.freeze) and hands
    # it back on every way out: a table written, a config error, and argparse's SystemExit
    runs = (["fig1c", "--grid", "3", "--out", str(tmp_path)], ["spectrum", "--out", str(tmp_path)])
    assert [main(argv) for argv in runs] == [0, 1] and gc.get_freeze_count() == 0
    with pytest.raises(SystemExit):
        main(["fig1c", "--help"])
    assert gc.get_freeze_count() == 0
    capsys.readouterr()


def test_cli_missing_config_is_config_error(tmp_path, capsys):
    code = main(["spectrum", "--out", str(tmp_path)])
    assert code == 1
    assert "ERROR[config]:" in capsys.readouterr().err


def test_cli_numerical_error_exit_code(tmp_path, capsys):
    # unreachable calibration target: kappa_2 above every bare linewidth
    text = BUILTIN_CONFIGS["fig3"].replace("kappa2_mev = 0.11", "kappa2_mev = 10.0")
    cfg = tmp_path / "cal.ini"
    cfg.write_text(text)
    code = main(["spectrum", "--config", str(cfg), "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("ERROR[numeric]:")


MAP_SWEEP = "\n[sweep]\nd_points = 5\nq_points = 5\n"
#: the builtin fig1c's plasmon radiative width raised to the largest double
WIDTH_OVERFLOW = ("gamma_1r_mev = 2.45", "gamma_1r_mev = 1.7976931348623157e308")
OVER = MAX_POINTS + 1

#: probe -> (argv, config text, an (old, new) edit or a list of them, or None[, builtin
#: edited instead of fig2]); each must exit 1 with ERROR[config]
BOUNDARY_PROBES = {
    "grid_zero": (["fig1c", "--grid", "0"], None),
    "spectrum_grid_negative": (["spectrum", "--config", "fig2", "--grid", "-3"], None),
    "map_grid_negative": (["map", "--grid", "-3"], None),
    "sweep_points_zero": (["spectrum"], "\n[sweep]\npoints = 0\n"),
    "sweep_points_fractional": (["spectrum"], "\n[sweep]\npoints = 2.7\n"),
    "map_d_points_zero": (["map"], "\n[sweep]\nd_points = 0\n"),
    "evolve_t_points_zero": (["evolve"], "\n[sweep]\nt_points = 0\n"),
    "q_factor_zero": (["spectrum"], ("q_factor = 1e5", "q_factor = 0")),
    "vc_negative": (["spectrum"], ("vc_um3 = 1.0", "vc_um3 = -1")),
    "map_d_min_zero": (["map"], MAP_SWEEP + "d_min_nm = 0\n"),
    "map_q_min_negative": (["map"], MAP_SWEEP + "q_min = -5\n"),
    "map_d_min_above_max": (["map"], MAP_SWEEP + "d_min_nm = 40\n"),
    "map_q_min_equals_max": (["map"], MAP_SWEEP + "q_min = 1e7\n"),
    "optq_distance_zero": (["optq", "--d-nm", "0"], None),
    "optq_distance_negative": (["optq", "--d-nm", "-2"], None),
    "axis_four": (["spectrum"], ("a3_nm = 5.5", "a3_nm = 5.5\naxis = 4"), "fig3"),
    "axis_zero": (["spectrum"], ("a3_nm = 5.5", "a3_nm = 5.5\naxis = 0"), "fig3"),
    "axis_negative": (["spectrum"], ("a3_nm = 5.5", "a3_nm = 5.5\naxis = -1"), "fig3"),
    "evolve_t_span_zero": (["evolve"], "\n[sweep]\nt_span_fs = 0\n"),
    "evolve_t_span_negative": (["evolve"], "\n[sweep]\nt_span_fs = -5000\n"),
    "calibrated_without_theta": (["spectrum"], ("theta_deg = 60.0\n", ""), "fig3"),
    "calibrated_explicit_G": (["spectrum"], ("theta_deg = 60.0", "theta_deg = 60.0\nG_mev = -1.0"),
                              "fig3"),
    "calibrated_explicit_gamma_m": (["evolve"], ("theta_deg = 60.0",
                                                 "theta_deg = 60.0\ngamma_m_uev = 5"), "fig4"),
    "distance_zero": (["spectrum"], ("distance_nm = 10.0", "distance_nm = 0")),
    "distance_negative": (["spectrum"], ("distance_nm = 10.0", "distance_nm = -3")),
    "radius_zero": (["spectrum"], ("radius_nm = 10.0", "radius_nm = 0")),
    "a1_negative": (["spectrum"], ("a1_nm = 33.0", "a1_nm = -33"), "fig3"),
    "mu_e_zero": (["spectrum"], ("mu_e_nm = 1.0", "mu_e_nm = 0")),
    "orientation_unknown": (["spectrum"], ("orientation = tangential", "orientation = diagonal")),
    # an emitter so near the sphere that the multipole quench sum has not converged by
    # couplings.QUENCH_L_MAX, at each entry point of the distance law
    "distance_quench_unconverged": (["validate"], ("distance_nm = 10.0", "distance_nm = 0.05"),
                                    "fig2_first_principles"),
    "map_d_min_quench_unconverged": (["map"], MAP_SWEEP + "d_min_nm = 0.05\n"),
    "optq_distance_quench_unconverged": (["optq", "--d-nm", "0.05"], None),
    # an emitter so far out that its quench sum underflows below the smallest normal float
    "optq_distance_quench_underflow": (["optq", "--d-nm", "1e41"], None),
    "omega_p_zero": (["spectrum"], ("omega_p_ev = 4.0", "omega_p_ev = 0")),
    # values outside a physical range, and detunings that put the cavity at omega_c <= 0
    "eps_inf_below_one": (["spectrum"], ("eps_inf = 1.0", "eps_inf = 0.5")),
    "eps_b_below_one": (["spectrum"], ("eps_b = 1.0", "eps_b = 0.5")),
    "theta_over_90": (["spectrum"], ("theta_deg = 60.0", "theta_deg = 120.0"), "fig3"),
    "gamma_o_negative": (["spectrum"], ("gamma_o_ev = 0.2", "gamma_o_ev = -0.2")),
    "gamma_s_negative": (["spectrum"], ("gamma_s_uev = 3", "gamma_s_uev = -3")),
    "gamma_m_negative": (["spectrum"], ("gamma_m_uev = 83", "gamma_m_uev = -83")),
    "gamma_1r_negative": (["spectrum"], ("gamma_1r_mev = 2.45", "gamma_1r_mev = -2.45")),
    "delta_ce_cavity_below_zero": (["spectrum"], ("delta_ce_ev = 0.0", "delta_ce_ev = -5.0")),
    "eigen_sweep_cavity_below_zero": (["eigen", "--sweep", "-3:3:1"], None),
    "fig4_sweep_cavity_below_zero": (["fig4", "--sweep", "-3:3:1"], None),
    "sweep_nan_start": (["fig4", "--sweep", "nan:1:0.1"], None),
    "sweep_inf_stop": (["fig4", "--sweep", "0:inf:1"], None),
    "sweep_minus_inf_start": (["eigen", "--sweep", "-inf:0:1"], None),
    "sweep_nan_step": (["eigen", "--sweep", "0:1:nan"], None),
    # point counts above MAX_POINTS, rejected before any array is built
    "sweep_count_over_max": (["eigen", "--sweep", "0:1:1e-12"], None),
    "sweep_count_overflows": (["eigen", "--sweep", "-1e308:1e308:1e-300"], None),
    "grid_over_max": (["fig1c", "--grid", str(OVER)], None),
    "spectrum_grid_over_max": (["spectrum", "--config", "fig2", "--grid", str(OVER)], None),
    "map_grid_cells_over_max": (["map", "--grid", "1001"], None),
    "fig4_spectra_over_max": (["fig4", "--sweep", "0:1:1e-3", "--grid", "1000"], None),
    "sweep_points_over_max": (["spectrum"], f"\n[sweep]\npoints = {OVER}\n"),
    "evolve_t_points_over_max": (["evolve"], f"\n[sweep]\nt_points = {OVER}\n"),
    "map_d_points_over_max": (["map"], f"\n[sweep]\nd_points = {OVER}\nq_points = 1\n"),
    "map_q_points_over_max": (["map"], f"\n[sweep]\nd_points = 1\nq_points = {OVER}\n"),
    "map_cells_over_max": (["map"], "\n[sweep]\nd_points = 1001\nq_points = 1000\n"),
    # [sweep] keys nothing reads, or half of a spectral range
    "sweep_step_ev_unknown": (["spectrum"], "\n[sweep]\nstep_ev = 1.0\n"),
    "sweep_start_without_stop": (["spectrum"], "\n[sweep]\nstart_ev = 0.5\n"),
    "sweep_stop_without_start": (["yield"], "\n[sweep]\nstop_ev = 0.5\n"),
    # a --grid the command would ignore
    "eigen_grid_ignored": (["eigen", "--grid", "5"], None),
    "optq_grid_ignored": (["optq", "--grid", "5"], None),
    "validate_grid_ignored": (["validate", "--config", "fig2", "--grid", "5"], None),
    "map_config_grid_ignored": (["map", "--grid", "5"], MAP_SWEEP),
    # calibration targets that no coupling can reach
    "two_g_eff_zero": (["spectrum"], ("two_g_eff_mev = 3.5", "two_g_eff_mev = 0"), "fig3"),
    "kappa2_negative": (["spectrum"], ("kappa2_mev = 0.11", "kappa2_mev = -0.11"), "fig3"),
    # a calibrated emitter whose point-dipole coupling estimate is 0: underflow, or no projection
    "calibrated_distance_estimate_underflow": (
        ["spectrum"], ("distance_nm = 5.0", "distance_nm = 1e200"), "fig3"),
    "calibrated_theta_zero": (["spectrum"], ("theta_deg = 60.0", "theta_deg = 0"), "fig3"),
    # an emitter so far out that its near-field coupling and quench terms overflow to 0
    "distance_far_no_overflow_warning": (["yield"], ("distance_nm = 10.0", "distance_nm = 1e300"),
                                         "fig2_first_principles"),
    # radiative widths beyond floating-point range
    "mu_e_width_overflow": (["spectrum"], ("mu_e_nm = 1.0", "mu_e_nm = 1e300"), "fig3"),
    "omega_p_width_underflow": (["validate"], ("omega_p_ev = 4.0", "omega_p_ev = 5e-324"),
                                "fig2_first_principles"),
    "eps_b_width_underflow": (["validate"], ("eps_b = 1.0", "eps_b = 1e300"),
                              "fig2_first_principles"),
    # a cavity width omega_c / Q beyond range: eigen's swept cavity overflowed with a warning
    "q_factor_width_overflow": (["eigen"], ("q_factor = 1e5", "q_factor = 5e-324"), "fig1c"),
    # a detuning range whose width, or whose np.linspace steps, overflow
    "sweep_range_overflow": (["spectrum", "--grid", "9"],
                             "\n[sweep]\nstart_ev = -1.7976931348623157e308\nstop_ev = 1e300\n"),
    "sweep_range_steps_overflow": (
        ["spectrum", "--grid", "7"],
        "\n[sweep]\nstart_ev = 1.7976931348623157e308\nstop_ev = -5e-324\n", "fig3"),
    # a time span whose natural-unit value, t / hbar, overflows
    "evolve_t_span_beyond_range": (["evolve", "--grid", "9"],
                                   "\n[sweep]\nt_span_fs = 1.7976931348623157e308\n"),
    # an ellipsoid semi-axis whose square underflows: R_D(x, y, 0) divided by zero
    "ellipsoid_axis_square_underflow": (["validate"], ("a3_nm = 5.5", "a3_nm = 1e-300"), "fig4"),
    # a metal damping of the largest double overflowed the Drude denominator with a warning
    "gamma_o_max_no_overflow_warning": (
        ["validate"], ("gamma_o_ev = 0.2", "gamma_o_ev = 1.7976931348623157e308"),
        "fig2_first_principles"),
}

#: inputs the model cannot compute (a calibration that cannot meet its targets, a value
#: beyond floating-point range): each must exit 2 with ERROR[numeric]
NUMERIC_PROBES = {
    # the plasmon resonant with the emitter, or so broad that Re s underflows: the Newton
    # seed's s = 1 / (delta_1e - i gamma_1 / 2) has no real part
    "calibrated_plasmon_on_resonance": (["spectrum"], ("delta_1e_ev = 0.6", "delta_1e_ev = 0"),
                                        "fig3"),
    "calibrated_gamma_o_huge": (["evolve"], ("gamma_o_ev = 0.2", "gamma_o_ev = 1e300"), "fig4"),
    # a plasmon width of 1.8e308 meV: the LU path's bound ||M||_F ||M^-1||_F overflows
    "width_overflow_spectrum": (["spectrum"], WIDTH_OVERFLOW, "fig1c"),
    "width_overflow_yield": (["yield"], WIDTH_OVERFLOW, "fig1c"),
    # splittings whose square overflows the anti-crossing's cooperativity
    "eigen_cooperativity_overflow": (["eigen"], ("g1_mev = -2.9", "g1_mev = -1e300"), "fig1c"),
    "eigen_cooperativity_overflow_fig2": (
        ["eigen"], [("G_mev = -7.2", "G_mev = -1e300"), ("q_factor = 1e5", "q_factor = 1")]),
    # a cavity width of 1e30 eV: the eigensolver's error at ||H|| gives a growing branch
    "evolve_growing_branch": (["evolve", "--grid", "7"], [
        ("q_factor = 1e5", "q_factor = 1e-30"), ("gamma_o_ev = 0.2", "gamma_o_ev = 0.5")],
        "fig2_first_principles"),
    # calibration targets beyond floating-point range: the iterate's norm, or the
    # residuals, overflow
    "calibrated_two_g_max": (
        ["validate"], ("two_g_eff_mev = 3.5", "two_g_eff_mev = 1.7976931348623157e308"), "fig4"),
    "calibrated_two_g_tiny": (["validate"], ("two_g_eff_mev = 3.5", "two_g_eff_mev = 1e-300"),
                              "fig3"),
    # a Newton step under the smallest normal kappa_2: its Jacobian row / kappa_2 overflows
    "calibrated_kappa2_tiny": (["yield", "--grid", "7"], [
        ("kappa2_mev = 0.11", "kappa2_mev = 2.2250738585072014e-308"),
        ("two_g_eff_mev = 3.5", "two_g_eff_mev = 1"), ("theta_deg = 60.0", "theta_deg = 0")],
        "fig4"),
    # an emitter of subnormal width: ten lifetimes, the default time span, overflow
    "evolve_default_span_overflow": (["evolve", "--grid", "13"], [
        ("gamma_m_uev = 83", "gamma_m_uev = -0"),
        ("gamma_s_uev = 3", "gamma_s_uev = 2.2250738585072014e-308")], "fig1c"),
    # a map Q axis from the smallest double: its cavity width omega_c / Q overflows
    "map_q_min_width_overflow": (["map"], MAP_SWEEP + "q_min = 5e-324\n"),
    # couplings whose product J g1 in Delta_0 = -J g1 / G overflows
    "fano_detuning_overflow": (["spectrum", "--grid", "8"], [
        ("g1_mev = -2.9", "g1_mev = -1.7976931348623157e308"),
        ("J_uev = -144", "J_uev = -1.7976931348623157e308")]),
}
#: probe -> what its ERROR[numeric] message must say
NUMERIC_MESSAGES = {
    "width_overflow_spectrum": "condition bound inf > 1e+13); the bound overflows",
    "width_overflow_yield": "condition bound inf > 1e+13); the bound overflows",
    "eigen_cooperativity_overflow": "2 g_eff = 1e+297 eV overflows the cooperativity",
    "evolve_growing_branch": "time evolution overflows: max Im lambda = 3.96e+13 eV",
    "fano_detuning_overflow": "delta_0 must be finite, got inf",
    "map_q_min_width_overflow": "gamma_c must be finite, got array(",
    "calibrated_two_g_max": "target 2 g_eff = 1.8e+305 eV is beyond what a double can square",
    "evolve_default_span_overflow": "no branch decays within floating-point range",
}


@pytest.mark.parametrize("probe", sorted(BOUNDARY_PROBES) + sorted(NUMERIC_PROBES))
def test_cli_rejects_bad_input_at_boundary(probe, tmp_path, capsys):
    numeric = probe in NUMERIC_PROBES
    argv, config, *base = (NUMERIC_PROBES if numeric else BOUNDARY_PROBES)[probe]
    if config is not None:
        text = BUILTIN_CONFIGS[base[0] if base else "fig2"]
        if isinstance(config, str):
            text += config
        else:
            for old, new in [config] if isinstance(config, tuple) else config:
                assert old in text
                text = text.replace(old, new)
        path = tmp_path / "probe.ini"
        path.write_text(text)
        argv = argv + ["--config", str(path)]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--out", str(out)])
    assert code == (2 if numeric else 1)
    err = capsys.readouterr().err
    assert err.startswith("ERROR[numeric]:" if numeric else "ERROR[config]:")
    assert err.count("ERROR[") == 1
    assert NUMERIC_MESSAGES.get(probe, "") in err
    assert not out.exists()


#: values at and beyond the edges of a double, set into config keys by the fuzz property
EXTREMES = ("0", "-0", "1", "-1", "1e-300", "-1e-300", "5e-324", "-5e-324",
            "2.2250738585072014e-308", "1e300", "-1e300", "1.7976931348623157e308",
            "-1.7976931348623157e308", "nan", "inf")
SCHEMA_KEYS = [(section, key) for section, keys in SCHEMA.items() for key in keys]


def _in_range(builtin):
    """{(section, key): values} of every float key of SCHEMA that builtin sets or defaults to a
    nonzero value: that value times 10**k, k in [-3, 3], held inside the key's schema range."""
    sections = {}
    for line in BUILTIN_CONFIGS[builtin].splitlines():
        if line.startswith("["):
            section = sections.setdefault(line.strip("[]"), {})
        elif " = " in line and not line.startswith("#"):
            key, _, value = line.partition(" = ")
            section[key] = value
    found = {}
    for (section, key), (kind, default, choices) in ((k, SCHEMA[k[0]][k[1]]) for k in SCHEMA_KEYS):
        value = sections.get(section, {}).get(key, default)
        if kind not in ("float", "positive") or value is None or float(value) == 0:
            continue  # a zero times 10**k is the builtin itself
        low, high = choices or (-math.inf, math.inf)
        found[section, key] = tuple(repr(min(max(float(value) * 10.0**k, low), high))
                                    for k in range(-3, 4))
    return found


#: builtin -> (section, key) -> in-range values of the fuzz property
IN_RANGE = {builtin: _in_range(builtin) for builtin in BUILTIN_CONFIGS}
#: subcommand -> argv of its fuzzed run of FUZZ_EXAMPLES examples: a steady-state or time grid
#: of at most 16 points, eigen over 3 detunings, or validate
FUZZ_ARGV = {
    **{command: st.integers(1, 16).map(lambda n, command=command: [command, "--grid", str(n)])
       for command in ("spectrum", "yield", "evolve")},
    "eigen": st.just(["eigen", "--sweep", "-1e-3:1e-3:1e-3"]),
    "validate": st.just(["validate"])}
#: examples of each subcommand's run: every subcommand gets the same share
FUZZ_EXAMPLES = 30


@st.composite
def fuzz_configs(draw):
    """(builtin, {(section, key): value}) of 1-3 schema keys: half the examples set any keys
    to EXTREMES, the other half keys that the builtin has a nonzero float for to IN_RANGE."""
    extreme = draw(st.booleans())
    builtin = draw(st.sampled_from(sorted(BUILTIN_CONFIGS)))
    keys = SCHEMA_KEYS if extreme else sorted(IN_RANGE[builtin])
    values = {}
    for key in draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True)):
        values[key] = draw(st.sampled_from(EXTREMES if extreme else IN_RANGE[builtin][key]))
    return builtin, values


def _with_values(text, values):
    """Config text with each (section, key) set to its value: the key's line replaced, or the
    key added at the top of its section, or the section appended."""
    for (section, key), value in values.items():
        line = re.compile(rf"^{key} = .*$", re.M)
        if line.search(text):
            text = line.sub(f"{key} = {value}", text)
        elif f"[{section}]\n" in text:
            text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
        else:
            text += f"\n[{section}]\n{key} = {value}\n"
    return text


#: tables that each table-writing subcommand must write with exit 0 over the fuzz examples
FUZZ_MIN_TABLES = 5


def test_cli_fuzz_exits_with_a_prefixed_error_or_finite_tables():
    """A builtin config with 1-3 schema keys at extreme values or scaled inside their range:
    the CLI exits 0, 1 or 2; escapes no exception; prints no warning and, on error, one
    prefixed message; and every cell of a table written with exit 0 is finite and physical.

    Each subcommand runs for its own FUZZ_EXAMPLES examples, seeded by its name: one
    derandomized seed would give every run the same configs.  The physics checks read
    only tables written with exit 0, so each table-writing subcommand must write at least
    FUZZ_MIN_TABLES of them.
    """
    tables = dict.fromkeys(("spectrum", "yield", "evolve", "eigen"), 0)
    for command in FUZZ_ARGV:
        seed(command)(_fuzz_cli)(tables, command)
    assert all(n >= FUZZ_MIN_TABLES for n in tables.values()), tables


@settings(max_examples=FUZZ_EXAMPLES, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def _fuzz_cli(tables, command, data):
    """One fuzz example of command; adds each table it writes with exit 0 to tables[command]."""
    argv = data.draw(FUZZ_ARGV[command])
    builtin, values = data.draw(fuzz_configs())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ini"
        path.write_text(_with_values(BUILTIN_CONFIGS[builtin], values))
        out = Path(tmp) / "out"
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(argv + ["--config", str(path), "--out", str(out)])
        assert [str(w.message) for w in caught] == []  # each would be an unprefixed stderr line
        assert code in (0, 1, 2)
        assert err.getvalue().startswith(("", "ERROR[config]: ", "ERROR[numeric]: ")[code])
        assert (err.getvalue() == "") == (code == 0)
        for table in out.glob("*.csv") if code == 0 else ():
            tables[command] += 1
            lines = [line for line in table.read_text().splitlines() if not line.startswith("#")]
            cells = np.array([line.split(",") for line in lines[1:]], dtype=float)
            assert np.isfinite(cells).all(), table.name
            _assert_physical(table.name, dict(zip(lines[0].split(","), cells.T)))


def _rounding(*cells):
    """The most by which a sum of the cells can be off once each is printed to 9 significant
    digits and read back: half a unit in each one's ninth digit, and the sum's own rounding."""
    size = sum(np.abs(c) for c in cells)
    return 5e-9 * size + 4 * np.spacing(size)


def _assert_physical(name, col):
    """A fuzzed table's physics: yields in [0, 1]; Ohmic, port and population cells >= 0 (the
    vacuum cross term can be negative); the radiated total the sum of its two ports; the
    total population never rising; every branch decaying."""
    for c, values in col.items():
        if c.startswith("yield_"):
            assert ((values >= 0) & (values <= 1)).all(), (name, c)
        if c.startswith(("phi_ohmic_", "pop_")) or c == "phi_rad_cavity_port":
            assert (values >= 0).all(), (name, c)
        if re.fullmatch(r"branch\d+_im_ev", c):
            assert (values <= 0).all(), (name, c)
    if "phi_rad_total" in col:
        total, vacuum, port = col["phi_rad_total"], col["phi_rad_vacuum"], col["phi_rad_cavity_port"]
        assert (np.abs(total - vacuum - port) <= _rounding(total, vacuum, port)).all(), name
    if "pop_total" in col:
        total = col["pop_total"]
        assert (np.diff(total) <= _rounding(total[1:], total[:-1])).all(), name


def test_evolve_with_an_overflowing_width_writes_a_finite_table(tmp_path, capsys):
    # a plasmon of width 1.8e308 meV decays within the first step; propagating it
    # overflowed the exponent t * Im(lambda) and printed numpy RuntimeWarnings
    text = BUILTIN_CONFIGS["fig1c"].replace("gamma_1r_mev = 2.45",
                                            "gamma_1r_mev = 1.7976931348623157e308")
    assert "e308" in text
    path = tmp_path / "probe.ini"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["evolve", "--config", str(path), "--grid", "7", "--out", str(tmp_path)])
    assert code == 0 and capsys.readouterr().err == ""
    lines = (tmp_path / "evolve.csv").read_text().splitlines()
    values = np.array([line.split(",") for line in lines if not line.startswith("#")][1:], float)
    assert values.shape == (7, 5) and np.isfinite(values).all()
    assert np.all(values[1:, 1] == 0.0) and np.all(np.diff(values[:, 3]) < 0)


def test_spectrum_with_an_overflowing_width_product_writes_a_finite_cross_term(tmp_path, capsys):
    # sqrt(gamma_1r gamma_s) overflowed to inf while the interference underflowed to 0, so
    # phi_rad_vacuum_cross was nan in every row, after an unprefixed numpy RuntimeWarning
    text = BUILTIN_CONFIGS["fig2"]
    for old, new in (("gamma_o_ev = 0.2", "gamma_o_ev = 1e300"),
                     ("gamma_1r_mev = 2.45", "gamma_1r_mev = 1e303"),
                     ("gamma_s_uev = 3", "gamma_s_uev = 1e306"),
                     ("gamma_m_uev = 83", "gamma_m_uev = 1e306"),
                     ("q_factor = 1e5", "q_factor = 1e-300")):
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "probe.ini"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["spectrum", "--config", str(path), "--grid", "5", "--out", str(tmp_path)])
    assert code == 0 and capsys.readouterr().err == ""
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    values = np.array([line.split(",") for line in lines if not line.startswith("#")][1:], float)
    assert values.shape == (5, 7) and np.isfinite(values).all()


#: argv of which the parser of one subcommand must print what the parser of all prints
PARSER_RUNS = {"help": ["--help"], "map_help": ["map", "--help"], "unknown": ["nosuch"],
               "none": [], "option_first": ["--out", "x", "map"],
               "map_extra_word": ["map", "extra"], "optq_bad_choice": ["optq", "--objective", "x"],
               "fig4_sweep_help": ["fig4", "--sweep", "-1:1:1", "-h"]}


@pytest.mark.parametrize("run", sorted(PARSER_RUNS))
def test_one_subcommand_parser_prints_what_the_full_parser_prints(run, capsys):
    argv = PARSER_RUNS[run]

    def outcome(parse):
        with pytest.raises(SystemExit) as exit_info:
            parse(argv)
        return exit_info.value.code, *capsys.readouterr()

    full = cli.build_parser([])
    assert outcome(main) == outcome(lambda a: full.parse_args(cli._merge_sweep_values(a)))


def test_a_named_subcommand_builds_only_its_own_parser(capsys):
    with pytest.raises(SystemExit):
        cli.build_parser(["map"]).parse_args(["fig1c"])
    assert "invalid choice: 'fig1c' (choose from 'map')" in capsys.readouterr().err


def _subprocess_env():
    """The environment of a plasmonsim child process that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH"))
        if p)
    return env


#: emitters whose quench sum the distance law sums but whose terms R^(2l+1) overflowed a
#: float in the old per-order form: config edits of builtin fig2_first_principles
#: (None: no --config), and the table written (None: validate)
NEAR_SURFACE_RUNS = {
    "resolver_r10_d0.3": (["validate"], [("distance_nm = 10.0", "distance_nm = 0.3")], None),
    "resolver_r30_d1": (["validate"], [("radius_nm = 10.0", "radius_nm = 30.0"),
                                       ("distance_nm = 10.0", "distance_nm = 1.0")], None),
    "map_d_min_0.3": (["map"], [("name = fig2_first_principles\n",
                                 "name = near" + MAP_SWEEP + "d_min_nm = 0.3\n")], "map"),
    "optq_d0.3": (["optq", "--d-nm", "0.3"], None, "optq"),
}


@pytest.mark.parametrize("probe", sorted(NEAR_SURFACE_RUNS))
def test_near_surface_emitter_runs(probe, tmp_path, capsys):
    argv, edits, table = NEAR_SURFACE_RUNS[probe]
    if edits is not None:
        text = BUILTIN_CONFIGS["fig2_first_principles"]
        for old, new in edits:
            text = text.replace(old, new)
        path = tmp_path / "near.ini"
        path.write_text(text)
        argv = argv + ["--config", str(path)]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if table is None:
        gamma_m = float(captured.out.split("gamma_m_ev = ", 1)[1].split()[0])
        assert math.isfinite(gamma_m) and gamma_m > 83e-6
    else:
        cells = [line.split(",") for line in (out / f"{table}.csv").read_text().splitlines()
                 if not line.startswith("#")][1:]
        assert all(math.isfinite(float(cells[i][2])) for i in range(len(cells)))


def test_closed_stdout_exits_quietly(tmp_path):
    """A reader that closed its end of the pipe gets exit 1 and no traceback."""
    env = _subprocess_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "plasmonsim", "validate", "--config", "fig4"],
            cwd=tmp_path, env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
            timeout=120)
    finally:
        os.close(write_end)
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert proc.returncode == 1


LARGE_SPHERE_NOTE = "sphere radius 40.0 nm exceeds the quasi-static validity limit of 30.0 nm"


def test_large_sphere_validity_is_a_note_not_a_warning(tmp_path, capsys):
    cfg = tmp_path / "r40.ini"
    cfg.write_text(BUILTIN_CONFIGS["fig2"].replace("radius_nm = 10.0", "radius_nm = 40.0"))
    proc = subprocess.run(
        [sys.executable, "-m", "plasmonsim", "spectrum", "--config", str(cfg), "--grid", "11",
         "--out", str(tmp_path / "o")],
        cwd=tmp_path, env=_subprocess_env(), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    meta = read_metadata((tmp_path / "o" / "spectrum.csv").read_text())
    assert meta["note.0"] == LARGE_SPHERE_NOTE
    assert main(["validate", "--config", str(cfg)]) == 0
    assert f"  note: {LARGE_SPHERE_NOTE}\n" in capsys.readouterr().out


def test_eigen_writes_the_fig4_branch_table(tmp_path):
    """eigen --config fig4 and fig4 share one branch-table builder and the default sweep."""
    out = tmp_path / "o"
    assert main(["eigen", "--config", "fig4", "--out", str(out)]) == 0
    assert main(["fig4", "--grid", "11", "--out", str(out)]) == 0

    def without_name(table):
        lines = (out / f"{table}.csv").read_text().splitlines()
        assert lines.count(f"# table = {table}") == 1
        return [line for line in lines if line != f"# table = {table}"]

    assert without_name("eigen") == without_name("fig4_branches")


def test_cli_json_format(tmp_path):
    out = tmp_path / "o"
    assert main(["fig1c", "--out", str(out), "--grid", "11", "--format", "json"]) == 0
    import json
    payload = json.loads((out / "fig1c.json").read_text())
    assert payload["columns"][0] == "detuning_ev"
    assert len(payload["rows"]) == 11


def test_cli_json_typed_columns_match_csv(tmp_path):
    """optq's objective and boundary are a JSON string and integer, and match the CSV cells."""
    out = tmp_path / "o"
    argv = ["optq", "--d-nm", "10", "--d-nm", "1e40", "--out", str(out)]
    assert main(argv) == 0
    assert main(argv + ["--format", "json"]) == 0
    import json
    payload = json.loads((out / "optq.json").read_text())
    lines = [line.split(",") for line in (out / "optq.csv").read_text().splitlines()
             if not line.startswith("#")]
    assert payload["columns"] == lines[0]
    assert [[format_cell(v) for v in row] for row in payload["rows"]] == lines[1:]
    assert [type(v) for v in payload["rows"][0]] == [float, float, float, str, int]
    assert [row[4] for row in payload["rows"]] == [0, 1]


def test_far_emitter_steady_state_does_not_overflow(tmp_path):
    """optq at D = 1e40 nm, where Delta_0 is ~7e111 eV: the steady-state guard passes quietly."""
    proc = subprocess.run(
        [sys.executable, "-m", "plasmonsim", "optq", "--d-nm", "1e40", "--out", str(tmp_path)],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "optq.csv").read_text().splitlines()[-1] == "1e+40,100,1,yield,1"


def test_near_singular_but_well_posed_system_solves(tmp_path, capsys):
    """Decoupled modes of widths 1e-8, ~1e-8 and 1 eV: kappa_2 = 1e8 at Delta = 0.

    The guard bounds the condition number, so it accepts this system, which
    |det(M)| / ||M||_F^3 = 1e-16 would call singular.
    """
    text = BUILTIN_CONFIGS["fig2"]
    for old, new in (("g1_mev = -2.9", "g1_mev = 0"), ("G_mev = -7.2", "G_mev = 0"),
                     ("J_uev = -144", "J_uev = 0"), ("gamma_o_ev = 0.2", "gamma_o_ev = 0"),
                     ("gamma_1r_mev = 2.45", "gamma_1r_mev = 1e-5"),
                     ("gamma_s_uev = 3", "gamma_s_uev = 500000"),
                     ("gamma_m_uev = 83", "gamma_m_uev = 500000"),
                     ("q_factor = 1e5", "q_factor = 2.3e8"), ("drive = emitter", "drive = plasmon")):
        text = text.replace(old, new)
    cfg = tmp_path / "narrow.ini"
    cfg.write_text(text + "\n[sweep]\nstart_ev = -1e-3\nstop_ev = 1e-3\npoints = 5\n")
    assert main(["spectrum", "--config", str(cfg), "--format", "json", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    rows = json.loads((tmp_path / "spectrum.json").read_text())["rows"]
    gamma_1r = gamma_1 = 1e-8  # gamma_o = 0
    assert rows[2][0] == 0.0
    assert rows[2][1] == pytest.approx(4.0 * gamma_1r / gamma_1**2, rel=1e-12)


def test_cli_spectrum_yield_evolve_run(tmp_path):
    out = tmp_path / "o"
    assert main(["spectrum", "--config", "fig3", "--out", str(out), "--grid", "201"]) == 0
    assert main(["yield", "--config", "fig2", "--out", str(out), "--grid", "101"]) == 0
    assert main(["evolve", "--config", "fig3", "--out", str(out), "--grid", "256"]) == 0
    for name in ("spectrum.csv", "yield.csv", "evolve.csv"):
        assert (out / name).exists()


def test_readme_lists_every_builtin_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = readme.split("`--config` accepts a file path or a builtin name (", 1)[1]
    listed = listed.split(")", 1)[0].replace("\n", " ")
    assert [name.strip(" `") for name in listed.split(",")] == sorted(BUILTIN_CONFIGS)


def test_cli_optq_and_map(tmp_path):
    out = tmp_path / "o"
    assert main(["optq", "--out", str(out), "--d-nm", "10"]) == 0
    assert main(["map", "--out", str(out), "--grid", "5"]) == 0
    map_rows = [l for l in (out / "map.csv").read_text().splitlines()
                if not l.startswith("#")]
    assert len(map_rows) == 1 + 25


def test_optq_checks_its_distance_count_before_any_work(tmp_path, capsys, monkeypatch):
    # three distances against a limit of two: refused at the boundary, no table built
    monkeypatch.setattr(cli, "MAX_POINTS", 2)
    out = tmp_path / "o"
    argv = ["optq", "--d-nm", "5", "--d-nm", "10", "--d-nm", "15", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "ERROR[config]: --d-nm asks for 3 points; at most 2 are allowed\n"
    assert not (out / "optq.csv").exists()


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def run_twice(tmp_path, argv, filenames):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    return [((out_a / f).read_bytes(), (out_b / f).read_bytes()) for f in filenames]


def test_byte_identical_across_runs(tmp_path):
    for argv, files in (
        (["fig1c", "--grid", "201"], ["fig1c.csv"]),
        (["fig2", "--grid", "51"], ["fig2_yield.csv", "fig2_power.csv"]),
        (["map", "--grid", "7"], ["map.csv"]),
        (["optq", "--d-nm", "10"], ["optq.csv"]),
    ):
        for a, b in run_twice(tmp_path / argv[0], argv, files):
            assert a == b


@pytest.mark.parametrize("argv, builtin, table", [
    (["fig2", "--grid", "11"], "fig2", "fig2_yield"),
    (["fig2", "--first-principles", "--grid", "11"], "fig2_first_principles", "fig2_power"),
    (["fig3", "--grid", "11"], "fig3", "fig3_traces"),
    (["fig4", "--grid", "11"], "fig4", "fig4_branches"),
    (["fig1c", "--grid", "11"], "fig1c", "fig1c"),
    (["map", "--grid", "3"], "fig2_first_principles", "map"),
    (["optq", "--d-nm", "10"], "fig2_first_principles", "optq"),
])
def test_figure_metadata_is_the_builtin_config(argv, builtin, table, tmp_path):
    def bits(value):  # floats compared bit for bit, signed zeros included
        return float(value).hex() if isinstance(value, (float, np.floating)) else value

    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 0
    meta = read_metadata((out / f"{table}.csv").read_text())
    params = parse_config(builtin).scenario.params
    assert meta["scenario"] == builtin
    recovered = {k[len("param."):]: v for k, v in meta.items() if k.startswith("param.")}
    assert {k: bits(v) for k, v in recovered.items()} == {k: bits(v) for k, v in params.items()}


def test_map_and_optq_metadata_name_their_axes(tmp_path):
    out = tmp_path / "o"
    assert main(["map", "--grid", "3", "--out", str(out)]) == 0
    assert main(["optq", "--objective", "power", "--d-nm", "10", "--out", str(out)]) == 0
    map_meta = read_metadata((out / "map.csv").read_text())
    optq_meta = read_metadata((out / "optq.csv").read_text())
    assert (map_meta["d_points"], map_meta["q_points"]) == (3, 3)
    assert optq_meta["objective"] == "power"
    scenario = parse_config("fig2_first_principles").scenario
    for meta in (map_meta, optq_meta):
        assert {k: v for k, v in meta.items() if k.startswith("provenance.")} == {
            f"provenance.{k}": v for k, v in scenario.provenance.items()}


def test_map_default_axes_are_the_schema_defaults(tmp_path):
    out = tmp_path / "o"
    assert main(["map", "--out", str(out)]) == 0
    rows = [l.split(",") for l in (out / "map.csv").read_text().splitlines()
            if not l.startswith("#")][1:]
    assert len(rows) == 61 * 61
    d = sorted({float(r[0]) for r in rows})
    q = sorted({float(r[1]) for r in rows})
    assert (d[0], d[-1], len(d)) == (2.0, 30.0, 61)
    assert (q[0], q[-1], len(q)) == (1e2, 1e7, 61)


def test_fig4_tables_name_their_quality_factor(tmp_path):
    out = tmp_path / "o"
    assert main(["fig4", "--grid", "11", "--out", str(out)]) == 0
    branches = read_metadata((out / "fig4_branches.csv").read_text())
    spectra = read_metadata((out / "fig4_spectra.csv").read_text())
    assert (branches["scenario"], branches["param.q_factor"]) == ("fig4", 1e3)
    assert (spectra["scenario"], spectra["param.q_factor"]) == ("fig4_q10000", 1e4)
    assert not any(key.startswith("result.maxima") for key in branches)


def test_fig3_fig4_deterministic(tmp_path):
    for a, b in run_twice(tmp_path / "f3", ["fig3", "--grid", "501"],
                          ["fig3_traces.csv", "fig3_spectrum.csv"]):
        assert a == b
    for a, b in run_twice(tmp_path / "f4", ["fig4", "--grid", "201"],
                          ["fig4_branches.csv", "fig4_spectra.csv"]):
        assert a == b
