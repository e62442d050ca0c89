import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasmonsim import dynamics as dyn
from plasmonsim.cli import main
from plasmonsim.config import BUILTIN_CONFIGS, MAX_POINTS, parse_config, parse_config_text
from plasmonsim.errors import ConfigError
from plasmonsim.results import ResultTable, read_metadata, scenario_metadata


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


def _csv_by_cell(rows):
    """Oracle: the data rows serialized cell by cell with format_cell."""
    return "".join(",".join(format_cell(v) for v in row) + "\n" for row in rows)


def test_csv_format_nine_significant_digits(tmp_path):
    table = _table(("a", "b"), [(1.0 / 3.0, 2), (1.23456789012e-7, 3)])
    text = table.to_csv()
    lines = text.strip().splitlines()
    assert lines[-2].split(",")[0] == "0.333333333"
    assert lines[-1].split(",")[0] == "1.23456789e-07"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=True, allow_infinity=True),
                          st.floats(allow_nan=True, allow_infinity=True, width=32)),
                min_size=1, max_size=20))
def test_csv_rows_match_format_cell_on_floats(rows):
    table = _table(("a", "b"), rows)
    assert table.to_csv().endswith("\na,b\n" + _csv_by_cell(rows))


def test_csv_rows_match_format_cell_on_every_cell_type():
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308,
                1.0 / 3.0, 123456789.5, 1e16, 0.1]
    rows = [
        (x, str(x), i, bool(i % 2), np.float64(x), np.float32(i / 3), np.int64(i), np.bool_(i % 2))
        for i, x in enumerate(specials)
    ]
    rows.append((1.0, "text", 2, True, 3.0, 4.0, 5, False))
    table = _table(tuple("abcdefgh"), rows)
    assert table.to_csv().endswith("\na,b,c,d,e,f,g,h\n" + _csv_by_cell(rows))


def test_written_csv_spanning_many_row_blocks(tmp_path):
    # the file is written a block of rows at a time
    rows = [(i / 7.0, i * 1e-9) for i in range(9001)]
    table = _table(("a", "b"), rows, {"k": 1.5})
    path = table.write(str(tmp_path / "t.csv"))
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    assert text == table.to_csv()
    assert text.endswith("\na,b\n" + _csv_by_cell(rows))


def test_metadata_round_trip_exact():
    parsed = parse_config("fig2")
    meta = scenario_metadata(parsed.scenario)
    table = _table(("x",), [(1.0,)], meta)
    recovered = read_metadata(table.to_csv())
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
OVER = MAX_POINTS + 1

#: probe -> (argv, config text or (old, new) edit or None[, builtin edited instead
#: of fig2]); each must exit 1 with ERROR[config]
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
}


@pytest.mark.parametrize("probe", sorted(BOUNDARY_PROBES))
def test_cli_rejects_bad_input_at_boundary(probe, tmp_path, capsys):
    argv, config, *base = BOUNDARY_PROBES[probe]
    if config is not None:
        text = BUILTIN_CONFIGS[base[0] if base else "fig2"]
        text = text.replace(*config) if isinstance(config, tuple) else text + config
        path = tmp_path / "probe.ini"
        path.write_text(text)
        argv = argv + ["--config", str(path)]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv + ["--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("ERROR[config]:")
    assert not out.exists()


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
