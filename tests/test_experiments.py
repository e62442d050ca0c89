import math

import numpy as np
import pytest
from scipy.optimize import root

from plasmonsim import couplings as cpl
from plasmonsim import dynamics as dyn
from plasmonsim import experiments as exp
from plasmonsim import network as net
from plasmonsim.config import BUILTIN_CONFIGS, parse_config, parse_config_text
from plasmonsim.errors import CalibrationError, DomainError

from conftest import column, map_column, pair_metrics, spectrum_peak_separation


@pytest.fixture(scope="module")
def fig1c():
    return exp.run_fig1c(parse_config("fig1c").scenario)


@pytest.fixture(scope="module")
def design():
    """The system of the (D, Q) map and the optimal-Q search."""
    return parse_config("fig2_first_principles").scenario


@pytest.fixture(scope="module")
def fig2():
    """The fig2_yield table of builtin fig2."""
    return exp.run_fig2(parse_config("fig2").scenario)[0]


# ---------------------------------------------------------------------------
# dissipation spectra (pumped MNP)
# ---------------------------------------------------------------------------

def test_fig1c_on_resonance_ratios(fig1c):
    d = column(fig1c, "detuning_ev")
    i0 = int(np.argmin(np.abs(d)))
    assert d[i0] == 0.0
    assert column(fig1c, "phi_abs_bare")[i0] / column(fig1c, "phi_abs_cavity")[i0] >= 30.0
    assert column(fig1c, "phi_rad_cavity")[i0] / column(fig1c, "phi_rad_bare")[i0] >= 8.0


def test_fig1c_matches_closed_form_elimination(fig1c):
    """Solver output equals the explicit two-mode elimination everywhere."""
    meta = fig1c.metadata
    g1, gamma_c = meta["param.g1_ev"], meta["param.gamma_c_ev"]
    gamma_1r = meta["param.gamma_1r_ev"]
    gamma_1 = gamma_1r + meta["param.gamma_o_ev"]
    d = column(fig1c, "detuning_ev")
    a1 = (d + 0.5j * gamma_c) / ((d + 0.5j * gamma_1) * (d + 0.5j * gamma_c) - g1**2)
    c = g1 * a1 / (d + 0.5j * gamma_c)
    rad = gamma_1r * np.abs(a1) ** 2 + gamma_c * np.abs(c) ** 2
    absorbed = meta["param.gamma_o_ev"] * np.abs(a1) ** 2
    a1_bare = 1.0 / (d + 0.5j * gamma_1)
    assert np.max(np.abs(column(fig1c, "phi_rad_cavity") / rad - 1.0)) < 1e-6
    assert np.max(np.abs(column(fig1c, "phi_abs_cavity") / absorbed - 1.0)) < 1e-6
    assert np.max(np.abs(
        column(fig1c, "phi_rad_bare") / (gamma_1r * np.abs(a1_bare) ** 2) - 1.0)) < 1e-6


def test_fig1c_detuned_cavity_decouples(fig1c):
    edge = [0, -1]
    for cavity, bare in (("phi_abs_cavity", "phi_abs_bare"), ("phi_rad_cavity", "phi_rad_bare")):
        for i in edge:
            assert column(fig1c, cavity)[i] == pytest.approx(column(fig1c, bare)[i], rel=0.05)


# ---------------------------------------------------------------------------
# quantum yield spectra
# ---------------------------------------------------------------------------

def test_fig2_yield_levels(fig2):
    assert fig2.metadata["result.yield_at_delta0"] >= 0.40
    assert 0.005 <= fig2.metadata["result.bare_yield_at_delta0"] <= 0.025
    assert fig2.metadata["result.rad_enhancement_at_delta0"] >= 10.0


def test_fig2_delta0(fig2):
    assert fig2.metadata["param.delta_0_ev"] == pytest.approx(58e-6, rel=1e-9)


def test_fig2_yield_peak_near_delta0(fig2):
    d = column(fig2, "detuning_ev")
    step = d[1] - d[0]
    peak = d[int(np.argmax(column(fig2, "yield_cavity")))]
    assert abs(peak - fig2.metadata["param.delta_0_ev"]) <= step * (1.0 + 1e-9)


def test_fig2_yield_peak_at_absorption_valley(fig2):
    peak = int(np.argmax(column(fig2, "yield_cavity")))
    valley = int(np.argmin(column(fig2, "abs_plasmon_norm")))
    assert abs(peak - valley) <= 2


def test_fig2_first_principles_close_to_quoted(fig2):
    fp = exp.run_fig2(parse_config("fig2_first_principles").scenario)[0].metadata
    assert fp["provenance.g1_ev"] == "first_principles"
    assert fp["result.yield_at_delta0"] == pytest.approx(
        fig2.metadata["result.yield_at_delta0"], rel=0.10)
    assert fp["param.g1_ev"] == pytest.approx(-2.9e-3, rel=0.02)
    assert fp["param.G_ev"] == pytest.approx(-7.2e-3, rel=0.02)
    assert fp["param.J_ev"] == pytest.approx(-144e-6, rel=0.02)
    assert fp["param.gamma_m_ev"] == pytest.approx(83e-6, rel=1e-9)


def test_scenario_provenance_complete(fig2):
    meta = fig2.metadata
    for key in (k[len("param."):] for k in meta if k.startswith("param.")):
        assert f"provenance.{key}" in meta, f"no provenance for {key}"
        assert meta[f"provenance.{key}"] in (
            "first_principles", "paper_exact", "calibrated", "derived")


# ---------------------------------------------------------------------------
# enhancement map and optimal Q
# ---------------------------------------------------------------------------

def test_with_emitter_at_own_distance_is_the_resolved_scenario(design):
    at_d = exp.with_emitter_at(design, design["distance_nm"])
    for key in ("G_ev", "delta_0_ev", "gamma_m_ev"):  # at the 10 nm anchor either law gives 83 ueV
        assert at_d[key] == design[key], key
    stack = exp.with_emitter_at(design, np.array([[3.0], [10.0]]))
    assert stack["G_ev"].shape == stack["delta_0_ev"].shape == stack["gamma_m_ev"].shape == (2, 1)
    assert stack["G_ev"][1, 0] == design["G_ev"]


@pytest.mark.parametrize("builtin", ["fig2", "fig3"])
def test_with_emitter_at_needs_a_first_principles_sphere(builtin):
    with pytest.raises(DomainError, match="distance law"):
        exp.with_emitter_at(parse_config(builtin).scenario, 5.0)


def _map_cell(design, d_nm, q_factor):
    """The (yield, power) enhancement of a 1x1 map at (d_nm, q_factor)."""
    return tuple(map_column(design, d_nm, [q_factor], name)[0]
                 for name in ("yield_enhancement", "power_enhancement"))


def test_map_cell_reproducible(design):
    # a 1x1 map equals the matching cell of the full default map, bit for bit
    sweep = parse_config("fig2_first_principles").sweep
    d = np.geomspace(sweep["d_min_nm"], sweep["d_max_nm"], sweep["d_points"])
    q = np.geomspace(sweep["q_min"], sweep["q_max"], sweep["q_points"])
    rows = exp.enhancement_map(design, d, q).rows.reshape(d.size, q.size)
    for i, j in ((0, 0), (30, 17), (60, 60)):
        cell = _map_cell(design, d[i], q[j])
        assert cell == (rows["yield_enhancement"][i, j], rows["power_enhancement"][i, j])
        assert _map_cell(design, d[i], q[j]) == cell


def test_map_matches_standalone_cells(design):
    # non-square grid: a transposed broadcast cannot line up with the cells
    d = np.array([3.0, 10.0, 25.0])
    q = np.array([1e3, 1e5])
    table = exp.enhancement_map(design, d, q)
    yield_enh = column(table, "yield_enhancement").reshape(d.size, q.size)
    power_enh = column(table, "power_enhancement").reshape(d.size, q.size)
    for i, dd in enumerate(d):
        for j, qq in enumerate(q):
            assert (yield_enh[i, j], power_enh[i, j]) == _map_cell(design, dd, qq)


def test_map_interior_maximum_at_d10(design):
    q = np.geomspace(1e2, 1e7, 26)
    enh = map_column(design, 10.0, q, "yield_enhancement").tolist()
    i = int(np.argmax(enh))
    assert 0 < i < len(q) - 1
    assert not all(a <= b for a, b in zip(enh, enh[1:]))  # non-monotonic


def test_map_rejects_bad_grid(design):
    with pytest.raises(DomainError):
        exp.enhancement_map(design, np.array([10.0, 5.0]), np.array([1e3, 1e4]))


def test_optimal_q_matches_brute_force(design):
    q_grid = np.geomspace(1e2, 1e7, 41)
    values = map_column(design, 10.0, q_grid, "yield_enhancement").tolist()
    i = int(np.argmax(values))
    (q_opt,), (value,), (boundary,) = exp.optimal_Q(design, 10.0, "yield")
    assert not boundary
    assert q_grid[i - 1] <= q_opt <= q_grid[i + 1]
    assert value >= values[i] * (1.0 - 1e-6)


def _enhancements_every_cell(at_d, q_factor):
    """Oracle: the (yield, power) enhancements with the bare system solved at every (D, Q)
    cell, beside the engineered one, as the map solved it before it had one bare solve per D."""
    stack = exp.with_cavity(at_d, 0.0, np.asarray(q_factor, dtype=float))
    delta_0 = at_d["delta_0_ev"]
    _, powers = dyn.steady_state_sweep(stack.hamiltonian(), delta_0, "emitter")
    _, powers_b = dyn.steady_state_sweep(stack.hamiltonian(bare=True), delta_0, "emitter")
    return (net.yield_from_powers(powers) / net.yield_from_powers(powers_b),
            net.radiated_power(powers) / net.radiated_power(powers_b))


def test_map_equals_a_bare_solve_at_every_cell(design):
    # the default 61 x 61 map solves its bare system once per distance
    sweep = parse_config("fig2_first_principles").sweep
    d = np.geomspace(sweep["d_min_nm"], sweep["d_max_nm"], sweep["d_points"])
    q = np.geomspace(sweep["q_min"], sweep["q_max"], sweep["q_points"])
    rows = exp.enhancement_map(design, d, q).rows
    expected = _enhancements_every_cell(exp.with_emitter_at(design, d[:, None]), q[None, :])
    assert (d.size, q.size) == (61, 61)
    assert rows["yield_enhancement"].tobytes() == expected[0].tobytes()
    assert rows["power_enhancement"].tobytes() == expected[1].tobytes()


def _optimal_q_one_distance(scenario, d_nm, objective):
    """Oracle: (q_opt, value, boundary) of the golden-section search at one distance, one
    scalar probe per step, that solves the bare system at every probe."""
    at_d = exp.with_emitter_at(scenario, d_nm)
    which = 0 if objective == "yield" else 1

    def value_at(log_q):
        return float(_enhancements_every_cell(at_d, [10.0**log_q])[which][0])

    grid = np.linspace(math.log10(exp.Q_RANGE[0]), math.log10(exp.Q_RANGE[1]),
                       exp.OPTQ_COARSE_POINTS)
    values = _enhancements_every_cell(at_d, [10.0**x for x in grid])[which].tolist()
    i_best = int(np.argmax(values))
    if i_best in (0, len(grid) - 1):
        return 10.0**grid[i_best], values[i_best], True
    a, b = grid[i_best - 1], grid[i_best + 1]
    tol = math.log10(1.0 + exp.OPTQ_REL_TOL)
    c, d_pt = b - exp.GOLDEN * (b - a), a + exp.GOLDEN * (b - a)
    fc, fd = value_at(c), value_at(d_pt)
    while (b - a) > tol:
        if fc > fd:
            b, d_pt, fd = d_pt, c, fc
            c = b - exp.GOLDEN * (b - a)
            fc = value_at(c)
        else:
            a, c, fc = c, d_pt, fd
            d_pt = a + exp.GOLDEN * (b - a)
            fd = value_at(d_pt)
    x_opt = 0.5 * (a + b)
    return 10.0**x_opt, value_at(x_opt), False


@pytest.mark.parametrize("objective", ["yield", "power"])
def test_optimal_q_lockstep_equals_one_distance_search(design, objective):
    """The lockstep search over all distances, with one bare solve, is bit-identical to a
    search at each alone that solves the bare system at every probe.

    Unsorted, with one distance repeated and optq's default 5, 10 and 15 nm;
    power has its maximum on the scan boundary at 100 and 300 nm, so interior
    and boundary maxima are mixed.
    """
    distances = [30.0, 0.3, 300.0, 3.0, 10.0, 100.0, 1.0, 3.0, 5.0, 15.0]
    q_opt, value, boundary = exp.optimal_Q(design, distances, objective)
    expected_q, expected_value, expected_boundary = zip(
        *(_optimal_q_one_distance(design, d, objective) for d in distances))
    assert q_opt.tobytes() == np.array(expected_q).tobytes()
    assert value.tobytes() == np.array(expected_value).tobytes()
    assert boundary.tolist() == list(expected_boundary)
    assert any(expected_boundary) == (objective == "power")
    assert not all(expected_boundary)


def test_optimal_q_local_maximum(design):
    (q_opt,), (value,), _ = exp.optimal_Q(design, 10.0, "power")
    v_half, v_twice = map_column(design, 10.0, [0.5 * q_opt, 2.0 * q_opt], "power_enhancement")
    assert value >= v_half
    assert value >= v_twice


def test_optimal_q_sensitive_to_quenching(design):
    """Doubling the quench rate moves the optimum (finite-difference check)."""
    at_d = exp.with_emitter_at(design, 10.0)

    def best_q(scale):
        scaled = at_d.with_params(gamma_m_ev=scale * at_d["gamma_m_ev"])
        grid = np.geomspace(1e3, 1e6, 61)
        values = [_enhancements_every_cell(scaled, [q])[0][0] for q in grid]
        return grid[int(np.argmax(values))]
    q1, q2 = best_q(1.0), best_q(2.0)
    assert abs(np.log10(q2) - np.log10(q1)) > 0.02


def test_low_q_dissipation_structure(design):
    """At Q = 1e2 absorption still dominates the output, but the cavity port
    already collects a non-negligible share, so the enhancement over the bare
    system stays well above 1 (it approaches 1 only for Q << ~170, where the
    cavity-induced radiative rate 4 g1^2/gamma_c falls below gamma_1r)."""
    scenario = exp.with_cavity(exp.with_emitter_at(design, 10.0), 0.0, 1e2)
    _, powers = dyn.steady_state_sweep(scenario.hamiltonian(), [58e-6], "emitter")
    radiative = net.radiated_power(powers)[0]
    ohmic = powers["ohmic_plasmon"][0] + powers["ohmic_emitter"][0]
    total = radiative + ohmic
    assert ohmic / total > 0.8
    yield_enhancement, _ = _map_cell(design, 10.0, 1e2)
    assert 1.2 < yield_enhancement < 2.5


def test_quench_anchor(sphere10, vacuum, omega1):
    # at the anchor distance the law gives the quoted 83 ueV whatever the orientation
    mu_1 = cpl.plasmon_effective_dipole(2.45e-3, omega1)
    for orientation in ("radial", "tangential"):
        _, anchored = cpl.distance_law(10.0, sphere10, vacuum, omega1, mu_1, 1.0, orientation)
        assert anchored == pytest.approx(83e-6, rel=1e-12)


# ---------------------------------------------------------------------------
# coupling calibration and the strong-coupling scenario
# ---------------------------------------------------------------------------

def test_calibration_hits_targets(fig3):
    metrics = pair_metrics(exp.with_cavity(
        parse_config("fig3").scenario, 0.0, exp.ANTICROSSING_Q).hamiltonian().matrix)
    assert metrics.two_g_eff == pytest.approx(3.5e-3, rel=1e-3)
    assert metrics.kappa_2 == pytest.approx(0.11e-3, rel=1e-3)
    assert fig3[0].metadata["param.J_ev"] == 0.0


def test_calibration_emergent_linewidth_and_cooperativity(fig4):
    meta = fig4[0].metadata
    assert meta["result.kappa_1_ev"] == pytest.approx(1.28e-3, rel=0.25)
    assert 70.0 <= meta["result.cooperativity"] <= 110.0


def test_calibration_flags_point_dipole_underestimate(fig3):
    assert fig3[0].metadata["calibration.ratio_G_calibrated_over_estimate"] > 1.0
    assert fig3[0].metadata["calibration.ratio_g1_calibrated_over_estimate"] > 1.0


def test_calibration_unreachable_target_raises():
    with pytest.raises(CalibrationError):
        exp.calibrate_fig3_couplings(parse_config("fig3").scenario, targets=(3.5e-3, 5e-3))


def test_calibration_with_emitter_above_plasmon():
    """delta_1e < 0 seeds Newton from |Re s| and still meets the anti-crossing targets."""
    text = BUILTIN_CONFIGS["fig3"].replace("delta_1e_ev = 0.6", "delta_1e_ev = -0.6")
    scenario = parse_config_text(text).scenario
    metrics = pair_metrics(exp.with_cavity(scenario, 0.0, exp.ANTICROSSING_Q).hamiltonian().matrix)
    assert metrics.two_g_eff == pytest.approx(3.5e-3, rel=1e-3)
    assert metrics.kappa_2 == pytest.approx(0.11e-3, rel=1e-3)


def _calibrate_by_hybrid_root(scenario, targets):
    """Oracle: the calibration residuals solved by MINPACK's hybrid method from the same seed."""
    base = exp.with_cavity(scenario, 0.0, exp.ANTICROSSING_Q)
    p = base.params
    gamma_c, gamma_e = p["gamma_c_ev"], p["gamma_s_ev"] + p["gamma_m_ev"]
    gamma_1 = p["gamma_1r_ev"] + p["gamma_o_ev"]
    total = targets[0] / (1.0 / (p["delta_1e_ev"] - 0.5j * gamma_1)).real
    frac = min(max((targets[1] - gamma_e) / (gamma_c - gamma_e), 1e-6), 1 - 1e-6)
    seed = np.sqrt([frac * total, (1.0 - frac) * total])

    def residuals(x):
        trial = base.with_params(g1_ev=-x[1], G_ev=-x[0], J_ev=0.0)
        metrics = pair_metrics(trial.hamiltonian().matrix)
        return [metrics.two_g_eff / targets[0] - 1.0, metrics.kappa_2 / targets[1] - 1.0]

    sol = root(residuals, seed, method="hybr", tol=1e-13)
    return sol, max(abs(r) for r in residuals(sol.x))


CALIBRATION_CASES = [
    ("fig4", None, (3.5e-3, 0.11e-3)),
    ("fig4", ("delta_1e_ev = 0.6", "delta_1e_ev = 0.3"), (3.5e-3, 0.11e-3)),
    ("fig4", ("a1_nm = 33.0", "a1_nm = 20.0"), (3.5e-3, 0.11e-3)),
    ("fig4", None, (50e-3, 0.2e-3)),
    ("fig4", None, (1e-4, 1e-6)),
    ("fig3", None, (5e-3, 0.05e-3)),
]


@pytest.mark.parametrize("builtin, edit, targets", CALIBRATION_CASES)
def test_newton_calibration_matches_hybrid_root(builtin, edit, targets):
    text = BUILTIN_CONFIGS[builtin]
    scenario = parse_config_text(text.replace(*edit) if edit else text).scenario
    fit, diagnostics = exp.calibrate_fig3_couplings(scenario, targets)
    sol, residual = _calibrate_by_hybrid_root(scenario, targets)
    assert sol.success and residual <= 1e-12
    assert abs(fit["G_ev"]) == pytest.approx(abs(sol.x[0]), rel=1e-10)
    assert abs(fit["g1_ev"]) == pytest.approx(abs(sol.x[1]), rel=1e-10)
    assert diagnostics["residual_max"] <= 1e-12


@pytest.mark.parametrize("targets", [(1e-4, 0.2e-3), (3.5e-3, 1e-9), (0.5, 1e-10)])
def test_calibration_unreachable_by_either_solver_raises(targets):
    # kappa_2 below the cavity width passes the up-front check; neither solver converges
    scenario = parse_config("fig4").scenario
    sol, residual = _calibrate_by_hybrid_root(scenario, targets)
    assert not sol.success or residual > 1e-3
    with pytest.raises(CalibrationError, match=r"did not converge: residuals \[[^,]+, [^,]+\]$"):
        exp.calibrate_fig3_couplings(scenario, targets)


def test_fig3_rejects_uncalibrated_scenario():
    with pytest.raises(DomainError, match="calibrated"):
        exp.run_fig3(parse_config("fig2").scenario)


def test_trace_oscillation_counts(fig3):
    assert fig3[0].metadata["result.maxima_q1e5"] >= 5
    assert fig3[0].metadata["result.maxima_no_cavity"] == 0


def test_trace_populations_bounded(fig3):
    traces = fig3[0]
    for label in traces.columns[1:]:
        pop = column(traces, label)
        assert np.all(pop <= 1.0 + 1e-9), label
        assert np.all(pop >= 0.0), label


def test_spectrum_doublet_separation(fig3):
    spectrum = fig3[1]
    d = column(spectrum, "detuning_ev")
    sep = spectrum_peak_separation(d, column(spectrum, "phi_rad_cavity"))
    assert sep == pytest.approx(4e-3, rel=0.25)
    sep_bare = spectrum_peak_separation(d, column(spectrum, "phi_rad_bare"))
    assert sep_bare == 0.0  # single peak without the cavity


def test_branches_never_cross(fig4):
    branches = fig4[0]
    eigenvalues = np.stack([column(branches, f"branch{b}_re_ev")
                            + 1j * column(branches, f"branch{b}_im_ev") for b in range(3)], axis=1)
    metrics = dyn.anticrossing_metrics(
        dyn.EigenBranchSet(column(branches, "delta_ec_ev"), eigenvalues))
    assert branches.metadata["result.two_g_eff_ev"] > 0.0
    assert metrics.min_im_separation > 0.0


@pytest.mark.parametrize("edit", [("delta_1e_ev = 0.6", "delta_1e_ev = 0.3"),
                                  ("a1_nm = 33.0", "a1_nm = 20.0")])
def test_calibration_fits_the_configured_geometry(edit):
    """The fit runs on the scenario's own geometry, not on the builtin ellipsoid."""
    scenario = parse_config_text(BUILTIN_CONFIGS["fig4"].replace(*edit)).scenario
    metrics = pair_metrics(scenario.hamiltonian().matrix)
    assert metrics.two_g_eff == pytest.approx(3.5e-3, rel=1e-3)
    assert metrics.kappa_2 == pytest.approx(0.11e-3, rel=1e-3)


def test_detuning_stack_slices_match_scalar_builds():
    scenario = parse_config("fig3").scenario
    sweep = np.linspace(-9e-3, 7e-3, 17)
    stack = exp.with_cavity(scenario, -sweep).hamiltonian().matrix
    assert stack.shape == (sweep.size, 3, 3)
    p = scenario.params
    for k, dec in enumerate(sweep.tolist()):
        omega_c = p["omega_e_ev"] - dec
        h = net.build_three_mode(
            g1=p["g1_ev"], G=p["G_ev"], J=p["J_ev"], delta_1e=p["delta_1e_ev"], delta_ce=-dec,
            gamma_1r=p["gamma_1r_ev"], gamma_o=p["gamma_o_ev"],
            gamma_c=omega_c / p["q_factor"], gamma_s=p["gamma_s_ev"], gamma_m=p["gamma_m_ev"])
        assert np.array_equal(stack[k], h.matrix), k


def test_branch_sweep_span(fig4):
    sweep = column(fig4[0], "delta_ec_ev")
    assert sweep[0] == pytest.approx(-10e-3)
    assert sweep[-1] == pytest.approx(10e-3)
    assert np.any(sweep == 0.0)


def test_strong_coupling_scenario_provenance(fig3):
    meta = fig3[0].metadata
    assert meta["provenance.G_ev"] == "calibrated"
    assert meta["provenance.g1_ev"] == "calibrated"
    assert meta["param.J_ev"] == 0.0
    assert any("far detuned" in v for k, v in meta.items() if k.startswith("note."))
