"""Figure runners, (D, Q) enhancement maps, coupling calibration and every output table.

A Scenario is a flat parameter dictionary with per-parameter provenance
(first_principles | paper_exact | calibrated | derived), embedded verbatim
in result metadata.  Every runner receives a resolved Scenario; the paper's
scenarios are the builtin configs of the config module, so each is
described once.  Sweeps build one Hamiltonian stack and solve it in one
batched call; a standalone map cell is a 1x1 batch of the same code, so it
reproduces its map entry bit for bit.

This is the only module that builds output tables: the figure runners,
enhancement_map and the *_table functions return ResultTables whose column
names and result.* metadata keys are written here and nowhere else.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import couplings as cpl
from . import dynamics as dyn
from . import materials as mat
from . import network as net
from .errors import CalibrationError, DomainError
from .quantities import to_fs
from .results import ResultTable, scenario_metadata

#: cavity quality factors bracketing every feature of the enhancement map: the
#: default Q axis of the map and the search interval of optimal_Q
Q_RANGE = (1e2, 1e7)

#: the design map's quench law: gamma_m(D) is the anchored multipole sum of a
#: tangential dipole whatever the emitter's orientation, as the map has always
#: computed it.  The swept builtin's emitter is radial, so its G and gamma_m follow
#: different orientations; ROADMAP.md item 5 makes the law the scenario's own.
MAP_QUENCH_ORIENTATION = "tangential"

#: quality factor of the coupling calibration (and of the builtin fig4
#: anti-crossing scenario); the published linewidth pair (1.28, 0.11) meV is
#: only reachable with a cavity width near omega_c / 1e3 (the dark state's
#: width is bounded by max(gamma_c, gamma_e))
ANTICROSSING_Q = 1e3

#: (label, cavity quality factor) of the fig3 Rabi-oscillation traces
TRACE_Q_FACTORS = (("q1e3", 1e3), ("q1e4", 1e4), ("q1e5", 1e5))

#: cavity quality factor of the fig4 emission-spectra map
SPECTRA_Q = 1e4

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: optimal_Q: coarse log-Q scan points, and the relative Q tolerance of its refinement
OPTQ_COARSE_POINTS = 25
OPTQ_REL_TOL = 1e-3

#: Newton steps the coupling calibration may take before it gives up
CALIBRATION_MAX_STEPS = 50


@dataclass(frozen=True)
class Scenario:
    """A fully resolved parameter set plus the provenance of every number."""

    name: str
    params: dict  # flat, snake_case keys with units in the name
    provenance: dict  # parameter key -> first_principles | paper_exact | calibrated | derived
    notes: tuple = ()
    calibration: dict = field(default_factory=dict)  # coupling-fit diagnostics, if fitted

    def __getitem__(self, key):
        return self.params[key]

    def hamiltonian(self, bare=False):
        """Three-mode Hamiltonian; a stack when any parameter is an array.

        bare decouples the cavity (g1 = J = 0).
        """
        p = self.params
        g1, J = (0.0, 0.0) if bare else (p["g1_ev"], p["J_ev"])
        return net.build_three_mode(
            g1=g1, G=p["G_ev"], J=J, delta_1e=p["delta_1e_ev"], delta_ce=p["delta_ce_ev"],
            gamma_1r=p["gamma_1r_ev"], gamma_o=p["gamma_o_ev"], gamma_c=p["gamma_c_ev"],
            gamma_s=p["gamma_s_ev"], gamma_m=p["gamma_m_ev"])


# ---------------------------------------------------------------------------
# ingredient helpers
# ---------------------------------------------------------------------------

def _distance_law(p, distance_nm, quench_orientation=None):
    """couplings.distance_law of the particle, plasmon and emitter of resolved params p."""
    metal = mat.DrudeMetal(p["eps_inf"], p["omega_p_ev"], p["gamma_o_ev"])
    if "radius_nm" in p:
        shape = mat.Sphere(p["radius_nm"])
    else:
        shape = mat.Ellipsoid(p["a1_nm"], p["a2_nm"], p["a3_nm"])
    return cpl.distance_law(
        distance_nm, mat.Nanoparticle(shape, metal), mat.Environment(p["eps_b"]),
        p["omega_e_ev"], cpl.plasmon_effective_dipole(p["gamma_1r_ev"], p["omega_1_ev"]),
        p["mu_e_nm"], p["orientation"], p.get("axis", 1), quench_orientation)


# ---------------------------------------------------------------------------
# dissipation spectra and quantum yield
# ---------------------------------------------------------------------------

def run_fig1c(scenario, points=2001, half_span_ev=2e-3):
    """Table fig1c: a pumped scenario's output powers vs pump detuning, with and without cavity.

    The scenario is driven on its configured drive mode; for the builtin
    fig1c that is the plasmon of the nanoparticle, with the emitter decoupled.
    The absorbed power is the Ohmic loss of the dipolar mode.
    """
    detunings = np.linspace(-half_span_ev, half_span_ev, points)
    _, p_cav = dyn.steady_state_sweep(scenario.hamiltonian(), detunings, scenario["drive_mode"])
    _, p_bare = dyn.steady_state_sweep(
        scenario.hamiltonian(bare=True), detunings, scenario["drive_mode"])
    return ResultTable.from_arrays(
        "fig1c",
        ("detuning_ev", "phi_rad_cavity", "phi_rad_bare", "phi_abs_cavity", "phi_abs_bare"),
        (detunings, net.radiated_power(p_cav), net.radiated_power(p_bare),
         p_cav["ohmic_plasmon"], p_bare["ohmic_plasmon"]),
        scenario_metadata(scenario),
    )


def run_fig2(scenario, points=401, half_span_ev=1e-3):
    """Tables fig2_yield and fig2_power of an emitter-driven scenario vs pump-cavity detuning.

    The grid is centered on the scenario's interference detuning Delta_0
    with a 5 ueV step by default; the physical yield maximum sits a few ueV
    below Delta_0 (the Fano zero of the dipolar amplitude rides the shoulder
    of the cavity feature), so finer steps would resolve that offset.  The
    dipolar-mode absorption is normalized to its maximum; the yields and the
    radiated-power enhancement at Delta_0 itself are result.* metadata.
    """
    delta_0 = scenario["delta_0_ev"]
    h = scenario.hamiltonian()
    h_bare = scenario.hamiltonian(bare=True)
    detunings = delta_0 + np.linspace(-half_span_ev, half_span_ev, points)

    def solve(hamiltonian, grid):
        return dyn.steady_state_sweep(hamiltonian, grid, "emitter")[1]

    sweep, sweep_b = solve(h, detunings), solve(h_bare, detunings)
    at_0, at_0_b = solve(h, [delta_0]), solve(h_bare, [delta_0])
    meta = {
        **scenario_metadata(scenario),
        "result.yield_at_delta0": float(net.yield_from_powers(at_0)[0]),
        "result.bare_yield_at_delta0": float(net.yield_from_powers(at_0_b)[0]),
        "result.rad_enhancement_at_delta0": float(
            net.radiated_power(at_0)[0] / net.radiated_power(at_0_b)[0]),
    }
    table_yield = ResultTable.from_arrays(
        "fig2_yield",
        ("detuning_ev", "yield_cavity", "yield_bare", "abs_plasmon_norm"),
        (detunings, net.yield_from_powers(sweep), net.yield_from_powers(sweep_b),
         sweep["ohmic_plasmon"] / np.max(sweep["ohmic_plasmon"])),
        meta,
    )
    table_power = ResultTable.from_arrays(
        "fig2_power", ("detuning_ev", "phi_rad_cavity", "phi_rad_bare"),
        (detunings, net.radiated_power(sweep), net.radiated_power(sweep_b)), meta)
    return table_yield, table_power


def spectrum_table(scenario, grid):
    """Table spectrum: every output port of the scenario over the pump detunings grid.

    The vacuum port is coherent; its interference part is reported
    separately, so the diagonal (per-mode) decomposition is also available.
    """
    h = scenario.hamiltonian()
    amps, powers = dyn.steady_state_sweep(h, grid, scenario["drive_mode"])
    return ResultTable.from_arrays(
        "spectrum",
        ("detuning_ev", "phi_rad_total", "phi_rad_vacuum", "phi_rad_vacuum_cross",
         "phi_rad_cavity_port", "phi_ohmic_plasmon", "phi_ohmic_emitter"),
        (grid, net.radiated_power(powers), powers["rad_vacuum"], h.vacuum_cross_term(amps),
         powers["rad_cavity"], powers["ohmic_plasmon"], powers["ohmic_emitter"]),
        scenario_metadata(scenario),
    )


def yield_table(scenario, grid):
    """Table yield: quantum yield over the pump detunings grid, with and without cavity.

    The scenario is driven on its configured drive mode.
    """
    drive = scenario["drive_mode"]
    _, powers = dyn.steady_state_sweep(scenario.hamiltonian(), grid, drive)
    _, powers_b = dyn.steady_state_sweep(scenario.hamiltonian(bare=True), grid, drive)
    return ResultTable.from_arrays(
        "yield", ("detuning_ev", "yield_cavity", "yield_bare"),
        (grid, net.yield_from_powers(powers), net.yield_from_powers(powers_b)),
        scenario_metadata(scenario),
    )


def evolve_table(scenario, points, span_fs):
    """Table evolve: mode populations of the scenario with its emitter excited at t = 0.

    The time grid has `points` samples over span_fs, or over ten lifetimes
    of the slowest branch when span_fs is None.
    """
    h = scenario.hamiltonian()
    if span_fs is None:
        times_fs = dyn.default_time_grid(h, points)
    else:
        times_fs = np.linspace(0.0, span_fs, points)
    initial = np.zeros(len(h.labels), dtype=complex)
    initial[h.index("emitter")] = 1.0
    trace = dyn.evolve(h, initial, times_fs)
    return ResultTable.from_arrays(
        "evolve",
        ("time_fs", "pop_plasmon", "pop_cavity", "pop_emitter", "pop_total"),
        (times_fs, trace.population("plasmon"), trace.population("cavity"),
         trace.population("emitter"), trace.total),
        scenario_metadata(scenario),
    )


# ---------------------------------------------------------------------------
# (D, Q) enhancement maps and the optimal quality factor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MapCell:
    d_nm: float
    q_factor: float
    yield_enhancement: float
    power_enhancement: float
    delta_0_ev: float


def with_emitter_at(scenario, distance_nm):
    """The sphere scenario with its emitter distance_nm from the particle surface.

    distance_nm may be an array; G, gamma_m and Delta_0 are then arrays of its
    shape.  G and gamma_m come from one couplings.distance_law call, G at the
    scenario's orientation and gamma_m at MAP_QUENCH_ORIENTATION, and
    Delta_0 = -J g1 / G.  Only a first-principles sphere has a distance law
    for both.
    """
    p = scenario.params
    if "radius_nm" not in p or scenario.provenance.get("G_ev") != "first_principles":
        raise DomainError(f"scenario {scenario.name!r} has no distance law: "
                          "the emitter can be moved only around a first-principles sphere")
    d = np.asarray(distance_nm, dtype=float)[()]  # one distance stays a scalar
    G, gamma_m = _distance_law(p, d, MAP_QUENCH_ORIENTATION)
    return replace(scenario, params={
        **p, "distance_nm": d, "G_ev": G, "gamma_m_ev": gamma_m,
        "delta_0_ev": dyn.fano_detuning(p["J_ev"], p["g1_ev"], G)})


def _enhancements(at_d, q_factor):
    """Yield and power enhancement over the bare system at Delta_p,c = Delta_0.

    at_d is a scenario placed by with_emitter_at; its cavity is put on
    resonance at each q_factor, which broadcasts against the distance shape.
    The engineered and the bare system are each one batched steady-state solve.
    """
    stack = with_cavity(at_d, 0.0, np.asarray(q_factor, dtype=float))
    delta_0 = at_d["delta_0_ev"]
    _, powers = dyn.steady_state_sweep(stack.hamiltonian(), delta_0, "emitter")
    _, powers_b = dyn.steady_state_sweep(stack.hamiltonian(bare=True), delta_0, "emitter")
    yield_enh = net.yield_from_powers(powers) / net.yield_from_powers(powers_b)
    power_enh = net.radiated_power(powers) / net.radiated_power(powers_b)
    return yield_enh, power_enh


def map_cell(scenario, d_nm, q_factor):
    """One (D, Q) cell of the scenario's enhancement map, at Delta_p,c = Delta_0(D).

    A 1x1 batch of the map's code, so standalone calls reproduce map
    entries bit for bit.
    """
    at_d = with_emitter_at(scenario, d_nm)
    ye, pe = _enhancements(at_d, [q_factor])
    return MapCell(
        d_nm=d_nm,
        q_factor=q_factor,
        yield_enhancement=float(ye[0]),
        power_enhancement=float(pe[0]),
        delta_0_ev=float(at_d["delta_0_ev"]),
    )


def enhancement_map(scenario, d_grid, q_grid):
    """Table map: yield and power enhancement of a scenario over emitter distance and cavity Q.

    One row per (D, Q) cell, D-major; the metadata names the axis lengths.
    """
    d = np.asarray(d_grid, dtype=float)
    q = np.asarray(q_grid, dtype=float)
    if d.ndim != 1 or q.ndim != 1 or d.size == 0 or q.size == 0:
        raise DomainError("map grids must be non-empty 1-D arrays")
    if np.any(np.diff(d) <= 0) or np.any(np.diff(q) <= 0):
        raise DomainError("map grids must be strictly increasing")
    ye, pe = _enhancements(with_emitter_at(scenario, d[:, None]), q[None, :])
    if not (np.all(np.isfinite(ye)) and np.all(np.isfinite(pe))):
        raise DomainError("non-finite enhancement in map")
    dd, qq = np.meshgrid(d, q, indexing="ij")
    return ResultTable.from_arrays(
        "map", ("d_nm", "q_factor", "yield_enhancement", "power_enhancement"),
        (dd.ravel(), qq.ravel(), ye.ravel(), pe.ravel()),
        {**scenario_metadata(scenario), "d_points": d.size, "q_points": q.size},
    )


@dataclass(frozen=True)
class OptimalQ:
    q_opt: float
    value: float
    objective: str
    boundary: bool  # true when the maximum sits on the search boundary


def optimal_Q(scenario, d_nm, objective="yield"):
    """Quality factor maximizing the scenario's enhancement with its emitter at d_nm.

    The distance is derived once.  A coarse scan of OPTQ_COARSE_POINTS
    log-spaced Q over Q_RANGE brackets the maximum (verifying unimodality at
    scan resolution), then golden-section refinement narrows Q to
    OPTQ_REL_TOL.  A maximum on the scan boundary is reported, not raised.
    """
    if objective not in ("yield", "power"):
        raise DomainError(f"objective must be yield or power, got {objective!r}")
    at_d = with_emitter_at(scenario, d_nm)
    which = 0 if objective == "yield" else 1

    def value_at(log_q):
        return float(_enhancements(at_d, [10.0**log_q])[which][0])

    grid = np.linspace(math.log10(Q_RANGE[0]), math.log10(Q_RANGE[1]), OPTQ_COARSE_POINTS)
    values = _enhancements(at_d, [10.0**x for x in grid])[which].tolist()
    i_best = int(np.argmax(values))
    if i_best in (0, len(grid) - 1):
        return OptimalQ(10.0**grid[i_best], values[i_best], objective, boundary=True)

    a, b = grid[i_best - 1], grid[i_best + 1]
    tol = math.log10(1.0 + OPTQ_REL_TOL)
    c = b - GOLDEN * (b - a)
    d_pt = a + GOLDEN * (b - a)
    fc, fd = value_at(c), value_at(d_pt)
    while (b - a) > tol:
        if fc > fd:
            b, d_pt, fd = d_pt, c, fc
            c = b - GOLDEN * (b - a)
            fc = value_at(c)
        else:
            a, c, fc = c, d_pt, fd
            d_pt = a + GOLDEN * (b - a)
            fd = value_at(d_pt)
    x_opt = 0.5 * (a + b)
    return OptimalQ(10.0**x_opt, value_at(x_opt), objective, boundary=False)


def optq_table(scenario, distances_nm, objective):
    """Table optq: the optimal_Q search at each emitter distance, in the given order."""
    found = [optimal_Q(scenario, d, objective=objective) for d in distances_nm]
    return ResultTable.from_arrays(
        "optq", ("d_nm", "q_opt", "value", "objective", "boundary"),
        (distances_nm, [r.q_opt for r in found], [r.value for r in found],
         [r.objective for r in found], [int(r.boundary) for r in found]),
        {**scenario_metadata(scenario), "objective": objective})


# ---------------------------------------------------------------------------
# strong coupling: calibration, Rabi traces and the anti-crossing
# ---------------------------------------------------------------------------

def _pair_metrics(matrix):
    """(Re separation, larger width, smaller width) of the two near-zero branches."""
    lam = np.linalg.eigvals(matrix)
    order = np.argsort(np.abs(lam.real), kind="stable")
    a, b = lam[order[0]], lam[order[1]]
    widths = sorted((-2.0 * a.imag, -2.0 * b.imag), reverse=True)
    return abs(a.real - b.real), widths[0], widths[1]


def with_cavity(scenario, delta_ce_ev, q_factor=None):
    """The scenario with its cavity at delta_ce_ev = omega_c - omega_e and quality factor q_factor.

    The cavity width follows at fixed Q (gamma_c = omega_c / Q); q_factor
    defaults to the scenario's.  delta_ce_ev (in eV) and q_factor may be
    arrays; the scenario's Hamiltonian is then a stack over them.
    """
    p = scenario.params
    q = p["q_factor"] if q_factor is None else q_factor
    omega_c = p["omega_e_ev"] + delta_ce_ev
    return replace(scenario, params={
        **p, "q_factor": q, "delta_ce_ev": delta_ce_ev, "omega_c_ev": omega_c,
        "gamma_c_ev": omega_c / q})


def calibrate_fig3_couplings(scenario, targets):
    """Fit the projected coupling magnitudes (|G|, |g1|) to the anti-crossing targets.

    targets is (splitting 2 g_eff, smaller linewidth kappa_2) in eV.  A
    two-parameter Newton iteration on the scenario's own geometry and widths, with
    the cavity at ANTICROSSING_Q and on resonance with the emitter, makes
    the eigenstructure reproduce the targets to 1e-3 relative.  The
    cavity-emitter coupling J is held at zero (emitter dipole perpendicular
    to the cavity polarization).

    Returns ({"g1_ev", "G_ev", "J_ev"}, diagnostics).  The diagnostics include the
    first-principles point-dipole estimates at the scenario's tip distance
    and tilt theta_deg, which underestimate the near-tip coupling; the
    calibrated/estimated ratios are reported and expected to exceed 1.
    """
    two_g_target, kappa2_target = targets
    if two_g_target <= 0 or kappa2_target <= 0:
        raise DomainError("calibration targets must be positive")
    base = with_cavity(scenario, 0.0, ANTICROSSING_Q)
    p = base.params
    gamma_1 = p["gamma_1r_ev"] + p["gamma_o_ev"]
    gamma_c = p["gamma_c_ev"]
    gamma_e = p["gamma_s_ev"] + p["gamma_m_ev"]
    if kappa2_target > max(gamma_c, gamma_e):
        raise CalibrationError(
            f"kappa_2 target {kappa2_target} eV exceeds every bare width "
            f"(gamma_c={gamma_c:.3e}, gamma_e={gamma_e:.3e}); the dark-state "
            "width is a coupling-weighted mix of the bare widths and cannot reach it")

    # closed-form seed from adiabatic elimination of the far-detuned plasmon
    s = 1.0 / (p["delta_1e_ev"] - 0.5j * gamma_1)
    total = two_g_target / s.real
    frac = min(max((kappa2_target - gamma_e) / (gamma_c - gamma_e), 1e-6), 1 - 1e-6)
    seed = np.array([math.sqrt(frac * total), math.sqrt((1.0 - frac) * total)])

    target = np.array([two_g_target, kappa2_target])

    def hamiltonian(x):
        return replace(base, params={**p, "g1_ev": -x[1], "G_ev": -x[0], "J_ev": 0.0}
                       ).hamiltonian().matrix

    def residuals_and_jacobian(x):
        # H is complex symmetric, so its left eigenvectors are the transposed
        # right ones and d lambda / d p = v^T (dH/dp) v / v^T v; x = (|G|, |g1|)
        # enters as -G on the plasmon-emitter and -g1 on the plasmon-cavity pair
        lam, vecs = np.linalg.eig(hamiltonian(x))
        a, b = np.argsort(np.abs(lam.real), kind="stable")[:2]
        v = vecs[:, [a, b]]
        dlam = -2.0 * v[0] * v[[2, 1]] / np.sum(v * v, axis=0)  # [param, branch]
        sign = math.copysign(1.0, lam[a].real - lam[b].real)
        narrow = int(lam[b].imag > lam[a].imag)  # the branch of the smaller width
        values = np.array([abs(lam[a].real - lam[b].real), -2.0 * lam[[a, b]][narrow].imag])
        jac = np.array([sign * (dlam[:, 0].real - dlam[:, 1].real), -2.0 * dlam[:, narrow].imag])
        return values / target - 1.0, jac / target[:, None]

    # Newton's method on the exact Jacobian, until the step is 1e-13 relative
    x = seed
    converged = False
    for _ in range(CALIBRATION_MAX_STEPS):
        res, jac = residuals_and_jacobian(x)
        try:
            step = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError:
            break
        x = x - step
        if not np.all(np.isfinite(x)):
            break
        if np.linalg.norm(step) <= 1e-13 * np.linalg.norm(x):
            converged = True
            break
    if converged:
        sep, _, kappa2 = _pair_metrics(hamiltonian(x))
        res = [sep / two_g_target - 1.0, kappa2 / kappa2_target - 1.0]
    res = [float(r) for r in res]
    if not converged or max(abs(r) for r in res) > 1e-3:
        raise CalibrationError(
            f"coupling calibration did not converge: residuals {res}", residuals=res)
    G_eff, g1_eff = (abs(float(v)) for v in x)

    mu_1 = cpl.plasmon_effective_dipole(p["gamma_1r_ev"], p["omega_1_ev"])
    G_est = abs(float(_distance_law(p, p["distance_nm"])[0]))
    g1_est = cpl.vacuum_coupling(mu_1, p["omega_e_ev"], p["vc_um3"] * 1e9, p["eps_b"])
    G_est_eff, g1_est_eff = cpl.project_couplings(G_est, g1_est, p["theta_deg"])
    diagnostics = {
        "two_g_eff_target_ev": two_g_target,
        "kappa_2_target_ev": kappa2_target,
        "point_dipole_G_eff_ev": G_est_eff,
        "point_dipole_g1_eff_ev": g1_est_eff,
        "ratio_G_calibrated_over_estimate": G_eff / G_est_eff,
        "ratio_g1_calibrated_over_estimate": g1_eff / g1_est_eff,
        "q_factor": ANTICROSSING_Q,
        "residual_max": float(max(abs(r) for r in res)),
    }
    return {"g1_ev": -g1_eff, "G_ev": -G_eff, "J_ev": 0.0}, diagnostics


def fig3_hamiltonians(scenario):
    """The Rabi-trace systems: the scenario at each TRACE_Q_FACTORS Q, and without its cavity."""
    hams = {label: with_cavity(scenario, scenario["delta_ce_ev"], q).hamiltonian()
            for label, q in TRACE_Q_FACTORS}
    hams["no_cavity"] = scenario.hamiltonian(bare=True)
    return hams


def run_fig3(scenario, trace_points=4096, spectrum_points=2001):
    """Tables fig3_traces and fig3_spectrum: Rabi oscillations and the emission doublet.

    The scenario must be calibrated.  The emitter starts excited; the traces
    span nine periods of the calibration's target splitting, at each
    TRACE_Q_FACTORS Q and without the cavity, and the oscillation maxima of
    each after the settling window are result.* metadata.  The spectrum is
    the scenario's own, with and without cavity.
    """
    if not scenario.calibration:
        raise DomainError(f"fig3 needs a calibrated scenario; {scenario.name!r} has no calibration")
    p = scenario.params
    span_natural = 9.0 * 2.0 * math.pi / scenario.calibration["two_g_eff_target_ev"]
    times_fs = to_fs(np.linspace(0.0, span_natural, trace_points))
    settle_fs = float(to_fs(10.0 / (p["gamma_1r_ev"] + p["gamma_o_ev"])))
    hams = fig3_hamiltonians(scenario)
    initial = np.array([0.0, 0.0, 1.0], dtype=complex)  # the emitter excited

    meta = {**scenario_metadata(scenario), "result.settle_fs": settle_fs}
    traces = {}
    for label, h in hams.items():
        traces[label] = dyn.evolve(h, initial, times_fs).population("emitter")
        meta[f"result.maxima_{label}"] = dyn.count_oscillation_maxima(
            times_fs, traces[label], threshold=1e-3, settle_fs=settle_fs)
    table_traces = ResultTable.from_arrays(
        "fig3_traces", ("time_fs", *(f"pop_{label}" for label in traces)),
        (times_fs, *traces.values()), meta)

    detunings = np.linspace(-8e-3, 8e-3, spectrum_points)

    def radiated(hamiltonian):
        return net.radiated_power(dyn.steady_state_sweep(hamiltonian, detunings, "emitter")[1])

    table_spectrum = ResultTable.from_arrays(
        "fig3_spectrum", ("detuning_ev", "phi_rad_cavity", "phi_rad_bare"),
        (detunings, radiated(scenario.hamiltonian()), radiated(hams["no_cavity"])), meta)
    return table_traces, table_spectrum


def branch_table(name, scenario, sweep):
    """Table `name`: the scenario's eigenvalue branches over emitter-cavity detunings sweep.

    The anti-crossing metrics of the branch pair nearest zero detuning are
    result.* metadata.
    """
    branches = dyn.eigen_branches(with_cavity(scenario, -sweep).hamiltonian().matrix, sweep)
    metrics = dyn.anticrossing_metrics(branches)
    meta = {
        **scenario_metadata(scenario),
        "result.two_g_eff_ev": metrics.two_g_eff,
        "result.kappa_1_ev": metrics.kappa_1,
        "result.kappa_2_ev": metrics.kappa_2,
        "result.cooperativity": metrics.cooperativity,
    }
    columns = ["delta_ec_ev"]
    arrays = [branches.sweep_values]
    for b in range(branches.n_branches):
        columns += [f"branch{b}_re_ev", f"branch{b}_im_ev"]
        arrays += [branches.eigenvalues[:, b].real, branches.eigenvalues[:, b].imag]
    return ResultTable.from_arrays(name, columns, arrays, meta)


def run_fig4(scenario, sweep_values, spectrum_points=801):
    """Tables fig4_branches and fig4_spectra: the anti-crossing and its emission-spectra map.

    The branches are the scenario's own; the spectra are those of the same
    system at cavity quality factor SPECTRA_Q, one batched solve over
    (detuning sweep, pump detuning), one row per pair, sweep-major.
    """
    sweep = np.asarray(sweep_values, dtype=float)
    table_branches = branch_table("fig4_branches", scenario, sweep)
    at_q = replace(with_cavity(scenario, 0.0, SPECTRA_Q),
                   name=f"{scenario.name}_q{SPECTRA_Q:g}")
    h = with_cavity(at_q, -sweep[:, None]).hamiltonian()
    detunings = np.linspace(-8e-3, 8e-3, spectrum_points)
    _, powers = dyn.steady_state_sweep(h, detunings, "emitter")
    table_spectra = ResultTable.from_arrays(
        "fig4_spectra", ("delta_ec_ev", "detuning_ev", "phi_rad_total"),
        (np.repeat(sweep, detunings.size), np.tile(detunings, sweep.size),
         net.radiated_power(powers).ravel()),
        scenario_metadata(at_q))
    return table_branches, table_spectra


def spectrum_peak_separation(detunings, power):
    """Separation of the two tallest local maxima of a spectrum (0 if single-peaked)."""
    p = np.asarray(power)
    idx = np.nonzero((p[1:-1] > p[:-2]) & (p[1:-1] > p[2:]))[0] + 1
    if len(idx) < 2:
        return 0.0
    top = sorted(idx, key=lambda i: -p[i])[:2]
    return float(abs(detunings[top[0]] - detunings[top[1]]))
