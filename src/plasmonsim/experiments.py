"""Figure runners, (D, Q) enhancement maps, coupling calibration and every output table.

A Scenario is a flat parameter dictionary with per-parameter provenance
(first_principles | paper_exact | calibrated | derived), embedded verbatim
in result metadata.  Every runner receives a resolved Scenario; the paper's
scenarios are the builtin configs of the config module, so each is
described once.  Every pump-detuning table is one _sweep_table, whose rows
are solved block by block as the writer reads them; the (D, Q) map solves
its stack in one call.

This is the only module that builds output tables: the figure runners,
enhancement_map and the *_table functions return ResultTables whose column
names and result.* metadata keys are written here and nowhere else.
"""

import math

import numpy as np

from . import couplings as cpl
from . import dynamics as dyn
from . import materials as mat
from . import network as net
from .errors import CalibrationError, ConfigError, DomainError
from .quantities import to_fs
from .results import ResultTable, scenario_metadata

#: cavity quality factors bracketing every feature of the enhancement map: the
#: default Q axis of the map and the search interval of optimal_Q
Q_RANGE = (1e2, 1e7)

#: the design map's quench law: gamma_m(D) is the anchored multipole sum of a
#: tangential dipole whatever the emitter's orientation, as the map has always
#: computed it.  The swept builtin's emitter is radial, so its G and gamma_m follow
#: different orientations until map and optq sweep the scenario under its own law.
MAP_QUENCH_ORIENTATION = "tangential"

#: quality factor of the coupling calibration (and of the builtin fig4
#: anti-crossing scenario); the published linewidth pair (1.28, 0.11) meV is
#: only reachable with a cavity width near omega_c / 1e3 (the dark state's
#: width is bounded by max(gamma_c, gamma_e))
ANTICROSSING_Q = 1e3

#: (label, cavity quality factor) of the fig3 Rabi-oscillation traces
TRACE_Q_FACTORS = (("q1e3", 1e3), ("q1e4", 1e4), ("q1e5", 1e5))

#: cavity quality factor of the fig4 emission-spectra map, and its pump detunings per row
SPECTRA_Q = 1e4
FIG4_SPECTRUM_POINTS = 801

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: optimal_Q: coarse log-Q scan points, and the relative Q tolerance of its refinement
OPTQ_COARSE_POINTS = 25
OPTQ_REL_TOL = 1e-3

#: Newton steps the coupling calibration may take before it gives up
CALIBRATION_MAX_STEPS = 50


class Scenario:
    """A fully resolved parameter set plus the provenance of every number."""

    __slots__ = ("name", "params", "provenance", "notes", "calibration")

    def __init__(self, name, params, provenance, notes, calibration):
        self.name, self.notes = name, notes
        self.params = params  # flat, snake_case keys with units in the name
        self.provenance = provenance  # key -> first_principles | paper_exact | calibrated | derived
        self.calibration = calibration  # coupling-fit diagnostics, if fitted

    def with_params(self, **changes):
        """The scenario with the named parameters set, its provenance and the rest kept."""
        return Scenario(self.name, {**self.params, **changes}, self.provenance, self.notes,
                        self.calibration)

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
    shape = (mat.Sphere(p["radius_nm"]) if "radius_nm" in p
             else mat.Ellipsoid(p["a1_nm"], p["a2_nm"], p["a3_nm"]))
    return cpl.distance_law(
        distance_nm, mat.Nanoparticle(shape, metal), mat.Environment(p["eps_b"]),
        p["omega_e_ev"], cpl.plasmon_effective_dipole(p["gamma_1r_ev"], p["omega_1_ev"]),
        p["mu_e_nm"], p["orientation"], p.get("axis", 1), quench_orientation)


# ---------------------------------------------------------------------------
# dissipation spectra and quantum yield
# ---------------------------------------------------------------------------

def _radiated(_, powers):
    return net.radiated_power(powers)


def _yield(_, powers):
    return net.yield_from_powers(powers)


def _port(name):
    return lambda _, powers: powers[name]


def _sweeps(scenario, grid, drive):
    """The steady-state sweeps of the scenario and of its bare system over grid."""
    return (dyn.steady_state_blocks(scenario.hamiltonian(), grid, drive),
            dyn.steady_state_blocks(scenario.hamiltonian(bare=True), grid, drive))


def _sweep_table(name, columns, metadata):
    """Table `name` of steady-state sweeps, its rows solved one block at a time as they are read.

    columns maps each column name, in table order, to (sweep, fn(amplitudes,
    port powers)), sweep a dynamics.steady_state_blocks value, or to values
    broadcast into the column.  The sweeps share one grid and advance
    together, one block per step, each block's detunings made once for them
    and for a column whose values are that grid; a block's amplitudes and
    port powers are dropped before its rows are handed on.
    """
    solves = {}
    for c, spec in columns.items():
        if isinstance(spec, tuple):
            sweep = spec[0]  # any one: the sweeps share their grid and its blocks
            solves.setdefault(sweep.solve, []).append((c, spec[1]))
    grid = sweep.grid
    given = {c: spec if spec is grid else dyn.broadcast_grid(spec, grid.shape)
             for c, spec in columns.items() if not isinstance(spec, tuple)}
    dtype = np.dtype([(c, float) for c in columns])

    def rows(index, d):
        block = None
        for solve, fns in solves.items():
            amps, powers = solve(index, d)
            # the rows follow the first solve, so its temporaries are freed below them and
            # serve the next block: freed at the heap's top, malloc returned them to the
            # system and every block faulted them in again
            if block is None:
                block = np.empty(amps.shape[:-1], dtype)
            for c, fn in fns:
                block[c] = fn(amps, powers)
            del amps, powers  # before the next sweep's block is solved
        for c, values in given.items():
            block[c] = d if values is grid else values[index]
        return block.reshape(-1)

    return ResultTable(name, dtype, lambda: (rows(index, grid[index]) for index in sweep.index),
                       metadata)


def run_fig1c(scenario, points=2001):
    """Table fig1c: a pumped scenario's output powers vs pump detuning, with and without cavity.

    The detunings span +/- 2 meV.  The scenario is driven on its configured
    drive mode; for the builtin fig1c that is the plasmon of the
    nanoparticle, with the emitter decoupled.  The absorbed power is the
    Ohmic loss of the dipolar mode.
    """
    cavity, bare = _sweeps(scenario, dyn.Linspace(-2e-3, 2e-3, points), scenario["drive_mode"])
    return _sweep_table("fig1c", {
        "detuning_ev": cavity.grid, "phi_rad_cavity": (cavity, _radiated),
        "phi_rad_bare": (bare, _radiated), "phi_abs_cavity": (cavity, _port("ohmic_plasmon")),
        "phi_abs_bare": (bare, _port("ohmic_plasmon"))}, scenario_metadata(scenario))


def run_fig2(scenario, points=401):
    """Tables fig2_yield and fig2_power of an emitter-driven scenario vs pump-cavity detuning.

    The grid spans +/- 1 meV around the scenario's interference detuning
    Delta_0, a 5 ueV step by default; the physical yield maximum sits a few ueV
    below Delta_0 (the Fano zero of the dipolar amplitude rides the shoulder
    of the cavity feature), so finer steps would resolve that offset.  The
    dipolar-mode absorption is normalized to its maximum, taken in a first
    pass over the sweep, so both tables are streamed like any other; the
    yields and the radiated-power enhancement at Delta_0 itself are result.*
    metadata.  Each system is swept once over the grid and once at Delta_0.
    """
    delta_0 = scenario["delta_0_ev"]
    cavity, bare = _sweeps(scenario, dyn.Linspace(-1e-3, 1e-3, points, offset=delta_0), "emitter")
    peak = np.max([np.max(cavity.solve(block, cavity.grid[block])[1]["ohmic_plasmon"])
                   for block in cavity.index])
    at0, at0_bare = (dyn.steady_state_sweep(scenario.hamiltonian(bare=b), delta_0, "emitter")[1]
                     for b in (False, True))
    meta = {**scenario_metadata(scenario),
            "result.yield_at_delta0": float(net.yield_from_powers(at0)[0]),
            "result.bare_yield_at_delta0": float(net.yield_from_powers(at0_bare)[0]),
            "result.rad_enhancement_at_delta0": float(
                net.radiated_power(at0)[0] / net.radiated_power(at0_bare)[0])}
    yields = _sweep_table("fig2_yield", {
        "detuning_ev": cavity.grid, "yield_cavity": (cavity, _yield), "yield_bare": (bare, _yield),
        "abs_plasmon_norm": (cavity, lambda _, powers: powers["ohmic_plasmon"] / peak)}, meta)
    return yields, _sweep_table("fig2_power", {
        "detuning_ev": cavity.grid, "phi_rad_cavity": (cavity, _radiated),
        "phi_rad_bare": (bare, _radiated)}, meta)


def spectrum_table(scenario, grid):
    """Table spectrum: every output port of the scenario over the pump detunings grid.

    The vacuum port is coherent; its interference part is reported
    separately, so the diagonal (per-mode) decomposition is also available.
    """
    h = scenario.hamiltonian()
    sweep = dyn.steady_state_blocks(h, grid, scenario["drive_mode"])
    return _sweep_table("spectrum", {
        "detuning_ev": sweep.grid, "phi_rad_total": (sweep, _radiated),
        "phi_rad_vacuum": (sweep, _port("rad_vacuum")),
        "phi_rad_vacuum_cross": (sweep, lambda amps, _: h.vacuum_cross_term(amps)),
        "phi_rad_cavity_port": (sweep, _port("rad_cavity")),
        "phi_ohmic_plasmon": (sweep, _port("ohmic_plasmon")),
        "phi_ohmic_emitter": (sweep, _port("ohmic_emitter"))}, scenario_metadata(scenario))


def yield_table(scenario, grid):
    """Table yield: quantum yield over the pump detunings grid, with and without cavity.

    The scenario is driven on its configured drive mode.
    """
    cavity, bare = _sweeps(scenario, grid, scenario["drive_mode"])
    return _sweep_table("yield", {"detuning_ev": cavity.grid, "yield_cavity": (cavity, _yield),
                                  "yield_bare": (bare, _yield)}, scenario_metadata(scenario))


def evolve_table(scenario, points, span_fs):
    """Table evolve: mode populations of the scenario with its emitter excited at t = 0.

    The time grid has `points` samples over span_fs, or over ten lifetimes
    of the slowest branch when span_fs is None.
    """
    h = scenario.hamiltonian()
    times_fs = None if span_fs is None else np.linspace(0.0, span_fs, points)
    trace = dyn.evolve(h, dyn.mode_vector(h, "emitter"), times_fs, points)
    return ResultTable.from_arrays(
        "evolve",
        ("time_fs", "pop_plasmon", "pop_cavity", "pop_emitter", "pop_total"),
        (trace.times_fs, trace.population("plasmon"), trace.population("cavity"),
         trace.population("emitter"), trace.total),
        scenario_metadata(scenario),
    )


# ---------------------------------------------------------------------------
# (D, Q) enhancement maps and the optimal quality factor
# ---------------------------------------------------------------------------

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
    return scenario.with_params(distance_nm=d, G_ev=G, gamma_m_ev=gamma_m,
                                delta_0_ev=dyn.fano_detuning(p["J_ev"], p["g1_ev"], G))


def _bare_reference(at_d):
    """(yield, radiated power) of the bare system at Delta_p,c = Delta_0, over the distance shape.

    at_d is a scenario placed by with_emitter_at.  With g1 = J = 0 the exact
    zeros keep the plasmon and emitter amplitudes independent of the cavity
    width, bit for bit, and the cavity port radiates gamma_c * 0 = 0, so one
    solve at the scenario's own Q serves every Q.
    """
    _, powers = dyn.steady_state_sweep(
        with_cavity(at_d, 0.0).hamiltonian(bare=True), at_d["delta_0_ev"], "emitter")
    return net.yield_from_powers(powers), net.radiated_power(powers)


def _enhancements(at_d, q_factor, bare):
    """Yield and power enhancement over the bare system at Delta_p,c = Delta_0.

    at_d is a scenario placed by with_emitter_at, and bare its _bare_reference;
    its cavity is put on resonance at each q_factor, which broadcasts against
    the distance shape, in one batched steady-state solve.
    """
    stack = with_cavity(at_d, 0.0, np.asarray(q_factor, dtype=float))
    _, powers = dyn.steady_state_sweep(stack.hamiltonian(), at_d["delta_0_ev"], "emitter")
    return net.yield_from_powers(powers) / bare[0], net.radiated_power(powers) / bare[1]


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
    at_d = with_emitter_at(scenario, d[:, None])
    ye, pe = _enhancements(at_d, q[None, :], _bare_reference(at_d))
    if not (np.all(np.isfinite(ye)) and np.all(np.isfinite(pe))):
        raise DomainError("non-finite enhancement in map")
    dd, qq = np.meshgrid(d, q, indexing="ij")
    return ResultTable.from_arrays(
        "map", ("d_nm", "q_factor", "yield_enhancement", "power_enhancement"),
        (dd.ravel(), qq.ravel(), ye.ravel(), pe.ravel()),
        {**scenario_metadata(scenario), "d_points": d.size, "q_points": q.size},
    )


def optimal_Q(scenario, distances_nm, objective="yield"):
    """Quality factor maximizing the scenario's enhancement at each emitter distance.

    Returns the arrays (q_opt, value, boundary), one entry per distance in
    input order; boundary is true where the maximum sits on the search
    boundary.  The distances form one (distances, 1) stack, so one quench
    sum covers them.  A coarse scan of OPTQ_COARSE_POINTS log-spaced Q over
    Q_RANGE brackets each maximum (verifying unimodality at scan
    resolution); golden-section steps then narrow every bracket in
    lockstep, each distance stopping when its own meets OPTQ_REL_TOL.  A
    maximum on the scan boundary is reported, not raised, and takes no
    steps.  A stopped distance is probed at its scan maximum, a Q already
    solved, so each result equals a search at its distance alone.
    """
    if objective not in ("yield", "power"):
        raise DomainError(f"objective must be yield or power, got {objective!r}")
    at_d = with_emitter_at(scenario, np.asarray(distances_nm, dtype=float).reshape(-1, 1))
    which = 0 if objective == "yield" else 1
    bare = _bare_reference(at_d)

    def values_at(log_q):  # the scalar power: numpy's array power can differ in the last bit
        return _enhancements(at_d, [[10.0 ** float(x)] for x in log_q], bare)[which][:, 0]

    grid = np.linspace(math.log10(Q_RANGE[0]), math.log10(Q_RANGE[1]), OPTQ_COARSE_POINTS)
    values = _enhancements(at_d, [10.0 ** float(x) for x in grid], bare)[which]
    i_best = np.argmax(values, axis=1)
    x_best, boundary = grid[i_best], (i_best == 0) | (i_best == grid.size - 1)
    inner = np.clip(i_best, 1, grid.size - 2)
    a, b = grid[inner - 1], grid[inner + 1]
    tol = math.log10(1.0 + OPTQ_REL_TOL)
    c, d_pt = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = values_at(np.where(boundary, x_best, c)), values_at(np.where(boundary, x_best, d_pt))
    active = ~boundary & ((b - a) > tol)
    while active.any():
        left = active & (fc > fd)  # the maximum lies in [a, d], else in [c, b]
        right = active & ~left
        b, d_pt, fd = np.where(left, d_pt, b), np.where(left, c, d_pt), np.where(left, fc, fd)
        a, c, fc = np.where(right, c, a), np.where(right, d_pt, c), np.where(right, fd, fc)
        x_new = np.where(left, b - GOLDEN * (b - a), a + GOLDEN * (b - a))
        f_new = values_at(np.where(active, x_new, x_best))
        c, fc = np.where(left, x_new, c), np.where(left, f_new, fc)
        d_pt, fd = np.where(right, x_new, d_pt), np.where(right, f_new, fd)
        active &= (b - a) > tol
    x_opt = np.where(boundary, x_best, 0.5 * (a + b))
    value = np.where(boundary, values.max(axis=1), values_at(x_opt))
    return np.array([10.0 ** float(x) for x in x_opt]), value, boundary


def optq_table(scenario, distances_nm, objective):
    """Table optq: the optimal_Q search at each emitter distance, in the given order."""
    q_opt, value, boundary = optimal_Q(scenario, distances_nm, objective)
    return ResultTable.from_arrays(
        "optq", ("d_nm", "q_opt", "value", "objective", "boundary"),
        (distances_nm, q_opt, value, [objective] * len(q_opt), boundary.astype(int)),
        {**scenario_metadata(scenario), "objective": objective})


# ---------------------------------------------------------------------------
# strong coupling: calibration, Rabi traces and the anti-crossing
# ---------------------------------------------------------------------------

def with_cavity(scenario, delta_ce_ev, q_factor=None):
    """The scenario with its cavity at delta_ce_ev = omega_c - omega_e and quality factor q_factor.

    The cavity width follows at fixed Q (gamma_c = omega_c / Q); q_factor
    defaults to the scenario's.  delta_ce_ev (in eV) and q_factor may be
    arrays; the scenario's Hamiltonian is then a stack over them.
    """
    q = scenario["q_factor"] if q_factor is None else q_factor
    omega_c = scenario["omega_e_ev"] + delta_ce_ev
    with np.errstate(over="ignore"):  # build_three_mode names a gamma_c beyond range
        gamma_c = omega_c / q
    return scenario.with_params(q_factor=q, delta_ce_ev=delta_ce_ev, omega_c_ev=omega_c,
                                gamma_c_ev=gamma_c)


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
    total = two_g_target / (abs(s.real) or abs(s))  # Re s is 0 with the plasmon on resonance
    frac = min(max((kappa2_target - gamma_e) / (gamma_c - gamma_e), 1e-6), 1 - 1e-6)
    seed = np.array([math.sqrt(frac * total), math.sqrt((1.0 - frac) * total)])

    target = np.array([two_g_target, kappa2_target])

    def residuals_and_jacobian(x):
        # H is complex symmetric, so its left eigenvectors are the transposed
        # right ones and d lambda / d p = v^T (dH/dp) v / v^T v; x = (|G|, |g1|)
        # enters as -G on the plasmon-emitter and -g1 on the plasmon-cavity pair
        h = base.with_params(g1_ev=-x[1], G_ev=-x[0], J_ev=0.0).hamiltonian()
        lam, vecs = np.linalg.eig(h.matrix)
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
    with np.errstate(over="ignore", invalid="ignore"):  # a value beyond range cannot converge
        for _ in range(CALIBRATION_MAX_STEPS):
            res, jac = residuals_and_jacobian(x)
            try:
                step = np.linalg.solve(jac, res)
            except np.linalg.LinAlgError:
                break
            x = x - step
            if not np.all(np.isfinite(x)):
                break
            if np.linalg.norm(step) <= 1e-13 * np.linalg.norm(x) < math.inf:
                converged = True
                break
        if converged:
            res = residuals_and_jacobian(x)[0]
        elif np.all(np.isfinite(x)) and np.isinf(np.linalg.norm(x)):  # the step test needs it
            raise CalibrationError(
                f"coupling calibration target 2 g_eff = {two_g_target:.3g} eV is beyond what a "
                "double can square: the fitted couplings' norm overflows")
    res = [float(r) for r in res]
    if not converged or max(abs(r) for r in res) > 1e-3:
        raise CalibrationError(f"coupling calibration did not converge: residuals {res}")
    G_eff, g1_eff = (abs(float(v)) for v in x)

    mu_1 = cpl.plasmon_effective_dipole(p["gamma_1r_ev"], p["omega_1_ev"])
    G_est = abs(float(_distance_law(p, p["distance_nm"])[0]))
    g1_est = cpl.vacuum_coupling(mu_1, p["omega_e_ev"], p["vc_um3"] * 1e9, p["eps_b"])
    G_est_eff, g1_est_eff = cpl.project_couplings(G_est, g1_est, p["theta_deg"])
    if G_est_eff == 0.0 or g1_est_eff == 0.0:
        raise ConfigError(f"distance_nm = {p['distance_nm']:g} with theta_deg = {p['theta_deg']:g} "
                          "gives a point-dipole coupling of 0: no calibrated/estimated ratio")
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


def run_fig3(scenario, spectrum_points=2001):
    """Tables fig3_traces and fig3_spectrum: Rabi oscillations and the emission doublet.

    The scenario must be calibrated.  The emitter starts excited; the traces
    have 4096 points over nine periods of the calibration's target
    splitting, at each TRACE_Q_FACTORS Q and without the cavity, and the
    oscillation maxima of each after the settling window are result.*
    metadata.  The spectrum is
    the scenario's own, with and without cavity.
    """
    if not scenario.calibration:
        raise DomainError(f"fig3 needs a calibrated scenario; {scenario.name!r} has no calibration")
    p = scenario.params
    span_natural = 9.0 * 2.0 * math.pi / scenario.calibration["two_g_eff_target_ev"]
    times_fs = to_fs(np.linspace(0.0, span_natural, 4096))
    settle_fs = float(to_fs(10.0 / (p["gamma_1r_ev"] + p["gamma_o_ev"])))
    meta = {**scenario_metadata(scenario), "result.settle_fs": settle_fs}
    traces = {}
    for label, h in fig3_hamiltonians(scenario).items():
        traces[label] = dyn.evolve(h, dyn.mode_vector(h, "emitter"), times_fs).population("emitter")
        meta[f"result.maxima_{label}"] = dyn.count_oscillation_maxima(
            times_fs, traces[label], settle_fs)
    table_traces = ResultTable.from_arrays(
        "fig3_traces", ("time_fs", *(f"pop_{label}" for label in traces)),
        (times_fs, *traces.values()), meta)

    cavity, bare = _sweeps(scenario, dyn.Linspace(-8e-3, 8e-3, spectrum_points), "emitter")
    return table_traces, _sweep_table("fig3_spectrum", {
        "detuning_ev": cavity.grid, "phi_rad_cavity": (cavity, _radiated),
        "phi_rad_bare": (bare, _radiated)}, meta)


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
    for b in range(branches.eigenvalues.shape[1]):
        columns += [f"branch{b}_re_ev", f"branch{b}_im_ev"]
        arrays += [branches.eigenvalues[:, b].real, branches.eigenvalues[:, b].imag]
    return ResultTable.from_arrays(name, columns, arrays, meta)


def run_fig4(scenario, sweep_values, spectrum_points):
    """Tables fig4_branches and fig4_spectra: the anti-crossing and its emission-spectra map.

    The branches are the scenario's own; the spectra are those of the same
    system at cavity quality factor SPECTRA_Q, one batched solve over
    (detuning sweep, pump detuning), one row per pair, sweep-major.
    """
    sweep = np.asarray(sweep_values, dtype=float)
    table_branches = branch_table("fig4_branches", scenario, sweep)
    at_q = with_cavity(scenario, 0.0, SPECTRA_Q)
    at_q = Scenario(f"{scenario.name}_q{SPECTRA_Q:g}", at_q.params, at_q.provenance, at_q.notes,
                    at_q.calibration)
    spectra = dyn.steady_state_blocks(with_cavity(at_q, -sweep[:, None]).hamiltonian(),
                                      dyn.Linspace(-8e-3, 8e-3, spectrum_points), "emitter")
    return table_branches, _sweep_table("fig4_spectra", {
        "delta_ec_ev": sweep[:, None], "detuning_ev": spectra.grid,
        "phi_rad_total": (spectra, _radiated)}, scenario_metadata(at_q))
