"""Scenario registry: figure regressions, (D, Q) enhancement maps and coupling calibration.

Every scenario resolves to a flat parameter dictionary with per-parameter
provenance (first_principles | paper_exact | calibrated), which is embedded
verbatim in result metadata.  Sweeps build one Hamiltonian stack and solve
it in one batched call; a standalone map cell is a 1x1 batch of the same
code, so it reproduces its map entry bit for bit.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import root

from . import couplings as cpl
from . import dynamics as dyn
from . import materials as mat
from . import network as net
from .errors import CalibrationError, DomainError
from .quantities import to_fs

#: default (D, Q) map axes: log grids bracketing all features
D_GRID_NM = (2.0, 30.0, 61)
Q_GRID = (1e2, 1e7, 61)

#: anti-crossing calibration targets: (splitting, smaller linewidth) in eV
CALIBRATION_TARGETS = (3.5e-3, 0.11e-3)

#: quality factor of the anti-crossing scenario; the published linewidth
#: pair (1.28, 0.11) meV is only reachable with a cavity width near
#: omega_c / 1e3 (the dark state's width is bounded by max(gamma_c, gamma_e))
ANTICROSSING_Q = 1e3

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Scenario:
    """A fully resolved parameter set plus the provenance of every number."""

    name: str
    params: dict  # flat, snake_case keys with units in the name
    provenance: dict  # parameter key -> first_principles | paper_exact | calibrated
    notes: tuple = ()

    def __getitem__(self, key):
        return self.params[key]

    def hamiltonian(self, bare=False):
        """Three-mode Hamiltonian; a stack when any parameter is an array.

        bare decouples the cavity (g1 = J = 0).
        """
        p = self.params
        plasmon = net.plasmon_descriptor(p["delta_1e_ev"], p["gamma_1r_ev"], p["gamma_o_ev"])
        cavity = net.cavity_descriptor(p["delta_ce_ev"], p["gamma_c_ev"])
        emitter = net.emitter_descriptor(p["gamma_s_ev"], p["gamma_m_ev"])
        g1, J = (0.0, 0.0) if bare else (p["g1_ev"], p["J_ev"])
        return net.build_three_mode(cpl.CouplingSet(g1, p["G_ev"], J), plasmon, cavity, emitter)

    def channels(self, hamiltonian=None):
        return net.standard_channels("with_emitter", hamiltonian or self.hamiltonian())


# ---------------------------------------------------------------------------
# ingredient helpers
# ---------------------------------------------------------------------------

def reference_sphere_system(radius_nm=10.0, vc_um3=1.0, q_factor=1e5, mu_e=1.0, distance_nm=10.0):
    """First-principles ingredients of the resonant sphere-cavity-emitter system.

    Everything is derived from the Drude metal and the geometry; the cavity,
    emitter and dipolar mode are on resonance.
    """
    metal = mat.drude_gold()
    env = mat.Environment(1.0)
    particle = mat.Nanoparticle(mat.Sphere(radius_nm), metal)
    omega_1 = mat.sphere_mode_frequency(metal, env, 1)
    gamma_1r = mat.dipolar_radiative_rate(particle, env)
    mu_1 = cpl.plasmon_effective_dipole(gamma_1r, omega_1)
    vc_nm3 = vc_um3 * 1e9
    values = {
        "eps_inf": metal.eps_inf,
        "omega_p_ev": metal.omega_p,
        "gamma_o_ev": metal.gamma_o,
        "eps_b": env.eps_b,
        "radius_nm": radius_nm,
        "mu_e_nm": mu_e,
        "distance_nm": distance_nm,
        "vc_um3": vc_um3,
        "q_factor": q_factor,
        "omega_1_ev": omega_1,
        "gamma_1r_ev": gamma_1r,
        "mu_1_e_nm": mu_1,
        "gamma_c_ev": omega_1 / q_factor,
        "g1_magnitude_ev": cpl.vacuum_coupling(mu_1, omega_1, vc_nm3, env.eps_b),
        "J_magnitude_ev": cpl.vacuum_coupling(mu_e, omega_1, vc_nm3, env.eps_b),
        "G_magnitude_ev": abs(cpl.dipole_dipole_coupling(
            mu_1, mu_e, radius_nm + distance_nm, env.eps_b, "longitudinal",
            extent=radius_nm)),
        "gamma_s_ev": cpl.free_space_decay(mu_e, omega_1, env.eps_b),
    }
    return metal, env, particle, values


def quench_rate_calibrated(distance_nm, particle, env, omega, mu_e=1.0,
                           orientation="tangential", anchor_nm=10.0, anchor_ev=83e-6):
    """Multipole quench rate rescaled so gamma_m(anchor_nm) equals anchor_ev.

    The first-principles sum fixes the distance dependence; the single
    calibration constant absorbs the unknown orientation convention of the
    quoted 83 ueV value.  A 1-D distance array gives an array, with one sum
    per distance and one for the anchor.
    """
    def raw(d):
        emitter = cpl.Emitter(mu=mu_e, omega_e=omega, distance=d, orientation=orientation)
        return cpl.multipole_quench_rate(emitter, particle, env, omega)

    if np.ndim(distance_nm) == 0:
        return anchor_ev * raw(distance_nm) / raw(anchor_nm)
    return anchor_ev * np.array([raw(d) for d in distance_nm]) / raw(anchor_nm)


# ---------------------------------------------------------------------------
# resonant sphere scenarios (dissipation spectra and quantum yield)
# ---------------------------------------------------------------------------

def fig_dissipation_scenario():
    """Cavity-engineered sphere pumped via free space, no emitter (two modes)."""
    metal, env, particle, v = reference_sphere_system()
    params = {
        "model": "two_mode",
        "eps_inf": v["eps_inf"], "omega_p_ev": v["omega_p_ev"], "gamma_o_ev": v["gamma_o_ev"],
        "eps_b": v["eps_b"], "radius_nm": v["radius_nm"],
        "vc_um3": v["vc_um3"], "q_factor": v["q_factor"],
        "omega_1_ev": v["omega_1_ev"],
        "gamma_1r_ev": 2.45e-3,
        "gamma_c_ev": v["gamma_c_ev"],
        "g1_ev": -2.9e-3,
        "delta_1c_ev": 0.0,
    }
    prov = {k: "first_principles" for k in params if k not in ("model",)}
    prov.update({"gamma_1r_ev": "paper_exact", "g1_ev": "paper_exact"})
    return Scenario("fig1c", params, prov)


@dataclass(frozen=True, eq=False)
class DissipationSpectra:
    scenario: Scenario
    detunings: np.ndarray
    rad_cavity: np.ndarray  # total radiated power, engineered system
    rad_bare: np.ndarray
    abs_cavity: np.ndarray  # Ohmic absorption of the dipolar mode
    abs_bare: np.ndarray


def run_fig1c(points=2001, half_span_ev=2e-3):
    """Output powers of the pumped MNP vs pump-cavity detuning, with/without cavity."""
    scenario = fig_dissipation_scenario()
    p = scenario.params
    plasmon = net.plasmon_descriptor(p["delta_1c_ev"], p["gamma_1r_ev"], p["gamma_o_ev"])
    cavity = net.cavity_descriptor(0.0, p["gamma_c_ev"])
    h_cav = net.build_two_mode(p["g1_ev"], plasmon, cavity)
    h_bare = net.build_two_mode(0.0, plasmon, cavity)
    channels = net.standard_channels("mnp_only", h_cav)
    detunings = np.linspace(-half_span_ev, half_span_ev, points)
    _, p_cav = dyn.steady_state_sweep(h_cav, detunings, "plasmon", channels)
    _, p_bare = dyn.steady_state_sweep(h_bare, detunings, "plasmon", channels)
    return DissipationSpectra(
        scenario=scenario,
        detunings=detunings,
        rad_cavity=p_cav["rad_plasmon"] + p_cav["rad_cavity"],
        rad_bare=p_bare["rad_plasmon"] + p_bare["rad_cavity"],
        abs_cavity=p_cav["ohmic_plasmon"],
        abs_bare=p_bare["ohmic_plasmon"],
    )


def fig_yield_scenario(paper_exact=True):
    """Resonant sphere + emitter system of the quantum-yield study.

    paper_exact pins {J, G, gamma_s, gamma_m, g1, gamma_1r} to the quoted
    values; otherwise everything is derived from the geometry, with the
    quench rate anchored at D = 10 nm.
    """
    metal, env, particle, v = reference_sphere_system()
    base = {
        "model": "three_mode",
        "eps_inf": v["eps_inf"], "omega_p_ev": v["omega_p_ev"], "gamma_o_ev": v["gamma_o_ev"],
        "eps_b": v["eps_b"], "radius_nm": v["radius_nm"],
        "mu_e_nm": v["mu_e_nm"], "distance_nm": v["distance_nm"],
        "vc_um3": v["vc_um3"], "q_factor": v["q_factor"],
        "omega_1_ev": v["omega_1_ev"],
        "gamma_c_ev": v["gamma_c_ev"],
        "delta_1e_ev": 0.0, "delta_ce_ev": 0.0,
        "drive_mode": "emitter",
    }
    prov = {k: "first_principles" for k in base if k != "model"}
    if paper_exact:
        coupl = {
            "gamma_1r_ev": 2.45e-3, "g1_ev": -2.9e-3, "G_ev": -7.2e-3, "J_ev": -144e-6,
            "gamma_s_ev": 3e-6, "gamma_m_ev": 83e-6,
        }
        prov.update({k: "paper_exact" for k in coupl})
        name = "fig2_paper_exact"
    else:
        coupl = {
            "gamma_1r_ev": v["gamma_1r_ev"],
            "g1_ev": -v["g1_magnitude_ev"],
            "G_ev": -v["G_magnitude_ev"],
            "J_ev": -v["J_magnitude_ev"],
            "gamma_s_ev": v["gamma_s_ev"],
            "gamma_m_ev": quench_rate_calibrated(
                v["distance_nm"], particle, env, v["omega_1_ev"], v["mu_e_nm"]),
        }
        prov.update({k: "first_principles" for k in coupl})
        prov["gamma_m_ev"] = "calibrated"
        name = "fig2_first_principles"
    params = {**base, **coupl}
    params["delta_0_ev"] = dyn.fano_detuning(params["J_ev"], params["g1_ev"], params["G_ev"])
    prov["delta_0_ev"] = "derived"
    return Scenario(name, params, prov)


@dataclass(frozen=True, eq=False)
class YieldSpectra:
    scenario: Scenario
    detunings: np.ndarray
    yield_cavity: np.ndarray
    yield_bare: np.ndarray
    rad_cavity: np.ndarray
    rad_bare: np.ndarray
    abs_plasmon: np.ndarray  # normalized dipolar-mode absorption, engineered system
    delta_0: float
    yield_at_delta0: float
    bare_yield_at_delta0: float
    rad_enhancement_at_delta0: float


def run_fig2(paper_exact=True, points=401, half_span_ev=1e-3):
    """Quantum yield and radiated power vs pump-cavity detuning.

    The grid is centered on the interference detuning Delta_0 with a 5 ueV
    step by default; the physical yield maximum sits a few ueV below
    Delta_0 (the Fano zero of the dipolar amplitude rides the shoulder of
    the cavity feature), so finer steps would resolve that offset.
    """
    scenario = fig_yield_scenario(paper_exact)
    delta_0 = scenario["delta_0_ev"]
    h = scenario.hamiltonian()
    h_bare = scenario.hamiltonian(bare=True)
    channels = scenario.channels(h)
    detunings = delta_0 + np.linspace(-half_span_ev, half_span_ev, points)

    amps, powers = dyn.steady_state_sweep(h, detunings, "emitter", channels)
    amps_b, powers_b = dyn.steady_state_sweep(h_bare, detunings, "emitter", channels)
    eta = dyn.yield_from_powers(channels, powers)
    eta_b = dyn.yield_from_powers(channels, powers_b)
    rad = sum(powers[c.id] for c in channels if c.kind == "radiative")
    rad_b = sum(powers_b[c.id] for c in channels if c.kind == "radiative")
    abs_pl = powers["ohmic_plasmon"] / np.max(powers["ohmic_plasmon"])

    drive = net.DriveSpec("emitter", delta_0)
    st = dyn.steady_state(h, drive, channels)
    st_b = dyn.steady_state(h_bare, drive, channels)
    return YieldSpectra(
        scenario=scenario,
        detunings=detunings,
        yield_cavity=eta,
        yield_bare=eta_b,
        rad_cavity=rad,
        rad_bare=rad_b,
        abs_plasmon=abs_pl,
        delta_0=delta_0,
        yield_at_delta0=dyn.quantum_yield(st),
        bare_yield_at_delta0=dyn.quantum_yield(st_b),
        rad_enhancement_at_delta0=st.radiative_power / st_b.radiative_power,
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


def _enhancements(d_nm, q_factor, gamma_m_scale=1.0):
    """Yield and power enhancement over the bare system on a (D, Q) grid.

    Evaluated at Delta_p,c = Delta_0(D); returns (yield (len(d), len(q)),
    power (len(d), len(q)), Delta_0 (len(d),)).  The distance-dependent
    ingredients are scalar calls once per distance; the engineered and the
    bare system are each one batched steady-state solve.
    """
    d = np.asarray(d_nm, dtype=float)
    q = np.asarray(q_factor, dtype=float)
    systems = [reference_sphere_system(distance_nm=dd) for dd in d]
    _, env, particle, v = systems[0]  # only G depends on the distance
    g1, J = -v["g1_magnitude_ev"], -v["J_magnitude_ev"]
    G = np.array([-system[3]["G_magnitude_ev"] for system in systems])
    delta_0 = np.array([dyn.fano_detuning(J, g1, GG) for GG in G])
    gamma_m = gamma_m_scale * quench_rate_calibrated(
        d, particle, env, v["omega_1_ev"], v["mu_e_nm"])
    params = {
        "delta_1e_ev": 0.0, "delta_ce_ev": 0.0,
        "gamma_1r_ev": v["gamma_1r_ev"], "gamma_o_ev": v["gamma_o_ev"],
        "gamma_c_ev": v["omega_1_ev"] / q[None, :],
        "gamma_s_ev": v["gamma_s_ev"], "gamma_m_ev": gamma_m[:, None],
        "g1_ev": g1, "G_ev": G[:, None], "J_ev": J,
    }
    scenario = Scenario("map", params, {})
    h = scenario.hamiltonian()
    channels = scenario.channels(h)
    _, powers = dyn.steady_state_sweep(h, delta_0[:, None], "emitter", channels)
    _, powers_b = dyn.steady_state_sweep(
        scenario.hamiltonian(bare=True), delta_0[:, None], "emitter", channels)

    def radiative(pw):
        return sum(pw[c.id] for c in channels if c.kind == "radiative")

    yield_enh = dyn.yield_from_powers(channels, powers) / dyn.yield_from_powers(channels, powers_b)
    return yield_enh, radiative(powers) / radiative(powers_b), delta_0


def map_cell(d_nm, q_factor, gamma_m_scale=1.0):
    """One (D, Q) cell of the enhancement map, evaluated at Delta_p,c = Delta_0(D, Q).

    Couplings follow the first-principles distance laws; the quench rate is
    the calibrated multipole sum.  A 1x1 batch of the map's code, so
    standalone calls reproduce map entries bit-for-bit.
    """
    ye, pe, delta_0 = _enhancements([d_nm], [q_factor], gamma_m_scale)
    return MapCell(
        d_nm=d_nm,
        q_factor=q_factor,
        yield_enhancement=float(ye[0, 0]),
        power_enhancement=float(pe[0, 0]),
        delta_0_ev=float(delta_0[0]),
    )


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Per-cell scalar outputs over strictly monotone (D, Q) axes."""

    d_nm: np.ndarray
    q_factor: np.ndarray
    yield_enhancement: np.ndarray  # (len(d), len(q))
    power_enhancement: np.ndarray


def enhancement_map(d_grid=None, q_grid=None):
    """Yield- and power-enhancement maps over emitter distance and cavity Q."""
    d = np.geomspace(*D_GRID_NM) if d_grid is None else np.asarray(d_grid, dtype=float)
    q = np.geomspace(*Q_GRID) if q_grid is None else np.asarray(q_grid, dtype=float)
    if d.ndim != 1 or q.ndim != 1 or d.size == 0 or q.size == 0:
        raise DomainError("map grids must be non-empty 1-D arrays")
    if np.any(np.diff(d) <= 0) or np.any(np.diff(q) <= 0):
        raise DomainError("map grids must be strictly increasing")
    ye, pe, _ = _enhancements(d, q)
    if not (np.all(np.isfinite(ye)) and np.all(np.isfinite(pe))):
        raise DomainError("non-finite enhancement in map")
    return SweepGrid(d, q, ye, pe)


@dataclass(frozen=True)
class OptimalQ:
    q_opt: float
    value: float
    objective: str
    boundary: bool  # true when the maximum sits on the search boundary


def optimal_Q(d_nm, objective="yield", q_bounds=(1e2, 1e7), coarse_points=25, rel_tol=1e-3):
    """Quality factor maximizing the enhancement at fixed distance.

    A coarse log-spaced scan brackets the maximum (verifying unimodality at
    scan resolution), then golden-section refinement narrows Q to rel_tol.
    A maximum on the scan boundary is reported, not raised.
    """
    if objective not in ("yield", "power"):
        raise DomainError(f"objective must be yield or power, got {objective!r}")

    def value_at(log_q):
        cell = map_cell(d_nm, 10.0**log_q)
        return cell.yield_enhancement if objective == "yield" else cell.power_enhancement

    lo, hi = math.log10(q_bounds[0]), math.log10(q_bounds[1])
    grid = np.linspace(lo, hi, coarse_points)
    coarse = _enhancements([d_nm], [10.0**x for x in grid])
    values = coarse[0 if objective == "yield" else 1][0].tolist()
    i_best = int(np.argmax(values))
    if i_best in (0, len(grid) - 1):
        return OptimalQ(10.0**grid[i_best], values[i_best], objective, boundary=True)

    a, b = grid[i_best - 1], grid[i_best + 1]
    tol = math.log10(1.0 + rel_tol)
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


# ---------------------------------------------------------------------------
# strong-coupling scenarios: tilted ellipsoid, calibrated couplings
# ---------------------------------------------------------------------------

def _anticrossing_ingredients():
    """Fixed ingredients of the tilted-ellipsoid strong-coupling geometry."""
    metal = mat.drude_gold()
    env = mat.Environment(1.0)
    ellipsoid = mat.Ellipsoid(33.0, 5.5, 5.5)
    particle = mat.Nanoparticle(ellipsoid, metal)
    omega_1 = mat.ellipsoid_mode_frequency(
        metal, env, mat.depolarization_factors(ellipsoid)[0])
    gamma_1r = mat.dipolar_radiative_rate(particle, env, axis=1)
    omega_e = omega_1 - 0.6
    gamma_s = cpl.free_space_decay(1.0, omega_e, env.eps_b)
    return {
        "metal": metal, "env": env, "particle": particle,
        "omega_1_ev": omega_1, "gamma_1r_ev": gamma_1r,
        "omega_e_ev": omega_e, "gamma_s_ev": gamma_s,
        "delta_1e_ev": 0.6, "theta_deg": 60.0,
        "distance_nm": 5.0, "vc_um3": 0.1,
    }


def _pair_metrics(matrix):
    """(Re separation, larger width, smaller width) of the two near-zero branches."""
    lam = np.linalg.eigvals(matrix)
    order = np.argsort(np.abs(lam.real), kind="stable")
    a, b = lam[order[0]], lam[order[1]]
    widths = sorted((-2.0 * a.imag, -2.0 * b.imag), reverse=True)
    return abs(a.real - b.real), widths[0], widths[1]


def calibrate_fig3_couplings(targets=CALIBRATION_TARGETS, q_factor=ANTICROSSING_Q):
    """Fit the projected coupling magnitudes (|G|, |g1|) to the anti-crossing targets.

    Two-parameter root-find so the eigenstructure at zero emitter-cavity
    detuning reproduces {splitting 2 g_eff, smaller linewidth kappa_2} to
    1e-3 relative.  The cavity-emitter coupling J is held at zero (emitter
    dipole perpendicular to the cavity polarization).

    Returns (CouplingSet, diagnostics).  The diagnostics include the
    first-principles point-dipole estimates, which underestimate the
    near-tip coupling; the calibrated/estimated ratios are reported and
    expected to exceed 1.
    """
    two_g_target, kappa2_target = targets
    if two_g_target <= 0 or kappa2_target <= 0:
        raise DomainError("calibration targets must be positive")
    ing = _anticrossing_ingredients()
    gamma_1 = ing["gamma_1r_ev"] + ing["metal"].gamma_o
    gamma_c = ing["omega_e_ev"] / q_factor
    if kappa2_target >= gamma_c and kappa2_target >= ing["gamma_s_ev"]:
        if kappa2_target > max(gamma_c, ing["gamma_s_ev"]):
            raise CalibrationError(
                f"kappa_2 target {kappa2_target} eV exceeds every bare width "
                f"(gamma_c={gamma_c:.3e}, gamma_e={ing['gamma_s_ev']:.3e}); the dark-state "
                "width is a coupling-weighted mix of the bare widths and cannot reach it")

    # closed-form seed from adiabatic elimination of the far-detuned plasmon
    s = 1.0 / (ing["delta_1e_ev"] - 0.5j * gamma_1)
    total = two_g_target / s.real
    frac = min(max((kappa2_target - ing["gamma_s_ev"]) / (gamma_c - ing["gamma_s_ev"]), 1e-6), 1 - 1e-6)
    seed = np.array([math.sqrt(frac * total), math.sqrt((1.0 - frac) * total)])

    def residuals(x):
        couplings = cpl.CouplingSet(g1=-x[1], G=-x[0], J=0.0)
        scenario = fig_strong_coupling_scenario(q_factor, couplings, 0.0, ing)
        sep, _, kappa2 = _pair_metrics(scenario.hamiltonian().matrix)
        return [sep / two_g_target - 1.0, kappa2 / kappa2_target - 1.0]

    sol = root(residuals, seed, method="hybr", tol=1e-13)
    res = residuals(sol.x)
    if not sol.success or max(abs(r) for r in res) > 1e-3:
        raise CalibrationError(
            f"coupling calibration did not converge: residuals {res}", residuals=res)
    G_eff, g1_eff = (abs(float(x)) for x in sol.x)

    mu_1 = cpl.plasmon_effective_dipole(ing["gamma_1r_ev"], ing["omega_1_ev"])
    d_tip = ing["particle"].shape.a1 + ing["distance_nm"]
    G_est = abs(cpl.dipole_dipole_coupling(mu_1, 1.0, d_tip, 1.0, "longitudinal"))
    g1_est = cpl.vacuum_coupling(mu_1, ing["omega_e_ev"], ing["vc_um3"] * 1e9, 1.0)
    G_est_eff, g1_est_eff = cpl.project_couplings(G_est, g1_est, ing["theta_deg"])
    diagnostics = {
        "point_dipole_G_eff_ev": G_est_eff,
        "point_dipole_g1_eff_ev": g1_est_eff,
        "ratio_G_calibrated_over_estimate": G_eff / G_est_eff,
        "ratio_g1_calibrated_over_estimate": g1_eff / g1_est_eff,
        "q_factor": q_factor,
        "residuals": tuple(res),
    }
    return cpl.CouplingSet(g1=-g1_eff, G=-G_eff, J=0.0), diagnostics


def fig_strong_coupling_scenario(q_factor, couplings=None, delta_ce_ev=1.5e-3,
                                 ingredients=None):
    """Tilted-ellipsoid scenario at one cavity quality factor.

    The emitter sits at the vertex, its dipole perpendicular to the cavity
    polarization (J = 0); the particle's long axis is tilted 60 degrees, so
    the calibrated couplings are the projected values entering the
    Hamiltonian.  The emitter's multipole quenching is taken as zero: at
    0.23 eV the ellipsoid multipoles are far detuned.  The anti-crossing
    study puts the cavity on resonance (delta_ce_ev = 0).
    """
    ing = ingredients or _anticrossing_ingredients()
    if couplings is None:
        couplings, _ = calibrate_fig3_couplings()
    omega_c = ing["omega_e_ev"] + delta_ce_ev
    params = {
        "model": "three_mode",
        "eps_inf": ing["metal"].eps_inf, "omega_p_ev": ing["metal"].omega_p,
        "gamma_o_ev": ing["metal"].gamma_o, "eps_b": ing["env"].eps_b,
        "a1_nm": 33.0, "a2_nm": 5.5, "a3_nm": 5.5,
        "mu_e_nm": 1.0, "distance_nm": ing["distance_nm"],
        "theta_deg": ing["theta_deg"],
        "vc_um3": ing["vc_um3"], "q_factor": q_factor,
        "omega_1_ev": ing["omega_1_ev"], "omega_e_ev": ing["omega_e_ev"],
        "omega_c_ev": omega_c,
        "delta_1e_ev": ing["delta_1e_ev"], "delta_ce_ev": delta_ce_ev,
        "gamma_1r_ev": ing["gamma_1r_ev"],
        "gamma_c_ev": omega_c / q_factor,
        "gamma_s_ev": ing["gamma_s_ev"], "gamma_m_ev": 0.0,
        "g1_ev": couplings.g1, "G_ev": couplings.G, "J_ev": couplings.J,
        "drive_mode": "emitter",
    }
    prov = {k: "first_principles" for k in params if k != "model"}
    prov.update({"g1_ev": "calibrated", "G_ev": "calibrated", "J_ev": "paper_exact",
                 "gamma_m_ev": "calibrated"})
    notes = (
        "omega_e = omega_1 - 0.6 eV puts the emitter at 0.23 eV; the low absolute "
        "frequency follows from the published detunings and is flagged as an ambiguity",
        "gamma_m = 0: ellipsoid multipole modes are far detuned from the emitter",
    )
    return Scenario(f"fig3_q{q_factor:g}", params, prov, notes)


def cavity_detuned(scenario, delta_ec):
    """The scenario with its cavity at emitter-cavity detuning delta_ec = omega_e - omega_c.

    The cavity width follows at fixed Q (gamma_c = omega_c / Q).  delta_ec may
    be an array, in eV; the scenario's Hamiltonian is then a stack over it.
    """
    p = scenario.params
    omega_c = p["omega_e_ev"] - delta_ec
    return replace(scenario, params={
        **p, "delta_ce_ev": -delta_ec, "omega_c_ev": omega_c,
        "gamma_c_ev": omega_c / p["q_factor"]})


@dataclass(frozen=True, eq=False)
class StrongCouplingResult:
    couplings: cpl.CouplingSet
    calibration: dict
    times_fs: np.ndarray
    traces: dict  # label ("q1e3", ..., "no_cavity") -> emitter population array
    trace_maxima: dict  # label -> oscillation maxima count
    settle_fs: float
    spectrum: dyn.SpectrumResult  # emitter emission at Q = 1e4
    spectrum_bare: dyn.SpectrumResult
    branches: dyn.EigenBranchSet  # over emitter-cavity detuning
    metrics: dyn.AntiCrossingMetrics
    scenario: Scenario  # the Q = 1e4 scenario (spectrum parameters)


def anticrossing_branches(couplings, q_factor=ANTICROSSING_Q, half_span_ev=10e-3,
                          step_ev=0.5e-3, sweep_values=None):
    """Eigen branches of the strong-coupling system over emitter-cavity detuning."""
    if sweep_values is None:
        half_steps = int(round(half_span_ev / step_ev))
        sweep = step_ev * np.arange(-half_steps, half_steps + 1)  # exact zero at center
    else:
        sweep = np.asarray(sweep_values, dtype=float)
    scenario = fig_strong_coupling_scenario(q_factor, couplings, 0.0)
    return dyn.eigen_branches(cavity_detuned(scenario, sweep).hamiltonian().matrix, sweep)


def run_fig3_fig4(trace_points=4096, spectrum_points=2001):
    """Time traces, emission spectrum and anti-crossing branches of the calibrated system."""
    couplings, calibration = calibrate_fig3_couplings()
    two_g_target = CALIBRATION_TARGETS[0]
    ing = _anticrossing_ingredients()
    gamma_fast = ing["gamma_1r_ev"] + ing["metal"].gamma_o

    span_natural = 9.0 * 2.0 * math.pi / two_g_target
    times_fs = to_fs(np.linspace(0.0, span_natural, trace_points))
    settle_fs = float(to_fs(10.0 / gamma_fast))
    initial = np.array([0.0, 0.0, 1.0], dtype=complex)

    traces = {}
    maxima = {}
    for label, q in (("q1e3", 1e3), ("q1e4", 1e4), ("q1e5", 1e5)):
        scenario = fig_strong_coupling_scenario(q, couplings, ingredients=ing)
        trace = dyn.evolve(scenario.hamiltonian(), initial, times_fs)
        traces[label] = trace.population("emitter")
        maxima[label] = dyn.count_oscillation_maxima(
            times_fs, traces[label], threshold=1e-3, settle_fs=settle_fs)
    scenario4 = fig_strong_coupling_scenario(1e4, couplings, ingredients=ing)
    bare = scenario4.hamiltonian(bare=True)
    trace = dyn.evolve(bare, initial, times_fs)
    traces["no_cavity"] = trace.population("emitter")
    maxima["no_cavity"] = dyn.count_oscillation_maxima(
        times_fs, traces["no_cavity"], threshold=1e-3, settle_fs=settle_fs)

    h4 = scenario4.hamiltonian()
    channels = scenario4.channels(h4)
    detunings = np.linspace(-8e-3, 8e-3, spectrum_points)
    spectrum = dyn.emission_spectrum(h4, detunings, channels, "emitter")
    spectrum_bare = dyn.emission_spectrum(bare, detunings, channels, "emitter")

    branches = anticrossing_branches(couplings)
    metrics = dyn.anticrossing_metrics(branches)
    return StrongCouplingResult(
        couplings=couplings,
        calibration=calibration,
        times_fs=times_fs,
        traces=traces,
        trace_maxima=maxima,
        settle_fs=settle_fs,
        spectrum=spectrum,
        spectrum_bare=spectrum_bare,
        branches=branches,
        metrics=metrics,
        scenario=scenario4,
    )


def spectrum_peak_separation(detunings, power):
    """Separation of the two tallest local maxima of a spectrum (0 if single-peaked)."""
    p = np.asarray(power)
    idx = np.nonzero((p[1:-1] > p[:-2]) & (p[1:-1] > p[2:]))[0] + 1
    if len(idx) < 2:
        return 0.0
    top = sorted(idx, key=lambda i: -p[i])[:2]
    return float(abs(detunings[top[0]] - detunings[top[1]]))
