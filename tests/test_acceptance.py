"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each criterion is a list of named checks evaluated at its stated tolerance;
the line printed at the end of each test summarizes every check so a plain
`pytest -s tests/test_acceptance.py` reads as the acceptance report.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from plasmonsim import couplings as cpl
from plasmonsim import dynamics as dyn
from plasmonsim import experiments as exp
from plasmonsim import materials as mat
from plasmonsim import network as net
from plasmonsim.cli import main
from plasmonsim.config import parse_config
from plasmonsim.quantities import to_fs

from conftest import column, map_column, pair_metrics, random_system, spectrum_peak_separation


def _criterion(number, checks):
    failed = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    status = "FAIL" if failed else "PASS"
    summary = "; ".join(f"{name} {'ok' if ok else 'FAIL (' + detail + ')'}"
                        for name, ok, detail in checks)
    print(f"\nacceptance criterion {number}: {status} -- {summary}")
    assert not failed, f"criterion {number}: " + " | ".join(failed)


def _rel(value, target):
    return abs(value / target - 1.0)


# ---------------------------------------------------------------------------
# criterion 1: constants chain
# ---------------------------------------------------------------------------

def test_criterion_1_constants_chain(gold, vacuum, sphere10):
    checks = []

    # omega_1 against an independent root-finding oracle
    def resonance(w):
        return gold.eps_inf - gold.omega_p**2 / w**2 + 2.0 * vacuum.eps_b
    oracle = brentq(resonance, 1.0, 3.5, xtol=1e-14)
    omega_1 = mat.sphere_mode_frequency(gold, vacuum, 1)
    checks.append(("omega_1", abs(omega_1 - oracle) < 1e-4 and abs(omega_1 - 2.3094) < 1e-4,
                   f"{omega_1:.6f}"))

    gamma_1r = mat.dipolar_radiative_rate(sphere10, vacuum, *mat.dipolar_mode(sphere10, vacuum, 1))
    checks.append(("gamma_1r", _rel(gamma_1r, 2.45e-3) <= 0.02, f"{gamma_1r:.4e}"))

    gamma_s = cpl.free_space_decay(1.0, omega_1, 1.0)
    checks.append(("gamma_s", _rel(gamma_s, 3e-6) <= 0.05, f"{gamma_s:.4e}"))

    J = cpl.vacuum_coupling(1.0, omega_1, 1e9, 1.0)
    checks.append(("J", _rel(J, 144e-6) <= 0.02, f"{J:.4e}"))

    mu_1 = cpl.plasmon_effective_dipole(gamma_1r, omega_1)
    g1 = cpl.vacuum_coupling(mu_1, omega_1, 1e9, 1.0)
    checks.append(("g1", _rel(g1, 2.9e-3) <= 0.02, f"{g1:.4e}"))

    G = abs(cpl.dipole_dipole_coupling(mu_1, 1.0, 20.0, 1.0, "longitudinal"))
    checks.append(("G", _rel(G, 7.2e-3) <= 0.02, f"{G:.4e}"))

    delta_0 = dyn.fano_detuning(-144e-6, -2.9e-3, -7.2e-3)
    checks.append(("delta_0", _rel(delta_0, 58e-6) <= 0.01, f"{delta_0:.4e}"))

    _criterion(1, checks)


# ---------------------------------------------------------------------------
# criterion 2: dissipation-spectra regression
# ---------------------------------------------------------------------------

def test_criterion_2_dissipation_spectra():
    table = exp.run_fig1c(parse_config("fig1c").scenario)
    d = column(table, "detuning_ev")
    rad_cavity, rad_bare = column(table, "phi_rad_cavity"), column(table, "phi_rad_bare")
    abs_cavity, abs_bare = column(table, "phi_abs_cavity"), column(table, "phi_abs_bare")
    i0 = int(np.argmin(np.abs(d)))
    reduction = abs_bare[i0] / abs_cavity[i0]
    enhancement = rad_cavity[i0] / rad_bare[i0]

    meta = table.metadata
    g1, gamma_c = meta["param.g1_ev"], meta["param.gamma_c_ev"]
    gamma_1 = meta["param.gamma_1r_ev"] + meta["param.gamma_o_ev"]
    a1 = (d + 0.5j * gamma_c) / ((d + 0.5j * gamma_1) * (d + 0.5j * gamma_c) - g1**2)
    c = g1 * a1 / (d + 0.5j * gamma_c)
    rad = meta["param.gamma_1r_ev"] * np.abs(a1) ** 2 + gamma_c * np.abs(c) ** 2
    absorbed = meta["param.gamma_o_ev"] * np.abs(a1) ** 2
    mismatch = max(
        np.max(np.abs(rad_cavity / rad - 1.0)),
        np.max(np.abs(abs_cavity / absorbed - 1.0)),
    )
    _criterion(2, [
        ("absorption reduced >= 30x", reduction >= 30.0, f"{reduction:.1f}"),
        ("radiation enhanced >= 8x", enhancement >= 8.0, f"{enhancement:.2f}"),
        ("matches closed form to 1e-6", mismatch < 1e-6, f"{mismatch:.2e}"),
    ])


# ---------------------------------------------------------------------------
# criterion 3: quantum-yield regression
# ---------------------------------------------------------------------------

def test_criterion_3_yield_regression():
    table, _ = exp.run_fig2(parse_config("fig2").scenario)
    meta = table.metadata
    d = column(table, "detuning_ev")
    step = d[1] - d[0]
    peak = d[int(np.argmax(column(table, "yield_cavity")))]
    offset = abs(peak - meta["param.delta_0_ev"])
    _criterion(3, [
        ("yield at delta_0 >= 0.40", meta["result.yield_at_delta0"] >= 0.40,
         f"{meta['result.yield_at_delta0']:.3f}"),
        ("bare yield in [0.005, 0.025]",
         0.005 <= meta["result.bare_yield_at_delta0"] <= 0.025,
         f"{meta['result.bare_yield_at_delta0']:.4f}"),
        ("radiated power enhancement >= 10",
         meta["result.rad_enhancement_at_delta0"] >= 10.0,
         f"{meta['result.rad_enhancement_at_delta0']:.1f}"),
        ("argmax yield within one grid step of delta_0",
         offset <= step * (1.0 + 1e-9),
         f"offset {offset:.2e} vs step {step:.2e}"),
    ])


# ---------------------------------------------------------------------------
# criterion 4: enhancement-map properties
# ---------------------------------------------------------------------------

def test_criterion_4_enhancement_map():
    scenario = parse_config("fig2_first_principles").scenario
    q_grid = np.geomspace(1e2, 1e7, 26)
    at_d10 = map_column(scenario, 10.0, q_grid, "yield_enhancement").tolist()
    i_max = int(np.argmax(at_d10))
    non_monotonic = (0 < i_max < len(q_grid) - 1) and not all(
        a <= b for a, b in zip(at_d10, at_d10[1:]))

    worst = min(exp.optimal_Q(scenario, np.linspace(5.0, 15.0, 11), "yield")[1])

    # The faithful model does not reach enhancement ~ 1 at Q = 1e2: the cavity
    # output port still collects ~0.6x the dipolar radiation there, because the
    # cavity-induced radiative rate 4 g1^2/gamma_c falls below gamma_1r only
    # for Q well under ~170 at these parameters.  The check is kept at its
    # stated tolerance and documents the discrepancy.
    low_q = map_column(scenario, 10.0, [1e2], "yield_enhancement")[0]

    _criterion(4, [
        ("interior maximum vs Q at D=10", non_monotonic,
         f"argmax at Q={q_grid[i_max]:.3g}"),
        ("yield enhancement >= 20 for D in [5, 15] at optimal Q", worst >= 20.0,
         f"worst {worst:.1f}"),
        ("Q -> 1e2 enhancement within 1 +/- 20%", abs(low_q - 1.0) <= 0.2,
         f"{low_q:.3f}"),
    ])


# ---------------------------------------------------------------------------
# criterion 5: calibrated strong-coupling regression
# ---------------------------------------------------------------------------

def test_criterion_5_strong_coupling(fig3, fig4):
    traces, spectrum = fig3
    branches, _ = fig4
    calibrated = pair_metrics(exp.with_cavity(
        parse_config("fig3").scenario, 0.0, exp.ANTICROSSING_Q).hamiltonian().matrix)
    sep, kappa_2 = calibrated.two_g_eff, calibrated.kappa_2
    doublet = spectrum_peak_separation(
        column(spectrum, "detuning_ev"), column(spectrum, "phi_rad_cavity"))
    eigenvalues = np.stack([column(branches, f"branch{b}_re_ev")
                            + 1j * column(branches, f"branch{b}_im_ev") for b in range(3)], axis=1)
    min_im_separation = dyn.anticrossing_metrics(dyn.EigenBranchSet(
        column(branches, "delta_ec_ev"), eigenvalues)).min_im_separation
    meta, maxima = branches.metadata, traces.metadata
    _criterion(5, [
        ("calibration hits 2g_eff to 1e-3", _rel(sep, 3.5e-3) <= 1e-3, f"{sep:.6e}"),
        ("calibration hits kappa_2 to 1e-3", _rel(kappa_2, 0.11e-3) <= 1e-3,
         f"{kappa_2:.6e}"),
        ("kappa_1 = 1.28 meV +/- 25%", _rel(meta["result.kappa_1_ev"], 1.28e-3) <= 0.25,
         f"{meta['result.kappa_1_ev']:.3e}"),
        ("cooperativity > 80", meta["result.cooperativity"] > 80.0,
         f"{meta['result.cooperativity']:.1f}"),
        ("Q=1e5 trace >= 5 maxima", maxima["result.maxima_q1e5"] >= 5,
         str(maxima["result.maxima_q1e5"])),
        ("no-cavity trace 0 maxima", maxima["result.maxima_no_cavity"] == 0,
         str(maxima["result.maxima_no_cavity"])),
        ("doublet separation 4 meV +/- 25%", _rel(doublet, 4e-3) <= 0.25,
         f"{doublet:.3e}"),
        ("Re branch separation > 0", meta["result.two_g_eff_ev"] > 0.0,
         f"{meta['result.two_g_eff_ev']:.3e}"),
        ("Im branch separation > 0", min_im_separation > 0.0,
         f"{min_im_separation:.3e}"),
    ])


# ---------------------------------------------------------------------------
# criterion 6: invariant property suites
# ---------------------------------------------------------------------------

def test_criterion_6_property_suites(paper_three_mode, omega1, gold):
    checks = []
    rng = np.random.default_rng(424242)

    # steady-state power balance over 1e3 randomized systems
    worst_balance = 0.0
    for _ in range(1000):
        h, widths = random_system(rng)
        n = len(widths)
        f = np.zeros(n, dtype=complex)
        f[rng.integers(0, n)] = rng.uniform(0.1, 2.0)
        v = np.linalg.solve(rng.uniform(-2, 2) * np.eye(n) - h, f)
        dissipated = float(np.sum(widths * np.abs(v) ** 2))
        injected = 2.0 * float(np.imag(v.conj() @ f))
        worst_balance = max(worst_balance, abs(dissipated / injected - 1.0))
    checks.append(("power balance 1e-9 over 1e3 systems", worst_balance < 1e-9,
                   f"worst {worst_balance:.2e}"))

    # symmetry and trace identity
    worst_trace = 0.0
    symmetric = True
    for _ in range(200):
        h, _ = random_system(rng)
        symmetric &= bool(np.array_equal(h, h.T))
        tr = np.trace(h)
        worst_trace = max(worst_trace, abs(np.sum(np.linalg.eigvals(h)) - tr) / abs(tr))
    checks.append(("H = H^T and trace = sum of eigenvalues to 1e-12",
                   symmetric and worst_trace < 1e-12, f"worst {worst_trace:.2e}"))

    # matrix exponential vs adaptive integration
    t_nat = np.linspace(0.0, 2.0 / 86e-6, 25)
    trace = dyn.evolve(paper_three_mode, [0, 0, 1], to_fs(t_nat))
    sol = solve_ivp(lambda t, y: -1j * (paper_three_mode.matrix @ y),
                    (0.0, t_nat[-1]), np.array([0, 0, 1], dtype=complex),
                    t_eval=t_nat, rtol=1e-11, atol=1e-13)
    gap = max(np.max(np.abs(np.abs(sol.y[i]) ** 2 - trace.population(label)))
              for i, label in enumerate(paper_three_mode.labels))
    checks.append(("expm vs adaptive integrator 1e-8", bool(sol.success) and gap < 1e-8,
                   f"gap {gap:.2e}"))

    # undriven population decay is monotone
    monotone = True
    for _ in range(25):
        h, widths = random_system(rng, 3)
        ham = net.build_three_mode(
            g1=h[0, 1].real, G=h[0, 2].real, J=h[1, 2].real,
            delta_1e=h[0, 0].real, delta_ce=h[1, 1].real,
            gamma_1r=0.0, gamma_o=widths[0], gamma_c=widths[1], gamma_s=0.0, gamma_m=widths[2])
        v0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        v0 /= np.linalg.norm(v0)
        tr = dyn.evolve(ham, v0, to_fs(np.linspace(0.0, 40.0, 300)))
        monotone &= bool(np.all(np.diff(tr.total) <= 1e-12))
    checks.append(("population non-increasing without drive", monotone, "violated"))

    # Fano minimum of the dipolar amplitude with J = 0
    gamma_c = omega1 / 1e5
    h_j0 = net.build_three_mode(
        g1=-2.9e-3, G=-7.2e-3, J=0.0, delta_1e=0.0, delta_ce=0.0,
        gamma_1r=2.45e-3, gamma_o=0.2, gamma_c=gamma_c, gamma_s=3e-6, gamma_m=83e-6)
    grid = np.linspace(-4e-4, 4e-4, 8001)
    amps, _ = dyn.steady_state_sweep(h_j0, grid, "emitter")
    dip = grid[int(np.argmin(np.abs(amps[:, 0])))]
    checks.append(("Fano dip within gamma_c/2 of delta_0 (J=0)",
                   abs(dip) <= gamma_c / 2.0, f"dip at {dip:.2e}"))

    # scaling exponents by randomized ratio tests
    exponents_ok = True
    for _ in range(100):
        mu = rng.uniform(0.3, 20.0)
        w = rng.uniform(0.4, 3.0)
        vol = rng.uniform(1e7, 1e10)
        dist = rng.uniform(5.0, 60.0)
        s = rng.uniform(1.3, 3.5)
        exponents_ok &= math.isclose(
            cpl.vacuum_coupling(mu, w, s * vol), cpl.vacuum_coupling(mu, w, vol) / math.sqrt(s),
            rel_tol=1e-10)
        exponents_ok &= math.isclose(
            cpl.dipole_dipole_coupling(mu, 1.0, s * dist),
            cpl.dipole_dipole_coupling(mu, 1.0, dist) / s**3, rel_tol=1e-10)
        exponents_ok &= math.isclose(
            cpl.free_space_decay(s * mu, w), s**2 * cpl.free_space_decay(mu, w),
            rel_tol=1e-10)
        exponents_ok &= math.isclose(
            cpl.free_space_decay(mu, s * w), s**3 * cpl.free_space_decay(mu, w),
            rel_tol=1e-10)
    env = mat.Environment(1.0)
    for r1, r2 in ((5.0, 10.0), (7.0, 21.0)):
        a, b = (mat.dipolar_radiative_rate(p, env, *mat.dipolar_mode(p, env, 1))
                for p in (mat.Nanoparticle(mat.Sphere(r), gold) for r in (r1, r2)))
        exponents_ok &= math.isclose(b / a, (r2 / r1) ** 3, rel_tol=1e-10)
    checks.append(("scaling exponents (V^-1/2, d^-3, mu^2, omega^3, R^3)",
                   exponents_ok, "exponent mismatch"))

    _criterion(6, checks)


# ---------------------------------------------------------------------------
# criterion 7: determinism
# ---------------------------------------------------------------------------

def test_criterion_7_determinism(tmp_path):
    jobs = {
        "fig1c": (["fig1c", "--grid", "301"], ("fig1c.csv",)),
        "fig2": (["fig2", "--grid", "101"], ("fig2_yield.csv", "fig2_power.csv")),
        "fig3": (["fig3", "--grid", "301"], ("fig3_traces.csv", "fig3_spectrum.csv")),
        "fig4": (["fig4", "--grid", "151"], ("fig4_branches.csv", "fig4_spectra.csv")),
    }
    checks = []
    for name, (argv, files) in jobs.items():
        outputs = {}
        for run in ("a", "b", "c"):
            dest = tmp_path / name / run
            assert main(argv + ["--out", str(dest)]) == 0
            outputs[run] = [((dest / f).read_bytes()) for f in files]
        identical = outputs["a"] == outputs["b"] == outputs["c"]
        checks.append((f"{name} byte-identical across runs", identical,
                       "outputs differ"))
    _criterion(7, checks)
