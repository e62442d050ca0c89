import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from plasmonsim import dynamics as dyn
from plasmonsim import experiments as exp
from plasmonsim import network as net
from plasmonsim.cli import main
from plasmonsim.config import MAX_POINTS, parse_config, parse_config_text
from plasmonsim.errors import (
    ConditioningError,
    DomainError,
    TrackingAmbiguityError,
    UndefinedYieldError,
)
from plasmonsim.quantities import from_fs, to_fs

from conftest import EP3, EXCEPTIONAL_POINT, PAPER_SET, fig2_with, random_system, two_mode_network


def pumped_mnp(g1, gamma_c=2.3094010767585034e-5):
    """The pumped nanoparticle: plasmon and cavity coupled by g1, the emitter decoupled."""
    return net.build_three_mode(
        g1=g1, G=0.0, J=0.0, delta_1e=0.0, delta_ce=0.0,
        gamma_1r=2.45e-3, gamma_o=0.2, gamma_c=gamma_c, gamma_s=3e-6, gamma_m=83e-6)


def accepted(bound):
    """The guard's test at every point: K * RCOND_LIMIT <= 1, so NaN and inf fail."""
    return bool(np.all(bound * dyn.RCOND_LIMIT <= 1.0))


def put_together(blocks, shape, dtype=float):
    """One array of `shape` from its (index, block) pairs."""
    whole = np.empty(shape, dtype)
    for index, block in blocks:
        whole[index] = block
    return whole


def grid_values(grid):
    """Every detuning of a broadcast grid (an array or a dyn.Linspace), put together from its
    blocks."""
    return put_together(((index, grid[index]) for index in dyn._row_blocks(grid.shape)),
                        grid.shape)


def sweep_bound(h, grid, path):
    """K at every point of a sweep: the per-block bounds of dyn._bounds on `path`, put together."""
    return put_together(dyn._bounds(h, grid, dyn._eig(h) if path == "spectral" else None),
                        grid.shape)


def resolvent_solve(h, detunings, f):
    """(v, K, path) of dyn._resolvent: its blocks and their bounds, each put together.  The
    worst K that it keeps is the largest of them."""
    grid = dyn.broadcast_grid(detunings, h.shape[:-2])
    path, worst, solve = dyn._resolvent(h, grid, f)
    v = put_together(((index, solve(index, grid[index])) for index in dyn._row_blocks(grid.shape)),
                     grid.shape + f.shape, complex)
    bound = sweep_bound(h, grid, path)
    assert np.array_equal(worst, np.max(bound), equal_nan=True)
    return v, bound, path


def solve_at(hamiltonian, detuning, drive_mode):
    """Amplitudes and port powers at one pump detuning: a 1-point steady-state sweep."""
    amps, powers = dyn.steady_state_sweep(hamiltonian, [detuning], drive_mode)
    return amps[0], {key: float(p[0]) for key, p in powers.items()}


# ---------------------------------------------------------------------------
# steady state
# ---------------------------------------------------------------------------

def test_steady_state_single_lorentzian():
    h = pumped_mnp(0.0)
    amps, powers = solve_at(h, 0.0, "plasmon")
    gamma_1 = 0.2 + 2.45e-3
    assert abs(amps[h.index("plasmon")]) ** 2 == pytest.approx(4.0 / gamma_1**2, rel=1e-12)
    assert powers["ohmic_plasmon"] / powers["rad_vacuum"] == pytest.approx(
        0.2 / 2.45e-3, rel=1e-12)
    assert 0.2 / 2.45e-3 == pytest.approx(81.7, abs=0.1)


def test_steady_state_two_mode_suppression():
    g1, gamma_c = 2.9e-3, 2.3094010767585034e-5
    gamma_1 = 0.2 + 2.45e-3
    h = pumped_mnp(g1)
    with_cavity, _ = solve_at(h, 0.0, "plasmon")
    bare, _ = solve_at(pumped_mnp(0.0), 0.0, "plasmon")
    ratio = (abs(with_cavity[h.index("plasmon")]) / abs(bare[h.index("plasmon")])) ** 2
    closed_form = (gamma_1 / (gamma_1 + 4.0 * g1**2 / gamma_c)) ** 2
    assert ratio == pytest.approx(closed_form, rel=1e-10)
    assert closed_form == pytest.approx(0.0149, abs=2e-4)


def test_steady_state_singular_lossless():
    h = two_mode_network(0.0, 0.0, 0.0)
    with pytest.raises(ConditioningError, match="LU path"):
        dyn.steady_state_sweep(h, [0.0], "plasmon")


def test_steady_state_sweep_onto_an_eigenvalue_raises():
    # lossless, so the eigenvalues +-g are real, and the sweep lands on both: the
    # spectral bound is inf there, and the LU path it hands the sweep to raises
    g = 0.01
    h = two_mode_network(g, 0.0, 0.0)
    detunings = np.linspace(-2 * g, 2 * g, 5)
    lam, _, cond_v = dyn._eig(h.matrix)
    assert cond_v <= dyn.EIG_COND_LIMIT and np.min(np.abs(detunings[:, None] - lam)) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConditioningError, match="LU path"):
            dyn.steady_state_sweep(h, detunings, "plasmon")


def _reduced_spectral_bound(h, detunings):
    """Oracle: the spectral bound cond_2(V)^2 max_k / min_k |Delta - lambda_k| by reductions."""
    lam, _, cond_v = dyn._eig(h)
    dist = np.abs(np.asarray(detunings)[..., None] - lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        return cond_v**2 * dist.max(-1) / dist.min(-1)


@pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
def test_spectral_bound_equals_its_reduction_form(n_modes):
    # the guard takes max and min elementwise over the n columns; every bit must match
    rng = np.random.default_rng(1700 + n_modes)
    singles = [h for h, _ in (random_system(rng, n_modes) for _ in range(60))
               if dyn._eig(h)[2] <= dyn.EIG_COND_LIMIT][:40]
    f = np.zeros(n_modes, dtype=complex)
    f[-1] = 1.0
    for h in singles:
        d = rng.uniform(-1.5, 1.5, 25)
        _, bound, path = resolvent_solve(h, d, f)
        assert path == "spectral"
        assert np.array_equal(bound, _reduced_spectral_bound(h, d))
    stack = np.stack(singles)[:, None]  # (40, 1, n, n) against 25 detunings
    d = rng.uniform(-1.5, 1.5, 25)
    _, bound, path = resolvent_solve(stack, d, f)
    assert path == "spectral" and bound.shape == (len(singles), 25)
    assert np.array_equal(bound, _reduced_spectral_bound(stack, d))


@pytest.mark.parametrize("stacked", [False, True])
def test_detuning_on_an_eigenvalue_fails_the_spectral_guard(stacked, monkeypatch):
    # lossless, so the eigenvalues +-g are real and the sweep hits them: the spectral
    # bound is inf or nan there, so the sweep goes to the LU path or raises
    g = 0.01
    h = two_mode_network(g, 0.0, 0.0).matrix
    if stacked:
        h = np.stack([two_mode_network(2 * g, 0.0, 0.1).matrix, h])[:, None]
    detunings = np.linspace(-2 * g, 2 * g, 5)
    seen = []
    guard = dyn._guard
    monkeypatch.setattr(dyn, "_guard", lambda bounds: guard(seen.append(list(bounds)) or seen[-1]))
    with pytest.raises(ConditioningError):
        resolvent_solve(h, detunings, np.array([1.0, 0.0], complex))
    spectral = put_together(seen[0], np.broadcast_shapes(detunings.shape, h.shape[:-2]))
    oracle = _reduced_spectral_bound(h, detunings)
    assert not np.isfinite(oracle).all() and not accepted(spectral)
    assert np.array_equal(spectral, oracle, equal_nan=True)


@pytest.mark.parametrize("points", [1, 40])
def test_condition_bound_holds_on_both_paths(points):
    """The guard's K bounds kappa_2(Delta I - H) from above on random damped systems."""
    rng = np.random.default_rng(1301 + points)
    for _ in range(300):
        h, _ = random_system(rng)
        n = h.shape[-1]
        d = rng.uniform(-1.5, 1.5, points)
        f = np.zeros(n, dtype=complex)
        f[rng.integers(0, n)] = 1.0
        v, bound, path = resolvent_solve(h, d, f)
        cond_v = np.linalg.cond(np.linalg.eig(h)[1])
        assert path == ("spectral" if points > 1 and cond_v <= dyn.EIG_COND_LIMIT else "lu")
        mats = d[:, None, None] * np.eye(n) - h
        assert np.all(np.linalg.cond(mats) <= bound * (1 + 1e-12)), path
        np.testing.assert_allclose(v, np.linalg.solve(mats, f), rtol=1e-9)


# ---------------------------------------------------------------------------
# blocks of a sweep
# ---------------------------------------------------------------------------

BLOCK = dyn.SWEEP_BLOCK_POINTS
#: sweep lengths on either side of one block boundary, and over three
BLOCK_LENGTHS = [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 2]


def _whole_grid_spectral(h, detunings, f):
    """Oracle: the spectral solve over every point of the sweep at once, as before blocks."""
    lam, vecs, _ = dyn._eig(h)
    gap = np.atleast_1d(np.asarray(detunings, dtype=float))[..., None] - lam
    rhs = np.broadcast_to(f[:, None], vecs.shape[:-1] + (1,))
    weights = np.linalg.solve(vecs, rhs)[..., 0]
    return np.einsum("...ij,...j->...i", vecs, weights / gap)


def _assert_sweep_is_the_whole_grid_solve(h, detunings, drive_mode, blocks):
    """The sweep takes the spectral path in `blocks` blocks; amplitudes and powers are the
    oracle's, bit for bit.  Returns the oracle's amplitudes and powers."""
    f = dyn.mode_vector(h, drive_mode)
    grid = dyn.broadcast_grid(detunings, h.matrix.shape[:-2])
    sweep = dyn.steady_state_blocks(h, detunings, drive_mode)
    assert sweep.path == "spectral" and len(sweep.index) == blocks
    assert sweep.worst == np.max(sweep_bound(h.matrix, grid, "spectral"))
    oracle = _whole_grid_spectral(h.matrix, detunings, f)
    amps, powers = dyn.steady_state_sweep(h, detunings, drive_mode)
    assert amps.tobytes() == oracle.tobytes()
    expected = h.powers(oracle)
    assert powers.keys() == expected.keys()
    for port, power in expected.items():
        assert powers[port].tobytes() == power.tobytes(), port
    return oracle, expected


def _assert_columns(rows, expected):
    """The table's columns are `expected`'s, in order, each equal by its bytes."""
    assert rows.dtype.names == tuple(expected)
    for name, column in expected.items():
        assert rows[name].tobytes() == column.tobytes(), name


@pytest.mark.parametrize("points", BLOCK_LENGTHS)
def test_blocked_sweep_and_tables_equal_the_whole_grid_solve(points):
    scenario = parse_config("fig2").scenario
    drive = scenario["drive_mode"]
    h, h_bare = scenario.hamiltonian(), scenario.hamiltonian(bare=True)
    grid = scenario["delta_0_ev"] + np.linspace(-2e-3, 2e-3, points)
    blocks = -(-points // BLOCK)
    amps, powers = _assert_sweep_is_the_whole_grid_solve(h, grid, drive, blocks)
    _, powers_b = _assert_sweep_is_the_whole_grid_solve(h_bare, grid, drive, blocks)
    _assert_columns(exp.spectrum_table(scenario, grid).rows, {
        "detuning_ev": grid, "phi_rad_total": net.radiated_power(powers),
        "phi_rad_vacuum": powers["rad_vacuum"], "phi_rad_vacuum_cross": h.vacuum_cross_term(amps),
        "phi_rad_cavity_port": powers["rad_cavity"], "phi_ohmic_plasmon": powers["ohmic_plasmon"],
        "phi_ohmic_emitter": powers["ohmic_emitter"]})
    _assert_columns(exp.yield_table(scenario, grid).rows, {
        "detuning_ev": grid, "yield_cavity": net.yield_from_powers(powers),
        "yield_bare": net.yield_from_powers(powers_b)})

    # the figure tables, each over its own grid against the whole-grid solve of each of its
    # Hamiltonians: fig1c, fig2 (both tables and the Delta_0 metadata) and fig3's spectrum
    def whole_grid_powers(scenario, grid, drive):
        return [_assert_sweep_is_the_whole_grid_solve(h, grid, drive, blocks)[1]
                for h in (scenario.hamiltonian(), scenario.hamiltonian(bare=True))]

    fig1c = parse_config("fig1c").scenario
    grid = np.linspace(-2e-3, 2e-3, points)
    cavity, bare = whole_grid_powers(fig1c, grid, fig1c["drive_mode"])
    _assert_columns(exp.run_fig1c(fig1c, points).rows, {
        "detuning_ev": grid, "phi_rad_cavity": net.radiated_power(cavity),
        "phi_rad_bare": net.radiated_power(bare), "phi_abs_cavity": cavity["ohmic_plasmon"],
        "phi_abs_bare": bare["ohmic_plasmon"]})

    fig2 = parse_config("fig2").scenario
    delta_0 = fig2["delta_0_ev"]
    grid = delta_0 + np.linspace(-1e-3, 1e-3, points)
    cavity, bare = whole_grid_powers(fig2, grid, "emitter")
    table_yield, table_power = exp.run_fig2(fig2, points)
    _assert_columns(table_yield.rows, {
        "detuning_ev": grid, "yield_cavity": net.yield_from_powers(cavity),
        "yield_bare": net.yield_from_powers(bare),
        "abs_plasmon_norm": cavity["ohmic_plasmon"] / np.max(cavity["ohmic_plasmon"])})
    _assert_columns(table_power.rows, {
        "detuning_ev": grid, "phi_rad_cavity": net.radiated_power(cavity),
        "phi_rad_bare": net.radiated_power(bare)})
    at_0 = dyn.steady_state_sweep(fig2.hamiltonian(), [delta_0], "emitter")[1]
    at_0_b = dyn.steady_state_sweep(fig2.hamiltonian(bare=True), [delta_0], "emitter")[1]
    assert table_yield.metadata == table_power.metadata
    assert table_yield.metadata["result.yield_at_delta0"] == net.yield_from_powers(at_0)[0]
    assert table_yield.metadata["result.bare_yield_at_delta0"] == net.yield_from_powers(at_0_b)[0]
    assert table_yield.metadata["result.rad_enhancement_at_delta0"] == (
        net.radiated_power(at_0)[0] / net.radiated_power(at_0_b)[0])

    fig3 = parse_config("fig3").scenario
    grid = np.linspace(-8e-3, 8e-3, points)
    cavity, bare = whole_grid_powers(fig3, grid, "emitter")
    _assert_columns(exp.run_fig3(fig3, points)[1].rows, {
        "detuning_ev": grid, "phi_rad_cavity": net.radiated_power(cavity),
        "phi_rad_bare": net.radiated_power(bare)})


def test_blocked_stack_sweep_equals_the_whole_grid_solve():
    # fig4's spectra map: an (11, 1) stack against 801 detunings is 8,811 points, two blocks
    fig4 = parse_config("fig4").scenario
    scenario = exp.with_cavity(fig4, 0.0, exp.SPECTRA_Q)
    sweep = 2e-3 * np.arange(-5, 6)
    h = exp.with_cavity(scenario, -sweep[:, None]).hamiltonian()
    detunings = np.linspace(-8e-3, 8e-3, exp.FIG4_SPECTRUM_POINTS)
    assert h.matrix.shape == (11, 1, 3, 3) and BLOCK < 11 * detunings.size < 2 * BLOCK
    _, powers = _assert_sweep_is_the_whole_grid_solve(h, detunings, "emitter", 2)
    _assert_columns(exp.run_fig4(fig4, sweep, detunings.size)[1].rows, {
        "delta_ec_ev": np.repeat(sweep, detunings.size),
        "detuning_ev": np.tile(detunings, sweep.size),
        "phi_rad_total": net.radiated_power(powers).ravel()})


@pytest.mark.parametrize("block_points, blocks", [(14, 3), (3, 15)])
def test_blocked_lu_stack_slices_its_rates_per_block(monkeypatch, block_points, blocks):
    # a map-shaped (5 distances, 7 Q) stack, gamma_m varying along D and gamma_c along Q, at
    # one Delta_0 per distance: the LU path, one block at the default size; blocks of two
    # whole rows, or of parts of one row, slice each array rate to their own points
    design = parse_config("fig2_first_principles").scenario
    at_d = exp.with_emitter_at(design, np.geomspace(3.0, 30.0, 5)[:, None])
    h = exp.with_cavity(at_d, 0.0, np.geomspace(1e2, 1e7, 7)[None, :]).hamiltonian()
    assert np.shape(h.rates["gamma_m"]) == (5, 1) and np.shape(h.rates["gamma_c"]) == (1, 7)
    whole = dyn.steady_state_blocks(h, at_d["delta_0_ev"], "emitter")
    assert whole.path == "lu" and len(whole.index) == 1
    amps, powers = dyn.steady_state_sweep(h, at_d["delta_0_ev"], "emitter")
    monkeypatch.setattr(dyn, "SWEEP_BLOCK_POINTS", block_points)
    sweep = dyn.steady_state_blocks(h, at_d["delta_0_ev"], "emitter")
    assert sweep.path == "lu" and len(sweep.index) == blocks
    blocked_amps, blocked_powers = dyn.steady_state_sweep(h, at_d["delta_0_ev"], "emitter")
    assert blocked_amps.tobytes() == amps.tobytes()
    assert blocked_powers.keys() == powers.keys()
    for port, power in powers.items():
        assert blocked_powers[port].tobytes() == power.tobytes(), port


def test_a_guard_failure_in_the_last_block_sends_the_whole_sweep_to_lu():
    """The narrow line of the spectral-retry test, met only by the sweep's last point."""
    gamma = 0.05
    h = net.build_three_mode(
        g1=gamma / 4.0 * (1.0 + 1e-5), G=0.0, J=0.0, delta_1e=0.1, delta_ce=0.1, gamma_1r=0.0,
        gamma_o=gamma, gamma_c=0.0, gamma_s=1e-9, gamma_m=1e-9)
    detunings = np.linspace(-0.01, 0.0, 3 * BLOCK + 2)
    spectral = _reduced_spectral_bound(h.matrix, detunings)
    assert list(np.flatnonzero(~(spectral * dyn.RCOND_LIMIT <= 1.0))) == [detunings.size - 1]
    grid = dyn.broadcast_grid(detunings)
    assert sweep_bound(h.matrix, grid, "spectral").tobytes() == spectral.tobytes()
    f = dyn.mode_vector(h, "plasmon")
    path, _, solve = dyn._resolvent(h.matrix, grid, f)
    sweep = dyn.steady_state_blocks(h, detunings, "plasmon")
    v = [solve(block, grid[block]) for block in sweep.index]
    assert path == sweep.path == "lu" and len(v) == 4
    assert sweep.index == list(dyn._row_blocks(detunings.shape))
    bound = sweep_bound(h.matrix, grid, "lu")
    assert accepted(bound) and sweep.worst == np.max(bound)
    unblocked = np.linalg.inv(detunings[:, None, None] * np.eye(3) - h.matrix) @ f
    assert np.concatenate(v).tobytes() == unblocked.tobytes()
    amps, _ = dyn.steady_state_sweep(h, detunings, "plasmon")
    assert amps.tobytes() == unblocked.tobytes()


def _near_exceptional_point():
    """The plasmon and a lossless cavity 1e-5 above their exceptional point, 0.1 eV above a
    decoupled emitter of width 2 neV: one member of the spectral-retry system."""
    gamma = 0.05
    return net.build_three_mode(
        g1=gamma / 4.0 * (1.0 + 1e-5), G=0.0, J=0.0, delta_1e=0.1, delta_ce=0.1,
        gamma_1r=0.0, gamma_o=gamma, gamma_c=0.0, gamma_s=1e-9, gamma_m=1e-9)


@pytest.mark.parametrize("points", BLOCK_LENGTHS)
def test_lu_sweep_blocks_equal_the_whole_grid_lu_solve(points):
    """An LU-path sweep is bounded and solved in row blocks; its amplitudes, powers and bound
    equal those of one whole-grid LU solve by their bytes."""
    h = _near_exceptional_point()
    detunings = np.linspace(-0.01, 0.0, points)  # the last point meets the emitter line
    f = dyn.mode_vector(h, "plasmon")
    mats = detunings[:, None, None] * np.eye(3) - h.matrix
    inv = np.linalg.inv(mats)
    grid = dyn.broadcast_grid(detunings)
    assert dyn._resolvent(h.matrix, grid, f)[0] == "lu"
    assert len(dyn.steady_state_blocks(h, detunings, "plasmon").index) == -(-points // BLOCK)
    bound = sweep_bound(h.matrix, grid, "lu")
    assert bound.tobytes() == (dyn._frobenius(mats) * dyn._frobenius(inv)).tobytes()
    amps, powers = dyn.steady_state_sweep(h, detunings, "plasmon")
    assert amps.tobytes() == (inv @ f).tobytes()
    for port, power in h.powers(inv @ f).items():
        assert powers[port].tobytes() == power.tobytes(), port


def test_lu_sweep_memory_stays_near_its_bound():
    # 200,001 points through the emitter line: one block's matrices, inverses and bounds, then
    # its amplitudes, at 2.7 MB; with a bound K that spanned the sweep (1.6 MB) it peaked at
    # 4.3 MB, and the whole-grid LU path at 70.5 MB
    h = _near_exceptional_point()
    detunings = np.linspace(-0.01, 0.01, 200_001)
    tracemalloc.start()
    try:
        sweep = dyn.steady_state_blocks(h, detunings, "plasmon")
        for block in sweep.index:
            sweep.solve(block, sweep.grid[block])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid = dyn.broadcast_grid(detunings)
    assert dyn._resolvent(h.matrix, grid, dyn.mode_vector(h, "plasmon"))[0] == "lu"
    assert peak < 3.1e6  # 0.4 MB above the measured peak


def test_a_failing_sweep_reports_its_worst_bound():
    # a lossless pair of eigenvalues +-g, passed at 1e-13 relative in the first block
    # and at 1e-14 at the sweep's last point: the message names the worse, over the sweep
    g = 0.01
    h = two_mode_network(g, 0.0, 0.0)
    detunings = np.append(np.linspace(-0.05, -0.02, 3 * BLOCK + 1), g * (1.0 + 1e-14))
    detunings[5] = -g * (1.0 + 1e-13)
    grid = dyn.broadcast_grid(detunings)
    bound = sweep_bound(h.matrix, grid, "lu")
    worst = np.max(bound)
    assert np.argmax(bound) == detunings.size - 1
    assert bound[5] * dyn.RCOND_LIMIT > 1.0 and f"{bound[5]:.3g}" != f"{worst:.3g}"
    assert dyn._guard(dyn._bounds(h.matrix, grid)) == (worst, False)
    with pytest.raises(ConditioningError) as raised:
        dyn.steady_state_blocks(h, detunings, "plasmon")
    assert f"(lu path, condition bound {worst:.3g} > 1e+13)" in str(raised.value)


def test_the_guard_keeps_the_worst_bound_of_its_blocks():
    # the worst K over the blocks is np.max's over the whole sweep: a NaN anywhere makes it NaN
    blocks = [np.array([1.0, 3e13]), np.array([np.nan, 2.0]), np.array([np.inf])]
    for order in ([0, 1, 2], [2, 1, 0], [0, 2]):
        picked = [(k, blocks[k]) for k in order]
        whole = np.max(np.concatenate([blocks[k] for k in order]))
        worst, passed = dyn._guard(picked)
        assert not passed and np.array_equal(worst, whole, equal_nan=True)
    assert dyn._guard([(0, blocks[0][:1]), (1, np.array([1e13]))]) == (1e13, True)


#: (start, stop, num) of np.linspace grids that a Linspace must reproduce bit for bit: one
#: and two points, lengths about one and three blocks, MAX_POINTS, and a constant grid
LINSPACE_CASES = [(-8e-3, 8e-3, n) for n in (1, 2, BLOCK - 1, BLOCK + 1, 3 * BLOCK + 2)] + [
    (0.1 - 8e-3, 0.1 + 8e-3, MAX_POINTS), (0.25, 0.25, BLOCK + 1)]


@pytest.mark.parametrize("start, stop, num", LINSPACE_CASES)
def test_linspace_blocks_put_together_are_np_linspace(start, stop, num):
    grid = dyn.broadcast_grid(dyn.Linspace(start, stop, num))
    assert grid.shape == (num,)
    assert grid_values(grid).tobytes() == np.linspace(start, stop, num).tobytes()


def test_linspace_takes_np_linspace_branch_for_a_step_that_underflows():
    # 1e-322 over 100 steps: the step is 0, so np.linspace scales k / 100 by the width
    start, stop, num = 0.0, 1e-322, 101
    expected = np.linspace(start, stop, num)
    assert (stop - start) / (num - 1) == 0.0 and len(set(expected[1:-1])) > 1
    assert grid_values(dyn.broadcast_grid(dyn.Linspace(start, stop, num))).tobytes() == (
        expected.tobytes())


@pytest.mark.parametrize("points", [exp.FIG4_SPECTRUM_POINTS, 20_000])
def test_linspace_blocks_across_the_fig4_stack(points):
    # fig4's (sweep, pump) map: 801 points a row fill whole-row blocks, 20,000 parts of a row
    sweep = 2e-3 * np.arange(-5, 6)
    grid = dyn.broadcast_grid(dyn.Linspace(-8e-3, 8e-3, points), sweep[:, None].shape)
    index = list(dyn._row_blocks(grid.shape))
    assert grid.shape == (sweep.size, points)
    assert all(isinstance(block[0], slice) == (points < BLOCK) for block in index)
    expected = np.broadcast_to(np.linspace(-8e-3, 8e-3, points), grid.shape)
    assert grid_values(grid).tobytes() == expected.tobytes()
    # a stack of two leading axes, and one point against a longer stack axis
    deep = dyn.broadcast_grid(dyn.Linspace(-8e-3, 8e-3, points), (2, 3, 1))
    assert grid_values(deep).tobytes() == np.broadcast_to(expected[0], deep.shape).tobytes()
    one = dyn.broadcast_grid(dyn.Linspace(-8e-3, 8e-3, 1), (3,))
    assert grid_values(one).tobytes() == np.full(3, -8e-3).tobytes()


def test_spectrum_table_memory_stays_near_the_table(tmp_path):
    # building and writing the 200,000-row table (11.2 MB) holds one block's solve and rows
    # and one chunk's text, at 1.87 MB beside the grid array made outside; with a bound K
    # that spanned the sweep it peaked at 3.5 MB, filling the whole table before writing it
    # at 13.0 MB, solving the whole grid at once at 35 MB
    scenario = parse_config("fig2").scenario
    grid = scenario["delta_0_ev"] + np.linspace(-8e-3, 8e-3, 200_000)
    exp.spectrum_table(scenario, grid[:10]).write(tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        exp.spectrum_table(scenario, grid).write(tmp_path / "spectrum.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.3e6  # 0.4 MB above the measured peak


def test_spectrum_table_memory_does_not_grow_with_the_grid(tmp_path):
    # the grid is a Linspace made in the traced region, and nothing spans the sweep: 1.87 and
    # 1.89 MB at 100,000 and 1,000,000 rows, where a grid array, the bound K and the guard's
    # temporaries that spanned it peaked at 3.5 and 25.1 MB
    scenario = parse_config("fig2").scenario
    delta_0 = scenario["delta_0_ev"]
    exp.spectrum_table(scenario, dyn.Linspace(delta_0, delta_0 + 1e-3, 10)).write(
        tmp_path / "warm.csv")
    peaks = []
    for points in (100_000, MAX_POINTS):
        tracemalloc.start()
        try:
            grid = dyn.Linspace(delta_0 - 8e-3, delta_0 + 8e-3, points)
            exp.spectrum_table(scenario, grid).write(tmp_path / "spectrum.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 2.5e6 and abs(peaks[1] - peaks[0]) < 1e5, peaks


def test_fig1c_memory_stays_near_the_table(tmp_path):
    # building and writing the 200,000-row table (8 MB) holds one block's rows, one sweep's
    # solve of that block at a time and one chunk's text (1.55 MB); with a grid array and
    # two bounds K that spanned the sweep it peaked at 5.5 MB, filling the whole table first
    # above 8 MB, whole-grid arrays at 49.6 MB
    scenario = parse_config("fig1c").scenario
    exp.run_fig1c(scenario, 10).write(tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        exp.run_fig1c(scenario, 200_000).write(tmp_path / "fig1c.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6  # 0.45 MB above the measured peak


def test_fig2_memory_stays_near_the_tables(tmp_path):
    # fig2 takes its absorption maximum in a first pass over the sweep, then streams both
    # 200,000-row tables (12.8 MB of text) like any other sweep table: 1.44 MB; filling one
    # record array of the whole sweep to normalize the column peaked at 12.9 MB
    scenario = parse_config("fig2").scenario
    for table in exp.run_fig2(scenario, 10):
        table.write(tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        for table in exp.run_fig2(scenario, 200_000):
            table.write(tmp_path / f"{table.name}.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("argv, expected", [
    (["fig2"], {"_guard": 4, "_eig": 2, "__getitem__": 5}),
    (["spectrum", "--config", "fig2", "--grid", "200000"],
     {"_guard": 1, "_eig": 1, "__getitem__": 50})], ids=["fig2", "spectrum_200000"])
def test_a_command_guards_each_sweep_once_and_makes_each_block_twice(
        argv, expected, tmp_path, monkeypatch):
    # one sweep value per (Hamiltonian, grid): fig2 guards its two grid sweeps and its two
    # Delta_0 sweeps once each, and diagonalizes h and h_bare once; a Linspace block is made
    # by the guard and once more for its solves and the detuning column.  With sweeps made
    # again by every table, fig2 made 7 guards, 5 eigendecompositions and 12 blocks (one
    # block a sweep), and the 25-block spectrum 75 blocks
    counts = dict.fromkeys(expected, 0)
    for owner, name in ((dyn, "_guard"), (dyn, "_eig"), (dyn.Linspace, "__getitem__")):
        def counted(*args, _name=name, _original=getattr(owner, name)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(owner, name, counted)
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert counts == expected


def test_power_balance_randomized():
    """sum_i gamma_i |v_i|^2 == 2 Im(v^dag f) over 1000 random valid systems."""
    rng = np.random.default_rng(7071)
    for _ in range(1000):
        h, widths = random_system(rng)
        n = len(widths)
        detuning = rng.uniform(-2.0, 2.0)
        f = np.zeros(n, dtype=complex)
        f[rng.integers(0, n)] = rng.uniform(0.1, 2.0)
        v = np.linalg.solve(detuning * np.eye(n) - h, f)
        dissipated = float(np.sum(widths * np.abs(v) ** 2))
        injected = 2.0 * float(np.imag(v.conj() @ f))
        assert dissipated == pytest.approx(injected, rel=1e-9)
    # the package path: 500 random three-mode networks in one stack, one batched solve
    # per drive mode; the four ports hold every partial width once, except the
    # interference part of the coherent vacuum port, and a unit drive injects -2 Im v_k
    n = 500
    rates = rng.uniform(1e-6, 0.15, (5, n))
    g1, G, J = rng.uniform(-0.05, 0.05, (3, n))
    h = net.build_three_mode(
        g1=g1, G=G, J=J, delta_1e=rng.uniform(-1.0, 1.0, n),
        delta_ce=rng.uniform(-1.0, 1.0, n), gamma_1r=rates[0], gamma_o=rates[1],
        gamma_c=rates[2], gamma_s=rates[3], gamma_m=rates[4])
    detunings = rng.uniform(-2.0, 2.0, n)
    for mode in h.labels:
        amps, powers = dyn.steady_state_sweep(h, detunings, mode)
        dissipated = sum(powers.values()) - h.vacuum_cross_term(amps)
        injected = -2.0 * amps[:, h.index(mode)].imag
        assert dissipated == pytest.approx(injected, rel=1e-9), mode


def test_far_off_resonance_suppression(paper_three_mode):
    scale = 100.0 * max(
        max(-2.0 * np.diag(paper_three_mode.matrix).imag),
        abs(paper_three_mode.matrix[0, 1]),
        abs(paper_three_mode.matrix[0, 2]),
    )
    _, on = solve_at(paper_three_mode, 0.0, "emitter")
    _, off = solve_at(paper_three_mode, scale, "emitter")
    for port in on:
        if on[port] > 0:
            assert off[port] < 1e-4 * on[port]


# ---------------------------------------------------------------------------
# quantum yield and interference detuning
# ---------------------------------------------------------------------------

def test_quantum_yield_no_absorption(omega1):
    h = net.build_three_mode(
        g1=-2.9e-3, G=-7.2e-3, J=-144e-6, delta_1e=0.0, delta_ce=0.0,
        gamma_1r=2.45e-3, gamma_o=0.0, gamma_c=omega1 / 1e5, gamma_s=3e-6, gamma_m=0.0)
    _, powers = solve_at(h, 0.0, "emitter")
    assert net.yield_from_powers(powers) == pytest.approx(1.0, rel=1e-12)


def test_quantum_yield_undefined(paper_three_mode):
    # no amplitude, no output power in any port
    with pytest.raises(UndefinedYieldError):
        net.yield_from_powers(paper_three_mode.powers(np.zeros(3, dtype=complex)))


def test_fano_detuning():
    assert dyn.fano_detuning(-144e-6, -2.9e-3, -7.2e-3) == pytest.approx(58e-6, rel=1e-9)
    assert dyn.fano_detuning(0.0, -2.9e-3, -7.2e-3) == 0.0
    assert dyn.fano_detuning(-144e-6, -2.9e-3, 7.2e-3) == pytest.approx(-58e-6, rel=1e-9)
    with pytest.raises(DomainError):
        dyn.fano_detuning(-144e-6, -2.9e-3, 0.0)


def test_fano_dip_location_with_j_zero(omega1):
    """With J = 0 the dipolar amplitude dips at the cavity line within gamma_c/2."""
    gamma_c = omega1 / 1e5
    h = net.build_three_mode(
        g1=-2.9e-3, G=-7.2e-3, J=0.0, delta_1e=0.0, delta_ce=0.0,
        gamma_1r=2.45e-3, gamma_o=0.2, gamma_c=gamma_c, gamma_s=3e-6, gamma_m=83e-6)
    detunings = np.linspace(-5e-4, 5e-4, 4001)
    amps, _ = dyn.steady_state_sweep(h, detunings, "emitter")
    dip = detunings[int(np.argmin(np.abs(amps[:, 0]) ** 2))]
    assert abs(dip - 0.0) <= gamma_c / 2.0


# ---------------------------------------------------------------------------
# time evolution
# ---------------------------------------------------------------------------

def test_evolve_pure_decay():
    h = net.build_three_mode(
        g1=0.0, G=0.0, J=0.0, delta_1e=0.0, delta_ce=0.0,
        gamma_1r=2.45e-3, gamma_o=0.2, gamma_c=1e-5, gamma_s=3e-6, gamma_m=83e-6)
    gamma_e = 86e-6
    t_nat = np.linspace(0.0, 3.0 / gamma_e, 200)
    trace = dyn.evolve(h, [0, 0, 1], to_fs(t_nat))
    assert trace.population("emitter") == pytest.approx(np.exp(-gamma_e * t_nat), rel=1e-9)


def test_evolve_textbook_rabi_period():
    g = 5e-3
    h = two_mode_network(g, 1e-8, 1e-8)
    period = math.pi / g
    t_nat = np.linspace(0.0, 3.0 * period, 1201)
    trace = dyn.evolve(h, [1, 0], to_fs(t_nat))
    pop = trace.population("plasmon")
    maxima = np.nonzero((pop[1:-1] > pop[:-2]) & (pop[1:-1] > pop[2:]))[0] + 1
    spacing = np.diff(t_nat[maxima])
    assert spacing == pytest.approx(period, rel=1e-2)


def test_evolve_matches_adaptive_integrator(paper_three_mode):
    h = paper_three_mode.matrix
    t_end_nat = 2.0 / 86e-6
    times_nat = np.linspace(0.0, t_end_nat, 40)
    trace = dyn.evolve(paper_three_mode, [0, 0, 1], to_fs(times_nat))
    sol = solve_ivp(
        lambda t, y: -1j * (h @ y), (0.0, t_end_nat), np.array([0, 0, 1], dtype=complex),
        t_eval=times_nat, rtol=1e-11, atol=1e-13)
    assert sol.success
    for i, label in enumerate(paper_three_mode.labels):
        assert np.max(np.abs(np.abs(sol.y[i]) ** 2 - trace.population(label))) < 1e-8


def test_evolve_population_monotone_and_initial_slope():
    rng = np.random.default_rng(1234)
    for _ in range(20):
        h, widths = random_system(rng, 3)
        ham = net.build_three_mode(
            g1=h[0, 1].real, G=h[0, 2].real, J=h[1, 2].real,
            delta_1e=h[0, 0].real, delta_ce=h[1, 1].real,
            gamma_1r=0.0, gamma_o=widths[0], gamma_c=widths[1], gamma_s=0.0, gamma_m=widths[2])
        v0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        v0 /= np.linalg.norm(v0)
        t_nat = np.linspace(0.0, 30.0, 400)
        trace = dyn.evolve(ham, v0, to_fs(t_nat))
        total = trace.total
        assert np.all(np.diff(total) <= 1e-12)
        # d/dt sum |v|^2 at t = 0 equals -sum gamma_i |v_i|^2 (Richardson FD)
        expected = -float(np.sum(widths * np.abs(v0) ** 2))
        hstep = 1e-3
        def total_at(t):
            tr = dyn.evolve(ham, v0, to_fs(np.array([0.0, t])))
            return tr.total[-1]
        d1 = (total_at(hstep) - 1.0) / hstep
        d2 = (total_at(hstep / 2.0) - 1.0) / (hstep / 2.0)
        derivative = 2.0 * d2 - d1
        assert derivative == pytest.approx(expected, rel=1e-6, abs=1e-12)


def test_evolve_grid_validation(paper_three_mode):
    with pytest.raises(DomainError):
        dyn.evolve(paper_three_mode, [0, 0, 1], np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        dyn.evolve(paper_three_mode, [0, 0, 1], np.array([0.0, 2.0, 1.0]))


@pytest.mark.parametrize("n", [1, 4])
def test_evolve_takes_two_or_three_modes(n):
    ham = net.EffectiveHamiltonian(-0.1j * np.eye(n), tuple("abcd"[:n]), {})
    with pytest.raises(DomainError, match=f"evolve propagates 2 or 3 modes, not {n}"):
        dyn.evolve(ham, np.eye(n)[0], np.linspace(0.0, 1.0, 3))


def test_evolve_blocks_give_the_same_bytes_and_bound_the_temporaries(monkeypatch):
    fig3 = exp.fig3_hamiltonians(parse_config("fig3").scenario)
    for ham in (fig3["q1e4"], parse_config_text(fig2_with(EP3)).scenario.hamiltonian()):
        times = dyn.default_time_grid(np.linalg.eigvals(ham.matrix), 2)[-1] \
            * np.linspace(0.0, 1.0, 101) ** 4  # near and far points in one block
        whole = dyn.evolve(ham, dyn.mode_vector(ham, "emitter"), times)
        with monkeypatch.context() as patch:
            patch.setattr(dyn, "SWEEP_BLOCK_POINTS", 7)
            blocked = dyn.evolve(ham, dyn.mode_vector(ham, "emitter"), times)
        for label in whole.populations:
            assert blocked.population(label).tobytes() == whole.population(label).tobytes()
    # 200,000 points: the populations and the natural-unit times take 6.4 MB; one (T, 3)
    # complex array would add 9.6 MB
    ham = fig3["q1e4"]
    times = dyn.default_time_grid(np.linalg.eigvals(ham.matrix), 200_000)
    tracemalloc.start()
    try:
        dyn.evolve(ham, dyn.mode_vector(ham, "emitter"), times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9e6


def test_evolve_overflow_at_the_first_newton_node_raises_without_a_warning():
    # a growing eigenvalue 0.5i off the close pair -0.1i +- 0.01 is the first Newton node a,
    # and the unit start has a zero where f[a] = exp(-i a t) overflows: inf * 0 is NaN there
    matrix = np.array([[0.5j, 0.0, 0.0], [0.0, -0.1j, 0.01], [0.0, 0.01, -0.1j]])
    ham = net.EffectiveHamiltonian(matrix, ("plasmon", "cavity", "emitter"), {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConditioningError, match="max Im lambda = 0.5 eV"):
            dyn.evolve(ham, dyn.mode_vector(ham, "emitter"), to_fs(np.linspace(0.0, 2e3, 9)))


def _expm_per_point(hamiltonian, v0, times_fs):
    """Reference propagation: one scaling-and-squaring exponential per time point."""
    h = hamiltonian.matrix
    return np.array([expm(-1j * h * t) @ v0 for t in from_fs(times_fs)])


def _max_population_gap(trace, amps):
    return max(np.max(np.abs(trace.population(label) - np.abs(amps[:, i]) ** 2))
               for i, label in enumerate(trace.populations))


@pytest.fixture(scope="module")
def fig3_hamiltonians():
    """The four fig3 systems: Q = 1e3, 1e4, 1e5 and the cavity-free reference."""
    return exp.fig3_hamiltonians(parse_config("fig3").scenario)


def test_evolve_matches_per_point_expm(fig3_hamiltonians, paper_three_mode):
    v0 = np.array([0.0, 0.0, 1.0], dtype=complex)
    for name, ham in {**fig3_hamiltonians, "paper": paper_three_mode}.items():
        # non-uniform grid, denser early, over ten lifetimes of the slowest branch
        times = dyn.default_time_grid(np.linalg.eigvals(ham.matrix), 2)[-1] \
            * np.linspace(0.0, 1.0, 500) ** 2
        trace = dyn.evolve(ham, v0, times)
        assert _max_population_gap(trace, _expm_per_point(ham, v0, times)) <= 1e-12, name


def _near_ep(offset):
    """The defective [[0, g], [g, -i gamma / 2]], g = gamma / 4 (1 + offset), and 301 times
    (natural units) up to 40 / gamma."""
    gamma = 0.1
    ham = two_mode_network(gamma / 4.0 * (1.0 + offset), 0.0, gamma)
    return ham, np.concatenate(([0.0], np.geomspace(1e-2, 40.0 / gamma, 300)))


@pytest.mark.parametrize("offset", [0.0, 1e-10])
def test_evolve_near_exceptional_point_matches_per_point_expm(offset):
    ham, t_nat = _near_ep(offset)
    # an eigenbasis too ill-conditioned for V exp(-i Lambda t) V^-1: cond_2(V) = 1.1e8, 1.4e5
    assert np.linalg.cond(np.linalg.eig(ham.matrix)[1]) > 1e5
    v0 = np.array([1.0, 0.0], dtype=complex)
    times = to_fs(t_nat)
    trace = dyn.evolve(ham, v0, times)
    assert _max_population_gap(trace, _expm_per_point(ham, v0, times)) <= 1e-12
    assert trace.population("plasmon")[0] == 1.0


def _population_error(ham, t_nat):
    """Worst absolute error of evolve's populations from every unit start at the times t_nat
    (natural units), against mp.expm at 40 digits of -i t H of the same float64 matrix."""
    n = len(ham.labels)
    with mpmath.workdps(40):
        exact = [mpmath.expm(_mp_matrix(-1j * t * ham.matrix)) for t in t_nat]
    worst = 0.0
    for j in range(n):
        trace = dyn.evolve(ham, np.eye(n)[j], to_fs(t_nat))
        for i, label in enumerate(ham.labels):
            reference = np.array([float(abs(e[i, j]) ** 2) for e in exact])
            worst = max(worst, float(np.max(np.abs(trace.population(label) - reference))))
    return worst


@pytest.mark.parametrize("offset", [0.0, 1e-10])
def test_evolve_near_exceptional_point_matches_40_digit_expm(offset):
    # 4.4e-16 at worst; scipy.linalg.expm errs by 1.8e-14 here
    assert _population_error(*_near_ep(offset)) <= 1e-14


def test_evolve_over_fig3_spans_matches_40_digit_expm(fig3_hamiltonians):
    # 41 points over ten lifetimes of each fig3 system, ||H t||_1 up to 2.7e5: 1.4e-15 at worst
    for name, ham in fig3_hamiltonians.items():
        span = from_fs(dyn.default_time_grid(np.linalg.eigvals(ham.matrix), 2)[-1])
        assert _population_error(ham, np.linspace(0.0, span, 41)) <= 1e-14, name


def test_evolve_at_a_third_order_exceptional_point_matches_40_digit_expm():
    # the three eigenvalues lie within 1.2e-7 eV of each other, so every point past t = 0
    # takes the second difference's series: 4.4e-16 at worst, 3.9e-7 by the quotient alone
    ham = parse_config_text(fig2_with(EP3)).scenario.hamiltonian()
    lam = np.linalg.eigvals(ham.matrix)
    span = from_fs(dyn.default_time_grid(lam, 2)[-1])
    assert np.max(np.abs(lam - lam[:, None])) * span < 1.0
    t_nat = np.concatenate(([0.0], np.geomspace(1e-2, span, 60)))
    assert _population_error(ham, t_nat) <= 1e-14


@pytest.mark.parametrize("width_uev", ["1e-3", "1e-6", "1e-9", "1e-12"])
def test_decoupled_emitter_beside_an_exceptional_point_decays_as_exp_gamma_t(width_uev):
    # decoupled, the emitter's population is exp(-gamma_e t) over ten of its lifetimes, while
    # the pair decays 1e7 to 1e16 times faster: an error of ||H t||_1 u would be 6e-8 to 64
    h = parse_config_text(fig2_with(
        {**EXCEPTIONAL_POINT, "gamma_s_uev": width_uev, "gamma_m_uev": width_uev})
    ).scenario.hamiltonian()
    trace = dyn.evolve(h, dyn.mode_vector(h, "emitter"), None, 4096)
    gamma_e = h.rates["gamma_s"] + h.rates["gamma_m"]
    expected = np.exp(-gamma_e * from_fs(trace.times_fs))
    assert expected[-1] == pytest.approx(math.exp(-10.0), rel=1e-12)
    assert np.max(np.abs(trace.population("emitter") / expected - 1.0)) <= 1e-14


def test_evolve_first_row_is_initial_state(paper_three_mode):
    v0 = np.array([0.36, 0.48j, -0.8], dtype=complex)
    trace = dyn.evolve(paper_three_mode, v0, np.linspace(0.0, 5e4, 7))
    for i, label in enumerate(trace.populations):
        assert trace.population(label)[0] == np.abs(v0[i]) ** 2


def test_default_time_grid(paper_three_mode):
    eigenvalues = np.linalg.eigvals(paper_three_mode.matrix)
    grid = dyn.default_time_grid(eigenvalues, points=128)
    assert grid.shape == (128,)
    assert grid[0] == 0.0
    slowest = min(w for w in -2.0 * eigenvalues.imag if w > 0)
    assert from_fs(grid[-1]) == pytest.approx(10.0 / slowest, rel=1e-9)


def test_evolve_sizes_its_default_grid_from_its_one_eigenvalue_call(
        paper_three_mode, monkeypatch):
    grid = dyn.default_time_grid(np.linalg.eigvals(paper_three_mode.matrix), 128)
    explicit = dyn.evolve(paper_three_mode, [0, 0, 1], grid)
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda h: calls.append(h) or eigvals(h))
    monkeypatch.setattr(dyn, "_eig", None)
    trace = dyn.evolve(paper_three_mode, [0, 0, 1], None, 128)
    assert len(calls) == 1
    np.testing.assert_array_equal(trace.times_fs, grid)
    for label in trace.populations:
        np.testing.assert_array_equal(trace.population(label), explicit.population(label))


def test_channel_cross_term(paper_three_mode):
    h = paper_three_mode
    amps, powers = solve_at(h, 0.0, "emitter")
    cross = h.vacuum_cross_term(amps)
    diag = h.rates["gamma_1r"] * abs(amps[0]) ** 2 + h.rates["gamma_s"] * abs(amps[2]) ** 2
    assert diag + cross == pytest.approx(powers["rad_vacuum"], rel=1e-12)
    # an incoherent port is its per-mode power alone
    ohmic = h.rates["gamma_o"] * abs(amps[0]) ** 2
    assert powers["ohmic_plasmon"] == pytest.approx(ohmic, rel=1e-12)


def test_count_oscillation_maxima_settle_window():
    t = np.linspace(0.0, 10.0, 1001)
    pop = np.exp(-0.2 * t) * (0.5 + 0.5 * np.cos(4.0 * t))
    n_all = dyn.count_oscillation_maxima(t, pop, 0.0)
    n_late = dyn.count_oscillation_maxima(t, pop, 5.0)
    assert n_all > n_late > 0


# ---------------------------------------------------------------------------
# eigen branches
# ---------------------------------------------------------------------------

def test_eigen_branches_zero_coupling_lines():
    sweep = np.linspace(-1.0, 1.0, 21)
    mats = [np.diag([d - 0.05j, -0.1j]) for d in sweep]
    branches = dyn.eigen_branches(mats, sweep)
    # tracked branches stay with their mode through the crossing
    assert branches.eigenvalues[:, 0].real == pytest.approx(sweep)
    assert branches.eigenvalues[:, 1].real == pytest.approx(np.zeros_like(sweep))
    metrics = dyn.anticrossing_metrics(branches)
    assert metrics.two_g_eff == pytest.approx(0.0, abs=1e-12)


def test_eigen_branches_hermitian_anticrossing():
    g = 0.1
    sweep = np.linspace(-1.0, 1.0, 81)
    mats = [np.array([[d, g], [g, 0.0]], dtype=complex) for d in sweep]
    branches = dyn.eigen_branches(mats, sweep)
    assert np.max(np.abs(branches.eigenvalues.imag)) < 0.5e-12
    separation = np.abs(branches.eigenvalues[:, 0].real - branches.eigenvalues[:, 1].real)
    assert separation == pytest.approx(np.sqrt(sweep**2 + 4.0 * g**2), rel=1e-10)
    metrics = dyn.anticrossing_metrics(branches)
    assert metrics.two_g_eff == pytest.approx(2.0 * g, rel=1e-10)


def test_eigen_branches_no_crossing_when_coupled(paper_three_mode, omega1):
    sweep = np.arange(-10e-3, 10.0001e-3, 0.5e-3)
    mats = []
    for dec in sweep:
        p = PAPER_SET
        h = net.build_three_mode(
            g1=p["g1"], G=p["G"], J=p["J"], delta_1e=0.0, delta_ce=-dec,
            gamma_1r=p["gamma_1r"], gamma_o=p["gamma_o"], gamma_c=omega1 / 1e5,
            gamma_s=p["gamma_s"], gamma_m=p["gamma_m"])
        mats.append(h.matrix)
    branches = dyn.eigen_branches(mats, sweep)
    metrics = dyn.anticrossing_metrics(branches)
    assert metrics.two_g_eff > 0.0


def test_eigen_branches_tracking_ambiguity():
    mats = [np.diag([0.0, 0.0]).astype(complex),
            np.array([[0.0, 1e-30], [1e-30, 0.0]], dtype=complex)]
    with pytest.raises(TrackingAmbiguityError):
        dyn.eigen_branches(mats, [0.0, 1.0])


def test_eigen_branches_input_validation():
    with pytest.raises(DomainError):
        dyn.eigen_branches([], [])
    with pytest.raises(DomainError):
        dyn.eigen_branches([np.eye(2)], [0.0, 1.0])


@pytest.mark.parametrize("n", [2, 3])
def test_best_assignment_matches_linear_sum_assignment(n):
    rng = np.random.default_rng(n)
    for _ in range(500):
        score = rng.uniform(0.0, 1.0, (n, n))
        _, cols = linear_sum_assignment(-score)
        assert np.array_equal(dyn._best_assignment(score), cols), score


def _per_point_branches(mats):
    """Oracle: the branch tracking with one eig per point and a general assignment solver."""
    vals, vecs = np.linalg.eig(mats[0])
    order = np.argsort(vals.real, kind="stable")
    vals, vecs = vals[order], vecs[:, order] / np.linalg.norm(vecs[:, order], axis=0)
    tracked = [vals]
    for h in mats[1:]:
        new_vals, new_vecs = np.linalg.eig(h)
        new_vecs = new_vecs / np.linalg.norm(new_vecs, axis=0)
        overlap = np.abs(vecs.conj().T @ new_vecs)
        scale = np.max(np.abs(new_vals - new_vals.mean()))
        proximity = 1.0 / (1.0 + np.abs(vals[:, None] - new_vals[None, :]) / scale)
        _, cols = linear_sum_assignment(-(overlap + 1e-9 * proximity))
        vals, vecs = new_vals[cols], new_vecs[:, cols]
        tracked.append(vals)
    return np.array(tracked)


def test_eigen_branches_match_per_point_tracking():
    scenario = parse_config("fig4").scenario
    sweep = 0.5e-3 * np.arange(-20, 21)
    mats = exp.with_cavity(scenario, -sweep).hamiltonian().matrix
    assert np.array_equal(dyn.eigen_branches(mats, sweep).eigenvalues, _per_point_branches(mats))
    rng = np.random.default_rng(5)
    for _ in range(20):
        h, _ = random_system(rng, 3)
        ramp = np.linspace(-1.0, 1.0, 15)
        mats = h + np.multiply.outer(ramp, np.diag([1.0, 0.0, -0.5]))
        assert np.array_equal(dyn.eigen_branches(mats, ramp).eigenvalues,
                              _per_point_branches(mats))


# ---------------------------------------------------------------------------
# emission spectrum plumbing
# ---------------------------------------------------------------------------

def test_emission_spectrum_weak_coupling_lorentzian(omega1):
    gamma_e = 86e-6
    h = net.build_three_mode(
        g1=-2.9e-3, G=0.0, J=0.0, delta_1e=0.0, delta_ce=0.0,
        gamma_1r=2.45e-3, gamma_o=0.2, gamma_c=omega1 / 1e5, gamma_s=3e-6, gamma_m=83e-6)
    detunings = np.linspace(-6e-4, 6e-4, 2001)
    _, powers = dyn.steady_state_sweep(h, detunings, "emitter")
    power = net.radiated_power(powers)
    peak = detunings[int(np.argmax(power))]
    assert abs(peak) < 2e-6
    # half-max width equals the emitter width
    half = power.max() / 2.0
    above = detunings[power >= half]
    assert above[-1] - above[0] == pytest.approx(gamma_e, rel=0.02)


def test_spectrum_yield_curve(paper_three_mode):
    detunings = np.linspace(-1e-4, 2e-4, 301)
    _, powers = dyn.steady_state_sweep(paper_three_mode, detunings, "emitter")
    eta = net.yield_from_powers(powers)
    assert np.all((eta > 0.0) & (eta < 1.0))


# ---------------------------------------------------------------------------
# 50-digit oracles (mpmath)
# ---------------------------------------------------------------------------

#: unit roundoff of IEEE double precision
UNIT_ROUNDOFF = 2.0**-53


def _mp_matrix(a):
    """A float64 array as an mpmath matrix: the same numbers, now exact."""
    return mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in np.atleast_2d(a)])


def test_steady_state_matches_50_digit_lu_solve():
    """Builtin fig2's amplitudes at Delta_0, 0 and Delta_0 + 1 meV against mp.lu_solve.

    The oracle solves (Delta_p I - H) v = f at 50 digits from the same float64
    H and Delta_p, so it is exact to ~45 digits at these condition numbers.
    The bound is the forward-error bound of LU with partial pivoting (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed.): the computed v
    solves (M + dM) v = f with ||dM||_inf <= gamma_3n (1 + 2 (n^2 - n) rho_n)
    ||M||_inf (Thm 9.4, Lemma 9.6), growth factor rho_n <= 2^(n-1).  Complex
    arithmetic replaces u by sqrt(2) gamma_4, the worst of +, * and / (Lemma
    3.5), and forming Delta_p - H_ii adds u ||M||_inf.  Then the relative
    error is at most kappa eps / (1 - kappa eps), kappa = kappa_inf(M) (Thm 7.2).
    """
    n = 3
    u = UNIT_ROUNDOFF
    u_complex = math.sqrt(2.0) * 4 * u / (1 - 4 * u)
    gamma_3n = 3 * n * u_complex / (1 - 3 * n * u_complex)
    eps = gamma_3n * (1 + 2 * (n * n - n) * 2 ** (n - 1)) + u

    scenario = parse_config("fig2").scenario
    h = scenario.hamiltonian()
    delta_0 = scenario["delta_0_ev"]
    detunings = np.array([delta_0, 0.0, delta_0 + 1e-3])
    amps, _ = dyn.steady_state_sweep(h, detunings, "emitter")
    with mpmath.workdps(50):
        f = mpmath.matrix(n, 1)
        f[h.index("emitter")] = 1
        for d, v in zip(detunings, amps):
            m = mpmath.mpf(d) * mpmath.eye(n) - _mp_matrix(h.matrix)
            exact = mpmath.lu_solve(m, f)
            kappa = mpmath.mnorm(m, mpmath.inf) * mpmath.mnorm(mpmath.inverse(m), mpmath.inf)
            error = mpmath.mnorm(_mp_matrix(v).T - exact, mpmath.inf) / mpmath.mnorm(
                exact, mpmath.inf)
            assert error <= kappa * eps / (1 - kappa * eps), (d, float(error), float(kappa))


def test_eigenvalues_near_exceptional_point_match_50_digit_eig():
    """Branches of [[0, g], [g, -i gamma/2]] as g -> gamma/4, from both sides, against mp.eig.

    The QR algorithm returns the exact eigenvalues of H + E with ||E||_2 <=
    p(n) u ||H||_2, p(n) a modest function of n (Golub & Van Loan, Matrix
    Computations, 4th ed., 7.5.6), taken here as 10 n.  By Bauer-Fike each
    computed eigenvalue then lies within kappa_2(V) ||E||_2 of an exact one,
    V the unit eigenvectors of H.  For two unit vectors with overlap
    c = |v1^H v2|, kappa_2(V) = sqrt((1 + c) / (1 - c)); it grows like
    1 / |lambda_1 - lambda_2| towards the exceptional point, where the
    eigenvectors coalesce (Trefethen & Embree, Spectra and Pseudospectra, 2005).
    """
    n = 2
    gamma = 0.2
    approach = 10.0 ** -np.arange(1, 9)
    for side in (1.0, -1.0):
        g_values = 0.25 * gamma * (1.0 + side * approach)
        matrices = [two_mode_network(g, 0.0, gamma).matrix for g in g_values]
        computed = dyn.eigen_branches(matrices, g_values).eigenvalues
        for matrix, lams in zip(matrices, computed):
            with mpmath.workdps(50):
                m = _mp_matrix(matrix)
                exact, vecs = mpmath.eig(m)
                v1, v2 = (vecs[:, k] / mpmath.norm(vecs[:, k]) for k in range(n))
                c = abs(sum(mpmath.conj(a) * b for a, b in zip(v1, v2)))
                kappa = mpmath.sqrt((1 + c) / (1 - c))
                bound = kappa * 10 * n * UNIT_ROUNDOFF * mpmath.mnorm(m, "F")
                for lam in lams:
                    error = min(abs(mpmath.mpc(complex(lam)) - e) for e in exact)
                    assert error <= bound, (float(matrix[0, 1].real), float(error), float(bound))


def _assert_within_condition_bound(h, detunings, f, v, bound):
    """Every 40th point and the 20 nearest a resonance against mp.lu_solve at 50 digits.

    The relative 2-norm error of each solve must be at most n u K, K the
    guard's own bound on kappa_2(Delta I - H), for either path.
    """
    n = h.shape[-1]
    shape = bound.shape
    mats = np.broadcast_to(h, shape + (n, n)).reshape(-1, n, n)
    d = np.broadcast_to(detunings, shape).ravel()
    v, bound = v.reshape(-1, n), bound.ravel()
    distance = np.min(np.abs(d[:, None] - np.linalg.eigvals(mats)), axis=1)
    picks = np.union1d(np.arange(0, d.size, 40), np.argsort(distance, kind="stable")[:20])
    with mpmath.workdps(50):
        rhs = _mp_matrix(f).T
        for k in picks:
            m = mpmath.mpf(float(d[k])) * mpmath.eye(n) - _mp_matrix(mats[k])
            exact = mpmath.lu_solve(m, rhs)
            error = mpmath.norm(_mp_matrix(v[k]).T - exact) / mpmath.norm(exact)
            assert error <= n * UNIT_ROUNDOFF * bound[k], (k, float(error), float(bound[k]))


#: builtin -> its figure runner, each making every steady-state solve of that figure
FIGURE_RUNS = {
    "fig1c": lambda scenario: (exp.run_fig1c(scenario),),
    "fig2": exp.run_fig2,
    "fig2_first_principles": exp.run_fig2,
    "fig3": exp.run_fig3,
    "fig4": lambda scenario: exp.run_fig4(scenario, 2e-3 * np.arange(-5, 6),
                                           exp.FIG4_SPECTRUM_POINTS),
}


@pytest.mark.parametrize("builtin", sorted(FIGURE_RUNS))
def test_figure_solves_match_50_digit_lu_solve(builtin, monkeypatch):
    """Each figure's solves take the spectral path for a sweep and LU for one point.

    Every block of every solve is recorded as the figure consumes it, and
    every point of each solve must have been handed on.
    """
    solves = []
    resolvent = dyn._resolvent

    def recording(h, grid, f):
        path, worst, solve = resolvent(h, grid, f)
        v = np.empty(grid.shape + f.shape, dtype=complex)
        seen = np.zeros(grid.shape, dtype=bool)
        solves.append((h, grid, f, v, seen, path))

        def recorded(index, d):
            block = solve(index, d)
            v[index], seen[index] = block, True
            return block
        return path, worst, recorded

    monkeypatch.setattr(dyn, "_resolvent", recording)
    for table in FIGURE_RUNS[builtin](parse_config(builtin).scenario):
        table.rows  # a sweep's table solves its blocks as they are read
    assert solves
    for h, grid, f, v, seen, path in solves:
        assert seen.all()
        assert path == ("spectral" if math.prod(grid.shape) > h[..., 0, 0].size else "lu")
        _assert_within_condition_bound(h, grid_values(grid), f, v, sweep_bound(h, grid, path))


def test_near_exceptional_point_member_sends_the_whole_stack_to_lu():
    """One defective-looking member of a stack puts every member on the LU path."""
    gamma = 0.1
    couplings = [0.01, gamma / 4.0 * (1.0 + 1e-10), 0.05]
    stack = np.stack([two_mode_network(g, 0.0, gamma).matrix for g in couplings])[:, None]
    detunings = np.linspace(-0.1, 0.1, 201)
    f = np.array([1.0, 0.0], dtype=complex)
    assert list(dyn._eig(stack)[2][:, 0] > dyn.EIG_COND_LIMIT) == [False, True, False]
    assert resolvent_solve(stack[[0, 2]], detunings, f)[2] == "spectral"
    v, bound, path = resolvent_solve(stack, detunings, f)
    assert path == "lu" and v.shape == (3, 201, 2)
    _assert_within_condition_bound(stack, detunings, f, v, bound)


def test_spectral_bound_over_the_guard_retries_on_lu():
    """A narrow line beside a near-exceptional-point pair: the spectral K fails, LU solves.

    The plasmon and a lossless cavity sit 1e-5 above their exceptional point
    (cond_2(V) ~ 450, inside EIG_COND_LIMIT), 0.1 eV above a decoupled
    emitter of width 2 neV.  On the emitter line cond_2(V)^2 max/min reaches
    2e13 while kappa_2 is ~1e8, so the sweep goes to the LU path and meets
    the 50-digit oracle within its K.
    """
    gamma = 0.05
    g1 = gamma / 4.0 * (1.0 + np.array([[1e-2], [1e-5]]))
    h = net.build_three_mode(
        g1=g1, G=0.0, J=0.0, delta_1e=0.1, delta_ce=0.1, gamma_1r=0.0, gamma_o=gamma,
        gamma_c=0.0, gamma_s=1e-9, gamma_m=1e-9)
    detunings = np.linspace(-0.01, 0.01, 201)
    f = dyn.mode_vector(h, "plasmon")
    lam, _, cond_v = dyn._eig(h.matrix)
    dist = np.abs(detunings[:, None] - lam)
    spectral = cond_v**2 * dist.max(axis=-1) / dist.min(axis=-1)
    assert np.all(cond_v <= dyn.EIG_COND_LIMIT) and not accepted(spectral)
    v, bound, path = resolvent_solve(h.matrix, detunings, f)
    assert path == "lu" and v.shape == (2, 201, 3) and accepted(bound)
    _assert_within_condition_bound(h.matrix, detunings, f, v, bound)
    amps, _ = dyn.steady_state_sweep(h, detunings, "plasmon")
    np.testing.assert_array_equal(amps, v)
