import re

import numpy as np
import pytest

from plasmonsim import dynamics as dyn
from plasmonsim import experiments as exp
from plasmonsim import materials as mat
from plasmonsim import network as net
from plasmonsim.config import BUILTIN_CONFIGS, parse_config


@pytest.fixture(scope="session")
def gold():
    """Drude gold as the builtin configs set it: eps_inf = 1, omega_p = 4 eV, gamma_o = 0.2 eV."""
    return mat.DrudeMetal(eps_inf=1.0, omega_p=4.0, gamma_o=0.2)


@pytest.fixture(scope="session")
def vacuum():
    return mat.Environment(1.0)


@pytest.fixture(scope="session")
def sphere10(gold):
    return mat.Nanoparticle(mat.Sphere(10.0), gold)


@pytest.fixture(scope="session")
def ellipsoid(gold):
    return mat.Nanoparticle(mat.Ellipsoid(33.0, 5.5, 5.5), gold)


@pytest.fixture(scope="session")
def omega1(gold, vacuum):
    return mat.sphere_mode_frequency(gold, vacuum, 1)


# quoted parameter set of the resonant sphere + emitter system
PAPER_SET = {
    "g1": -2.9e-3,
    "G": -7.2e-3,
    "J": -144e-6,
    "gamma_s": 3e-6,
    "gamma_m": 83e-6,
    "gamma_1r": 2.45e-3,
    "gamma_o": 0.2,
}


@pytest.fixture(scope="session")
def paper_three_mode(omega1):
    """Resonant three-mode system with the quoted coupling set, Q = 1e5."""
    p = PAPER_SET
    return net.build_three_mode(
        g1=p["g1"], G=p["G"], J=p["J"], delta_1e=0.0, delta_ce=0.0,
        gamma_1r=p["gamma_1r"], gamma_o=p["gamma_o"], gamma_c=omega1 / 1e5,
        gamma_s=p["gamma_s"], gamma_m=p["gamma_m"])


def two_mode_network(g, plasmon_width, cavity_width):
    """A 2x2 (plasmon, cavity) network [[-i w_p/2, g], [g, -i w_c/2]], written out here.

    For checks that need only a small matrix: the exceptional point, the
    textbook Rabi period and a singular solve.  The package's model is the
    three-mode one.
    """
    matrix = np.array([[-0.5j * plasmon_width, g], [g, -0.5j * cavity_width]])
    return net.EffectiveHamiltonian(matrix, ("plasmon", "cavity"),
                                    {"gamma_o": plasmon_width, "gamma_c": cavity_width})


#: fig2's plasmon and a lossless cavity at their exceptional point, g1 = gamma_o / 4, 0.1 eV
#: above an emitter decoupled from both, of width gamma_s + gamma_m = 2 neV: the system of
#: scripts/compare_outputs.py's evolve_near_ep
EXCEPTIONAL_POINT = {"g1_mev": "12.5", "G_mev": "0", "J_uev": "0", "gamma_o_ev": "0.05",
                     "gamma_1r_mev": "0", "gamma_s_uev": "0.001", "gamma_m_uev": "0.001",
                     "q_factor": "1e30", "delta_1e_ev": "0.1", "delta_ce_ev": "0.1",
                     "drive": "plasmon"}

#: a third-order exceptional point: emitter, cavity and plasmon widths k, k + 2 gamma and
#: k + 4 gamma (k = 2 neV, gamma = 12.5 meV; q_factor = omega_c / (k + 2 gamma)), all resonant
#: and chained by g1 = J = gamma / sqrt(2), G = 0; scripts/compare_outputs.py's evolve_ep3
EP3 = {"g1_mev": "8.838834764831843", "G_mev": "0", "J_uev": "8838.834764831843",
       "gamma_o_ev": "0.05", "gamma_1r_mev": "2e-6", "gamma_s_uev": "0.001",
       "gamma_m_uev": "0.001", "q_factor": "92.37603568025727"}


def fig2_with(values):
    """The builtin fig2 config text with the line of each key set to its value."""
    text = BUILTIN_CONFIGS["fig2"]
    for key, value in values.items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1, key
    return text


def random_system(rng, n_modes=None):
    """Random damped mode network with real couplings, for property tests."""
    n = n_modes or int(rng.integers(2, 4))
    detunings = rng.uniform(-1.0, 1.0, n)
    widths = rng.uniform(1e-6, 0.3, n)
    h = np.diag(detunings - 0.5j * widths).astype(complex)
    for i in range(n):
        for j in range(i + 1, n):
            h[i, j] = h[j, i] = rng.uniform(-0.05, 0.05)
    return h, widths


def column(table, name):
    """One column of a ResultTable as an array, each cell exactly as the table holds it."""
    return table.rows[name]


def spectrum_peak_separation(detunings, power):
    """Separation of the two tallest local maxima of a spectrum (0 if single-peaked)."""
    p = np.asarray(power)
    idx = np.nonzero((p[1:-1] > p[:-2]) & (p[1:-1] > p[2:]))[0] + 1
    if len(idx) < 2:
        return 0.0
    top = sorted(idx, key=lambda i: -p[i])[:2]
    return float(abs(detunings[top[0]] - detunings[top[1]]))


def pair_metrics(matrix):
    """Anti-crossing metrics of the two branches of one matrix nearest zero detuning."""
    return dyn.anticrossing_metrics(dyn.eigen_branches([matrix], [0.0]))


def map_column(scenario, d_nm, q_grid, name):
    """One column of the scenario's enhancement map at one distance over q_grid."""
    return column(exp.enhancement_map(scenario, [d_nm], q_grid), name)


# the anti-crossing sweep the tests check: -10..10 meV in 0.5 meV steps, exact zero at the centre
FIG4_TEST_SWEEP = 0.5e-3 * np.arange(-20, 21)


@pytest.fixture(scope="session")
def fig3():
    """The fig3_traces and fig3_spectrum tables of builtin fig3."""
    return exp.run_fig3(parse_config("fig3").scenario)


@pytest.fixture(scope="session")
def fig4():
    """The fig4_branches and fig4_spectra tables of builtin fig4 over FIG4_TEST_SWEEP."""
    return exp.run_fig4(parse_config("fig4").scenario, FIG4_TEST_SWEEP, exp.FIG4_SPECTRUM_POINTS)
