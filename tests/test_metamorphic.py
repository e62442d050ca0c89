"""Metamorphic relations of evolve: exact symmetries under which one run is another's oracle.

- Scale: multiplying every energy by 16, a power of two, makes every product of the
  propagation exact, so the populations at times / 16 are the same bit for bit.
- Mirror: H -> -conj(H) negates every detuning and coupling and keeps every width, and
  exp(i conj(H) t) v0 = conj(exp(-i H t) v0) for a real v0, so the populations are the same,
  bit for bit but where a start's exact amplitudes underflow beside an exceptional point
  (ROUNDED).

Both run on each default time grid, from emitter and plasmon starts, on fig3's four
systems, the quoted three-mode set, the exceptional-point pair of conftest at and just off
its point, that pair beside a 1e-12 ueV emitter and a third-order exceptional point.
"""

import numpy as np
import pytest

from plasmonsim import dynamics as dyn
from plasmonsim import experiments as exp
from plasmonsim import network as net
from plasmonsim.config import parse_config, parse_config_text

from conftest import EP3, EXCEPTIONAL_POINT, fig2_with

POINTS = 4096

#: name -> fig2 edits of the config-built systems
EDITED = {
    "ep": EXCEPTIONAL_POINT,
    "near_ep": {**EXCEPTIONAL_POINT, "g1_mev": "12.500125"},
    "narrow_beside_ep": {**EXCEPTIONAL_POINT, "gamma_s_uev": "1e-12", "gamma_m_uev": "1e-12"},
    "ep3": EP3,
}
SYSTEMS = ("fig3_q1e3", "fig3_q1e4", "fig3_q1e5", "fig3_no_cavity", "paper", *EDITED)

#: plasmon starts beside the exceptional-point pair.  LAPACK's eigenvalues of -conj(H) are not
#: exactly -conj of those of H at the pair (1.8e-10 apart at the point, 7e-15 just off it), and
#: after t = 0 these populations are what is left, a few u in modulus, of a Newton sum whose
#: exact value underflows: the moduli agree within 16 u (4.2 u at worst), not bit for bit
ROUNDED = {("ep", "plasmon"), ("near_ep", "plasmon"), ("narrow_beside_ep", "plasmon")}
U = np.finfo(float).eps / 2


@pytest.fixture(scope="module")
def systems(paper_three_mode):
    found = {f"fig3_{label}": h
             for label, h in exp.fig3_hamiltonians(parse_config("fig3").scenario).items()}
    found["paper"] = paper_three_mode
    for name, values in EDITED.items():
        found[name] = parse_config_text(fig2_with(values)).scenario.hamiltonian()
    assert set(found) == set(SYSTEMS)
    return found


def _transformed(h, matrix):
    return net.EffectiveHamiltonian(matrix, h.labels, h.rates)


def _assert_same_populations(trace, other):
    assert list(trace.populations) == list(other.populations)
    for label, population in trace.populations.items():
        assert population.tobytes() == other.population(label).tobytes(), label


@pytest.mark.parametrize("start", ["emitter", "plasmon"])
@pytest.mark.parametrize("name", SYSTEMS)
def test_evolve_of_16_h_at_times_over_16_gives_the_same_populations(systems, name, start):
    h = systems[name]
    v0 = dyn.mode_vector(h, start)
    trace = dyn.evolve(h, v0, None, POINTS)
    scaled = dyn.evolve(_transformed(h, 16.0 * h.matrix), v0, None, POINTS)
    assert scaled.times_fs.tobytes() == (trace.times_fs / 16.0).tobytes()
    _assert_same_populations(scaled, trace)


@pytest.mark.parametrize("start", ["emitter", "plasmon"])
@pytest.mark.parametrize("name", SYSTEMS)
def test_evolve_of_the_mirror_h_gives_the_same_populations(systems, name, start):
    h = systems[name]
    v0 = dyn.mode_vector(h, start)
    trace = dyn.evolve(h, v0, None, POINTS)
    mirrored = dyn.evolve(_transformed(h, -h.matrix.conj()), v0, None, POINTS)
    assert mirrored.times_fs.tobytes() == trace.times_fs.tobytes()
    if (name, start) not in ROUNDED:
        _assert_same_populations(mirrored, trace)
    for label, population in trace.populations.items():
        gap = np.abs(np.sqrt(population) - np.sqrt(mirrored.population(label)))
        assert np.max(gap) <= 16 * U, label
