import math

import mpmath as mp
import numpy as np
import pytest

from plasmonsim import couplings as cpl
from plasmonsim import materials as mat
from plasmonsim.errors import ConfigError, DomainError
from plasmonsim.quantities import COULOMB, HBAR_C


# ---------------------------------------------------------------------------
# vacuum coupling
# ---------------------------------------------------------------------------

def test_vacuum_coupling_unit_dipole(omega1):
    g = cpl.vacuum_coupling(1.0, omega1, 1e9, 1.0)
    assert g == pytest.approx(144.5e-6, rel=1e-3)
    assert g == pytest.approx(144e-6, rel=0.02)  # quoted |J|


def test_vacuum_coupling_effective_plasmon_dipole(omega1):
    mu1 = cpl.plasmon_effective_dipole(2.45e-3, omega1)
    assert cpl.vacuum_coupling(mu1, omega1, 1e9, 1.0) == pytest.approx(2.9e-3, rel=0.02)


def test_vacuum_coupling_volume_scaling(omega1):
    g1 = cpl.vacuum_coupling(1.0, omega1, 1e9, 1.0)
    g4 = cpl.vacuum_coupling(1.0, omega1, 4e9, 1.0)
    assert g4 == pytest.approx(0.5 * g1, rel=1e-12)


def test_vacuum_coupling_dipole_ratio_exact(omega1):
    ga = cpl.vacuum_coupling(3.7, omega1, 1e9, 1.0)
    gb = cpl.vacuum_coupling(1.1, omega1, 1e9, 1.0)
    assert ga / gb == pytest.approx(3.7 / 1.1, rel=1e-12)


# ---------------------------------------------------------------------------
# effective plasmon dipole
# ---------------------------------------------------------------------------

def test_plasmon_effective_dipole_value(omega1):
    # the quoted coupling ratio g1/J fixes mu_1 near 20.1 e nm
    assert cpl.plasmon_effective_dipole(2.45e-3, omega1) == pytest.approx(20.1, rel=0.01)


def test_plasmon_effective_dipole_sqrt_scaling(omega1):
    mu = cpl.plasmon_effective_dipole(1e-3, omega1)
    assert cpl.plasmon_effective_dipole(4e-3, omega1) == pytest.approx(2.0 * mu, rel=1e-12)


def test_plasmon_effective_dipole_ellipsoid():
    assert cpl.plasmon_effective_dipole(0.32e-3, 0.832) == pytest.approx(33.3, abs=1.0)


# ---------------------------------------------------------------------------
# dipole-dipole coupling
# ---------------------------------------------------------------------------

def test_dipole_dipole_longitudinal():
    G = cpl.dipole_dipole_coupling(20.1, 1.0, 20.0, 1.0, "longitudinal")
    assert G == pytest.approx(2.0 * 20.1 * COULOMB / 20.0**3, rel=1e-12)
    assert G == pytest.approx(7.23e-3, rel=0.01)
    assert G == pytest.approx(7.2e-3, rel=0.01)  # quoted |G|


def test_dipole_dipole_cubic_scaling():
    G1 = cpl.dipole_dipole_coupling(20.1, 1.0, 20.0)
    G2 = cpl.dipole_dipole_coupling(20.1, 1.0, 40.0)
    assert G2 == pytest.approx(G1 / 8.0, rel=1e-12)


def test_dipole_dipole_transverse_sign():
    longitudinal = cpl.dipole_dipole_coupling(20.1, 1.0, 20.0, 1.0, "longitudinal")
    transverse = cpl.dipole_dipole_coupling(20.1, 1.0, 20.0, 1.0, "transverse")
    assert transverse == pytest.approx(-0.5 * longitudinal, rel=1e-12)
    assert transverse == pytest.approx(-3.62e-3, abs=0.02e-3)


def test_dipole_dipole_rejects_bad_distance():
    with pytest.raises(DomainError):
        cpl.dipole_dipole_coupling(1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# free-space decay
# ---------------------------------------------------------------------------

def test_free_space_decay_value(omega1):
    rate = cpl.free_space_decay(1.0, omega1, 1.0)
    # oracle: (4/3) k_e mu^2 k^3 assembled from the constants directly
    k = omega1 / HBAR_C
    assert rate == pytest.approx(4.0 / 3.0 * COULOMB * k**3, rel=1e-12)
    assert rate == pytest.approx(3e-6, rel=0.05)  # quoted gamma_s


def test_free_space_decay_scalings(omega1):
    base = cpl.free_space_decay(1.0, omega1, 1.0)
    assert cpl.free_space_decay(2.0, omega1, 1.0) == pytest.approx(4.0 * base, rel=1e-12)
    assert cpl.free_space_decay(1.0, 2.0 * omega1, 1.0) == pytest.approx(8.0 * base, rel=1e-12)


# ---------------------------------------------------------------------------
# the distance law: multipole quenching and the near-field coupling
# ---------------------------------------------------------------------------

def quench_rates(particle, env, omega, distance, mu=1.0, orientation="tangential"):
    return cpl.multipole_quench_rates(distance, particle, env, omega, mu, orientation)


def law(particle, env, omega, distance, mu_e=1.0, orientation="tangential"):
    mu_1 = cpl.plasmon_effective_dipole(2.45e-3, omega)
    return cpl.distance_law(distance, particle, env, omega, mu_1, mu_e, orientation)


def test_quench_rate_near_quoted_value(sphere10, vacuum, omega1):
    rate = quench_rates(sphere10, vacuum, omega1, 10.0)
    # soft target: the first-principles sum within a factor of two of the quoted 83 ueV
    assert 83e-6 / 2.0 <= rate <= 83e-6 * 2.0


def test_quench_rate_radial_exceeds_tangential(sphere10, vacuum, omega1):
    distances = np.array([1.0, 10.0, 100.0])
    radial = quench_rates(sphere10, vacuum, omega1, distances, orientation="radial")
    tangential = quench_rates(sphere10, vacuum, omega1, distances, orientation="tangential")
    assert np.all(radial > tangential)


def test_quench_rate_vanishes_far_away(sphere10, vacuum, omega1):
    distances = np.array([5.0, 10.0, 40.0, 200.0, 1000.0])
    for rates in (quench_rates(sphere10, vacuum, omega1, distances),
                  law(sphere10, vacuum, omega1, distances)[1]):
        assert np.all(np.diff(rates) < 0)
        assert rates[-1] < 1e-12


def test_quench_rate_dipole_scaling(sphere10, vacuum, omega1):
    distances = np.array([0.3, 3.0, 10.0, 300.0])
    assert quench_rates(sphere10, vacuum, omega1, distances, mu=2.0) == pytest.approx(
        4.0 * quench_rates(sphere10, vacuum, omega1, distances), rel=1e-12)
    # the anchor absorbs the emitter dipole: G scales as mu_e, the anchored gamma_m not at all
    G_1, gamma_1 = law(sphere10, vacuum, omega1, distances)
    G_2, gamma_2 = law(sphere10, vacuum, omega1, distances, mu_e=2.0)
    assert G_2 == pytest.approx(2.0 * G_1, rel=1e-12)
    assert gamma_2 == pytest.approx(gamma_1, rel=1e-12)


def test_quench_truncation_tail_bound(sphere10, vacuum, omega1):
    # oracle: rebuild the series term by term; the dropped tail, estimated by the
    # geometric ratio (R/d)^2 and summed out to QUENCH_L_MAX, must sit below 1e-3
    # of the retained sum, which is the program's rate
    radius, distance = sphere10.shape.radius, 3.0
    d = radius + distance
    ratio2 = (radius / d) ** 2
    terms = []
    for order in range(2, cpl.QUENCH_L_MAX + 1):
        im_f = mat.multipole_absorption_response(sphere10.metal, vacuum, order, omega1).imag
        terms.append(order * (order + 1) / 2.0 * im_f * (radius / d) ** (2 * order + 1) / d**3)
    total = 0.0
    for cut, term in enumerate(terms):
        total += term
        if total > 0 and term < cpl.QUENCH_TERM_CUTOFF * total:
            break
    order = cut + 2
    weight_growth = (order + 2) / order  # bound on w_{l+1}/w_l for the tangential weights
    tail = term * ratio2 * weight_growth / (1.0 - ratio2 * weight_growth)
    assert tail < 1e-3 * total
    assert sum(terms[cut + 1:]) < 1e-3 * total
    assert quench_rates(sphere10, vacuum, omega1, distance) == pytest.approx(
        2.0 * COULOMB * total, rel=1e-13)


def test_quench_rate_rejects_ellipsoid(ellipsoid, vacuum, omega1):
    with pytest.raises(DomainError, match="sphere"):
        quench_rates(ellipsoid, vacuum, omega1, 5.0)
    # the law gives an ellipsoid its near-field G along axis 1, and no quench rate
    G, gamma_m = law(ellipsoid, vacuum, omega1, 5.0, orientation="radial")
    assert gamma_m is None
    assert G == -cpl.dipole_dipole_coupling(
        cpl.plasmon_effective_dipole(2.45e-3, omega1), 1.0, 33.0 + 5.0)


def test_quench_sum_rejects_an_unconverged_sum(sphere10, vacuum, omega1):
    # 0.05 nm from a 10 nm sphere the terms fall as (10/10.05)^(2l): no cutoff by l = 400
    with pytest.raises(ConfigError, match="0.05 nm from a 10 nm sphere has not converged"):
        law(sphere10, vacuum, omega1, np.array([5.0, 0.05]))
    # 1e41 nm out (R/d)^(2l+1) / d^3 is below the smallest normal float at every order
    with pytest.raises(ConfigError, match="1e\\+41 nm from a 10 nm sphere underflows; place "
                                          "it nearer"):
        law(sphere10, vacuum, omega1, np.array([5.0, 1e41]))


def _mp_truncated_sum(radius, distance, metal, omega, orientation):
    """The truncated multipole sum in vacuum, without its prefactor, at 50 digits."""
    with mp.workdps(50):
        w = mp.mpf(omega)
        eps = metal.eps_inf - mp.mpf(metal.omega_p) ** 2 / (w**2 + 1j * w * metal.gamma_o)
        R, d = mp.mpf(radius), mp.mpf(radius) + mp.mpf(distance)
        total = mp.mpf(0)
        for order in range(2, cpl.QUENCH_L_MAX + 1):
            weight = (order + 1) ** 2 if orientation == "radial" else mp.mpf(order * (order + 1)) / 2
            im_f = mp.im(order * (eps - 1) / (order * eps + (order + 1)))
            term = weight * im_f * (R / d) ** (2 * order + 1) / d**3
            total += term
            if total > 0 and term < mp.mpf(cpl.QUENCH_TERM_CUTOFF) * total:
                return 2 * mp.mpf(COULOMB) * total
    raise AssertionError("the oracle sum did not converge")


@pytest.mark.parametrize("orientation", ["radial", "tangential"])
def test_quench_sum_matches_mpmath_oracle(orientation, gold, vacuum, omega1):
    cases = [(10.0, d) for d in np.geomspace(0.3, 1000.0, 12)] + [(30.0, 1.0)]
    for radius, distance in cases:
        sphere = mat.Nanoparticle(mat.Sphere(radius), gold)
        rate = cpl.multipole_quench_rates(distance, sphere, vacuum, omega1, 1.0, orientation)
        exact = _mp_truncated_sum(radius, distance, gold, omega1, orientation)
        assert abs(float(rate) / exact - 1) < 1e-14, (radius, distance)


def test_distance_law_array_equals_scalar_calls(sphere10, vacuum, omega1, monkeypatch):
    distances = np.geomspace(0.3, 1000.0, 24).reshape(4, 6)
    for orientation in ("radial", "tangential"):
        G, gamma_m = law(sphere10, vacuum, omega1, distances, orientation=orientation)
        assert G.shape == gamma_m.shape == distances.shape
        # in blocks of five distances: neither the block edges nor the anchor's place show
        with monkeypatch.context() as patch:
            patch.setattr(cpl, "QUENCH_BLOCK", 5)
            G_blocked, gamma_blocked = law(
                sphere10, vacuum, omega1, distances, orientation=orientation)
        for index, distance in np.ndenumerate(distances):
            G_1, gamma_1 = law(sphere10, vacuum, omega1, float(distance), orientation=orientation)
            assert G_1 == G[index] == G_blocked[index]
            assert gamma_1 == gamma_m[index] == gamma_blocked[index]


# ---------------------------------------------------------------------------
# projections and consistency
# ---------------------------------------------------------------------------

def test_project_couplings_limits():
    assert cpl.project_couplings(-7.2e-3, -2.9e-3, 0.0) == (pytest.approx(-7.2e-3), 0.0)
    G, g1 = cpl.project_couplings(-7.2e-3, -2.9e-3, 90.0)
    assert G == pytest.approx(0.0, abs=1e-18)
    assert g1 == pytest.approx(-2.9e-3)


def test_project_couplings_sixty_degrees():
    G, g1 = cpl.project_couplings(-7.2e-3, -2.9e-3, 60.0)
    assert G == pytest.approx(-3.6e-3, rel=1e-9)
    assert g1 == pytest.approx(-2.511e-3, abs=1e-6)


def test_project_couplings_rejects_out_of_range():
    with pytest.raises(DomainError):
        cpl.project_couplings(1.0, 1.0, 91.0)


def test_coupling_consistency_triangle(sphere10, vacuum, omega1):
    """One effective dipole reproduces the quoted {g1, J, G} triple together."""
    gamma_1r = mat.dipolar_radiative_rate(sphere10, vacuum)
    mu1 = cpl.plasmon_effective_dipole(gamma_1r, omega1)
    g1 = cpl.vacuum_coupling(mu1, omega1, 1e9, 1.0)
    J = cpl.vacuum_coupling(1.0, omega1, 1e9, 1.0)
    assert g1 / J == pytest.approx(mu1, rel=1e-12)
    assert g1 / J == pytest.approx(2.9e-3 / 144e-6, rel=0.01)
    G = cpl.dipole_dipole_coupling(mu1, 1.0, 20.0, 1.0, "longitudinal")
    assert G == pytest.approx(7.2e-3, rel=0.02)


# randomized homogeneity checks: exponents of every power law at once
def test_scaling_exponents_randomized(omega1):
    rng = np.random.default_rng(20240817)
    for _ in range(200):
        mu = rng.uniform(0.2, 30.0)
        omega = rng.uniform(0.3, 3.0)
        volume = rng.uniform(1e7, 1e10)
        d = rng.uniform(5.0, 80.0)
        s = rng.uniform(1.5, 4.0)
        assert cpl.vacuum_coupling(mu, omega, s * volume) == pytest.approx(
            cpl.vacuum_coupling(mu, omega, volume) / math.sqrt(s), rel=1e-10)
        assert cpl.dipole_dipole_coupling(mu, 1.0, s * d) == pytest.approx(
            cpl.dipole_dipole_coupling(mu, 1.0, d) / s**3, rel=1e-10)
        assert cpl.free_space_decay(s * mu, omega) == pytest.approx(
            s**2 * cpl.free_space_decay(mu, omega), rel=1e-10)
        assert cpl.free_space_decay(mu, s * omega) == pytest.approx(
            s**3 * cpl.free_space_decay(mu, omega), rel=1e-10)
