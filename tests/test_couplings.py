import math

import numpy as np
import pytest

from plasmonsim import couplings as cpl
from plasmonsim import materials as mat
from plasmonsim.errors import DomainError
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


def test_dipole_dipole_warns_inside_extent():
    with pytest.warns(UserWarning, match="point-dipole"):
        cpl.dipole_dipole_coupling(20.1, 1.0, 9.0, 1.0, "longitudinal", extent=10.0)


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
# multipole quenching
# ---------------------------------------------------------------------------

def test_quench_rate_near_quoted_value(sphere10, vacuum, omega1):
    emitter = cpl.Emitter(mu=1.0, omega_e=omega1, distance=10.0, orientation="tangential")
    rate = cpl.multipole_quench_rate(emitter, sphere10, vacuum, omega1)
    # soft target: the quoted 83 ueV within a factor of two
    assert 83e-6 / 2.0 <= rate <= 83e-6 * 2.0


def test_quench_rate_radial_exceeds_tangential(sphere10, vacuum, omega1):
    radial = cpl.Emitter(mu=1.0, omega_e=omega1, distance=10.0, orientation="radial")
    tangential = cpl.Emitter(mu=1.0, omega_e=omega1, distance=10.0, orientation="tangential")
    assert (cpl.multipole_quench_rate(radial, sphere10, vacuum, omega1)
            > cpl.multipole_quench_rate(tangential, sphere10, vacuum, omega1))


def test_quench_rate_vanishes_far_away(sphere10, vacuum, omega1):
    rates = []
    for distance in (5.0, 10.0, 40.0, 200.0, 1000.0):
        emitter = cpl.Emitter(mu=1.0, omega_e=omega1, distance=distance,
                              orientation="tangential")
        rates.append(cpl.multipole_quench_rate(emitter, sphere10, vacuum, omega1))
    assert all(a > b for a, b in zip(rates, rates[1:]))
    assert rates[-1] < 1e-12


def test_quench_rate_dipole_scaling(sphere10, vacuum, omega1):
    one = cpl.Emitter(mu=1.0, omega_e=omega1, distance=10.0, orientation="tangential")
    two = cpl.Emitter(mu=2.0, omega_e=omega1, distance=10.0, orientation="tangential")
    assert cpl.multipole_quench_rate(two, sphere10, vacuum, omega1) == pytest.approx(
        4.0 * cpl.multipole_quench_rate(one, sphere10, vacuum, omega1), rel=1e-12)


def test_quench_truncation_tail_bound(sphere10, vacuum, omega1):
    # oracle: rebuild the series term by term; the retained tail estimated by
    # the geometric ratio (R/d)^2 must sit below 1e-3 of the sum
    emitter = cpl.Emitter(mu=1.0, omega_e=omega1, distance=3.0, orientation="tangential")
    radius = sphere10.shape.radius
    d = radius + emitter.distance
    ratio2 = (radius / d) ** 2
    total = 0.0
    terms = []
    for order in range(2, cpl.QUENCH_L_MAX + 1):
        im_f = mat.multipole_absorption_response(sphere10.metal, vacuum, order, omega1).imag
        term = (order * (order + 1) / 2.0) * radius ** (2 * order + 1) * im_f / d ** (2 * order + 4)
        total += term
        if total > 0 and term < cpl.QUENCH_TERM_CUTOFF * total:
            break
        terms.append(term)
    weight_growth = (order + 2) / order  # bound on w_{l+1}/w_l for the tangential weights
    tail = term * ratio2 * weight_growth / (1.0 - ratio2 * weight_growth)
    assert tail < 1e-3 * total


def test_quench_rate_rejects_ellipsoid(ellipsoid, vacuum, omega1):
    emitter = cpl.Emitter(mu=1.0, omega_e=omega1, distance=5.0)
    with pytest.raises(DomainError, match="sphere"):
        cpl.multipole_quench_rate(emitter, ellipsoid, vacuum, omega1)


def test_emitter_validation():
    with pytest.raises(DomainError):
        cpl.Emitter(mu=1.0, omega_e=2.3, distance=-1.0)
    with pytest.raises(DomainError):
        cpl.Emitter(mu=1.0, omega_e=2.3, distance=5.0, orientation="diagonal")
    emitter = cpl.Emitter(mu=1.0, omega_e=2.3, distance=5.0, gamma_s=1e-6, gamma_m=4e-6)
    assert emitter.gamma_e == pytest.approx(5e-6)


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
