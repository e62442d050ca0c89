"""First-principles coupling constants and decay rates.

All couplings follow from two ingredients: the vacuum-field coupling of a
dipole to the cavity mode, mu * sqrt(omega / (2 eps0 eps_b V)), and the
quasi-static near field of a point dipole.  The dipolar plasmon enters as
an effective dipole defined so the mode's radiative width reproduces the
point-dipole emission formula with an extra factor 1/2 in mu^2; this is the
one convention under which the cavity-plasmon, cavity-emitter and
plasmon-emitter couplings of a single geometry are mutually consistent.
"""

import math

import numpy as np

from .errors import ConfigError, DomainError
from .materials import Sphere, multipole_absorption_response
from .quantities import COULOMB, HBAR_C, require_finite, require_positive

#: stop the multipole sum when a term falls below this fraction of the total
QUENCH_TERM_CUTOFF = 1e-4
QUENCH_L_MAX = 400

#: distances summed per block, so a block's (distances, orders) term array stays near 13 MB
QUENCH_BLOCK = 4096

#: the quoted quench rate and the emitter distance it is quoted at: the multipole sum
#: fixes gamma_m's distance dependence, this one point its scale
QUENCH_ANCHOR_NM = 10.0
QUENCH_ANCHOR_EV = 83e-6


def vacuum_coupling(mu, omega_c, mode_volume, eps_b=1.0):
    """Dipole-cavity vacuum coupling g = sqrt(2 pi k_e mu^2 omega_c / (eps_b V_c)) (eV).

    mu in e nm, omega_c in eV, mode_volume in nm^3.  Scales as mu and V^-1/2.
    """
    require_positive(mu=mu, omega_c=omega_c, mode_volume=mode_volume, eps_b=eps_b)
    return math.sqrt(2.0 * math.pi * COULOMB * mu**2 * omega_c / (eps_b * mode_volume))


def plasmon_effective_dipole(gamma_rad, omega):
    """Effective dipole moment (e nm) of a dipolar plasmon with radiative width gamma_rad.

    mu_1^2 = (3/8) gamma_rad (hbar c)^3 / (k_e omega^3), i.e. half of what a
    naive inversion of the free-space emission formula would give.
    """
    require_positive(gamma_rad=gamma_rad, omega=omega)
    return math.sqrt(0.375 * gamma_rad * HBAR_C**3 / (COULOMB * omega**3))


def dipole_dipole_coupling(mu_a, mu_b, d, eps_b=1.0, geometry="longitudinal"):
    """Quasi-static dipole-dipole coupling kappa mu_a mu_b k_e / (eps_b d^3) (eV).

    d is the center-to-emitter distance in nm, a scalar or an array; kappa = 2
    for dipoles along the line of centers (longitudinal), -1 for transverse.
    """
    require_finite(mu_a=mu_a, mu_b=mu_b)
    require_positive(d=d, eps_b=eps_b)
    if geometry == "longitudinal":
        kappa = 2.0
    elif geometry == "transverse":
        kappa = -1.0
    else:
        raise DomainError(f"geometry must be longitudinal or transverse, got {geometry!r}")
    with np.errstate(over="ignore"):  # a far dipole's coupling underflows to 0
        return kappa * mu_a * mu_b * COULOMB / (eps_b * d**3)


def free_space_decay(mu, omega, eps_b=1.0):
    """Free-space radiative width gamma_s = (4/3) k_e mu^2 k^3 (eV), k = sqrt(eps_b) omega / hbar c."""
    require_positive(mu=mu, omega=omega, eps_b=eps_b)
    k = math.sqrt(eps_b) * omega / HBAR_C
    return (4.0 / 3.0) * COULOMB * mu**2 * k**3


def multipole_quench_rates(distance_nm, particle, env, omega, mu, orientation):
    """Emitter decay into a sphere's absorptive multipoles (eV), one rate per surface distance.

    Quasi-static image-multipole sum over orders l >= 2 (Ruppin, J. Chem.
    Phys. 76, 1681, 1982):

        gamma_m = 2 (mu^2 k_e / eps_b) sum_l w_l Im f_l(omega) (R/d)^(2l+1) / d^3

    with d = R + D the center-to-emitter distance and orientation weights
    w_l = (l+1)^2 (radial) or l(l+1)/2 (tangential).  Im f_l is computed once
    for l = 2..QUENCH_L_MAX, the terms of every distance form one array, and
    each distance's running sum stops at the first term below
    QUENCH_TERM_CUTOFF of it.  distance_nm may have any shape.  A sum that
    has not met the cutoff by QUENCH_L_MAX, or whose total underflows below
    the smallest normal float, is a ConfigError naming the radius and the
    distance.
    """
    if not isinstance(particle.shape, Sphere):
        raise DomainError("multipole quenching sum is defined for spheres only")
    require_positive(distance_nm=distance_nm, omega=omega, mu=mu)
    orders = np.arange(2, QUENCH_L_MAX + 1)
    weights = {"radial": (orders + 1.0) ** 2, "tangential": orders * (orders + 1) / 2.0}
    if orientation not in weights:
        raise DomainError(f"orientation must be radial or tangential, got {orientation!r}")
    weighted_im_f = weights[orientation] * multipole_absorption_response(
        particle.metal, env, orders, omega).imag
    radius = particle.shape.radius
    flat = np.ravel(distance_nm).astype(float)
    sums = np.empty(flat.size)
    for start in range(0, flat.size, QUENCH_BLOCK):
        D = flat[start:start + QUENCH_BLOCK, None]
        # (R/d)^(2l+1) = exp(-(2l+1) log1p(D/R)): a rounded R/d raised to the
        # (2l+1)th power would carry (2l+1) times its rounding error
        with np.errstate(over="ignore"):  # a far emitter's sum underflows, and is rejected below
            terms = (weighted_im_f * np.exp(-(2 * orders + 1) * np.log1p(D / radius))
                     / (radius + D) ** 3)
        totals = np.add.accumulate(terms, axis=-1)
        cut = (totals > 0) & (terms < QUENCH_TERM_CUTOFF * totals)
        stalled = ~np.any(cut, axis=-1)
        if np.any(stalled):
            i = np.argmax(stalled)
            where = f"an emitter {float(D[i, 0]):g} nm from a {radius:g} nm sphere"
            if totals[i, -1] < np.finfo(float).tiny:  # too small for the cutoff to resolve
                raise ConfigError(f"the multipole quench sum of {where} underflows; "
                                  "place it nearer")
            raise ConfigError(f"the multipole quench sum of {where} has not converged by "
                              f"order {QUENCH_L_MAX}; place it further out")
        sums[start:start + QUENCH_BLOCK] = np.take_along_axis(
            totals, np.argmax(cut, axis=-1)[:, None], axis=-1)[:, 0]
    return (2.0 * mu**2 * COULOMB / env.eps_b * sums).reshape(np.shape(distance_nm))


def distance_law(distance_nm, particle, env, omega, mu_1, mu_e, orientation, axis=1,
                 quench_orientation=None):
    """Plasmon-emitter coupling G(D) and quench rate gamma_m(D) (eV) at surface distances D.

    distance_nm may have any shape; G and gamma_m have its shape (numpy
    scalars for one distance).  G is the near field of the dipolar mode's
    effective dipole mu_1 at the emitter, the particle's extent along mode
    axis `axis` plus D from its centre: longitudinal for a radial emitter,
    transverse for a tangential one, signed negative.  For a sphere, gamma_m
    is the multipole sum at quench_orientation (default: orientation),
    rescaled so that gamma_m(QUENCH_ANCHOR_NM) = QUENCH_ANCHOR_EV: the sum
    fixes the distance dependence and the one constant absorbs the unknown
    orientation convention of the quoted rate.  The anchor is summed in the
    same array as the distances.  For any other particle gamma_m is None.
    """
    shape = np.shape(distance_nm)
    d = np.ravel(distance_nm).astype(float)  # 1-D even for one distance: it rounds as in an array
    require_positive(distance_nm=d)
    if orientation not in ("radial", "tangential"):
        raise DomainError(f"orientation must be radial or tangential, got {orientation!r}")
    geometry = "longitudinal" if orientation == "radial" else "transverse"
    extent = particle.shape.semi_axes[axis - 1]
    G = -np.abs(dipole_dipole_coupling(mu_1, mu_e, extent + d, env.eps_b, geometry))
    if not isinstance(particle.shape, Sphere):
        return G.reshape(shape)[()], None
    rates = multipole_quench_rates(np.append(d, QUENCH_ANCHOR_NM), particle, env, omega, mu_e,
                                   quench_orientation or orientation)
    return G.reshape(shape)[()], (QUENCH_ANCHOR_EV * rates[:-1] / rates[-1]).reshape(shape)[()]


def project_couplings(G, g1, theta_deg):
    """Project plasmon couplings for a particle axis tilted by theta from the cavity polarization.

    Returns (G cos(theta), g1 sin(theta)); theta must lie in [0, 90] degrees.
    """
    require_finite(G=G, g1=g1, theta_deg=theta_deg)
    if not 0.0 <= theta_deg <= 90.0:
        raise DomainError(f"theta must be in [0, 90] degrees, got {theta_deg}")
    theta = math.radians(theta_deg)
    return G * math.cos(theta), g1 * math.sin(theta)
