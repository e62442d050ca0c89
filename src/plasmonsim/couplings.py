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
import warnings
from dataclasses import dataclass

from .errors import DomainError
from .materials import Nanoparticle, Sphere, multipole_absorption_response
from .quantities import COULOMB, HBAR_C, require_finite, require_positive

#: stop the multipole sum when a term falls below this fraction of the total
QUENCH_TERM_CUTOFF = 1e-4
QUENCH_L_MAX = 400


@dataclass(frozen=True)
class Emitter:
    """Point-dipole quantum emitter near the particle surface.

    distance is measured from the particle surface (nm); orientation is the
    dipole direction relative to the emitter-particle axis; angle_to_cavity
    (deg) sets the projection of the dipole on the cavity polarization.
    gamma_s / gamma_m are the resolved free-space and quenching widths (eV).
    """

    mu: float  # e nm
    omega_e: float  # eV
    distance: float  # nm, from particle surface
    orientation: str = "radial"
    angle_to_cavity_deg: float = 0.0
    gamma_s: float = 0.0
    gamma_m: float = 0.0

    def __post_init__(self):
        require_finite(
            mu=self.mu, omega_e=self.omega_e, distance=self.distance,
            gamma_s=self.gamma_s, gamma_m=self.gamma_m,
        )
        if self.mu < 0:
            raise DomainError("dipole moment magnitude must be >= 0")
        if self.distance <= 0:
            raise DomainError("emitter-surface distance must be > 0")
        if self.orientation not in ("radial", "tangential"):
            raise DomainError(f"orientation must be radial or tangential, got {self.orientation!r}")
        if self.gamma_s < 0 or self.gamma_m < 0:
            raise DomainError("emitter decay rates must be >= 0")

    @property
    def gamma_e(self):
        return self.gamma_s + self.gamma_m


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


def dipole_dipole_coupling(mu_a, mu_b, d, eps_b=1.0, geometry="longitudinal", extent=None):
    """Quasi-static dipole-dipole coupling kappa mu_a mu_b k_e / (eps_b d^3) (eV).

    d is the center-to-emitter distance in nm; kappa = 2 for dipoles along
    the line of centers (longitudinal), -1 for transverse.  If extent is
    given and d does not clear the particle along that line, a warning is
    emitted (the point-dipole value degrades there).
    """
    require_finite(mu_a=mu_a, mu_b=mu_b)
    require_positive(d=d, eps_b=eps_b)
    if geometry == "longitudinal":
        kappa = 2.0
    elif geometry == "transverse":
        kappa = -1.0
    else:
        raise DomainError(f"geometry must be longitudinal or transverse, got {geometry!r}")
    if extent is not None and d <= extent:
        warnings.warn(
            f"center-to-emitter distance {d} nm does not clear the particle extent "
            f"{extent} nm; point-dipole coupling is unreliable",
            stacklevel=2,
        )
    return kappa * mu_a * mu_b * COULOMB / (eps_b * d**3)


def free_space_decay(mu, omega, eps_b=1.0):
    """Free-space radiative width gamma_s = (4/3) k_e mu^2 k^3 (eV), k = sqrt(eps_b) omega / hbar c."""
    require_positive(mu=mu, omega=omega, eps_b=eps_b)
    k = math.sqrt(eps_b) * omega / HBAR_C
    return (4.0 / 3.0) * COULOMB * mu**2 * k**3


def _quench_weight(order, orientation):
    if orientation == "radial":
        return (order + 1) ** 2
    return order * (order + 1) / 2.0


def multipole_quench_rate(emitter, particle, env, omega):
    """Emitter decay into the particle's absorptive multipoles (eV).

    Quasi-static image-multipole sum over orders l >= 2:

        gamma_m = 2 (mu^2 k_e / eps_b) sum_l w_l R^(2l+1) Im f_l(omega) / d^(2l+4)

    with d = R + D the center-to-emitter distance and orientation weights
    w_l = (l+1)^2 (radial) or l(l+1)/2 (tangential).  The sum is truncated
    adaptively once a term drops below 1e-4 of the running total.
    """
    if isinstance(particle, Nanoparticle):
        shape, metal = particle.shape, particle.metal
    else:
        raise DomainError("multipole_quench_rate needs a Nanoparticle")
    if not isinstance(shape, Sphere):
        raise DomainError("multipole quenching sum is defined for spheres only")
    require_positive(omega=omega)
    radius = shape.radius
    d = radius + emitter.distance
    if d <= radius:
        raise DomainError(f"emitter at d={d} nm is inside the particle (R={radius} nm)")

    ratio2 = (radius / d) ** 2
    prefactor = 2.0 * emitter.mu**2 * COULOMB / env.eps_b
    total = 0.0
    term = 0.0
    for order in range(2, QUENCH_L_MAX + 1):
        im_f = multipole_absorption_response(metal, env, order, omega).imag
        term = (
            _quench_weight(order, emitter.orientation)
            * radius ** (2 * order + 1)
            * im_f
            / d ** (2 * order + 4)
        )
        total += term
        if total > 0 and term < QUENCH_TERM_CUTOFF * total and ratio2 < 1.0:
            break
    return prefactor * total


def project_couplings(G, g1, theta_deg):
    """Project plasmon couplings for a particle axis tilted by theta from the cavity polarization.

    Returns (G cos(theta), g1 sin(theta)); theta must lie in [0, 90] degrees.
    """
    require_finite(G=G, g1=g1, theta_deg=theta_deg)
    if not 0.0 <= theta_deg <= 90.0:
        raise DomainError(f"theta must be in [0, 90] degrees, got {theta_deg}")
    theta = math.radians(theta_deg)
    return G * math.cos(theta), g1 * math.sin(theta)
