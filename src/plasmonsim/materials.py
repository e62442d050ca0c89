"""Drude dielectric response and quasi-static LSPR mode reduction.

A metal nanoparticle is reduced to a set of damped harmonic modes: the
dipolar mode (l=1) radiates and absorbs, higher multipoles (l>1) are purely
absorptive with width gamma_o.  Resonance positions come from the root of
the real part of the quasi-static denominator with damping ignored, so the
damping enters only the width.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .quantities import HBAR_C, require_finite, require_positive

#: sphere radius (nm) above which the quasi-static treatment degrades
QUASI_STATIC_RADIUS_NM = 30.0


@dataclass(frozen=True)
class DrudeMetal:
    """Drude permittivity parameters: eps_inf - omega_p^2 / (omega^2 + i omega gamma_o)."""

    eps_inf: float
    omega_p: float  # eV
    gamma_o: float  # eV

    def __post_init__(self):
        require_finite(eps_inf=self.eps_inf, omega_p=self.omega_p, gamma_o=self.gamma_o)
        if self.eps_inf < 1.0:
            raise DomainError(f"eps_inf must be >= 1, got {self.eps_inf}")
        if self.omega_p <= 0:
            raise DomainError(f"omega_p must be > 0, got {self.omega_p}")
        if self.gamma_o < 0:
            raise DomainError(f"gamma_o must be >= 0, got {self.gamma_o}")


@dataclass(frozen=True)
class Environment:
    """Non-absorbing background with relative permittivity eps_b >= 1."""

    eps_b: float = 1.0

    def __post_init__(self):
        require_finite(eps_b=self.eps_b)
        if self.eps_b < 1.0:
            raise DomainError(f"eps_b must be >= 1, got {self.eps_b}")


@dataclass(frozen=True)
class Sphere:
    radius: float  # nm

    def __post_init__(self):
        require_positive(radius=self.radius)

    @property
    def semi_axes(self):
        return (self.radius, self.radius, self.radius)

    @property
    def volume_abc(self):
        """Product of semi-axes a1*a2*a3 in nm^3."""
        return self.radius**3


@dataclass(frozen=True)
class Ellipsoid:
    a1: float  # nm
    a2: float  # nm
    a3: float  # nm

    def __post_init__(self):
        require_positive(a1=self.a1, a2=self.a2, a3=self.a3)

    @property
    def semi_axes(self):
        return (self.a1, self.a2, self.a3)

    @property
    def volume_abc(self):
        return self.a1 * self.a2 * self.a3


@dataclass(frozen=True)
class Nanoparticle:
    """Metal particle: sphere or general ellipsoid plus its Drude metal."""

    shape: Sphere | Ellipsoid
    metal: DrudeMetal

    @property
    def quasi_static_valid(self):
        return not isinstance(self.shape, Sphere) or self.shape.radius <= QUASI_STATIC_RADIUS_NM


def drude_permittivity(metal, omega):
    """Complex Drude permittivity eps_inf - omega_p^2 / (omega^2 + i omega gamma_o).

    omega may be a scalar or array of photon energies in eV, all > 0.
    """
    require_finite(omega=omega)
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0):
        raise DomainError("omega must be > 0")
    with np.errstate(over="ignore"):  # a damping beyond range leaves eps = eps_inf
        eps = metal.eps_inf - metal.omega_p**2 / (w**2 + 1j * w * metal.gamma_o)
    return complex(eps) if np.ndim(omega) == 0 else eps


def sphere_mode_frequency(metal, env, order):
    """Resonance of sphere mode l from Re eps_m(omega) = -eps_b (l+1)/l.

    Damping is ignored in the resonance position, which gives the closed
    form omega_l = omega_p / sqrt(eps_inf + eps_b (l+1)/l), strictly
    increasing in l toward the surface-plasmon limit omega_p/sqrt(eps_inf+eps_b).
    """
    if order < 1:
        raise DomainError(f"mode order must be >= 1, got {order}")
    return metal.omega_p / math.sqrt(metal.eps_inf + env.eps_b * (order + 1) / order)


def carlson_rd(x, y, z):
    """Carlson's symmetric elliptic integral of the second kind.

    R_D(x, y, z) = (3/2) Int_0^inf dt / ((t + z) sqrt((t + x)(t + y)(t + z)))

    for x, y >= 0 and z > 0, by the duplication algorithm (B. C. Carlson,
    Numer. Algorithms 10, 13-26, 1995).  Each duplication step shrinks the
    relative spread of (x, y, z) fourfold and peels one term off the
    integral; once the spread is below 1e-3 the fifth-order expansion about
    the mean leaves a relative error of order 1e-18.
    """
    tail = 0.0
    weight = 1.0
    mean = (x + y + 3.0 * z) / 5.0
    while max(abs(mean - x), abs(mean - y), abs(mean - z)) > 1e-3 * mean:
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        tail += weight / (sz * (z + lam))
        weight *= 0.25
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        mean = (x + y + 3.0 * z) / 5.0
    dx, dy = (mean - x) / mean, (mean - y) / mean
    dz = -(dx + dy) / 3.0
    xy, zz = dx * dy, dz * dz
    e2 = xy - 6.0 * zz
    e3 = (3.0 * xy - 8.0 * zz) * dz
    e4 = 3.0 * (xy - zz) * zz
    e5 = xy * zz * dz
    series = (1.0 - 3.0 / 14.0 * e2 + e3 / 6.0 + 9.0 / 88.0 * e2 * e2 - 3.0 / 22.0 * e4
              - 9.0 / 52.0 * e2 * e3 + 3.0 / 26.0 * e5)
    return 3.0 * tail + weight * series / (mean * math.sqrt(mean))


def depolarization_factors(ellipsoid):
    """Quasi-static depolarization factors (L1, L2, L3) of a general ellipsoid.

    L_q = (a1 a2 a3 / 2) * Int_0^inf ds / ((s + a_q^2) sqrt((s+a1^2)(s+a2^2)(s+a3^2)))
        = (a1 a2 a3 / 3) * R_D(a_r^2, a_s^2, a_q^2)

    with (r, s) the other two axes, so the factors sum to 1 within a few
    ulps.  A sphere gives (1/3, 1/3, 1/3).
    """
    a1, a2, a3 = ellipsoid.semi_axes
    s1, s2, s3 = a1 * a1, a2 * a2, a3 * a3
    if not all(0.0 < s < math.inf for s in (s1, s2, s3)):  # R_D needs z > 0
        raise ConfigError(f"ellipsoid semi-axes {ellipsoid.semi_axes} nm: a square is out of range")
    third = a1 * a2 * a3 / 3.0
    return (third * carlson_rd(s2, s3, s1),
            third * carlson_rd(s3, s1, s2),
            third * carlson_rd(s1, s2, s3))


def ellipsoid_mode_frequency(metal, env, L):
    """Dipolar resonance along an axis with depolarization factor L.

    Root of eps_b + L (eps_m - eps_b) = 0 with the undamped permittivity:
    omega = omega_p sqrt(L / (L eps_inf + (1 - L) eps_b)).
    """
    if not 0.0 < L < 1.0:
        raise DomainError(f"depolarization factor must be in (0, 1), got {L}")
    return metal.omega_p * math.sqrt(L / (L * metal.eps_inf + (1.0 - L) * env.eps_b))


def dipolar_mode(particle, env, axis):
    """(L, omega_1) of the dipolar mode along an axis; a sphere's is (1/3, its l = 1 mode)."""
    if isinstance(particle.shape, Sphere):
        return 1.0 / 3.0, sphere_mode_frequency(particle.metal, env, 1)
    L = depolarization_factors(particle.shape)[axis - 1]
    return L, ellipsoid_mode_frequency(particle.metal, env, L)


def dipolar_radiative_rate(particle, env, L, omega1):
    """Radiative width (eV) of the dipolar LSPR (L, omega1) of dipolar_mode along one axis.

    gamma_r = (2/9) eps_b (a1 a2 a3) omega_1^6 / (L^2 omega_p^2 (hbar c)^3)

    which reduces to 2 eps_b R^3 omega_1^6 / (omega_p^2 c^3) for a sphere
    (L = 1/3, abc = R^3).  Scales as particle volume and omega_1^6.
    """
    return ((2.0 / 9.0) * env.eps_b * particle.shape.volume_abc * omega1**6
            / (L**2 * particle.metal.omega_p**2 * HBAR_C**3))


def multipole_absorption_response(metal, env, order, omega):
    """Dimensionless l-pole response f_l = l (eps_m - eps_b) / (l eps_m + (l+1) eps_b).

    Im f_l > 0 for a lossy metal and peaks near the l-th mode frequency;
    for gamma_o = 0 the response diverges on resonance.  order may be an
    array of orders, giving one response per order.
    """
    if np.any(np.asarray(order) < 1):
        raise DomainError(f"mode order must be >= 1, got {order}")
    eps = drude_permittivity(metal, omega)
    return order * (eps - env.eps_b) / (order * eps + (order + 1) * env.eps_b)
