"""Drude dielectric response and quasi-static LSPR mode reduction.

A metal nanoparticle is reduced to a set of damped harmonic modes: the
dipolar mode (l=1) radiates and absorbs, higher multipoles (l>1) are purely
absorptive with width gamma_o.  Resonance positions come from the root of
the real part of the quasi-static denominator with damping ignored, so the
damping enters only the width.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import DomainError, ResonanceCountError
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


def drude_gold():
    """Drude parameters for gold used throughout: eps_inf=1, omega_p=4 eV, gamma_o=0.2 eV."""
    return DrudeMetal(eps_inf=1.0, omega_p=4.0, gamma_o=0.2)


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

    def __post_init__(self):
        if isinstance(self.shape, Sphere) and self.shape.radius > QUASI_STATIC_RADIUS_NM:
            warnings.warn(
                f"sphere radius {self.shape.radius} nm exceeds the quasi-static "
                f"validity limit of {QUASI_STATIC_RADIUS_NM} nm",
                stacklevel=2,
            )

    @property
    def quasi_static_valid(self):
        if isinstance(self.shape, Sphere):
            return self.shape.radius <= QUASI_STATIC_RADIUS_NM
        return True


def drude_permittivity(metal, omega):
    """Complex Drude permittivity eps_inf - omega_p^2 / (omega^2 + i omega gamma_o).

    omega may be a scalar or array of photon energies in eV, all > 0.
    """
    require_finite(omega=omega)
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0):
        raise DomainError("omega must be > 0")
    eps = metal.eps_inf - metal.omega_p**2 / (w**2 + 1j * w * metal.gamma_o)
    if np.isscalar(omega) or np.ndim(omega) == 0:
        return complex(eps)
    return eps


def sphere_mode_frequency(metal, env, order):
    """Resonance of sphere mode l from Re eps_m(omega) = -eps_b (l+1)/l.

    Damping is ignored in the resonance position, which gives the closed
    form omega_l = omega_p / sqrt(eps_inf + eps_b (l+1)/l), strictly
    increasing in l toward the surface-plasmon limit omega_p/sqrt(eps_inf+eps_b).
    """
    if order < 1:
        raise DomainError(f"mode order must be >= 1, got {order}")
    return metal.omega_p / math.sqrt(metal.eps_inf + env.eps_b * (order + 1) / order)


def depolarization_factors(ellipsoid):
    """Quasi-static depolarization factors (L1, L2, L3) of a general ellipsoid.

    L_q = (a1 a2 a3 / 2) * Int_0^inf ds / ((s + a_q^2) sqrt((s+a1^2)(s+a2^2)(s+a3^2)))

    evaluated by adaptive quadrature to ~1e-11 relative so the factors sum
    to 1 within 1e-10.  A sphere gives (1/3, 1/3, 1/3).
    """
    a1, a2, a3 = ellipsoid.semi_axes
    sq = (a1 * a1, a2 * a2, a3 * a3)
    abc = a1 * a2 * a3

    def integrand(s, q2):
        return 1.0 / ((s + q2) * math.sqrt((s + sq[0]) * (s + sq[1]) * (s + sq[2])))

    factors = []
    for q2 in sq:
        val, _ = quad(integrand, 0.0, np.inf, args=(q2,), epsabs=0.0, epsrel=1e-11, limit=200)
        factors.append(0.5 * abc * val)
    return tuple(factors)


def ellipsoid_mode_frequency(metal, env, depol_factor):
    """Dipolar resonance along an axis with depolarization factor L.

    Root of eps_b + L (eps_m - eps_b) = 0 with the undamped permittivity:
    omega = omega_p sqrt(L / (L eps_inf + (1 - L) eps_b)).
    """
    L = depol_factor
    if not 0.0 < L < 1.0:
        raise DomainError(f"depolarization factor must be in (0, 1), got {L}")
    return metal.omega_p * math.sqrt(L / (L * metal.eps_inf + (1.0 - L) * env.eps_b))


@dataclass(frozen=True)
class QuasiStaticPolarizability:
    """alpha(omega) = v (eps_m - eps_b) / (eps_b + L (eps_m - eps_b)), v = abc/3 (nm^3).

    The 4 pi eps0 prefactor is folded into the nm^3 normalization.  Callable
    on scalar or array omega.
    """

    metal: DrudeMetal
    env: Environment
    depol_factor: float
    volume_factor: float  # abc/3, nm^3

    def __call__(self, omega):
        eps = drude_permittivity(self.metal, omega)
        d = eps - self.env.eps_b
        return self.volume_factor * d / (self.env.eps_b + self.depol_factor * d)

    @classmethod
    def for_sphere(cls, sphere, metal, env):
        return cls(metal, env, 1.0 / 3.0, sphere.radius**3 / 3.0)

    @classmethod
    def for_ellipsoid_axis(cls, ellipsoid, metal, env, axis):
        if axis not in (1, 2, 3):
            raise DomainError(f"axis must be 1, 2 or 3, got {axis}")
        L = depolarization_factors(ellipsoid)[axis - 1]
        return cls(metal, env, L, ellipsoid.volume_abc / 3.0)


@dataclass(frozen=True)
class LorentzianModel:
    """Single damped oscillator A / (omega_res - omega - i gamma/2)."""

    omega_res: float  # eV
    gamma: float  # eV full width
    amplitude: float

    def __call__(self, omega):
        return self.amplitude / (self.omega_res - np.asarray(omega) - 0.5j * self.gamma)


def lorentzian_reduction(alpha, window, scan_points=2001):
    """Reduce a single-resonance response function to oscillator parameters.

    The resonance is the root of Re[1/alpha] inside the window; the width
    follows from the first-order expansion of 1/alpha about that root,
    gamma = 2 Im[1/alpha] / (d Re[1/alpha] / d omega), and the amplitude is
    the first-order residue -1 / (d Re[1/alpha] / d omega).  The absorptive
    part of the reconstruction is exact on resonance and accurate to
    ~gamma/(4 omega_res) across the band |omega - omega_res| <= gamma.

    Parameters
    ----------
    alpha : callable
        Complex response, callable on scalar omega (eV).
    window : (float, float)
        Scan window; must bracket exactly one resonance.

    Returns
    -------
    LorentzianModel

    Raises
    ------
    ResonanceCountError
        If Re[1/alpha] has zero or multiple sign changes in the window.
    """
    lo, hi = window
    require_positive(window_low=lo, window_high=hi)
    if not lo < hi:
        raise DomainError(f"empty scan window ({lo}, {hi})")

    def inv_re(w):
        return (1.0 / alpha(w)).real

    grid = np.linspace(lo, hi, scan_points)
    values = np.array([inv_re(w) for w in grid])
    signs = np.sign(values)
    crossings = list(np.nonzero(signs[:-1] * signs[1:] < 0)[0])
    # a root exactly on a grid point gives sign 0; count each zero run once
    zeros = np.nonzero(signs == 0)[0]
    zero_roots = [i for k, i in enumerate(zeros) if k == 0 or zeros[k - 1] != i - 1]
    count = len(crossings) + len(zero_roots)
    if count == 0:
        raise ResonanceCountError(f"no resonance of alpha in window ({lo}, {hi})")
    if count > 1:
        raise ResonanceCountError(
            f"{count} resonances of alpha in window ({lo}, {hi}); expected one"
        )
    if zero_roots:
        omega_res = float(grid[zero_roots[0]])
    else:
        i = crossings[0]
        omega_res = brentq(inv_re, grid[i], grid[i + 1], xtol=1e-14, rtol=8.9e-16)

    h = 1e-6 * omega_res
    slope = (inv_re(omega_res + h) - inv_re(omega_res - h)) / (2.0 * h)
    if slope == 0.0:
        raise ResonanceCountError("flat Re[1/alpha] at resonance; not a simple pole")
    im_at_res = (1.0 / alpha(omega_res)).imag
    gamma = 2.0 * im_at_res / slope
    amplitude = -1.0 / slope
    return LorentzianModel(omega_res, gamma, amplitude)


def dipolar_radiative_rate(particle, env, axis=1):
    """Radiative width of the dipolar LSPR along one principal axis (eV).

    gamma_r = (2/9) eps_b (a1 a2 a3) omega_1^6 / (L^2 omega_p^2 (hbar c)^3)

    which reduces to 2 eps_b R^3 omega_1^6 / (omega_p^2 c^3) for a sphere
    (L = 1/3, abc = R^3).  Scales as particle volume and omega_1^6.
    """
    metal = particle.metal
    if isinstance(particle.shape, Sphere):
        L = 1.0 / 3.0
        omega1 = sphere_mode_frequency(metal, env, 1)
    else:
        L = depolarization_factors(particle.shape)[axis - 1]
        omega1 = ellipsoid_mode_frequency(metal, env, L)
    abc = particle.shape.volume_abc
    return (2.0 / 9.0) * env.eps_b * abc * omega1**6 / (L**2 * metal.omega_p**2 * HBAR_C**3)


def multipole_absorption_response(metal, env, order, omega):
    """Dimensionless l-pole response f_l = l (eps_m - eps_b) / (l eps_m + (l+1) eps_b).

    Im f_l > 0 for a lossy metal and peaks near the l-th mode frequency;
    for gamma_o = 0 the response diverges on resonance.
    """
    if order < 1:
        raise DomainError(f"mode order must be >= 1, got {order}")
    eps = drude_permittivity(metal, omega)
    return order * (eps - env.eps_b) / (order * eps + (order + 1) * env.eps_b)
