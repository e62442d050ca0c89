"""Unit conventions and physical constants.

Everything runs in natural units: energies in eV, lengths in nm, hbar = 1.
Linewidths and decay rates are full widths gamma, stored as energies; the
-i*gamma/2 factors are inserted only when a Hamiltonian is assembled.
Dipole moments are in e*nm.  Only two constants are needed to express every
formula in the package; the fs conversion exists purely for time-axis output.
"""

import numpy as np

from .errors import DomainError

#: hbar * c in eV nm
HBAR_C = 197.3270

#: Coulomb factor e^2 / (4 pi eps0) in eV nm
COULOMB = 1.439964

#: hbar in eV fs, used only to label time axes in femtoseconds
HBAR_EV_FS = 0.6582119569


def require_finite(**values):
    """Reject NaN/inf (and non-numeric) inputs with a DomainError naming the offender."""
    for name, value in values.items():
        arr = np.asarray(value)
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"{name} must be finite, got {value!r}")


def require_positive(**values):
    """Reject non-finite or non-positive inputs."""
    require_finite(**values)
    for name, value in values.items():
        if np.any(np.asarray(value) <= 0):
            raise DomainError(f"{name} must be > 0, got {value!r}")


def to_fs(t_natural):
    """Convert a time in 1/eV (natural units) to femtoseconds."""
    return np.asarray(t_natural) * HBAR_EV_FS


def from_fs(t_fs):
    """Convert a time in femtoseconds to 1/eV."""
    return np.asarray(t_fs) / HBAR_EV_FS
