"""Non-Hermitian effective Hamiltonian of the three-mode system and its four output ports.

All couplings are real, so every Hamiltonian built here is complex
symmetric (H = H^T) with -i gamma/2 on the diagonal.  There is one model:
the three modes (plasmon, cavity, emitter) in the frame rotating at the
emitter frequency (detunings Delta_1e, Delta_ce); a system without an
emitter is the same model with G = J = 0.  Input noise is dropped: only
mean amplitudes and single-excitation dynamics are simulated.

The model has four fixed output ports.  Plasmon and emitter radiate
coherently into one vacuum port, the cavity leaks into its own port, and
the plasmon's Ohmic loss and the emitter's multipole quenching are
absorbed.  Each partial width feeds exactly one port.

Any detuning, decay rate or coupling may be an array: the builder then
returns a stack of matrices, shape (..., n, n), whose leading shape is the
broadcast of every array parameter.  Slice k of a stack is bit-identical to
the matrix built from the scalar parameters at k.
"""

import numpy as np

from .errors import DomainError, UndefinedYieldError
from .quantities import require_finite


class EffectiveHamiltonian:
    """Complex-symmetric mode matrix, its basis labels and its partial widths.

    rates holds gamma_1r, gamma_o, gamma_c, gamma_s and gamma_m (eV, arrays
    allowed) of the three-mode system.
    """

    __slots__ = ("matrix", "labels", "rates")

    def __init__(self, matrix, labels, rates):
        matrix.setflags(write=False)
        self.matrix = matrix  # complex (..., n, n)
        self.labels = labels  # mode labels, ordering the basis
        self.rates = rates

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise DomainError(f"no mode {label!r} in basis {self.labels}") from None

    def powers(self, v):
        """The four port powers at mode amplitudes v (..., 3), each of shape v.shape[:-1].

        rad_vacuum = |sqrt(gamma_1r) v_p + sqrt(gamma_s) v_e|^2, rad_cavity =
        gamma_c |v_c|^2, ohmic_plasmon = gamma_o |v_p|^2, ohmic_emitter =
        gamma_m |v_e|^2.
        """
        r = self.rates
        plasmon, cavity, emitter = v[..., 0], v[..., 1], v[..., 2]
        return {
            "rad_vacuum": np.abs(np.sqrt(r["gamma_1r"]) * plasmon
                                 + np.sqrt(r["gamma_s"]) * emitter) ** 2,
            "rad_cavity": r["gamma_c"] * np.abs(cavity) ** 2,
            "ohmic_plasmon": r["gamma_o"] * np.abs(plasmon) ** 2,
            "ohmic_emitter": r["gamma_m"] * np.abs(emitter) ** 2,
        }

    def vacuum_cross_term(self, v):
        """Interference part of the vacuum port, 2 sqrt(gamma_1r gamma_s) Re(conj(v_p) v_e).

        The vacuum power minus the two per-mode powers, in closed form, so an
        exactly vanishing interference is 0 and not rounding noise; + 0.0
        turns -0.0 into 0.0.
        """
        r = self.rates
        interference = (v[..., 0].conj() * v[..., 2]).real
        with np.errstate(over="ignore"):
            scale = np.sqrt(r["gamma_1r"] * r["gamma_s"])
        if not np.all(np.isfinite(scale)):  # the widths' product overflows; their roots' cannot
            scale = np.sqrt(r["gamma_1r"]) * np.sqrt(r["gamma_s"])
        return 2.0 * scale * interference + 0.0


def build_three_mode(*, g1, G, J, delta_1e, delta_ce, gamma_1r, gamma_o, gamma_c, gamma_s,
                     gamma_m):
    """Three-mode Hamiltonian in basis (plasmon a1, cavity c, emitter sigma).

    Diagonal: (Delta_1e - i gamma_1/2, Delta_ce - i gamma_c/2, -i gamma_e/2)
    with gamma_1 = gamma_1r + gamma_o and gamma_e = gamma_s + gamma_m;
    off-diagonal: the signed couplings (g1, G, J).  Frame: emitter.
    """
    rates = {"gamma_1r": gamma_1r, "gamma_o": gamma_o, "gamma_c": gamma_c,
             "gamma_s": gamma_s, "gamma_m": gamma_m}
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite input is named below
        diagonal = [delta_1e - 0.5j * (gamma_1r + gamma_o), delta_ce - 0.5j * gamma_c,
                    0.0 - 0.5j * (gamma_s + gamma_m)]
    off_diagonal = {(0, 1): g1, (0, 2): G, (1, 2): J}
    batch = np.broadcast_shapes(*map(np.shape, diagonal), *map(np.shape, off_diagonal.values()))
    h = np.zeros(batch + (3, 3), dtype=complex)
    for i, value in enumerate(diagonal):
        h[..., i, i] = value
    for (i, j), value in off_diagonal.items():
        h[..., i, j] = h[..., j, i] = value
    if not (h.size and np.isfinite(h).all()):  # every input is in a nonempty h
        require_finite(g1=g1, G=G, J=J, delta_1e=delta_1e, delta_ce=delta_ce, **rates)
    for name, rate in rates.items():
        if np.any(np.asarray(rate) < 0):
            raise DomainError(f"decay rate {name} must be >= 0, got {rate}")
    return EffectiveHamiltonian(h, ("plasmon", "cavity", "emitter"), rates)


def radiated_power(powers):
    """Total power of the two radiative ports (arrays allowed)."""
    return powers["rad_vacuum"] + powers["rad_cavity"]


def yield_from_powers(powers):
    """Quantum yield, the radiated fraction of the total output power, in [0, 1]."""
    radiative = radiated_power(powers)
    total = radiative + (powers["ohmic_plasmon"] + powers["ohmic_emitter"])
    if np.any(total <= 0.0):
        raise UndefinedYieldError("no output power in any port; yield undefined")
    return radiative / total
