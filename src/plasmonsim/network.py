"""Non-Hermitian effective Hamiltonian assembly and output channels.

All couplings are real, so every Hamiltonian built here is complex
symmetric (H = H^T) with -i gamma/2 on the diagonal.  There is one model:
the three modes (plasmon, cavity, emitter) in the frame rotating at the
emitter frequency (detunings Delta_1e, Delta_ce); a system without an
emitter is the same model with G = J = 0.  Input noise is dropped: only
mean amplitudes and single-excitation dynamics are simulated.

Any detuning, decay rate or coupling may be an array: the builder then
returns a stack of matrices, shape (..., n, n), whose leading shape is the
broadcast of every array parameter.  Slice k of a stack is bit-identical to
the matrix built from the scalar parameters at k.
"""

from dataclasses import dataclass

import numpy as np

from .couplings import CouplingSet
from .errors import DomainError
from .quantities import require_finite


@dataclass(frozen=True)
class ModeDescriptor:
    """One dynamical mode: detuning vs the frame reference plus its decay split.

    decay_split maps physical channel ids ("rad", "ohmic") to partial widths
    whose sum is the mode's total width.
    """

    label: str
    detuning: float  # eV, or an array of them
    decay_split: tuple  # ((channel_id, rate_ev), ...); rates may be arrays

    def __post_init__(self):
        require_finite(detuning=self.detuning)
        for channel, rate in self.decay_split:
            require_finite(**{f"{self.label}.{channel}": rate})
            if np.any(np.asarray(rate) < 0):
                raise DomainError(f"decay rate {self.label}.{channel} must be >= 0, got {rate}")

    @property
    def total_width(self):
        return sum(rate for _, rate in self.decay_split)

    def split_rate(self, channel):
        for name, rate in self.decay_split:
            if name == channel:
                return rate
        return 0.0


@dataclass(frozen=True, eq=False)
class EffectiveHamiltonian:
    """Complex-symmetric mode matrix with its basis descriptors."""

    modes: tuple  # of ModeDescriptor, ordering the basis
    matrix: np.ndarray  # complex (..., n, n)

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def labels(self):
        return tuple(m.label for m in self.modes)

    def index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise DomainError(f"no mode {label!r} in basis {self.labels}") from None

    def mode(self, label):
        return self.modes[self.index(label)]

    @property
    def total_widths(self):
        return tuple(m.total_width for m in self.modes)


@dataclass(frozen=True)
class OutputChannel:
    """One output port: amplitude-rate terms sqrt(gamma_k) on listed modes.

    Coherent channels sum amplitudes before squaring; incoherent channels
    sum mode powers.
    """

    id: str
    kind: str  # "radiative" | "ohmic"
    terms: tuple  # ((mode_label, rate_ev), ...)
    combine: str = "incoherent"

    def __post_init__(self):
        if self.kind not in ("radiative", "ohmic"):
            raise DomainError(f"channel kind must be radiative or ohmic, got {self.kind!r}")
        if self.combine not in ("coherent", "incoherent"):
            raise DomainError(f"combine must be coherent or incoherent, got {self.combine!r}")
        for _, rate in self.terms:
            if np.any(np.asarray(rate) < 0):
                raise DomainError("channel rates must be >= 0")


def plasmon_descriptor(detuning, gamma_rad, gamma_ohmic):
    return ModeDescriptor("plasmon", detuning, (("rad", gamma_rad), ("ohmic", gamma_ohmic)))


def cavity_descriptor(detuning, gamma_c):
    return ModeDescriptor("cavity", detuning, (("rad", gamma_c),))


def emitter_descriptor(gamma_s, gamma_m, detuning=0.0):
    return ModeDescriptor("emitter", detuning, (("rad", gamma_s), ("ohmic", gamma_m)))


def build_three_mode(couplings, plasmon, cavity, emitter):
    """Three-mode Hamiltonian in basis (plasmon a1, cavity c, emitter sigma).

    Diagonal: (Delta_1e - i gamma_1/2, Delta_ce - i gamma_c/2, -i gamma_e/2);
    off-diagonal: the signed couplings (g1, G, J).  Frame: emitter.
    """
    if not isinstance(couplings, CouplingSet):
        couplings = CouplingSet(*couplings)
    modes = (plasmon, cavity, emitter)
    diagonal = [mode.detuning - 0.5j * mode.total_width for mode in modes]
    off_diagonal = {(0, 1): couplings.g1, (0, 2): couplings.G, (1, 2): couplings.J}
    batch = np.broadcast_shapes(*map(np.shape, diagonal), *map(np.shape, off_diagonal.values()))
    h = np.zeros(batch + (3, 3), dtype=complex)
    for i, value in enumerate(diagonal):
        h[..., i, i] = value
    for (i, j), value in off_diagonal.items():
        h[..., i, j] = h[..., j, i] = value
    return EffectiveHamiltonian(modes=modes, matrix=h)


def standard_channels(hamiltonian):
    """Output channels of the three-mode system.

    Plasmon and emitter radiate coherently into the same vacuum port; the
    cavity leaks into its own port; the plasmon's Ohmic loss and the
    emitter's multipole quenching are absorbed.  Every (mode, split) pair
    appears in exactly one channel.
    """
    h = hamiltonian
    return (
        OutputChannel("rad_vacuum", "radiative",
                      (("plasmon", h.mode("plasmon").split_rate("rad")),
                       ("emitter", h.mode("emitter").split_rate("rad"))),
                      combine="coherent"),
        OutputChannel("rad_cavity", "radiative",
                      (("cavity", h.mode("cavity").split_rate("rad")),)),
        OutputChannel("ohmic_plasmon", "ohmic",
                      (("plasmon", h.mode("plasmon").split_rate("ohmic")),)),
        OutputChannel("ohmic_emitter", "ohmic",
                      (("emitter", h.mode("emitter").split_rate("ohmic")),)),
    )
