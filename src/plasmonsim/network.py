"""Non-Hermitian effective Hamiltonian assembly and output channels.

All couplings are real, so every Hamiltonian built here is complex
symmetric (H = H^T) with -i gamma/2 on the diagonal.  Three-mode builds
rotate at the emitter frequency (detunings Delta_1e, Delta_ce); two-mode
builds rotate at the cavity frequency.  Input noise is dropped: only mean
amplitudes and single-excitation dynamics are simulated.

Any detuning, decay rate or coupling may be an array: the builders then
return a stack of matrices, shape (..., n, n), whose leading shape is the
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
    reference: str  # frame reference ("emitter" | "cavity")

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


def _assemble(modes, coupling_matrix, reference):
    n = len(modes)
    diagonal = [mode.detuning - 0.5j * mode.total_width for mode in modes]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    batch = np.broadcast_shapes(*(np.shape(x) for x in diagonal),
                                *(np.shape(coupling_matrix[i][j]) for i, j in pairs))
    h = np.zeros(batch + (n, n), dtype=complex)
    for i, value in enumerate(diagonal):
        h[..., i, i] = value
    for i, j in pairs:
        h[..., i, j] = h[..., j, i] = coupling_matrix[i][j]
    return EffectiveHamiltonian(modes=tuple(modes), matrix=h, reference=reference)


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
    g1, G, J = couplings.g1, couplings.G, couplings.J
    row = [[0.0, g1, G], [g1, 0.0, J], [G, J, 0.0]]
    return _assemble([plasmon, cavity, emitter], row, reference="emitter")


def build_two_mode(g1, plasmon, cavity):
    """Two-mode Hamiltonian in basis (plasmon a1, cavity c), cavity frame."""
    require_finite(g1=g1)
    row = [[0.0, g1], [g1, 0.0]]
    return _assemble([plasmon, cavity], row, reference="cavity")


def standard_channels(scenario, hamiltonian):
    """Output-channel definitions for the two standard scenarios.

    mnp_only: plasmon radiation, cavity leakage, plasmon Ohmic absorption.
    with_emitter: plasmon and emitter radiate coherently into the same
    vacuum port; cavity leakage; plasmon Ohmic loss; emitter multipole loss.
    Every (mode, split) pair appears in exactly one channel.
    """
    h = hamiltonian
    if scenario == "mnp_only":
        return (
            OutputChannel("rad_plasmon", "radiative",
                          (("plasmon", h.mode("plasmon").split_rate("rad")),)),
            OutputChannel("rad_cavity", "radiative",
                          (("cavity", h.mode("cavity").split_rate("rad")),)),
            OutputChannel("ohmic_plasmon", "ohmic",
                          (("plasmon", h.mode("plasmon").split_rate("ohmic")),)),
        )
    if scenario == "with_emitter":
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
    raise DomainError(f"unknown channel scenario {scenario!r}")
