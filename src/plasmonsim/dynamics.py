"""Steady-state response, time evolution and complex-eigenvalue analysis.

Steady state solves (Delta_p I - H) v = f for the mode amplitudes under a
weak drive of unit amplitude; all powers are quadratic in the drive and
therefore relative, so only ratios and enhancement factors are physical.
Time evolution propagates a single-excitation amplitude vector under the
non-Hermitian Hamiltonian through one eigendecomposition, v(t) =
V exp(-i Lambda t) V^-1 v(0); near an exceptional point, where the
eigenvectors are ill-conditioned, it falls back to the scaling-and-squaring
matrix exponential (Moler & Van Loan, SIAM Rev. 45, 2003).
"""

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import ConditioningError, DomainError, TrackingAmbiguityError
from .quantities import from_fs, require_finite, to_fs

#: reciprocal condition number below which a steady-state solve is rejected
RCOND_LIMIT = 1e-13
#: eigenvector condition number above which evolve uses the matrix exponential
EIG_COND_LIMIT = 1e3


def expm(a):
    """Matrix exponential of a (..., n, n) stack: scipy.linalg.expm, imported on first call.

    Only evolve's near-exceptional-point fallback needs it, so no other
    command loads scipy.
    """
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


def _drive_vector(hamiltonian, mode):
    """Unit drive on one mode."""
    f = np.zeros(len(hamiltonian.labels), dtype=complex)
    f[hamiltonian.index(mode)] = 1.0
    return f


def _solve_amplitudes(hamiltonian, detunings, f):
    """Batched solve of (Delta_p I - H) v = f.

    The detuning array broadcasts against the leading shape of a Hamiltonian
    stack; the amplitudes have shape (broadcast shape, n).
    """
    h = hamiltonian.matrix
    n = h.shape[-1]
    d = np.atleast_1d(np.asarray(detunings, dtype=float))
    mats = d[..., None, None] * np.eye(n) - h
    # guard the all-lossless edge case where the matrix can become singular;
    # |det(M / ||M||_F)| = |det M| / ||M||_F^n without overflowing, and a
    # non-finite ratio fails the check
    norm = np.maximum(np.linalg.norm(mats, axis=(-2, -1)), np.finfo(float).tiny)
    rcond = np.abs(np.linalg.det(mats / norm[..., None, None]))
    if not np.all(rcond >= RCOND_LIMIT):
        raise ConditioningError(
            "steady-state matrix is singular or near-singular; "
            "every mode needs a positive width or a detuned pump"
        )
    rhs = np.broadcast_to(f[:, None], mats.shape[:-1] + (1,))
    return np.linalg.solve(mats, rhs)[..., 0]


def steady_state_sweep(hamiltonian, detunings, drive_mode):
    """Vectorized steady state under a unit drive on one mode, over a pump-detuning grid.

    Returns (amplitudes (n_points, n_modes), the Hamiltonian's port powers
    {port -> array}).  For a Hamiltonian stack the detunings broadcast
    against its leading shape.
    """
    d = np.asarray(detunings, dtype=float)
    if d.size == 0:
        raise DomainError("empty detuning sweep")
    v = _solve_amplitudes(hamiltonian, d, _drive_vector(hamiltonian, drive_mode))
    return v, hamiltonian.powers(v)


def fano_detuning(J, g1, G):
    """Pump-cavity detuning of maximal destructive interference, Delta_0 = -J g1 / G.

    G may be an array; Delta_0 is then an array of its shape.
    """
    require_finite(J=J, g1=g1, G=G)
    if np.any(np.asarray(G) == 0.0):
        raise DomainError("Fano detuning undefined for G = 0")
    return -J * g1 / G


@dataclass(frozen=True, eq=False)
class TimeTrace:
    """Mode populations |v_i(t)|^2 on a femtosecond time grid."""

    times_fs: np.ndarray
    labels: tuple
    populations: dict  # label -> np.ndarray

    def population(self, label):
        return self.populations[label]

    @property
    def total(self):
        return sum(self.populations.values())


def evolve(hamiltonian, initial, times_fs):
    """Propagate amplitudes v(t) = exp(-i H t) v(0) on an increasing time grid.

    times_fs starts at 0 and need not be uniform.  H is diagonalized once and
    every point is v(t) = V exp(-i Lambda t) V^-1 v(0); if cond(V) exceeds
    EIG_COND_LIMIT (near an exceptional point) the points are evaluated
    instead by one batched scaling-and-squaring matrix exponential.
    """
    t_fs = np.asarray(times_fs, dtype=float)
    if t_fs.size == 0 or t_fs[0] != 0.0 or np.any(np.diff(t_fs) <= 0):
        raise DomainError("time grid must increase from 0")
    v0 = np.asarray(initial, dtype=complex)
    if v0.shape != (len(hamiltonian.labels),):
        raise DomainError(f"initial amplitudes must have shape ({len(hamiltonian.labels)},)")
    h = hamiltonian.matrix
    t_nat = from_fs(t_fs)
    lam, vecs = np.linalg.eig(h)
    if np.linalg.cond(vecs) <= EIG_COND_LIMIT:
        weights = np.linalg.solve(vecs, v0)
        amps = (np.exp(-1j * np.multiply.outer(t_nat, lam)) * weights) @ vecs.T
    else:
        amps = expm(-1j * np.multiply.outer(t_nat, h)) @ v0
    amps[0] = v0
    populations = {
        label: np.abs(amps[:, i]) ** 2 for i, label in enumerate(hamiltonian.labels)
    }
    return TimeTrace(times_fs=t_fs, labels=hamiltonian.labels, populations=populations)


def default_time_grid(hamiltonian, points=4096, lifetimes=10.0):
    """Femtosecond grid of `points` samples spanning `lifetimes` of the slowest branch."""
    widths = [-2.0 * lam.imag for lam in np.linalg.eigvals(hamiltonian.matrix)]
    positive = [w for w in widths if w > 0]
    if not positive:
        raise DomainError("no decaying branch; cannot size a default time grid")
    return np.linspace(0.0, float(to_fs(lifetimes / min(positive))), points)


def count_oscillation_maxima(times_fs, population, threshold=1e-3, settle_fs=0.0):
    """Number of strict local maxima above threshold, after an initial settling window.

    The settling window excludes the fast virtual-excursion transient of
    strongly damped far-detuned modes, which would otherwise register as
    sub-resolution maxima; pass settle_fs = 10 / gamma_fastest (converted
    to fs) for that purpose.
    """
    t = np.asarray(times_fs)
    p = np.asarray(population)
    interior = (p[1:-1] > p[:-2]) & (p[1:-1] > p[2:])
    eligible = (p[1:-1] > threshold) & (t[1:-1] >= settle_fs)
    return int(np.sum(interior & eligible))


@dataclass(frozen=True, eq=False)
class EigenBranchSet:
    """Continuity-tracked complex eigenvalue branches over a parameter sweep."""

    sweep_values: np.ndarray
    eigenvalues: np.ndarray  # complex (n_sweep, n_modes)

    @property
    def detunings(self):
        return self.eigenvalues.real

    @property
    def linewidths(self):
        return -2.0 * self.eigenvalues.imag

    @property
    def n_branches(self):
        return self.eigenvalues.shape[1]


def _best_assignment(score):
    """Column for each row of a square score matrix, maximizing the total score.

    Exhaustive over the n! permutations, which for the 2- and 3-mode
    systems here is cheaper than a general assignment solver.
    """
    n = score.shape[0]
    perms = np.array(list(permutations(range(n))))
    return perms[np.argmax(score[np.arange(n), perms].sum(axis=1))]


def _match_branches(prev_vecs, prev_vals, vecs, vals):
    """Order eigenpairs to maximize eigenvector overlap with the previous point."""
    overlap = np.abs(prev_vecs.conj().T @ vecs)
    scale = max(np.max(np.abs(vals - vals.mean())), np.finfo(float).tiny)
    proximity = 1.0 / (1.0 + np.abs(prev_vals[:, None] - vals[None, :]) / scale)
    for i in range(overlap.shape[0]):
        order = np.argsort(-overlap[i])
        if len(order) > 1 and abs(overlap[i, order[0]] - overlap[i, order[1]]) < 1e-12:
            a, b = order[0], order[1]
            if abs(proximity[i, a] - proximity[i, b]) < 1e-12:
                raise TrackingAmbiguityError(
                    f"branch {i}: eigenvector overlaps and eigenvalue distances both tie"
                )
    # eigenvalue proximity only breaks exact overlap ties
    return _best_assignment(overlap + 1e-9 * proximity)


def eigen_branches(matrices, sweep_values):
    """Track eigenvalue branches of a Hamiltonian family across a sweep.

    matrices: (n_sweep, n, n) stack or sequence of (n, n) arrays, diagonalized
    in one call.  The first point orders branches by ascending real part;
    subsequent points are matched by maximal eigenvector overlap, with
    eigenvalue proximity as tie-break.
    """
    sweep = np.asarray(sweep_values, dtype=float)
    if sweep.size == 0:
        raise DomainError("empty sweep")
    if len(matrices) != sweep.size:
        raise DomainError("one matrix per sweep value required")

    all_vals, all_vecs = np.linalg.eig(np.asarray(matrices, dtype=complex))
    all_vecs /= np.linalg.norm(all_vecs, axis=-2, keepdims=True)
    order = np.argsort(all_vals[0].real, kind="stable")
    all_vals[0], all_vecs[0] = all_vals[0, order], all_vecs[0][:, order]
    for k in range(1, sweep.size):
        cols = _match_branches(all_vecs[k - 1], all_vals[k - 1], all_vecs[k], all_vals[k])
        all_vals[k], all_vecs[k] = all_vals[k, cols], all_vecs[k][:, cols]
    return EigenBranchSet(sweep, all_vals)


@dataclass(frozen=True)
class AntiCrossingMetrics:
    """Splitting and linewidths of the two coupled branches of an anti-crossing."""

    two_g_eff: float  # minimum real-part separation over the sweep (eV)
    kappa_1: float  # larger linewidth at the center (eV)
    kappa_2: float  # smaller linewidth at the center (eV)
    cooperativity: float  # 4 g_eff^2 / (kappa_1 kappa_2)
    min_im_separation: float


def anticrossing_metrics(branchset):
    """Anti-crossing metrics for the coupled pair of an EigenBranchSet.

    The coupled pair is the two branches closest to zero real part at the
    sweep point closest to zero.  two_g_eff is their minimum real-part
    separation over the sweep; the linewidths and cooperativity are
    evaluated at that center point.
    """
    center = int(np.argmin(np.abs(branchset.sweep_values)))
    a, b = sorted(np.argsort(np.abs(branchset.eigenvalues[center].real), kind="stable")[:2])
    lam_a, lam_b = branchset.eigenvalues[:, a], branchset.eigenvalues[:, b]
    re_sep = np.abs(lam_a.real - lam_b.real)
    im_sep = np.abs(lam_a.imag - lam_b.imag)
    widths = sorted((-2.0 * lam_a[center].imag, -2.0 * lam_b[center].imag), reverse=True)
    two_g = float(np.min(re_sep))
    kappa_1, kappa_2 = float(widths[0]), float(widths[1])
    coop = two_g**2 / (kappa_1 * kappa_2) if kappa_1 * kappa_2 > 0 else float("inf")
    return AntiCrossingMetrics(
        two_g_eff=two_g,
        kappa_1=kappa_1,
        kappa_2=kappa_2,
        cooperativity=coop,
        min_im_separation=float(np.min(im_sep)),
    )
