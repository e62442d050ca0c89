"""Steady-state response, time evolution and complex-eigenvalue analysis.

Steady state solves (Delta_p I - H) v = f for the mode amplitudes under a
weak drive of unit amplitude; all powers are quadratic in the drive and
therefore relative, so only ratios and enhancement factors are physical.
The solve takes one of two paths:
- spectral: when a Hamiltonian, or a stack of them, meets more pump
  detunings than there are matrices, each H = V Lambda V^-1 is diagonalized
  once and v(Delta) = V (Delta - Lambda)^-1 V^-1 f at every detuning;
- LU: otherwise (one detuning per matrix), when any eigenbasis is
  ill-conditioned, cond_2(V) > EIG_COND_LIMIT (near an exceptional point),
  or when the spectral bound below fails the guard, one batched inverse of
  M = Delta I - H gives v = M^-1 f.
Either path bounds kappa_2(M) from above, by cond_2(V)^2 max_k |Delta -
lambda_k| / min_k |Delta - lambda_k| (Trefethen & Embree, Spectra and
Pseudospectra, 2005, ch. 2) or by kappa_F(M) = ||M||_F ||M^-1||_F (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 6-7), and
the solve raises ConditioningError where the bound exceeds 1 / RCOND_LIMIT.
The spectral bound can exceed kappa_2 by up to cond_2(V)^2, so a sweep it
rejects is retried on the LU path before the solve raises.  Path and guard
are decided once per sweep: steady_state_blocks bounds the whole sweep in
blocks of at most SWEEP_BLOCK_POINTS points, in row order, keeping only its
path and worst bound, then solves a block at the detunings its reader made.
A Linspace grid is made a block at a time too, so no array spans the sweep.
Time evolution propagates a single-excitation amplitude vector under the
non-Hermitian Hamiltonian through the same eigendecomposition, v(t) =
V exp(-i Lambda t) V^-1 v(0); above EIG_COND_LIMIT it falls back to the
scaling-and-squaring matrix exponential (Moler & Van Loan, SIAM Rev. 45, 2003).
"""

import math
from dataclasses import dataclass, replace
from functools import reduce
from itertools import permutations
from types import SimpleNamespace

import numpy as np

from .errors import ConditioningError, DomainError, TrackingAmbiguityError
from .quantities import from_fs, require_finite, to_fs

#: reciprocal of the largest condition-number bound a steady-state solve accepts
RCOND_LIMIT = 1e-13
#: eigenvector condition number above which steady state and evolve leave the eigenbasis
EIG_COND_LIMIT = 1e3
#: broadcast points per block of a steady-state sweep: a block's temporaries
#: take about 2 MB, and no array spans the sweep
SWEEP_BLOCK_POINTS = 8192


def expm(a):
    """Matrix exponential of a (T, n, n) stack, SWEEP_BLOCK_POINTS matrices at a time.

    Scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005):
    each x = a / 2**s, the least s >= 0 with ||x||_1 < 5, goes into a degree-40
    Taylor polynomial by Horner's rule, which is then squared s times.
    """
    out, eye = np.empty(a.shape, complex), np.eye(a.shape[-1])
    for k in range(0, len(a), SWEEP_BLOCK_POINTS):
        x = a[k:k + SWEEP_BLOCK_POINTS]
        s = np.maximum(np.frexp(np.abs(x).sum(axis=-2).max(axis=-1) / 5.0)[1], 0)
        x = x / (2.0 ** s)[:, None, None]
        e = eye + x / 40.0
        for j in range(39, 0, -1):
            e = eye + x @ e / j
        for i in range(s.max(initial=0)):
            e[s > i] = e[s > i] @ e[s > i]
        out[k:k + SWEEP_BLOCK_POINTS] = e
    return out


def mode_vector(hamiltonian, mode):
    """Unit amplitude on one mode: a drive, or an initial state."""
    f = np.zeros(len(hamiltonian.labels), dtype=complex)
    f[hamiltonian.index(mode)] = 1.0
    return f


def _eig(h):
    """Eigenvalues, unit eigenvectors and the 2-norm condition number of the eigenvectors.

    h is one (n, n) matrix or a (..., n, n) stack; cond_2(V) has the stack's
    leading shape.
    """
    lam, vecs = np.linalg.eig(h)
    return lam, vecs, np.linalg.cond(vecs)


def _frobenius(a):
    """||a||_F over the last two axes, with no temporary the size of the stack."""
    re, im = a.real, a.imag
    return np.sqrt(np.einsum("...ij,...ij->...", re, re) + np.einsum("...ij,...ij->...", im, im))


def _row_blocks(shape):
    """Index tuples of consecutive blocks of `shape` in row (C) order, each of at most
    SWEEP_BLOCK_POINTS points: whole leading rows where they fit, else parts of one row."""
    inner = math.prod(shape[1:])
    if inner <= SWEEP_BLOCK_POINTS:
        step = max(1, SWEEP_BLOCK_POINTS // inner)
        yield from ((slice(k, k + step),) for k in range(0, shape[0], step))
    else:
        for i in range(shape[0]):
            yield from ((i,) + rest for rest in _row_blocks(shape[1:]))


@dataclass(frozen=True)
class Linspace:
    """offset + np.linspace(start, stop, num) broadcast to shape = lead + (num,), made a block at
    a time: indexed by a block of _row_blocks(shape), it gives that block by np.linspace's own
    formula, to which a nonzero offset is added."""

    start: float
    stop: float
    num: int
    lead: tuple = ()
    offset: float = 0.0

    @property
    def shape(self):
        return self.lead + (self.num,)

    def __getitem__(self, index):
        *rows, last = index + (slice(None),) * (len(self.shape) - len(index))
        a, b, _ = last.indices(self.num)
        div, delta = self.num - 1, self.stop - self.start
        y = np.arange(a, b, dtype=float)
        if div > 0 and delta / div == 0:  # a step that underflows (numpy gh-5437)
            y /= div
            y *= delta
        else:  # num = 1 has no step: y = 0 * delta
            y *= delta / div if div > 0 else delta
        y += self.start
        if b == self.num > 1:
            y[-1] = self.stop
        if self.offset:
            y += self.offset
        lead = [len(range(n)[i]) for n, i in zip(self.lead, rows) if isinstance(i, slice)]
        return np.broadcast_to(y, (*lead, len(y)))


def broadcast_grid(detunings, shape=()):
    """Pump detunings broadcast against shape: a Linspace on the last axis stays one (itself if
    shape adds no axis), and anything else becomes a broadcast float array of at least 1-D."""
    if isinstance(detunings, Linspace):
        full = np.broadcast_shapes(detunings.shape, shape)
        if full[-1] == detunings.num:
            return detunings if full == detunings.shape else replace(detunings, lead=full[:-1])
        detunings, shape = detunings[()], full
    d = np.atleast_1d(np.asarray(detunings, dtype=float))
    return np.broadcast_to(d, np.broadcast_shapes(d.shape, shape))


def _inverse(d, h):
    """(K, M^-1) for M = Delta I - h at the points of one block, K = kappa_F(M) =
    ||M||_F ||M^-1||_F >= kappa_2(M), since ||A||_2 <= ||A||_F."""
    mats = d[..., None, None] * np.eye(h.shape[-1]) - h
    try:
        inv = np.linalg.inv(mats)
    except np.linalg.LinAlgError:
        raise ConditioningError(
            "steady-state matrix is singular (LU path); "
            "every mode needs a positive width or a detuned pump") from None
    return _frobenius(mats) * _frobenius(inv), inv


def _bounds(h, grid, eig=None):
    """(index, K) per block of _row_blocks(grid.shape), K >= kappa_2(Delta I - h) at its points.

    grid is the sweep's broadcast_grid against the stack h.  K is the spectral
    bound of eig = _eig(h), else the LU bound (see the module docstring), and
    inf or nan where a detuning hits an eigenvalue; an exactly singular matrix
    raises ConditioningError.
    """
    shape, n = grid.shape, h.shape[-1]
    if eig:
        lam, cond_v = np.broadcast_to(eig[0], shape + (n,)), np.broadcast_to(eig[2], shape)
    h = np.broadcast_to(h, shape + (n, n))
    for block in _row_blocks(shape):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if eig:
                # elementwise over the n columns: a reduction over the last axis is ~10x slower
                cols = np.moveaxis(np.abs(grid[block][..., None] - lam[block]), -1, 0)
                bound = cond_v[block]**2 * reduce(np.maximum, cols) / reduce(np.minimum, cols)
            else:
                bound = _inverse(grid[block], h[block])[0]
        yield block, bound


def _guard(bounds):
    """(worst K, whether every K * RCOND_LIMIT <= 1) over (index, K) blocks.

    NaN and inf fail, and a NaN K makes the worst NaN, as np.max does.
    """
    worst, passed = -math.inf, True
    for _, bound in bounds:
        worst = np.maximum(worst, np.max(bound))
        passed = passed and bool(np.all(bound * RCOND_LIMIT <= 1.0))
    return worst, passed


def _resolvent(h, grid, f):
    """(path, worst K, solve) of (Delta I - h) v = f over the sweep grid (broadcast_grid).

    solve(index, d) is v at the points d = grid[index] of one block of
    _row_blocks(grid.shape), the modes on its last axis.  path is "spectral"
    or "lu" (see the module docstring), decided for the whole sweep: a
    spectral bound that fails the guard anywhere sends the solve to the LU
    path, and an LU bound that fails it raises ConditioningError naming the
    worst K.  The bounds are computed block by block; the LU path inverts a
    block again, without its bound, as it solves it, unless the sweep is one block.
    """
    shape, n = grid.shape, h.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if math.prod(shape) > math.prod(h.shape[:-2]):
            eig = _eig(h)
            if np.all(eig[2] <= EIG_COND_LIMIT) and (spectral := _guard(_bounds(h, grid, eig)))[1]:
                lam, vecs, _ = eig
                # numpy 1 and 2 read a 1-D right-hand side against a stack differently;
                # f as one column per matrix means the same on both
                weights = np.linalg.solve(vecs, np.broadcast_to(f[:, None], lam.shape + (1,)))
                lam, weights = (np.broadcast_to(a, shape + (n,)) for a in (lam, weights[..., 0]))
                vecs = np.broadcast_to(vecs, shape + (n, n))
                return "spectral", spectral[0], lambda block, d: _spectral_solve(
                    d, lam[block], vecs[block], weights[block])
        index = list(_row_blocks(shape))
        h = np.broadcast_to(h, shape + (n, n))
        if len(index) == 1:  # one block, as the default map's and optq's solves: invert it once
            bound, inv = _inverse(grid[index[0]], h[index[0]])
            v = inv @ f
            solve, bounds = (lambda block, d: v), [(index[0], bound)]
        else:  # the guard has inverted every block, so the solve inverts it again unbounded
            solve, bounds = (lambda block, d: np.linalg.inv(
                d[..., None, None] * np.eye(n) - h[block]) @ f), _bounds(h, grid)
        worst, passed = _guard(bounds)
    if not passed:
        cause = ("the bound overflows: the matrix or its inverse is too large for a double"
                 if np.isinf(worst) else "every mode needs a positive width or a detuned pump")
        raise ConditioningError(
            f"steady-state matrix is singular or near-singular (lu path, condition "
            f"bound {worst:.3g} > {1.0 / RCOND_LIMIT:.0e}); {cause}")
    return "lu", worst, solve


def _spectral_solve(d, lam, vecs, weights):
    """v = V ((V^-1 f) / (Delta - lambda)) at the points of one block, weights = V^-1 f."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gap = d[..., None] - lam
        # einsum, not @: a tall (points, n) @ (n, n) product goes to threaded gemm
        return np.einsum("...ij,...j->...i", vecs, np.divide(weights, gap, out=gap))


def steady_state_blocks(hamiltonian, detunings, drive_mode):
    """The steady-state sweep under a unit drive on one mode, solved a block at a time.

    detunings is an array or a Linspace, broadcast against a stack's leading
    shape as the sweep's `grid` (broadcast_grid).  The sweep, a
    SimpleNamespace, holds its `path` and worst bound `worst`, decided here,
    so an ill-conditioned sweep raises before any block is solved; `index`,
    the blocks of at most SWEEP_BLOCK_POINTS points of grid.shape in row (C)
    order; and solve(block, d), a pure function of the block: (amplitudes
    (..., n_modes), the Hamiltonian's port powers {port -> array}) at its
    detunings d = grid[block].  Sweeps of one shape advance together.
    """
    if math.prod(np.shape(detunings)) == 0:
        raise DomainError("empty detuning sweep")
    grid = broadcast_grid(detunings, hamiltonian.matrix.shape[:-2])
    path, worst, amplitudes = _resolvent(
        hamiltonian.matrix, grid, mode_vector(hamiltonian, drive_mode))
    index = list(_row_blocks(grid.shape))

    def solve(block, d):  # a block short of the sweep takes the rates at its points; a scalar
        v = amplitudes(block, d)  # rate serves every point as it is
        at = hamiltonian if len(index) == 1 else replace(hamiltonian, rates={
            k: r if np.ndim(r) == 0 else np.broadcast_to(r, grid.shape)[block]
            for k, r in hamiltonian.rates.items()})
        return v, at.powers(v)
    return SimpleNamespace(grid=grid, path=path, worst=worst, index=index, solve=solve)


def steady_state_sweep(hamiltonian, detunings, drive_mode):
    """Vectorized steady state under a unit drive on one mode, over a pump-detuning grid.

    Returns (amplitudes (..., n_modes), the Hamiltonian's port powers
    {port -> array}) over the broadcast shape: the blocks of
    steady_state_blocks put together.  The (D, Q) enhancements and fig2's Delta_0
    metadata use it; tables do not.
    """
    sweep = steady_state_blocks(hamiltonian, detunings, drive_mode)
    shape = sweep.grid.shape
    amps, powers = np.empty(shape + (len(hamiltonian.labels),), complex), {}
    for block in sweep.index:
        amps[block], block_powers = sweep.solve(block, sweep.grid[block])
        for port, power in block_powers.items():
            powers.setdefault(port, np.empty(shape))[block] = power
    return amps, powers


def fano_detuning(J, g1, G):
    """Pump-cavity detuning of maximal destructive interference, Delta_0 = -J g1 / G.

    G may be an array; Delta_0 is then an array of its shape.
    """
    require_finite(J=J, g1=g1, G=G)
    if np.any(np.asarray(G) == 0.0):
        raise DomainError("Fano detuning undefined for G = 0")
    require_finite(delta_0=(delta_0 := -J * g1 / G))  # J g1 can overflow
    return delta_0


@dataclass(frozen=True, eq=False)
class TimeTrace:
    """Mode populations |v_i(t)|^2 on a femtosecond time grid."""

    times_fs: np.ndarray
    populations: dict  # mode label -> np.ndarray, in basis order

    def population(self, label):
        return self.populations[label]

    @property
    def total(self):
        return sum(self.populations.values())


def evolve(hamiltonian, initial, times_fs, points=None):
    """Propagate amplitudes v(t) = exp(-i H t) v(0) on an increasing time grid.

    times_fs starts at 0 and need not be uniform; None asks for
    default_time_grid(eigenvalues of H, points).  H is diagonalized once and
    every point is v(t) = V exp(-i Lambda t) V^-1 v(0); if cond(V) exceeds
    EIG_COND_LIMIT (near an exceptional point) the points are evaluated
    instead by one batched scaling-and-squaring matrix exponential.
    """
    v0 = np.asarray(initial, dtype=complex)
    if v0.shape != (len(hamiltonian.labels),):
        raise DomainError(f"initial amplitudes must have shape ({len(hamiltonian.labels)},)")
    h = hamiltonian.matrix
    lam, vecs, cond_v = _eig(h)
    t_fs = np.asarray(default_time_grid(lam, points) if times_fs is None else times_fs,
                      dtype=float)
    if t_fs.size == 0 or t_fs[0] != 0.0 or np.any(np.diff(t_fs) <= 0):
        raise DomainError("time grid must increase from 0")
    t_nat = from_fs(t_fs)
    if cond_v <= EIG_COND_LIMIT:
        weights = np.linalg.solve(vecs, v0)
        with np.errstate(over="ignore", invalid="ignore"):  # t (-i lambda) overflows to 0 or inf
            amps = (np.exp(np.multiply.outer(t_nat, -1j * lam)) * weights) @ vecs.T
    else:
        amps = expm(-1j * np.multiply.outer(t_nat, h)) @ v0
    amps[0] = v0
    if not np.all(np.isfinite(amps)):  # a passive H cannot grow: widths span too many decades
        raise ConditioningError(f"time evolution overflows: max Im lambda = {lam.imag.max():.3g} eV")
    populations = {label: np.abs(amps[:, i]) ** 2 for i, label in enumerate(hamiltonian.labels)}
    return TimeTrace(times_fs=t_fs, populations=populations)


def default_time_grid(eigenvalues, points):
    """Femtosecond grid of `points` samples spanning ten lifetimes of the slowest branch.

    The branches are the complex eigenvalues of the Hamiltonian, width -2 Im.
    """
    positive = [float(-2.0 * lam.imag) for lam in eigenvalues if lam.imag < 0]
    span_fs = float(to_fs(10.0 / min(positive))) if positive else math.inf  # floats overflow silently
    if span_fs == math.inf:
        raise DomainError("no branch decays within floating-point range; cannot size a time grid")
    return np.linspace(0.0, span_fs, points)


def count_oscillation_maxima(times_fs, population, settle_fs):
    """Number of strict local maxima above 1e-3, after an initial settling window.

    The settling window excludes the fast virtual-excursion transient of
    strongly damped far-detuned modes, which would otherwise register as
    sub-resolution maxima; pass settle_fs = 10 / gamma_fastest (converted
    to fs) for that purpose.
    """
    t = np.asarray(times_fs)
    p = np.asarray(population)
    interior = (p[1:-1] > p[:-2]) & (p[1:-1] > p[2:])
    eligible = (p[1:-1] > 1e-3) & (t[1:-1] >= settle_fs)
    return int(np.sum(interior & eligible))


@dataclass(frozen=True, eq=False)
class EigenBranchSet:
    """Continuity-tracked complex eigenvalue branches over a parameter sweep."""

    sweep_values: np.ndarray
    eigenvalues: np.ndarray  # complex (n_sweep, n_modes)


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
    try:
        coop = two_g**2 / (kappa_1 * kappa_2) if kappa_1 * kappa_2 > 0 else float("inf")
    except OverflowError:
        raise DomainError(f"2 g_eff = {two_g:.3g} eV overflows the cooperativity") from None
    return AntiCrossingMetrics(two_g_eff=two_g, kappa_1=kappa_1, kappa_2=kappa_2,
                               cooperativity=coop, min_im_separation=float(np.min(im_sep)))
