"""Dense complex linear algebra for finite-dimensional quantum systems.

States are complex vectors, observables are Hermitian matrices, and every
spectral quantity is obtained from a Jacobi eigensolver so that two
decompositions of the same matrix agree bit-for-bit.  Each sweep visits the
index pairs in round-robin (Brent-Luk) order: a round is a set of disjoint
pairs, so its rotations are applied together as elementwise array operations.
The schedule depends only on the dimension and no step sums through BLAS, so
the result does not depend on the run.  Since the schedule depends on nothing
else, matrices of one dimension share every round: the solver runs a stack of
them in lock step, each member with its own rotations and its own stopping
sweep, and each member comes out with the bits it gets alone.  A single
decomposition is the stack of one.  Matrix exponentials are never formed
from power series; the propagator is assembled from the spectral
decomposition directly.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Hermiticity: max |M_ij - conj(M_ji)| allowed, relative to the Frobenius norm.
HERMITICITY_TOL_FACTOR = 1e-12
# Jacobi convergence: off-diagonal Frobenius norm target, relative to ||A||_F.
JACOBI_TOL_FACTOR = 1e-13
JACOBI_MAX_SWEEPS = 100
# Sorted neighbouring eigenvalues at most this far apart, relative to ||H||_2, are one level.
GAP_TOL_FACTOR = 1e-12
# Modulus ties when picking a column's anchor component for the phase fix.
PHASE_TIE_TOL = 1e-12
# A state is normalized when its squared norm is within this of 1.
NORM_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """Raised when the Jacobi sweep cap is hit before the residual target."""

    def __init__(self, residual: float, sweeps: int):
        super().__init__(
            f"eigensolver did not converge within {sweeps} sweeps "
            f"(off-diagonal residual {residual:.3e})"
        )
        self.residual = residual
        self.sweeps = sweeps


def as_complex_matrix(matrix, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def require_positive_finite(value, name: str) -> float:
    """Validate a real scalar such as hbar, a frequency or a step; return it as a float."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def require_finite_real(value, name: str) -> float:
    """Validate a real scalar such as a time or an energy offset; return it as a float."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite real, got {value!r}")
    return float(value)


def hermitian_defect(matrix) -> float:
    """Largest elementwise deviation of M from its conjugate transpose."""
    m = np.asarray(matrix, dtype=np.complex128)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def require_hermitian(matrix, name: str = "matrix") -> np.ndarray:
    """Validate a finite Frobenius norm and Hermiticity within the relative
    tolerance; return the array."""
    m = as_complex_matrix(matrix, name)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(m))
    if not math.isfinite(norm):
        raise ValueError(f"{name} is too large: its Frobenius norm overflows")
    defect = hermitian_defect(m)
    tol = HERMITICITY_TOL_FACTOR * norm
    if defect > tol:
        i, j = np.unravel_index(np.argmax(np.abs(m - m.conj().T)), m.shape)
        raise ValueError(
            f"{name} is not Hermitian: entry ({i},{j}) deviates from the "
            f"conjugate of ({j},{i}) by {defect:.3e} (tolerance {tol:.3e})"
        )
    return m


def as_state(vector, name: str = "state") -> np.ndarray:
    """Coerce to a finite complex vector whose squared norm is within NORM_TOL
    of 1, the one normalization test of every state argument."""
    v = np.asarray(vector, dtype=np.complex128)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{name} must be a nonempty vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} contains non-finite entries")
    norm_sq = float(np.real(np.vdot(v, v)))
    if abs(norm_sq - 1.0) > NORM_TOL:
        raise ValueError(
            f"{name} is not normalized: sum of squared moduli is {norm_sq!r}"
        )
    return v


def commutator(a, b) -> np.ndarray:
    """AB - BA for same-dimension square matrices."""
    am = as_complex_matrix(a, "first operand")
    bm = as_complex_matrix(b, "second operand")
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return _commutator(am, bm)


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """AB - BA of already validated matrices."""
    return a @ b - b @ a


class Levels(NamedTuple):
    """The levels of a spectrum (_levels), ascending.  Level j holds columns
    starts[j] up to the next start; its energy is hi - (hi - lo) / 2 of its
    extreme eigenvalues, so a level of equal eigenvalues keeps their bits."""

    starts: np.ndarray    # (L,) first column of each level
    energies: np.ndarray  # (L,) float64, ascending
    spread: float         # largest hi - lo, 0.0 when no level merges distinct values


class SpectralDecomposition(NamedTuple):
    """Eigenvalues (ascending, but not within a level), orthonormal eigenvectors and their Levels.

    ``sweeps`` is the number of Jacobi sweeps the solver ran (0 for a
    diagonal input) and ``offdiag_residual`` the off-diagonal Frobenius norm
    it stopped at, at most JACOBI_TOL_FACTOR * ||A||_F.
    """

    eigenvalues: np.ndarray   # (n,) float64, ascending level by level
    eigenvectors: np.ndarray  # (n, n) complex128, column k pairs with eigenvalue k
    sweeps: int
    offdiag_residual: float
    levels: Levels

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def span(self) -> float:
        """E_max - E_min, never negative."""
        return float(self.eigenvalues.max() - self.eigenvalues.min())


def _energy_scale(eigenvalues) -> float:
    """||H||_2 = max|E_k|, the unit of the energy thresholds and level gaps."""
    return float(np.abs(eigenvalues).max())


def _levels(eigenvalues) -> np.ndarray:
    """Level of each eigenvalue, 0 at the lowest: in sorted order (a level
    ordered by anchor can be out of order, and split), a gap above
    GAP_TOL_FACTOR * ||H||_2 starts a new level.  The one degeneracy rule."""
    order = np.argsort(eigenvalues, kind="stable")
    gaps = np.diff(eigenvalues[order]) > GAP_TOL_FACTOR * _energy_scale(eigenvalues)
    return np.concatenate(([0], np.cumsum(gaps)))[np.argsort(order, kind="stable")]


def _offdiag_norms(a: np.ndarray) -> list[float]:
    """Off-diagonal Frobenius norm of each matrix in a (k, n, n) stack.

    Each member is summed on its own: a sum along an axis of the stack
    groups the additions differently, and so rounds differently.
    """
    mask = _offdiag_mask(a.shape[-1])
    return [math.sqrt(np.sum(np.abs(a[j][mask]) ** 2)) for j in range(a.shape[0])]


@lru_cache(maxsize=16)
def _offdiag_mask(n: int) -> np.ndarray:
    mask = ~np.eye(n, dtype=bool)
    mask.setflags(write=False)
    return mask


@lru_cache(maxsize=16)
def _round_robin(n: int) -> tuple:
    """The rounds of one Brent-Luk sweep over an n x n matrix.

    Circle method with N = n rounded up to even: index N - 1 stays put while
    the others turn one place per round, so the N - 1 rounds of N / 2
    disjoint pairs meet every pair once.  For odd n the extra index n is a
    dummy, and the pair holding it is skipped.  Each round is the four
    read-only index arrays that _jacobi_stack_round reads, for its pivots
    p < q: the flat offsets of a[p, q], a[p, p] and a[q, q] in an n x n
    matrix; the columns (p, q) followed by the unpaired index of odd n, and
    the inverse of that order; and (q, p).
    """
    size = n + n % 2
    turn = size - 1
    rounds = []
    for r in range(turn):
        pairs = [(r, turn)] + [((r + k) % turn, (r - k) % turn) for k in range(1, size // 2)]
        pairs = sorted((min(pair), max(pair)) for pair in pairs if max(pair) < n)
        p = np.array([i for i, _ in pairs], dtype=np.intp)
        q = np.array([j for _, j in pairs], dtype=np.intp)
        # for odd n, index r is the one paired with the dummy
        order = np.concatenate((p, q, np.arange(r, r + n % 2)))
        pivots = np.concatenate((p * n + q, p * (n + 1), q * (n + 1)))
        arrays = (pivots, order, np.argsort(order, kind="stable"), np.concatenate((q, p)))
        for x in arrays:
            x.setflags(write=False)
        rounds.append(arrays)
    return tuple(rounds)


def _jacobi_stack_round(av: np.ndarray, pivots, order, inverse, qp) -> np.ndarray:
    """Zero a[p_j, q_j] for every disjoint pair j of one round, in every
    member of the stack; return the rotated stack.

    ``av`` is a (k, 2n, n) stack of A (top n rows) over V (bottom n rows), so
    one column update serves both A <- A G and V <- V G; the row update
    A <- G† A follows.  The index arrays are a round of _round_robin: the columns
    are rotated in a copy gathered in ``order`` and put back in place by one
    more gather, which costs less than assigning them.  Each pair gets the
    complex Givens rotation of the scalar method, elementwise across the
    stack.  An exact zero pivot is the identity: its rotation is computed
    from a placeholder modulus and discarded, so its columns and rows keep
    their bits.
    """
    k, n = av.shape[0], av.shape[2]
    m = qp.shape[0] // 2
    g = av.reshape(k, -1).take(pivots, axis=1)
    apq = g[:, :m]
    r = np.abs(apq)
    skip = None
    if not r.all():
        skip = r == 0.0
        r[skip] = 1.0
        skip = np.concatenate((skip, skip), axis=1)
    w = apq / r  # unit phase of each pivot
    tau = (g[:, 2 * m :].real - g[:, m : 2 * m].real) / (2.0 * r)
    t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
    c = 1.0 / np.hypot(1.0, t)
    s = t * c
    # new column p = c w col_p - s col_q; new column q = c col_q + s w col_p
    coef = np.concatenate((c * w, c, -s, s * w), axis=1)
    out = av.take(order, axis=2)
    cols = out[:, :, : 2 * m]
    old = None if skip is None else cols.copy()
    cols *= coef[:, None, : 2 * m]
    cols += av.take(qp, axis=2) * coef[:, None, 2 * m :]
    if skip is not None:
        np.copyto(cols, old, where=skip[:, None])
    av = out.take(inverse, axis=2)
    a = av[:, :n]
    pq = order[: 2 * m]
    coef = coef.conj()[:, :, None]
    rows = a.take(pq, axis=1)
    new = coef[:, : 2 * m] * rows + coef[:, 2 * m :] * a.take(qp, axis=1)
    if skip is not None:
        np.copyto(new, rows, where=skip[:, :, None])
    a[:, pq] = new
    return av


def _anchor_indices(v: np.ndarray) -> np.ndarray:
    """Per column, the index of the largest-modulus component; ties (moduli
    within PHASE_TIE_TOL of the largest) break toward the lowest index."""
    mods = np.abs(v)
    near_top = mods.max(axis=0) - mods <= PHASE_TIE_TOL
    return np.where(near_top, np.arange(v.shape[0])[:, None], v.shape[0]).min(axis=0)


def _spectral_decomposition(av: np.ndarray, sweeps: int, residual: float):
    """The SpectralDecomposition read off one converged A-over-V member: each
    column rotated so that its anchor component (_anchor_indices) is real >= 0
    (a zero column stays zero), the eigenpairs in one stable sort by level
    (_levels), anchor and value, and the Levels they form."""
    n = av.shape[1]
    evals, vecs = av[:n].diagonal().real, av[n:]
    anchors = _anchor_indices(vecs)
    tops = vecs[anchors, np.arange(n)]
    # the scalar modulus (libm hypot), which can differ from np.abs in the last bit
    vecs = vecs * (tops.conj() / [abs(z) or 1.0 for z in tops.tolist()])
    labels = _levels(evals)
    order = np.lexsort((evals, anchors, labels))
    evals, vecs = evals[order], vecs[:, order]
    starts = np.concatenate(([0], np.cumsum(np.bincount(labels)[:-1])))
    lo, hi = np.minimum.reduceat(evals, starts), np.maximum.reduceat(evals, starts)
    levels = Levels(starts, hi - 0.5 * (hi - lo), float((hi - lo).max()))
    for x in (evals, vecs, *levels[:2]):
        x.setflags(write=False)
    return SpectralDecomposition(evals, vecs, sweeps, residual, levels)


def _eigendecompose_stack(matrices: np.ndarray) -> list[SpectralDecomposition]:
    """Decompositions of a (k, n, n) stack of validated Hermitian matrices.

    The members run the same rounds of _round_robin in lock step
    (_jacobi_stack_round), each with its own rotations, so a member's bits do
    not depend on the rest of the stack.  A member leaves the stack after the
    sweep that brings its residual within target; later rounds do not touch
    it.  The first member in stack order still above target at the sweep cap
    raises ConvergenceError with its own residual.
    """
    k, n = matrices.shape[:2]
    av = np.empty((k, 2 * n, n), dtype=np.complex128)
    # symmetrize the sub-tolerance defect so rotations see an exact Hermitian
    av[:, :n] = 0.5 * (matrices + matrices.conj().mT)
    av[:, n:] = np.eye(n)
    targets = [JACOBI_TOL_FACTOR * float(np.linalg.norm(av[j, :n])) for j in range(k)]
    residuals = _offdiag_norms(av[:, :n])
    members = list(range(k))
    out = [None] * k
    sweeps = 0
    while True:
        active = [res > target for res, target in zip(residuals, targets)]
        if not all(active):
            for j, member in enumerate(members):
                if not active[j]:
                    out[member] = _spectral_decomposition(av[j], sweeps, residuals[j])
            if not any(active):
                return out
            av = av[active]
            members = [x for x, on in zip(members, active) if on]
            targets = [x for x, on in zip(targets, active) if on]
        if sweeps >= JACOBI_MAX_SWEEPS:
            raise ConvergenceError(residuals[active.index(True)], sweeps)
        for round_ in _round_robin(n):
            av = _jacobi_stack_round(av, *round_)
        sweeps += 1
        residuals = _offdiag_norms(av[:, :n])


def eigendecompose(matrix) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix via Jacobi sweeps.

    The sweeps (_round_robin) stop once the off-diagonal Frobenius norm is
    at most JACOBI_TOL_FACTOR * ||A||_F.  The matrix runs as a stack of one
    through _eigendecompose_stack, which gives each member the bits it would
    get alone, so decompositions of the same matrix agree bit-for-bit.

    Eigenvalues come out ascending level by level, with the Levels they
    form; each eigenvector column is rotated so that its largest component
    is real >= 0, and the columns of a degenerate level are ordered by the
    index of that component (_spectral_decomposition).  The result also
    records the sweep count and the final residual.

    Raises:
        ValueError: non-Hermitian input.
        ConvergenceError: sweep cap reached before the residual target.
    """
    return _eigendecompose_stack(require_hermitian(matrix)[None])[0]


def _phases(eigenvalues, times, hbar) -> np.ndarray:
    """exp(-i E_k t / hbar) for eigenvalue rows and time columns, unvalidated.

    The one place the phase is formed, so that trajectories, survival
    amplitudes and propagators all round its argument as E_k * (t / hbar).
    """
    return np.exp(-1j * np.outer(eigenvalues, np.divide(times, hbar)))


def propagator(hamiltonian, t: float, hbar: float = 1.0) -> np.ndarray:
    """Unitary time-evolution operator U(t) assembled spectrally.

    U(t) = sum_k exp(-i E_k t / hbar) |E_k><E_k|.  Accepts either a Hermitian
    matrix or an existing SpectralDecomposition.

    Args:
        hamiltonian: Hermitian matrix or SpectralDecomposition.
        t: evolution time (finite real).
        hbar: reduced Planck constant, > 0.
    """
    hbar = require_positive_finite(hbar, "hbar")
    t = require_finite_real(t, "t")
    spec = (
        hamiltonian
        if isinstance(hamiltonian, SpectralDecomposition)
        else eigendecompose(hamiltonian)
    )
    phases = _phases(spec.eigenvalues, [t], hbar)[:, 0]
    return (spec.eigenvectors * phases) @ spec.eigenvectors.conj().T
