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
# Modulus ties when picking a column's anchor component for the phase fix.
PHASE_TIE_TOL = 1e-12


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
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
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


def as_state(vector, name: str = "state", norm_tol: float = 1e-9) -> np.ndarray:
    """Coerce to a finite complex vector normalized within norm_tol."""
    v = np.asarray(vector, dtype=np.complex128)
    if v.ndim != 1 or v.size < 1:
        raise ValueError(f"{name} must be a nonempty vector, got shape {v.shape}")
    if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    norm_sq = float(np.real(np.vdot(v, v)))
    if abs(norm_sq - 1.0) > norm_tol:
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


class SpectralDecomposition(NamedTuple):
    """Eigenvalues (ascending) and orthonormal eigenvector columns.

    ``sweeps`` is the number of Jacobi sweeps the solver ran (0 for a
    diagonal input) and ``offdiag_residual`` the off-diagonal Frobenius norm
    it stopped at, at most JACOBI_TOL_FACTOR * ||A||_F.
    """

    eigenvalues: np.ndarray   # (n,) float64, ascending
    eigenvectors: np.ndarray  # (n, n) complex128, column k pairs with eigenvalue k
    sweeps: int
    offdiag_residual: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def span(self) -> float:
        """E_max - E_min."""
        return float(self.eigenvalues[-1] - self.eigenvalues[0])


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


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its anchor component (_anchor_indices) is real >= 0.

    A zero column has no phase and stays zero.
    """
    anchors = v[_anchor_indices(v), np.arange(v.shape[1])]
    # the scalar modulus (libm hypot), which can differ from np.abs in the last bit
    return v * (anchors.conj() / [abs(z) or 1.0 for z in anchors.tolist()])


def _order_degenerate(evals: np.ndarray, vecs: np.ndarray):
    """Within near-degenerate eigenvalue runs, order columns by anchor index."""
    tol = PHASE_TIE_TOL * float(np.max(np.abs(evals)))
    gaps = evals[1:] - evals[:-1] > tol
    if gaps.all():
        return evals, vecs
    # each gap above tolerance starts a new run; lexsort is stable, so columns
    # with equal anchors keep their order
    runs = np.concatenate(([0], np.cumsum(gaps)))
    idx = np.lexsort((_anchor_indices(vecs), runs))
    return evals[idx], vecs[:, idx]


def _spectral_decomposition(av: np.ndarray, sweeps: int, residual: float):
    """The SpectralDecomposition read off one converged A-over-V member."""
    n = av.shape[1]
    evals = av[:n].diagonal().real.copy()
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    vecs = _fix_column_phases(av[n:, order])
    evals, vecs = _order_degenerate(evals, vecs)
    evals.setflags(write=False)
    vecs.setflags(write=False)
    return SpectralDecomposition(evals, vecs, sweeps, residual)


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

    Each sweep runs the rounds of _round_robin: every pair (p, q) once, in
    rounds of disjoint pairs whose rotations are applied together.  Sweeps
    stop once the off-diagonal Frobenius norm is at most
    JACOBI_TOL_FACTOR * ||A||_F.  The order depends only on the dimension and
    every step is elementwise, so decompositions of the same matrix agree
    bit-for-bit.  The matrix runs as a stack of one through the lock-step
    kernel, _eigendecompose_stack, which gives each member of a stack the
    bits it would get alone.

    Eigenvalues come out ascending; each eigenvector column carries the
    deterministic phase convention of _fix_column_phases, and degenerate
    groups are ordered by the index of their largest-modulus component.
    The result also records the sweep count and the final residual.

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
