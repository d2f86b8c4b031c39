"""Dense complex linear algebra for finite-dimensional quantum systems.

States are complex vectors, observables are Hermitian matrices, and every
spectral quantity is obtained from a Jacobi eigensolver so that two
decompositions of the same matrix agree bit-for-bit.  Each sweep visits the
index pairs in round-robin (Brent-Luk) order: a round is a set of disjoint
pairs, so its rotations are applied together as elementwise array operations.
The schedule depends only on the dimension and no step sums through BLAS, so
the result does not depend on the run.  Matrix exponentials are never formed
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


def hermitian_defect(matrix) -> float:
    """Largest elementwise deviation of M from its conjugate transpose."""
    m = np.asarray(matrix, dtype=np.complex128)
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def require_hermitian(matrix, name: str = "matrix") -> np.ndarray:
    """Validate Hermiticity within the relative tolerance; return the array."""
    m = as_complex_matrix(matrix, name)
    defect = hermitian_defect(m)
    tol = HERMITICITY_TOL_FACTOR * float(np.linalg.norm(m))
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


def inner(a, b) -> complex:
    """Inner product <a|b>, antilinear in the first argument."""
    av = np.asarray(a, dtype=np.complex128)
    bv = np.asarray(b, dtype=np.complex128)
    if av.ndim != 1 or bv.ndim != 1:
        raise ValueError("inner expects vectors")
    if av.shape != bv.shape:
        raise ValueError(f"dimension mismatch: {av.shape[0]} vs {bv.shape[0]}")
    return complex(np.vdot(av, bv))


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


def _offdiag_norm(a: np.ndarray) -> float:
    n = a.shape[0]
    mask = ~np.eye(n, dtype=bool)
    return float(np.sqrt(np.sum(np.abs(a[mask]) ** 2)))


@lru_cache(maxsize=16)
def _round_robin(n: int) -> tuple:
    """The rounds of one Brent-Luk sweep over an n x n matrix.

    Circle method with N = n rounded up to even: index N - 1 stays put while
    the others turn one place per round, so the N - 1 rounds of N / 2
    disjoint pairs meet every pair once.  For odd n the extra index n is a
    dummy, and the pair holding it is skipped.  Each round is four read-only
    index arrays: the pivots p < q, then the concatenations (p, q) and (q, p).
    """
    size = n + n % 2
    turn = size - 1
    rounds = []
    for r in range(turn):
        pairs = [(r, turn)] + [((r + k) % turn, (r - k) % turn) for k in range(1, size // 2)]
        pairs = sorted((min(pair), max(pair)) for pair in pairs if max(pair) < n)
        p = np.array([i for i, _ in pairs], dtype=np.intp)
        q = np.array([j for _, j in pairs], dtype=np.intp)
        arrays = (p, q, np.concatenate((p, q)), np.concatenate((q, p)))
        for x in arrays:
            x.setflags(write=False)
        rounds.append(arrays)
    return tuple(rounds)


def _jacobi_round(av: np.ndarray, p, q, pq, qp) -> None:
    """Zero a[p_j, q_j] for every disjoint pair j of one round, in place.

    ``av`` stacks A (top n rows) over V (bottom n rows), so one column
    update serves both A <- A G and V <- V G; the row update A <- G† A
    follows.  Each pair gets the complex Givens rotation of the scalar
    method; an exact zero pivot is the identity and its pair is left out.
    """
    n = av.shape[1]
    a = av[:n]
    apq = a[p, q]
    r = np.abs(apq)
    if not r.all():
        keep = r > 0.0
        p, q, apq, r = p[keep], q[keep], apq[keep], r[keep]
        pq, qp = np.concatenate((p, q)), np.concatenate((q, p))
    w = apq / r  # unit phase of each pivot
    diag = a.diagonal().real
    tau = (diag[q] - diag[p]) / (2.0 * r)
    t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
    c = 1.0 / np.hypot(1.0, t)
    s = t * c
    # new column p = c w col_p - s col_q; new column q = c col_q + s w col_p
    alpha = np.concatenate((c * w, c))
    beta = np.concatenate((-s, s * w))
    av[:, pq] = av[:, pq] * alpha + av[:, qp] * beta
    a[pq] = alpha.conj()[:, None] * a[pq] + beta.conj()[:, None] * a[qp]


def _anchor_index(column: np.ndarray) -> int:
    """Index of the largest-modulus component; ties break toward the lowest."""
    mods = np.abs(column)
    top = float(mods.max())
    return int(np.nonzero(top - mods <= PHASE_TIE_TOL)[0][0])


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-modulus component is real >= 0.

    Ties (moduli equal within PHASE_TIE_TOL) break toward the lowest index.
    """
    out = v.copy()
    for k in range(out.shape[1]):
        z = out[_anchor_index(out[:, k]), k]
        if abs(z) > 0.0:
            out[:, k] *= np.conj(z) / abs(z)
    return out


def _order_degenerate(evals: np.ndarray, vecs: np.ndarray):
    """Within near-degenerate eigenvalue runs, order columns by anchor index."""
    n = evals.shape[0]
    tol = PHASE_TIE_TOL * float(np.max(np.abs(evals)))
    order = list(range(n))
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and evals[stop] - evals[stop - 1] <= tol:
            stop += 1
        if stop - start > 1:
            group = sorted(order[start:stop], key=lambda j: _anchor_index(vecs[:, j]))
            order[start:stop] = group
        start = stop
    idx = np.asarray(order)
    return evals[idx], vecs[:, idx]


def eigendecompose(matrix) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian matrix via Jacobi sweeps.

    Each sweep runs the rounds of _round_robin: every pair (p, q) once, in
    rounds of disjoint pairs whose rotations are applied together
    (_jacobi_round).  Sweeps stop once the off-diagonal Frobenius norm is at
    most JACOBI_TOL_FACTOR * ||A||_F.  The order depends only on the
    dimension and every step is elementwise, so decompositions of the same
    matrix agree bit-for-bit.

    Eigenvalues come out ascending; each eigenvector column carries the
    deterministic phase convention of _fix_column_phases, and degenerate
    groups are ordered by the index of their largest-modulus component.
    The result also records the sweep count and the final residual.

    Raises:
        ValueError: non-Hermitian input.
        ConvergenceError: sweep cap reached before the residual target.
    """
    m = require_hermitian(matrix)
    n = m.shape[0]
    av = np.empty((2 * n, n), dtype=np.complex128)
    a, v = av[:n], av[n:]
    # symmetrize the sub-tolerance defect so rotations see an exact Hermitian
    a[:] = 0.5 * (m + m.conj().T)
    v[:] = np.eye(n)
    target = JACOBI_TOL_FACTOR * float(np.linalg.norm(a))
    residual = _offdiag_norm(a)
    sweeps = 0
    while residual > target:
        if sweeps >= JACOBI_MAX_SWEEPS:
            raise ConvergenceError(residual, sweeps)
        for round_ in _round_robin(n):
            _jacobi_round(av, *round_)
        sweeps += 1
        residual = _offdiag_norm(a)
    evals = a.diagonal().real.copy()
    order = np.argsort(evals, kind="stable")
    evals = evals[order]
    vecs = _fix_column_phases(v[:, order])
    evals, vecs = _order_degenerate(evals, vecs)
    evals.setflags(write=False)
    vecs.setflags(write=False)
    return SpectralDecomposition(evals, vecs, sweeps, residual)


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
    if not (isinstance(t, (int, float)) and math.isfinite(t)):
        raise ValueError(f"t must be a finite real, got {t!r}")
    spec = (
        hamiltonian
        if isinstance(hamiltonian, SpectralDecomposition)
        else eigendecompose(hamiltonian)
    )
    phases = _phases(spec.eigenvalues, [float(t)], hbar)[:, 0]
    return (spec.eigenvectors * phases) @ spec.eigenvectors.conj().T
