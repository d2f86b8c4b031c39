"""Eigensolver and propagator tests.

numpy.linalg.eigh serves as the independent oracle for spectra; the solver
under test must reproduce its eigenvalues and satisfy reconstruction,
orthonormality, the column phase convention, and bit-for-bit determinism.
"""

import math

import numpy as np
import pytest

from conftest import random_hermitian, random_state
from quncert import hilbert
from quncert import (
    ConvergenceError,
    commutator,
    eigendecompose,
    hermitian_defect,
    propagator,
    require_hermitian,
)

RECON_TOL = 1e-12


# 7 and 25 run with a dummy index in each round; 24 is the benchmark dimension
@pytest.mark.parametrize("dim", [2, 3, 4, 5, 7, 8, 24, 25])
def test_eigendecompose_matches_eigh_oracle(dim):
    rng = np.random.default_rng(dim)
    a = random_hermitian(rng, dim)
    spec = eigendecompose(a)
    oracle = np.linalg.eigvalsh(a)
    np.testing.assert_allclose(spec.eigenvalues, oracle, rtol=0, atol=1e-13)


def test_eigendecompose_hundred_seeds():
    """Eigenvalue agreement with the oracle across seeds and dims 2-8."""
    for seed in range(100):
        dim = 2 + seed % 7
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, dim)
        spec = eigendecompose(a)
        scale = max(1.0, float(np.abs(spec.eigenvalues).max()))
        np.testing.assert_allclose(
            spec.eigenvalues, np.linalg.eigvalsh(a), rtol=0, atol=1e-13 * scale
        )
        assert np.all(np.diff(spec.eigenvalues) >= 0.0)


@pytest.mark.parametrize("dim", [2, 3, 5, 7, 8, 24, 25])
def test_reconstruction_and_orthonormality(dim):
    rng = np.random.default_rng(100 + dim)
    a = random_hermitian(rng, dim)
    spec = eigendecompose(a)
    v = spec.eigenvectors
    rebuilt = (v * spec.eigenvalues) @ v.conj().T
    scale = float(np.linalg.norm(a))
    assert np.abs(rebuilt - a).max() < RECON_TOL * max(1.0, scale)
    gram = v.conj().T @ v
    assert np.abs(gram - np.eye(dim)).max() < RECON_TOL


def test_known_spectra():
    # analytic spectra: shifted sigma_x, sigma_y, and the 3x3 Laplacian stencil
    np.testing.assert_allclose(
        eigendecompose([[2.0, 1.0], [1.0, 2.0]]).eigenvalues, [1.0, 3.0], atol=1e-14
    )
    np.testing.assert_allclose(
        eigendecompose([[0, -1j], [1j, 0]]).eigenvalues, [-1.0, 1.0], atol=1e-14
    )
    stencil = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    expected = [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)]
    np.testing.assert_allclose(
        eigendecompose(stencil).eigenvalues, expected, atol=1e-14
    )


@pytest.mark.parametrize("dim", range(2, 10))
def test_round_robin_rounds_cover_every_pair_once(dim):
    seen = []
    for pivots, order, inverse, qp in hilbert._round_robin(dim):
        m = qp.size // 2
        p, q = order[:m], order[m : 2 * m]
        assert len(set(order[: 2 * m].tolist())) == 2 * m  # disjoint pairs
        assert np.all(p < q)
        seen += list(zip(p.tolist(), q.tolist()))
    assert sorted(seen) == [(p, q) for p in range(dim) for q in range(p + 1, dim)]


@pytest.mark.parametrize("dim", range(2, 10))
def test_stack_rounds_gather_and_restore_the_columns(dim):
    """The index arrays the stacked round reads: pivot offsets, column order
    and its inverse, and (q, p)."""
    for pivots, order, inverse, qp in hilbert._round_robin(dim):
        m = qp.size // 2
        p, q = order[:m], order[m : 2 * m]
        assert pivots.tolist() == (p * dim + q).tolist() + (p * (dim + 1)).tolist() + (
            q * (dim + 1)
        ).tolist()
        assert sorted(order.tolist()) == list(range(dim))
        assert order[inverse].tolist() == list(range(dim))
        assert qp.tolist() == q.tolist() + p.tolist()


@pytest.mark.parametrize("kind", ["tridiagonal", "block_diagonal"])
def test_exact_zero_pivots_are_skipped(kind):
    """Rounds where some or all pivots are exact zeros still converge to the
    oracle spectrum, and zero blocks stay exactly zero."""
    rng = np.random.default_rng(5)
    a = random_hermitian(rng, 9)
    if kind == "tridiagonal":
        a = np.triu(np.tril(a, 1), -1)
    else:
        a = np.kron(np.eye(3), a[:3, :3])
    spec = eigendecompose(a)
    np.testing.assert_allclose(spec.eigenvalues, np.linalg.eigvalsh(a), rtol=0, atol=1e-13)
    if kind == "block_diagonal":
        v = spec.eigenvectors
        for k in range(9):
            assert np.count_nonzero(v[:, k]) <= 3


def test_diagonal_input_takes_no_sweep():
    spec = eigendecompose(np.diag([3.0, -1.0, 2.0, 0.5]))
    assert spec.sweeps == 0
    assert spec.offdiag_residual == 0.0
    np.testing.assert_array_equal(spec.eigenvalues, [-1.0, 0.5, 2.0, 3.0])


def test_solver_counters_on_random_matrix():
    a = random_hermitian(np.random.default_rng(17), 12)
    spec = eigendecompose(a)
    assert spec.sweeps >= 1
    assert spec.offdiag_residual <= hilbert.JACOBI_TOL_FACTOR * np.linalg.norm(a)


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_column_phase_convention(seed):
    """Largest-modulus component of every eigenvector is real and >= 0."""
    rng = np.random.default_rng(seed)
    spec = eigendecompose(random_hermitian(rng, 5))
    for k in range(spec.dim):
        col = spec.eigenvectors[:, k]
        anchor = int(np.argmax(np.abs(col)))
        assert abs(col[anchor].imag) < 1e-12
        assert col[anchor].real > 0.0


def test_determinism_bit_identical():
    rng = np.random.default_rng(404)
    a = random_hermitian(rng, 6)
    first = eigendecompose(a)
    second = eigendecompose(a.copy())
    assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
    assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()


def test_degenerate_group_ordering():
    """Degenerate columns come out ordered by their anchor row."""
    spec = eigendecompose(np.diag([2.0, 2.0, 1.0]))
    np.testing.assert_allclose(spec.eigenvalues, [1.0, 2.0, 2.0], atol=0)
    expected = np.zeros((3, 3))
    expected[2, 0] = expected[0, 1] = expected[1, 2] = 1.0
    np.testing.assert_allclose(spec.eigenvectors, expected, atol=1e-14)


def test_degenerate_runs_at_both_ends_are_ordered_by_anchor():
    """Each run of eigenvalues within tolerance is ordered by anchor row, the
    runs at both ends of the spectrum alike; lone eigenvalues keep their place."""
    # -2 + 1e-12 is within the tolerance 1e-12 * max|E| of -2
    evals = np.array([-2.0, -2.0, -2.0 + 1e-12, 0.5, 1.0, 3.0, 3.0])
    perm = [5, 1, 3, 6, 0, 4, 2]  # the anchor row of each column
    out_evals, out_vecs = hilbert._order_degenerate(evals, np.eye(7)[:, perm])
    expected = [1, 3, 5, 6, 0, 2, 4]
    np.testing.assert_array_equal(out_vecs, np.eye(7)[:, expected])
    np.testing.assert_array_equal(out_evals, evals[[perm.index(k) for k in expected]])


def test_degenerate_runs_of_a_rotated_matrix_are_ordered_by_anchor():
    # with this seed the sweeps leave both runs out of anchor order
    rng = np.random.default_rng(13)
    basis = np.linalg.qr(random_hermitian(rng, 7))[0]
    evals = np.array([-2.0, -2.0, -2.0, 0.5, 1.0, 3.0, 3.0])
    spec = eigendecompose((basis * evals) @ basis.conj().T)
    anchors = hilbert._anchor_indices(spec.eigenvectors)
    for run in (slice(0, 3), slice(5, 7)):
        assert np.all(np.diff(anchors[run]) >= 0)


@pytest.mark.parametrize("scale", [1.0, 1e-12, 1e-20])
def test_eigenvalues_ascend_at_any_energy_scale(scale):
    """The degenerate-group tie tolerance is relative to max|E|, so a narrow
    spectrum is not mistaken for one degenerate group and reordered."""
    a = scale * random_hermitian(np.random.default_rng(0), 4)
    spec = eigendecompose(a)
    assert np.all(np.diff(spec.eigenvalues) > 0.0)
    oracle = np.linalg.eigvalsh(a)
    np.testing.assert_allclose(spec.eigenvalues, oracle, rtol=0, atol=1e-13 * scale)


def test_degenerate_group_ordering_is_scale_free():
    small = eigendecompose(1e-20 * np.diag([2.0, 2.0, 1.0]))
    unit = eigendecompose(np.diag([2.0, 2.0, 1.0]))
    np.testing.assert_array_equal(small.eigenvectors, unit.eigenvectors)
    np.testing.assert_array_equal(small.eigenvalues, 1e-20 * unit.eigenvalues)


def test_results_are_read_only():
    spec = eigendecompose([[2.0, 1.0], [1.0, 2.0]])
    with pytest.raises(ValueError):
        spec.eigenvalues[0] = 0.0
    with pytest.raises(ValueError):
        spec.eigenvectors[0, 0] = 0.0


def test_require_hermitian_names_offender():
    bad = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"entry \(0,1\)"):
        require_hermitian(bad, "observable")
    assert hermitian_defect(bad) == pytest.approx(2.0)


def test_eigendecompose_rejects_non_square_and_non_hermitian():
    with pytest.raises(ValueError):
        eigendecompose(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eigendecompose([[0.0, 1.0], [2.0, 0.0]])


def test_convergence_cap_raises(monkeypatch):
    monkeypatch.setattr(hilbert, "JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(ConvergenceError) as err:
        eigendecompose([[2.0, 1.0], [1.0, 2.0]])
    assert err.value.sweeps == 0
    assert err.value.residual > 0.0


def _assert_same_bits(stacked, alone):
    assert stacked.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
    assert stacked.eigenvectors.tobytes() == alone.eigenvectors.tobytes()
    assert stacked.sweeps == alone.sweeps
    assert (
        np.float64(stacked.offdiag_residual).tobytes()
        == np.float64(alone.offdiag_residual).tobytes()
    )


def _stack_members(rng, dim):
    """Dense, diagonal, tridiagonal and block-diagonal members (the last
    three with exact-zero pivots), plus offset and rescaled dense copies."""
    dense = random_hermitian(rng, dim)
    other = random_hermitian(rng, dim)
    block = other.copy()
    half = dim // 2
    block[:half, half:] = 0.0
    block[half:, :half] = 0.0
    return [
        dense,
        np.diag(rng.standard_normal(dim)),
        np.triu(np.tril(other, 1), -1),
        block,
        dense + 7.3 * np.eye(dim),
        1e-3 * other,
    ]


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 24, 25])
def test_stacked_decomposition_matches_one_at_a_time(dim):
    """Each member of a lock-step stack gets the bits it gets alone."""
    rng = np.random.default_rng(300 + dim)
    members = _stack_members(rng, dim)
    stacked = hilbert._eigendecompose_stack(np.stack([require_hermitian(m) for m in members]))
    assert len(stacked) == len(members)
    for spec, matrix in zip(stacked, members):
        _assert_same_bits(spec, eigendecompose(matrix))
    if dim >= 3:
        # the members leave the stack at different sweeps
        assert len({spec.sweeps for spec in stacked}) > 1


def test_stacked_decomposition_mixed_seeds():
    """Members that converge at different sweeps, in every order."""
    for seed in range(12):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 6
        members = [random_hermitian(rng, dim) * 10.0 ** rng.integers(-3, 4) for _ in range(4)]
        members[seed % 4] = np.diag(np.diag(members[seed % 4]).real)
        stacked = hilbert._eigendecompose_stack(np.stack([require_hermitian(m) for m in members]))
        for spec, matrix in zip(stacked, members):
            _assert_same_bits(spec, eigendecompose(matrix))


def test_all_diagonal_stack_takes_no_sweep():
    members = np.stack([np.diag([3.0, -1.0, 2.0]), np.diag([0.5, 0.5, -4.0])]).astype(complex)
    stacked = hilbert._eigendecompose_stack(members)
    assert [spec.sweeps for spec in stacked] == [0, 0]
    assert [spec.offdiag_residual for spec in stacked] == [0.0, 0.0]
    np.testing.assert_array_equal(stacked[0].eigenvalues, [-1.0, 2.0, 3.0])
    np.testing.assert_array_equal(stacked[1].eigenvalues, [-4.0, 0.5, 0.5])


def test_convergence_cap_raises_for_a_stack(monkeypatch):
    monkeypatch.setattr(hilbert, "JACOBI_MAX_SWEEPS", 0)
    members = np.stack([np.diag([1.0, 2.0]), [[2.0, 1.0], [1.0, 2.0]]]).astype(complex)
    with pytest.raises(ConvergenceError) as err:
        hilbert._eigendecompose_stack(members)
    assert err.value.sweeps == 0
    assert err.value.residual == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_convergence_cap_names_the_first_member_in_stack_order(monkeypatch):
    """The first member still above target at the cap raises, with the
    residual and sweep count it raises with alone."""
    rng = np.random.default_rng(41)
    members = [np.diag([1.0, 2.0, 3.0, 4.0])] + [random_hermitian(rng, 4) for _ in range(2)]
    monkeypatch.setattr(hilbert, "JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError) as alone:
        eigendecompose(members[1])
    with pytest.raises(ConvergenceError) as err:
        hilbert._eigendecompose_stack(np.stack([require_hermitian(m) for m in members]))
    assert err.value.sweeps == alone.value.sweeps == 1
    assert err.value.residual == alone.value.residual


def test_commutator():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    np.testing.assert_allclose(commutator(x, y), 2j * z, atol=1e-15)


@pytest.mark.parametrize("hbar", [1.0, 0.5])
def test_propagator_unitary_group(hbar):
    rng = np.random.default_rng(11)
    h = random_hermitian(rng, 4)
    u1 = propagator(h, 0.7, hbar=hbar)
    u2 = propagator(h, 1.9, hbar=hbar)
    u12 = propagator(h, 2.6, hbar=hbar)
    eye = np.eye(4)
    assert np.abs(u1 @ u1.conj().T - eye).max() < 1e-12
    assert np.abs(u1 @ u2 - u12).max() < 1e-12
    assert np.abs(propagator(h, 0.0, hbar=hbar) - eye).max() < 1e-13


def test_propagator_matches_eigh_route():
    """Same exponential assembled from the numpy oracle decomposition."""
    rng = np.random.default_rng(12)
    h = random_hermitian(rng, 5)
    t = 3.3
    evals, evecs = np.linalg.eigh(h)
    oracle = (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T
    assert np.abs(propagator(h, t) - oracle).max() < 1e-12


def test_propagator_offset_is_global_phase():
    rng = np.random.default_rng(13)
    h = random_hermitian(rng, 3)
    offset = 7.3
    t = 1.2
    u = propagator(h, t)
    u_shifted = propagator(h + offset * np.eye(3), t)
    assert np.abs(np.exp(-1j * offset * t) * u - u_shifted).max() < 1e-12


def test_propagator_moves_state_like_phases():
    rng = np.random.default_rng(14)
    h = random_hermitian(rng, 4)
    psi = random_state(rng, 4)
    spec = eigendecompose(h)
    t = 2.1
    direct = propagator(spec, t) @ psi
    amps = spec.eigenvectors.conj().T @ psi
    rebuilt = spec.eigenvectors @ (amps * np.exp(-1j * spec.eigenvalues * t))
    assert np.abs(direct - rebuilt).max() < 1e-13
