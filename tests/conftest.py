"""Shared random-input and scenario builders for the test suite.

Everything is seeded through numpy's default_rng so reruns are reproducible;
individual tests pick their own seeds.
"""

import numpy as np

from quncert import Scenario, TimeGrid


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Dense Hermitian matrix with O(1) entries."""
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (raw + raw.conj().T) / (2.0 * np.sqrt(dim))


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return raw / np.linalg.norm(raw)


def rotated(hamiltonian, state, seed: int = 3):
    """H and a state in the eigenbasis of a seeded Gaussian Hermitian matrix."""
    u = np.linalg.eigh(random_hermitian(np.random.default_rng(seed), len(state)))[1]
    h = u @ np.asarray(hamiltonian) @ u.conj().T
    return 0.5 * (h + h.conj().T), u @ state


def scenario_of(hamiltonian, state, hbar: float = 1.0) -> Scenario:
    """Scenario of H and an initial state, for the analyzers that read only
    its spectrum, energy amplitudes and hbar (never its time grid).

    For H = np.diag(E) with ascending E the spectrum is E and the energy
    amplitudes are the state's own entries, so (E_k, a_k, hbar) inputs pass
    through unchanged.
    """
    return Scenario(hbar, hamiltonian, state, TimeGrid(0.0, 1.0, 2))
