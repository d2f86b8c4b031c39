"""Statistics of Hermitian observables on pure states.

Expectation values, variances and standard deviations, plus the l1-type
coherence of a state over an energy eigenbasis and its predictability
complement.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import hilbert


class StatSummary(NamedTuple):
    """Mean, variance and standard deviation of one observable on one state."""

    mean: float
    variance: float
    stddev: float


class CoherenceSummary(NamedTuple):
    """l1 coherence over a basis, its predictability complement, and the dim."""

    coherence: float
    predictability: float
    basis_dim: int


def _means(matrix: np.ndarray, states: np.ndarray):
    """Means and A psi of matrices on columns of states.

    ``matrix`` is (..., d, d) and ``states`` (..., d, T), leading axes
    broadcasting.  Nothing is validated: the callers pass Hermitian
    matrices, so the imaginary part of each mean is rounding and is dropped.
    """
    a_states = matrix @ states
    return np.vecdot(states, a_states, axis=-2).real, a_states


def _moments(matrix: np.ndarray, states: np.ndarray):
    """Means, shifted variances and A psi, with the means of _means."""
    means, a_states = _means(matrix, states)
    residuals = a_states - states * means[..., None, :]
    variances = np.vecdot(residuals, residuals, axis=-2).real
    return means, variances, a_states


def stats(observable, state) -> StatSummary:
    """Mean, variance <A^2> - <A>^2, and stddev of an observable on a state.

    The variance is evaluated in the shifted form ||(A - <A>) psi||^2, which
    is the same quantity but stays nonnegative and keeps full accuracy when
    the state is close to an eigenstate (the raw difference of second and
    squared first moments cancels catastrophically there).
    """
    a = hilbert.require_hermitian(observable, "observable")
    psi = hilbert.as_state(state)
    if a.shape[0] != psi.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {psi.shape[0]}")
    means, variances, _ = _moments(a, psi[:, None])
    variance = float(variances[0])
    return StatSummary(float(means[0]), variance, math.sqrt(variance))


def _coherence_columns(mods: np.ndarray):
    """Coherence and predictability of each column of amplitude moduli (n, T).

    C = (1/(n-1)) * sum_{i != j} |a_i| |a_j|  (ordered pairs, so the qubit
    case reduces to 2|a_1||a_2|), clipped at zero, and P = sqrt(1 - C^2).
    """
    n = mods.shape[0]
    coherence = (mods.sum(axis=0) ** 2 - (mods**2).sum(axis=0)) / (n - 1)
    coherence = np.clip(coherence, 0.0, None)
    if n == 2:
        # 1 - C^2 factors exactly as (p_1 - p_2)^2 for two levels, which
        # sidesteps the steep sqrt near C = 1 where cancellation in 1 - C^2
        # would otherwise blow rounding noise up to ~1e-8.
        predictability = np.abs(mods[0] ** 2 - mods[1] ** 2)
    else:
        predictability = np.sqrt(np.clip(1.0 - coherence**2, 0.0, None))
    return coherence, predictability


def coherence_from_amplitudes(amplitudes) -> CoherenceSummary:
    """Coherence of a normalized amplitude vector over its own basis."""
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if amps.ndim != 1 or amps.size < 2:
        raise ValueError("coherence needs an amplitude vector of dimension >= 2")
    mods = np.abs(hilbert.as_state(amps, "amplitude vector"))
    coherence, predictability = _coherence_columns(mods[:, None])
    if coherence[0] > 1.0 + 1e-12:
        raise ValueError(f"coherence {coherence[0]!r} exceeds 1 beyond rounding")
    return CoherenceSummary(float(coherence[0]), float(predictability[0]), amps.size)
