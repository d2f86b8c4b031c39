"""Observable statistics and coherence tests against closed-form oracles."""

import math

import numpy as np
import pytest

from conftest import random_state
from quncert import (
    FIGURE_PRESETS,
    Scenario,
    TimeGrid,
    coherence_from_amplitudes,
    evolve,
    pauli,
    stats,
)

# figure-caption coherences, three decimals
CAPTION_COHERENCE = {
    "fig1A": 0.0,
    "fig1B": 0.745,
    "fig1C": 0.943,
    "fig1D": 1.0,
    "fig2A": 0.0,
    "fig2B": 0.312,
    "fig2C": 0.745,
    "fig2D": 1.0,
    "fig3AB": 0.436,
    "fig3CD": 0.995,
}


@pytest.mark.parametrize("name", sorted(FIGURE_PRESETS))
def test_energy_expectation_closed_form(name):
    """<H> = (hbar w / 2)(|a1|^2 - |a2|^2) on the precession presets."""
    p = FIGURE_PRESETS[name]
    expected = 0.5 * p.hbar * p.omega * (abs(p.alpha1) ** 2 - abs(p.alpha2) ** 2)
    assert stats(p.hamiltonian(), p.state()).mean == pytest.approx(
        expected, abs=1e-14
    )


@pytest.mark.parametrize("name", sorted(FIGURE_PRESETS))
def test_energy_spread_closed_form(name):
    p = FIGURE_PRESETS[name]
    expected = p.hbar * p.omega * abs(p.alpha1) * abs(p.alpha2)
    assert stats(p.hamiltonian(), p.state()).stddev == pytest.approx(
        expected, abs=1e-14
    )


def test_eigenstate_variance_is_exactly_zero():
    summary = stats(pauli("z"), [1.0, 0.0])
    assert summary.mean == 1.0
    assert summary.variance == 0.0
    assert summary.stddev == 0.0


def test_sigma_x_stddev_closed_form():
    """Delta sigma_x on the evolved state |a1^2 e^{-iwt} - a2^2 e^{iwt}|."""
    p = FIGURE_PRESETS["fig2C"]
    for t in (0.0, 0.4, 1.7, 3.9):
        phase = np.exp(-0.5j * p.omega * t)
        psi = np.array([p.alpha1 * phase, p.alpha2 * np.conj(phase)])
        expected = abs(
            p.alpha1**2 * np.exp(-1j * p.omega * t)
            - p.alpha2**2 * np.exp(1j * p.omega * t)
        )
        assert stats(pauli("x"), psi).stddev == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("name,expected", sorted(CAPTION_COHERENCE.items()))
def test_caption_coherences_three_decimals(name, expected):
    summary = coherence_from_amplitudes(FIGURE_PRESETS[name].state())
    assert round(summary.coherence, 3) == expected


@pytest.mark.parametrize("name", sorted(FIGURE_PRESETS))
def test_two_level_cross_formulas(name):
    """C = 2|a1||a2| and P = ||a1|^2 - |a2|^2| on two levels."""
    p = FIGURE_PRESETS[name]
    summary = coherence_from_amplitudes(p.state())
    assert summary.basis_dim == 2
    assert summary.coherence == pytest.approx(
        2.0 * abs(p.alpha1) * abs(p.alpha2), abs=1e-14
    )
    assert summary.predictability == pytest.approx(
        abs(abs(p.alpha1) ** 2 - abs(p.alpha2) ** 2), abs=1e-14
    )
    assert summary.coherence**2 + summary.predictability**2 == pytest.approx(
        1.0, abs=1e-12
    )


def test_predictability_matches_sqrt_away_from_unit_coherence():
    rng = np.random.default_rng(3)
    for dim in (2, 3, 4, 6):
        for _ in range(50):
            summary = coherence_from_amplitudes(random_state(rng, dim))
            if summary.coherence > 1.0 - 1e-6:
                continue
            assert summary.predictability == pytest.approx(
                math.sqrt(1.0 - summary.coherence**2), abs=1e-12
            )


@pytest.mark.parametrize("dim", [2, 3, 4, 6])
def test_uniform_superposition_has_unit_coherence(dim):
    amps = np.full(dim, 1.0 / math.sqrt(dim))
    summary = coherence_from_amplitudes(amps)
    assert summary.coherence == pytest.approx(1.0, abs=1e-12)
    assert summary.predictability == pytest.approx(0.0, abs=1e-12)


def test_coherence_is_phase_invariant():
    rng = np.random.default_rng(17)
    amps = random_state(rng, 5)
    base = coherence_from_amplitudes(amps)
    twisted = amps * np.exp(1j * rng.uniform(0, 2 * math.pi, size=5))
    again = coherence_from_amplitudes(twisted)
    assert again.coherence == pytest.approx(base.coherence, abs=1e-14)
    assert again.predictability == pytest.approx(base.predictability, abs=1e-14)


def test_l1_coherence_agrees_with_amplitude_route():
    """The trajectory's coherence over H's eigenbasis, at every grid time,
    is the coherence of the initial energy amplitudes: the phases leave the
    moduli as they are, so only the rounding of the basis change differs."""
    rng = np.random.default_rng(21)
    h = np.diag([0.0, 1.0, 3.0]).astype(complex)
    h[0, 1] = h[1, 0] = 0.4
    scenario = Scenario(1.0, h, random_state(rng, 3), TimeGrid(0.0, 5.0, 40))
    trajectory = evolve(scenario)
    via_amps = coherence_from_amplitudes(scenario.amplitudes)
    np.testing.assert_allclose(trajectory.coherence, via_amps.coherence, rtol=0, atol=1e-14)
    np.testing.assert_allclose(
        trajectory.predictability, via_amps.predictability, rtol=0, atol=1e-14
    )


def test_input_validation():
    with pytest.raises(ValueError, match="not Hermitian"):
        stats([[0.0, 1.0], [0.0, 0.0]], [1.0, 0.0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        stats(np.eye(2), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="normalized"):
        stats(np.eye(2), [1.0, 1.0])
    with pytest.raises(ValueError, match="dimension >= 2"):
        coherence_from_amplitudes([1.0])
    with pytest.raises(ValueError, match="not normalized"):
        coherence_from_amplitudes([1.0, 1.0])
