"""Closed-system evolution: conservation, offset invariance, Ehrenfest rates.

The qubit precession closed forms and the spectral propagator act as the
independent oracles for the generic evolve pipeline.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_hermitian, random_state
from qubit_oracles import analytic_sx_mean, analytic_sx_rate
from quncert import dynamics
from quncert.verify import check_max
from quncert import (
    FIGURE_PRESETS,
    Scenario,
    TimeGrid,
    check_conservation,
    default_time_grid,
    ehrenfest_rate,
    ehrenfest_residual,
    eigendecompose,
    evolve,
    offset_invariance_check,
    pauli,
    propagator,
    qubit_scenario,
)

OFFSETS = (-5.0, 0.5, 7.3)


def random_scenario(seed: int, dim: int, steps: int = 200) -> Scenario:
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, dim)
    return Scenario(
        hbar=1.0,
        hamiltonian=h,
        initial_state=random_state(rng, dim),
        time_grid=default_time_grid(h, steps=steps),
        observables={"probe": random_hermitian(rng, dim)},
    )


def test_time_grid_validation():
    with pytest.raises(ValueError, match="steps must be >= 2"):
        TimeGrid(0.0, 1.0, 1)
    with pytest.raises(ValueError, match="stop must exceed start"):
        TimeGrid(1.0, 1.0, 10)
    with pytest.raises(ValueError, match="finite"):
        TimeGrid(0.0, math.inf, 10)
    grid = TimeGrid(0.0, 2.0, 5)
    np.testing.assert_allclose(grid.times(), [0.0, 0.5, 1.0, 1.5, 2.0], atol=0)
    assert grid.step == pytest.approx(0.5)


def test_scenario_validation():
    h = pauli("z")
    grid = TimeGrid(0.0, 1.0, 4)
    ok = dict(hbar=1.0, hamiltonian=h, initial_state=[1.0, 0.0], time_grid=grid)
    with pytest.raises(ValueError, match="reserved"):
        Scenario(**ok, observables={"energy": pauli("x")})
    with pytest.raises(ValueError, match="not an identifier"):
        Scenario(**ok, observables={"bad name": pauli("x")})
    with pytest.raises(ValueError, match="hbar"):
        Scenario(**{**ok, "hbar": 0.0}, observables={})
    with pytest.raises(ValueError, match="normalized"):
        Scenario(**{**ok, "initial_state": [1.0, 1.0]}, observables={})
    with pytest.raises(ValueError, match="dimension >= 2"):
        Scenario(
            hbar=1.0,
            hamiltonian=np.eye(1),
            initial_state=[1.0],
            time_grid=grid,
            observables={},
        )


def test_scenario_arrays_are_read_only_copies():
    rng = np.random.default_rng(21)
    h = random_hermitian(rng, 4)
    probe = random_hermitian(rng, 4)
    s = Scenario(
        hbar=1.0,
        hamiltonian=h,
        initial_state=random_state(rng, 4),
        time_grid=TimeGrid(0.0, 1.0, 8),
        observables={"probe": probe},
    )
    assert s.hamiltonian is not h
    before_h = h.copy()
    h[0, 0] += 1.0
    probe[1, 1] += 1.0
    # the lazily computed spectrum is that of H as it was at construction
    assert np.array_equal(s.hamiltonian, before_h)
    assert np.array_equal(s.spectrum.eigenvalues, eigendecompose(before_h).eigenvalues)
    assert s.observables["probe"][1, 1] != probe[1, 1]
    arrays = [s.hamiltonian, s.initial_state, s.amplitudes, *s.observables.values()]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_scenario_observables_are_read_only():
    s = random_scenario(24, 3)
    with pytest.raises(TypeError):
        s.observables["extra"] = np.eye(3)
    assert list(s.observables) == ["probe"]
    shifted = replace(s, hamiltonian=dynamics._shift(s.hamiltonian, 0.5))
    assert list(shifted.observables) == ["probe"]
    assert np.array_equal(shifted.observables["probe"], s.observables["probe"])
    with pytest.raises(TypeError):
        shifted.observables["extra"] = np.eye(3)
    trajectory = evolve(shifted)
    assert list(trajectory.observables) == ["probe"]


def test_scenario_spectrum_is_cached():
    s = random_scenario(22, 5)
    assert s.spectrum is s.spectrum
    assert s.amplitudes is s.amplitudes
    fresh = eigendecompose(s.hamiltonian)
    assert np.array_equal(s.spectrum.eigenvalues, fresh.eigenvalues)
    assert np.array_equal(s.spectrum.eigenvectors, fresh.eigenvectors)
    assert np.array_equal(s.amplitudes, fresh.eigenvectors.conj().T @ s.initial_state)


def test_replaced_scenario_decomposes_its_own_hamiltonian():
    s = random_scenario(23, 5)
    base = s.spectrum
    shifted = replace(s, hamiltonian=dynamics._shift(s.hamiltonian, 7.3))
    assert shifted.spectrum is not base
    np.testing.assert_allclose(
        shifted.spectrum.eigenvalues, base.eigenvalues + 7.3, rtol=0, atol=1e-12
    )
    assert s.spectrum is base


def test_default_time_grid_spans_two_periods():
    grid = default_time_grid(pauli("z"), steps=100)
    assert grid.start == 0.0
    assert grid.stop == pytest.approx(4.0 * math.pi / 2.0)
    degenerate = default_time_grid(np.eye(3), steps=100)
    assert degenerate.stop == pytest.approx(4.0 * math.pi)


@pytest.mark.parametrize("name", ["fig2B", "fig2D", "fig3CD"])
def test_evolve_matches_precession_closed_form(name):
    p = FIGURE_PRESETS[name]
    trajectory = evolve(qubit_scenario(p))
    expected = analytic_sx_mean(p, trajectory.times)
    np.testing.assert_allclose(
        trajectory.observables["sx"].mean, expected, rtol=0, atol=1e-12
    )
    # projector populations stay constant at the initial weights
    up = trajectory.observables["proj_up_x"].mean
    down = trajectory.observables["proj_down_x"].mean
    np.testing.assert_allclose(up + down, 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(up - down, expected, rtol=0, atol=1e-12)


def test_evolve_states_match_propagator_route():
    scenario = random_scenario(5, 4, steps=40)
    trajectory = evolve(scenario, store_states=True)
    for k in (0, 13, 39):
        t = float(trajectory.times[k])
        oracle = propagator(scenario.hamiltonian, t) @ scenario.initial_state
        assert np.abs(trajectory.states[:, k] - oracle).max() < 1e-12


def test_evolve_without_state_storage():
    trajectory = evolve(random_scenario(6, 3), store_states=False)
    assert trajectory.states is None
    assert trajectory.energy.mean.shape == (200,)


@pytest.mark.parametrize("name", sorted(FIGURE_PRESETS))
def test_conservation_on_presets(name):
    report = check_conservation(evolve(qubit_scenario(FIGURE_PRESETS[name])))
    assert report.passed, report.drifts
    assert report.max_drift < 1e-10


@pytest.mark.parametrize("seed,dim", [(0, 2), (1, 3), (2, 4), (3, 5), (4, 6)])
def test_conservation_on_random_scenarios(seed, dim):
    report = check_conservation(evolve(random_scenario(seed, dim, steps=500)))
    assert report.passed, report.drifts


def _flat_trajectory(energy_mean) -> dynamics.Trajectory:
    """Two samples of one constant state, with the given energy means."""
    flat = np.zeros(2)
    energy = dynamics.SeriesStats(np.asarray(energy_mean, dtype=float), flat, flat)
    states = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    return dynamics.Trajectory(np.array([0.0, 1.0]), {}, energy, flat, flat, states, 1.0)


def test_conservation_passes_at_its_tolerance():
    """A drift equal to the tolerance passes, in the library and in the
    report's inclusive check_max alike."""
    report = check_conservation(_flat_trajectory([0.0, dynamics.CONSERVATION_TOL]))
    assert report.max_drift == report.tolerance
    assert report.passed
    assert check_max("c", report.max_drift, report.tolerance).verdict == "pass"


def test_offset_invariance_passes_at_its_tolerance():
    """An energy-shift defect equal to the tolerance passes, as in check_max."""
    base = _flat_trajectory([0.0, 0.0])
    shifted = _flat_trajectory([0.0, dynamics.OFFSET_TOL])
    report = dynamics._offset_report(base, shifted, 0.0)
    assert report.max_energy_shift_defect == report.tolerance
    assert report.passed
    assert check_max("o", report.max_energy_shift_defect, report.tolerance).verdict == "pass"


@pytest.mark.parametrize("offset", OFFSETS)
def test_offset_invariance_qubit(offset):
    """Shifting H by a multiple of the identity changes nothing observable."""
    (report,) = offset_invariance_check(
        qubit_scenario(FIGURE_PRESETS["fig2C"]), [offset]
    )
    assert report.passed
    assert report.max_observable_diff < 1e-10
    assert report.max_phase_defect < 1e-10
    assert report.max_energy_shift_defect < 1e-10


def test_offset_invariance_random():
    (report,) = offset_invariance_check(random_scenario(9, 5), [7.3])
    assert report.passed


def test_offset_invariance_evolves_the_base_once(monkeypatch):
    """One base trajectory, then one trajectory per offset."""
    calls = []

    def counting(scenario, store_states=True):
        calls.append(scenario)
        return evolve(scenario, store_states)

    monkeypatch.setattr(dynamics, "evolve", counting)
    s = random_scenario(9, 5)
    reports = offset_invariance_check(s, OFFSETS)
    assert len(calls) == 1 + len(OFFSETS)
    assert calls[0] is s
    assert [r.offset for r in reports] == list(OFFSETS)


def test_offset_invariance_stack_matches_single_offsets(monkeypatch):
    """Decomposing the base and shifted Hamiltonians together changes no bit
    of any report, and each spectrum is that of its own H or H + E0 * I."""
    s = random_scenario(9, 5)
    alone = eigendecompose(s.hamiltonian)
    evolved = []

    def recording(scenario, store_states=True):
        evolved.append(scenario)
        return evolve(scenario, store_states)

    with monkeypatch.context() as m:
        # the undecomposed base joins the stack instead of decomposing alone
        m.setattr(dynamics, "eigendecompose", None)
        m.setattr(dynamics, "evolve", recording)
        together = offset_invariance_check(s, OFFSETS)
    assert s.spectrum.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
    assert s.spectrum.eigenvectors.tobytes() == alone.eigenvectors.tobytes()
    assert together == [offset_invariance_check(s, [e0])[0] for e0 in OFFSETS]
    assert evolved[0] is s and len(evolved) == 1 + len(OFFSETS)
    for e0, shifted in zip(OFFSETS, evolved[1:]):
        alone = eigendecompose(dynamics._shift(s.hamiltonian, e0))
        assert shifted.spectrum.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
        assert shifted.spectrum.eigenvectors.tobytes() == alone.eigenvectors.tobytes()
    assert offset_invariance_check(s, []) == []


def test_shift_hamiltonian():
    """The offset check shifts H by E0 * identity and refuses a non-finite E0."""
    shifted = dynamics._shift(pauli("z"), 2.0)
    np.testing.assert_allclose(shifted, [[3.0, 0.0], [0.0, 1.0]], atol=0)
    with pytest.raises(ValueError, match="finite real"):
        offset_invariance_check(qubit_scenario(FIGURE_PRESETS["fig2D"]), [math.nan])


def test_energy_amplitudes_roundtrip():
    scenario = random_scenario(10, 4)
    rebuilt = scenario.spectrum.eigenvectors @ scenario.amplitudes
    assert np.abs(rebuilt - scenario.initial_state).max() < 1e-13


def test_ehrenfest_rate_closed_form():
    p = FIGURE_PRESETS["fig2C"]
    scenario = qubit_scenario(p)
    spec = eigendecompose(scenario.hamiltonian)
    for t in (0.3, 1.1, 2.8):
        psi = propagator(spec, t) @ scenario.initial_state
        rate = ehrenfest_rate(pauli("x"), scenario.hamiltonian, psi, scenario.hbar)
        assert rate == pytest.approx(float(analytic_sx_rate(p, t)), abs=1e-12)


def test_ehrenfest_rate_rejects_non_hermitian():
    lopsided = np.array([[0.0, 1.0], [0.0, 0.0]])
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    with pytest.raises(ValueError, match="not Hermitian"):
        ehrenfest_rate(lopsided, pauli("z"), plus, 1.0)


def test_ehrenfest_residual_second_order():
    """Centered-difference defect is O(fd_step^2) against the exact rate."""
    scenario = qubit_scenario(FIGURE_PRESETS["fig2D"])
    sx = pauli("x")
    probes = (0.4, 1.3, 2.9, 4.6)
    coarse = [ehrenfest_residual(sx, scenario, t, fd_step=1e-4) for t in probes]
    fine = [ehrenfest_residual(sx, scenario, t, fd_step=5e-5) for t in probes]
    assert max(coarse) < 1e-8
    for c, f in zip(coarse, fine):
        assert 3.5 < c / f < 4.5


def test_ehrenfest_residual_default_step_commuting_observable():
    """[H, H] = 0: the energy series is flat and the residual is noise-level."""
    scenario = qubit_scenario(FIGURE_PRESETS["fig2D"], observables={"sz": pauli("z")})
    assert ehrenfest_residual(pauli("z"), scenario, 1.0) < 1e-10
    with pytest.raises(ValueError, match="fd_step"):
        ehrenfest_residual(pauli("z"), scenario, 1.0, fd_step=0.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, "1.0"])
def test_ehrenfest_residual_rejects_a_time_that_is_not_a_finite_real(t):
    scenario = qubit_scenario(FIGURE_PRESETS["fig2D"])
    with pytest.raises(ValueError, match="finite real"):
        ehrenfest_residual(pauli("x"), scenario, t, 1e-4)


def test_trajectory_carries_grid_metadata():
    scenario = qubit_scenario(FIGURE_PRESETS["fig2B"], steps=64)
    trajectory = evolve(scenario)
    assert trajectory.times.shape == (64,)
    assert trajectory.times[-1] == scenario.time_grid.stop
    assert trajectory.energy_span == pytest.approx(1.0)
