"""Two-level precession model: presets, analytic formulas, tick/tock clock."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qubit_oracles import (
    analytic_energy_spread,
    analytic_mt_delta_t,
    analytic_sx_mean,
    analytic_sx_rate,
    analytic_sx_std,
)
from quncert import (
    FIGURE_PRESETS,
    QubitPreset,
    Scenario,
    SeriesStats,
    TimeGrid,
    Trajectory,
    evolve,
    mt_series,
    pauli,
    qubit_scenario,
    spin_projectors,
    stats,
    tick_tock,
)

# a preset with genuinely complex interference terms, for the phase branches
TWISTED = QubitPreset(
    omega=2.0,
    alpha1=math.sqrt(0.7) * complex(math.cos(0.6), math.sin(0.6)),
    alpha2=math.sqrt(0.3) * complex(math.cos(-1.1), math.sin(-1.1)),
)

CLOCK_PRESETS = ["fig2B", "fig2C", "fig2D", "fig3AB", "fig3CD"]
SQ = math.sqrt(0.5)


def test_pauli_and_projectors():
    for axis in "xyz":
        sigma = pauli(axis)
        assert np.abs(sigma @ sigma - np.eye(2)).max() < 1e-15
        plus, minus = spin_projectors(axis)
        assert np.abs(plus + minus - np.eye(2)).max() < 1e-15
        assert np.abs(plus @ plus - plus).max() < 1e-15
        assert np.abs(plus @ minus).max() < 1e-15
    with pytest.raises(ValueError):
        pauli("w")


def test_preset_validation():
    with pytest.raises(ValueError, match="omega"):
        QubitPreset(omega=0.0, alpha1=1.0, alpha2=0.0)
    with pytest.raises(ValueError, match="normalized"):
        QubitPreset(omega=1.0, alpha1=1.0, alpha2=1.0)
    with pytest.raises(ValueError, match="hbar"):
        QubitPreset(omega=1.0, alpha1=1.0, alpha2=0.0, hbar=-1.0)


def test_preset_hamiltonian_and_state():
    p = FIGURE_PRESETS["fig2C"]
    np.testing.assert_allclose(p.hamiltonian(), 0.5 * pauli("z"), atol=0)
    assert np.linalg.norm(p.state()) == pytest.approx(1.0, abs=1e-12)
    assert p.coherence == pytest.approx(2.0 * math.sqrt(5.0 / 36.0), abs=1e-14)


def test_scenario_defaults():
    scenario = qubit_scenario(FIGURE_PRESETS["fig2B"])
    assert set(scenario.observables) == {"sx", "proj_up_x", "proj_down_x"}
    assert scenario.time_grid.stop == pytest.approx(4.0 * math.pi)
    assert scenario.time_grid.steps == 1000


@pytest.mark.parametrize("name", ["fig1B", "fig2C", "fig3CD"])
def test_analytic_formulas_match_pipeline(name):
    """Closed forms against the generic evolve route at every grid point."""
    p = FIGURE_PRESETS[name]
    trajectory = evolve(qubit_scenario(p))
    ts = trajectory.times
    np.testing.assert_allclose(
        trajectory.observables["sx"].mean, analytic_sx_mean(p, ts), atol=1e-10
    )
    np.testing.assert_allclose(
        trajectory.observables["sx"].stddev, analytic_sx_std(p, ts), atol=1e-10
    )
    assert trajectory.energy.stddev[0] == pytest.approx(
        analytic_energy_spread(p), abs=1e-12
    )


def test_twisted_preset_interference_terms():
    """Complex amplitudes shift the precession phase; both routes agree."""
    trajectory = evolve(qubit_scenario(TWISTED))
    ts = trajectory.times
    np.testing.assert_allclose(
        trajectory.observables["sx"].mean, analytic_sx_mean(TWISTED, ts), atol=1e-10
    )
    cross = TWISTED.alpha1 * np.conj(TWISTED.alpha2)
    assert analytic_sx_mean(TWISTED, 0.0) == pytest.approx(
        2.0 * cross.real, abs=1e-14
    )
    # rate at t = 0 picks up the imaginary part
    assert analytic_sx_rate(TWISTED, 0.0) == pytest.approx(
        2.0 * TWISTED.omega * cross.imag, abs=1e-14
    )


def test_analytic_mt_matches_series():
    p = FIGURE_PRESETS["fig3AB"]
    scenario = qubit_scenario(p)
    series = mt_series(pauli("x"), scenario)
    expected = analytic_mt_delta_t(p, scenario.time_grid.times())
    got = np.array([s.delta_t for s in series])
    finite = np.isfinite(expected)
    np.testing.assert_allclose(got[finite], expected[finite], atol=1e-10)
    assert np.array_equal(np.isfinite(got), finite)


def test_analytic_mt_rejects_static_clock():
    with pytest.raises(ValueError, match="static"):
        analytic_mt_delta_t(FIGURE_PRESETS["fig1A"], 0.5)


def test_energy_spread_against_stats():
    for name in ("fig2B", "fig3CD"):
        p = FIGURE_PRESETS[name]
        assert analytic_energy_spread(p) == pytest.approx(
            stats(p.hamiltonian(), p.state()).stddev, abs=1e-14
        )
    assert analytic_energy_spread(TWISTED) == pytest.approx(
        stats(TWISTED.hamiltonian(), TWISTED.state()).stddev, abs=1e-14
    )


@pytest.mark.parametrize("name", CLOCK_PRESETS)
def test_tick_tock_half_period_product(name):
    """delta_E * delta_t lands on h/2 = pi hbar to a part in 1e6."""
    p = FIGURE_PRESETS[name]
    trajectory = evolve(qubit_scenario(p))
    report = tick_tock(trajectory, "sx")
    assert report.delta_t == pytest.approx(math.pi / p.omega, rel=1e-6)
    assert report.delta_e == pytest.approx(p.hbar * p.omega, abs=1e-12)
    assert report.product == pytest.approx(math.pi * p.hbar, rel=1e-6)


def test_clock_rate_reads_the_populated_levels():
    """H = diag(0, 1, 5) with psi on the lower pair: the clock ticks across
    the one gap the state populates, so delta_E is 1, not E_max - E_min = 5,
    and delta_E * delta_t is pi."""
    sx = np.zeros((3, 3))
    sx[:2, :2] = pauli("x").real
    s = Scenario(
        1.0, np.diag([0.0, 1.0, 5.0]), np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0),
        TimeGrid(0.0, 20.0, 4000), {"sx": sx},
    )
    report = tick_tock(evolve(s), "sx")
    assert report.delta_e == 1.0
    assert report.product == pytest.approx(math.pi, rel=1e-6)


def test_tick_tock_extrema_alternate_and_refine():
    trajectory = evolve(qubit_scenario(FIGURE_PRESETS["fig2D"]))
    report = tick_tock(trajectory, "sx")
    kinds = [kind for _, kind in report.extrema]
    assert kinds == ["tock", "tick", "tock"]
    for (t, _), expected in zip(report.extrema, (math.pi, 2 * math.pi, 3 * math.pi)):
        assert t == pytest.approx(expected, abs=1e-6)


def test_tick_tock_twisted_phase_offset():
    """Extrema shift to (phase + k pi) / omega for complex amplitudes."""
    trajectory = evolve(qubit_scenario(TWISTED))
    report = tick_tock(trajectory, "sx")
    cross = TWISTED.alpha1 * np.conj(TWISTED.alpha2)
    phase = math.atan2(cross.imag, cross.real)
    for t, _ in report.extrema:
        distance = abs(t * TWISTED.omega - phase) % math.pi
        assert min(distance, math.pi - distance) < 1e-6
    assert report.delta_t == pytest.approx(math.pi / TWISTED.omega, rel=1e-6)


def test_tick_tock_two_sample_plateaus_give_their_midpoints():
    """A vertex midway between two grid points leaves two equal samples; the
    extremum lands midway between them, at a maximum and at a minimum."""
    y = np.array([0.0, 1.0, 2.0, 2.0, 1.0, 0.0, -1.0, -1.0, 0.0, 1.0, 2.0, 1.0, 0.0])
    times = 0.5 * np.arange(y.size)
    flat = np.zeros_like(y)
    trajectory = Trajectory(
        times, {"sx": SeriesStats(y, flat, flat)}, SeriesStats(flat, flat, flat),
        flat, flat, None, 1.0,
    )
    report = tick_tock(trajectory, "sx")
    assert report.extrema == [(1.25, "tick"), (3.25, "tock"), (5.0, "tick")]


def _scalar_extrema(ts, y) -> list:
    """Reference: one scan over the first differences, skipping exact zeros,
    with a parabola through each turning point's three samples."""
    step = ts[1] - ts[0]
    signs = np.sign(np.diff(y))
    extrema = []
    prev = -1  # index of the last nonzero first difference
    for i, s in enumerate(signs):
        if s == 0.0:
            continue
        if prev >= 0 and signs[prev] * s < 0:
            j = prev + 1
            denom = y[j - 1] - 2.0 * y[j] + y[j + 1]
            offset = 0.0 if denom == 0.0 else 0.5 * step * (y[j - 1] - y[j + 1]) / denom
            extrema.append((float(ts[j] + offset), "tick" if signs[prev] > 0 else "tock"))
        prev = i
    return extrema


@pytest.mark.parametrize("seed", range(8))
def test_tick_tock_extrema_match_the_scalar_scan_on_plateaus(seed):
    """Quantized sinusoids hold runs of exact-zero differences at and away
    from their turning points; each extremum keeps the scalar scan's bits."""
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, rng.uniform(20.0, 40.0), int(rng.integers(200, 600)))
    levels = int(rng.integers(2, 6))
    y = np.round(levels * np.sin(rng.uniform(0.5, 2.0) * times + rng.uniform(0.0, 6.3))) / levels
    assert np.any(np.diff(y) == 0.0)
    flat = np.zeros_like(y)
    trajectory = Trajectory(
        times, {"sx": SeriesStats(y, flat, flat)}, SeriesStats(flat, flat, flat),
        flat, flat, None, 1.0,
    )
    expected = _scalar_extrema(times, y)
    extrema = tick_tock(trajectory, "sx").extrema
    assert [kind for _, kind in extrema] == [kind for _, kind in expected]
    assert np.array([t for t, _ in extrema]).tobytes() == np.array([t for t, _ in expected]).tobytes()


@pytest.mark.parametrize(
    "preset",
    [
        QubitPreset(omega=2.0, alpha1=0.6, alpha2=0.8, hbar=0.5),
        QubitPreset(omega=0.3, alpha1=SQ, alpha2=SQ, hbar=7.0),
        QubitPreset(omega=2.0 * math.pi * 5e9, alpha1=SQ, alpha2=SQ, hbar=1.054571817e-34),
    ],
)
def test_scenario_grid_spans_two_precession_periods(preset):
    """The grid is default_time_grid's, 4 pi hbar / (hbar omega), to the bit."""
    grid = qubit_scenario(preset).time_grid
    assert grid.stop == 4.0 * math.pi * preset.hbar / (preset.hbar * preset.omega)


def test_tick_tock_errors():
    trajectory = evolve(qubit_scenario(FIGURE_PRESETS["fig2A"]))
    with pytest.raises(ValueError, match="no clock signal"):
        tick_tock(trajectory, "sx")
    with pytest.raises(ValueError, match="no observable"):
        tick_tock(trajectory, "sy")


def test_tick_tock_needs_enough_extrema():
    # just over half a period: only one interior extremum in view
    scenario = replace(
        qubit_scenario(FIGURE_PRESETS["fig2D"], steps=200),
        time_grid=TimeGrid(0.0, math.pi * 1.2, 200),
    )
    with pytest.raises(ValueError, match="at least 3 extrema"):
        tick_tock(evolve(scenario), "sx")
