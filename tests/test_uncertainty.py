"""Uncertainty relations, Mandelstam-Tamm timescales, and speed limits.

Frozen oracle values:
  - three-level equal-gap search with weights (1/2, 1/4, 1/4): the survival
    amplitude modulus never drops below sqrt(7/128) = 0.23385358667337133
    (dense scan plus derivative refinement, computed independently);
  - middle-heavy weights (1/4, 1/2, 1/4) make it vanish exactly at pi/gap.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_hermitian, random_state, scenario_of
from quncert import (
    FIGURE_PRESETS,
    InconclusiveScanError,
    QubitPreset,
    Scenario,
    default_time_grid,
    ehrenfest_rate,
    ml_bounds,
    mt_series,
    orthogonalization_time,
    pauli,
    propagator,
    qsl_tau,
    qubit_scenario,
    robertson_check,
    schrodinger_check,
    state_overlap,
    stats,
)
from quncert import dynamics, uncertainty
from quncert.cli import load_scenario
from quncert.dynamics import RATE_EPS_FACTOR
from quncert.uncertainty import DEFAULT_TOL_ORTH, HORIZON_PERIODS, REFINE_REL_TOL, _pair_bounds

THREE_LEVEL_MIN_OVERLAP = 0.23385358667337133  # sqrt(7/128)

DATA = Path(__file__).resolve().parent / "data"

UP = np.array([1.0, 0.0])


def test_robertson_pauli_pair_on_eigenstate():
    """sigma_x, sigma_y on |up_z>: both sides equal 1 exactly."""
    check = robertson_check(pauli("x"), pauli("y"), UP)
    assert check.lhs == pytest.approx(1.0, abs=1e-14)
    assert check.rhs == pytest.approx(1.0, abs=1e-14)
    assert check.satisfied


def test_schrodinger_adds_vanishing_covariance_here():
    check = schrodinger_check(pauli("x"), pauli("y"), UP)
    assert check.rhs == pytest.approx(1.0, abs=1e-14)
    assert check.satisfied


def test_commuting_pair_trivial_bound():
    check = robertson_check(pauli("z"), pauli("z"), UP)
    assert check.lhs == 0.0
    assert check.rhs == 0.0
    assert check.satisfied


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_uncertainty_fuzz(dim):
    """Both inequalities hold and Schrodinger is never the weaker bound."""
    rng = np.random.default_rng(1000 + dim)
    for _ in range(200):
        a = random_hermitian(rng, dim)
        b = random_hermitian(rng, dim)
        psi = random_state(rng, dim)
        rob = robertson_check(a, b, psi)
        sch = schrodinger_check(a, b, psi)
        assert rob.slack >= -1e-10
        assert sch.slack >= -1e-10
        assert sch.rhs >= rob.rhs


def test_stacked_pair_bounds_match_public_checks():
    rng = np.random.default_rng(2024)
    for dim in range(2, 7):
        triples = [
            (random_hermitian(rng, dim), random_hermitian(rng, dim), random_state(rng, dim))
            for _ in range(40)
        ]
        a, b, psi = (np.stack(column) for column in zip(*triples))
        product, robertson, schrodinger = _pair_bounds(a, b, psi)
        for k, triple in enumerate(triples):
            rob = robertson_check(*triple)
            sch = schrodinger_check(*triple)
            assert abs(product[k] - rob.lhs) <= 1e-12 * max(1.0, abs(rob.lhs))
            assert abs(product[k] - sch.lhs) <= 1e-12 * max(1.0, abs(sch.lhs))
            assert abs(robertson[k] - rob.rhs) <= 1e-12 * max(1.0, abs(rob.rhs))
            assert abs(schrodinger[k] - sch.rhs) <= 1e-12 * max(1.0, abs(sch.rhs))


@pytest.mark.parametrize("kind", ["generic", "commuting"])
def test_mt_series_matches_per_sample_oracle(kind):
    """Batched dim-6 series against U(t) psi0, qstat.stats and ehrenfest_rate."""
    rng = np.random.default_rng(61)
    hbar = 0.7
    h = random_hermitian(rng, 6)
    a = random_hermitian(rng, 6) if kind == "generic" else h @ h
    scenario = Scenario(
        hbar=hbar,
        hamiltonian=h,
        initial_state=random_state(rng, 6),
        time_grid=default_time_grid(h, hbar=hbar, steps=300),
    )
    spread = stats(h, scenario.initial_state).stddev
    rate_eps = RATE_EPS_FACTOR * scenario.spectrum.span * np.linalg.norm(a, 2) / hbar
    series = mt_series(a, scenario)
    assert [s.t for s in series] == scenario.time_grid.times().tolist()
    flags = 0
    for sample in series:
        psi = propagator(scenario.spectrum, sample.t, hbar) @ scenario.initial_state
        delta_a = stats(a, psi).stddev
        rate = abs(ehrenfest_rate(a, h, psi, hbar))
        assert math.isinf(sample.delta_t) == math.isinf(sample.product) == (rate <= rate_eps)
        flags += math.isinf(sample.delta_t)
        expected = [delta_a, rate]
        if rate > rate_eps:
            expected += [delta_a / rate, spread * delta_a / rate]
        got = [sample.delta_a, sample.rate, sample.delta_t, sample.product]
        for x, y in zip(expected, got):
            assert abs(x - y) <= 1e-12 * max(1.0, abs(x))
    assert flags == (len(series) if kind == "commuting" else 0)


def test_mt_balanced_qubit_constant_timescale():
    """C = 1: Delta T = 1/w and the product saturates hbar/2 away from turning
    points, where the samples carry the infinity flag instead."""
    preset = FIGURE_PRESETS["fig2D"]
    scenario = qubit_scenario(preset)
    series = mt_series(pauli("x"), scenario)
    times = scenario.time_grid.times()
    flagged = [s for s in series if math.isinf(s.delta_t)]
    finite = [s for s in series if math.isfinite(s.delta_t)]
    assert len(flagged) == 2  # the exact extrema at t = 0 and t = 4 pi
    for s in flagged:
        assert min(abs(s.t - k * math.pi) for k in range(5)) < 1e-12
    for s in finite:
        assert abs(s.delta_t - 1.0 / preset.omega) < 1e-9
        assert abs(s.product - 0.5 * scenario.hbar) < 1e-9
    assert len(finite) + len(flagged) == len(times)


@pytest.mark.parametrize("name", ["fig3AB", "fig3CD"])
def test_mt_product_floor_and_flag_placement(name):
    scenario = qubit_scenario(FIGURE_PRESETS[name])
    series = mt_series(pauli("x"), scenario)
    step = scenario.time_grid.step
    for s in series:
        if math.isfinite(s.product):
            assert s.product >= 0.5 * scenario.hbar - 1e-10
        else:
            # flags only within one grid step of a turning point of <sigma_x>
            assert min(abs(s.t - k * math.pi) for k in range(5)) <= step


def test_mt_undefined_for_energy_eigenstate():
    scenario = qubit_scenario(FIGURE_PRESETS["fig2A"])
    with pytest.raises(ValueError, match="energy eigenstates"):
        mt_series(pauli("x"), scenario)


def test_mt_static_observable_is_all_flags():
    scenario = qubit_scenario(FIGURE_PRESETS["fig2D"])
    series = mt_series(pauli("z"), scenario)
    assert all(math.isinf(s.delta_t) for s in series)


def test_state_overlap_dominant_probability_floor():
    """|<psi(0)|psi(t)>| can never drop below 2 max_k p_k - 1."""
    rng = np.random.default_rng(77)
    for dim in (2, 3, 5):
        s = scenario_of(random_hermitian(rng, dim), random_state(rng, dim))
        floor = 2.0 * float(np.max(np.abs(s.amplitudes) ** 2)) - 1.0
        ts = np.linspace(0.0, 50.0, 2001)
        moduli = np.abs(state_overlap(s, ts))
        assert float(moduli.min()) >= floor - 1e-12


def test_state_overlap_qubit_reaches_predictability():
    p = FIGURE_PRESETS["fig3AB"]
    s = qubit_scenario(p)
    ts = np.linspace(0.0, 2.0 * math.pi / p.omega, 4001)
    moduli = np.abs(state_overlap(s, ts))
    floor = abs(abs(p.alpha1) ** 2 - abs(p.alpha2) ** 2)
    assert float(moduli.min()) == pytest.approx(floor, abs=1e-9)
    assert state_overlap(s, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-14)


def test_orthogonalization_balanced_qubit_found():
    for omega in (1.0, 3.0):
        p = QubitPreset(omega=omega, alpha1=math.sqrt(0.5), alpha2=math.sqrt(0.5))
        s = qubit_scenario(p)
        result = orthogonalization_time(s)
        assert result.found
        assert result.tau_perp == pytest.approx(math.pi / omega, abs=1e-9)
        residual = abs(state_overlap(s, result.tau_perp))
        assert residual <= 1e-9


@pytest.mark.parametrize(
    "name", ["fig1A", "fig1B", "fig1C", "fig2B", "fig2C", "fig3AB", "fig3CD"]
)
def test_orthogonalization_dominant_amplitude_certificate(name):
    """max p > 1/2 short-circuits to the analytic never-orthogonal floor."""
    p = FIGURE_PRESETS[name]
    result = orthogonalization_time(qubit_scenario(p))
    assert not result.found
    assert result.kind == "never_orthogonal"
    assert result.tau_perp is None
    expected = 2.0 * max(abs(p.alpha1), abs(p.alpha2)) ** 2 - 1.0
    assert result.min_overlap_bound == pytest.approx(expected, abs=1e-12)


def test_orthogonalization_degenerate_spectrum():
    rng = np.random.default_rng(5)
    result = orthogonalization_time(scenario_of(np.eye(3), random_state(rng, 3)))
    assert not result.found
    assert result.min_overlap_bound == pytest.approx(1.0)


def _rotated(h, psi, seed=3):
    """H and psi in the eigenbasis of a seeded Gaussian Hermitian matrix."""
    u = np.linalg.eigh(random_hermitian(np.random.default_rng(seed), len(psi)))[1]
    rotated = u @ np.asarray(h) @ u.conj().T
    return 0.5 * (rotated + rotated.conj().T), u @ psi


@pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
def test_eigenstate_in_a_degenerate_level_is_certified(rotate):
    """psi = (|0> + |1>)/sqrt(2) in the doubly degenerate level of
    diag(1, 1, 3) is an energy eigenstate: the level's population, not
    either amplitude, certifies that it never turns orthogonal."""
    h, psi = np.diag([1.0, 1.0, 3.0]), np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    s = scenario_of(*(_rotated(h, psi) if rotate else (h, psi)))
    result = orthogonalization_time(s)
    assert (result.kind, result.decided_by, result.evaluations) == (
        "never_orthogonal", "certificate", 0
    )
    assert result.min_overlap_bound == pytest.approx(1.0, abs=1e-12)
    assert result.min_overlap_bound <= 1.0


@pytest.mark.parametrize("rotate", [False, True], ids=["diagonal", "rotated"])
def test_certificate_floor_never_exceeds_one(rotate):
    """With amplitudes sqrt(1/2), the level's populations sum to just above 1,
    so 2 P - 1 is 1 + 4.4e-16 on the diagonal and 1 + 1.8e-15 rotated.  No
    overlap modulus exceeds 1, and neither does the floor reported."""
    h, psi = np.diag([1.0, 1.0, 3.0]), np.array([1.0, 1.0, 0.0]) * math.sqrt(0.5)
    s = scenario_of(*(_rotated(h, psi) if rotate else (h, psi)))
    result = orthogonalization_time(s)
    assert result.decided_by == "certificate"
    assert result.min_overlap_bound == 1.0


def test_degenerate_level_certificate_is_tight():
    """Populations (0.3, 0.3) in one level and 0.4 in the other: no single
    amplitude dominates, but the level does, and |o| reaches its floor
    2 * 0.6 - 1 = 0.2 at t = pi."""
    s = scenario_of(np.diag([0.0, 0.0, 1.0]), np.sqrt([0.3, 0.3, 0.4]))
    result = orthogonalization_time(s)
    assert result.decided_by == "certificate"
    assert result.min_overlap_bound == pytest.approx(0.2, abs=1e-12)
    assert abs(state_overlap(s, math.pi)) == pytest.approx(0.2, abs=1e-12)


def test_underflowing_curvature_makes_the_search_inconclusive():
    """At hbar = 1e300, (dH / hbar)^2 underflows to 0: the state does reach
    an orthogonal one, at pi * hbar, but no step can be certified."""
    s = scenario_of(np.diag([0.0, 1.0]), np.full(2, math.sqrt(0.5)), hbar=1e300)
    with pytest.raises(InconclusiveScanError) as err:
        orthogonalization_time(s)
    assert (err.value.evaluations, err.value.decided_by) == (0, "march")


def test_orthogonalization_three_level_inconclusive():
    """Equal gaps, weights (1/2, 1/4, 1/4): no zero, no certificate."""
    s = scenario_of(np.diag([0.0, 1.0, 2.0]), np.array([math.sqrt(0.5), 0.5, 0.5]))
    with pytest.raises(InconclusiveScanError) as err:
        orthogonalization_time(s)
    assert err.value.min_observed_overlap == pytest.approx(
        THREE_LEVEL_MIN_OVERLAP, abs=1e-9
    )
    assert err.value.horizon == pytest.approx(40.0 * math.pi)


@pytest.mark.parametrize("gap", [1.0, 0.7])
def test_orthogonalization_three_level_middle_heavy(gap):
    """Weights (1/4, 1/2, 1/4) on an equal-gap ladder vanish at pi/gap."""
    s = scenario_of(np.diag([0.0, gap, 2.0 * gap]), np.array([0.5, math.sqrt(0.5), 0.5]))
    result = orthogonalization_time(s)
    assert result.found
    assert result.tau_perp == pytest.approx(math.pi / gap, abs=1e-9)


def test_refine_minima_falls_back_to_midpoint_of_unclean_bracket():
    """|o|^2 = p0^2 + p1^2 + 2 p0 p1 cos(w t): a clean bracket converges to
    pi/w; one whose left-end slope is positive returns its own midpoint."""
    probs, evals, hbar = np.array([0.6, 0.4]), np.array([-0.3, 1.1]), 1.0
    t_min = math.pi * hbar / (evals[1] - evals[0])
    lo = np.array([0.9, 1.2]) * t_min
    hi = np.array([1.1, 1.6]) * t_min
    unclean_mid = 0.5 * (lo[1] + hi[1])
    march = uncertainty._March(probs, evals, hbar, horizon=0.0)
    t_star, _ = march.refine_minima(lo, hi)
    assert abs(t_star[0] - t_min) <= REFINE_REL_TOL * max(1.0, t_min)
    assert t_star[1] == unclean_mid


def test_one_phase_convention_for_states_overlaps_and_propagators():
    """<psi0|psi(t)> from the trajectory kernel, the survival amplitude and
    the propagator agree to rounding at hbar != 1 and long times."""
    rng = np.random.default_rng(8)
    h = random_hermitian(rng, 8)
    scenario = Scenario(
        hbar=0.7,
        hamiltonian=h,
        initial_state=random_state(rng, 8),
        time_grid=default_time_grid(h, hbar=0.7),
    )
    spec, psi0 = scenario.spectrum, scenario.initial_state
    times = np.linspace(0.0, 2e4, 2001)
    from_states = psi0.conj() @ dynamics._states_at(scenario, times)
    from_overlap = state_overlap(scenario, times)
    assert np.max(np.abs(from_states - from_overlap)) <= 1e-14
    for k in range(0, times.size, 50):
        from_propagator = np.vdot(psi0, propagator(spec, times[k], 0.7) @ psi0)
        assert abs(from_propagator - from_states[k]) <= 1e-14
        assert abs(from_propagator - from_overlap[k]) <= 1e-14


def _scalar_modulus_and_slope(probs, evals, hbar, t):
    phases = np.exp(-1j * evals * (t / hbar))
    o = complex(np.dot(probs, phases))
    o_dot = complex(np.dot(probs, -1j * evals / hbar * phases))
    return abs(o), 2.0 * (o.conjugate() * o_dot).real


def _refine_minimum(probs, evals, hbar, lo, hi):
    _, slope_lo = _scalar_modulus_and_slope(probs, evals, hbar, lo)
    _, slope_hi = _scalar_modulus_and_slope(probs, evals, hbar, hi)
    if slope_lo > 0.0 or slope_hi < 0.0:
        mid = 0.5 * (lo + hi)
        return mid, _scalar_modulus_and_slope(probs, evals, hbar, mid)[0]
    tol = REFINE_REL_TOL * max(1.0, abs(hi))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        _, slope = _scalar_modulus_and_slope(probs, evals, hbar, mid)
        if slope < 0.0:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return mid, _scalar_modulus_and_slope(probs, evals, hbar, mid)[0]


def _scanned_minima(moduli):
    """Indices of the sampled interior local minima of a grid."""
    return np.nonzero((moduli[1:-1] <= moduli[:-2]) & (moduli[1:-1] <= moduli[2:]))[0] + 1


# the fixed scan the search ran before the march: 10,000 points to the horizon
ORACLE_SCAN_POINTS = 10_000
# the dense oracle for min_observed_overlap: 20 times as many points
DENSE_POINTS = 200_000


def _serial_search(scenario):
    """Reference search: one scalar bisection per scanned minimum, in time order.

    Covers only inputs that reach the scan (no certificate applies), and
    resolves the earliest zero only when the scan step is shorter than the
    fastest beat.  Returns (kind, tau_perp).
    """
    spec, hbar = scenario.spectrum, scenario.hbar
    probs = np.abs(scenario.amplitudes) ** 2
    evals = spec.eigenvalues
    gaps = np.diff(evals)
    min_gap = float(gaps[gaps > 1e-12 * max(1.0, spec.span)].min())
    ts = np.linspace(0.0, HORIZON_PERIODS * 2.0 * math.pi * hbar / min_gap, ORACLE_SCAN_POINTS)
    moduli = np.abs(state_overlap(scenario, ts))
    for i in _scanned_minima(moduli):
        t_star, modulus = _refine_minimum(probs, evals, hbar, ts[i - 1], ts[i + 1])
        if modulus <= DEFAULT_TOL_ORTH:
            return "found", t_star
    return "inconclusive", None


def _dense_minimum(scenario, horizon):
    """min |o| over [0, horizon]: the smallest of DENSE_POINTS evenly spaced
    samples and of the scalar bisections of the eight smallest sampled
    local minima."""
    probs = np.abs(scenario.amplitudes) ** 2
    evals, hbar = scenario.spectrum.eigenvalues, scenario.hbar
    ts = np.linspace(0.0, horizon, DENSE_POINTS)
    moduli = np.concatenate(
        [np.abs(state_overlap(scenario, chunk)) for chunk in np.array_split(ts, 20)]
    )
    minima = _scanned_minima(moduli)
    smallest = minima[np.argsort(moduli[minima], kind="stable")[:8]]
    refined = [_refine_minimum(probs, evals, hbar, ts[i - 1], ts[i + 1])[1] for i in smallest]
    return min([float(moduli.min()), *refined])


def _search_outcome(scenario):
    try:
        result = orthogonalization_time(scenario)
    except InconclusiveScanError as err:
        return "inconclusive", None, err.min_observed_overlap, err.horizon
    return result.kind, result.tau_perp, result.min_observed_overlap, result.horizon


def _assert_matches_serial(evals, probs, phases, hbar=1.0):
    """Kind and tau as the serial scan gives them; min_observed_overlap is
    |o(tau)| when found, else the dense minimum over [0, horizon]."""
    assert max(probs) <= 0.5, "a dominant amplitude skips the search"
    scenario = scenario_of(np.diag(evals), np.sqrt(probs) * phases, hbar)
    expected = _serial_search(scenario)
    kind, tau, min_observed, horizon = got = _search_outcome(scenario)
    assert kind == expected[0]
    if expected[1] is None:
        assert tau is None
        assert abs(min_observed - _dense_minimum(scenario, horizon)) <= 1e-12
    else:
        assert abs(tau - expected[1]) <= 1e-12 * max(1.0, abs(expected[1]))
        assert min_observed <= DEFAULT_TOL_ORTH
        assert abs(min_observed - abs(state_overlap(scenario, tau))) <= 1e-12
    return got


@pytest.mark.parametrize("dim", range(2, 9))
def test_batched_refinement_matches_serial_on_random_spectra(dim):
    """A generic spectrum with random populations, then an integer ladder
    with equal populations, whose overlap has zeros."""
    rng = np.random.default_rng(600 + dim)
    evals = np.linalg.eigvalsh(random_hermitian(rng, dim))
    # weights in [1, 2] keep every population at or below 2 / (dim + 1)
    weights = np.ones(2) if dim == 2 else 1.0 + rng.random(dim)
    probs = weights / weights.sum()
    phases = np.exp(2j * math.pi * rng.random(dim))
    _assert_matches_serial(evals, probs, phases, hbar=0.7)
    ladder = rng.integers(-3, 4) + rng.integers(1, 4) * np.arange(dim, dtype=float)
    kind, _, _, _ = _assert_matches_serial(ladder, np.full(dim, 1.0 / dim), phases)
    assert kind == "found"


@pytest.mark.parametrize("w", [10.0, 30.0])
def test_batched_refinement_product_family(w):
    """diag(0, 1, W, W+1), uniform state: o(t) = (1 + e^{-iWt})(1 + e^{-it}) / 4."""
    kind, tau, _, _ = _assert_matches_serial(
        np.array([0.0, 1.0, w, w + 1.0]), np.full(4, 0.25), np.ones(4)
    )
    assert kind == "found"
    assert tau == pytest.approx(math.pi / w, rel=1e-9)


def _product_family(w):
    return scenario_of(np.diag([0.0, 1.0, w, w + 1.0]), np.full(4, 0.5))


@pytest.mark.parametrize("w", [10.0, 1e3, 1e4, 1e5])
def test_product_family_finds_the_fast_zero(w):
    """The first zero is pi/W however far the fast period falls below the
    slowest beat period, which sets the horizon (a fixed scan of that horizon
    steps over it from W = 1e3 on)."""
    s = _product_family(w)
    result = orthogonalization_time(s)
    assert result.found
    assert result.tau_perp == pytest.approx(math.pi / w, rel=1e-9)
    assert abs(state_overlap(s, result.tau_perp)) <= DEFAULT_TOL_ORTH


def test_march_budget_ends_inconclusive(monkeypatch):
    """A march that runs out of evaluations raises; it never returns a
    "found" it has not certified."""
    monkeypatch.setattr(uncertainty, "MARCH_BUDGET", 200)
    with pytest.raises(InconclusiveScanError) as err:
        orthogonalization_time(_product_family(1e4))
    assert 0 < err.value.evaluations <= 200
    assert err.value.windows == 1
    assert err.value.decided_by == "march"


def test_search_reports_its_work():
    """evaluations, windows and decided_by of each way a search ends."""
    result = orthogonalization_time(_product_family(1e3))
    assert (result.evaluations, result.windows, result.decided_by) == (242, 1, "march")
    with pytest.raises(InconclusiveScanError) as err:
        orthogonalization_time(load_scenario(DATA / "scenario_dim6.json"))
    assert (err.value.evaluations, err.value.windows, err.value.decided_by) == (850, 5, "march")
    result = orthogonalization_time(qubit_scenario(FIGURE_PRESETS["fig1A"]))
    assert (result.evaluations, result.windows, result.decided_by) == (0, 0, "certificate")
    result = orthogonalization_time(scenario_of(np.eye(3), np.full(3, 1.0 / math.sqrt(3.0))))
    assert (result.evaluations, result.windows, result.decided_by) == (0, 0, "degenerate")


def test_batched_refinement_returns_earliest_qualifying_minimum():
    """Weights (0.3, 0.3, 0.2, 0.2) on diag(0, 1, 10, 11) give
    o(t) = (1 + e^{-it}) / 2 * (0.6 + 0.4 e^{-10it}): the fast factor's minima
    come first and stay near 0.2, and every odd multiple of pi is a zero."""
    evals = np.array([0.0, 1.0, 10.0, 11.0])
    probs = np.array([0.3, 0.3, 0.2, 0.2])
    kind, tau, _, _ = _assert_matches_serial(evals, probs, np.ones(4))
    assert kind == "found"
    assert tau == pytest.approx(math.pi, rel=1e-9)
    ts = np.linspace(0.0, math.pi, 20_001)
    moduli = np.abs(state_overlap(scenario_of(np.diag(evals), np.sqrt(probs)), ts))
    assert moduli[_scanned_minima(moduli)[0]] > 0.1


def test_refinement_is_batched(monkeypatch):
    """The overlap kernel runs once per march step for all lanes of a window
    together, and once per bisection step for all brackets together."""
    rng = np.random.default_rng(24)
    h = np.diag(np.linalg.eigvalsh(random_hermitian(rng, 24)))
    s = scenario_of(h, random_state(rng, 24))
    calls = []
    kernel = uncertainty._overlap_modulus_and_slope

    def counting(*args):
        calls.append(args[-1].size)
        return kernel(*args)

    monkeypatch.setattr(uncertainty, "_overlap_modulus_and_slope", counting)
    try:
        evaluations = orthogonalization_time(s).evaluations
    except InconclusiveScanError as err:
        evaluations = err.evaluations
    assert sum(calls) == evaluations >= 1000
    assert len(calls) <= evaluations / 20


def test_ml_bounds_balanced_qubit():
    """Both shifted bounds equal pi/w for C = 1; the unshifted one diverges
    because the spectrum is symmetric about zero."""
    bounds = ml_bounds(qubit_scenario(FIGURE_PRESETS["fig2D"]))
    assert bounds.from_energy_spread == pytest.approx(math.pi, abs=1e-12)
    assert bounds.from_mean_energy == pytest.approx(math.pi, abs=1e-12)
    assert math.isinf(bounds.from_mean_energy_unshifted)


def test_ml_unshifted_bound_is_signed_off_symmetry():
    p = FIGURE_PRESETS["fig2C"]
    bounds = ml_bounds(qubit_scenario(p))
    mean = stats(p.hamiltonian(), p.state()).mean
    assert bounds.from_mean_energy_unshifted == pytest.approx(
        0.5 * math.pi * p.hbar / mean, abs=1e-12
    )


def test_ml_spread_bound_matches_energy_spread():
    rng = np.random.default_rng(31)
    h = random_hermitian(rng, 4)
    psi = random_state(rng, 4)
    bounds = ml_bounds(scenario_of(h, psi))
    spread = stats(h, psi).stddev
    assert bounds.from_energy_spread == pytest.approx(
        0.5 * math.pi / spread, rel=1e-12
    )


def test_eigenstate_bounds_are_infinite():
    s = qubit_scenario(FIGURE_PRESETS["fig2A"])
    bounds = ml_bounds(s)
    assert math.isinf(bounds.from_energy_spread)
    assert math.isfinite(bounds.from_mean_energy)  # excited level sits above 0
    assert math.isinf(qsl_tau(s))


@pytest.mark.parametrize("scale", [1.0, 1e-24, 1e24])
def test_speed_limits_are_scale_free(scale):
    """The energy thresholds are relative to ||H||, so a balanced qubit at
    any energy scale has finite bounds pi*hbar/(2 dH) and its first overlap
    zero at pi*hbar/dE, found by a search whose tolerances scale with it."""
    s = scenario_of(scale * np.diag([-0.5, 0.5]), np.full(2, math.sqrt(0.5)))
    bounds = ml_bounds(s)
    assert bounds.from_energy_spread == pytest.approx(math.pi / scale, rel=1e-12)
    assert qsl_tau(s) == pytest.approx(math.pi / scale, rel=1e-12)
    result = orthogonalization_time(s)
    assert result.found
    assert result.tau_perp == pytest.approx(math.pi / scale, rel=1e-9)


def test_zero_hamiltonian_is_an_eigenstate_with_infinite_bounds():
    s = scenario_of(np.zeros((2, 2)), np.full(2, math.sqrt(0.5)))
    bounds = ml_bounds(s)
    assert math.isinf(bounds.from_energy_spread)
    assert math.isinf(bounds.from_mean_energy)
    assert math.isinf(bounds.from_mean_energy_unshifted)
    assert math.isinf(qsl_tau(s))
    assert orthogonalization_time(s).kind == "never_orthogonal"


def test_qsl_is_max_of_ml_bounds():
    """The unified limit picks the tighter (larger) of the two bounds,
    bit for bit."""
    rng = np.random.default_rng(99)
    for dim in (2, 3, 5):
        for _ in range(25):
            s = scenario_of(random_hermitian(rng, dim), random_state(rng, dim))
            bounds = ml_bounds(s)
            assert qsl_tau(s) == max(
                bounds.from_energy_spread, bounds.from_mean_energy
            )


def test_qsl_is_the_larger_ml_bound_on_presets_and_files():
    """The unified limit is the larger of the two ml_bounds, exactly, on
    every figure preset (eigenstates included), the dim-6 file and an
    eigenstate, where it is infinite."""
    scenarios = [qubit_scenario(p) for p in FIGURE_PRESETS.values()]
    scenarios.append(load_scenario(DATA / "scenario_dim6.json"))
    eigenstate = scenario_of(np.diag([0.0, 1.0]), UP)
    for s in [*scenarios, eigenstate]:
        assert qsl_tau(s) == max(ml_bounds(s)[:2])
    assert math.isinf(qsl_tau(eigenstate))


def test_qsl_balanced_qubit_and_found_ordering():
    p = FIGURE_PRESETS["fig2D"]
    s = qubit_scenario(p)
    tau = qsl_tau(s)
    assert tau == pytest.approx(math.pi / p.omega, abs=1e-9)
    result = orthogonalization_time(s)
    assert tau <= result.tau_perp + 1e-9
