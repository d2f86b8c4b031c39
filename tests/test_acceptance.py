"""Acceptance suite: one test per headline claim, at the stated tolerance.

Each test prints a single "criterion NN (...): PASS" line when it gets to the
end; a failed assertion surfaces as the usual pytest FAILED line instead, so
`pytest -v tests/test_acceptance.py` yields one verdict line per criterion.
"""

import math

import numpy as np
import pytest

from conftest import random_hermitian, random_state
from quncert import (
    FIGURE_PRESETS,
    Scenario,
    analytic_mt_delta_t,
    analytic_sx_mean,
    analytic_sx_std,
    check_conservation,
    default_time_grid,
    ehrenfest_residual,
    evolve,
    ml_bounds,
    mt_series,
    offset_invariance_check,
    orthogonalization_time,
    pauli,
    qsl_tau,
    qubit_scenario,
    robertson_check,
    schrodinger_check,
    tick_tock,
)

CAPTION_COHERENCES = {
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

BALANCED = "fig2D"          # C = 1
EIGENSTATE = "fig2A"        # C = 0
CLOCK_CAPTIONS = ("fig2B", "fig2C", "fig2D")   # C in {0.312, 0.745, 1}


def _announce(number: int, title: str) -> None:
    print(f"criterion {number:02d} ({title}): PASS")


def _random_scenario(seed: int, dim: int) -> Scenario:
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, dim)
    return Scenario(
        hbar=1.0,
        hamiltonian=h,
        initial_state=random_state(rng, dim),
        time_grid=default_time_grid(h, steps=1000),
        observables={"probe": random_hermitian(rng, dim)},
    )


def test_criterion_01_coherence_captions():
    allowed = {0.0, 0.312, 0.436, 0.745, 0.943, 0.995, 1.0}
    for name, expected in CAPTION_COHERENCES.items():
        preset = FIGURE_PRESETS[name]
        assert round(preset.coherence, 3) == expected
        assert expected in allowed
    _announce(1, "coherence captions")


def test_criterion_02_conservation():
    for name in sorted(FIGURE_PRESETS):
        report = check_conservation(evolve(qubit_scenario(FIGURE_PRESETS[name])))
        assert report.max_drift < 1e-10, (name, report.drifts)
    for seed in range(50):
        scenario = _random_scenario(seed, 2 + seed % 5)
        report = check_conservation(evolve(scenario))
        assert report.max_drift < 1e-10, (seed, report.drifts)
    _announce(2, "conservation over every preset and 50 random scenarios")


def test_criterion_03_offset_invariance():
    offsets = (-5.0, 0.5, 7.3)
    for name in sorted(FIGURE_PRESETS):
        scenario = qubit_scenario(FIGURE_PRESETS[name])
        for offset, report in zip(offsets, offset_invariance_check(scenario, offsets)):
            assert report.offset == offset
            assert report.max_observable_diff < 1e-10, (name, offset)
            assert report.max_phase_defect < 1e-10, (name, offset)
    _announce(3, "offset invariance at E0 in {-5, 0.5, 7.3}")


def test_criterion_04_ehrenfest_residual():
    scenario = qubit_scenario(FIGURE_PRESETS[BALANCED])
    sx = pauli("x")
    period = 2.0 * math.pi / FIGURE_PRESETS[BALANCED].omega
    probes = (0.4, 1.3, 2.9, 4.6)
    for step, ceiling in ((1e-4, 1e-8), (1e-4 * period, 1e-7)):
        residuals = [
            ehrenfest_residual(sx, scenario, t, fd_step=step) for t in probes
        ]
        halved = [
            ehrenfest_residual(sx, scenario, t, fd_step=step / 2.0) for t in probes
        ]
        assert max(residuals) < ceiling, (step, residuals)
        for coarse, fine in zip(residuals, halved):
            assert 3.5 <= coarse / fine <= 4.5
    _announce(4, "Ehrenfest residual second-order in fd_step")


def test_criterion_05_robertson_schroedinger():
    for dim in range(2, 7):
        rng = np.random.default_rng(5000 + dim)
        for _ in range(1000):
            a = random_hermitian(rng, dim)
            b = random_hermitian(rng, dim)
            psi = random_state(rng, dim)
            rob = robertson_check(a, b, psi)
            sch = schrodinger_check(a, b, psi)
            assert rob.slack >= -1e-10
            assert sch.slack >= -1e-10
            assert sch.rhs >= rob.rhs
    _announce(5, "uncertainty products over 1000 triples per dim 2-6")


def test_criterion_06_mandelstam_tamm():
    preset = FIGURE_PRESETS[BALANCED]
    scenario = qubit_scenario(preset)
    series = mt_series(pauli("x"), scenario)
    step = scenario.time_grid.step
    for sample in series:
        if math.isfinite(sample.delta_t):
            assert abs(sample.delta_t - 1.0 / preset.omega) < 1e-9
            assert abs(sample.product - 0.5 * scenario.hbar) < 1e-9
        else:
            # the flag may only sit at a turning point of <sigma_x>
            assert min(abs(sample.t - k * math.pi) for k in range(5)) < 1e-12

    for name in ("fig3AB", "fig3CD"):
        scenario = qubit_scenario(FIGURE_PRESETS[name])
        for sample in mt_series(pauli("x"), scenario):
            if math.isfinite(sample.product):
                assert sample.product >= 0.5 * scenario.hbar - 1e-10
            else:
                closest = min(abs(sample.t - k * math.pi) for k in range(5))
                assert closest <= scenario.time_grid.step
    _announce(6, "Mandelstam-Tamm products and flags")


def test_criterion_07_margolus_levitin():
    preset = FIGURE_PRESETS[BALANCED]
    scenario = qubit_scenario(preset)
    result = orthogonalization_time(scenario)
    assert result.found
    assert abs(result.tau_perp - math.pi / preset.omega) < 1e-9
    bounds = ml_bounds(scenario)
    assert abs(result.tau_perp - bounds.from_energy_spread) < 1e-9

    for name, p in FIGURE_PRESETS.items():
        top = max(abs(p.alpha1), abs(p.alpha2)) ** 2
        if top <= 0.5 + 1e-12:
            continue  # balanced presets carry no dominant level
        res = orthogonalization_time(qubit_scenario(p))
        assert not res.found, name
        assert abs(res.min_overlap_bound - (2.0 * top - 1.0)) < 1e-12, name

    assert math.isinf(bounds.from_mean_energy_unshifted)
    _announce(7, "Margolus-Levitin bound, certificates, unshifted flag")


def test_criterion_08_quantum_speed_limit():
    for name, p in FIGURE_PRESETS.items():
        if p.coherence == 0.0:
            continue
        scenario = qubit_scenario(p)
        tau = qsl_tau(scenario)
        assert math.isfinite(tau), name
        result = orthogonalization_time(scenario)
        if result.found:
            assert tau <= result.tau_perp + 1e-9, name
        if abs(p.coherence - 1.0) < 1e-12:
            assert abs(tau - math.pi / p.omega) < 1e-9, name
    _announce(8, "unified speed limit finite and below tau_perp")


def test_criterion_09_einstein_planck_clock():
    for name in CLOCK_CAPTIONS:
        p = FIGURE_PRESETS[name]
        report = tick_tock(evolve(qubit_scenario(p)), "sx")
        product = p.hbar * p.omega * report.delta_t
        half_h = math.pi * p.hbar  # h / 2 with h = 2 pi hbar
        assert abs(product - half_h) / half_h < 1e-6, name
    with pytest.raises(ValueError, match="no clock signal"):
        tick_tock(evolve(qubit_scenario(FIGURE_PRESETS[EIGENSTATE])), "sx")
    _announce(9, "tick/tock spacing reproduces h/2; C = 0 has no clock")


def test_criterion_10_oracle_equivalence():
    for name, p in sorted(FIGURE_PRESETS.items()):
        scenario = qubit_scenario(p)
        trajectory = evolve(scenario)
        ts = trajectory.times
        assert len(ts) == 1000
        np.testing.assert_allclose(
            trajectory.observables["sx"].mean,
            analytic_sx_mean(p, ts),
            rtol=0,
            atol=1e-10,
        )
        np.testing.assert_allclose(
            trajectory.observables["sx"].stddev,
            analytic_sx_std(p, ts),
            rtol=0,
            atol=1e-10,
        )
        if p.coherence == 0.0:
            continue  # the MT timescale is undefined for a static <sigma_x>
        series = mt_series(pauli("x"), scenario)
        pipeline = np.array([s.delta_t for s in series])
        oracle = analytic_mt_delta_t(p, ts)
        finite = np.isfinite(oracle)
        assert np.array_equal(np.isfinite(pipeline), finite), name
        np.testing.assert_allclose(
            pipeline[finite], oracle[finite], rtol=0, atol=1e-10
        )
    _announce(10, "analytic oracles match the generic pipeline at 1e-10")
