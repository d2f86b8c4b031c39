"""Input validation at the public boundary.

The numerical kernels validate nothing, so a non-Hermitian matrix,
non-finite amplitudes and a non-positive or non-finite hbar must be rejected
before any arithmetic runs: by the public function that takes the argument,
or by the Scenario it arrives in, when the Scenario is built.
"""

import math

import numpy as np
import pytest

from quncert import (
    Scenario,
    TimeGrid,
    coherence_from_amplitudes,
    ehrenfest_rate,
    ehrenfest_residual,
    ml_bounds,
    mt_series,
    orthogonalization_time,
    qsl_tau,
    robertson_check,
    schrodinger_check,
    state_overlap,
    stats,
)
from quncert.qubit import pauli

LOPSIDED = np.array([[0.0, 1.0], [0.0, 0.0]])
PLUS = np.array([1.0, 1.0]) / math.sqrt(2.0)
SX, SZ = pauli("x"), pauli("z")
BAD_HBARS = [0.0, -1.0, math.nan, math.inf]


def _scenario(**overrides):
    fields = {
        "hbar": 1.0,
        "hamiltonian": 0.5 * SZ,
        "initial_state": PLUS,
        "time_grid": TimeGrid(0.0, 4.0 * math.pi, 50),
        "observables": {"sx": SX},
    }
    return Scenario(**{**fields, **overrides})


@pytest.mark.parametrize(
    "call",
    [
        lambda: _scenario(hamiltonian=LOPSIDED),
        lambda: _scenario(observables={"bad": LOPSIDED}),
        lambda: stats(LOPSIDED, PLUS),
        lambda: robertson_check(LOPSIDED, SZ, PLUS),
        lambda: robertson_check(SZ, LOPSIDED, PLUS),
        lambda: schrodinger_check(LOPSIDED, SZ, PLUS),
        lambda: schrodinger_check(SZ, LOPSIDED, PLUS),
        lambda: mt_series(LOPSIDED, _scenario()),
        lambda: ehrenfest_residual(LOPSIDED, _scenario(), 0.3),
        lambda: ehrenfest_rate(LOPSIDED, SZ, PLUS),
        # <[SX, LOPSIDED]> vanishes on PLUS, so no imaginary part shows it
        lambda: ehrenfest_rate(SX, LOPSIDED, PLUS),
    ],
    ids=[
        "Scenario.hamiltonian",
        "Scenario.observable",
        "stats",
        "robertson_check.a",
        "robertson_check.b",
        "schrodinger_check.a",
        "schrodinger_check.b",
        "mt_series",
        "ehrenfest_residual",
        "ehrenfest_rate.observable",
        "ehrenfest_rate.hamiltonian",
    ],
)
def test_non_hermitian_input_is_rejected_at_entry(call):
    with pytest.raises(ValueError, match="not Hermitian"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda amps: state_overlap(_scenario(initial_state=amps), 1.0),
        lambda amps: ml_bounds(_scenario(initial_state=amps)),
        lambda amps: qsl_tau(_scenario(initial_state=amps)),
        lambda amps: orthogonalization_time(_scenario(initial_state=amps)),
        coherence_from_amplitudes,
    ],
    ids=["state_overlap", "ml_bounds", "qsl_tau", "orthogonalization_time", "coherence"],
)
def test_non_finite_amplitudes_are_rejected(call):
    with pytest.raises(ValueError, match="non-finite"):
        call(np.array([math.nan, 1.0]))


@pytest.mark.parametrize("hbar", BAD_HBARS)
@pytest.mark.parametrize(
    "call",
    [
        lambda hbar: ml_bounds(_scenario(hbar=hbar)),
        lambda hbar: qsl_tau(_scenario(hbar=hbar)),
        lambda hbar: state_overlap(_scenario(hbar=hbar), 1.0),
        lambda hbar: ehrenfest_rate(SX, 0.5 * SZ, PLUS, hbar),
        lambda hbar: orthogonalization_time(_scenario(hbar=hbar)),
    ],
    ids=["ml_bounds", "qsl_tau", "state_overlap", "ehrenfest_rate", "orthogonalization_time"],
)
def test_hbar_must_be_positive_and_finite(call, hbar):
    with pytest.raises(ValueError, match="hbar must be positive and finite"):
        call(hbar)
