"""Input validation at the public boundary.

The numerical kernels validate nothing, so a non-Hermitian matrix,
non-finite amplitudes and a non-positive or non-finite hbar must be rejected
before any arithmetic runs: by the public function that takes the argument,
or by the Scenario it arrives in, when the Scenario is built.
"""

import math
import re

import numpy as np
import pytest

from quncert import (
    Scenario,
    TimeGrid,
    coherence_from_amplitudes,
    commutator,
    ehrenfest_rate,
    ehrenfest_residual,
    ml_bounds,
    mt_series,
    orthogonalization_time,
    qsl_tau,
    require_hermitian,
    robertson_check,
    schrodinger_check,
    state_overlap,
    stats,
)
from quncert import hilbert
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


E3 = np.array([1.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: _scenario(initial_state=E3),
         "initial_state dimension 3 does not match hamiltonian dimension 2"),
        (lambda: _scenario(observables={"x": np.eye(3)}),
         "observable 'x' has dimension 3, expected 2"),
        (lambda: ehrenfest_rate(SX, SZ, E3), "dimension mismatch: 2 vs 3"),
        (lambda: commutator(SX, np.eye(3)), "dimension mismatch: (2, 2) vs (3, 3)"),
        (lambda: require_hermitian(np.empty((0, 0))), "matrix must have dimension >= 1"),
        (lambda: require_hermitian(np.array([[1.0, math.nan], [math.nan, 1.0]])),
         "matrix contains non-finite entries"),
        (lambda: hilbert.as_state([]), "state must be a nonempty vector, got shape (0,)"),
    ],
    ids=[
        "Scenario.initial_state", "Scenario.observable", "ehrenfest_rate.state",
        "commutator", "require_hermitian.empty", "require_hermitian.nan", "as_state.empty",
    ],
)
def test_each_malformed_input_is_refused_with_its_message(call, message):
    """Dimension mismatches, an empty matrix or state and a NaN entry are
    refused at entry, each with its own message."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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


STATE_ARGUMENTS = [
    lambda psi: stats(SX, psi),
    lambda psi: robertson_check(SX, SZ, psi),
    lambda psi: schrodinger_check(SX, SZ, psi),
    lambda psi: ehrenfest_rate(SX, SZ, psi),
    coherence_from_amplitudes,
]
STATE_IDS = ["stats", "robertson_check", "schrodinger_check", "ehrenfest_rate", "coherence"]


@pytest.mark.parametrize("call", STATE_ARGUMENTS, ids=STATE_IDS)
def test_every_state_argument_has_one_normalization_tolerance(call):
    """A squared norm 1e-10 from 1 is refused by every public function that
    takes a state, as Scenario refuses it; one 1e-13 from 1 is accepted."""
    with pytest.raises(ValueError, match="not normalized"):
        call(PLUS * math.sqrt(1.0 + 1e-10))
    with pytest.raises(ValueError, match="not normalized"):
        _scenario(initial_state=PLUS * math.sqrt(1.0 + 1e-10))
    call(PLUS * math.sqrt(1.0 + 1e-13))
    _scenario(initial_state=PLUS * math.sqrt(1.0 + 1e-13))


@pytest.mark.parametrize(
    "t", [math.nan, math.inf, -math.inf, [0.0, math.nan], [[1.0], [math.inf]]]
)
def test_state_overlap_refuses_a_time_that_is_not_finite(t):
    with pytest.raises(ValueError, match="t must be finite"):
        state_overlap(_scenario(), t)


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
