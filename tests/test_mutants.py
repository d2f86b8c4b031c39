"""Mutants that ``verify`` must kill.

Each mutant replaces one or more kernels, each with one ``monkeypatch.setattr``
on the module that defines it.  Every other module calls a kernel through that
module, so the one patch reaches every caller, and the reports must then fail
a check.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from quncert import dynamics, hilbert, uncertainty
from quncert.cli import EXIT_FAIL, main

DATA = Path(__file__).resolve().parent / "data"

# the verify all reports a mutant can fail; only the qubit file has hbar != 1
REPORTS = {
    "seed42": ["--seed", "42"],
    "dim6": ["--scenario", str(DATA / "scenario_dim6.json")],
    "qubit_found": ["--scenario", str(DATA / "scenario_qubit_found.json")],
}


def _scaled_rates(original):
    return lambda *args: 1.01 * original(*args)


def _scaled_bounds(original):
    return lambda scenario: uncertainty.SpeedLimitBounds(*(1.01 * b for b in original(scenario)))


def _scaled_spread(original):
    def spread(scenario):
        value, floor = original(scenario)
        return 1.01 * value, floor

    return spread


def _time_reversed(original):
    return lambda *args: np.conj(original(*args))


def _without_hbar(original):
    """A kernel whose last argument, hbar, is replaced by 1."""
    return lambda *args: original(*args[:-1], 1.0)


# name: ((module, kernel, mutant of the original), ...) and the REPORTS it fails.
# Schrodinger's rhs replaced by Robertson's fails none of them, so it is not here.
MUTANTS = {
    "rates-x1.01": (
        ((dynamics, "_rates", _scaled_rates),), {"seed42", "dim6", "qubit_found"},
    ),
    "ml_bounds-x1.01": (((uncertainty, "ml_bounds", _scaled_bounds),), {"seed42", "qubit_found"}),
    "energy_spread-x1.01": (((dynamics, "_energy_spread", _scaled_spread),), {"seed42"}),
    "phases-time-reversed": (
        ((hilbert, "_phases", _time_reversed),), {"seed42", "dim6", "qubit_found"},
    ),
    "phases-hbar-dropped": (((hilbert, "_phases", _without_hbar),), {"qubit_found"}),
    "rates-hbar-dropped": (((dynamics, "_rates", _without_hbar),), {"qubit_found"}),
    "phases-and-rates-hbar-dropped": (
        ((hilbert, "_phases", _without_hbar), (dynamics, "_rates", _without_hbar)),
        {"qubit_found"},
    ),
}


def _mutate(monkeypatch, mutant):
    for module, name, mutate in MUTANTS[mutant][0]:
        monkeypatch.setattr(module, name, mutate(getattr(module, name)))


def _failing(report):
    return [m for m, (_, reports) in MUTANTS.items() if report in reports]


def _verify(tmp_path, *args) -> tuple[int, dict]:
    report = tmp_path / "r.json"
    status = main(["verify", "all", *args, "--report", str(report)])
    return status, json.loads(report.read_text(encoding="utf-8"))


def _assert_fails(tmp_path, monkeypatch, mutant, report):
    _mutate(monkeypatch, mutant)
    assert _verify(tmp_path, *REPORTS[report])[0] == EXIT_FAIL


@pytest.mark.parametrize("mutant", _failing("seed42"))
def test_mutant_fails_the_seed_42_report(tmp_path, monkeypatch, mutant):
    _assert_fails(tmp_path, monkeypatch, mutant, "seed42")


@pytest.mark.parametrize("mutant", _failing("dim6"))
def test_mutant_fails_the_dim6_report(tmp_path, monkeypatch, mutant):
    _assert_fails(tmp_path, monkeypatch, mutant, "dim6")


@pytest.mark.parametrize("mutant", _failing("qubit_found"))
def test_mutant_fails_the_qubit_found_report(tmp_path, monkeypatch, mutant):
    """hbar = 0.5 here, so a kernel that drops hbar moves a verdict."""
    _assert_fails(tmp_path, monkeypatch, mutant, "qubit_found")


def test_time_reversed_phases_fail_the_rows_that_read_tau_perp(tmp_path, monkeypatch):
    """fig2D's search finds no tau_perp under e^{+iEt/hbar}: the rows that
    compare with it read NaN and fail, and the report keeps every name."""
    _mutate(monkeypatch, "phases-time-reversed")
    status, report = _verify(tmp_path, "--seed", "42")
    golden = json.loads((DATA / "verify_all_seed42.json").read_text(encoding="utf-8"))
    assert status == EXIT_FAIL
    assert [c["name"] for c in report["checks"]] == [c["name"] for c in golden["checks"]]
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["ml.fig2D.found"]["verdict"] == "fail"
    for name in (
        "ml.fig2D.tau_perp_is_pi/omega",
        "ml.fig2D.spread_bound_equality",
        "ml.fig2D.tau_above_mean_bound",
        "qsl.fig2D.below_tau_perp",
    ):
        assert checks[name]["verdict"] == "fail"
        assert "nan" in (checks[name]["lhs"], checks[name]["rhs"])
