"""End-to-end CLI tests: scenario parsing, CSV emission, verify reports.

Runs the entry point in process via main(argv); one subprocess test confirms
the installed console script is wired up.
"""

import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import random_hermitian, random_state
from quncert import cli, dynamics, hilbert, qubit, uncertainty
from quncert.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_PASS,
    OFFSET_VALUES,
    VERIFY_SUITES,
    format_value,
    load_scenario,
    main,
    write_trajectory_csv,
)

SQ = math.sqrt(0.5)
DATA = Path(__file__).resolve().parent / "data"

BALANCED_QUBIT = {
    "hbar": 1.0,
    "hamiltonian": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
    "initial_state": [[SQ, 0.0], [SQ, 0.0]],
    "time": {"start": 0.0, "stop": 4.0 * math.pi, "steps": 50},
    "observables": {"sx": [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]},
}

# equal-gap three-level state whose overlap never reaches zero and whose
# dominant probability sits exactly at 1/2: no certificate, inconclusive scan
THREE_LEVEL_NO_ZERO = {
    "hbar": 1.0,
    "hamiltonian": [
        [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
        [[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]],
    ],
    "initial_state": [[SQ, 0.0], [0.5, 0.0], [0.5, 0.0]],
    "time": {"start": 0.0, "stop": 10.0, "steps": 50},
}


def write_json(path, payload) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return str(path)


def test_version(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert capsys.readouterr().out.strip() == "quncert 0.1.0"


def test_format_value_round_trips():
    values = [0.0, 1.0, -1.0, math.pi, 1e-300, -7.25e17, 2.0 / 3.0, -0.0, 5e-324]
    for v in values:
        assert float(format_value(v)) == v
        assert math.copysign(1.0, float(format_value(v))) == math.copysign(1.0, v)
    assert format_value(math.inf) == "inf"
    assert format_value(-math.inf) == "-inf"


def test_load_scenario_round_trip(tmp_path):
    path = write_json(tmp_path / "scenario.json", BALANCED_QUBIT)
    scenario = load_scenario(path)
    assert scenario.dim == 2
    assert scenario.time_grid.steps == 50
    assert "sx" in scenario.observables
    np.testing.assert_allclose(np.abs(scenario.initial_state), [SQ, SQ], atol=1e-15)


def test_evolve_csv_shape(tmp_path, capsys):
    path = write_json(tmp_path / "scenario.json", BALANCED_QUBIT)
    assert main(["evolve", path]) == EXIT_PASS
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "t",
        "sx_mean",
        "sx_std",
        "energy_mean",
        "energy_std",
        "coherence",
        "predictability",
    ]
    assert len(lines) == 1 + 50
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    assert first[1] == pytest.approx(1.0, abs=1e-12)  # <sigma_x>(0) = 2|a1||a2|


def test_evolve_output_file_matches_stdout(tmp_path, capsys):
    path = write_json(tmp_path / "scenario.json", BALANCED_QUBIT)
    out = tmp_path / "trajectory.csv"
    assert main(["evolve", path, "-o", str(out)]) == EXIT_PASS
    capsys.readouterr()
    assert main(["evolve", path]) == EXIT_PASS
    assert out.read_text(encoding="utf-8") == capsys.readouterr().out


@pytest.mark.parametrize(
    "mangle,fragment",
    [
        (lambda d: d.pop("hamiltonian"), "missing required key 'hamiltonian'"),
        (lambda d: d.update(extra=1), "unknown keys"),
        (
            lambda d: d["hamiltonian"][0].__setitem__(1, [1.0]),
            "hamiltonian[0][1]",
        ),
        (lambda d: d["time"].pop("steps"), "missing required key 'steps'"),
        (lambda d: d["time"].__setitem__("steps", 2.5), "time.steps"),
        (
            lambda d: d["initial_state"].__setitem__(0, [1.0, 0.0, 0.0]),
            "initial_state[0]",
        ),
    ],
)
def test_evolve_rejects_malformed_scenarios(tmp_path, capsys, mangle, fragment):
    doc = json.loads(json.dumps(BALANCED_QUBIT))
    mangle(doc)
    path = write_json(tmp_path / "broken.json", doc)
    assert main(["evolve", path]) == EXIT_INPUT
    assert fragment in capsys.readouterr().err


def test_evolve_reports_json_syntax_position(tmp_path, capsys):
    path = tmp_path / "syntax.json"
    path.write_text('{"hbar": 1.0,\n  "oops"\n}', encoding="utf-8")
    assert main(["evolve", str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "line 3" in err


def test_evolve_missing_file(capsys):
    assert main(["evolve", "does-not-exist.json"]) == EXIT_INPUT
    assert "does-not-exist.json" in capsys.readouterr().err


def test_verify_all_passes(tmp_path):
    report_path = tmp_path / "report.json"
    code = main(["verify", "all", "--report", str(report_path)])
    assert code == EXIT_PASS
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["tool"] == "quncert"
    assert report["suite"] == "all"
    assert report["seed"] == 42
    assert report["input_digest"] == "builtin:presets"
    assert report["passed"] is True
    assert report["counts"]["fail"] == 0
    assert report["counts"]["inconclusive"] == 0
    assert report["counts"]["pass"] == len(report["checks"])
    for check in report["checks"]:
        assert check["verdict"] == "pass"


def test_verify_report_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "conservation", "--report", str(a)]) == EXIT_PASS
    assert main(["verify", "conservation", "--report", str(b)]) == EXIT_PASS
    assert a.read_bytes() == b.read_bytes()


def test_verify_seed_sources(tmp_path, monkeypatch, capsys):
    flag = tmp_path / "flag.json"
    env = tmp_path / "env.json"
    assert main(["verify", "conservation", "--seed", "7", "--report", str(flag)]) == 0
    monkeypatch.setenv("QUNCERT_SEED", "7")
    assert main(["verify", "conservation", "--report", str(env)]) == 0
    assert flag.read_bytes() == env.read_bytes()
    # the flag wins over the environment
    assert main(["verify", "conservation", "--seed", "9", "--report", str(flag)]) == 0
    assert json.loads(flag.read_text(encoding="utf-8"))["seed"] == 9
    monkeypatch.setenv("QUNCERT_SEED", "not-a-number")
    assert main(["verify", "conservation"]) == EXIT_INPUT
    assert "QUNCERT_SEED" in capsys.readouterr().err


def test_verify_custom_scenario_found(tmp_path, capsys):
    path = write_json(tmp_path / "scenario.json", BALANCED_QUBIT)
    assert main(["verify", "ml", "--scenario", path]) == EXIT_PASS
    report = json.loads(capsys.readouterr().out)
    assert report["input_digest"].startswith("sha256:")
    names = [c["name"] for c in report["checks"]]
    assert "ml.scenario.overlap_at_tau" in names


def test_verify_inconclusive_exit_code(tmp_path, capsys):
    path = write_json(tmp_path / "scenario.json", THREE_LEVEL_NO_ZERO)
    assert main(["verify", "ml", "--scenario", path]) == EXIT_INCONCLUSIVE
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert report["counts"]["inconclusive"] == 1
    assert report["counts"]["fail"] == 0


def _pairs(array) -> list:
    return np.stack([array.real, array.imag], axis=-1).tolist()


def _eigenstate_scenario(kind: str) -> dict:
    """A valid scenario whose initial state is an energy eigenstate."""
    if kind == "diagonal":
        h, psi = np.diag([0.5, -0.5]), np.array([1.0, 0.0])
        observables = {"sx": qubit.pauli("x")}
    else:
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 3)
        psi = np.linalg.eigh(h)[1][:, 0]
        observables = {f"obs{k}": random_hermitian(rng, 3) for k in range(2)}
    return {
        "hbar": 1.0,
        "hamiltonian": _pairs(np.asarray(h, dtype=complex)),
        "initial_state": _pairs(np.asarray(psi, dtype=complex)),
        "time": {"start": 0.0, "stop": 10.0, "steps": 200},
        "observables": {k: _pairs(m) for k, m in observables.items()},
    }


@pytest.mark.parametrize("kind", ["diagonal", "seeded"])
def test_verify_energy_eigenstate_passes_every_suite(tmp_path, kind):
    """An eigenstate has no Mandelstam-Tamm clock and only rounding noise in
    its Ehrenfest residuals: both are reported as passing checks."""
    path = write_json(tmp_path / "scenario.json", _eigenstate_scenario(kind))
    for suite in VERIFY_SUITES:
        report = tmp_path / f"{suite}.json"
        assert main(["verify", suite, "--scenario", path, "--report", str(report)]) == 0
        checks = json.loads(report.read_text(encoding="utf-8"))["checks"]
        assert checks and all(c["verdict"] == "pass" for c in checks), suite
    names = [c["name"] for c in checks]  # "all" runs last
    assert "mt.scenario.undefined_for_eigenstate" in names
    first = "sx" if kind == "diagonal" else "obs0"
    assert f"ehrenfest.{first}.residual_at_rounding_floor" in names
    assert not any("halving_ratio" in n for n in names)


def _default_grid_payload(hbar, h, psi, observable) -> dict:
    grid = dynamics.default_time_grid(h, hbar)
    return {
        "hbar": hbar,
        "hamiltonian": _pairs(np.asarray(h, dtype=complex)),
        "initial_state": _pairs(np.asarray(psi, dtype=complex)),
        "time": {"start": grid.start, "stop": grid.stop, "steps": grid.steps},
        "observables": {"obs": _pairs(np.asarray(observable, dtype=complex))},
    }


def _large_scale_scenarios() -> dict:
    """Valid scenarios far from unit scale: dim-6 observables of norm ~1e6 and
    ~1e8, drawn in turn from one stream, and a qubit in SI units."""
    rng = np.random.default_rng(5)
    out = {}
    for scale in (1e6, 1e8):
        h = random_hermitian(rng, 6)
        psi = random_state(rng, 6)
        out[f"observable_scale_{scale:.0e}"] = _default_grid_payload(
            1.0, h, psi, scale * random_hermitian(rng, 6)
        )
    hbar, omega = 1.054571817e-34, 2.0 * math.pi * 5e9
    h = 0.5 * hbar * omega * qubit.pauli("z")
    out["si_qubit"] = _default_grid_payload(hbar, h, [SQ, SQ], qubit.pauli("x"))
    return out


@pytest.mark.parametrize("name", ["observable_scale_1e+06", "observable_scale_1e+08", "si_qubit"])
def test_loaded_scenario_never_exits_as_input_error(tmp_path, name):
    """Exit 2 is for inputs the loader rejects; a scenario it accepts gets a
    report, whatever its scale."""
    path = write_json(tmp_path / "scenario.json", _large_scale_scenarios()[name])
    load_scenario(path)
    report = tmp_path / "report.json"
    assert main(["verify", "all", "--scenario", path, "--report", str(report)]) != EXIT_INPUT
    assert json.loads(report.read_text(encoding="utf-8"))["checks"]
    assert main(["evolve", path, "-o", str(tmp_path / "out.csv")]) == EXIT_PASS


def test_si_qubit_is_not_taken_for_an_eigenstate(tmp_path):
    """The energy thresholds scale with ||H||, so a balanced qubit in SI units
    (level spacing ~3e-24 J) keeps its Mandelstam-Tamm clock and its finite
    speed limit."""
    path = write_json(tmp_path / "scenario.json", _large_scale_scenarios()["si_qubit"])
    report = tmp_path / "report.json"
    main(["verify", "all", "--scenario", path, "--report", str(report)])
    names = [c["name"] for c in json.loads(report.read_text(encoding="utf-8"))["checks"]]
    for eigenstate_only in (
        "mt.scenario.undefined_for_eigenstate",
        "ml.scenario.certificate_positive",
        "qsl.scenario.infinite_for_eigenstate",
    ):
        assert eigenstate_only not in names
    assert "mt.obs.min_product" in names


def test_si_qubit_orthogonalizes_at_pi_over_omega(tmp_path):
    """The search's tolerances scale with hbar / dE, so the SI qubit is found
    at pi / omega, ~1e-10 s, and verify reports the found-branch checks."""
    payload = _large_scale_scenarios()["si_qubit"]
    path = write_json(tmp_path / "scenario.json", payload)
    result = uncertainty.orthogonalization_time(load_scenario(path))
    assert result.found
    assert result.tau_perp == pytest.approx(math.pi / (2.0 * math.pi * 5e9), rel=1e-9)
    report = tmp_path / "report.json"
    assert main(["verify", "ml", "--scenario", path, "--report", str(report)]) == EXIT_PASS
    names = [c["name"] for c in json.loads(report.read_text(encoding="utf-8"))["checks"]]
    assert "ml.scenario.overlap_at_tau" in names


def test_si_qubit_product_floor_scales_with_hbar(tmp_path):
    """The Mandelstam-Tamm floor is hbar/2 less a margin relative to hbar;
    an absolute margin of 1e-10 would make it negative at hbar ~ 1e-34."""
    payload = _large_scale_scenarios()["si_qubit"]
    path = write_json(tmp_path / "scenario.json", payload)
    report = tmp_path / "report.json"
    main(["verify", "mt", "--scenario", path, "--report", str(report)])
    checks = {c["name"]: c for c in json.loads(report.read_text(encoding="utf-8"))["checks"]}
    half_hbar = 0.5 * payload["hbar"]
    rhs = checks["mt.obs.min_product"]["rhs"]
    assert rhs > 0.0
    assert abs(rhs - half_hbar) <= 1e-9 * half_hbar


def test_exit_codes_are_distinct():
    codes = [EXIT_PASS, EXIT_FAIL, EXIT_INPUT, EXIT_INCONCLUSIVE, EXIT_NUMERIC]
    assert sorted(codes) == [0, 1, 2, 3, 4]


def test_eigensolver_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(hilbert, "JACOBI_MAX_SWEEPS", 0)
    assert main(["verify", "conservation"]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("error: eigensolver did not converge")
    assert "Traceback" not in err


def _record_every_binding(monkeypatch, original, record):
    """Replace every quncert module binding of original with a wrapper that
    calls record(*args) first."""

    def recording(*args, **kwargs):
        record(*args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "quncert" or name.startswith("quncert."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recording)


@pytest.fixture
def decompositions(monkeypatch):
    """Matrices passed to eigendecompose, through every module's binding."""
    calls = []
    _record_every_binding(
        monkeypatch, hilbert.eigendecompose, lambda matrix: calls.append(np.array(matrix))
    )
    return calls


def test_verify_scenario_decomposes_each_hamiltonian_once(tmp_path, decompositions):
    path = write_json(tmp_path / "scenario.json", BALANCED_QUBIT)
    assert main(["verify", "all", "--scenario", path, "--report", str(tmp_path / "r")]) == 0
    # the scenario's own H once, then H + c*I once per offset
    assert len(decompositions) == 1 + len(OFFSET_VALUES)
    distinct = {m.tobytes() for m in decompositions}
    assert len(distinct) == len(decompositions)


@pytest.mark.parametrize("figure,expected", [("fig1", 4), ("fig2", 4), ("fig3", 2)])
def test_figure_decomposes_once_per_panel(tmp_path, capsys, decompositions, figure, expected):
    assert main(["figure", figure, "-d", str(tmp_path)]) == EXIT_PASS
    assert len(decompositions) == expected


def test_verify_all_decomposition_count(tmp_path, decompositions):
    assert main(["verify", "all", "--report", str(tmp_path / "r.json")]) == EXIT_PASS
    assert len(decompositions) == 51
    assert len({m.tobytes() for m in decompositions}) == 14


@pytest.fixture
def count_calls(monkeypatch):
    """Install a call-recording wrapper on module.name; returns the call list."""

    def install(module, name):
        original = getattr(module, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    return install


@pytest.mark.parametrize("payload", [BALANCED_QUBIT, "scenario_dim6.json"])
def test_verify_scenario_searches_once(tmp_path, count_calls, payload):
    """ml and qsl read one orthogonalization search, found or inconclusive."""
    if isinstance(payload, str):
        path = str(DATA / payload)
    else:
        path = write_json(tmp_path / "scenario.json", payload)
    searches = count_calls(uncertainty, "orthogonalization_time")
    report = tmp_path / "r.json"
    main(["verify", "all", "--scenario", path, "--report", str(report)])
    assert len(searches) == 1
    names = [c["name"] for c in json.loads(report.read_text())["checks"]]
    assert any(n.startswith("ml.") for n in names)
    assert any(n.startswith("qsl.") for n in names)


@pytest.mark.parametrize("suite", ["ml", "qsl"])
def test_speed_limits_validate_the_scenario_once(tmp_path, monkeypatch, suite):
    """The loaded Scenario checks its state and hbar; the speed-limit
    analyzers read them from it and check neither again."""
    calls = {"as_state": [], "require_positive_finite": []}
    for name, seen in calls.items():
        _record_every_binding(
            monkeypatch, getattr(hilbert, name), lambda *args, seen=seen: seen.append(args)
        )
    main(["verify", suite, "--scenario", str(DATA / "scenario_dim6.json"),
          "--report", str(tmp_path / "r.json")])
    assert {name: len(seen) for name, seen in calls.items()} == {
        "as_state": 1,
        "require_positive_finite": 1,
    }


def test_verify_all_evaluates_pair_bounds_once_per_dimension(tmp_path, count_calls):
    calls = count_calls(uncertainty, "_pair_bounds")
    assert main(["verify", "all", "--report", str(tmp_path / "r.json")]) == EXIT_PASS
    assert [a.shape[-1] for a, _, _ in calls] == [2, 3, 4, 5, 6]


def test_verify_scenario_evaluates_pair_bounds_once_per_pair(tmp_path, count_calls):
    """One stacked call covers every observable pair of the scenario."""
    calls = count_calls(uncertainty, "_pair_bounds")
    report = tmp_path / "r.json"
    main(["verify", "all", "--scenario", str(DATA / "scenario_dim6.json"),
          "--report", str(report)])
    names = [c["name"] for c in json.loads(report.read_text())["checks"]]
    pairs = [n for n in names if n.startswith("robertson.")]
    assert len(pairs) == 6  # obs0, obs1 and energy, pairwise with themselves
    assert [(a.shape, b.shape, psi.shape) for a, b, psi in calls] == [
        ((6, 6, 6), (6, 6, 6), (6, 6))
    ]
    assert len([n for n in names if n.startswith("schrodinger.")]) == len(pairs)


@pytest.mark.parametrize("seed", [42, 1, 97])
def test_random_draws_keep_their_formulas(seed):
    """random_hermitian and random_state stay bit-equal to their formulas on
    one pair of standard_normal draws each, and leave the same stream."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for dim in range(1, 9):
        m = ref.standard_normal((dim, dim)) + 1j * ref.standard_normal((dim, dim))
        want = 0.5 * (m + m.conj().T) / math.sqrt(dim)
        assert np.array_equal(cli.random_hermitian(rng, dim), want)
        v = ref.standard_normal(dim) + 1j * ref.standard_normal(dim)
        assert np.array_equal(cli.random_state(rng, dim), v / np.linalg.norm(v))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("seed", [42, 1, 97])
def test_uncertainty_fuzz_draws_the_per_triple_stream(count_calls, seed):
    """The fuzz's block draws give the arrays, bit for bit, and the generator
    state of one random_hermitian, random_hermitian, random_state round per
    triple."""
    calls = count_calls(uncertainty, "_pair_bounds")
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    cli._suite_uncertainty(None, rng)
    assert [a.shape[-1] for a, _, _ in calls] == [2, 3, 4, 5, 6]
    for a, b, psi in calls:
        dim = a.shape[-1]
        rounds = [
            (cli.random_hermitian(ref, dim), cli.random_hermitian(ref, dim),
             cli.random_state(ref, dim))
            for _ in range(1000)
        ]
        for got, want in zip((a, b, psi), zip(*rounds)):
            assert np.array_equal(got, np.stack(want))
    assert rng.bit_generator.state == ref.bit_generator.state


def test_uncertainty_fuzz_memory_is_bounded():
    """The fuzz draws its triples in blocks: drawing a whole dimension at
    once peaks above 6 MB."""
    cli._suite_uncertainty(None, np.random.default_rng(42))  # numpy's one-time set-up
    tracemalloc.start()
    try:
        cli._suite_uncertainty(None, np.random.default_rng(42))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def _verify_checks(tmp_path, suite, extra):
    report = tmp_path / f"{suite}.json"
    main(["verify", suite, *extra, "--report", str(report)])
    return json.loads(report.read_text(encoding="utf-8"))["checks"]


@pytest.mark.parametrize("extra", [["--seed", "42"], ["--scenario", str(DATA / "scenario_dim6.json")]])
def test_single_suite_matches_slice_of_all(tmp_path, extra):
    """Suites sharing an analysis keep their own checks, bit for bit."""
    everything = _verify_checks(tmp_path, "all", extra)
    suites = [s for s in VERIFY_SUITES if s != "all"]
    assert len(suites) == 8
    covered = 0
    for suite in suites:
        alone = _verify_checks(tmp_path, suite, extra)
        assert alone
        # the JSON floats round-trip, so equality here is bit equality
        assert alone == [c for c in everything if c["name"].startswith(suite + ".")]
        covered += len(alone)
    assert covered == len(everything)


def assert_matches_golden(report_path, golden_name):
    """Same checks and verdicts as a committed report, numerics within 1e-12."""
    golden = json.loads((DATA / golden_name).read_text(encoding="utf-8"))
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert [c["name"] for c in report["checks"]] == [c["name"] for c in golden["checks"]]
    assert [c["verdict"] for c in report["checks"]] == [
        c["verdict"] for c in golden["checks"]
    ]
    for got, want in zip(report["checks"], golden["checks"]):
        for field in ("lhs", "rhs", "slack"):
            x, y = got[field], want[field]
            if isinstance(y, str):
                assert x == y, (want["name"], field)
            else:
                assert not isinstance(x, str), (want["name"], field)
                assert abs(x - y) <= 1e-12 * max(1.0, abs(y)), (want["name"], field)
    assert report["counts"] == golden["counts"]


def test_verify_all_matches_golden_report(tmp_path):
    path = tmp_path / "report.json"
    assert main(["verify", "all", "--seed", "42", "--report", str(path)]) == EXIT_PASS
    assert_matches_golden(path, "verify_all_seed42.json")


def test_verify_scenario_matches_golden_report(tmp_path):
    """A dim-6 scenario, whose Ehrenfest halving ratios amplify any change in
    the rounding of the mean by the inverse finite-difference step."""
    path = tmp_path / "report.json"
    scenario = str(DATA / "scenario_dim6.json")
    code = main(["verify", "all", "--scenario", scenario, "--report", str(path)])
    assert code == EXIT_INCONCLUSIVE
    assert_matches_golden(path, "verify_all_scenario_dim6.json")


def test_figure_fig1_population_panels(tmp_path, capsys):
    assert main(["figure", "fig1", "-d", str(tmp_path)]) == EXIT_PASS
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 4
    for panel in ("fig1A", "fig1B", "fig1C", "fig1D"):
        lines = (tmp_path / f"{panel}.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[1] == "proj_up_z_mean"
        # z populations are conserved: the column is constant
        column = [float(row.split(",")[1]) for row in lines[1:]]
        assert max(column) - min(column) < 1e-12


def test_figure_fig2_tick_annotations(tmp_path):
    assert main(["figure", "fig2", "-d", str(tmp_path)]) == EXIT_PASS
    assert not (tmp_path / "fig2A_ticks.csv").exists()  # no clock at C = 0
    for panel in ("fig2B", "fig2C", "fig2D"):
        lines = (tmp_path / f"{panel}_ticks.csv").read_text().strip().splitlines()
        assert lines[0] == "time,kind"
        kinds = [row.split(",")[1] for row in lines[1:]]
        assert len(kinds) >= 3
        assert all(a != b for a, b in zip(kinds, kinds[1:]))


def test_figure_fig3_product_floor(tmp_path):
    assert main(["figure", "fig3", "-d", str(tmp_path)]) == EXIT_PASS
    for panel in ("fig3AB", "fig3CD"):
        lines = (tmp_path / f"{panel}.csv").read_text().strip().splitlines()
        assert lines[0] == "t,delta_t,product"
        products = [float(row.split(",")[2]) for row in lines[1:]]
        finite = [p for p in products if math.isfinite(p)]
        assert finite
        assert min(finite) >= 1.0 - 1e-9  # product in units of hbar/2
        assert any(math.isinf(p) for p in products)
        assert "inf" in {row.split(",")[2] for row in lines[1:]}  # the literal token


def _format_rows(columns) -> list[str]:
    """Reference CSV body: every cell through format_value, joined per row."""
    return [
        ",".join(format_value(float(column[k])) for column in columns)
        for k in range(len(columns[0]))
    ]


def _trajectory_columns(trajectory) -> list:
    columns = [trajectory.times]
    for series in trajectory.observables.values():
        columns += [series.mean, series.stddev]
    return columns + [
        trajectory.energy.mean,
        trajectory.energy.stddev,
        trajectory.coherence,
        trajectory.predictability,
    ]


@pytest.mark.parametrize("figure", ["fig1", "fig2"])
def test_figure_rows_match_per_cell_formatting(tmp_path, figure):
    assert main(["figure", figure, "-d", str(tmp_path)]) == EXIT_PASS
    plus, minus = qubit.spin_projectors("z")
    observables = {"proj_up_z": plus, "proj_down_z": minus} if figure == "fig1" else None
    for panel in [p for p in qubit.FIGURE_PRESETS if p.startswith(figure)]:
        preset = qubit.FIGURE_PRESETS[panel]
        trajectory = dynamics.evolve(
            qubit.qubit_scenario(preset, observables), store_states=False
        )
        lines = (tmp_path / f"{panel}.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1:] == _format_rows(_trajectory_columns(trajectory))
        ticks = tmp_path / f"{panel}_ticks.csv"
        if ticks.exists():
            report = qubit.tick_tock(trajectory, "sx")
            expected = [f"{format_value(t)},{kind}" for t, kind in report.extrema]
            assert ticks.read_text(encoding="utf-8").splitlines()[1:] == expected


def test_trajectory_csv_rows_across_chunks():
    """A grid longer than one formatting chunk keeps every row, in order."""
    scenario = qubit.qubit_scenario(qubit.FIGURE_PRESETS["fig3CD"], steps=9001)
    trajectory = dynamics.evolve(scenario, store_states=False)
    out = io.StringIO()
    write_trajectory_csv(trajectory, out)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1 + 9001
    assert lines[1:] == _format_rows(_trajectory_columns(trajectory))


def test_figure_output_is_deterministic(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["figure", "fig2", "-d", str(first)]) == EXIT_PASS
    assert main(["figure", "fig2", "-d", str(second)]) == EXIT_PASS
    for name in sorted(os.listdir(first)):
        assert (first / name).read_bytes() == (second / name).read_bytes()


@pytest.mark.skipif(shutil.which("quncert") is None, reason="script not on PATH")
def test_console_script_wiring(tmp_path):
    result = subprocess.run(
        ["quncert", "verify", "qsl", "--report", str(tmp_path / "r.json")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == EXIT_PASS
    assert json.loads((tmp_path / "r.json").read_text())["passed"] is True
