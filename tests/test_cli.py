"""End-to-end CLI tests: scenario parsing, CSV emission, verify reports.

Runs the entry point in process via main(argv). Child processes run the
inputs that once hung, under ``-W error`` and a timeout, and one confirms the
installed console script is wired up.
"""

import builtins
import hashlib
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
from quncert import cli, dynamics, hilbert, qubit, uncertainty, verify
from quncert.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_PASS,
    VERIFY_SUITES,
    ScenarioFormatError,
    format_value,
    load_scenario,
    main,
    write_trajectory_csv,
)
from quncert.verify import OFFSET_VALUES

SQ = math.sqrt(0.5)
DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"

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
        (lambda d: d["time"].update(setps=7), "time: unknown keys ['setps']"),
        # json.dump writes the int key 0 as "0", so the file repeats that key
        (lambda d: d["time"].update({0: 1.0, "0": 2.0}), "repeated key '0'"),
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


@pytest.mark.parametrize(
    "mangle,message",
    [
        (
            lambda d: d["hamiltonian"][0].__setitem__(1, [True, 0.0]),
            "hamiltonian[0][1]: expected a number, got True",
        ),
        (
            lambda d: d["hamiltonian"][1].__setitem__(0, ["0.5", 0.0]),
            "hamiltonian[1][0]: expected a number, got '0.5'",
        ),
        (
            lambda d: d["hamiltonian"][1].__setitem__(1, 0.5),
            "hamiltonian[1][1]: expected a [re, im] pair, got 0.5",
        ),
        (
            lambda d: d["hamiltonian"][1].pop(),
            "hamiltonian[1]: expected a row of 2 entries",
        ),
        (
            # the first fault in reading order is the one named
            lambda d: (d["hamiltonian"][1].pop(), d["hamiltonian"][0][0].__setitem__(1, False)),
            "hamiltonian[0][0]: expected a number, got False",
        ),
        (
            # a number out of range in an earlier row is named before a ragged row
            lambda d: (d["hamiltonian"][1].pop(), d["hamiltonian"][0][1].__setitem__(0, math.nan)),
            "hamiltonian[0][1]: value must be finite, got nan",
        ),
        (
            lambda d: d["observables"]["sx"][0].__setitem__(0, [math.inf, 0.0]),
            "observables['sx'][0][0]: value must be finite, got inf",
        ),
        (
            lambda d: d["initial_state"].__setitem__(1, [SQ, None]),
            "initial_state[1]: expected a number, got None",
        ),
        (
            lambda d: d["initial_state"].__setitem__(0, [SQ]),
            f"initial_state[0]: expected a [re, im] pair, got [{SQ!r}]",
        ),
    ],
)
def test_loader_names_the_offending_entry(tmp_path, mangle, message):
    doc = json.loads(json.dumps(BALANCED_QUBIT))
    mangle(doc)
    with pytest.raises(ScenarioFormatError) as err:
        load_scenario(write_json(tmp_path / "broken.json", doc))
    assert str(err.value) == message


def test_loader_arrays_keep_every_bit(tmp_path):
    """The arrays equal an entry-by-entry complex(float(re), float(im)),
    signed zeros, integers and subnormals included."""
    doc = json.loads(json.dumps(BALANCED_QUBIT))
    doc["hamiltonian"] = [[[-0.0, 0], [1, -0.0]], [[1, 0.0], [5e-324, -0.0]]]
    doc["initial_state"] = [[SQ, -0.0], [-0.0, SQ]]
    doc["observables"]["sx"] = [[[0, -0.0], [1e-300, 2]], [[1e-300, -2], [-0.0, 0]]]
    scenario = load_scenario(write_json(tmp_path / "bits.json", doc))

    def reference(entries):
        return np.array(
            [complex(float(re), float(im)) for re, im in entries], dtype=np.complex128
        )

    rows = [e for row in doc["hamiltonian"] for e in row]
    assert scenario.hamiltonian.tobytes() == reference(rows).tobytes()
    assert scenario.initial_state.tobytes() == reference(doc["initial_state"]).tobytes()
    rows = [e for row in doc["observables"]["sx"] for e in row]
    assert scenario.observables["sx"].tobytes() == reference(rows).tobytes()


@pytest.mark.parametrize("command", [["evolve"], ["verify", "all", "--scenario"]])
@pytest.mark.parametrize(
    "place,name",
    [
        (lambda d, x: d.__setitem__("hbar", x), "hbar"),
        (lambda d, x: d["time"].__setitem__("start", x), "time.start"),
        (lambda d, x: d["time"].__setitem__("stop", x), "time.stop"),
        (lambda d, x: d["hamiltonian"][1][0].__setitem__(0, x), "hamiltonian[1][0]"),
    ],
    ids=["hbar", "start", "stop", "entry"],
)
def test_integer_beyond_float_range_is_an_input_error(tmp_path, capsys, command, place, name):
    doc = json.loads((DATA / "scenario_dim6.json").read_text())
    place(doc, int("9" * 401))
    path = write_json(tmp_path / "huge.json", doc)
    assert main([*command, path]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{name}: value must be finite, got an integer of 401 digits" in err


@pytest.mark.parametrize(
    "raw,message",
    [
        (
            b'{"hbar": ' + b"1" * 5000 + b"}",
            "an integer literal has more digits than the parser accepts",
        ),
        (b'{"hbar": "\xff"}', "not UTF-8 text (byte 10)"),
    ],
    ids=["digits", "utf8"],
)
def test_unparsable_file_is_an_input_error_that_names_it(tmp_path, capsys, raw, message):
    path = tmp_path / "raw.json"
    path.write_bytes(raw)
    assert main(["evolve", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_loader_refuses_a_repeated_key(tmp_path):
    """A key given twice in any object is refused by name, not read as its
    last value."""
    text = json.dumps(BALANCED_QUBIT)
    for key, doubled in [
        ("hbar", text.replace('"hbar": 1.0', '"hbar": 2.0, "hbar": 1.0')),
        ("steps", text.replace('"steps": 50', '"steps": 7, "steps": 50')),
    ]:
        path = tmp_path / f"{key}.json"
        path.write_text(doubled, encoding="utf-8")
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(str(path))
        assert str(err.value) == f"{path}: repeated key {key!r}"


def run_cli_strict(*args):
    """The CLI in a child process that turns every warning into an error; a
    hang fails the test at the timeout instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "quncert.cli", *args],
        capture_output=True, text=True, timeout=60, env=env,
    )


def test_overflowing_curvature_makes_the_search_inconclusive(tmp_path):
    """With hbar = 1e-160, (dH / hbar)^2 overflows: no step can be certified."""
    doc = json.loads((DATA / "scenario_dim6.json").read_text())
    doc["hbar"] = 1e-160
    report = tmp_path / "r.json"
    result = run_cli_strict(
        "verify", "ml", "--scenario", write_json(tmp_path / "tiny.json", doc),
        "--report", str(report),
    )
    assert (result.returncode, result.stderr) == (EXIT_INCONCLUSIVE, "")
    checks = {c["name"]: c["verdict"] for c in json.loads(report.read_text())["checks"]}
    assert checks == {"ml.scenario.search": "inconclusive"}


def test_mt_rate_on_a_tiny_hbar_does_not_overflow(tmp_path):
    """The MT series reads only the mean of the rate generator [A, H]/(i hbar),
    whose variance would overflow at hbar = 1e-160."""
    doc = json.loads((DATA / "scenario_dim6.json").read_text())
    doc["hbar"] = 1e-160
    result = run_cli_strict(
        "verify", "mt", "--scenario", write_json(tmp_path / "tiny.json", doc),
        "--report", str(tmp_path / "r.json"),
    )
    assert (result.returncode, result.stderr) == (EXIT_PASS, "")


@pytest.mark.parametrize("scale", [1e160, 1e300])
def test_matrix_whose_norm_overflows_is_an_input_error(tmp_path, scale):
    doc = json.loads((DATA / "scenario_dim6.json").read_text())
    doc["hamiltonian"] = [[[scale * x for x in e] for e in row] for row in doc["hamiltonian"]]
    path = write_json(tmp_path / "huge.json", doc)
    result = run_cli_strict("verify", "all", "--scenario", path)
    assert result.returncode == EXIT_INPUT
    message = "hamiltonian is too large: its Frobenius norm overflows"
    assert result.stderr == f"error: {path}: {message}\n"


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
    """A valid scenario whose initial state is an energy eigenstate: of a
    diagonal qubit, of a seeded H, inside the doubly degenerate level of
    diag(1, 1, 3) (also rotated to a seeded basis), or of H = 2 I, whose
    spectrum is fully degenerate."""
    if kind == "diagonal":
        h, psi = np.diag([0.5, -0.5]), np.array([1.0, 0.0])
        observables = {"sx": qubit.pauli("x")}
    elif kind == "seeded":
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 3)
        psi = np.linalg.eigh(h)[1][:, 0]
        observables = {f"obs{k}": random_hermitian(rng, 3) for k in range(2)}
    else:
        h, psi = np.diag([1.0, 1.0, 3.0]), np.array([SQ, SQ, 0.0])
        observables = {"obs0": np.diag([0.0, 1.0, 2.0])}
        if kind == "rotated_level":
            u = np.linalg.eigh(random_hermitian(np.random.default_rng(3), 3))[1]
            h, psi = u @ h @ u.conj().T, u @ psi
            h = 0.5 * (h + h.conj().T)
        elif kind == "identity":
            h = 2.0 * np.eye(3)
    return {
        "hbar": 1.0,
        "hamiltonian": _pairs(np.asarray(h, dtype=complex)),
        "initial_state": _pairs(np.asarray(psi, dtype=complex)),
        "time": {"start": 0.0, "stop": 10.0, "steps": 200},
        "observables": {k: _pairs(m) for k, m in observables.items()},
    }


@pytest.mark.parametrize("kind", ["diagonal", "seeded", "level", "rotated_level", "identity"])
def test_verify_energy_eigenstate_passes_every_suite(tmp_path, kind):
    """An eigenstate has no Mandelstam-Tamm clock and only rounding noise in
    its Ehrenfest residuals: both are reported as passing checks.  It never
    turns orthogonal, which the search certifies without a march, also
    inside a degenerate level."""
    path = write_json(tmp_path / "scenario.json", _eigenstate_scenario(kind))
    for suite in VERIFY_SUITES:
        report = tmp_path / f"{suite}.json"
        assert main(["verify", suite, "--scenario", path, "--report", str(report)]) == 0
        checks = json.loads(report.read_text(encoding="utf-8"))["checks"]
        assert checks and all(c["verdict"] == "pass" for c in checks), suite
    names = [c["name"] for c in checks]  # "all" runs last
    assert "mt.scenario.undefined_for_eigenstate" in names
    assert "qsl.scenario.infinite_for_eigenstate" in names
    certificate = checks[names.index("ml.scenario.certificate_positive")]
    assert certificate["lhs"] == pytest.approx(1.0, abs=1e-12)
    assert certificate["lhs"] <= 1.0  # a floor on |o|, which never exceeds 1
    if kind in ("level", "rotated_level"):
        assert certificate["lhs"] == 1.0
    first = "sx" if kind == "diagonal" else "obs0"
    assert f"ehrenfest.{first}.residual_at_rounding_floor" in names
    assert not any("halving_ratio" in n for n in names)


def test_infinite_check_value_is_written_as_the_string_inf(tmp_path):
    """An observable that commutes with H has no finite Mandelstam-Tamm
    product; the report writes that minimum as "inf", never as the
    non-JSON literal Infinity."""
    n = np.diag([0.0, 1.0, 2.0]).astype(complex)
    doc = {
        "hbar": 1.0,
        "hamiltonian": _pairs(n),
        "initial_state": _pairs(np.array([0.6, 0.8, 0.0], dtype=complex)),
        "time": {"start": 0.0, "stop": 10.0, "steps": 200},
        "observables": {"n": _pairs(n)},
    }
    path, report = write_json(tmp_path / "scenario.json", doc), tmp_path / "r.json"
    assert main(["verify", "mt", "--scenario", path, "--report", str(report)]) == EXIT_PASS

    def refuse(literal):
        raise AssertionError(f"non-JSON literal {literal}")

    text = report.read_text(encoding="utf-8")
    checks = {c["name"]: c for c in json.loads(text, parse_constant=refuse)["checks"]}
    assert checks["mt.n.min_product"]["lhs"] == "inf"


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


def _offset_cancelling_qubit(c: float, spread: float, defect: float) -> dict:
    """H = c*I + spread*K plus an anti-Hermitian defect of ``defect`` times the
    load tolerance; each nonzero c is one of OFFSET_VALUES negated, so one
    H + E0*I has a norm near spread, far below that of H."""
    h = c * np.eye(2) + spread * np.array([[0.5, 1.0], [1.0, -0.5]], dtype=complex)
    delta = defect * hilbert.HERMITICITY_TOL_FACTOR * float(np.linalg.norm(h))
    h = h + 0.5j * delta * np.array([[0.0, 1.0], [1.0, 0.0]])
    return {
        "hbar": 1.0,
        "hamiltonian": _pairs(h),
        "initial_state": _pairs(np.array([0.6, 0.8j])),
        "time": {"start": 0.0, "stop": 10.0 / spread, "steps": 300},
        "observables": {"sx": _pairs(qubit.pauli("x"))},
    }


@pytest.mark.parametrize("defect", [0.0, 0.5])
@pytest.mark.parametrize("spread", [1e-3, 1e-6])
@pytest.mark.parametrize("c", [5.0, -0.5, -7.3, 0.0])
def test_offset_cancelling_scenario_gets_a_report(tmp_path, c, spread, defect):
    """H + E0*I is as Hermitian as H, so a Hermiticity defect the loader
    accepts is not re-judged against the norm of a shifted H that an offset
    shrinks: the file gets a report, whatever its verdicts."""
    path = write_json(tmp_path / "scenario.json", _offset_cancelling_qubit(c, spread, defect))
    load_scenario(path)
    report = tmp_path / "report.json"
    assert main(["verify", "all", "--scenario", path, "--report", str(report)]) != EXIT_INPUT
    assert json.loads(report.read_text(encoding="utf-8"))["checks"]


def test_offset_check_on_an_offset_cancelling_file():
    """E0 = -5 nearly cancels this H, whose Hermiticity defect 5e-12 is within
    the load tolerance of H but not within that of H - 5*I."""
    s = load_scenario(str(DATA / "scenario_offset_cancels.json"))
    reports = dynamics.offset_invariance_check(s, OFFSET_VALUES)
    assert [r.offset for r in reports] == list(OFFSET_VALUES)
    assert all(r.passed for r in reports)


def test_offset_whose_shifted_norm_overflows_is_refused():
    """A finite offset can still overflow the Frobenius norm of H + E0*I."""
    s = dynamics.Scenario(1.0, np.diag([1e150, -1e150]), [0.6, 0.8], dynamics.TimeGrid(0, 1, 2))
    with pytest.raises(ValueError, match="hamiltonian is too large: its Frobenius norm overflows"):
        dynamics.offset_invariance_check(s, [1e308])


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
    codes = [EXIT_PASS, EXIT_FAIL, EXIT_INPUT, EXIT_INCONCLUSIVE, EXIT_NUMERIC, EXIT_BROKEN_PIPE]
    assert sorted(codes) == [0, 1, 2, 3, 4, 141]


@pytest.mark.parametrize(
    "args",
    [
        ["evolve", str(DATA / "scenario_dim6.json")],
        ["verify", "all"],
        ["figure", "fig1", "-d", "{tmp}"],
    ],
    ids=["evolve", "verify", "figure"],
)
def test_a_closed_pipe_ends_quietly(tmp_path, args):
    """A reader that has closed stdout, as `| head` does once it has its
    lines, stops the command with 128 + SIGPIPE and nothing on stderr, not
    with the bad-input code, an error line or an "Exception ignored" at exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [a.format(tmp=tmp_path) for a in args]
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "quncert.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (EXIT_BROKEN_PIPE, b"")


def test_figure_runs_without_stdout(tmp_path):
    """Started with stdout closed, a process has no sys.stdout; figure, whose
    stdout only lists the files it wrote, still writes them and exits 0."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-m", "quncert.cli", "figure", "fig1", "-d", str(tmp_path)],
        stderr=subprocess.PIPE, env=env, timeout=60, preexec_fn=lambda: os.close(1),
    )
    assert (result.returncode, result.stderr) == (EXIT_PASS, b"")
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"fig1{x}.csv" for x in "ABCD"]


def test_eigensolver_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(hilbert, "JACOBI_MAX_SWEEPS", 0)
    assert main(["verify", "conservation"]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("error: eigensolver did not converge")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command", [["evolve"], ["verify", "conservation", "--scenario"]], ids=["evolve", "verify"]
)
def test_unallocatable_grid_is_an_input_error(tmp_path, capsys, command):
    # 1e18 float64 times are 8 EiB, more than any address space: numpy raises
    # MemoryError at the request, before anything is allocated
    doc = json.loads((DATA / "scenario_dim6.json").read_text())
    doc["time"]["steps"] = 10**18
    path = write_json(tmp_path / "huge.json", doc)
    assert main([*command, path]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
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


class _Decompositions(list):
    """Matrices through the stacked eigensolver, in call order; ``stacks``
    holds the number of matrices in each call."""

    def __init__(self):
        super().__init__()
        self.stacks = []

    def record(self, matrices):
        self.stacks.append(len(matrices))
        self.extend(np.array(m) for m in matrices)


@pytest.fixture
def decompositions(monkeypatch):
    """Matrices decomposed by the stacked eigensolver, which eigendecompose
    and the offset check both call, through every module's binding."""
    recorded = _Decompositions()
    _record_every_binding(monkeypatch, hilbert._eigendecompose_stack, recorded.record)
    return recorded


def test_verify_scenario_decomposes_each_hamiltonian_once(tmp_path, decompositions):
    path = write_json(tmp_path / "scenario.json", BALANCED_QUBIT)
    assert main(["verify", "all", "--scenario", path, "--report", str(tmp_path / "r")]) == 0
    # the scenario's own H once, then H + c*I once per offset
    assert len(decompositions) == 1 + len(OFFSET_VALUES)
    distinct = {m.tobytes() for m in decompositions}
    assert len(distinct) == len(decompositions)


def test_verify_scenario_offsets_share_one_stacked_call(tmp_path, decompositions):
    path = write_json(tmp_path / "scenario.json", BALANCED_QUBIT)
    assert main(["verify", "offset", "--scenario", path, "--report", str(tmp_path / "r")]) == 0
    # the scenario's own H leads every H + c*I in one stack
    assert decompositions.stacks == [1 + len(OFFSET_VALUES)]


@pytest.mark.parametrize("figure,expected", [("fig1", 4), ("fig2", 4), ("fig3", 2)])
def test_figure_decomposes_once_per_panel(tmp_path, capsys, decompositions, figure, expected):
    assert main(["figure", figure, "-d", str(tmp_path)]) == EXIT_PASS
    assert len(decompositions) == expected


def test_verify_all_decomposition_count(tmp_path, decompositions):
    """Each preset Scenario is built once per run, so the analyses that read
    one preset share its cached spectrum."""
    assert main(["verify", "all", "--report", str(tmp_path / "r.json")]) == EXIT_PASS
    assert len(decompositions) == 33
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


def test_verify_scenario_evolves_each_trajectory_once(tmp_path, count_calls):
    """Conservation reads the base trajectory of the offset check: the
    scenario evolves once, and each H + c*I once."""
    evolves = count_calls(dynamics, "evolve")
    main(["verify", "all", "--scenario", str(DATA / "scenario_dim6.json"),
          "--report", str(tmp_path / "r.json")])
    assert len(evolves) == 1 + len(OFFSET_VALUES)


def test_verify_scenario_evolves_the_grid_once_per_trajectory(tmp_path, monkeypatch):
    """Mandelstam-Tamm reads the base trajectory too: the whole grid is
    evolved for the scenario and for each H + c*I, and never again."""
    sizes = []
    _record_every_binding(
        monkeypatch, dynamics._states_at, lambda scenario, times: sizes.append(len(times))
    )
    path = DATA / "scenario_dim6.json"
    steps = json.loads(path.read_text())["time"]["steps"]
    main(["verify", "all", "--scenario", str(path), "--report", str(tmp_path / "r.json")])
    assert sizes.count(steps) == 1 + len(OFFSET_VALUES)


def _validated_matrices(monkeypatch):
    """Matrices passed to require_hermitian, through every module's binding."""
    seen = []
    _record_every_binding(
        monkeypatch, hilbert.require_hermitian, lambda m, *_: seen.append(np.array(m).tobytes())
    )
    return seen


def test_verify_scenario_validates_each_matrix_once(tmp_path, monkeypatch):
    """H, obs0 and obs1 when the file loads; each H + c*I inherits H's
    Hermiticity, so no analysis validates a matrix again (3 + 3 calls when
    each H + c*I was validated too)."""
    seen = _validated_matrices(monkeypatch)
    main(["verify", "all", "--scenario", str(DATA / "scenario_dim6.json"),
          "--report", str(tmp_path / "r.json")])
    assert len(seen) == len(set(seen)) == 3


def test_verify_all_validation_count(tmp_path, monkeypatch):
    """Each preset Scenario is built once per run, and analyses take its
    matrices as validated: 232 calls before presets were shared, 86 while
    each H + c*I was validated."""
    seen = _validated_matrices(monkeypatch)
    assert main(["verify", "all", "--seed", "42", "--report", str(tmp_path / "r.json")]) == 0
    # 11 presets x (H and 3 observables), 10 random x (H and 2)
    assert len(seen) == 74


@pytest.mark.parametrize("target", ["scenario_dim6.json", "fig2D", "fig3AB", "fig3CD"])
def test_mt_minima_of_the_shared_trajectory_match_mt_series(tmp_path, target):
    """The mt checks read the trajectory the evolution analysis evolved; its
    columns, and the reported minima, are mt_series's, bit for bit."""
    if target.endswith(".json"):
        path = str(DATA / target)
        s, argv = load_scenario(path), ["--scenario", path]
        checks = {name: f"mt.{name}.min_product" for name in s.observables}
    else:
        s, argv = qubit.qubit_scenario(qubit.FIGURE_PRESETS[target]), []
        checks = {"sx": f"mt.{target}.min_product"}
    report = tmp_path / "r.json"
    main(["verify", "mt", *argv, "--report", str(report)])
    lhs = {c["name"]: c["lhs"] for c in json.loads(report.read_text())["checks"]}
    trajectory = dynamics.evolve(s)
    for name, check in checks.items():
        rates, delta_t, product = dynamics._trajectory_mt(s, trajectory, name)
        samples = uncertainty.mt_series(s.observables[name], s)
        assert np.array_equal(rates, [x.rate for x in samples])
        assert np.array_equal(delta_t, [x.delta_t for x in samples])
        assert np.array_equal(product, [x.product for x in samples])
        finite = [x.product for x in samples if math.isfinite(x.delta_t)]
        assert lhs[check] == min(finite)


def test_verify_digests_the_bytes_it_parsed(tmp_path, monkeypatch):
    """The scenario file is read once; input_digest is the sha256 of those bytes."""
    path = str(DATA / "scenario_dim6.json")
    opened = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    report = tmp_path / "r.json"
    main(["verify", "all", "--scenario", path, "--report", str(report)])
    assert opened.count(path) == 1
    digest = json.loads(report.read_text())["input_digest"]
    assert digest == "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
    verify._suite_uncertainty(None, rng, None)
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
    verify._suite_uncertainty(None, np.random.default_rng(42), None)  # numpy's one-time set-up
    tracemalloc.start()
    try:
        verify._suite_uncertainty(None, np.random.default_rng(42), None)
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


def _written(columns, kinds=None) -> list[str]:
    out = io.StringIO()
    cli._write_rows(out, [f"c{k}" for k in range(len(columns))], columns, kinds)
    return out.getvalue().splitlines()


def test_rows_keep_every_bit_pattern():
    """Values are told apart by their bits: 0.0 and -0.0 print differently,
    and NaN, the infinities, subnormals and the extremes print as
    format_value prints them, in a column that repeats each of them."""
    specials = [
        math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072e-310,
        1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308,
    ]
    zeros = np.tile([0.0, -0.0], 60)
    column = np.concatenate([zeros, np.repeat(specials, 3), zeros[::-1]])
    second = np.arange(column.size) % 7 - 3.0
    lines = _written([column, second])
    assert lines[1:] == _format_rows([column, second])
    assert {row.split(",")[0] for row in lines[1:121]} == {"0.0000000000000000e+00",
                                                          "-0.0000000000000000e+00"}


@pytest.mark.parametrize("rows", [4095, 4096, 4097, 8193])
@pytest.mark.parametrize("with_kinds", [False, True], ids=["floats", "kinds"])
def test_rows_across_chunk_seams(rows, with_kinds):
    """Row counts one below, at and one above a chunk, and one above two."""
    assert cli._ROW_CHUNK == 4096
    t = np.linspace(0.0, 3.0, rows)
    columns = [t, np.cos(t), np.full(rows, 0.5), np.round(np.sin(t), 2)]
    kinds = [("max", "min")[k % 2] for k in range(rows)] if with_kinds else None
    lines = _written(columns, kinds)
    expected = _format_rows(columns)
    if with_kinds:
        expected = [f"{row},{kind}" for row, kind in zip(expected, kinds)]
    assert len(lines) == 1 + rows
    assert lines[1:] == expected


def test_figure_fig3_rows_match_per_cell_formatting(tmp_path):
    """fig3 writes its Mandelstam-Tamm columns directly; the product column
    holds inf where the clock stops."""
    assert main(["figure", "fig3", "-d", str(tmp_path)]) == EXIT_PASS
    for panel in ("fig3AB", "fig3CD"):
        preset = qubit.FIGURE_PRESETS[panel]
        s = qubit.qubit_scenario(preset)
        trajectory = dynamics.evolve(s, store_states=True)
        _, delta_t, product = dynamics._trajectory_mt(s, trajectory, "sx")
        columns = [trajectory.times, delta_t * preset.omega, product / (0.5 * preset.hbar)]
        assert np.isinf(columns[2]).any()
        lines = (tmp_path / f"{panel}.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1:] == _format_rows(columns)


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
