"""A quncert process imports only what its command runs.

Each CLI command is one fresh process, so import cost is paid on every run:
hashlib (it loads OpenSSL) is imported only to digest a scenario file, and
numpy.random only when a verify suite draws random inputs.  Output records
are NamedTuples; only the validated inputs stay dataclasses.  The package
resolves its public names on first access, and the CLI executes the qubit and
uncertainty layers only when its command reads them; only ``verify`` imports
the verify module, and only it executes uncertainty.

A process also pays to end: when main is the process entry it ends with the
collector frozen, so shutdown skips the import-time objects instead of
freeing them one at a time.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import quncert
from quncert import cli, hilbert, verify

DATA = Path(__file__).resolve().parent / "data"
SRC = str(Path(quncert.__file__).resolve().parent.parent)


LAYERS = ("hilbert", "qstat", "dynamics", "uncertainty", "qubit", "cli")


def _probe(code: str, expression: str):
    """Run code in a fresh interpreter; return the JSON value of expression."""
    probe = code + "\nimport json, sys, types" + f"\nprint(json.dumps({expression}))"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(result.stdout.splitlines()[-1])


def _loaded_after(code: str) -> dict:
    """Which watched modules the code loaded."""
    return _probe(code, "{m: m in sys.modules for m in ('hashlib', 'numpy.random')}")


def _ran_after(code: str) -> dict:
    """Which of the qubit and uncertainty layers and the verify module the
    code executed: a layer registered but not yet executed is a lazy module,
    not a plain one, and a module never imported is not in sys.modules."""
    return _probe(
        code,
        "{m: type(sys.modules.get(f'quncert.{m}')) is types.ModuleType"
        " for m in ('qubit', 'uncertainty', 'verify')}",
    )


def test_import_loads_neither_hashlib_nor_numpy_random():
    assert _loaded_after("import quncert.cli") == {"hashlib": False, "numpy.random": False}


def test_verify_scenario_draws_no_random_numbers(tmp_path):
    argv = ["verify", "all", "--scenario", str(DATA / "scenario_dim6.json"),
            "--report", str(tmp_path / "report.json")]
    loaded = _loaded_after(
        "from quncert.cli import EXIT_INCONCLUSIVE, main\n"
        f"assert main({argv!r}) == EXIT_INCONCLUSIVE"
    )
    assert loaded["numpy.random"] is False
    assert loaded["hashlib"] is True  # the report carries the file's sha256


def test_evolve_loads_neither_hashlib_nor_numpy_random(tmp_path):
    """The scenario loader reads the file's bytes for verify's digest, but
    only verify hashes them."""
    argv = ["evolve", str(DATA / "scenario_dim6.json"), "-o", str(tmp_path / "out.csv")]
    loaded = _loaded_after(f"from quncert.cli import main\nassert main({argv!r}) == 0")
    assert loaded == {"hashlib": False, "numpy.random": False}


def test_only_input_records_are_dataclasses():
    public = [getattr(quncert, name) for name in quncert.__all__]
    for module in (cli, verify):
        public += [obj for name, obj in vars(module).items() if not name.startswith("_")]
    ours = [obj for obj in public if inspect.isclass(obj) and obj.__module__.startswith("quncert")]
    names = {cls.__name__ for cls in ours if dataclasses.is_dataclass(cls)}
    assert names == {"TimeGrid", "Scenario", "QubitPreset"}


def test_import_runs_neither_qubit_nor_uncertainty():
    ran = _ran_after("import quncert.cli")
    assert ran == {"qubit": False, "uncertainty": False, "verify": False}


def test_every_layer_is_registered_on_import():
    """Tools that wrap each layer's functions find all six in sys.modules."""
    expression = f"[f'quncert.{{m}}' in sys.modules for m in {LAYERS!r}]"
    assert _probe("import quncert.cli", expression) == [True] * len(LAYERS)


def test_evolve_runs_neither_qubit_nor_uncertainty(tmp_path):
    argv = ["evolve", str(DATA / "scenario_dim6.json"), "-o", str(tmp_path / "out.csv")]
    ran = _ran_after(f"from quncert.cli import main\nassert main({argv!r}) == 0")
    assert ran == {"qubit": False, "uncertainty": False, "verify": False}


def test_figure_fig1_runs_no_uncertainty(tmp_path):
    argv = ["figure", "fig1", "-d", str(tmp_path)]
    ran = _ran_after(f"from quncert.cli import main\nassert main({argv!r}) == 0")
    assert ran == {"qubit": True, "uncertainty": False, "verify": False}


@pytest.mark.parametrize("figure", ["fig2", "fig3"])
def test_figures_fig2_and_fig3_run_no_uncertainty(tmp_path, figure):
    """fig3's Mandelstam-Tamm columns come from dynamics, not uncertainty."""
    argv = ["figure", figure, "-d", str(tmp_path)]
    ran = _ran_after(f"from quncert.cli import main\nassert main({argv!r}) == 0")
    assert ran == {"qubit": True, "uncertainty": False, "verify": False}


def test_verify_scenario_runs_no_qubit(tmp_path):
    argv = ["verify", "all", "--scenario", str(DATA / "scenario_dim6.json"),
            "--report", str(tmp_path / "report.json")]
    ran = _ran_after(
        "from quncert.cli import EXIT_INCONCLUSIVE, main\n"
        f"assert main({argv!r}) == EXIT_INCONCLUSIVE"
    )
    assert ran == {"qubit": False, "uncertainty": True, "verify": True}


def test_a_patched_layer_keeps_its_patch_through_the_cli_import():
    """A layer imported before quncert.cli, which registers the layers, is
    the one the verify module reads."""
    code = (
        "import quncert.uncertainty as u\n"
        "u.qsl_tau = 'patched'\n"
        "from quncert import cli, verify"
    )
    expression = "[verify.uncertainty is u, verify.uncertainty.qsl_tau]"
    assert _probe(code, expression) == [True, "patched"]


def test_star_import_binds_each_name_to_its_layer_object():
    namespace = {}
    exec("from quncert import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(quncert.__all__)
    layers = [sys.modules[f"quncert.{m}"] for m in LAYERS]
    for name in quncert.__all__:
        value = namespace[name]
        home = getattr(value, "__module__", None)
        if home is not None:
            assert getattr(sys.modules[home], name) is value, name
        assert any(vars(layer).get(name) is value for layer in layers), name


def test_each_function_and_class_is_bound_only_where_it_is_defined():
    """Layers call each other through the module (``hilbert._phases``), so a
    patch on the defining module reaches every caller.  The package's own
    re-exports are its public surface and are exempt."""
    copies = []
    for info in pkgutil.iter_modules(quncert.__path__, "quncert."):
        module = importlib.import_module(info.name)
        for attr, value in vars(module).items():
            home = getattr(value, "__module__", "")
            if (inspect.isfunction(value) or inspect.isclass(value)) and (
                home.startswith("quncert.") and home != info.name
            ):
                copies.append(f"{info.name}.{attr} from {home}")
    assert copies == []


def test_levels_are_derived_in_one_place():
    """The one level rule: hilbert._levels has one caller, the epilogue that
    builds SpectralDecomposition.levels, and every other reader of the levels
    reads that record."""
    calls = []
    for info in pkgutil.iter_modules(quncert.__path__, "quncert."):
        tree = ast.parse(inspect.getsource(importlib.import_module(info.name)))
        calls += [
            (info.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "_levels" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    lines, first = inspect.getsourcelines(hilbert._spectral_decomposition)
    assert [module for module, _ in calls] == ["quncert.hilbert"]
    assert first <= calls[0][1] < first + len(lines)


VALIDATORS = {"require_hermitian", "as_complex_matrix", "as_state",
              "require_positive_finite", "require_finite_real", "_require_observable"}
# private helpers whose one job is to validate what a public entry received
VALIDATOR_HELPERS = {"require_hermitian", "_validated_observables", "_require_observable",
                     "_validated_pair_bounds"}


def _validator_calls(node, enclosing=None):
    """(innermost enclosing function, line) of each VALIDATORS call under node;
    the function is None at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _validator_calls(child, child.name)
            continue
        if isinstance(child, ast.Call) and VALIDATORS & {
            getattr(child.func, "id", None), getattr(child.func, "attr", None)
        }:
            yield enclosing, child.lineno
        yield from _validator_calls(child, enclosing)


def test_inputs_are_validated_once_at_the_boundary():
    """The one boundary rule: a value is validated by the public entry or the
    record's __post_init__ that receives it, or by a helper that only
    validates, and a private kernel trusts what its caller validated."""
    calls = []
    for info in pkgutil.iter_modules(quncert.__path__, "quncert."):
        tree = ast.parse(inspect.getsource(importlib.import_module(info.name)))
        calls += [(info.name, name, line) for name, line in _validator_calls(tree)]
    misplaced = [
        f"{module}.{name}:{line}" for module, name, line in calls
        if name is None
        or name.startswith("_") and name != "__post_init__" and name not in VALIDATOR_HELPERS
    ]
    assert misplaced == []
    assert {"__post_init__", "ehrenfest_residual"} <= {name for _, name, _ in calls}


def test_dir_lists_every_public_name_before_first_use():
    """A fresh package has bound no public name yet, only __version__."""
    bound, names = _probe("import quncert", "[sorted(vars(quncert)), dir(quncert)]")
    assert "__version__" in bound and not set(quncert.__all__) & set(bound)
    assert set(quncert.__all__) <= set(names)


# (argv, exit status): a pass, an inconclusive report, bad input, and
# argparse's own exit
ENTRY_CASES = [
    (["figure", "fig3", "-d", "{tmp}"], cli.EXIT_PASS),
    (["verify", "all", "--scenario", str(DATA / "scenario_dim6.json"),
      "--report", "{tmp}/report.json"], cli.EXIT_INCONCLUSIVE),
    (["evolve", "{tmp}/missing.json"], cli.EXIT_INPUT),
    (["--version"], 0),
]
ENTRY_IDS = ["figure", "inconclusive", "missing-file", "version"]


def _collector_after_main(argv: list, *, process_entry: bool, enabled: bool = True,
                          setup: str = "") -> list:
    """[exit status, gc.get_freeze_count(), gc.isenabled()] after main() with
    sys.argv set, as the process entry calls it, or after main(argv)."""
    code = (
        "import gc, sys\n"
        "from quncert import cli\n"
        f"{setup}\n"
        f"sys.argv = ['quncert', *{argv!r}]\n"
        f"{'' if enabled else 'gc.disable()'}\n"
        "try:\n"
        f"    status = cli.main({'' if process_entry else 'sys.argv[1:]'})\n"
        "except SystemExit as exc:\n"
        "    status = exc.code"
    )
    return _probe(code, "[status, gc.get_freeze_count(), gc.isenabled()]")


@pytest.mark.parametrize("args,status", ENTRY_CASES, ids=ENTRY_IDS)
def test_the_process_entry_freezes_the_collector(tmp_path, args, status):
    """Shutdown's collections skip frozen objects, so the process ends
    without freeing its import-time cycles one at a time."""
    argv = [a.format(tmp=tmp_path) for a in args]
    got, frozen, enabled = _collector_after_main(argv, process_entry=True)
    assert (got, frozen > 0, enabled) == (status, True, True)


def test_an_interrupted_process_entry_still_freezes_the_collector():
    setup = "def interrupted(args):\n    raise KeyboardInterrupt\ncli.cmd_evolve = interrupted"
    argv = ["evolve", str(DATA / "scenario_dim6.json")]
    got, frozen, _ = _collector_after_main(argv, process_entry=True, setup=setup)
    assert (got, frozen > 0) == (cli.EXIT_INTERRUPTED, True)


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("args,status", ENTRY_CASES, ids=ENTRY_IDS)
def test_main_with_argv_leaves_the_collector_as_it_was(tmp_path, args, status, enabled):
    """A caller that keeps working after main returns passes argv."""
    argv = [a.format(tmp=tmp_path) for a in args]
    got = _collector_after_main(argv, process_entry=False, enabled=enabled)
    assert got == [status, 0, enabled]
