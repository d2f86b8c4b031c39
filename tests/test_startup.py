"""A quncert process imports only what its command runs.

Each CLI command is one fresh process, so import cost is paid on every run:
hashlib (it loads OpenSSL) is imported only to digest a scenario file, and
numpy.random only when a verify suite draws random inputs.  Output records
are NamedTuples; only the validated inputs stay dataclasses.
"""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import quncert
from quncert import cli

DATA = Path(__file__).resolve().parent / "data"
SRC = str(Path(quncert.__file__).resolve().parent.parent)


def _loaded_after(code: str) -> dict:
    """Run code in a fresh interpreter; report which watched modules it loaded."""
    probe = (
        code
        + "\nimport json, sys"
        + "\nprint(json.dumps({m: m in sys.modules for m in ('hashlib', 'numpy.random')}))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(result.stdout.splitlines()[-1])


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
    public += [obj for name, obj in vars(cli).items() if not name.startswith("_")]
    ours = [obj for obj in public if inspect.isclass(obj) and obj.__module__.startswith("quncert")]
    names = {cls.__name__ for cls in ours if dataclasses.is_dataclass(cls)}
    assert names == {"TimeGrid", "Scenario", "QubitPreset"}
