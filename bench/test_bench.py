"""Self-test of the benchmark at smoke sizes.

    python3 -m pytest -q bench/test_bench.py

Not part of the repository's test suite (pytest collects tests/ only).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout[-3000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_spec_matches_the_script():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.per_layer_units()
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                  "--trace", str(trace), "--smoke")
    metrics = _result(proc)["metrics"]
    expected = run.END_TO_END if trace == 0 else tracing.per_layer_units()
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    if trace == 0:
        assert all(m["value"] > 0 for m in metrics.values())
    else:
        assert metrics["cli.main.calls"]["value"] >= 1
        assert "traced calls match cProfile call counts" in proc.stdout


def _smoke_op(workload, work):
    work.mkdir(parents=True, exist_ok=True)
    return run.WORKLOADS[workload](5, True, work)


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(run.SRC))
    from quncert import cli as module
    return module


def test_wrappers_replace_every_binding(cli):
    originals = tracing.targets()
    modules = [m for k, m in sys.modules.items() if k == "quncert" or k.startswith("quncert.")]
    copies = sum(
        1 for m in modules for v in vars(m).values() if any(v is f for f in originals.values())
    )
    with tracing.Tracer() as tracer:
        assert len(tracer._patches) == copies
        for m in modules:
            for value in vars(m).values():
                assert not any(value is f for f in originals.values())
        # copies made by `from .hilbert import eigendecompose` and friends
        assert cli.eigendecompose is sys.modules["quncert.dynamics"].eigendecompose
        assert cli.eigendecompose is not originals["hilbert.eigendecompose"]
    assert cli.eigendecompose is originals["hilbert.eigendecompose"]


def _calls(cli, op, tracer):
    def in_process():
        op.reset(0)
        for argv in op.argvs:
            cli.main(argv)

    counts = tracing.profile_calls(in_process)
    tracer.op_id += 1
    with tracer:
        in_process()
    traced = tracing.per_layer(tracer.spans, [tracer.op_id])
    return counts, {name: traced[f"{name}.calls"] for name in counts}


def test_traced_calls_equal_cprofile_counts(cli):
    op = _smoke_op("verify_scenario", HERE / ".work" / "selftest")
    counts, traced = _calls(cli, op, tracing.Tracer())
    assert traced == counts
    assert counts["hilbert.eigendecompose"] > 1 and counts["cli.main"] == 1


def test_a_missed_binding_shows_as_a_count_mismatch(cli, monkeypatch):
    op = _smoke_op("verify_scenario", HERE / ".work" / "selftest")
    tracer = tracing.Tracer()
    original = tracing.targets()["hilbert.eigendecompose"]
    enter = tracing.Tracer.__enter__

    def leaky_enter(self):
        enter(self)
        sys.modules["quncert.uncertainty"].eigendecompose = original
        return self

    monkeypatch.setattr(tracing.Tracer, "__enter__", leaky_enter)
    counts, traced = _calls(cli, op, tracer)
    assert traced["hilbert.eigendecompose"] < counts["hilbert.eigendecompose"]


def test_refuses_to_run_without_the_sources():
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "bench")
    try:
        proc = _bench("--workload", "verify_scenario", "--seconds", "1", "--trace", "0",
                      cwd=bare, script=bare / "bench" / "run.py")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
