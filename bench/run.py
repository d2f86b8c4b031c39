"""Benchmark of the quncert CLI: two closed-loop workloads.

One client with one operation in flight; an operation is one or more
``quncert`` CLI invocations, each in a fresh child process and timed from
spawn to exit, as a user runs them.  Every operation's output is checked.
With ``--trace 1`` the same operations run in this process through
``quncert.cli.main`` with span-recording wrappers around each layer's public
functions (see tracing.py), and the per-layer metrics are reported instead.

    python3 bench/run.py --workload paper_presets --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload verify_scenario --smoke      # tiny sizes

Inputs come from --seed (and, for verify_scenario, a fixed pool of spectra
and populations) through this file's own numpy code, never from the library.
DEFAULT_SEED is the routine seed; HELD_OUT_SEED is kept for checking a claimed
gain on a seed that was not used while writing it.  BLAS is pinned to one
thread for this process and every child.

End-to-end metrics: op_ref.p50, the median over operations of the operation's
time divided by the mean time of the fixed reference task (reference.py) run
just before and just after it; peak_rss_mb, the median over operations of the largest
child's peak RSS; setup_s, the median time to start python and import
quncert.cli.  The raw median operation time op_s.p50, checks_per_s,
rows_per_s and fail_ratio are printed but not gated; failed operations show
in the result's ``failed`` count.  op_ref.p50 is gated instead of op_s.p50
because a shared host's speed can drift by a third within minutes, which moves
op_s.p50 between runs of the same code by more than any useful bound, while it
slows the operation and the reference task alike.

Human-readable sections (machine, output checks, metrics with units) come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Operation outputs go to
bench/.work/<workload>/; the full result and the gzipped spans of the last
run of each workload go to bench/.work/.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.py"

DEFAULT_SEED = 1
HELD_OUT_SEED = 97
MIN_OPS = 3
MAX_TRACED_OPS = 3
POOL_SEED = 0  # verify_scenario's pool of spectra and populations; independent of --seed
POOL = 4
ENTRY = "import sys; from quncert.cli import main; sys.exit(main())"

END_TO_END = {
    "op_ref.p50": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# ------------------------------------------------------------------ inputs


def _hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T) / math.sqrt(dim)


def _state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _pairs(array):
    return np.stack([array.real, array.imag], axis=-1).tolist()


def _write_scenario(path, seed, dim, steps, spectrum, populations):
    """Seeded scenario with a given spectrum and energy populations; two periods.

    H has the eigenbasis of a seeded Gaussian Hermitian matrix (Haar
    distributed) and the given eigenvalues; the two observables are seeded
    Gaussian Hermitian matrices; the state has the given populations in H's
    eigenbasis and seeded uniform phases.
    """
    rng = np.random.default_rng(seed)
    basis = np.linalg.eigh(_hermitian(rng, dim))[1]
    h = (basis * spectrum) @ basis.conj().T
    h = 0.5 * (h + h.conj().T)
    observables = {f"obs{k}": _hermitian(rng, dim) for k in range(2)}
    psi = basis @ (np.sqrt(populations) * np.exp(2j * math.pi * rng.random(dim)))
    psi /= np.linalg.norm(psi)
    energies = np.linalg.eigvalsh(h)
    stop = 4.0 * math.pi / float(energies[-1] - energies[0])
    path.write_text(json.dumps({
        "hbar": 1.0,
        "hamiltonian": _pairs(h),
        "initial_state": _pairs(psi),
        "time": {"start": 0.0, "stop": stop, "steps": steps},
        "observables": {name: _pairs(m) for name, m in observables.items()},
    }))


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# --------------------------------------------------------------- workloads


class PaperPresets:
    """``verify all --seed S`` then ``figure fig1|fig2|fig3`` into a fresh dir."""

    ok_exits = {0}

    def __init__(self, seed, smoke, work):
        fixture = json.loads((HERE / "paper_presets.json").read_text())
        suite, figures = ("mt", ("fig3",)) if smoke else ("all", ("fig1", "fig2", "fig3"))
        self.report = work / "report.json"
        self.figdir = work / "figures"
        self.argvs = [["verify", suite, "--seed", str(seed), "--report", str(self.report)]]
        self.argvs += [["figure", f, "-d", str(self.figdir)] for f in figures]
        self.names = [
            n for n in fixture["check_names"] if suite == "all" or n.startswith(suite + ".")
        ]
        self.lines = {
            f: n for f, n in fixture["figure_lines"].items() if f.startswith(figures)
        }
        self.captions = fixture["coherence_captions"]
        self.golden = fixture["golden_digests"] if not smoke else {}
        self.seed = seed
        self.first_report = None
        self.info = []

    def reset(self, k):
        shutil.rmtree(self.figdir, ignore_errors=True)
        self.report.unlink(missing_ok=True)

    def check(self):
        problems = []
        data = self.report.read_bytes()
        checks = json.loads(data)["checks"]
        if any(c["verdict"] == "fail" for c in checks):
            problems.append("report has a fail verdict")
        if [c["name"] for c in checks] != self.names:
            problems.append(f"report check names differ from the {len(self.names)} expected")
        if self.first_report is None:
            self.first_report = data
        elif data != self.first_report:
            problems.append("report bytes differ from the first operation's")
        found = sorted(p.name for p in self.figdir.iterdir())
        if found != sorted(self.lines):
            problems.append(f"figure files {found} != expected {sorted(self.lines)}")
            return problems, len(checks), 0
        rows = 0
        for name in found:
            text = (self.figdir / name).read_text()
            lines = text.splitlines()
            rows += len(lines) - 1
            if len(lines) != self.lines[name]:
                problems.append(f"{name}: {len(lines)} lines, expected {self.lines[name]}")
            header = lines[0].split(",")
            if "coherence" in header:
                col = header.index("coherence")
                caption = self.captions[name[:-4]]
                worst = max(abs(float(line.split(",")[col]) - caption) for line in lines[1:])
                if worst > 5e-4:
                    problems.append(f"{name}: coherence is {worst:.3g} off the caption {caption}")
        if not self.info and self.golden:
            self.info = [
                "report digest " + _digest(data) + (
                    "" if self.seed != 42 else
                    f" (golden {self.golden['report_seed42']}, seed 42)"
                ),
                "figure CSV digest "
                + _digest(b"".join((self.figdir / n).read_bytes() for n in found))
                + f" (golden {self.golden['figures']})",
            ]
        return problems, len(checks), rows


class VerifyScenario:
    """``verify all --scenario F`` on seeded dim-24 Gaussian scenarios.

    Operation k gets its own scenario, seeded by (seed, k): eigenbasis,
    observables and the phases of the state.  Its spectrum and the state's
    populations in the eigenbasis are the (k mod POOL)-th entry of a fixed
    pool drawn from a Gaussian matrix and a Gaussian state, the same for every
    seed.  The search's cost depends on these two alone (the number of scanned
    minima varies about fourfold between Gaussian spectra and by about a fifth
    between populations at a fixed spectrum), so operation k costs the same
    for every seed and runs with different seeds do the same mix of work.
    """

    ok_exits = {0, 3}  # 3: inconclusive orthogonalization search, expected

    def __init__(self, seed, smoke, work):
        self.seed, self.work = seed, work
        self.dim, self.steps = (6, 200) if smoke else (24, 1000)
        self.report = work / "report.json"
        self.info = [f"scenarios dim {self.dim}, {self.steps} grid points, 2 observables, "
                     f"one per operation, spectra and populations from a pool of {POOL}"]

    def reset(self, k):
        scenario = self.work / f"scenario{k}.json"
        if not scenario.exists():
            pool = np.random.default_rng([POOL_SEED, k % POOL])
            spectrum = np.linalg.eigvalsh(_hermitian(pool, self.dim))
            populations = np.abs(_state(pool, self.dim)) ** 2
            _write_scenario(scenario, [self.seed, k], self.dim, self.steps,
                            spectrum, populations)
        self.argvs = [["verify", "all", "--scenario", str(scenario), "--report", str(self.report)]]
        self.report.unlink(missing_ok=True)

    def check(self):
        checks = json.loads(self.report.read_text())["checks"]
        fails = [c["name"] for c in checks if c["verdict"] == "fail"]
        return ([f"fail verdicts: {fails}"] if fails else []), len(checks), 0


WORKLOADS = {
    "paper_presets": PaperPresets,
    "verify_scenario": VerifyScenario,
}

# ---------------------------------------------------------------- running


def _spawn(args, env, err_path):
    """Run a child python; return (seconds, peak RSS in MB, exit code, stderr)."""
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.DEVNULL, stderr=err,
            env=env, cwd=ROOT,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode, err_path.read_text(errors="replace")


def _op_problems(op, exits, stderrs):
    problems = [f"exit code {code}" for code in exits if code not in op.ok_exits]
    problems += ["traceback" for err in stderrs if "Traceback (most recent call last)" in err]
    if problems:
        return problems, 0, 0
    try:
        return op.check()
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"output unreadable: {exc!r}"], 0, 0


def run_untraced(op, seconds, work, log):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    err = work / "stderr.txt"

    def spawn_checked(args, what):
        s, _, code, text = _spawn(args, env, err)
        if code != 0:
            raise SystemExit(f"{what} failed:\n{text}")
        return s

    def import_cli():
        return spawn_checked(["-c", "import quncert.cli"], "importing quncert.cli")

    def reference():
        return spawn_checked([str(REFERENCE)], "the reference task")

    # The first import compiles and caches the bytecode, so no op is a warm-up.
    # Set-up is timed once per op, so that its median spans the run like the
    # ops' does.  The reference task runs before every op and once after the
    # last, so each op is bracketed by two reference times taken in the
    # machine state around it.
    import_cli()
    setup = []
    refs = []
    ops = []  # (seconds, rss_mb, problems, checks, rows)
    deadline = time.perf_counter() + seconds
    while len(ops) < MIN_OPS or time.perf_counter() < deadline:
        op.reset(len(ops))
        setup.append(import_cli())
        refs.append(reference())
        runs = [_spawn(["-c", ENTRY, *argv], env, err) for argv in op.argvs]
        result = _op_problems(op, [r[2] for r in runs], [r[3] for r in runs])
        ops.append((sum(r[0] for r in runs), max(r[1] for r in runs), *result))
        log(f"op {len(ops)}: {ops[-1][0]:.3f} s (reference before {refs[-1]:.3f} s), "
            f"{ops[-1][1]:.1f} MB, "
            + ("ok" if not result[0] else "FAILED " + "; ".join(result[0])))
    refs.append(reference())

    wall = sum(o[0] for o in ops)
    checks = sum(o[3] for o in ops)
    rows = sum(o[4] for o in ops)
    failed = sum(1 for o in ops if o[2])
    metrics = {
        "op_ref.p50": statistics.median(
            o[0] / (0.5 * (refs[k] + refs[k + 1])) for k, o in enumerate(ops)
        ),
        "peak_rss_mb": statistics.median(o[1] for o in ops),
        "setup_s": statistics.median(setup),
    }
    extra = {
        "op_s.p50": (statistics.median(o[0] for o in ops), "s"),
        "op_s.samples": (len(ops), "count"),
        "reference_s.p50": (statistics.median(refs), "s"),
        "checks_per_s": (checks / wall, "1/s"),
        "rows_per_s": (rows / wall, "1/s"),
        "fail_ratio": (failed / len(ops), "ratio"),
        "setup_s.samples": (len(setup), "count"),
    }
    return metrics, extra, len(ops), failed


def run_traced(op, seconds, work, log):
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("quncert.cli")
    if Path(cli.__file__).resolve().parent != SRC / "quncert":
        raise SystemExit(f"imported quncert from {cli.__file__}, not {SRC}")

    def in_process(k):
        op.reset(k)
        exits, errors = [], []
        for argv in op.argvs:
            sink = io.StringIO()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    exits.append(cli.main(argv))
            except SystemExit as exc:
                exits.append(exc.code)
            except Exception:
                errors.append(traceback.format_exc())
        return _op_problems(op, exits, errors)[0]

    def timed(fn, k):
        start = time.perf_counter()
        problems = fn(k)
        return time.perf_counter() - start, problems

    tracer = tracing.Tracer()

    def traced_op(k):
        tracer.op_id = k
        with tracer:
            return in_process(k)

    # Pair k runs operation k untraced and traced (same inputs, same work),
    # alternating which goes first so that drift in machine speed cancels.
    problems = [in_process(0)]  # warm-up
    untraced, traced = [], []
    while not traced or (sum(untraced) + sum(traced) < seconds and len(traced) < MAX_TRACED_OPS):
        k = len(traced)
        order = ((in_process, untraced), (traced_op, traced))
        for fn, times in order if k % 2 == 0 else order[::-1]:
            s, p = timed(fn, k)
            times.append(s)
            problems.append(p)
        log(f"pair {k}: untraced {untraced[-1]:.3f} s, traced {traced[-1]:.3f} s")

    op_ids = list(range(len(traced)))
    metrics = tracing.per_layer(tracer.spans, op_ids)
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / statistics.median(untraced)

    # Self-test: a binding the wrappers missed shows as fewer traced calls.
    profile_problems = []
    counts = tracing.profile_calls(lambda: profile_problems.extend(in_process(op_ids[-1])))
    problems.append(profile_problems)
    last = tracing.per_layer(tracer.spans, op_ids[-1:])
    mismatched = {
        name: (int(last[f"{name}.calls"]), count)
        for name, count in counts.items() if last[f"{name}.calls"] != count
    }
    log("traced calls match cProfile call counts" if not mismatched
        else f"MISMATCH traced vs cProfile calls: {mismatched}")

    spans_path = WORK / f"spans-{work.name}.jsonl.gz"
    tracer.write_spans(spans_path)
    log(f"{len(tracer.spans)} spans written to {spans_path}")
    failed = sum(1 for p in problems if p)
    for i, p in enumerate(problems):
        if p:
            log(f"in-process op {i} FAILED: " + "; ".join(p))
    extra = {"trace.untraced_op_s": (statistics.median(untraced), "s"),
             "trace.traced_op_s": (statistics.median(traced), "s")}
    return metrics, extra, len(problems), failed, not mismatched


# ---------------------------------------------------------------- report


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": "1 (OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=MKL_NUM_THREADS=1, "
                        "this process and every child)",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long to measure (at least %d timed ops)" % MIN_OPS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    # A terminated run still kills and reaps the child it is waiting for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "quncert" / "cli.py").is_file():
        print(f"error: no quncert sources under {SRC}", file=sys.stderr)
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    op = WORKLOADS[args.workload](args.seed, args.smoke, work)

    print(f"# quncert benchmark: {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}{', smoke' if args.smoke else ''}")
    info = machine(args.seed)
    print("## machine")
    for key, value in info.items():
        print(f"  {key}: {value}")
    print("## operations and output checks")
    log = lambda line: print("  " + line, flush=True)  # noqa: E731

    if args.trace:
        metrics, extra, attempted, failed, counts_ok = run_traced(op, args.seconds, work, log)
        units = tracing.per_layer_units()
    else:
        metrics, extra, attempted, failed = run_untraced(op, args.seconds, work, log)
        counts_ok = True
        units = END_TO_END
    for line in op.info:
        log(line)

    print("## metrics")
    for name, unit in units.items():
        print(f"  {name:<48} {metrics[name]:.6g} {unit}")
    for name, (value, unit) in extra.items():
        print(f"  {name:<48} {value:.6g} {unit}  (not gated)")

    correct = failed == 0 and counts_ok
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(
        {**result, "machine": info, "extra": extra, "info": op.info}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
