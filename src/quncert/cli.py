"""Command line interface.

Subcommands:
    evolve <scenario.json> [-o out.csv]     sample a trajectory to CSV
    figure <fig1|fig2|fig3> [-d outdir]     emit per-panel CSV data
    verify <suite> [--scenario path] [--seed N] [--report out]

Exit codes: 0 all checks pass, 1 check failure, 2 input error,
3 inconclusive (orthogonalization search found nothing either way),
4 numerical failure (the eigensolver did not converge), 130 interrupted
(Ctrl-C), 141 the reader of the output closed its pipe early.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__, dynamics, hilbert


def _lazy_layer(name: str):
    """quncert.<name>, registered now and executed on first attribute access.

    ``evolve`` and ``verify --scenario`` run no qubit, and only ``verify``
    runs uncertainty.  A layer already in sys.modules is returned as it is,
    so patches made on it stay in effect.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


qubit = _lazy_layer("qubit")
_lazy_layer("uncertainty")  # registered for tools that find each layer in sys.modules

DEFAULT_SEED = 42
# the verify suites in report order; quncert.verify maps each to its analysis
VERIFY_SUITES = (
    "conservation", "offset", "ehrenfest", "robertson", "schrodinger", "mt", "ml", "qsl", "all",
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_NUMERIC = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports a process Ctrl-C stopped
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer a closed pipe stopped


class ScenarioFormatError(ValueError):
    """Scenario file rejected; the message names the offending entry."""


# ---------------------------------------------------------------- scenario io

def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        raise ScenarioFormatError(
            f"{where}: value must be finite, got an integer of {len(str(abs(value)))} digits"
        ) from None
    if not math.isfinite(number):
        raise ScenarioFormatError(f"{where}: value must be finite, got {value!r}")
    return number


def _as_complex(value, where: str) -> complex:
    if not (isinstance(value, list) and len(value) == 2):
        raise ScenarioFormatError(
            f"{where}: expected a [re, im] pair, got {value!r}"
        )
    return complex(_as_number(value[0], where), _as_number(value[1], where))


def _as_complex_matrix(value, where: str) -> np.ndarray:
    """Read row by row, each row's length checked before its entries, so the
    first fault in reading order is the one named."""
    if not (isinstance(value, list) and value):
        raise ScenarioFormatError(f"{where}: expected a nonempty matrix")
    n = len(value)
    rows = []
    for i, row in enumerate(value):
        if not (isinstance(row, list) and len(row) == n):
            raise ScenarioFormatError(f"{where}[{i}]: expected a row of {n} entries")
        rows.append([_as_complex(entry, f"{where}[{i}][{j}]") for j, entry in enumerate(row)])
    return np.array(rows, dtype=np.complex128)


def _as_complex_vector(value, where: str) -> np.ndarray:
    if not (isinstance(value, list) and value):
        raise ScenarioFormatError(f"{where}: expected a nonempty vector")
    entries = [_as_complex(entry, f"{where}[{i}]") for i, entry in enumerate(value)]
    return np.array(entries, dtype=np.complex128)


def _require_keys(value: dict, where: str, required, optional=()) -> None:
    """Refuse a JSON object that lacks a required key or holds an unknown one."""
    for key in required:
        if key not in value:
            raise ScenarioFormatError(f"{where}: missing required key {key!r}")
    unknown = set(value) - {*required, *optional}
    if unknown:
        raise ScenarioFormatError(f"{where}: unknown keys {sorted(unknown)!r}")


def load_scenario(path: str) -> dynamics.Scenario:
    """Parse and validate a scenario file (JSON with [re, im] complex pairs)."""
    return _load_scenario(path)[1]


def _load_scenario(path: str) -> tuple[bytes, dynamics.Scenario]:
    """The file's bytes, read once, and the Scenario parsed from them."""

    def one_value_per_key(pairs) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ScenarioFormatError(f"{path}: repeated key {key!r}")
            obj[key] = value
        return obj

    try:
        with open(path, "rb") as fh:
            data = fh.read()
        # decoded as a text-mode read decodes, universal newlines included
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        raw = json.load(text, object_pairs_hook=one_value_per_key)
    except ScenarioFormatError:
        raise
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    except ValueError as exc:
        # int() refuses a literal of more digits than sys.get_int_max_str_digits()
        raise ScenarioFormatError(
            f"{path}: an integer literal has more digits than the parser accepts"
        ) from exc

    if not isinstance(raw, dict):
        raise ScenarioFormatError(f"{path}: top level must be an object")
    _require_keys(raw, path, ("hbar", "hamiltonian", "initial_state", "time"), ("observables",))

    hbar = _as_number(raw["hbar"], "hbar")
    hamiltonian = _as_complex_matrix(raw["hamiltonian"], "hamiltonian")
    state = _as_complex_vector(raw["initial_state"], "initial_state")

    time = raw["time"]
    if not isinstance(time, dict):
        raise ScenarioFormatError("time: expected an object {start, stop, steps}")
    _require_keys(time, "time", ("start", "stop", "steps"))
    steps = time["steps"]
    if isinstance(steps, bool) or not isinstance(steps, int):
        raise ScenarioFormatError(f"time.steps: expected an integer, got {steps!r}")

    observables = {}
    raw_obs = raw.get("observables", {})
    if not isinstance(raw_obs, dict):
        raise ScenarioFormatError("observables: expected an object of matrices")
    for name, matrix in raw_obs.items():
        observables[name] = _as_complex_matrix(matrix, f"observables[{name!r}]")

    try:
        grid = dynamics.TimeGrid(
            _as_number(time["start"], "time.start"),
            _as_number(time["stop"], "time.stop"),
            steps,
        )
        return data, dynamics.Scenario(
            hbar=hbar,
            hamiltonian=hamiltonian,
            initial_state=state,
            time_grid=grid,
            observables=observables,
        )
    except ValueError as exc:
        raise ScenarioFormatError(f"{path}: {exc}") from exc


# ------------------------------------------------------------------ csv output

def format_value(x: float) -> str:
    """17 significant digits, scientific; infinities as the literal 'inf'."""
    return f"{x:.16e}"


def _open_csv(path: str):
    return open(path, "w", encoding="utf-8", newline="")


# rows formatted per chunk, so the text of a long grid is never held at once
_ROW_CHUNK = 4096


def _write_rows(fh, header: list[str], columns, kinds=None) -> None:
    """Header line, then one row per index over the stacked float columns.

    Floats render as format_value renders them; ``kinds``, when given, is a
    trailing text column.  Conserved columns repeat a few values, so each
    chunk formats its distinct values once.  They are told apart by their bit
    patterns, never by ==, which would merge 0.0 and -0.0.
    """
    table = np.column_stack(columns).astype(np.float64, copy=False)
    fh.write(",".join(header) + "\n")
    for start in range(0, len(table), _ROW_CHUNK):
        block = table[start : start + _ROW_CHUNK]
        bits, inverse = np.unique(block.view(np.int64).ravel(), return_inverse=True)
        distinct = bits.view(np.float64).tolist()
        # one C-level format of every distinct value; "%.16e" never emits a comma
        text = (",".join(["%.16e"] * len(distinct)) % tuple(distinct)).split(",")
        rows = np.array(text, dtype=object)[inverse.reshape(block.shape)].tolist()
        if kinds is None:
            fh.writelines(",".join(row) + "\n" for row in rows)
        else:
            chunk_kinds = kinds[start : start + _ROW_CHUNK]
            fh.writelines(",".join(row) + f",{kind}\n" for row, kind in zip(rows, chunk_kinds))


def write_trajectory_csv(trajectory: dynamics.Trajectory, fh) -> None:
    header, columns = ["t"], [trajectory.times]
    for name, series in trajectory.observables.items():
        header += [f"{name}_mean", f"{name}_std"]
        columns += [series.mean, series.stddev]
    header += ["energy_mean", "energy_std", "coherence", "predictability"]
    columns += [
        trajectory.energy.mean,
        trajectory.energy.stddev,
        trajectory.coherence,
        trajectory.predictability,
    ]
    _write_rows(fh, header, columns)


# ----------------------------------------------------------------- randomness

def _gaussian_hermitian(normals: np.ndarray) -> np.ndarray:
    """0.5 (m + m^H) / sqrt(d) for m = re + i im, re and im on axis -3 of
    a (..., 2, d, d) stack of standard normals."""
    m = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    return 0.5 * (m + np.swapaxes(m.conj(), -1, -2)) / math.sqrt(m.shape[-1])


def _gaussian_state(normals: np.ndarray) -> np.ndarray:
    """v / ||v|| for v = re + i im, re and im on axis -2 of a (..., 2, d)
    stack of standard normals."""
    v = normals[..., 0, :] + 1j * normals[..., 1, :]
    # the dot products run on the strided .real/.imag views, as in
    # np.linalg.norm; on contiguous copies they can round differently
    norm = np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))
    return v / norm[..., np.newaxis]


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Gaussian Hermitian matrix with entries of order one."""
    return _gaussian_hermitian(rng.standard_normal((2, dim, dim)))


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _gaussian_state(rng.standard_normal((2, dim)))


# -------------------------------------------------------------------- commands

def cmd_evolve(args) -> int:
    scenario = load_scenario(args.scenario)
    trajectory = dynamics.evolve(scenario, store_states=False)
    if args.output is None:
        write_trajectory_csv(trajectory, sys.stdout)
    else:
        with _open_csv(args.output) as fh:
            write_trajectory_csv(trajectory, fh)
    return EXIT_PASS


def _write_figure_panel(figure: str, panel: str, outdir: str) -> list[str]:
    preset = qubit.FIGURE_PRESETS[panel]
    path = os.path.join(outdir, f"{panel}.csv")
    observables = None
    if figure == "fig1":
        plus, minus = qubit.spin_projectors("z")
        observables = {"proj_up_z": plus, "proj_down_z": minus}
    s = qubit.qubit_scenario(preset, observables)
    trajectory = dynamics.evolve(s, store_states=figure == "fig3")
    with _open_csv(path) as fh:
        if figure == "fig3":
            # Mandelstam-Tamm timescale and product, in 1/omega and hbar/2 units
            _, delta_t, product = dynamics._trajectory_mt(s, trajectory, "sx")
            columns = [trajectory.times, delta_t * preset.omega, product / (0.5 * preset.hbar)]
            _write_rows(fh, ["t", "delta_t", "product"], columns)
        else:
            write_trajectory_csv(trajectory, fh)
    if figure != "fig2":
        return [path]
    try:
        report = qubit.tick_tock(trajectory, "sx")
    except ValueError:
        return [path]  # panel without a clock signal gets no annotations
    ticks_path = os.path.join(outdir, f"{panel}_ticks.csv")
    times, kinds = zip(*report.extrema)
    with _open_csv(ticks_path) as fh:
        _write_rows(fh, ["time", "kind"], [times], kinds)
    return [path, ticks_path]


def cmd_figure(args) -> int:
    os.makedirs(args.outdir, exist_ok=True)
    for panel in [p for p in qubit.FIGURE_PRESETS if p.startswith(args.figure)]:
        for path in _write_figure_panel(args.figure, panel, args.outdir):
            print(path)
    return EXIT_PASS


def main(argv=None) -> int:
    """Run one command and return its exit status.

    Called without ``argv``, as the process entry is, main reads sys.argv and
    ends by freezing the collector, on every exit path: at shutdown CPython's
    collections then skip the objects of the import-time reference cycles
    (modules, classes, functions), whose memory the OS reclaims at once,
    instead of freeing them one at a time.  A caller that keeps working after
    main returns passes ``argv``, and the collector is left as it was found.
    """
    parser = argparse.ArgumentParser(
        prog="quncert",
        description="Closed-system quantum dynamics and time-energy uncertainty checks.",
    )
    parser.add_argument("--version", action="version", version=f"quncert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_evolve = sub.add_parser("evolve", help="sample a scenario trajectory to CSV")
    p_evolve.add_argument("scenario", help="scenario JSON file")
    p_evolve.add_argument("-o", "--output", help="output CSV path (default stdout)")

    p_figure = sub.add_parser("figure", help="emit per-panel CSV data for a figure")
    p_figure.add_argument("figure", choices=("fig1", "fig2", "fig3"))
    p_figure.add_argument("-d", "--outdir", default=".", help="output directory")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=VERIFY_SUITES)
    p_verify.add_argument("--scenario", help="scenario JSON to verify instead of presets")
    p_verify.add_argument("--seed", type=int, help=f"rng seed (default {DEFAULT_SEED})")
    p_verify.add_argument("--report", help="write the JSON report here instead of stdout")

    try:
        args = parser.parse_args(argv)
        if args.command == "verify":
            from . import verify  # only this command compiles and runs the suites
            status = verify.cmd_verify(args)
        else:
            status = cmd_evolve(args) if args.command == "evolve" else cmd_figure(args)
        if sys.stdout is not None:  # a closed pipe raises here, not at exit
            sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader stopped early, as `| head` does; what stdout still buffers
        # goes to devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    # MemoryError: an input whose arrays cannot be allocated, such as 1e18 steps
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except hilbert.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
