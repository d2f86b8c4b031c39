"""Command line interface.

Subcommands:
    evolve <scenario.json> [-o out.csv]     sample a trajectory to CSV
    figure <fig1|fig2|fig3> [-d outdir]     emit per-panel CSV data
    verify <suite> [--scenario path] [--seed N] [--report out]

Exit codes: 0 all checks pass, 1 check failure, 2 input error,
3 inconclusive (orthogonalization search found nothing either way),
4 numerical failure (the eigensolver did not converge).
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import io
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import __version__, dynamics
from .hilbert import ConvergenceError


def _lazy_layer(name: str):
    """quncert.<name>, registered now and executed on first attribute access.

    ``evolve`` runs neither qubit nor uncertainty, ``figure fig1|fig2`` no
    uncertainty and ``verify --scenario`` no qubit.  A layer already in
    sys.modules is returned as it is, so patches made on it stay in effect.
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
uncertainty = _lazy_layer("uncertainty")

DEFAULT_SEED = 42
SEED_ENV_VAR = "QUNCERT_SEED"
OFFSET_VALUES = (-5.0, 0.5, 7.3)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_NUMERIC = 4


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


def _is_pair(entry) -> bool:
    """A [re, im] list of two JSON numbers (int or float, never bool)."""
    return (
        type(entry) is list
        and len(entry) == 2
        and type(entry[0]) in (int, float)
        and type(entry[1]) in (int, float)
    )


def _pairs_at_once(entries: list, names) -> np.ndarray:
    """The [re, im] pairs parsed from JSON as one flat complex array.

    One numpy conversion keeps every bit of the floats that float() gives,
    signed zeros included.  When some entry is not a pair of finite numbers,
    the first such entry raises the ScenarioFormatError of _as_complex, under
    its path from ``names``.
    """
    values = None
    if all(map(_is_pair, entries)):
        try:
            values = np.array(entries, dtype=np.float64)
        except OverflowError:  # an integer literal beyond the float range
            pass
    if values is None or not np.isfinite(values).all():
        for entry, where in zip(entries, names):
            _as_complex(entry, where)
    return values.view(np.complex128).reshape(-1)


def _as_complex_matrix(value, where: str) -> np.ndarray:
    if not (isinstance(value, list) and value):
        raise ScenarioFormatError(f"{where}: expected a nonempty matrix")
    n = len(value)
    names = (f"{where}[{i}][{j}]" for i in range(n) for j in range(n))
    entries = []
    for i, row in enumerate(value):
        if not (isinstance(row, list) and len(row) == n):
            _pairs_at_once(entries, names)  # a fault in an earlier row comes first
            raise ScenarioFormatError(f"{where}[{i}]: expected a row of {n} entries")
        entries += row
    return _pairs_at_once(entries, names).reshape(n, n)


def _as_complex_vector(value, where: str) -> np.ndarray:
    if not (isinstance(value, list) and value):
        raise ScenarioFormatError(f"{where}: expected a nonempty vector")
    return _pairs_at_once(value, (f"{where}[{i}]" for i in range(len(value))))


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

# Triples the fuzz draws per standard_normal call (a divisor of 1000). Drawing
# all 1000 at once raises the fuzz's tracemalloc peak from ~2 MB to ~6 MB.
_FUZZ_BLOCK = 100


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


def random_scenario(rng: np.random.Generator, dim: int) -> dynamics.Scenario:
    """Seeded random H, state and two observables on the default grid."""
    h = random_hermitian(rng, dim)
    observables = {f"obs{k}": random_hermitian(rng, dim) for k in range(2)}
    return dynamics._on_default_grid(1.0, h, random_state(rng, dim), observables)


def _fuzz_triples(rng: np.random.Generator, dim: int):
    """1000 (A, B, psi) triples, the same arrays and stream as 1000 rounds of
    random_hermitian, random_hermitian, random_state."""
    a = np.empty((1000, dim, dim), dtype=np.complex128)
    b = np.empty_like(a)
    psi = np.empty((1000, dim), dtype=np.complex128)
    split = 4 * dim * dim  # each triple draws Re A, Im A, Re B, Im B, Re psi, Im psi
    for start in range(0, 1000, _FUZZ_BLOCK):
        rows = slice(start, start + _FUZZ_BLOCK)
        normals = rng.standard_normal((_FUZZ_BLOCK, split + 2 * dim))
        pair = _gaussian_hermitian(normals[:, :split].reshape(_FUZZ_BLOCK, 2, 2, dim, dim))
        a[rows], b[rows] = pair[:, 0], pair[:, 1]
        psi[rows] = _gaussian_state(normals[:, split:].reshape(_FUZZ_BLOCK, 2, dim))
    return a, b, psi


# -------------------------------------------------------------- verify checks

class Check(NamedTuple):
    """One verified inequality; pass means slack = lhs - rhs >= 0."""

    name: str
    lhs: float
    rhs: float
    slack: float
    verdict: str  # "pass" | "fail" | "inconclusive"


def check_min(name: str, value: float, floor: float) -> Check:
    """Pass when value >= floor."""
    slack = value - floor
    return Check(name, value, floor, slack, "pass" if slack >= 0 else "fail")


def check_max(name: str, value: float, ceiling: float) -> Check:
    """Pass when value <= ceiling."""
    slack = ceiling - value
    return Check(name, ceiling, value, slack, "pass" if slack >= 0 else "fail")


def check_bool(name: str, ok: bool) -> Check:
    lhs = 1.0 if ok else 0.0
    return Check(name, lhs, 1.0, lhs - 1.0, "pass" if ok else "fail")


def check_inconclusive(name: str, min_observed: float) -> Check:
    return Check(name, min_observed, 0.0, 0.0, "inconclusive")


@functools.cache
def _presets() -> dict:
    """The figure presets, and a qubit whose upper level strictly dominates."""
    return {
        **qubit.FIGURE_PRESETS,
        "dominant95": qubit._preset(0.95, 0.05),
    }


def _suite_evolution(scenario, rng, presets) -> dict[str, list[Check]]:
    """Conservation, offset and Mandelstam-Tamm checks from one evolution of each target.

    On a scenario: the scenario, for all three.  Otherwise: conservation on
    every figure preset and 10 seeded random scenarios, offsets on fig2A-D,
    whose conservation drift reads the base trajectory of the offset check,
    and Mandelstam-Tamm on fig2D, fig3AB and fig3CD, which read it too.
    """
    if scenario is not None:
        targets = {"scenario": scenario}
        offset_targets = {"scenario"}
        mt_checks = {"scenario": _mt_scenario_checks}
    else:
        targets = {name: presets[name] for name in qubit.FIGURE_PRESETS}
        for k in range(10):
            dim = 2 + k % 5
            targets[f"random{k}.dim{dim}"] = random_scenario(rng, dim)
        offset_targets = {"fig2A", "fig2B", "fig2C", "fig2D"}
        mt_checks = dict.fromkeys(("fig2D", "fig3AB", "fig3CD"), _mt_preset_checks)
    conservation, offset, mt = [], [], []
    for name, s in targets.items():
        offsets = OFFSET_VALUES if name in offset_targets else ()
        trajectory, reports = dynamics._offset_comparison(s, offsets)
        drift = dynamics.check_conservation(trajectory)
        if name in mt_checks:
            mt += mt_checks[name](name, s, trajectory)
        del trajectory  # freed before the next target evolves, which lowers the peak RSS
        conservation.append(
            check_max(f"conservation.{name}.max_drift", drift.max_drift, drift.tolerance)
        )
        for report in reports:
            worst = max(
                report.max_observable_diff,
                report.max_phase_defect,
                report.max_energy_shift_defect,
            )
            offset.append(
                check_max(f"offset.{name}.E0={report.offset}", worst, report.tolerance)
            )
    return {"conservation": conservation, "offset": offset, "mt": mt}


def _halving_checks(label: str, s, observable, t, step, coarse) -> list[Check]:
    """Ratio of the residual at ``step`` (``coarse``) to the one at step/2.

    Truncation error puts the ratio near 4.  A halved residual at or below
    the rounding floor of the centred difference, 1000 d eps ||A||_2 / (step/2),
    is rounding noise with no ratio to report, so one check records that.
    """
    fine_step = step / 2.0
    fine = dynamics._ehrenfest_residual(observable, s, t, fine_step)
    eps = np.finfo(np.float64).eps
    floor = 1000.0 * s.dim * eps * float(np.linalg.norm(observable, 2)) / fine_step
    if fine <= floor:
        return [check_max(f"ehrenfest.{label}.residual_at_rounding_floor", fine, floor)]
    ratio = coarse / fine
    return [
        check_min(f"ehrenfest.{label}.halving_ratio_low", ratio, 3.5),
        check_max(f"ehrenfest.{label}.halving_ratio_high", ratio, 4.5),
    ]


def _suite_ehrenfest(scenario, rng, presets) -> dict[str, list[Check]]:
    checks = []
    if scenario is None:
        s = presets["fig2D"]
        sx = s.observables["sx"]
        probes = (0.4, 1.3, 2.9, 4.6)
        worst = max(dynamics._ehrenfest_residual(sx, s, t, 1e-4) for t in probes)
        checks.append(check_max("ehrenfest.fig2D.sx.residual@1e-4", worst, 1e-8))
        coarse = dynamics._ehrenfest_residual(sx, s, 1.3, 1e-3)
        checks += _halving_checks("fig2D.sx", s, sx, 1.3, 1e-3, coarse)
        static = max(
            dynamics._ehrenfest_residual(s.hamiltonian, s, 1.3, 1e-4),
            dynamics._ehrenfest_residual(qubit.pauli("z"), s, 1.3, 1e-4),
        )
        checks.append(check_max("ehrenfest.fig2D.static_observables", static, 1e-10))
        return {"ehrenfest": checks}

    spec = scenario.spectrum
    fd = dynamics.default_fd_step(spec, scenario.hbar)
    grid = scenario.time_grid
    span = grid.stop - grid.start
    probes = [grid.start + f * span for f in (0.2, 0.5, 0.8)]
    for name, matrix in scenario.observables.items():
        scale = max(1.0, spec.span / scenario.hbar * float(np.linalg.norm(matrix)))
        worst = max(
            dynamics._ehrenfest_residual(matrix, scenario, t, fd) for t in probes
        )
        checks.append(check_max(f"ehrenfest.{name}.residual@default", worst, 1e-6 * scale))
    if scenario.observables:
        name, matrix = next(iter(scenario.observables.items()))
        coarse_step = 1e-3 * dynamics._period(spec, scenario.hbar)
        coarse = {
            t: dynamics._ehrenfest_residual(matrix, scenario, t, coarse_step) for t in probes
        }
        t_star = max(probes, key=coarse.get)
        checks += _halving_checks(name, scenario, matrix, t_star, coarse_step, coarse[t_star])
    return {"ehrenfest": checks}


def _suite_uncertainty(scenario, rng, presets) -> dict[str, list[Check]]:
    """Robertson and Schrodinger checks from one evaluation of both bounds.

    On a scenario: its observables and H against each other, pairwise.
    Otherwise: 1000 seeded random (A, B, psi) triples for each dim 2..6.
    """
    robertson, schrodinger = [], []
    floor = -uncertainty.BOUND_SLACK_TOL
    if scenario is not None:
        names = [*scenario.observables, "energy"]
        matrices = np.stack([*scenario.observables.values(), scenario.hamiltonian])
        first, second = np.triu_indices(len(names))  # every pair i <= j, row by row
        product, rob, sch = uncertainty._pair_bounds(
            matrices[first],
            matrices[second],
            np.broadcast_to(scenario.initial_state, (first.size, scenario.dim)),
        )
        slacks = zip(first, second, (product - rob).tolist(), (product - sch).tolist())
        for i, j, rob_slack, sch_slack in slacks:
            pair = f"{names[i]}x{names[j]}"
            robertson.append(check_min(f"robertson.{pair}.slack", rob_slack, floor))
            schrodinger.append(check_min(f"schrodinger.{pair}.slack", sch_slack, floor))
        return {"robertson": robertson, "schrodinger": schrodinger}

    for dim in range(2, 7):
        product, rob, sch = uncertainty._pair_bounds(*_fuzz_triples(rng, dim))
        robertson.append(
            check_min(f"robertson.dim{dim}.min_slack", float(np.min(product - rob)), floor)
        )
        schrodinger.append(
            check_min(f"schrodinger.dim{dim}.min_slack", float(np.min(product - sch)), floor)
        )
        schrodinger.append(
            check_min(
                f"schrodinger.dim{dim}.rhs_dominates_robertson",
                float(np.min(sch - rob)),
                0.0,
            )
        )
    return {"robertson": robertson, "schrodinger": schrodinger}


def _extremum_distance(preset: qubit.QubitPreset, t: float) -> float:
    """Distance from t to the nearest turning point of <sigma_x>."""
    re, im = qubit._interference(preset)
    frac = ((t * preset.omega - math.atan2(im, re)) / math.pi) % 1.0
    return min(frac, 1.0 - frac) * math.pi / preset.omega


def _product_floor(hbar: float) -> float:
    """Mandelstam-Tamm floor hbar/2, less a rounding margin relative to hbar."""
    return 0.5 * hbar - 1e-10 * hbar


def _trajectory_mt(s, trajectory, name: str):
    """Mandelstam-Tamm rate, dT and product of ``name`` read off a trajectory of s."""
    a, delta_a = s.observables[name], trajectory.observables[name].stddev
    return uncertainty._mt_columns(a, s, trajectory.states, delta_a)


def _mt_preset_checks(name: str, s, trajectory) -> list[Check]:
    preset = _presets()[name]
    _, delta_t, product = _trajectory_mt(s, trajectory, "sx")
    finite = np.isfinite(delta_t)
    checks = [check_bool(f"mt.{name}.has_finite_samples", bool(finite.any()))]
    min_product = float(product[finite].min()) if finite.any() else math.inf
    checks.append(check_min(f"mt.{name}.min_product", min_product, _product_floor(preset.hbar)))
    flagged = trajectory.times[~finite].tolist()
    worst_flag = max((_extremum_distance(preset, t) for t in flagged), default=0.0)
    checks.append(check_max(f"mt.{name}.flags_at_extrema", worst_flag, s.time_grid.step))
    if abs(preset.coherence - 1.0) < 1e-12:
        worst_dt = float(np.abs(delta_t[finite] - 1.0 / preset.omega).max())
        worst_prod = float(np.abs(product[finite] - 0.5 * preset.hbar).max())
        checks.append(check_max(f"mt.{name}.delta_t_is_1/omega", worst_dt, 1e-9))
        checks.append(check_max(f"mt.{name}.product_is_hbar/2", worst_prod, 1e-9))
    return checks


def _mt_scenario_checks(name: str, s, trajectory) -> list[Check]:
    """The smallest finite product of each observable of a scenario file."""
    spread, floor = uncertainty._energy_spread(s)
    if spread <= floor:
        # an energy eigenstate has no Mandelstam-Tamm clock; mt_series refuses it
        return [check_max(f"mt.{name}.undefined_for_eigenstate", spread, floor)]
    checks = []
    for observable in s.observables:
        product = _trajectory_mt(s, trajectory, observable)[2]
        finite = product[np.isfinite(product)]
        value = float(finite.min()) if finite.size else math.inf
        checks.append(check_min(f"mt.{observable}.min_product", value, _product_floor(s.hbar)))
    return checks


def _preset_speed_limits(scenarios) -> dict[str, list[Check]]:
    preset, s = _presets()["fig2D"], scenarios["fig2D"]
    result = uncertainty.orthogonalization_time(s)
    bounds = uncertainty.ml_bounds(s)
    tau_expect = math.pi / preset.omega
    ml = [
        check_bool("ml.fig2D.found", result.found),
        check_max("ml.fig2D.tau_perp_is_pi/omega", abs(result.tau_perp - tau_expect), 1e-9),
        check_max(
            "ml.fig2D.spread_bound_equality",
            abs(result.tau_perp - bounds.from_energy_spread),
            1e-9,
        ),
        check_min(
            "ml.fig2D.tau_above_mean_bound", result.tau_perp - bounds.from_mean_energy, -1e-9
        ),
        check_bool(
            "ml.fig2D.unshifted_mean_bound_infinite",
            math.isinf(bounds.from_mean_energy_unshifted),
        ),
    ]
    for name, p in _presets().items():
        dominant = max(abs(p.alpha1), abs(p.alpha2)) ** 2
        # strictly dominant amplitude; the balanced presets sit at 1/2 + rounding
        if dominant <= 0.5 + 1e-12:
            continue
        res = uncertainty.orthogonalization_time(scenarios[name])
        ok = (not res.found) and res.min_overlap_bound is not None
        ml.append(check_bool(f"ml.{name}.never_orthogonal", ok))
        if ok:
            ml.append(
                check_max(
                    f"ml.{name}.certificate_bound",
                    abs(res.min_overlap_bound - (2.0 * dominant - 1.0)),
                    1e-12,
                )
            )

    qsl = []
    for name, p in qubit.FIGURE_PRESETS.items():
        if p.coherence == 0.0:
            continue
        tau = uncertainty.qsl_tau(scenarios[name])
        b = uncertainty.ml_bounds(scenarios[name])
        qsl.append(check_bool(f"qsl.{name}.finite", math.isfinite(tau)))
        expected = max(b.from_energy_spread, b.from_mean_energy)
        qsl.append(check_max(f"qsl.{name}.equals_max_bound", abs(tau - expected), 1e-12))
    tau = uncertainty.qsl_tau(s)
    qsl.append(check_max("qsl.fig2D.tau_is_pi/omega", abs(tau - tau_expect), 1e-9))
    qsl.append(check_max("qsl.fig2D.below_tau_perp", tau, result.tau_perp + 1e-9))
    return {"ml": ml, "qsl": qsl}


def _suite_speed_limits(scenario, rng, presets) -> dict[str, list[Check]]:
    """ML and QSL checks, both reading one orthogonalization search per scenario."""
    if scenario is None:
        return _preset_speed_limits(presets)
    bounds = uncertainty.ml_bounds(scenario)
    tau = uncertainty.qsl_tau(scenario)
    expected = max(bounds.from_energy_spread, bounds.from_mean_energy)
    # an infinite QSL (eigenstate) has nothing to compare with tau_perp
    finite_qsl = not math.isinf(tau)
    qsl = [
        check_max("qsl.scenario.equals_max_bound", abs(tau - expected), 1e-12)
        if finite_qsl
        else check_bool("qsl.scenario.infinite_for_eigenstate", math.isinf(expected))
    ]
    try:
        result = uncertainty.orthogonalization_time(scenario)
    except uncertainty.InconclusiveScanError as exc:
        ml = [check_inconclusive("ml.scenario.search", exc.min_observed_overlap)]
        if finite_qsl:
            qsl.append(
                check_inconclusive("qsl.scenario.tau_perp_search", exc.min_observed_overlap)
            )
        return {"ml": ml, "qsl": qsl}
    if not result.found:
        ml = [check_min("ml.scenario.certificate_positive", result.min_overlap_bound, 0.0)]
        return {"ml": ml, "qsl": qsl}
    overlap = abs(uncertainty.state_overlap(scenario, result.tau_perp))
    ml = [
        check_max("ml.scenario.overlap_at_tau", overlap, uncertainty.DEFAULT_TOL_ORTH),
        check_min(
            "ml.scenario.tau_above_spread_bound",
            result.tau_perp - bounds.from_energy_spread,
            -1e-9,
        ),
        check_min(
            "ml.scenario.tau_above_mean_bound",
            result.tau_perp - bounds.from_mean_energy,
            -1e-9,
        ),
    ]
    if finite_qsl:
        qsl.append(check_max("qsl.scenario.below_tau_perp", tau, result.tau_perp + 1e-9))
    return {"ml": ml, "qsl": qsl}


# Each suite names the analysis that produces its checks; an analysis returns
# one check list per suite it covers, so suites sharing one run it once, and a
# suite run alone runs the whole analysis it shares (conservation, offset and
# mt read one evolution of each target, ml and qsl one orthogonalization
# search).
_SUITES = {
    "conservation": _suite_evolution,
    "offset": _suite_evolution,
    "ehrenfest": _suite_ehrenfest,
    "robertson": _suite_uncertainty,
    "schrodinger": _suite_uncertainty,
    "mt": _suite_evolution,
    "ml": _suite_speed_limits,
    "qsl": _suite_speed_limits,
}
VERIFY_SUITES = (*_SUITES, "all")


# -------------------------------------------------------------------- commands

def _resolve_seed(cli_seed: int | None) -> int:
    if cli_seed is not None:
        return cli_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ScenarioFormatError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return DEFAULT_SEED


def _input_digest(data: bytes | None) -> str:
    if data is None:
        return "builtin:presets"
    import hashlib  # loads OpenSSL, which only this branch needs
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _json_safe(x: float):
    if isinstance(x, float) and not math.isfinite(x):
        return "inf" if x > 0 else "-inf"
    return x


def build_report(suite: str, checks: list[Check], seed: int, digest: str) -> dict:
    verdicts = [c.verdict for c in checks]
    return {
        "suite": suite,
        "tool": "quncert",
        "version": __version__,
        "seed": seed,
        "input_digest": digest,
        "checks": [
            {
                "name": c.name,
                "lhs": _json_safe(c.lhs),
                "rhs": _json_safe(c.rhs),
                "slack": _json_safe(c.slack),
                "verdict": c.verdict,
            }
            for c in checks
        ],
        "counts": {
            "pass": verdicts.count("pass"),
            "fail": verdicts.count("fail"),
            "inconclusive": verdicts.count("inconclusive"),
        },
        "passed": all(v == "pass" for v in verdicts),
    }


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
            _, delta_t, product = _trajectory_mt(s, trajectory, "sx")
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


def cmd_verify(args) -> int:
    data, scenario = _load_scenario(args.scenario) if args.scenario else (None, None)
    seed = _resolve_seed(args.seed)
    digest = _input_digest(data)
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    # each preset Scenario, and so its spectrum, is built once for every analysis
    presets = None if scenario else {n: qubit.qubit_scenario(p) for n, p in _presets().items()}

    # each analysis runs once, for all the suites it covers, with a fresh rng of
    # its own on the presets (none draws on a scenario); uncertainty runs first,
    # on the smallest heap, since the fuzz's arrays set a preset run's peak RSS
    results: dict[str, list[Check]] = {}
    analyses = dict.fromkeys(_SUITES[suite] for suite in suites)
    for analysis in sorted(analyses, key=lambda a: a is not _suite_uncertainty):
        rng = None if scenario is not None else np.random.default_rng(seed)
        results.update(analysis(scenario, rng, presets))
    checks = [c for suite in suites for c in results[suite]]

    report = build_report(args.suite, checks, seed, digest)
    text = json.dumps(report, indent=2)
    if args.report is None:
        print(text)
    else:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")

    verdicts = {c.verdict for c in checks}
    if "fail" in verdicts:
        return EXIT_FAIL
    if "inconclusive" in verdicts:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def main(argv=None) -> int:
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

    args = parser.parse_args(argv)
    try:
        if args.command == "evolve":
            return cmd_evolve(args)
        if args.command == "figure":
            return cmd_figure(args)
        return cmd_verify(args)
    # MemoryError: an input whose arrays cannot be allocated, such as 1e18 steps
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
