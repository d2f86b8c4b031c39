"""The ``verify`` command: the paper's relations checked on the built-in
presets and seeded random scenarios, or on one scenario file.  ``cli.main``
imports this module only for ``verify``.
"""

from __future__ import annotations

import functools
import json
import math
import os
from typing import NamedTuple

import numpy as np

from . import __version__, cli, dynamics, qubit, uncertainty

SEED_ENV_VAR = "QUNCERT_SEED"
OFFSET_VALUES = (-5.0, 0.5, 7.3)

# Triples the fuzz draws, bounds and reduces at a time (a divisor of 1000). A
# block of 250 puts d = 6's normals over glibc's 128 KiB mmap threshold and
# raises a preset run's peak RSS.
_FUZZ_BLOCK = 100


def random_scenario(rng: np.random.Generator, dim: int) -> dynamics.Scenario:
    """Seeded random H, state and two observables on the default grid."""
    h = cli.random_hermitian(rng, dim)
    observables = {f"obs{k}": cli.random_hermitian(rng, dim) for k in range(2)}
    return dynamics._on_default_grid(1.0, h, cli.random_state(rng, dim), observables)


class Check(NamedTuple):
    """One verified inequality; pass means slack = lhs - rhs >= 0."""

    name: str
    lhs: float
    rhs: float
    slack: float
    verdict: str  # "pass" | "fail" | "inconclusive"


# Each check family: its name template, with "{}" for the target, and its
# (kind, limit).  A "min" check passes when value >= bound + limit * scale, a
# "max" check when value <= bound + limit * scale; a trailing comment names the
# scale where it is not 1 and the bound where it is not 0.
_CHECKS = {
    "conservation.{}.max_drift": ("max", 1e-10),
    "offset.{}.E0={}": ("max", 1e-10),
    "ehrenfest.{}.residual@1e-4": ("max", 1e-8),
    "ehrenfest.{}.static_observables": ("max", 1e-10),
    "ehrenfest.{}.residual@default": ("max", 1e-6),  # scale: max(1, span/hbar ||A||_F)
    "ehrenfest.{}.residual_at_rounding_floor": ("max", 1000.0),  # scale: d eps ||A||_2 / step
    "ehrenfest.{}.halving_ratio_low": ("min", 3.5),
    "ehrenfest.{}.halving_ratio_high": ("max", 4.5),
    "robertson.{}.slack": ("min", -1e-10),
    "schrodinger.{}.slack": ("min", -1e-10),
    "robertson.{}.min_slack": ("min", -1e-10),
    "schrodinger.{}.min_slack": ("min", -1e-10),
    "schrodinger.{}.rhs_dominates_robertson": ("min", 0.0),
    "mt.{}.has_finite_samples": ("bool", None),
    "mt.{}.min_product": ("min", -1e-10),  # scale: hbar, bound: hbar/2
    "mt.{}.flags_at_extrema": ("max", 1.0),  # scale: grid step
    "mt.{}.delta_t_is_1/omega": ("max", 1e-9),
    "mt.{}.product_is_hbar/2": ("max", 1e-9),
    "mt.{}.undefined_for_eigenstate": ("max", 0.0),  # bound: _energy_spread's floor
    "ml.{}.found": ("bool", None),
    "ml.{}.tau_perp_is_pi/omega": ("max", 1e-9),
    "ml.{}.spread_bound_equality": ("max", 1e-9),
    "ml.{}.tau_above_spread_bound": ("min", -1e-9),
    "ml.{}.tau_above_mean_bound": ("min", -1e-9),
    "ml.{}.unshifted_mean_bound_infinite": ("bool", None),
    "ml.{}.never_orthogonal": ("bool", None),
    "ml.{}.certificate_bound": ("max", 1e-12),
    "ml.{}.certificate_positive": ("min", 0.0),
    "ml.{}.overlap_at_tau": ("max", uncertainty.DEFAULT_TOL_ORTH),
    "ml.{}.search": ("inconclusive", None),
    "qsl.{}.finite": ("bool", None),
    "qsl.{}.infinite_for_eigenstate": ("bool", None),
    "qsl.{}.equals_max_bound": ("max", 1e-12),
    "qsl.{}.tau_is_pi/omega": ("max", 1e-9),
    "qsl.{}.below_tau_perp": ("max", 1e-9),  # bound: tau_perp
    "qsl.{}.tau_perp_search": ("inconclusive", None),
}


def _check(family: str, target, value, bound: float = 0.0, scale: float = 1.0) -> Check:
    """The check of ``value`` against its row of _CHECKS, named by ``target``
    (a tuple fills several fields); a bool row reads ``value`` as the verdict
    and an inconclusive row records it, the smallest overlap observed."""
    kind, limit = _CHECKS[family]
    name = family.format(*target) if isinstance(target, tuple) else family.format(target)
    if kind == "bool":
        lhs = 1.0 if value else 0.0
        return Check(name, lhs, 1.0, lhs - 1.0, "pass" if value else "fail")
    if kind == "inconclusive":
        return Check(name, value, 0.0, 0.0, "inconclusive")
    edge = bound + limit * scale
    lhs, rhs = (value, edge) if kind == "min" else (edge, value)
    slack = lhs - rhs
    return Check(name, lhs, rhs, slack, "pass" if slack >= 0 else "fail")


@functools.cache
def _presets() -> dict:
    """The figure presets, and a qubit whose upper level strictly dominates."""
    return {
        **qubit.FIGURE_PRESETS,
        "dominant95": qubit._preset(0.95, 0.05),
    }


def _suite_evolution(scenario, rng, presets, suites) -> dict[str, list[Check]]:
    """Conservation, offset and Mandelstam-Tamm checks from one evolution of each target.

    On a scenario: the scenario, for all three.  Otherwise: conservation on
    every figure preset and 10 seeded random scenarios, offsets on fig2A-D,
    whose conservation drift reads the base trajectory of the offset check,
    and Mandelstam-Tamm on fig2D, fig3AB and fig3CD, which read it too.  The
    offsets are compared only for the suite "offset" and the Mandelstam-Tamm
    columns computed only for "mt", when ``suites`` holds them.
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
        offsets = OFFSET_VALUES if "offset" in suites and name in offset_targets else ()
        trajectory, reports = dynamics._offset_comparison(s, offsets)
        drift = dynamics.check_conservation(trajectory)
        if "mt" in suites and name in mt_checks:
            mt += mt_checks[name](name, s, trajectory)
        del trajectory  # freed before the next target evolves, which lowers the peak RSS
        conservation.append(_check("conservation.{}.max_drift", name, drift.max_drift))
        for report in reports:
            worst = max(
                report.max_observable_diff,
                report.max_phase_defect,
                report.max_energy_shift_defect,
            )
            offset.append(_check("offset.{}.E0={}", (name, report.offset), worst))
    return {"conservation": conservation, "offset": offset, "mt": mt}


def _halving_checks(label: str, s, observable, t, step, coarse) -> list[Check]:
    """Ratio of the residual at ``step`` (``coarse``) to the one at step/2.

    Truncation error puts the ratio near 4.  A halved residual at or below
    the rounding floor of the centred difference, its row's multiple of
    d eps ||A||_2 / (step/2),
    is rounding noise with no ratio to report, so one check records that.
    """
    fine_step = step / 2.0
    fine = dynamics._ehrenfest_residual(observable, s, t, fine_step)
    eps = np.finfo(np.float64).eps
    unit = s.dim * eps * float(np.linalg.norm(observable, 2)) / fine_step
    floor = _check("ehrenfest.{}.residual_at_rounding_floor", label, fine, scale=unit)
    if floor.verdict == "pass":
        return [floor]
    ratio = coarse / fine
    return [
        _check("ehrenfest.{}.halving_ratio_low", label, ratio),
        _check("ehrenfest.{}.halving_ratio_high", label, ratio),
    ]


def _suite_ehrenfest(scenario, rng, presets, suites) -> dict[str, list[Check]]:
    checks = []
    if scenario is None:
        s = presets["fig2D"]
        sx = s.observables["sx"]
        probes = (0.4, 1.3, 2.9, 4.6)
        worst = max(dynamics._ehrenfest_residual(sx, s, t, 1e-4) for t in probes)
        checks.append(_check("ehrenfest.{}.residual@1e-4", "fig2D.sx", worst))
        coarse = dynamics._ehrenfest_residual(sx, s, 1.3, 1e-3)
        checks += _halving_checks("fig2D.sx", s, sx, 1.3, 1e-3, coarse)
        static = max(
            dynamics._ehrenfest_residual(s.hamiltonian, s, 1.3, 1e-4),
            dynamics._ehrenfest_residual(qubit.pauli("z"), s, 1.3, 1e-4),
        )
        checks.append(_check("ehrenfest.{}.static_observables", "fig2D", static))
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
        checks.append(_check("ehrenfest.{}.residual@default", name, worst, scale=scale))
    if scenario.observables:
        name, matrix = next(iter(scenario.observables.items()))
        coarse_step = 1e-3 * dynamics._period(spec, scenario.hbar)
        coarse = {
            t: dynamics._ehrenfest_residual(matrix, scenario, t, coarse_step) for t in probes
        }
        t_star = max(probes, key=coarse.get)
        checks += _halving_checks(name, scenario, matrix, t_star, coarse_step, coarse[t_star])
    return {"ehrenfest": checks}


def _suite_uncertainty(scenario, rng, presets, suites) -> dict[str, list[Check]]:
    """Robertson and Schrodinger checks from one evaluation of both bounds.

    On a scenario: its observables and H against each other, pairwise.
    Otherwise: 1000 seeded random (A, B, psi) triples for each dim 2..6, the
    stream of 1000 rounds of random_hermitian, random_hermitian, random_state,
    each block bounded and reduced to its minima before the next is drawn.
    """
    robertson, schrodinger = [], []
    if scenario is not None:
        names = [*scenario.observables, "energy"]
        matrices = np.stack([*scenario.observables.values(), scenario.hamiltonian])
        first, second = np.triu_indices(len(names))  # every pair i <= j, row by row
        product, rob, sch = uncertainty._pair_bounds(
            matrices[first],
            matrices[second],
            np.broadcast_to(scenario.initial_state, (first.size, scenario.dim)),
        )
        pairs = [f"{names[i]}x{names[j]}" for i, j in zip(first, second)]
        if len(set(pairs)) < len(pairs):  # e.g. x with xxx and xx with xx
            repeated = next(p for k, p in enumerate(pairs) if p in pairs[:k])
            raise ValueError(f"two observable pairs share the check name {repeated!r}")
        slacks = zip(pairs, (product - rob).tolist(), (product - sch).tolist())
        for pair, rob_slack, sch_slack in slacks:
            robertson.append(_check("robertson.{}.slack", pair, rob_slack))
            schrodinger.append(_check("schrodinger.{}.slack", pair, sch_slack))
        return {"robertson": robertson, "schrodinger": schrodinger}

    for dim in range(2, 7):
        split = 4 * dim * dim  # each triple draws Re A, Im A, Re B, Im B, Re psi, Im psi
        lows = np.full(3, np.inf)  # np.minimum keeps a NaN, as one np.min over all would
        for _ in range(1000 // _FUZZ_BLOCK):
            normals = rng.standard_normal((_FUZZ_BLOCK, split + 2 * dim))
            pair = cli._gaussian_hermitian(normals[:, :split].reshape(_FUZZ_BLOCK, 2, 2, dim, dim))
            psi = cli._gaussian_state(normals[:, split:].reshape(_FUZZ_BLOCK, 2, dim))
            product, rob, sch = uncertainty._pair_bounds(pair[:, 0], pair[:, 1], psi)
            lows = np.minimum(lows, np.min([product - rob, product - sch, sch - rob], axis=1))
        target = f"dim{dim}"
        robertson.append(_check("robertson.{}.min_slack", target, float(lows[0])))
        schrodinger += [
            _check("schrodinger.{}.min_slack", target, float(lows[1])),
            _check("schrodinger.{}.rhs_dominates_robertson", target, float(lows[2])),
        ]
    return {"robertson": robertson, "schrodinger": schrodinger}


def _extremum_distance(preset: qubit.QubitPreset, t: float) -> float:
    """Distance from t to the nearest turning point of <sigma_x>."""
    re, im = qubit._interference(preset)
    frac = ((t * preset.omega - math.atan2(im, re)) / math.pi) % 1.0
    return min(frac, 1.0 - frac) * math.pi / preset.omega


def _mt_preset_checks(name: str, s, trajectory) -> list[Check]:
    preset = _presets()[name]
    _, delta_t, product = dynamics._trajectory_mt(s, trajectory, "sx")
    finite = np.isfinite(delta_t)
    checks = [_check("mt.{}.has_finite_samples", name, bool(finite.any()))]
    min_product = float(product[finite].min()) if finite.any() else math.inf
    hbar = preset.hbar
    checks.append(_check("mt.{}.min_product", name, min_product, 0.5 * hbar, hbar))
    flagged = trajectory.times[~finite].tolist()
    worst_flag = max((_extremum_distance(preset, t) for t in flagged), default=0.0)
    checks.append(_check("mt.{}.flags_at_extrema", name, worst_flag, scale=s.time_grid.step))
    if abs(preset.coherence - 1.0) < 1e-12:
        worst_dt = float(np.abs(delta_t[finite] - 1.0 / preset.omega).max())
        worst_prod = float(np.abs(product[finite] - 0.5 * hbar).max())
        checks.append(_check("mt.{}.delta_t_is_1/omega", name, worst_dt))
        checks.append(_check("mt.{}.product_is_hbar/2", name, worst_prod))
    return checks


def _mt_scenario_checks(name: str, s, trajectory) -> list[Check]:
    """The smallest finite product of each observable of a scenario file."""
    spread, floor = dynamics._energy_spread(s)
    eigenstate = _check("mt.{}.undefined_for_eigenstate", name, spread, floor)
    if eigenstate.verdict == "pass":
        # an energy eigenstate has no Mandelstam-Tamm clock; mt_series refuses it
        return [eigenstate]
    checks = []
    for observable in s.observables:
        product = dynamics._trajectory_mt(s, trajectory, observable)[2]
        finite = product[np.isfinite(product)]
        value = float(finite.min()) if finite.size else math.inf
        checks.append(_check("mt.{}.min_product", observable, value, 0.5 * s.hbar, s.hbar))
    return checks


def _preset_speed_limits(scenarios) -> dict[str, list[Check]]:
    preset, s = _presets()["fig2D"], scenarios["fig2D"]
    result = uncertainty.orthogonalization_time(s)
    bounds = uncertainty.ml_bounds(s)
    tau_expect = math.pi / preset.omega
    # a search that did not find tau_perp fails every row that reads it
    tau_perp = result.tau_perp if result.found else math.nan
    unshifted_infinite = math.isinf(bounds.from_mean_energy_unshifted)
    ml = [
        _check("ml.{}.found", "fig2D", result.found),
        _check("ml.{}.tau_perp_is_pi/omega", "fig2D", abs(tau_perp - tau_expect)),
        _check("ml.{}.spread_bound_equality", "fig2D", abs(tau_perp - bounds.from_energy_spread)),
        _check("ml.{}.tau_above_mean_bound", "fig2D", tau_perp - bounds.from_mean_energy),
        _check("ml.{}.unshifted_mean_bound_infinite", "fig2D", unshifted_infinite),
    ]
    for name, p in _presets().items():
        dominant = max(abs(p.alpha1), abs(p.alpha2)) ** 2
        # the certificate's own rule: no floor 2P - 1 above the search's tolerance
        if 2.0 * dominant - 1.0 <= uncertainty.DEFAULT_TOL_ORTH:
            continue
        res = uncertainty.orthogonalization_time(scenarios[name])
        ok = (not res.found) and res.min_overlap_bound is not None
        ml.append(_check("ml.{}.never_orthogonal", name, ok))
        if ok:
            error = abs(res.min_overlap_bound - (2.0 * dominant - 1.0))
            ml.append(_check("ml.{}.certificate_bound", name, error))

    qsl = []
    for name, p in qubit.FIGURE_PRESETS.items():
        # the eigenstate threshold: a qubit preset's dH / ||H||_2 is its coherence
        if p.coherence <= dynamics.ENERGY_SPREAD_MIN:
            continue
        tau = uncertainty.qsl_tau(scenarios[name])
        b = uncertainty.ml_bounds(scenarios[name])
        qsl.append(_check("qsl.{}.finite", name, math.isfinite(tau)))
        expected = max(b.from_energy_spread, b.from_mean_energy)
        qsl.append(_check("qsl.{}.equals_max_bound", name, abs(tau - expected)))
    tau = uncertainty.qsl_tau(s)
    qsl.append(_check("qsl.{}.tau_is_pi/omega", "fig2D", abs(tau - tau_expect)))
    qsl.append(_check("qsl.{}.below_tau_perp", "fig2D", tau, tau_perp))
    return {"ml": ml, "qsl": qsl}


def _suite_speed_limits(scenario, rng, presets, suites) -> dict[str, list[Check]]:
    """ML and QSL checks, both reading one orthogonalization search per scenario."""
    if scenario is None:
        return _preset_speed_limits(presets)
    bounds = uncertainty.ml_bounds(scenario)
    tau = uncertainty.qsl_tau(scenario)
    expected = max(bounds.from_energy_spread, bounds.from_mean_energy)
    # an infinite QSL (eigenstate) has nothing to compare with tau_perp
    finite_qsl = not math.isinf(tau)
    qsl = [
        _check("qsl.{}.equals_max_bound", "scenario", abs(tau - expected))
        if finite_qsl
        else _check("qsl.{}.infinite_for_eigenstate", "scenario", math.isinf(expected))
    ]
    result = uncertainty.orthogonalization_time(scenario)
    if result.kind == "inconclusive":
        ml = [_check("ml.{}.search", "scenario", result.min_observed_overlap)]
        if finite_qsl:
            qsl.append(_check("qsl.{}.tau_perp_search", "scenario", result.min_observed_overlap))
        return {"ml": ml, "qsl": qsl}
    if not result.found:
        ml = [_check("ml.{}.certificate_positive", "scenario", result.min_overlap_bound)]
        return {"ml": ml, "qsl": qsl}
    tau_perp = result.tau_perp
    overlap = abs(uncertainty.state_overlap(scenario, tau_perp))
    ml = [
        _check("ml.{}.overlap_at_tau", "scenario", overlap),
        _check("ml.{}.tau_above_spread_bound", "scenario", tau_perp - bounds.from_energy_spread),
        _check("ml.{}.tau_above_mean_bound", "scenario", tau_perp - bounds.from_mean_energy),
    ]
    if finite_qsl:
        qsl.append(_check("qsl.{}.below_tau_perp", "scenario", tau, tau_perp))
    return {"ml": ml, "qsl": qsl}


# The analysis of each suite of cli.VERIFY_SUITES but the last, "all", in order; suites that
# share one run it once, and each is passed the requested suites.
_SUITES = dict(zip(cli.VERIFY_SUITES[:-1], (
    _suite_evolution,  # conservation
    _suite_evolution,  # offset
    _suite_ehrenfest,
    _suite_uncertainty,  # robertson
    _suite_uncertainty,  # schrodinger
    _suite_evolution,  # mt
    _suite_speed_limits,  # ml
    _suite_speed_limits,  # qsl
), strict=True))


def _resolve_seed(cli_seed: int | None) -> int:
    """--seed, else SEED_ENV_VAR, else the default; refused unless a non-negative integer."""
    if cli_seed is not None:
        source, value = "--seed", str(cli_seed)
    else:
        source, value = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR)
        if value is None:
            return cli.DEFAULT_SEED
    try:
        seed = int(value)
    except ValueError:
        seed = -1  # refused below, as a negative seed is
    if seed < 0:
        raise cli.ScenarioFormatError(f"{source} must be a non-negative integer, got {value!r}")
    return seed


def _input_digest(data: bytes | None) -> str:
    if data is None:
        return "builtin:presets"
    import hashlib  # loads OpenSSL, which only this branch needs
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _json_safe(x: float):
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else "inf" if x > 0 else "-inf"
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


def cmd_verify(args) -> int:
    data, scenario = cli._load_scenario(args.scenario) if args.scenario else (None, None)
    seed = _resolve_seed(args.seed)
    digest = _input_digest(data)
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    # each preset Scenario, and so its spectrum, is built once for every analysis
    presets = None if scenario else {n: qubit.qubit_scenario(p) for n, p in _presets().items()}

    # each analysis runs once, for all the suites it covers, with a fresh rng of
    # its own on the presets (none draws on a scenario)
    results: dict[str, list[Check]] = {}
    for analysis in dict.fromkeys(_SUITES[suite] for suite in suites):
        rng = None if scenario is not None else np.random.default_rng(seed)
        results.update(analysis(scenario, rng, presets, suites))
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
        return cli.EXIT_FAIL
    if "inconclusive" in verdicts:
        return cli.EXIT_INCONCLUSIVE
    return cli.EXIT_PASS
