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

# Triples the fuzz draws per standard_normal call (a divisor of 1000). Drawing
# all 1000 at once raises the fuzz's tracemalloc peak from ~2 MB to ~6 MB.
_FUZZ_BLOCK = 100


def random_scenario(rng: np.random.Generator, dim: int) -> dynamics.Scenario:
    """Seeded random H, state and two observables on the default grid."""
    h = cli.random_hermitian(rng, dim)
    observables = {f"obs{k}": cli.random_hermitian(rng, dim) for k in range(2)}
    return dynamics._on_default_grid(1.0, h, cli.random_state(rng, dim), observables)


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
        pair = cli._gaussian_hermitian(normals[:, :split].reshape(_FUZZ_BLOCK, 2, 2, dim, dim))
        a[rows], b[rows] = pair[:, 0], pair[:, 1]
        psi[rows] = cli._gaussian_state(normals[:, split:].reshape(_FUZZ_BLOCK, 2, dim))
    return a, b, psi


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


def _mt_preset_checks(name: str, s, trajectory) -> list[Check]:
    preset = _presets()[name]
    _, delta_t, product = dynamics._trajectory_mt(s, trajectory, "sx")
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
    spread, floor = dynamics._energy_spread(s)
    if spread <= floor:
        # an energy eigenstate has no Mandelstam-Tamm clock; mt_series refuses it
        return [check_max(f"mt.{name}.undefined_for_eigenstate", spread, floor)]
    checks = []
    for observable in s.observables:
        product = dynamics._trajectory_mt(s, trajectory, observable)[2]
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


# The analysis of each suite of cli.VERIFY_SUITES but the last, "all", in order; suites that
# share one run it once, and a suite run alone runs all of it.
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
    if cli_seed is not None:
        return cli_seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise cli.ScenarioFormatError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return cli.DEFAULT_SEED


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


def cmd_verify(args) -> int:
    data, scenario = cli._load_scenario(args.scenario) if args.scenario else (None, None)
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
        return cli.EXIT_FAIL
    if "inconclusive" in verdicts:
        return cli.EXIT_INCONCLUSIVE
    return cli.EXIT_PASS
