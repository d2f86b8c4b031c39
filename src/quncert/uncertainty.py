"""Preparation-uncertainty bounds and time-energy analyzers.

Robertson and Schrodinger bound checks, Mandelstam-Tamm timescales built from
the exact commutator rate, survival overlap with the orthogonalization-time
search, Margolus-Levitin style lower bounds, and the unified quantum speed
limit.

The time-energy analyzers take a ``Scenario`` and read its cached spectrum,
energy amplitudes and hbar, which the ``Scenario`` validated when it was
built; they validate only the arguments that do not come from it (an
observable, a time).  The Robertson and Schrodinger checks take loose
matrices and a state, and validate those at entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qstat
from .dynamics import Scenario, _require_observable, _states_at
from .hilbert import SpectralDecomposition, _commutator, _phases, as_state

BOUND_SLACK_TOL = 1e-10
# The energy thresholds are relative to ||H||_2 = max|E_k| (_energy_scale), so
# they hold in any unit; H = 0 meets each of them with equality.
# an energy spread at or below this is an eigenstate: no Mandelstam-Tamm clock
ENERGY_SPREAD_MIN = 1e-12
# scale factor for the rate threshold that flags a sample as infinite
RATE_EPS_FACTOR = 1e-12
# a spread or shifted mean energy at or below this makes the bound infinite
MEAN_ENERGY_MIN = 1e-14
# level gaps at or below this are degeneracies for the orthogonalization search
GAP_TOL_FACTOR = 1e-12
DEFAULT_TOL_ORTH = 1e-9
SCAN_POINTS = 10_000
HORIZON_PERIODS = 20
REFINE_REL_TOL = 1e-12


@dataclass(frozen=True)
class BoundCheck:
    """One inequality instance: lhs >= rhs expected, slack = lhs - rhs."""

    lhs: float
    rhs: float
    slack: float
    satisfied: bool

    @classmethod
    def of(cls, lhs: float, rhs: float) -> "BoundCheck":
        slack = lhs - rhs
        return cls(lhs, rhs, slack, slack >= -BOUND_SLACK_TOL)


def _pair_bounds(a, b, states):
    """Uncertainty product and both bound right-hand sides over stacks.

    ``a`` and ``b`` are (..., d, d) Hermitian stacks and ``states`` a
    (..., d) stack of normalized states, none of them validated here.
    Returns dA * dB, the Robertson |<[A, B]>| / 2 and the Schrodinger
    right-hand side, each of shape (...).
    """
    columns = states[..., None]
    mean_a, var_a, a_psi = qstat._moments(a, columns)
    mean_b, var_b, b_psi = qstat._moments(b, columns)
    # <AB> = <A psi | B psi> for Hermitian A
    ab = np.vecdot(a_psi, b_psi, axis=-2)[..., 0]
    product = np.sqrt(var_a[..., 0]) * np.sqrt(var_b[..., 0])
    # <[A,B]> = <AB> - <BA> = 2i Im<AB>, and Re<AB> = <AB+BA>/2
    covariance = ab.real - mean_a[..., 0] * mean_b[..., 0]
    return product, np.abs(ab.imag), np.hypot(covariance, ab.imag)


def _validated_pair_bounds(a, b, state):
    psi = as_state(state)
    a = _require_observable(a, psi.shape[0], "first observable")
    b = _require_observable(b, psi.shape[0], "second observable")
    return [float(x) for x in _pair_bounds(a, b, psi)]


def robertson_check(a, b, state) -> BoundCheck:
    """dA * dB >= |<[A, B]>| / 2 on the given state."""
    product, rhs, _ = _validated_pair_bounds(a, b, state)
    return BoundCheck.of(product, rhs)


def schrodinger_check(a, b, state) -> BoundCheck:
    """Strengthened bound with the symmetrized covariance term included."""
    product, _, rhs = _validated_pair_bounds(a, b, state)
    return BoundCheck.of(product, rhs)


@dataclass(frozen=True)
class MTSample:
    """Mandelstam-Tamm timescale of one observable at one time.

    delta_t and product are math.inf when the rate falls at or below the
    scale-aware threshold (the observable is momentarily stationary).
    """

    t: float
    delta_a: float
    rate: float
    delta_t: float
    product: float


def _energy_scale(spec: SpectralDecomposition) -> float:
    """||H||_2 = max|E_k|, the unit of the energy thresholds."""
    return float(max(-spec.eigenvalues[0], spec.eigenvalues[-1]))


def _energy_spread(scenario: Scenario) -> tuple[float, float]:
    """Delta H on the initial state and the eigenstate threshold
    ENERGY_SPREAD_MIN * ||H||_2; a spread at or below it is an energy
    eigenstate, which has no Mandelstam-Tamm clock."""
    _, variances, _ = qstat._moments(scenario.hamiltonian, scenario.initial_state[:, None])
    floor = ENERGY_SPREAD_MIN * _energy_scale(scenario.spectrum)
    return math.sqrt(float(variances[0])), floor


def _mt_context(observable, scenario: Scenario):
    a = _require_observable(observable, scenario.dim)
    energy_spread, floor = _energy_spread(scenario)
    if energy_spread <= floor:
        raise ValueError(
            "Mandelstam-Tamm timescale is undefined for energy eigenstates "
            f"(energy spread {energy_spread:.3e})"
        )
    rate_eps = (
        RATE_EPS_FACTOR
        * scenario.spectrum.span
        * float(np.linalg.norm(a, 2))
        / scenario.hbar
    )
    return a, energy_spread, rate_eps


def _mt_samples(observable, scenario: Scenario, times) -> list[MTSample]:
    a, energy_spread, rate_eps = _mt_context(observable, scenario)
    states = _states_at(scenario, times)
    _, variances, _ = qstat._moments(a, states)
    # exact rate d<A>/dt = <[A, H]> / (i hbar): the mean of a Hermitian generator
    generator = _commutator(a, scenario.hamiltonian) / (1j * scenario.hbar)
    rates, _, _ = qstat._moments(generator, states)
    delta_a, rates = np.sqrt(variances), np.abs(rates)
    delta_t = np.divide(
        delta_a, rates, out=np.full_like(rates, math.inf), where=rates > rate_eps
    )
    columns = (times, delta_a, rates, delta_t, energy_spread * delta_t)
    return [MTSample(*row) for row in zip(*(c.tolist() for c in columns))]


def mt_sample(observable, scenario: Scenario, t: float) -> MTSample:
    """Mandelstam-Tamm sample dT = dA / |d<A>/dt| with the exact rate."""
    if not (isinstance(t, (int, float)) and math.isfinite(t)):
        raise ValueError(f"t must be a finite real, got {t!r}")
    return _mt_samples(observable, scenario, np.array([float(t)]))[0]


def mt_series(observable, scenario: Scenario) -> list[MTSample]:
    """One MTSample per point of the scenario's time grid, in grid order."""
    return _mt_samples(observable, scenario, scenario.time_grid.times())


def _populations(scenario: Scenario) -> np.ndarray:
    """Energy populations |a_k|^2 of the initial state, ascending energy."""
    return np.abs(scenario.amplitudes) ** 2


def _overlap(weights, evals, ts, hbar):
    """sum_k w_k exp(-i E_k t / hbar) at each of a 1-D array of times.

    ``weights`` is a (d,) vector or a (m, d) stack, giving a (T,) or an
    (m, T) result; with the energy populations as weights this is the
    survival amplitude.  Nothing is validated here.
    """
    return weights @ _phases(evals, ts, hbar)


def state_overlap(scenario: Scenario, t):
    """Survival amplitude <psi(0)|psi(t)> = sum_k |a_k|^2 exp(-i E_k t / hbar).

    Scalar t gives a complex scalar; an array of times gives a complex array.
    """
    ts = np.asarray(t, dtype=np.float64)
    evals = scenario.spectrum.eigenvalues
    out = _overlap(_populations(scenario), evals, ts.reshape(-1), scenario.hbar)
    return complex(out[0]) if ts.ndim == 0 else out.reshape(ts.shape)


@dataclass(frozen=True)
class OrthogonalizationResult:
    """Outcome of the earliest-orthogonal-time search.

    kind is "found" (tau_perp set) or "never_orthogonal" (min_overlap_bound
    set: the analytic floor below which the overlap modulus cannot drop).
    """

    kind: str
    tau_perp: float | None
    min_overlap_bound: float | None
    min_observed_overlap: float
    horizon: float

    @property
    def found(self) -> bool:
        return self.kind == "found"


class InconclusiveScanError(RuntimeError):
    """No orthogonal state found, but no analytic certificate excludes one."""

    def __init__(self, min_observed_overlap: float, horizon: float):
        super().__init__(
            "orthogonalization search is inconclusive: no overlap zero within "
            f"horizon {horizon:.6g} (smallest observed modulus "
            f"{min_observed_overlap:.6g}) and no analytic certificate applies"
        )
        self.min_observed_overlap = min_observed_overlap
        self.horizon = horizon


def _overlap_modulus_and_slope(probs, evals, hbar, ts):
    """|o(t)| and d|o|^2/dt at each of a 1-D array of times."""
    weights = np.stack((probs, probs * (-1j * evals / hbar)))
    o, o_dot = _overlap(weights, evals, ts, hbar)
    return np.abs(o), 2.0 * (o.conj() * o_dot).real


def _refine_minima(probs, evals, hbar, lo, hi):
    """Bisect d|o|^2/dt over every bracket [lo[j], hi[j]] at once.

    Each bracket stops at its own relative time tolerance, so it visits the
    same midpoints as a bisection of that bracket alone; one that is not a
    clean descent/ascent bracket falls back to its midpoint.  ``lo`` and
    ``hi`` are updated in place.  Returns the refined times and moduli.
    """
    n = lo.size
    _, slopes = _overlap_modulus_and_slope(probs, evals, hbar, np.concatenate((lo, hi)))
    clean = ~((slopes[:n] > 0.0) | (slopes[n:] < 0.0))
    tol = REFINE_REL_TOL * np.maximum(1.0, np.abs(hi))
    active = np.nonzero(clean & (hi - lo > tol))[0]
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        descending = _overlap_modulus_and_slope(probs, evals, hbar, mid)[1] < 0.0
        lo[active[descending]] = mid[descending]
        hi[active[~descending]] = mid[~descending]
        active = active[hi[active] - lo[active] > tol[active]]
    mid = 0.5 * (lo + hi)
    return mid, _overlap_modulus_and_slope(probs, evals, hbar, mid)[0]


def orthogonalization_time(scenario: Scenario) -> OrthogonalizationResult:
    """Earliest time at which the evolved state is orthogonal to the start.

    A dominant amplitude (max |a_k|^2 > 1/2) certifies analytically that the
    overlap modulus never drops below 2 max|a_k|^2 - 1, so no search runs.
    Otherwise the overlap modulus is scanned on SCAN_POINTS points up to a
    horizon of HORIZON_PERIODS slowest beat periods. Every sampled local
    minimum is refined in one batched bisection on the modulus-squared
    slope, each bracket to its own relative time tolerance, and the earliest
    refined minimum at or below DEFAULT_TOL_ORTH is returned.
    min_observed_overlap is the smallest modulus seen: over the scan and the
    refined minima up to the returned one, or over all of them when the
    search is inconclusive.

    Raises:
        InconclusiveScanError: nothing found and no certificate applies.
    """
    spec, hbar = scenario.spectrum, scenario.hbar
    probs = _populations(scenario)
    evals = spec.eigenvalues

    gap_tol = GAP_TOL_FACTOR * max(_energy_scale(spec), spec.span)
    gaps = np.diff(evals)
    real_gaps = gaps[gaps > gap_tol]
    if real_gaps.size == 0:
        # fully degenerate spectrum: overlap modulus is identically 1
        return OrthogonalizationResult("never_orthogonal", None, 1.0, 1.0, 0.0)

    bound = 2.0 * float(probs.max()) - 1.0
    if bound > DEFAULT_TOL_ORTH:
        return OrthogonalizationResult("never_orthogonal", None, bound, 1.0, 0.0)

    horizon = HORIZON_PERIODS * 2.0 * math.pi * hbar / float(real_gaps.min())

    ts = np.linspace(0.0, horizon, SCAN_POINTS)
    moduli = np.abs(_overlap(probs, evals, ts, hbar))
    min_observed = float(moduli.min())

    interior = np.nonzero(
        (moduli[1:-1] <= moduli[:-2]) & (moduli[1:-1] <= moduli[2:])
    )[0] + 1
    t_star, refined = _refine_minima(probs, evals, hbar, ts[interior - 1], ts[interior + 1])
    hits = np.nonzero(refined <= DEFAULT_TOL_ORTH)[0]
    if hits.size:
        first = hits[0]
        min_observed = float(refined[: first + 1].min(initial=min_observed))
        return OrthogonalizationResult(
            "found", float(t_star[first]), None, min_observed, float(horizon)
        )
    raise InconclusiveScanError(float(refined.min(initial=min_observed)), float(horizon))


@dataclass(frozen=True)
class SpeedLimitBounds:
    """Lower bounds on the orthogonalization time.

    from_energy_spread: pi*hbar / (2 dH).
    from_mean_energy: pi*hbar / (2 <H'>) with the spectrum shifted so that
    E_min = 0 (the convention under which the bound is valid).
    from_mean_energy_unshifted: the raw pi*hbar / (2 <H>) with no shift;
    exposed because it fails for spectra whose mean energy is <= 0 (infinite
    when |<H>| <= MEAN_ENERGY_MIN * ||H||_2, signed and meaningless when
    negative).  Each bound is infinite when its energy is at or below that
    threshold.
    """

    from_energy_spread: float
    from_mean_energy: float
    from_mean_energy_unshifted: float


def _energy_moments(scenario: Scenario):
    """<H>, dH, <H> - E_min and the infinite-bound threshold
    MEAN_ENERGY_MIN * ||H||_2."""
    spec, probs = scenario.spectrum, _populations(scenario)
    mean = float(probs @ spec.eigenvalues)
    # shifted second moment: exact zero spread for eigenstates instead of
    # sqrt(eps)-sized cancellation residue, which would defeat the
    # infinite-bound threshold
    spread = math.sqrt(float(probs @ (spec.eigenvalues - mean) ** 2))
    shifted_mean = mean - float(spec.eigenvalues[0])
    return mean, spread, shifted_mean, MEAN_ENERGY_MIN * _energy_scale(spec)


def ml_bounds(scenario: Scenario) -> SpeedLimitBounds:
    """Margolus-Levitin style lower bounds on the orthogonalization time."""
    half_pi_hbar = 0.5 * math.pi * scenario.hbar
    mean, spread, shifted_mean, floor = _energy_moments(scenario)
    from_spread = half_pi_hbar / spread if spread > floor else math.inf
    from_mean = half_pi_hbar / shifted_mean if shifted_mean > floor else math.inf
    raw = half_pi_hbar / mean if abs(mean) > floor else math.inf
    return SpeedLimitBounds(from_spread, from_mean, raw)


def qsl_tau(scenario: Scenario) -> float:
    """Unified quantum speed limit h / (4 min(dH, <H'>)), E_min = 0 shift.

    Infinite for energy eigenstates (either moment vanishes), which never
    reach an orthogonal state under closed evolution.
    """
    _, spread, shifted_mean, floor = _energy_moments(scenario)
    denom = min(spread, shifted_mean)
    if denom <= floor:
        return math.inf
    # h = 2*pi*hbar, so h/(4x) = pi*hbar/(2x)
    return 0.5 * math.pi * scenario.hbar / denom
