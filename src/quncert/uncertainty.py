"""Preparation-uncertainty bounds and time-energy analyzers.

Robertson and Schrodinger bound checks, Mandelstam-Tamm timescales built from
the exact commutator rate, survival overlap with the orthogonalization-time
search, Margolus-Levitin style lower bounds, and the unified quantum speed
limit.

The time-energy analyzers take a ``Scenario`` and read its cached spectrum,
energy amplitudes and hbar, which the ``Scenario`` validated when it was
built; they validate only the argument that does not come from it, an
observable.  The Robertson and Schrodinger checks take loose
matrices and a state, and validate those at entry.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import qstat
from .dynamics import (
    Scenario,
    _energy_moments,
    _energy_scale,
    _mt_columns,
    _populations,
    _require_observable,
    _states_at,
)
from .hilbert import _phases, as_state

BOUND_SLACK_TOL = 1e-10
# level gaps at or below this are degeneracies for the orthogonalization search
GAP_TOL_FACTOR = 1e-12
DEFAULT_TOL_ORTH = 1e-9
HORIZON_PERIODS = 20
REFINE_REL_TOL = 1e-12
# lanes per march window, and the overlap evaluations one search may spend
MARCH_LANES = 128
MARCH_BUDGET = 100_000


class BoundCheck(NamedTuple):
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


class MTSample(NamedTuple):
    """Mandelstam-Tamm timescale of one observable at one time.

    delta_t and product are math.inf when the rate falls at or below the
    scale-aware threshold (the observable is momentarily stationary).
    """

    t: float
    delta_a: float
    rate: float
    delta_t: float
    product: float


def mt_series(observable, scenario: Scenario) -> list[MTSample]:
    """One MTSample per point of the scenario's time grid, in grid order."""
    a = _require_observable(observable, scenario.dim)
    times = scenario.time_grid.times()
    states = _states_at(scenario, times)
    delta_a = np.sqrt(qstat._moments(a, states)[1])
    columns = (times, delta_a, *_mt_columns(a, scenario, states, delta_a))
    return [MTSample(*row) for row in zip(*(c.tolist() for c in columns))]


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


class OrthogonalizationResult(NamedTuple):
    """Outcome of the earliest-orthogonal-time search.

    kind is "found" (tau_perp set) or "never_orthogonal" (min_overlap_bound
    set: the analytic floor below which the overlap modulus cannot drop).
    evaluations counts the overlap evaluations the search spent, windows the
    march windows it ran, and decided_by names what settled the outcome:
    "degenerate" (a fully degenerate spectrum), "certificate" (a dominant
    level) or "march".
    """

    kind: str
    tau_perp: float | None
    min_overlap_bound: float | None
    min_observed_overlap: float
    horizon: float
    evaluations: int
    windows: int
    decided_by: str

    @property
    def found(self) -> bool:
        return self.kind == "found"


class InconclusiveScanError(RuntimeError):
    """No orthogonal state found, but no analytic certificate excludes one."""

    # only the march ends a search inconclusive
    decided_by = "march"

    def __init__(
        self, min_observed_overlap: float, horizon: float, evaluations: int, windows: int
    ):
        super().__init__(
            "orthogonalization search is inconclusive: no overlap zero within "
            f"horizon {horizon:.6g} (smallest observed modulus "
            f"{min_observed_overlap:.6g}) and no analytic certificate applies"
        )
        self.min_observed_overlap = min_observed_overlap
        self.horizon = horizon
        self.evaluations = evaluations
        self.windows = windows


def _overlap_modulus_and_slope(weights, rates, ts):
    """|o(t)| and Re(conj(o) o'(t)), half the slope of |o|^2, at each of a
    1-D array of times.

    ``rates`` are the centred energies (E_k - <H>) / hbar and ``weights``
    stacks the populations p_k over -i rates_k p_k, so one product gives the
    centred overlap and its derivative.
    """
    o, o_dot = _overlap(weights, rates, ts, 1.0)
    return np.abs(o), (o.conj() * o_dot).real


class _March:
    """One orthogonalization search: the centred overlap o_c(t) =
    sum_k p_k exp(-i e_k t), e_k = (E_k - <H>) / hbar, whose modulus is |o|,
    its curvature bound M = sum_k p_k e_k^2 >= |o_c''|, and every point
    evaluated so far, as (time, modulus, half slope of |o|^2).
    """

    def __init__(self, probs, evals, hbar, horizon):
        # a dH / hbar beyond the float range leaves the curvature inf or NaN,
        # which orthogonalization_time refuses to march with
        with np.errstate(over="ignore", invalid="ignore"):
            rates = (evals - float(probs @ evals)) / hbar
            self.weights = np.stack((probs, -1j * rates * probs))
            self.curvature = float(probs @ rates**2)
        self.rates = rates
        self.horizon = horizon
        # rounding of o_c(t): d terms, each phase argument e_k t off by eps|e_k t|
        self.rounding = probs.size * np.finfo(np.float64).eps
        self.max_rate = float(np.abs(rates).max())
        self.points = []
        self.windows = 0
        self.evaluations = 0

    def evaluate(self, ts):
        if self.evaluations + ts.size > MARCH_BUDGET:
            raise self.inconclusive(self.smallest_evaluated())
        self.evaluations += ts.size
        moduli, half_slopes = _overlap_modulus_and_slope(self.weights, self.rates, ts)
        self.points.append((ts, moduli, half_slopes))
        return moduli, half_slopes

    def smallest_evaluated(self):
        return min((float(p[1].min()) for p in self.points), default=1.0)

    def inconclusive(self, min_observed):
        return InconclusiveScanError(
            float(min_observed), float(self.horizon), self.evaluations, self.windows
        )

    def refine_minima(self, lo, hi):
        """Bisect the |o|^2 slope over every bracket [lo[j], hi[j]] at once.

        Each bracket stops at REFINE_REL_TOL times the larger of |hi| and the
        search's time scale hbar / dH, so it visits the same midpoints as a
        bisection of that bracket alone, and returns the root of the secant
        of the slope across its last bracket; one that is not a clean
        descent/ascent bracket falls back to its midpoint.  ``lo`` and ``hi``
        are updated in place.  Returns the refined times and moduli.
        """
        n = lo.size
        _, slopes = self.evaluate(np.concatenate((lo, hi)))
        down, up = slopes[:n].copy(), slopes[n:].copy()
        clean = (down <= 0.0) & (up >= 0.0)
        tol = REFINE_REL_TOL * np.maximum(np.abs(hi), 1.0 / math.sqrt(self.curvature))
        active = np.nonzero(clean & (hi - lo > tol))[0]
        while active.size:
            mid = 0.5 * (lo[active] + hi[active])
            slope = self.evaluate(mid)[1]
            descending = slope < 0.0
            lo[active[descending]], down[active[descending]] = mid[descending], slope[descending]
            hi[active[~descending]], up[active[~descending]] = mid[~descending], slope[~descending]
            active = active[hi[active] - lo[active] > tol[active]]
        # across a converged bracket the slope is linear in t
        secant = clean & (up > down)
        frac = np.divide(-down, up - down, out=np.zeros(n), where=secant)
        t = np.where(secant, lo + frac * (hi - lo), 0.5 * (lo + hi))
        return t, self.evaluate(t)[0]

    def window(self, start, end):
        """March MARCH_LANES lanes over [start, end] at once.

        From a lane point with a = |o| and radial slope r = d|o|/dt, the
        second-order bound |o(t + s)| >= a + r s - M s^2 / 2 certifies no
        modulus at or below tol + margin up to the positive root s of
        a + r s - M s^2 / 2 = tol + margin.  A lane that reaches a point with
        |o| <= 2 tol on a descent, or whose step no longer moves it, stops as
        a candidate; the candidates' brackets are refined together.  A
        refined minimum above tol sends its lane on from the bracket's far
        end.  Returns (time, modulus) of the earliest zero, or None when the
        whole window is certified.
        """
        self.windows += 1
        tol, m = DEFAULT_TOL_ORTH, self.curvature
        margin = self.rounding * (1.0 + self.max_rate * end)
        edges = np.linspace(start, end, MARCH_LANES + 1)
        t, ends = edges[:-1].copy(), edges[1:]
        open_ = np.ones(MARCH_LANES, dtype=bool)  # not yet certified to its end
        zeros = np.full(MARCH_LANES, math.nan)
        zero_moduli = np.full(MARCH_LANES, math.nan)
        stuck = np.zeros(MARCH_LANES, dtype=bool)
        marching = np.arange(MARCH_LANES)
        while True:
            stops, moduli, half_slopes, stalls = [], [], [], []
            while marching.size:
                ts = t[marching]
                a, q = self.evaluate(ts)
                r = np.divide(q, a, out=np.zeros_like(q), where=a > 0.0)
                gap = np.maximum(a - tol - margin, 0.0)
                root = np.sqrt(r * r + 2.0 * m * gap)
                rising = r > 0.0
                step = np.zeros_like(a)
                step[rising] = (r[rising] + root[rising]) / m
                falling = ~rising & (gap > 0.0)
                step[falling] = 2.0 * gap[falling] / (root[falling] - r[falling])
                nxt = ts + step
                near = (a <= 2.0 * tol) & (q < 0.0)
                stalled = ~near & (nxt <= ts)
                candidate = near | stalled
                t[marching[~candidate]] = nxt[~candidate]
                passed = ~candidate & (nxt >= ends[marching])
                open_[marching[passed]] = False
                stops.append(marching[candidate])
                moduli.append(a[candidate])
                half_slopes.append(q[candidate])
                stalls.append(stalled[candidate])
                marching = marching[~candidate & ~passed]
            lanes = np.concatenate(stops)
            if lanes.size:
                a, q, stalled = map(np.concatenate, (moduli, half_slopes, stalls))
                lo = t[lanes]
                # the linear model o + s o' has its smallest modulus within 2 a/|r|
                width = np.divide(2.0 * a * a, -q, out=np.zeros_like(a), where=q < 0.0)
                far = lo + width
                t_star, refined = self.refine_minima(lo.copy(), far.copy())
                hit = refined <= tol
                zeros[lanes[hit]], zero_moduli[lanes[hit]] = t_star[hit], refined[hit]
                resume = ~hit & ~stalled & (far > lo)
                stuck[lanes[~hit & ~resume]] = True
                t[lanes[resume]] = far[resume]
                marching = np.sort(lanes[resume])
            pending = np.nonzero(open_)[0]
            if pending.size == 0:
                return None
            first = pending[0]
            if not math.isnan(zeros[first]):
                return float(zeros[first]), float(zero_moduli[first])
            if stuck[first]:
                raise self.inconclusive(self.smallest_evaluated())

    def smallest_minimum(self):
        """min |o| over every point evaluated, lowered by refining each gap
        between consecutive points whose end slopes straddle zero and whose
        two-sided second-order lower bound falls below the smallest sample.
        """
        ts, moduli, half_slopes = map(np.concatenate, zip(*self.points))
        ts, first = np.unique(ts, return_index=True)
        a, q = moduli[first], half_slopes[first]
        r = np.divide(q, a, out=np.zeros_like(q), where=a > 0.0)
        smallest = float(a.min())
        h = np.diff(ts)
        # f(s) = a_i + r_i s - M s^2/2 from the left end meets the bound from
        # the right end at s*; the lower bound on the gap is f(s*)
        m = self.curvature
        num = a[:-1] - a[1:] + r[1:] * h + 0.5 * m * h * h
        den = r[1:] - r[:-1] + m * h
        s = np.divide(num, den, out=np.full_like(h, -1.0), where=den != 0.0)
        inside = (s > 0.0) & (s < h)
        floor = a[:-1] + r[:-1] * s - 0.5 * m * s * s
        brackets = np.nonzero(inside & (floor < smallest) & (q[:-1] <= 0.0) & (q[1:] >= 0.0))[0]
        if brackets.size:
            _, refined = self.refine_minima(ts[brackets], ts[brackets + 1])
            smallest = min(smallest, float(refined.min()))
        return smallest


def orthogonalization_time(scenario: Scenario) -> OrthogonalizationResult:
    """Earliest time at which the evolved state is orthogonal to the start.

    A dominant level certifies analytically that the overlap modulus never
    drops below 2 P - 1, where P > 1/2 is the largest population of a level:
    a run of eigenvalues that no gap above GAP_TOL_FACTOR * max(||H||_2,
    E_max - E_min) separates, the degeneracy convention of the whole search.
    The populations sum with rounding, so the reported floor is capped at 1.
    No search runs then, nor on a fully degenerate spectrum (|o| = 1).

    Otherwise a certified march looks for the first time with |o| at or
    below DEFAULT_TOL_ORTH, up to a horizon of HORIZON_PERIODS slowest beat
    periods.  It starts at the Mandelstam-Tamm time hbar arccos(tol) / dH,
    before which |o| >= cos(dH t / hbar) > tol.  From a point with modulus a
    and radial slope r it steps by the positive root s of
    a + r s - (dH/hbar)^2 s^2 / 2 = tol + margin, a second-order
    Piyavskii-Shubert step: no modulus at or below tol lies within it.  The
    margin d eps (1 + max|E_k - <H>| t / hbar) covers the rounding of the
    phases up to the window's end.  The windows run in time order, the first
    8 pi hbar / dH wide and each next one twice as wide; each is split into
    MARCH_LANES lanes that march together.  A lane that gets within 2 tol on
    a descent, or whose step stops moving it, is refined by bisecting the
    |o|^2 slope to REFINE_REL_TOL relative to max(t, hbar / dH); the first
    window holding a refined minimum at or below tol returns the earliest.

    min_observed_overlap is |o(tau_perp)| when found.  When the march
    certifies that no zero lies up to the horizon, the span [0, t_MT] is
    marched too and min_observed_overlap is the minimum of |o| over
    [0, horizon]: the smallest evaluated modulus, lowered by refining each
    gap between evaluated points whose end slopes straddle zero and whose
    second-order lower bound falls below it.  The result and the error carry
    the evaluations and windows spent and what decided the outcome.

    Raises:
        InconclusiveScanError: nothing found and no certificate applies, or
            the march spent MARCH_BUDGET evaluations, or its step stopped
            moving before a minimum above tol, or (dH / hbar)^2 overflows
            or underflows;
            min_observed_overlap is then the smallest modulus evaluated.
    """
    spec, hbar = scenario.spectrum, scenario.hbar
    probs = _populations(scenario)
    evals = spec.eigenvalues

    gap_tol = GAP_TOL_FACTOR * max(_energy_scale(spec), spec.span)
    gaps = np.diff(evals)
    real = gaps > gap_tol
    if not real.any():
        # fully degenerate spectrum: overlap modulus is identically 1
        return OrthogonalizationResult(
            "never_orthogonal", None, 1.0, 1.0, 0.0, 0, 0, "degenerate"
        )

    # a level is a run of eigenvalues that no gap above gap_tol separates
    levels = np.add.reduceat(probs, np.flatnonzero(np.concatenate(([True], real))))
    bound = min(1.0, 2.0 * float(levels.max()) - 1.0)
    if bound > DEFAULT_TOL_ORTH:
        return OrthogonalizationResult(
            "never_orthogonal", None, bound, 1.0, 0.0, 0, 0, "certificate"
        )

    horizon = HORIZON_PERIODS * 2.0 * math.pi * hbar / float(gaps[real].min())
    march = _March(probs, evals, hbar, horizon)
    if not 0.0 < march.curvature < math.inf:
        # no step is certified when (dH / hbar)^2 overflows or underflows
        raise march.inconclusive(march.smallest_evaluated())
    scale = 1.0 / math.sqrt(march.curvature)
    start = min(horizon, math.acos(DEFAULT_TOL_ORTH) * scale)
    spans = [start]
    width = 8.0 * math.pi * scale
    while spans[-1] < horizon:
        spans.append(min(horizon, spans[-1] + width))
        width *= 2.0
    # the span before the start is marched only to observe the minimum
    for lo, hi in [*zip(spans, spans[1:]), (0.0, start)]:
        zero = march.window(lo, hi)
        if zero is not None:
            tau, modulus = zero
            return OrthogonalizationResult(
                "found", tau, None, modulus, float(horizon),
                march.evaluations, march.windows, "march",
            )
    march.evaluate(np.array([horizon]))
    raise march.inconclusive(march.smallest_minimum())


class SpeedLimitBounds(NamedTuple):
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


def ml_bounds(scenario: Scenario) -> SpeedLimitBounds:
    """Margolus-Levitin style lower bounds on the orthogonalization time."""
    half_pi_hbar = 0.5 * math.pi * scenario.hbar
    mean, spread, shifted_mean, floor = _energy_moments(scenario)
    from_spread = half_pi_hbar / spread if spread > floor else math.inf
    from_mean = half_pi_hbar / shifted_mean if shifted_mean > floor else math.inf
    raw = half_pi_hbar / mean if abs(mean) > floor else math.inf
    return SpeedLimitBounds(from_spread, from_mean, raw)


def qsl_tau(scenario: Scenario) -> float:
    """Unified quantum speed limit: the larger of the two ml_bounds,
    pi*hbar / (2 min(dH, <H'>)) with E_min = 0 (Levitin & Toffoli 2009).

    Infinite for energy eigenstates (either moment vanishes), which never
    reach an orthogonal state under closed evolution.
    """
    bounds = ml_bounds(scenario)
    return max(bounds.from_energy_spread, bounds.from_mean_energy)
