"""Closed-system evolution under a time-independent Hamiltonian.

Evolution is spectral: the initial state is expanded over the energy
eigenbasis once and each grid time applies pure phase factors.  On top of the
trajectories sit the conservation, offset-invariance and Ehrenfest-rate
measurements, and the Mandelstam-Tamm columns read off a trajectory's states.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import hilbert, qstat

# centered-difference step as a fraction of the fastest oscillation period
FD_STEP_FRACTION = 1e-4
DEFAULT_STEPS = 1000
# The energy thresholds are relative to ||H||_2 = max|E_k| (hilbert._energy_scale), so
# they hold in any unit; H = 0 meets each of them with equality.
# a spread at or below this is an eigenstate: no Mandelstam-Tamm clock or spread bound
ENERGY_SPREAD_MIN = 1e-12
# scale factor for the rate threshold that flags a sample as infinite
RATE_EPS_FACTOR = 1e-12
# a shifted or raw mean energy at or below this makes its bound infinite
MEAN_ENERGY_MIN = 1e-14

_NAME_OK = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: `steps` points from start to stop inclusive."""

    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if not math.isfinite(self.stop - self.start):
            raise ValueError(f"grid bounds and width must be finite, got [{self.start}, {self.stop}]")
        if not self.stop > self.start:
            raise ValueError(f"stop must exceed start, got [{self.start}, {self.stop}]")
        if isinstance(self.steps, bool) or not isinstance(self.steps, (int, np.integer)):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        # numpy holds at most intp.max bytes in one array: (2^63 - 1) // 8 float64 times
        if not 2 <= self.steps <= np.iinfo(np.intp).max // 8:
            raise ValueError(f"steps must be >= 2 and fit one float64 array, got {self.steps}")

    def times(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)

    @property
    def step(self) -> float:
        return (self.stop - self.start) / (self.steps - 1)


def _validated_observables(observables, dim: int) -> MappingProxyType:
    out = {}
    for name, matrix in observables.items():
        if not name or any(ch not in _NAME_OK for ch in name):
            raise ValueError(f"observable name {name!r} is not an identifier")
        if name == "energy":
            raise ValueError("'energy' is reserved for the Hamiltonian series")
        m = _require_observable(matrix, dim, f"observable {name!r}")
        out[name] = _frozen_copy(m)
    return MappingProxyType(out)


def _require_observable(matrix, dim: int, name: str = "observable") -> np.ndarray:
    """The one check that a matrix is a Hermitian observable of dimension dim."""
    m = hilbert.require_hermitian(matrix, name)
    if m.shape[0] != dim:
        raise ValueError(f"{name} has dimension {m.shape[0]}, expected {dim}")
    return m


def _frozen_copy(array: np.ndarray) -> np.ndarray:
    """Read-only private copy, so caches derived from it cannot go stale."""
    out = np.array(array, copy=True)
    out.setflags(write=False)
    return out


def _require_phase_range(grid: TimeGrid, hbar: float) -> None:
    """The one guard of every Scenario's grid: its largest |t| / hbar is finite."""
    t_max = max(abs(grid.start), abs(grid.stop))
    if not math.isfinite(t_max / hbar):
        raise ValueError(f"t / hbar overflows: |t| reaches {t_max!r} at hbar = {hbar!r}")


@dataclass(frozen=True)
class Scenario:
    """Hamiltonian, initial state, sampling grid, and named observables.

    The arrays are read-only copies of the caller's, and ``observables`` is a
    read-only mapping, so nothing bypasses the validation.  The spectral
    decomposition, the initial energy amplitudes and the level populations
    are computed on first use and cached; ``dataclasses.replace`` builds a
    new instance with caches of its own.
    """

    hbar: float
    hamiltonian: np.ndarray
    initial_state: np.ndarray
    time_grid: TimeGrid
    observables: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "hbar", hilbert.require_positive_finite(self.hbar, "hbar"))
        _require_phase_range(self.time_grid, self.hbar)
        h = hilbert.require_hermitian(self.hamiltonian, "hamiltonian")
        if h.shape[0] < 2:
            raise ValueError("scenario needs dimension >= 2")
        psi = hilbert.as_state(self.initial_state, "initial_state")
        if psi.shape[0] != h.shape[0]:
            raise ValueError(
                f"initial_state dimension {psi.shape[0]} does not match "
                f"hamiltonian dimension {h.shape[0]}"
            )
        object.__setattr__(self, "hamiltonian", _frozen_copy(h))
        object.__setattr__(self, "initial_state", _frozen_copy(psi))
        object.__setattr__(
            self, "observables", _validated_observables(self.observables, h.shape[0])
        )

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @cached_property
    def spectrum(self) -> hilbert.SpectralDecomposition:
        """Spectral decomposition of the validated Hamiltonian, computed once."""
        return hilbert._eigendecompose_stack(self.hamiltonian[None])[0]

    @cached_property
    def amplitudes(self) -> np.ndarray:
        """Initial state's expansion over the eigenbasis, ascending energy."""
        alpha0 = self.spectrum.eigenvectors.conj().T @ self.initial_state
        alpha0.setflags(write=False)
        return alpha0

    @cached_property
    def _populations(self) -> np.ndarray:
        """Initial energy populations per level (hilbert.Levels): |a_k|^2 summed over its columns."""
        probs = np.add.reduceat(np.abs(self.amplitudes) ** 2, self.spectrum.levels.starts)
        return _frozen_copy(probs)


def _on_default_grid(
    hbar, hamiltonian, initial_state, observables, steps: int = DEFAULT_STEPS
) -> Scenario:
    """Scenario on default_time_grid, with its Hamiltonian decomposed once.

    The grid depends on the spectrum, which the Scenario computes and caches
    only after it exists: it is built on a placeholder grid, which is then
    replaced by the grid read from its own cached spectrum.
    """
    placeholder = TimeGrid(0.0, hilbert.require_positive_finite(hbar, "hbar"), 2)
    scenario = Scenario(hbar, hamiltonian, initial_state, placeholder, observables)
    grid = default_time_grid(scenario.spectrum, hbar, steps)
    _require_phase_range(grid, scenario.hbar)
    object.__setattr__(scenario, "time_grid", grid)
    return scenario


def default_time_grid(hamiltonian, hbar: float = 1.0, steps: int = DEFAULT_STEPS) -> TimeGrid:
    """Two of the fastest periods (_period): [0, 4*pi*hbar/(E_max - E_min)],
    or [0, 4*pi] for a fully degenerate spectrum."""
    spec = (
        hamiltonian
        if isinstance(hamiltonian, hilbert.SpectralDecomposition)
        else hilbert.eigendecompose(hamiltonian)
    )
    return TimeGrid(0.0, 2.0 * _period(spec, hilbert.require_positive_finite(hbar, "hbar")), steps)


class SeriesStats(NamedTuple):
    """Per-time mean/variance/stddev arrays for one observable."""

    mean: np.ndarray
    variance: np.ndarray
    stddev: np.ndarray


class Trajectory(NamedTuple):
    """Sampled evolution: per-observable statistics plus coherence series."""

    times: np.ndarray
    observables: dict            # name -> SeriesStats
    energy: SeriesStats
    coherence: np.ndarray
    predictability: np.ndarray
    states: np.ndarray | None    # (dim, len(times)) column snapshots, optional
    energy_span: float           # max - min of the level energies populated above d eps


def _states_at(scenario: Scenario, times) -> np.ndarray:
    """State columns psi(t), shape (dim, len(times)), from the cached expansion.

    psi(t) = sum_k a_k exp(-i E_k t / hbar) |E_k>: pure phase factors on the
    initial energy amplitudes, reassembled in the original basis.
    """
    spec = scenario.spectrum
    phases = hilbert._phases(spec.eigenvalues, times, scenario.hbar)
    return spec.eigenvectors @ (scenario.amplitudes[:, None] * phases)


def _series_stats(matrix: np.ndarray, states: np.ndarray) -> SeriesStats:
    means, variances, _ = qstat._moments(matrix, states)
    return SeriesStats(means, variances, np.sqrt(variances))


def _energy_moments(scenario: Scenario):
    """<H>, dH, <H> - E_min and MEAN_ENERGY_MIN * ||H||_2, the threshold of
    both mean energies, from the level populations over the level energies."""
    spec, probs = scenario.spectrum, scenario._populations
    mean = float(probs @ spec.levels.energies)
    # shifted second moment: an eigenstate's spread is exactly zero, not the
    # sqrt(eps)-sized cancellation residue that would defeat _energy_spread
    spread = math.sqrt(float(probs @ (spec.levels.energies - mean) ** 2))
    shifted_mean = mean - float(spec.levels.energies[0])
    return mean, spread, shifted_mean, MEAN_ENERGY_MIN * hilbert._energy_scale(spec.eigenvalues)


def _energy_spread(scenario: Scenario) -> tuple[float, float]:
    """Delta H on the initial state (_energy_moments) and the one eigenstate
    threshold ENERGY_SPREAD_MIN * ||H||_2: a state at or below it has no
    Mandelstam-Tamm clock and no spread bound (ml_bounds)."""
    spread = _energy_moments(scenario)[1]
    return spread, ENERGY_SPREAD_MIN * hilbert._energy_scale(scenario.spectrum.eigenvalues)


def _rates(a: np.ndarray, h: np.ndarray, states: np.ndarray, hbar: float) -> np.ndarray:
    """Exact rates d<A>/dt = <[A, H]> / (i hbar) on (d, T) state columns, the
    means of a Hermitian generator (qstat._means); nothing is validated.  A
    generator beyond the float range, at a tiny hbar, raises ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):
        generator = hilbert._commutator(a, h) / (1j * hbar)
    if not np.isfinite(generator).all():
        raise ValueError(f"the rate generator [A, H]/(i hbar) overflows at hbar = {hbar!r}")
    return qstat._means(generator, states)[0]


def _mt_columns(a, scenario: Scenario, states, delta_a):
    """Rates |d<A>/dt|, dT = dA / rate and dH * dT of a validated observable
    on (d, T) state columns with spreads ``delta_a``; dT and the product are
    math.inf at rates at or below the scale-aware threshold.  An energy
    eigenstate, which has no clock, raises ValueError."""
    energy_spread, floor = _energy_spread(scenario)
    if energy_spread <= floor:
        raise ValueError(
            "Mandelstam-Tamm timescale is undefined for energy eigenstates "
            f"(energy spread {energy_spread:.3e})"
        )
    norm = float(np.linalg.norm(a, 2))
    rate_eps = RATE_EPS_FACTOR * scenario.spectrum.span * norm / scenario.hbar
    rates = np.abs(_rates(a, scenario.hamiltonian, states, scenario.hbar))
    with np.errstate(over="ignore"):  # a timescale beyond the float range rounds to inf
        delta_t = np.divide(delta_a, rates, out=np.full_like(rates, math.inf), where=rates > rate_eps)
        return rates, delta_t, energy_spread * delta_t


def _trajectory_mt(scenario: Scenario, trajectory: Trajectory, name: str):
    """Mandelstam-Tamm rate, dT and product of ``name`` off a trajectory with states."""
    a, delta_a = scenario.observables[name], trajectory.observables[name].stddev
    return _mt_columns(a, scenario, trajectory.states, delta_a)


def evolve(scenario: Scenario, store_states: bool = True) -> Trajectory:
    """Sample the closed-system evolution over the scenario's time grid.

    Each time applies phase factors exp(-i E_k t / hbar) to the initial
    energy amplitudes; the statistics and the coherence series are then
    recomputed from the reassembled state at every grid point.
    """
    spec = scenario.spectrum
    times = scenario.time_grid.times()
    states = _states_at(scenario, times)

    series = {
        name: _series_stats(matrix, states)
        for name, matrix in scenario.observables.items()
    }
    energy = _series_stats(scenario.hamiltonian, states)
    populated = spec.levels.energies[scenario._populations > scenario.dim * np.finfo(np.float64).eps]
    coherence, predictability = qstat._coherence_columns(
        np.abs(spec.eigenvectors.conj().T @ states)
    )

    return Trajectory(
        times=times,
        observables=series,
        energy=energy,
        coherence=coherence,
        predictability=predictability,
        states=states if store_states else None,
        energy_span=float(populated.max() - populated.min()),
    )


class ConservationReport(NamedTuple):
    """Max drift from the initial value of each conserved series; verify judges it."""

    drifts: dict            # series name -> max |x(t) - x(0)|

    @property
    def max_drift(self) -> float:
        return max(self.drifts.values())


def check_conservation(trajectory: Trajectory) -> ConservationReport:
    """Measure the drift of the energy statistics and coherence over time."""
    series = {
        "energy_mean": trajectory.energy.mean,
        "energy_variance": trajectory.energy.variance,
        "energy_stddev": trajectory.energy.stddev,
        "coherence": trajectory.coherence,
        "predictability": trajectory.predictability,
    }
    drifts = {
        name: float(np.max(np.abs(values - values[0])))
        for name, values in series.items()
    }
    return ConservationReport(drifts)


def _shift(h: np.ndarray, offset: float) -> np.ndarray:
    """H + offset * identity of a validated H and offset."""
    return h + offset * np.eye(h.shape[0], dtype=np.complex128)


class OffsetInvarianceReport(NamedTuple):
    """The defects between the H and H + offset * identity evolutions, each
    zero in exact arithmetic; verify compares them with its limit."""

    offset: float
    max_observable_diff: float     # over all named observables and times
    max_phase_defect: float        # max | |<psi(t)|psi'(t)>| - 1 |
    max_energy_shift_defect: float # max | <H'>(t) - <H>(t) - offset |


def offset_invariance_check(scenario: Scenario, offsets) -> list[OffsetInvarianceReport]:
    """Measure energy-offset invariance: identical physics, a global phase in the state.

    ``offsets`` is a sequence of finite reals E0; the result holds one
    report of measured defects per offset, in order.  The base trajectory is
    evolved once and compared with the evolution under each H + E0 * identity,
    one shifted trajectory at a time; the base and shifted Hamiltonians are
    decomposed together (_offset_comparison).
    """
    return _offset_comparison(scenario, offsets)[1]


def _offset_comparison(
    scenario: Scenario, offsets
) -> tuple[Trajectory, list[OffsetInvarianceReport]]:
    """The base trajectory and one OffsetInvarianceReport per offset.

    Each shifted scenario copies the base's fields with H + offset * identity;
    a real shift of the diagonal leaves every entry of H - H^dagger as it is,
    so only a Frobenius norm that overflows is refused.  All
    shifted Hamiltonians are decomposed in one stacked call, led by the base
    Hamiltonian when the base has no cached spectrum yet, before the base is
    evolved; each spectrum is seeded into its Scenario's cache, as
    _on_default_grid seeds the grid.  A member of a stack gets the bits it
    gets alone, so the seeded spectra are those each Scenario would compute
    for itself.  Each shifted trajectory is then evolved and compared in turn.
    The conservation and Mandelstam-Tamm checks read the base trajectory too.
    """
    offsets = list(offsets)
    base_fields = {f.name: getattr(scenario, f.name) for f in fields(scenario)}
    shifted = []
    for offset in offsets:
        with np.errstate(over="ignore"):
            h = _shift(scenario.hamiltonian, hilbert.require_finite_real(offset, "offset"))
            if not math.isfinite(float(np.linalg.norm(h))):
                raise ValueError("hamiltonian is too large: its Frobenius norm overflows")
        s = object.__new__(type(scenario))  # no __post_init__, and no cached spectrum
        vars(s).update(base_fields, hamiltonian=_frozen_copy(h))
        shifted.append(s)
    if shifted:
        members = shifted if "spectrum" in vars(scenario) else [scenario, *shifted]
        spectra = hilbert._eigendecompose_stack(np.stack([s.hamiltonian for s in members]))
        for s, spec in zip(members, spectra):
            object.__setattr__(s, "spectrum", spec)
    base = evolve(scenario, store_states=True)
    return base, [
        _offset_report(base, evolve(s, store_states=True), offset)
        for offset, s in zip(offsets, shifted)
    ]


def _offset_report(base: Trajectory, shifted: Trajectory, offset) -> OffsetInvarianceReport:
    """Compare the base trajectory with the one under H + offset * identity."""
    diffs = [0.0]
    for name, ref in base.observables.items():
        other = shifted.observables[name]
        diffs.append(float(np.max(np.abs(other.mean - ref.mean))))
        diffs.append(float(np.max(np.abs(other.variance - ref.variance))))
        diffs.append(float(np.max(np.abs(other.stddev - ref.stddev))))
    diffs.append(float(np.max(np.abs(shifted.coherence - base.coherence))))
    diffs.append(float(np.max(np.abs(shifted.predictability - base.predictability))))
    max_diff = max(diffs)

    overlaps = np.einsum("it,it->t", base.states.conj(), shifted.states)
    phase_defect = float(np.max(np.abs(np.abs(overlaps) - 1.0)))
    energy_defect = float(
        np.max(np.abs(shifted.energy.mean - base.energy.mean - offset))
    )
    return OffsetInvarianceReport(offset, max_diff, phase_defect, energy_defect)


def ehrenfest_rate(observable, hamiltonian, state, hbar: float = 1.0) -> float:
    """Exact mean-motion rate d<A>/dt = <[A, H]> / (i hbar)."""
    h = hilbert.require_hermitian(hamiltonian, "hamiltonian")
    a = _require_observable(observable, h.shape[0])
    psi = hilbert.as_state(state)
    if psi.shape[0] != h.shape[0]:
        raise ValueError(f"dimension mismatch: {h.shape[0]} vs {psi.shape[0]}")
    return float(_rates(a, h, psi[:, None], hilbert.require_positive_finite(hbar, "hbar"))[0])


def _period(spec: hilbert.SpectralDecomposition, hbar: float) -> float:
    """The fastest period 2*pi*hbar/(E_max - E_min); 2*pi for a fully degenerate
    spectrum, of one level (spec.levels), which has none: its default grid is [0, 4*pi].
    A period beyond the float range raises ValueError."""
    if spec.levels.energies.size == 1:
        return 2.0 * math.pi
    period = 2.0 * math.pi * hbar / spec.span
    if not math.isfinite(period):
        raise ValueError(f"the fastest period 2*pi*hbar/(E_max - E_min) overflows at hbar = {hbar!r}")
    return period


def default_fd_step(spec: hilbert.SpectralDecomposition, hbar: float) -> float:
    """FD_STEP_FRACTION of the fastest period (_period); a step that
    underflows to 0 raises ValueError."""
    step = FD_STEP_FRACTION * _period(spec, hbar)
    if step == 0.0:
        raise ValueError(f"the default fd_step underflows to 0 at hbar = {hbar!r}")
    return step


def ehrenfest_residual(
    observable, scenario: Scenario, t: float, fd_step: float | None = None
) -> float:
    """|centered difference of <A> - exact commutator rate| at time t.

    The centered difference uses exact spectral evolution at t +- fd_step, so
    the residual is pure O(fd_step^2) truncation error.
    """
    return _ehrenfest_residual(_require_observable(observable, scenario.dim), scenario, t, fd_step)


def _ehrenfest_residual(a: np.ndarray, scenario: Scenario, t, fd_step) -> float:
    """ehrenfest_residual of an observable the caller has validated."""
    t = hilbert.require_finite_real(t, "t")
    spec = scenario.spectrum
    if fd_step is None:
        fd_step = default_fd_step(spec, scenario.hbar)
    hilbert.require_positive_finite(fd_step, "fd_step")

    # one single-column evaluation per stencil point, so that the rounding of
    # each mean (which the difference quotient amplifies by 1/fd_step) does
    # not depend on how many columns share a matrix product
    plus, minus = (
        float(qstat._means(a, _states_at(scenario, [tau]))[0][0])
        for tau in (t + fd_step, t - fd_step)
    )
    fd = (plus - minus) / (2.0 * fd_step)
    exact = _rates(a, scenario.hamiltonian, _states_at(scenario, [t]), scenario.hbar)
    return abs(fd - float(exact[0]))
