"""Two-level test bench: precession under H = (hbar*omega/2) sigma_z.

Carries the figure presets and the tick/tock clock extractor used for the
Einstein-Planck clock check h*nu = delta_E.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import Scenario, Trajectory, _on_default_grid
from .hilbert import as_state, require_positive_finite

SIGMA_X = np.asarray([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.asarray([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.asarray([[1, 0], [0, -1]], dtype=np.complex128)

# series whose full range is below this carry no usable clock signal
CLOCK_RANGE_MIN = 1e-9
MIN_EXTREMA = 3


def pauli(axis: str) -> np.ndarray:
    """Pauli matrix for axis 'x', 'y' or 'z' (fresh copy)."""
    try:
        return {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}[axis].copy()
    except KeyError:
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}") from None


def spin_projectors(axis: str) -> tuple[np.ndarray, np.ndarray]:
    """(P_plus, P_minus) projectors onto the +1/-1 eigenvectors of pauli(axis)."""
    s = pauli(axis)
    eye = np.eye(2, dtype=np.complex128)
    return 0.5 * (eye + s), 0.5 * (eye - s)


@dataclass(frozen=True)
class QubitPreset:
    """Initial state alpha1 |up_z> + alpha2 |down_z> precessing at omega.

    alpha1 rides the upper level (+hbar*omega/2), alpha2 the lower one.
    """

    omega: float
    alpha1: complex
    alpha2: complex
    hbar: float = 1.0

    def __post_init__(self):
        require_positive_finite(self.omega, "omega")
        require_positive_finite(self.hbar, "hbar")
        as_state([self.alpha1, self.alpha2], "preset amplitudes", norm_tol=1e-12)

    @property
    def coherence(self) -> float:
        return 2.0 * abs(self.alpha1) * abs(self.alpha2)

    def state(self) -> np.ndarray:
        return np.asarray([self.alpha1, self.alpha2], dtype=np.complex128)

    def hamiltonian(self) -> np.ndarray:
        return 0.5 * self.hbar * self.omega * SIGMA_Z


def _preset(p1: float, p2: float) -> QubitPreset:
    return QubitPreset(omega=1.0, alpha1=math.sqrt(p1), alpha2=math.sqrt(p2))


# Figure presets: probability weights (|alpha1|^2, |alpha2|^2) on the upper
# and lower level.  Coherences: fig1 0, 0.745, 0.943, 1; fig2 0, 0.312,
# 0.745, 1; fig3 0.436 (A,B) and 0.995 (C,D).
FIGURE_PRESETS: dict[str, QubitPreset] = {
    "fig1A": _preset(1.0, 0.0),
    "fig1B": _preset(5 / 6, 1 / 6),
    "fig1C": _preset(2 / 3, 1 / 3),
    "fig1D": _preset(1 / 2, 1 / 2),
    "fig2A": _preset(1.0, 0.0),
    "fig2B": _preset(39 / 40, 1 / 40),
    "fig2C": _preset(5 / 6, 1 / 6),
    "fig2D": _preset(1 / 2, 1 / 2),
    "fig3AB": _preset(19 / 20, 1 / 20),
    "fig3CD": _preset(11 / 20, 9 / 20),
}


def default_clock_observables() -> dict[str, np.ndarray]:
    """The transverse clock observable and its two projectors."""
    plus, minus = spin_projectors("x")
    return {"sx": pauli("x"), "proj_up_x": plus, "proj_down_x": minus}


def qubit_scenario(
    preset: QubitPreset,
    observables: dict | None = None,
    steps: int = 1000,
) -> Scenario:
    """Scenario for a preset: two precession periods (default_time_grid)."""
    observables = default_clock_observables() if observables is None else observables
    return _on_default_grid(preset.hbar, preset.hamiltonian(), preset.state(), observables, steps)


def _interference(preset: QubitPreset):
    cross = preset.alpha1 * np.conj(preset.alpha2)
    return float(cross.real), float(cross.imag)


class TickTockReport(NamedTuple):
    """Alternating extrema of a clock observable and the implied clock rate."""

    extrema: list          # [(time, "tick" | "tock"), ...] tick = max, tock = min
    delta_t: float         # mean spacing between consecutive extrema
    delta_e: float         # E_max - E_min of the driving Hamiltonian
    product: float         # delta_e * delta_t, compared against h/2


def tick_tock(trajectory: Trajectory, observable_name: str) -> TickTockReport:
    """Locate alternating extrema of a mean series and form the clock product.

    Extrema are detected as sign changes of the first difference and then
    refined with a three-point parabola, which is accurate to O(step^3) for
    sinusoidal signals. Exact-zero differences (grid points symmetric about
    a vertex) are folded into the bracketed plateau rather than dropped.

    Raises:
        ValueError: series range below CLOCK_RANGE_MIN ("no clock signal"),
            unknown observable, or fewer than MIN_EXTREMA extrema.
    """
    if observable_name not in trajectory.observables:
        raise ValueError(f"trajectory has no observable {observable_name!r}")
    y = trajectory.observables[observable_name].mean
    ts = trajectory.times
    if float(y.max() - y.min()) <= CLOCK_RANGE_MIN:
        raise ValueError("no clock signal: observable series is constant")

    step = ts[1] - ts[0]
    signs = np.sign(np.diff(y))
    sloped = np.flatnonzero(signs)
    # a turning point follows each nonzero difference whose next nonzero one
    # has the opposite sign; the samples between them differ by exact zeros,
    # so the first of them stands for all
    turns = sloped[:-1][signs[sloped[:-1]] * signs[sloped[1:]] < 0]
    j = turns + 1
    denom = y[j - 1] - 2.0 * y[j] + y[j + 1]
    offset = np.divide(
        0.5 * step * (y[j - 1] - y[j + 1]), denom, out=np.zeros(j.size), where=denom != 0.0
    )
    times = ts[j] + offset
    if times.size < MIN_EXTREMA:
        raise ValueError(
            f"need at least {MIN_EXTREMA} extrema to estimate the clock rate, "
            f"found {times.size}"
        )
    extrema = [(float(t), "tick" if s > 0 else "tock") for t, s in zip(times, signs[turns])]
    delta_t = float(np.mean(np.diff(times)))
    delta_e = trajectory.energy_span
    return TickTockReport(extrema, delta_t, delta_e, delta_e * delta_t)
