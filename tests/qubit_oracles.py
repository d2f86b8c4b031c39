"""Closed-form references for the two-level presets, which the tests compare
the spectral pipeline against.

Under H = (hbar*omega/2) sigma_z, a preset alpha1 |up_z> + alpha2 |down_z>
precesses about z, so <sigma_x>, its rate and its spread, the energy spread
and the Mandelstam-Tamm timescale of sigma_x have closed forms in
alpha1 conj(alpha2) and omega t.
"""

import math

import numpy as np

from quncert.qubit import QubitPreset, _interference


def analytic_sx_mean(preset: QubitPreset, t):
    """<sigma_x>(t) = 2 [Re(a1 a2*) cos wt + Im(a1 a2*) sin wt]."""
    re, im = _interference(preset)
    wt = preset.omega * np.asarray(t, dtype=np.float64)
    return 2.0 * (re * np.cos(wt) + im * np.sin(wt))


def analytic_sx_rate(preset: QubitPreset, t):
    """d<sigma_x>/dt = -2 w [Re(a1 a2*) sin wt - Im(a1 a2*) cos wt]."""
    re, im = _interference(preset)
    wt = preset.omega * np.asarray(t, dtype=np.float64)
    return -2.0 * preset.omega * (re * np.sin(wt) - im * np.cos(wt))


def analytic_sx_std(preset: QubitPreset, t):
    """Delta sigma_x(t) = |a1^2 exp(-i wt) - a2^2 exp(+i wt)|."""
    wt = preset.omega * np.asarray(t, dtype=np.float64)
    a1sq = preset.alpha1 * preset.alpha1
    a2sq = preset.alpha2 * preset.alpha2
    return np.abs(a1sq * np.exp(-1j * wt) - a2sq * np.exp(1j * wt))


def analytic_energy_spread(preset: QubitPreset) -> float:
    """Delta H = hbar w |a1||a2| (constant in time)."""
    return preset.hbar * preset.omega * abs(preset.alpha1) * abs(preset.alpha2)


def analytic_mt_delta_t(preset: QubitPreset, t):
    """Closed-form Mandelstam-Tamm timescale Delta sigma_x / |d<sigma_x>/dt|.

    Samples where the rate falls at or below the scale-aware threshold carry
    math.inf (the clock pauses at turning points of <sigma_x>).

    Raises:
        ValueError: coherence is zero, so the clock observable is static.
    """
    if preset.coherence == 0.0:
        raise ValueError("clock observable static: preset has zero coherence")
    rate_eps = 1e-12 * preset.omega  # span * ||sigma_x|| / hbar = w
    spread = analytic_sx_std(preset, t)
    rate = np.abs(analytic_sx_rate(preset, t))
    scalar = np.ndim(t) == 0
    spread = np.atleast_1d(spread)
    rate = np.atleast_1d(rate)
    out = np.full(spread.shape, math.inf)
    live = rate > rate_eps
    out[live] = spread[live] / rate[live]
    return float(out[0]) if scalar else out
