"""Closed-system quantum dynamics with time-energy uncertainty analyzers.

Each public name is imported from its layer on first access (PEP 562), so a
process loads only the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# every public name, by the layer that defines it
_EXPORTS = {
    "hilbert": (
        "ConvergenceError",
        "SpectralDecomposition",
        "commutator",
        "eigendecompose",
        "hermitian_defect",
        "propagator",
        "require_hermitian",
    ),
    "qstat": (
        "CoherenceSummary",
        "StatSummary",
        "coherence_from_amplitudes",
        "stats",
    ),
    "dynamics": (
        "ConservationReport",
        "OffsetInvarianceReport",
        "Scenario",
        "SeriesStats",
        "TimeGrid",
        "Trajectory",
        "check_conservation",
        "default_time_grid",
        "ehrenfest_rate",
        "ehrenfest_residual",
        "evolve",
        "offset_invariance_check",
    ),
    "uncertainty": (
        "BoundCheck",
        "InconclusiveScanError",
        "MTSample",
        "OrthogonalizationResult",
        "SpeedLimitBounds",
        "ml_bounds",
        "mt_series",
        "orthogonalization_time",
        "qsl_tau",
        "robertson_check",
        "schrodinger_check",
        "state_overlap",
    ),
    "qubit": (
        "FIGURE_PRESETS",
        "QubitPreset",
        "TickTockReport",
        "pauli",
        "qubit_scenario",
        "spin_projectors",
        "tick_tock",
    ),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value  # bound as an eager import would bind it
    return value


def __dir__():
    return sorted({*globals(), *__all__})
