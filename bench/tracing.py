"""Timing wrappers around the public functions of each quncert layer.

A ``Tracer`` replaces every module-global binding of each function named in
``LAYERS`` (``from .hilbert import eigendecompose`` copies the function into
``dynamics``, ``uncertainty`` and ``cli``; the package ``__init__`` re-exports
it again) with a wrapper that records one span per call: id, parent id,
operation id, name, start, end, self time and a per-layer detail.  Spans stay
in memory until ``write_spans``.  ``per_layer`` turns the spans of each
operation into the per-layer metrics and takes the median over operations.
"""

from __future__ import annotations

import cProfile
import functools
import gzip
import itertools
import json
import pstats
import statistics
import sys
import time

import numpy as np

LAYERS = {
    "hilbert": ("eigendecompose", "require_hermitian", "as_state"),
    "qstat": ("stats",),
    "dynamics": (
        "evolve",
        "ehrenfest_residual",
        "offset_invariance_check",
        "ehrenfest_rate",
    ),
    "uncertainty": (
        "robertson_check",
        "schrodinger_check",
        "mt_series",
        "orthogonalization_time",
        "state_overlap",
    ),
    "qubit": ("qubit_scenario", "tick_tock"),
    "cli": (
        "load_scenario",
        "write_trajectory_csv",
        "random_hermitian",
        "random_state",
        "main",
    ),
}

# Eigensolver cost is binned by the dimensions the two workloads use.
EIGEN_DIMS = (2, 3, 4, 5, 6, 24)
ORTHO_OUTCOMES = ("found", "never_orthogonal", "inconclusive")


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _eigen_detail(args, kwargs, outcome):
    m = np.asarray(_first_arg(args, kwargs, "matrix"), dtype=np.complex128)
    return m.shape[0], hash(m.tobytes())


def _evolve_detail(args, kwargs, outcome):
    scenario = _first_arg(args, kwargs, "scenario")
    return scenario.dim * scenario.time_grid.steps


def _mt_detail(args, kwargs, outcome):
    return 0 if isinstance(outcome, BaseException) else len(outcome)


def _ortho_detail(args, kwargs, outcome):
    if type(outcome).__name__ == "InconclusiveScanError":
        return "inconclusive"
    return "error" if isinstance(outcome, BaseException) else outcome.kind


def _csv_detail(args, kwargs, outcome):
    return len(_first_arg(args, kwargs, "trajectory").times)


DETAILS = {
    "hilbert.eigendecompose": _eigen_detail,
    "dynamics.evolve": _evolve_detail,
    "uncertainty.mt_series": _mt_detail,
    "uncertainty.orthogonalization_time": _ortho_detail,
    "cli.write_trajectory_csv": _csv_detail,
}


# Per-layer stats beyond calls and self_s, by span name.
EXTRA_STATS = {
    "hilbert.eigendecompose": {
        "distinct": "count",
        **{f"s_per_call.dim{dim}": "s" for dim in EIGEN_DIMS},
    },
    "dynamics.evolve": {"points": "count"},
    "uncertainty.mt_series": {"samples": "count"},
    "uncertainty.orthogonalization_time": {o: "count" for o in ORTHO_OUTCOMES},
    "cli.write_trajectory_csv": {"rows": "count"},
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units = {}
    for module, functions in LAYERS.items():
        for function in functions:
            base = f"{module}.{function}"
            units[f"{base}.calls"] = "count"
            units[f"{base}.self_s"] = "s"
            for stat, unit in EXTRA_STATS.get(base, {}).items():
                units[f"{base}.{stat}"] = unit
    units["trace.overhead_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def targets() -> dict[str, object]:
    """The original function objects, by span name, as the layers define them."""
    out = {}
    for module, functions in LAYERS.items():
        mod = sys.modules[f"quncert.{module}"]
        for function in functions:
            out[f"{module}.{function}"] = getattr(mod, function)
    return out


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = 0
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._patches: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        detail = DETAILS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]  # span id, time covered by child spans
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            outcome = None
            start = clock()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans.append((
                    frame[0], parent, self.op_id, name, start, end,
                    duration - frame[1],
                    detail(args, kwargs, outcome) if detail else None,
                ))

        return traced

    def __enter__(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "quncert" or key.startswith("quncert."))
        ]
        for name, original in targets().items():
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc_info):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        return False

    def write_spans(self, path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end", "self_s", "detail")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _op_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one operation's spans."""
    units = per_layer_units()
    out = {name: 0 if unit == "count" else 0.0 for name, unit in units.items()}
    eigen_time = {dim: 0.0 for dim in EIGEN_DIMS}
    eigen_calls = {dim: 0 for dim in EIGEN_DIMS}
    fingerprints = set()
    for _, _, _, name, start, end, self_s, detail in spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        if name == "hilbert.eigendecompose":
            dim, key = detail
            fingerprints.add(key)
            if dim in eigen_time:
                eigen_time[dim] += end - start
                eigen_calls[dim] += 1
        elif name == "dynamics.evolve":
            out[f"{name}.points"] += detail
        elif name == "uncertainty.mt_series":
            out[f"{name}.samples"] += detail
        elif name == "uncertainty.orthogonalization_time":
            if detail in ORTHO_OUTCOMES:
                out[f"{name}.{detail}"] += 1
        elif name == "cli.write_trajectory_csv":
            out[f"{name}.rows"] += detail
    out["hilbert.eigendecompose.distinct"] = len(fingerprints)
    for dim in EIGEN_DIMS:
        if eigen_calls[dim]:
            out[f"hilbert.eigendecompose.s_per_call.dim{dim}"] = (
                eigen_time[dim] / eigen_calls[dim]
            )
    return out


def per_layer(spans, op_ids) -> dict[str, float]:
    """Median over the given operations of each per-layer metric.

    The trace.* entries are left at zero for the caller to fill in.
    """
    by_op = {op: [] for op in op_ids}
    for span in spans:
        if span[2] in by_op:
            by_op[span[2]].append(span)
    per_op = [_op_metrics(op_spans) for op_spans in by_op.values()]
    return {
        name: statistics.median(m[name] for m in per_op) for name in per_op[0]
    }


def profile_calls(run) -> dict[str, int]:
    """cProfile call counts of every traced function while ``run()`` executes.

    Run without wrappers installed: it counts calls of the original code
    objects, which a missed binding would still reach.
    """
    originals = targets()
    profiler = cProfile.Profile()
    profiler.runcall(run)
    stats = pstats.Stats(profiler).stats
    counts = {}
    for name, fn in originals.items():
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        counts[name] = stats[key][1] if key in stats else 0
    return counts
