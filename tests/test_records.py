"""Result records keep the API they had as frozen dataclasses.

Every record that only carries results is a typing.NamedTuple: immutable,
constructible by position or keyword, with the Name(field=value, ...) repr,
and its fields in the order callers already rely on.
"""

import pytest

import quncert
from quncert import verify

RECORD_FIELDS = {
    quncert.SpectralDecomposition: ("eigenvalues", "eigenvectors", "sweeps", "offdiag_residual"),
    quncert.StatSummary: ("mean", "variance", "stddev"),
    quncert.CoherenceSummary: ("coherence", "predictability", "basis_dim"),
    quncert.SeriesStats: ("mean", "variance", "stddev"),
    quncert.Trajectory: (
        "times", "observables", "energy", "coherence", "predictability", "states",
        "energy_span",
    ),
    quncert.ConservationReport: ("drifts", "tolerance", "passed"),
    quncert.OffsetInvarianceReport: (
        "offset", "max_observable_diff", "max_phase_defect", "max_energy_shift_defect",
        "tolerance", "passed",
    ),
    quncert.BoundCheck: ("lhs", "rhs", "slack", "satisfied"),
    quncert.MTSample: ("t", "delta_a", "rate", "delta_t", "product"),
    quncert.OrthogonalizationResult: (
        "kind", "tau_perp", "min_overlap_bound", "min_observed_overlap", "horizon",
        "evaluations", "windows", "decided_by",
    ),
    quncert.SpeedLimitBounds: (
        "from_energy_spread", "from_mean_energy", "from_mean_energy_unshifted",
    ),
    quncert.TickTockReport: ("extrema", "delta_t", "delta_e", "product"),
    verify.Check: ("name", "lhs", "rhs", "slack", "verdict"),
}

RECORDS = pytest.mark.parametrize("record", RECORD_FIELDS, ids=lambda r: r.__name__)


def _by_keyword(record):
    values = {name: float(k) for k, name in enumerate(RECORD_FIELDS[record])}
    return record(**values), values


@RECORDS
def test_fields_keep_their_order(record):
    assert record._fields == RECORD_FIELDS[record]
    assert record._field_defaults == {}


@RECORDS
def test_keyword_construction(record):
    instance, values = _by_keyword(record)
    assert instance == record(*values.values())
    for name, value in values.items():
        assert getattr(instance, name) == value


@RECORDS
def test_records_are_immutable(record):
    instance, values = _by_keyword(record)
    for name in values:
        with pytest.raises(AttributeError):
            setattr(instance, name, -1.0)


@RECORDS
def test_repr_names_every_field(record):
    instance, values = _by_keyword(record)
    body = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(instance) == f"{record.__name__}({body})"

