"""Report serialization: field contract, float fidelity, numpy conversion."""

import json

import numpy as np
import pytest

import soliton_stability as ss
from oracles import variation_report
from soliton_stability.errors import EvaluationError
from soliton_stability.reports import CSV_COLUMNS, reports_to_csv, reports_to_json


def _one_report(gg):
    theta = ss.random_hamiltonian_variation(gg.grid.box, seed=3)
    return variation_report(gg, theta, seed=3)


def test_report_field_contract(gr_geometry_small):
    rep = _one_report(gr_geometry_small)
    d = rep.to_dict()
    for key in (
        "chart",
        "seed",
        "kind",
        "grid",
        "F_value",
        "first_var",
        "Fpp_operator",
        "Fpp_divergence",
        "Fpp_square",
        "Fpp_fd",
        "lagrangian_defect",
        "scale",
        "max_pairwise_rel_diff",
        "fd_rel_diff",
    ):
        assert key in d
    assert d["kind"] == "hamiltonian"
    assert d["grid"]["cells"] == [10, 10]


def test_json_round_trips_floats_exactly(gr_geometry_small):
    rep = _one_report(gr_geometry_small)
    payload = json.loads(reports_to_json([rep]))
    assert payload[0]["Fpp_square"] == rep.Fpp_square
    wrapped = json.loads(reports_to_json([rep], extra={"passed": True}))
    assert wrapped["summary"]["passed"] is True
    assert wrapped["reports"][0]["seed"] == 3


def test_csv_round_trips_floats_exactly(gr_geometry_small):
    rep = _one_report(gr_geometry_small)
    text = reports_to_csv([rep])
    header, row = text.strip().splitlines()
    assert header.split(",") == CSV_COLUMNS
    cells = row.split(",")
    assert cells[0] == rep.chart
    assert float(cells[3]) == rep.Fpp_operator
    assert float(cells[5]) == rep.Fpp_square


def test_json_handles_numpy_scalars():
    text = reports_to_json({"a": np.float64(1.5), "b": np.arange(3), "c": [np.int64(2)]})
    data = json.loads(text)
    assert data == {"a": 1.5, "b": [0, 1, 2], "c": [2]}


def test_json_rejects_non_finite_numbers():
    with pytest.raises(EvaluationError, match=r"^a\.b\.1 is inf"):
        reports_to_json({"a": {"b": [1.0, np.float64(np.inf)]}})
    with pytest.raises(EvaluationError, match=r"^reports\.0\.x is nan"):
        reports_to_json([{"x": float("nan")}], extra={"passed": True})
    with pytest.raises(EvaluationError, match=r"^c\.1 is -inf"):
        reports_to_json({"c": np.array([0.0, -np.inf])})
