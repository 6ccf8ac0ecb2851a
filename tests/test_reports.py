"""Report serialization: field contract, float fidelity, numpy conversion."""

import dataclasses
import json

import numpy as np
import pytest

import soliton_stability as ss
from oracles import variation_report
from soliton_stability import quadrature
from soliton_stability.cli import EXIT_PASS, main
from soliton_stability.errors import EvaluationError
from soliton_stability.geometry import DiagnosticsReport
from soliton_stability.reports import CSV_COLUMNS, ROUTES, reports_to_csv, reports_to_json


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


def test_each_route_returns_one_value_per_node_of_its_block(monkeypatch, grim_reaper, T, gr_support):
    """A route is its integrand at the block's nodes; ``evaluate_variation`` alone weights it
    and sums its rows."""
    grid = ss.tensor_rule(gr_support, cells=4, points_per_cell=4)  # 16 rows of 16 nodes
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 64)
    theta = ss.random_hamiltonian_variation(gr_support, seed=3)
    blocks = list(ss.grid_blocks(grim_reaper, T, grid))
    assert len(blocks) == 4
    for block in blocks:
        data = ss.prepare_variation(block, theta)
        for name, route in ROUTES.items():
            assert route(block, data).shape == block.grid.nodes.shape[:1], name


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
    routes = ("Fpp_operator", "Fpp_divergence", "Fpp_square", "Fpp_fd")
    floats = ("lagrangian_defect", *routes, "max_pairwise_rel_diff", "scale", "fd_rel_diff")
    assert row.split(",") == [rep.chart, str(rep.seed), *(repr(getattr(rep, name)) for name in floats)]
    assert [float(cell) for cell in row.split(",")[2:]] == [getattr(rep, name) for name in floats]
    # then each extra key the reports carry, in the order it first appears, empty where absent
    shown = dataclasses.replace(rep, extra={"square_operator_gap": 0.1 + 0.2, "demonstrated": True})
    named = dataclasses.replace(rep, seed=None, extra={"potential": "x*y"})
    header, *rows = reports_to_csv([shown, named]).strip().splitlines()
    assert header.split(",") == CSV_COLUMNS + ["square_operator_gap", "demonstrated", "potential"]
    assert [row.split(",")[1:2] + row.split(",")[-3:] for row in rows] == [
        [str(rep.seed), repr(0.1 + 0.2), "True", ""],
        ["", "", "", "x*y"],
    ]
    assert float(rows[0].split(",")[-3]) == 0.1 + 0.2


def test_json_reads_every_report_by_its_to_dict(gr_geometry_small):
    """A report object, a list of them and a dict holding both serialize as their ``to_dict``
    forms do, with or without a summary."""
    rep = _one_report(gr_geometry_small)
    diag = DiagnosticsReport("c", {"kind": "points", "count": 4}, 1e-12, 0.0)
    given = (diag, [rep, rep], {"d": diag, "r": [rep]})
    plain = (diag.to_dict(), [rep.to_dict()] * 2, {"d": diag.to_dict(), "r": [rep.to_dict()]})
    for obj, as_dict in zip(given, plain):
        assert reports_to_json(obj) == reports_to_json(as_dict)
        assert reports_to_json(obj, extra={"passed": True}) == reports_to_json(as_dict, extra={"passed": True})


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


def route_gaps(report):
    """``max_pairwise_rel_diff`` and ``fd_rel_diff`` formed from the report's routes and scale."""
    op, dv, sq, fd = (report[k] for k in ("Fpp_operator", "Fpp_divergence", "Fpp_square", "Fpp_fd"))
    denom = report["scale"] if report["scale"] > 0 else 1.0
    pairwise = max(abs(op - dv), abs(op - sq), abs(dv - sq)) / denom
    return pairwise, max(abs(fd - op), abs(fd - dv), abs(fd - sq)) / denom


@pytest.mark.parametrize(
    "argv",
    [["--demonstrate-failure", "--seed", "7"], ["--count", "1"]],
    ids=["demonstrate_failure", "default"],
)
def test_route_gaps_are_the_ones_the_routes_give(tmp_path, monkeypatch, argv):
    """Each reported gap equals its value recomputed from the four routes and the scale, bit for
    bit.  On the non-closed seed-7 variation the fd-square pair is the largest fd gap, by a
    factor over 1e6.  Its operator and divergence routes agree to their last bits, so which of
    them lies further from the square route is left to rounding; a second run scales the
    divergence route by 1 + 1e-6, which makes the divergence-square pair the largest route gap
    by about 2e-6.  So a gap that drops either pair moves."""

    def run(name):
        out = tmp_path / name
        assert main(["second-variation", *argv, "--out", str(out)]) == EXIT_PASS
        data = json.loads(out.read_text())
        reports = data if argv[0] == "--demonstrate-failure" else data["reports"]
        for report in reports:
            assert (report["max_pairwise_rel_diff"], report["fd_rel_diff"]) == route_gaps(report)
        return reports

    reports = run("report.json")
    if argv[0] == "--demonstrate-failure":
        (report,) = reports
        op, dv, sq, fd = (report[k] for k in ("Fpp_operator", "Fpp_divergence", "Fpp_square", "Fpp_fd"))
        assert abs(fd - sq) > 1e6 * max(abs(fd - op), abs(fd - dv))
        divergence = ROUTES["Fpp_divergence"]
        monkeypatch.setitem(ROUTES, "Fpp_divergence", lambda block, data: (1 + 1e-6) * divergence(block, data))
        (report,) = run("scaled.json")
        op, dv, sq = (report[k] for k in ("Fpp_operator", "Fpp_divergence", "Fpp_square"))
        assert abs(dv - sq) > max(abs(op - sq), abs(op - dv)) + 1e-6
