"""Exit-code contract, report formats, and byte determinism of the CLI."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import soliton_stability as ss
from soliton_stability import cli, geometry, reports, stability
from soliton_stability.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_PRECONDITION,
    load_config,
    main,
)
from soliton_stability.reports import CSV_COLUMNS


def run_cli(*args):
    return main(list(args))


def test_verify_soliton_passes_on_cylinder(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli("verify-soliton", "--out", str(out)) == EXIT_PASS
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert data["chart"] == "grim_reaper"
    assert data["max_soliton_residual"] <= 1e-10


def test_verify_soliton_passes_on_flat_plane(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli("verify-soliton", "--chart", "flat_plane", "--out", str(out)) == EXIT_PASS


def test_verify_soliton_fails_on_perturbed_chart(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli("verify-soliton", "--chart", "perturbed_grim_reaper", "--out", str(out))
    assert code == EXIT_FAIL
    data = json.loads(out.read_text())
    assert abs(data["max_soliton_residual"] - 0.09975140173631185) <= 1e-14 * 0.09975140173631185
    assert data["passed"] is False


def test_config_parse_error_exits_2(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    assert run_cli("verify-soliton", "--config", str(bad)) == EXIT_CONFIG
    bad.write_text(json.dumps({"tolerances": {"soliton_residual": -1}}))
    assert run_cli("verify-soliton", "--config", str(bad)) == EXIT_CONFIG
    bad.write_text(json.dumps({"no_such_key": 1}))
    assert run_cli("verify-soliton", "--config", str(bad)) == EXIT_CONFIG
    for top_level in ([1], 5):
        bad.write_text(json.dumps(top_level))
        assert run_cli("verify-soliton", "--config", str(bad)) == EXIT_CONFIG
    # not UTF-8, nested past the JSON decoder's recursion limit, an int past Python's digit limit
    for raw in (b"\xff\xfe{", b"[" * 100_000 + b"]" * 100_000, b'{"grid": {"cells": ' + b"9" * 5000 + b"}}"):
        bad.write_bytes(raw)
        assert run_cli("verify-soliton", "--config", str(bad)) == EXIT_CONFIG


def test_readme_config_block_is_the_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Configuration file", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == load_config(None)


@pytest.mark.parametrize(
    "override",
    [
        {"fd_steps": [1e-3, 1e-3]},
        {"fd_steps": [0, 1e-3]},
        {"fd_steps": [1e-3]},
        {"fd_steps": [1e-300, 2e-300]},
        {"fd_steps": [1e300, 2e300]},
        {"fd_steps": [1e150, 1e-150]},
        {"grid": {"cells": 2.5}},
        {"grid": {"points_per_cell": 4.0}},
        {"variations": {"count": "3"}},
        {"grid": {"support_shrink": "0.5"}},
        {"variations": {"degree": 2.5}},
        {"variations": {"seed": "x"}},
        {"grid": {"diagnostic_points": 2.5}},
        {"grid": {"diagnostic_points": 0}},
        {"grid": {"diagnostic_points": "50"}},
        {"dirichlet_intervals": 50},
        {"dirichlet_intervals": "2000"},
        {"T": 5},
        {"T": ["a", 0, 0, 0]},
        {"T": [1e400, 0, 0, 0]},
        {"T": [True, 0, 0, 0]},
        {"T": [1.0, 0.0]},
        {"output": {"path": 5}},
        {"grid": [1, 2]},
    ],
    ids=[
        "equal_steps",
        "zero_step",
        "one_step",
        "steps_squaring_to_zero",
        "steps_squaring_to_inf",
        "step_ratio_squaring_to_inf",
        "fractional_cells",
        "float_points",
        "text_count",
        "text_shrink",
        "fractional_degree",
        "text_seed",
        "fractional_diagnostic_points",
        "zero_diagnostic_points",
        "text_diagnostic_points",
        "few_dirichlet_intervals",
        "text_dirichlet_intervals",
        "scalar_T",
        "text_in_T",
        "overflowing_T",
        "bool_in_T",
        "short_T",
        "numeric_output_path",
        "list_grid",
    ],
)
def test_malformed_numeric_config_exits_2(tmp_path, capsys, override):
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps({"variations": {"count": 1}, **override}))
    out = tmp_path / "r.json"
    assert run_cli("second-variation", "--config", str(bad), "--out", str(out)) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_fd_steps_far_from_the_default_are_accepted():
    assert load_config(None, {"fd_steps": [50, 25]})["fd_steps"] == [50, 25]


DEEP = "x" + "+x" * 1000


def expression_chart(first_component):
    return {"domain": [[-1.0, 1.0], [-1.0, 1.0]], "components": [first_component, "0", "y", "0"]}


@pytest.mark.parametrize(
    "override",
    [
        {"variations": {"potentials": [DEEP]}},
        {"chart": expression_chart(DEEP)},
        {"variations": {"potentials": ["True*x"]}},
        {"chart": expression_chart("True*x")},
        {"variations": {"potentials": ["x**x"]}},
        {"chart": {**expression_chart("x"), "domain": "ab"}},
        {"chart": {**expression_chart("x"), "components": "xy"}},
        {"chart": {**expression_chart("x"), "extra": 1}},
    ],
    ids=[
        "deep_potential",
        "deep_component",
        "bool_potential",
        "bool_component",
        "jet_exponent",
        "text_domain",
        "text_components",
        "unknown_chart_key",
    ],
)
def test_malformed_expression_exits_2(tmp_path, capsys, override):
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps({"grid": {"cells": 4, "points_per_cell": 4}, **override}))
    out = tmp_path / "r.json"
    assert run_cli("second-variation", "--config", str(bad), "--out", str(out)) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_second_variation_non_soliton_exits_3(tmp_path):
    # the non-Lagrangian patch has no normal field V; the translator check comes first
    for chart in ("perturbed_grim_reaper", "non_lagrangian_patch"):
        code = run_cli(
            "second-variation",
            "--chart",
            chart,
            "--count",
            "1",
            "--out",
            str(tmp_path / "r.json"),
        )
        assert code == EXIT_PRECONDITION


def test_configured_soliton_tolerance_is_the_one_the_routes_judge(tmp_path):
    """Raised above the perturbed chart's residual (about 0.1), the tolerance lets every
    route run there; off criticality they then disagree, so the suite fails with exit 1."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "chart": "perturbed_grim_reaper",
                "grid": {"cells": 4, "points_per_cell": 4},
                "variations": {"count": 1},
                "tolerances": {"soliton_residual": 1.0},
            }
        )
    )
    out = tmp_path / "r.json"
    assert run_cli("second-variation", "--config", str(cfg), "--out", str(out)) == EXIT_FAIL
    (report,) = json.loads(out.read_text())["reports"]
    assert report["max_pairwise_rel_diff"] > 1e-4


@pytest.fixture(scope="module")
def small_suite_config(tmp_path_factory):
    """Coarser grid keeps the CLI suite tests quick; accuracy margins are huge."""
    cfg = {"grid": {"cells": 12, "points_per_cell": 6}, "variations": {"count": 3, "seed": 1}}
    path = tmp_path_factory.mktemp("cfg") / "small.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_second_variation_suite_and_determinism(small_suite_config, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("second-variation", "--config", small_suite_config, "--out", str(out1)) == EXIT_PASS
    assert run_cli("second-variation", "--config", small_suite_config, "--out", str(out2)) == EXIT_PASS
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["summary"]["passed"] is True
    assert len(data["reports"]) == 3
    for r in data["reports"]:
        assert r["Fpp_square"] >= 0.0


def test_second_variation_csv_format(small_suite_config, tmp_path):
    out = tmp_path / "suite.csv"
    code = run_cli(
        "second-variation", "--config", small_suite_config, "--format", "csv", "--out", str(out)
    )
    assert code == EXIT_PASS
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == CSV_COLUMNS
    assert len(lines) == 4


def test_demonstrate_failure_mode(small_suite_config, tmp_path):
    out = tmp_path / "fail.json"
    code = run_cli(
        "second-variation",
        "--config",
        small_suite_config,
        "--demonstrate-failure",
        "--seed",
        "7",
        "--out",
        str(out),
    )
    assert code == EXIT_PASS
    rec = json.loads(out.read_text())[0]
    assert rec["kind"] == "generic"
    assert rec["square_operator_gap"] > 1e-2
    assert rec["square_operator_gap"] == abs(rec["Fpp_square"] - rec["Fpp_operator"]) / rec["scale"]
    assert rec["demonstrated"] is True
    csv_out = tmp_path / "fail.csv"
    code = run_cli(
        "second-variation",
        "--config",
        small_suite_config,
        "--demonstrate-failure",
        "--seed",
        "7",
        "--format",
        "csv",
        "--out",
        str(csv_out),
    )
    assert code == EXIT_PASS
    header, row = csv_out.read_text().strip().splitlines()
    assert header.split(",") == CSV_COLUMNS + ["square_operator_gap", "demonstrated"]
    assert row.split(",")[-2:] == [repr(rec["square_operator_gap"]), "True"]


COMMANDS = ("verify-soliton", "second-variation", "cylinder")


def plane(domain):
    return {"domain": domain, "components": ["x", "0", "y", "0"]}


@pytest.mark.parametrize(
    "override, codes",
    [
        ({"grid": {"support_shrink": 0.95}}, (EXIT_PASS, EXIT_PASS, EXIT_PASS)),
        ({"chart": plane([[1, 2], [1, 2]]), "grid": {"support_shrink": 1e-300}}, (EXIT_PASS, EXIT_CONFIG, EXIT_CONFIG)),
        ({"chart": plane([[-1e308, 1e308], [-1, 1]])}, (EXIT_CONFIG,) * 3),
    ],
    ids=["shrink_0.95", "empty_support_box", "overflowing_domain"],
)
@pytest.mark.parametrize("command", COMMANDS)
def test_support_rule_is_one_for_every_command(tmp_path, capsys, override, codes, command):
    """``variations.default_support_box`` is the one support rule: every ``support_shrink`` in
    (0, 1) is accepted, a box that is empty in floating point is refused where a support box
    is made, and a domain whose width or midpoint overflows is refused when the chart is
    built, each refusal with one stderr line."""
    grid = {"cells": 12, "points_per_cell": 8, "diagnostic_points": 10, **override.get("grid", {})}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**override, "grid": grid, "variations": {"count": 2}}))
    code = run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "r.json"))
    err = capsys.readouterr().err
    assert code == codes[COMMANDS.index(command)]
    if code == EXIT_PASS:
        assert err == ""
    else:
        assert err.startswith("configuration error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["verify-soliton", "second-variation", "cylinder"])
def test_non_finite_result_exits_1_without_output(tmp_path, capsys, command):
    # a finite T this large overflows the translation weight exp(<T, x>)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "T": [1e300, 0, 0, 0],
                "grid": {"cells": 4, "points_per_cell": 4, "diagnostic_points": 5},
                "dirichlet_intervals": 100,
            }
        )
    )
    out = tmp_path / "r.json"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err == "error: translation weight exp(<T, x>) overflows on chart 'grim_reaper'\n"
    assert not out.exists()


def test_an_overflowing_fd_step_exits_1_with_one_error_line(tmp_path, capsys):
    # the deformed charts' weighted area overflows at these steps, leaving Fpp_fd NaN;
    # forming it prints no numpy warning, so the sanitizer's line is all of stderr
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"variations": {"count": 1}, "fd_steps": [1e100, 5e99], "grid": {"cells": 4, "points_per_cell": 4}})
    )
    out = tmp_path / "r.json"
    assert run_cli("second-variation", "--config", str(cfg), "--out", str(out)) == EXIT_FAIL
    assert capsys.readouterr().err == "error: reports.0.Fpp_fd is nan, which a JSON report cannot hold\n"
    assert not out.exists()


def test_cylinder_pipeline_defaults_pass(tmp_path):
    out = tmp_path / "cyl.json"
    cfg = tmp_path / "cfg.json"
    # trimmed grid for test speed; tolerances stay at their defaults
    cfg.write_text(json.dumps({"grid": {"cells": 12, "points_per_cell": 6}, "dirichlet_intervals": 400}))
    assert run_cli("cylinder", "--config", str(cfg), "--out", str(out)) == EXIT_PASS
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert data["geometry_ok"] is True
    assert len(data["stability_pairs"]) == 10


def test_cylinder_on_non_lagrangian_chart_reports_geometry(tmp_path):
    """The closed-form geometry check reads no normal frame, so any chart gets a report."""
    out = tmp_path / "cyl.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"cells": 10, "points_per_cell": 5}, "dirichlet_intervals": 400}))
    code = run_cli("cylinder", "--config", str(cfg), "--chart", "non_lagrangian_patch", "--out", str(out))
    assert code == EXIT_FAIL
    data = json.loads(out.read_text())
    assert data["geometry_ok"] is False
    assert data["passed"] is False


def test_cylinder_geometry_check_fails_on_a_nan_after_the_first_deviation(tmp_path, monkeypatch):
    """A NaN in a later deviation fails geometry_ok: the builtin max would skip it."""
    deviations = cli.closed_form_deviations

    def with_nan(*args):
        geo = deviations(*args)
        geo["mean_curvature"] = float("nan")
        return geo

    payloads = []
    monkeypatch.setattr(cli, "closed_form_deviations", with_nan)
    monkeypatch.setattr(cli, "reports_to_json", lambda payload: payloads.append(payload) or "")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": {"cells": 4, "points_per_cell": 4}, "dirichlet_intervals": 400}))
    assert run_cli("cylinder", "--config", str(cfg), "--out", str(tmp_path / "cyl.json")) == EXIT_FAIL
    (checks,) = payloads
    assert list(checks["geometry_deviations"])[0] != "mean_curvature"
    assert checks["geometry_ok"] is False and checks["passed"] is False


@pytest.mark.parametrize("factor, code", [(2.0, EXIT_FAIL), (1.0, EXIT_PASS)], ids=["above", "at"])
def test_verify_soliton_judges_the_lagrangian_defect_by_its_tolerance(tmp_path, monkeypatch, factor, code):
    """A Kaehler pullback at twice the Lagrangian tolerance fails verify-soliton while the
    translator residual passes; one at the tolerance passes."""
    tol = load_config(None)["tolerances"]["lagrangian_defect"]
    monkeypatch.setattr(geometry, "kaehler_pullback", lambda t: np.full((1, 1, t.shape[-1]), factor * tol))
    out = tmp_path / "report.json"
    assert run_cli("verify-soliton", "--out", str(out)) == code
    data = json.loads(out.read_text())
    assert data["max_lagrangian_defect"] == factor * tol
    assert data["max_soliton_residual"] <= data["tolerances"]["soliton_residual"]
    assert data["passed"] is (code == EXIT_PASS)


def second_variation_gates(tmp_path, monkeypatch, route, rows):
    """Run second-variation on a small suite with the route ``route`` of ``reports.ROUTES``
    giving ``rows(real row sums, block, data)``; its exit code and each gate's verdict over
    the reports.  The agreement tolerances are opened to 1e3, so a positivity gate can fail
    while the routes disagree; the positivity tolerance stays at its default."""
    real = reports.ROUTES[route]
    monkeypatch.setitem(reports.ROUTES, route, lambda block, data: rows(real(block, data), block, data))
    cfg, out = tmp_path / "cfg.json", tmp_path / "sv.json"
    opened = {"route_agreement": 1e3, "fd_agreement": 1e3}
    grid = {"cells": 8, "points_per_cell": 6}
    cfg.write_text(json.dumps({"grid": grid, "variations": {"count": 2}, "tolerances": opened}))
    code = run_cli("second-variation", "--config", str(cfg), "--out", str(out))
    data = json.loads(out.read_text())
    tol = load_config(None)["tolerances"]["operator_positivity"]
    gates = {
        "route_agreement": all(r["max_pairwise_rel_diff"] <= 1e3 for r in data["reports"]),
        "fd_agreement": all(r["fd_rel_diff"] <= 1e3 for r in data["reports"]),
        "square_nonnegative": all(r["Fpp_square"] >= 0.0 for r in data["reports"]),
        "operator_positive": all(r["Fpp_operator"] >= -tol * r["scale"] for r in data["reports"]),
    }
    assert data["summary"]["passed"] is (code == EXIT_PASS)
    return code, gates


SV_GATES = ("route_agreement", "fd_agreement", "square_nonnegative", "operator_positive")


def test_second_variation_fails_on_a_negative_square_route(tmp_path, monkeypatch):
    code, gates = second_variation_gates(tmp_path, monkeypatch, "Fpp_square", lambda rows, *_: -rows)
    assert code == EXIT_FAIL
    assert gates == {**dict.fromkeys(SV_GATES, True), "square_nonnegative": False}


@pytest.mark.parametrize("factor, code", [(2.0, EXIT_FAIL), (0.5, EXIT_PASS)], ids=["below", "within"])
def test_second_variation_judges_operator_positivity_by_its_tolerance(tmp_path, monkeypatch, factor, code):
    """The operator route at -2 tol * scale fails the positivity gate alone; at -tol/2 * scale
    every gate passes."""
    tol = load_config(None)["tolerances"]["operator_positivity"]

    def below(rows, block, data):
        return -factor * tol * ss.variation_scale(block, data)

    got, gates = second_variation_gates(tmp_path, monkeypatch, "Fpp_operator", below)
    assert got == code
    assert gates == {**dict.fromkeys(SV_GATES, True), "operator_positive": code == EXIT_PASS}


@pytest.mark.parametrize("factor, code", [(2.0, EXIT_FAIL), (1.0, EXIT_PASS)], ids=["above", "at"])
def test_second_variation_judges_the_closedness_defect_by_its_tolerance(
    small_suite_config, tmp_path, monkeypatch, factor, code
):
    """A closedness defect at twice the Lagrangian tolerance fails second-variation while every
    other gate passes at its default tolerance; one at the tolerance passes."""
    tols = load_config(None)["tolerances"]
    monkeypatch.setattr(stability, "lagrangian_defect", lambda dtheta: factor * tols["lagrangian_defect"])
    out = tmp_path / "sv.json"
    assert run_cli("second-variation", "--config", small_suite_config, "--out", str(out)) == code
    data = json.loads(out.read_text())
    assert data["summary"]["passed"] is (code == EXIT_PASS)
    for r in data["reports"]:
        assert r["lagrangian_defect"] == factor * tols["lagrangian_defect"]
        assert r["max_pairwise_rel_diff"] <= tols["route_agreement"] and r["fd_rel_diff"] <= tols["fd_agreement"]
        assert r["Fpp_square"] >= 0.0 and r["Fpp_operator"] >= -tols["operator_positivity"] * r["scale"]


@pytest.mark.parametrize(
    "args, code",
    [
        (("second-variation",), EXIT_PASS),
        (("verify-soliton", "--chart", "perturbed_grim_reaper"), EXIT_FAIL),
        (("second-variation", "--format", "csv"), EXIT_PASS),
        (("cylinder",), EXIT_PASS),
    ],
    ids=["pass", "fail", "csv", "cylinder"],
)
def test_main_writes_each_command_once(small_suite_config, capsys, monkeypatch, args, code):
    """A command returns its text and verdict; ``main`` writes the text once, pass or fail."""
    emitted, emit = [], cli._emit
    monkeypatch.setattr(cli, "_emit", lambda text, path: emitted.append(text) or emit(text, path))
    assert run_cli(*args, "--config", small_suite_config) == code
    assert emitted == [capsys.readouterr().out]


def cylinder_checks(tmp_path):
    """Run ``cylinder`` on a small grid; its exit code and its report."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "cyl.json"
    grid = {"cells": 4, "points_per_cell": 4, "diagnostic_points": 10}
    cfg.write_text(json.dumps({"grid": grid, "dirichlet_intervals": 400}))
    code = run_cli("cylinder", "--config", str(cfg), "--out", str(out))
    return code, json.loads(out.read_text())


GATES = ("geometry_ok", "stability_inequality_ok", "wirtinger_slices_ok", "dirichlet_gap_ok")


def test_cylinder_fails_on_a_dirichlet_gap_outside_its_tolerance(tmp_path, monkeypatch):
    tol = load_config(None)["tolerances"]["dirichlet_gap"]
    monkeypatch.setattr(cli, "dirichlet_gap", lambda n: 1.0 + 2 * tol)
    code, checks = cylinder_checks(tmp_path)
    assert code == EXIT_FAIL and checks["passed"] is False
    assert checks["dirichlet_gap"]["eigenvalue"] == 1.0 + 2 * tol
    assert {gate: checks[gate] for gate in GATES} == {**dict.fromkeys(GATES, True), "dirichlet_gap_ok": False}


def test_cylinder_fails_on_a_slice_above_its_wirtinger_bound(tmp_path, monkeypatch):
    """One y-slice of one pair with lhs > rhs fails the slice gate alone, judged by the real
    ``CylinderIntegrals.slices_hold``."""
    integrals, calls = cli.cylinder_stability_integrals, []

    def one_slice_over(*args):
        res = integrals(*args)
        calls.append(res)
        if len(calls) > 1:
            return res
        lhs = res.slice_lhs.copy()
        lhs[len(lhs) // 2] = res.slice_rhs[len(lhs) // 2] + 1.0
        return dataclasses.replace(res, slice_lhs=lhs)

    monkeypatch.setattr(cli, "cylinder_stability_integrals", one_slice_over)
    code, checks = cylinder_checks(tmp_path)
    assert code == EXIT_FAIL and checks["passed"] is False and len(calls) == 10
    assert {gate: checks[gate] for gate in GATES} == {**dict.fromkeys(GATES, True), "wirtinger_slices_ok": False}


@pytest.mark.parametrize(
    "chart, T",
    [
        ({"name": "line", "domain": [[-1.0, 1.0]], "components": ["x", "0"]}, [1.0, 0.0]),
        (
            {
                "name": "grim_reaper_x_line",
                "domain": [[-1.47, 1.47], [-2.0, 2.0], [-2.0, 2.0]],
                "components": ["-log(cos(x))", "x", "y", "0", "z", "0"],
            },
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ),
    ],
    ids=["1-parameter", "3-parameter"],
)
def test_cylinder_refuses_a_chart_of_another_dimension(tmp_path, capsys, chart, T):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chart": chart, "T": T}))
    out = tmp_path / "r.json"
    assert run_cli("cylinder", "--config", str(cfg), "--out", str(out)) == EXIT_CONFIG
    d, m = len(chart["domain"]), len(T)
    message = f"cylinder needs a chart with 2 parameters in C^2, got {d} in R^{m}"
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "chart",
    [
        {"name": "line_in_c2", "domain": [[-1.0, 1.0]], "components": ["x", "0", "0", "0"]},
        {"name": "plane_in_c3", "domain": [[-1.0, 1.0]] * 2, "components": ["x", "0", "y", "0", "0", "0"]},
        {"name": "bowl_in_c3", "domain": [[-1.0, 1.0]] * 2, "components": ["x", "0", "y", "0", "x*x", "0"]},
    ],
    ids=["line_in_c2", "plane_in_c3", "off_criticality_in_c3"],
)
@pytest.mark.parametrize("command", ["verify-soliton", "second-variation"])
def test_a_chart_of_non_lagrangian_dimensions_exits_1(tmp_path, capsys, monkeypatch, chart, command):
    """A chart with m != 2d passes no Lagrangian gate: its Kaehler pullback may vanish, but
    no such chart is Lagrangian.  Both commands refuse it with one message before any grid
    geometry is built, also when the chart is off criticality."""
    built, original = [], stability.grid_geometry
    monkeypatch.setattr(stability, "grid_geometry", lambda *args: built.append(args) or original(*args))
    cfg, out = tmp_path / "cfg.json", tmp_path / "r.json"
    T = [1.0] + [0.0] * (len(chart["components"]) - 1)
    cfg.write_text(json.dumps({"chart": chart, "T": T, "grid": {"cells": 4, "points_per_cell": 4}}))
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == EXIT_FAIL
    d, m = len(chart["domain"]), len(T)
    message = f"a Lagrangian chart has m = 2d; chart {chart['name']!r} has d = {d}, m = {m}"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists() and built == []


def test_cylinder_tightened_tolerance_documents_error_budget(tmp_path):
    """The exact-jet pipeline has a measurable float floor; an impossible
    tolerance must fail, exhibiting the budget."""
    out = tmp_path / "cyl.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "grid": {"cells": 10, "points_per_cell": 5},
                "dirichlet_intervals": 400,
                "tolerances": {"geometry_oracle": 1e-16},
            }
        )
    )
    assert run_cli("cylinder", "--config", str(cfg), "--out", str(out)) == EXIT_FAIL
    data = json.loads(out.read_text())
    assert data["geometry_ok"] is False
    assert max(data["geometry_deviations"].values()) > 1e-16


def test_explicit_potential_expressions(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "grid": {"cells": 12, "points_per_cell": 6},
                "variations": {"potentials": ["x*y", "sin(x)"]},
            }
        )
    )
    out = tmp_path / "r.json"
    assert run_cli("second-variation", "--config", str(cfg), "--out", str(out)) == EXIT_PASS
    reports = json.loads(out.read_text())["reports"]
    assert [r["potential"] for r in reports] == ["x*y", "sin(x)"]
    assert all(r["kind"] == "hamiltonian" and r["Fpp_square"] >= 0 for r in reports)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"variations": {"potentials": []}}))
    assert run_cli("second-variation", "--config", str(bad)) == EXIT_CONFIG


def test_workers_option_gives_same_results(small_suite_config, tmp_path):
    out1, out2 = tmp_path / "w1.json", tmp_path / "w2.json"
    assert run_cli("second-variation", "--config", small_suite_config, "--out", str(out1)) == EXIT_PASS
    assert (
        run_cli(
            "second-variation",
            "--config",
            small_suite_config,
            "--workers",
            "2",
            "--out",
            str(out2),
        )
        == EXIT_PASS
    )
    a = json.loads(out1.read_text())["reports"]
    b = json.loads(out2.read_text())["reports"]
    assert [r["seed"] for r in a] == [r["seed"] for r in b]
    assert a[0]["Fpp_square"] == b[0]["Fpp_square"]


@pytest.mark.parametrize("command", ["verify-soliton", "cylinder"])
def test_format_is_second_variation_only(tmp_path, capsys, command):
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as info:
        run_cli(command, "--format", "csv", "--out", str(out))
    assert info.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"output": {"format": "csv"}}))
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"configuration error: output.format must be 'json' for {command}, got 'csv'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_is_a_usage_error(tmp_path, capsys, workers):
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as info:
        run_cli("second-variation", "--workers", workers, "--out", str(out))
    assert info.value.code == EXIT_CONFIG
    assert f"argument --workers: must be >= 1, got {workers}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("via", ["flag", "config"])
def test_unwritable_output_path_exits_2(tmp_path, capsys, via):
    """A report that cannot be written is a configuration error, not a traceback."""
    out = tmp_path / "missing" / "r.json"
    if via == "flag":
        code = run_cli("verify-soliton", "--out", str(out))
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": {"path": str(out)}}))
        code = run_cli("verify-soliton", "--config", str(cfg))
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"configuration error: cannot write output {str(out)!r}: No such file or directory\n"
    )
    assert not out.parent.exists()
