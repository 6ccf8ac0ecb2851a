"""Exit-code contract, report formats, and byte determinism of the CLI."""

import json

import pytest

from soliton_stability.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_PRECONDITION,
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
    assert data["max_soliton_residual"] > 1e-3
    assert data["passed"] is False


def test_config_parse_error_exits_2(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text("{not json")
    assert run_cli("verify-soliton", "--config", str(bad)) == EXIT_CONFIG
    bad.write_text(json.dumps({"tolerances": {"soliton_residual": -1}}))
    assert run_cli("verify-soliton", "--config", str(bad)) == EXIT_CONFIG
    bad.write_text(json.dumps({"no_such_key": 1}))
    assert run_cli("verify-soliton", "--config", str(bad)) == EXIT_CONFIG


@pytest.mark.parametrize(
    "override",
    [
        {"fd_steps": [1e-3, 1e-3]},
        {"fd_steps": [0, 1e-3]},
        {"fd_steps": [1e-3]},
        {"grid": {"cells": 2.5}},
        {"grid": {"points_per_cell": 4.0}},
        {"variations": {"count": "3"}},
        {"grid": {"support_shrink": "0.5"}},
        {"variations": {"degree": 2.5}},
        {"variations": {"seed": "x"}},
    ],
    ids=[
        "equal_steps",
        "zero_step",
        "one_step",
        "fractional_cells",
        "float_points",
        "text_count",
        "text_shrink",
        "fractional_degree",
        "text_seed",
    ],
)
def test_malformed_numeric_config_exits_2(tmp_path, capsys, override):
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps({"variations": {"count": 1}, **override}))
    out = tmp_path / "r.json"
    assert run_cli("second-variation", "--config", str(bad), "--out", str(out)) == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_second_variation_non_soliton_exits_3(tmp_path):
    code = run_cli(
        "second-variation",
        "--chart",
        "perturbed_grim_reaper",
        "--count",
        "1",
        "--out",
        str(tmp_path / "r.json"),
    )
    assert code == EXIT_PRECONDITION


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
    assert rec["demonstrated"] is True


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
