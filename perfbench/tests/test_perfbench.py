"""Tests of the benchmark's own machinery, on shrunk copies of its workloads.

The workers run in subprocesses: tracing rebinds package functions, which
must not leak into the pytest process.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# small grids that still pass every gate, so a tampered copy is the only failure
SHRINK = {
    "suite2d": {"grid": {"cells": 10, "points_per_cell": 6}, "variations": {"count": 2}},
    "suite3d": {"grid": {"cells": 1, "points_per_cell": 16}, "variations": {"count": 1}},
    "certify": {"grid": {"diagnostic_points": 20}},
    "cylinder": {"grid": {"cells": 10, "points_per_cell": 6}, "dirichlet_intervals": 200},
}


def small_config(name: str, seed: int = 1) -> dict:
    config = workloads.make_config(name, seed)
    for key, value in SHRINK[name].items():
        if isinstance(value, dict):
            config[key] = {**config[key], **value}
        else:
            config[key] = value
    return config


def run_worker(tmp_path: Path, name: str, trace: bool) -> tuple[dict, dict, str]:
    config = small_config(name)
    config_path = tmp_path / f"{name}.json"
    config_path.write_bytes(workloads.config_bytes(config))
    result, out = tmp_path / f"{name}.result.json", tmp_path / f"{name}.out"
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload",
        name,
        "--config",
        str(config_path),
        "--result",
        str(result),
        "--out",
        str(out),
        "--run-id",
        "test",
    ]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(result.read_text()), config, out.read_text()


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("traced")
    return {name: run_worker(tmp, name, trace=True) for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_spans_every_layer_its_workload_exercises(traced, name):
    res, _, _ = traced[name]
    assert res["check"]["failed"] == 0, res["check"]["problems"]
    span_list = res["trace"]["spans"]
    names = {s[0] for s in span_list}
    assert set(workloads.WORKLOADS[name].layers) <= names
    assert names <= set(spans.TRACED)
    # self times add up to the root span, which is all of cli.main
    times = spans.layer_times(span_list)
    root = [s for s in span_list if s[3] is None]
    assert [s[0] for s in root] == ["cli.main"]
    total_self = sum(t["s"] for t in times.values())
    assert total_self == pytest.approx(root[0][2] - root[0][1], rel=1e-9)
    assert total_self <= res["wall_s"]


def test_traced_run_counts_jet_ops_and_bytes(traced):
    counts3d = traced["suite3d"][0]["trace"]["counts"]
    counts2d = traced["suite2d"][0]["trace"]["counts"]
    # per variation, the d = 3 generic jet-arithmetic field path adds jet ops that the
    # 2-d polyval2d path bypasses (both share variation_field_jets' few ops)
    assert counts3d["jets.ops"] / 1 > 4 * counts2d["jets.ops"] / 2 > 0
    for name in spans.BYTES:
        assert counts2d[f"{name}.bytes"] > 0
    assert counts2d["quadrature.nodes"] == 60 * 60
    gates = traced["certify"][0]["trace"]["gates"]
    assert 0 <= gates["geometry.max_soliton_residual"] < 1e-10


def test_untraced_output_matches_traced(tmp_path, traced):
    res, _, _ = run_worker(tmp_path, "suite3d", trace=False)
    assert res["trace"] is None
    assert res["sha256"] == traced["suite3d"][0]["sha256"]


@pytest.mark.parametrize(
    "field, value",
    [("Fpp_fd", 2.0), ("Fpp_square", -1.0), ("Fpp_operator", -1.0), ("fd_rel_diff", 1.0)],
)
def test_tampered_report_is_a_failed_op(traced, field, value):
    _, config, text = traced["suite2d"]
    assert workloads.check_output("suite2d", config, 0, text).failed == 0
    payload = json.loads(text)
    report = payload["reports"][1]
    report[field] = value * report["scale"] if field.startswith("Fpp") else value
    assert payload["summary"]["passed"] is True
    check = workloads.check_output("suite2d", config, 0, json.dumps(payload))
    assert (check.attempted, check.failed) == (2, 1)
    assert check.problems[0].startswith("report 1")


def test_tampered_certificate_and_cylinder_fail(traced):
    _, config, text = traced["certify"]
    payload = json.loads(text)
    payload["max_soliton_residual"] = 1e-3
    assert workloads.check_output("certify", config, 0, json.dumps(payload)).failed == 1
    _, config, text = traced["cylinder"]
    payload = json.loads(text)
    payload["dirichlet_gap"]["eigenvalue"] += 1e-6
    assert workloads.check_output("cylinder", config, 0, json.dumps(payload)).failed == 1


def test_failed_command_fails_every_op():
    config = workloads.make_config("suite2d", 1)
    check = workloads.check_output("suite2d", config, 1, None)
    assert (check.attempted, check.failed) == (20, 20)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_config(name):
    a = workloads.config_bytes(workloads.make_config(name, 7))
    assert a == workloads.config_bytes(workloads.make_config(name, 7))
    other = workloads.config_bytes(workloads.make_config(name, 8))
    assert (a != other) == ("seed" in workloads.make_config(name, 7).get("variations", {}))


def test_benchmark_json_names_what_the_runner_emits():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_runner_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "cylinder", "--seed", "1"]
    proc = subprocess.run(
        cmd + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
