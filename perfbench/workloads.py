"""Benchmark workloads: generated configs, CLI argv and output checks.

Each workload is one ``soliton_stability.cli.main`` invocation on a config
generated from the benchmark seed.  The program sees only that config file.
Every tolerance the checks use is written into the config, so the checks
re-derive each gate from the emitted JSON and the config alone and never
trust the program's own ``"passed"`` flag by itself.

This module uses the standard library only: the worker imports it before
the timed ``import soliton_stability``, so it must not import numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

TOLERANCES = {
    "soliton_residual": 1e-8,
    "lagrangian_defect": 1e-9,
    "route_agreement": 1e-6,
    "fd_agreement": 1e-4,
    "operator_positivity": 1e-6,
    "geometry_oracle": 1e-10,
    "dirichlet_gap": 1e-3,
    "failure_demonstration": 1e-2,
}

# The discrete Dirichlet eigenvalue on (-pi/2, pi/2) with n intervals is
# exactly (4/h^2) sin^2(h/2), h = pi/n; the solver matches it to ~1e-14.
DIRICHLET_EXACT_TOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    why: str
    layers: tuple[str, ...]  # the traced layer names the workload runs


_COMMON = ("cli.main", "cli.load_config")
_SUITE = _COMMON + (
    "quadrature.tensor_rule",
    "charts.eval_jets",
    "geometry.point_geometry",
    "stability.grid_geometry",
    "stability.prepare_variation",
    "stability.second_variation_operator",
    "stability.second_variation_divergence",
    "stability.second_variation_square",
    "stability.second_variation_fd_oracle",
    "stability.variation_scale",
    "stability.first_variation",
    "variations.form_jets",
    "variations.scalar_field_jets",
    "variations.covariant_calculus",
    "variations.variation_field_jets",
    "reports.evaluate_variation",
    "reports.run_variation_suite",
    "reports.reports_to_json",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "suite2d",
            "second-variation",
            (
                "Default 20-seed suite, 2-d grim reaper, 102,400 nodes: geometry, polyval2d form "
                "jets, covariant calculus, four routes, fd oracle. Bypasses jet-arithmetic fields "
                "and wirtinger."
            ),
            _SUITE,
        ),
        Workload(
            "suite3d",
            "second-variation",
            (
                "The only d = 3 path: grim reaper x line in C^3, 27,000 nodes, 2 seeds. Loads "
                "jet-arithmetic fields (jets.ops) and the d = 3 matrix inverse. Bypasses wirtinger."
            ),
            _SUITE,
        ),
        Workload(
            "certify",
            "verify-soliton",
            (
                "verify-soliton on 360,000 points: only chart jets and order-2 geometry run; the "
                "largest memory. Bypasses variations, stability, reports, wirtinger. Takes no seed."
            ),
            _COMMON + ("charts.eval_jets", "geometry.point_geometry", "geometry.soliton_residual"),
        ),
        Workload(
            "cylinder",
            "cylinder",
            (
                "cylinder command: order-1 scalar field jets on 102,400 nodes, Wirtinger "
                "integrals, Dirichlet gap. Bypasses stability, reports, form jets and "
                "jet-arithmetic fields."
            ),
            _COMMON
            + (
                "quadrature.tensor_rule",
                "charts.eval_jets",
                "geometry.point_geometry",
                "variations.scalar_field_jets",
                "wirtinger.closed_form_deviations",
                "wirtinger.cylinder_stability_integrals",
                "wirtinger.dirichlet_gap",
            ),
        ),
    )
}


def variation_seed(workload: str, seed: int) -> int:
    """Program-side seed for a benchmark seed; distinct per workload."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return 1 + int.from_bytes(digest[:4], "big") % 1_000_000


def make_config(workload: str, seed: int) -> dict:
    """The full config the program sees for ``workload`` at ``seed``."""
    if workload == "suite2d":
        return {
            "chart": "grim_reaper",
            "T": [1.0, 0.0, 0.0, 0.0],
            "grid": {"cells": 40, "points_per_cell": 8, "support_shrink": 0.8},
            "variations": {"count": 20, "seed": variation_seed(workload, seed), "degree": 4},
            "fd_steps": [2e-3, 1e-3],
            "tolerances": dict(TOLERANCES),
        }
    if workload == "suite3d":
        return {
            "chart": {
                "name": "grim_reaper_x_line",
                "domain": [[-1.47, 1.47], [-2.0, 2.0], [-2.0, 2.0]],
                "components": ["-log(cos(x))", "x", "y", "0", "z", "0"],
            },
            "T": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            "grid": {"cells": 3, "points_per_cell": 10, "support_shrink": 0.8},
            "variations": {"count": 2, "seed": variation_seed(workload, seed), "degree": 4},
            "fd_steps": [2e-3, 1e-3],
            "tolerances": dict(TOLERANCES),
        }
    if workload == "certify":
        return {
            "chart": "grim_reaper",
            "T": [1.0, 0.0, 0.0, 0.0],
            "grid": {"diagnostic_points": 600},
            "tolerances": dict(TOLERANCES),
        }
    if workload == "cylinder":
        return {
            "chart": "grim_reaper",
            "T": [1.0, 0.0, 0.0, 0.0],
            "grid": {
                "cells": 40,
                "points_per_cell": 8,
                "support_shrink": 0.8,
                "diagnostic_points": 50,
            },
            "variations": {"seed": variation_seed(workload, seed), "degree": 4},
            "tolerances": dict(TOLERANCES),
            "dirichlet_intervals": 2000,
        }
    raise KeyError(f"unknown workload {workload!r}")


def config_bytes(config: dict) -> bytes:
    return (json.dumps(config, sort_keys=True, indent=2) + "\n").encode()


def node_count(config: dict, command: str) -> int:
    """Quadrature nodes (suites, cylinder) or sampling points (certify)."""
    grid = config["grid"]
    dim = len(config["T"]) // 2
    if command == "verify-soliton":
        return grid["diagnostic_points"] ** dim
    return (grid["cells"] * grid["points_per_cell"]) ** dim


def argv(workload: str, config_path: str, out_path: str) -> list[str]:
    args = [WORKLOADS[workload].command, "--config", config_path, "--out", out_path]
    if WORKLOADS[workload].command == "second-variation":
        args += ["--workers", "1"]
    return args


def expected_ops(workload: str, config: dict) -> int:
    """Gate-checked results per invocation: one per report, or one per command."""
    if WORKLOADS[workload].command == "second-variation":
        return config["variations"]["count"]
    return 1


# ---------------------------------------------------------------------------
# output checks


@dataclass
class Check:
    attempted: int
    failed: int
    problems: list[str]
    gates: dict[str, float]


def check_output(workload: str, config: dict, exit_code: int | None, text: str | None) -> Check:
    """Re-check one invocation's output against the config's tolerances."""
    expected = expected_ops(workload, config)
    if exit_code != 0:
        return Check(expected, expected, [f"exit code {exit_code}"], {})
    try:
        payload = json.loads(text)
    except (TypeError, ValueError) as exc:
        return Check(expected, expected, [f"output is not JSON: {exc}"], {})
    command = WORKLOADS[workload].command
    try:
        if command == "second-variation":
            return _check_suite(payload, config)
        if command == "verify-soliton":
            return _check_certify(payload, config)
        return _check_cylinder(payload, config)
    except (KeyError, TypeError, ValueError) as exc:
        return Check(expected, expected, [f"malformed output: {exc!r}"], {})


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _check_suite(payload: dict, config: dict) -> Check:
    tol = config["tolerances"]
    var = config["variations"]
    expected = var["count"]
    problems = []
    if payload["summary"].get("passed") is not True:
        problems.append('summary lacks "passed": true')
    reports = payload["reports"]
    if len(reports) != expected or payload["summary"].get("count") != expected:
        problems.append(f"expected {expected} reports, got {len(reports)}")
    failed = max(0, expected - len(reports))
    worst_pair = worst_fd = 0.0
    for i, r in enumerate(reports):
        op, dv, sq, fd, scale = (
            r["Fpp_operator"],
            r["Fpp_divergence"],
            r["Fpp_square"],
            r["Fpp_fd"],
            r["scale"],
        )
        bad = []
        if not _finite(op, dv, sq, fd, scale, r["lagrangian_defect"]) or scale <= 0:
            bad.append("non-finite value or non-positive scale")
        else:
            pair = max(abs(op - dv), abs(op - sq), abs(dv - sq)) / scale
            fd_rel = max(abs(fd - op), abs(fd - dv), abs(fd - sq)) / scale
            worst_pair = max(worst_pair, pair, r["max_pairwise_rel_diff"])
            worst_fd = max(worst_fd, fd_rel, r["fd_rel_diff"])
            if max(pair, r["max_pairwise_rel_diff"]) > tol["route_agreement"]:
                bad.append(f"route agreement {pair:.3e}")
            if max(fd_rel, r["fd_rel_diff"]) > tol["fd_agreement"]:
                bad.append(f"fd agreement {fd_rel:.3e}")
            if sq < 0.0:
                bad.append(f"Fpp_square {sq:.3e} < 0")
            if op < -tol["operator_positivity"] * scale:
                bad.append(f"Fpp_operator {op:.3e} not positive")
            if r["lagrangian_defect"] > tol["lagrangian_defect"]:
                bad.append(f"lagrangian defect {r['lagrangian_defect']:.3e}")
        if r["seed"] != var["seed"] + i:
            bad.append(f"seed {r['seed']} != {var['seed'] + i}")
        if bad:
            failed += 1
            problems.append(f"report {i}: " + "; ".join(bad))
    if problems and failed == 0:
        failed = expected  # a suite-level problem fails every op of the invocation
    gates = {
        "stability.max_pairwise_rel_diff": worst_pair,
        "stability.max_fd_rel_diff": worst_fd,
    }
    return Check(expected, min(failed, expected), problems, gates)


def _check_certify(payload: dict, config: dict) -> Check:
    tol = config["tolerances"]
    resid = payload["max_soliton_residual"]
    defect = payload["max_lagrangian_defect"]
    problems = []
    if payload.get("passed") is not True:
        problems.append('output lacks "passed": true')
    if not _finite(resid, defect):
        problems.append("non-finite residual or defect")
    else:
        if resid > tol["soliton_residual"]:
            problems.append(f"soliton residual {resid:.3e}")
        if defect > tol["lagrangian_defect"]:
            problems.append(f"lagrangian defect {defect:.3e}")
    points = config["grid"]["diagnostic_points"] ** (len(config["T"]) // 2)
    if payload["grid"]["count"] != points:
        problems.append(f"grid has {payload['grid']['count']} points, expected {points}")
    return Check(1, int(bool(problems)), problems, {"geometry.max_soliton_residual": resid})


def _check_cylinder(payload: dict, config: dict) -> Check:
    tol = config["tolerances"]
    problems = []
    if payload.get("passed") is not True:
        problems.append('output lacks "passed": true')
    deviations = payload["geometry_deviations"].values()
    if not _finite(*deviations) or max(deviations) > tol["geometry_oracle"]:
        problems.append(f"geometry deviation {max(deviations):.3e}")
    pairs = payload["stability_pairs"]
    if len(pairs) != 10:
        problems.append(f"expected 10 stability pairs, got {len(pairs)}")
    seed = config["variations"]["seed"]
    for i, p in enumerate(pairs):
        if not _finite(p["curvature_integral"], p["gradient_integral"]):
            problems.append(f"pair {i}: non-finite integral")
        elif p["curvature_integral"] > p["gradient_integral"]:
            problems.append(f"pair {i}: stability inequality fails")
        if p["seed_pair"] != [seed + i, seed + 100 + i]:
            problems.append(f"pair {i}: seeds {p['seed_pair']}")
    if payload.get("wirtinger_slices_ok") is not True:
        problems.append("per-slice Wirtinger check failed")
    gap = payload["dirichlet_gap"]
    n = config["dirichlet_intervals"]
    h = math.pi / n
    exact = (4.0 / h**2) * math.sin(h / 2) ** 2
    if gap["intervals"] != n or not _finite(gap["eigenvalue"]):
        problems.append("dirichlet gap missing")
    else:
        if abs(gap["eigenvalue"] - 1.0) > tol["dirichlet_gap"]:
            problems.append(f"dirichlet eigenvalue {gap['eigenvalue']!r}")
        if abs(gap["eigenvalue"] - exact) > DIRICHLET_EXACT_TOL:
            problems.append(f"dirichlet eigenvalue {gap['eigenvalue']!r} != exact {exact!r}")
    return Check(1, int(bool(problems)), problems, {})
