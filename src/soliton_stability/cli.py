"""Command-line front end.

Subcommands
-----------
``verify-soliton``     translator-equation residual and Kaehler pullback on a
                       sampling grid; exit 0 iff both are below tolerance.
``second-variation``   the seeded variation suite with all four routes; exit 0
                       iff every report satisfies route agreement, oracle
                       agreement and positivity.  With ``--demonstrate-failure``
                       a non-closed variation is run instead and exit 0 means
                       the square/operator mismatch exceeded its threshold.
``cylinder``           the full grim reaper cylinder pipeline: geometry
                       closed forms, stability inequality for random variation
                       pairs, per-slice Wirtinger checks and the discrete
                       Dirichlet gap.

Exit codes: 0 pass, 1 check failed, 2 configuration error, 3 precondition
violation (not a translator).  ``SOLITON_STABILITY_LOG`` selects the log
level.  All defaults are embedded, so every command runs with no arguments.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .charts import Chart, chart_from_config, standard_structure, uniform_grid
from .errors import (
    ConfigurationError,
    ExpressionError,
    NotASolitonError,
    SolitonStabilityError,
)
from .geometry import soliton_residual
from .quadrature import tensor_rule
from .reports import (
    _plain,
    evaluate_variation,
    reports_to_csv,
    reports_to_json,
    run_variation_suite,
)
from .stability import default_grid_for_support, grid_geometry
from .variations import (
    default_support_box,
    hamiltonian_variation,
    random_generic_variation,
    random_polynomial_field,
    scalar_field_from_expression,
)
from .wirtinger import closed_form_deviations, cylinder_stability_integrals, dirichlet_gap

log = logging.getLogger("soliton_stability")

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3

DEFAULT_CONFIG: dict[str, Any] = {
    "chart": "grim_reaper",
    "T": [1.0, 0.0, 0.0, 0.0],
    "grid": {
        "cells": 40,
        "points_per_cell": 8,
        "support_shrink": 0.8,
        "diagnostic_points": 50,
    },
    "variations": {"count": 20, "seed": 1, "degree": 4, "potentials": None},
    "fd_steps": [2e-3, 1e-3],
    "tolerances": {
        "soliton_residual": 1e-8,
        "lagrangian_defect": 1e-9,
        "route_agreement": 1e-6,
        "fd_agreement": 1e-4,
        "operator_positivity": 1e-6,
        "geometry_oracle": 1e-10,
        "dirichlet_gap": 1e-3,
        "failure_demonstration": 1e-2,
    },
    "dirichlet_intervals": 2000,
    "output": {"path": None, "format": "json"},
}


@dataclass
class RunConfig:
    """Validated run configuration with all defaults resolved."""

    raw: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        merged = _deep_merge(DEFAULT_CONFIG, self.raw)
        tols = merged["tolerances"]
        for name, value in tols.items():
            if not _positive_number(value):
                raise ConfigurationError(
                    f"tolerance {name!r} must be a positive finite number, got {value!r}"
                )
        pots = merged["variations"]["potentials"]
        if pots is not None and not (
            isinstance(pots, list) and pots and all(isinstance(p, str) for p in pots)
        ):
            raise ConfigurationError("variations.potentials must be a non-empty list of expressions")
        for name in ("grid.cells", "grid.points_per_cell", "variations.count"):
            section, key = name.split(".")
            value = merged[section][key]
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigurationError(f"{name} must be an integer >= 1, got {value!r}")
        steps = merged["fd_steps"]
        if not (
            isinstance(steps, (list, tuple))
            and len(steps) == 2
            and all(_positive_number(h) for h in steps)
            and steps[0] != steps[1]
        ):
            raise ConfigurationError(
                f"fd_steps must be two distinct positive finite numbers, got {steps!r}"
            )
        for name in ("variations.degree", "variations.seed"):
            section, key = name.split(".")
            value = merged[section][key]
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ConfigurationError(f"{name} must be an integer >= 0, got {value!r}")
        shrink = merged["grid"]["support_shrink"]
        if not (_positive_number(shrink) and shrink < 1.0):
            raise ConfigurationError(f"grid.support_shrink must lie in (0, 1), got {shrink!r}")
        if merged["output"]["format"] not in ("json", "csv"):
            raise ConfigurationError("output.format must be 'json' or 'csv'")
        self.data = merged

    def chart(self) -> Chart:
        return chart_from_config(self.data["chart"])

    def structure(self, chart: Chart):
        T = np.asarray(self.data["T"], dtype=float)
        if T.shape != (chart.ambient_dim,):
            raise ConfigurationError(
                f"T has dimension {T.shape[0]}, chart ambient dimension is {chart.ambient_dim}"
            )
        return standard_structure(chart.ambient_dim // 2, T)

    def __getitem__(self, key):
        return self.data[key]


def _positive_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


def _deep_merge(base: dict, override: dict) -> dict:
    out = {}
    for key, value in base.items():
        if key in override:
            ov = override[key]
            out[key] = _deep_merge(value, ov) if isinstance(value, dict) and isinstance(ov, dict) else ov
        else:
            out[key] = value
    for key in override:
        if key not in base:
            raise ConfigurationError(f"unknown configuration key {key!r}")
    return out


def load_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    raw: dict[str, Any] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigurationError("config file must contain a JSON object")
    if overrides:
        raw = _merge_overrides(raw, overrides)
    return RunConfig(raw)


def _merge_overrides(raw: dict, overrides: dict) -> dict:
    out = dict(raw)
    for key, value in overrides.items():
        if value is None:
            continue
        parts = key.split(".")
        node = out
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = value
    return out


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# commands


def cmd_verify_soliton(cfg: RunConfig, out: str | None) -> int:
    chart = cfg.chart()
    structure = cfg.structure(chart)
    grid = uniform_grid(chart, cfg["grid"]["diagnostic_points"])
    report = soliton_residual(chart, structure, grid)
    tols = cfg["tolerances"]
    passed = (
        report.max_soliton_residual <= tols["soliton_residual"]
        and report.max_lagrangian_defect <= tols["lagrangian_defect"]
    )
    payload = report.to_dict()
    payload["tolerances"] = {
        "soliton_residual": tols["soliton_residual"],
        "lagrangian_defect": tols["lagrangian_defect"],
    }
    payload["passed"] = passed
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", out)
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_second_variation(
    cfg: RunConfig,
    out: str | None,
    demonstrate_failure: bool = False,
    workers: int = 1,
) -> int:
    chart = cfg.chart()
    structure = cfg.structure(chart)
    tols = cfg["tolerances"]
    grid_cfg = cfg["grid"]
    var_cfg = cfg["variations"]
    fd_steps = tuple(cfg["fd_steps"])
    support = default_support_box(chart.domain, grid_cfg["support_shrink"])

    if demonstrate_failure:
        grid = default_grid_for_support(
            chart, support, grid_cfg["cells"], grid_cfg["points_per_cell"]
        )
        gg = grid_geometry(chart, structure, grid)
        theta = random_generic_variation(support, var_cfg["seed"], var_cfg["degree"])
        report = evaluate_variation(gg, theta, var_cfg["seed"], fd_steps, tols["soliton_residual"])
        gap = abs(report.Fpp_square - report.Fpp_operator) / max(report.scale, 1e-300)
        report.extra["square_operator_gap"] = gap
        report.extra["demonstrated"] = gap > tols["failure_demonstration"]
        _emit(reports_to_json([report]), out)
        return EXIT_PASS if report.extra["demonstrated"] else EXIT_FAIL

    if var_cfg["potentials"]:
        grid = default_grid_for_support(
            chart, support, grid_cfg["cells"], grid_cfg["points_per_cell"]
        )
        gg = grid_geometry(chart, structure, grid)
        reports = []
        for expr in var_cfg["potentials"]:
            theta = hamiltonian_variation(scalar_field_from_expression(expr, support))
            rep = evaluate_variation(gg, theta, None, fd_steps, tols["soliton_residual"])
            rep.extra["potential"] = expr
            reports.append(rep)
    else:
        reports, _ = run_variation_suite(
            chart,
            structure,
            count=var_cfg["count"],
            base_seed=var_cfg["seed"],
            support=support,
            cells=grid_cfg["cells"],
            points_per_cell=grid_cfg["points_per_cell"],
            degree=var_cfg["degree"],
            fd_steps=fd_steps,
            soliton_tol=tols["soliton_residual"],
            workers=workers,
        )
    ok = all(
        r.max_pairwise_rel_diff <= tols["route_agreement"]
        and r.fd_rel_diff <= tols["fd_agreement"]
        and r.Fpp_square >= 0.0
        and r.Fpp_operator >= -tols["operator_positivity"] * r.scale
        for r in reports
    )
    if cfg["output"]["format"] == "csv":
        _emit(reports_to_csv(reports), out)
    else:
        _emit(reports_to_json(reports, extra={"passed": ok, "count": len(reports)}), out)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_cylinder(cfg: RunConfig, out: str | None) -> int:
    """Full closed-form pipeline on the grim reaper cylinder."""
    chart = cfg.chart()
    structure = cfg.structure(chart)
    tols = cfg["tolerances"]
    grid_cfg = cfg["grid"]
    checks: dict[str, Any] = {}

    geo = closed_form_deviations(chart, structure, grid_cfg["diagnostic_points"])
    checks["geometry_deviations"] = geo
    geo_ok = max(geo.values()) <= tols["geometry_oracle"]
    checks["geometry_ok"] = geo_ok

    support = default_support_box(chart.domain, grid_cfg["support_shrink"])
    grid = tensor_rule(support, grid_cfg["cells"], grid_cfg["points_per_cell"])
    seed = cfg["variations"]["seed"]
    degree = cfg["variations"]["degree"]
    pair_rows = []
    inequality_ok = True
    slices_ok = True
    for i in range(10):
        v3 = random_polynomial_field(support, seed + i, degree)
        v4 = random_polynomial_field(support, seed + 100 + i, degree)
        res = cylinder_stability_integrals(v3, v4, grid)
        inequality_ok &= res.curvature_integral <= res.gradient_integral
        slices_ok &= res.slices_hold()
        pair_rows.append(
            {
                "seed_pair": [seed + i, seed + 100 + i],
                "curvature_integral": res.curvature_integral,
                "gradient_integral": res.gradient_integral,
                "wirtinger_lhs": res.wirtinger_lhs,
                "wirtinger_rhs": res.wirtinger_rhs,
            }
        )
    checks["stability_pairs"] = pair_rows
    checks["stability_inequality_ok"] = bool(inequality_ok)
    checks["wirtinger_slices_ok"] = bool(slices_ok)

    n = cfg["dirichlet_intervals"]
    gap = dirichlet_gap(n)
    checks["dirichlet_gap"] = {"intervals": n, "eigenvalue": gap}
    gap_ok = abs(gap - 1.0) <= tols["dirichlet_gap"]
    checks["dirichlet_gap_ok"] = gap_ok

    passed = geo_ok and inequality_ok and slices_ok and gap_ok
    checks["passed"] = passed
    _emit(json.dumps(_plain(checks), sort_keys=True, indent=2) + "\n", out)
    return EXIT_PASS if passed else EXIT_FAIL


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soliton-stability",
        description="Numerical verification of translator stability identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=["json", "csv"], help="output format")
        p.add_argument("--chart", help="builtin chart name override")

    p_ver = sub.add_parser("verify-soliton", help="translator and Lagrangian certificates")
    common(p_ver)

    p_sv = sub.add_parser("second-variation", help="four-route second variation suite")
    common(p_sv)
    p_sv.add_argument("--seed", type=int, help="base seed for the variation suite")
    p_sv.add_argument("--count", type=int, help="number of seeded variations")
    p_sv.add_argument("--workers", type=int, default=1, help="thread workers (default 1)")
    p_sv.add_argument(
        "--demonstrate-failure",
        action="store_true",
        help="run one non-closed variation and expect the square/operator mismatch",
    )

    p_cyl = sub.add_parser("cylinder", help="closed-form cylinder stability pipeline")
    common(p_cyl)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("SOLITON_STABILITY_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    overrides = {
        "output.format": getattr(args, "format", None),
        "chart": getattr(args, "chart", None),
        "variations.seed": getattr(args, "seed", None),
        "variations.count": getattr(args, "count", None),
    }
    try:
        cfg = load_config(args.config, overrides)
        out = args.out if args.out is not None else cfg["output"]["path"]
        if args.command == "verify-soliton":
            return cmd_verify_soliton(cfg, out)
        if args.command == "second-variation":
            return cmd_second_variation(cfg, out, args.demonstrate_failure, max(1, args.workers))
        if args.command == "cylinder":
            return cmd_cylinder(cfg, out)
        parser.error(f"unknown command {args.command}")
    except (ConfigurationError, ExpressionError) as exc:
        log.error("configuration error: %s", exc)
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except NotASolitonError as exc:
        sys.stderr.write(f"precondition violation: {exc}\n")
        return EXIT_PRECONDITION
    except SolitonStabilityError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL
    return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
