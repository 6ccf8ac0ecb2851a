"""Command-line front end.

Subcommands
-----------
``verify-soliton``     translator-equation residual and Kaehler pullback on a
                       sampling grid; exit 0 iff both are below tolerance.
``second-variation``   the seeded variation suite with all four routes; exit 0
                       iff every report satisfies route agreement, oracle
                       agreement, positivity and closedness of its one-form
                       (``tolerances.lagrangian_defect``).  With
                       ``--demonstrate-failure`` a non-closed variation is run
                       instead and exit 0 means the square/operator mismatch
                       exceeded its threshold.
``cylinder``           the full grim reaper cylinder pipeline: geometry
                       closed forms, stability inequality for random variation
                       pairs, per-slice Wirtinger checks and the discrete
                       Dirichlet gap.

Each command returns its text and its verdict; :func:`main` writes the text
and maps the verdict to an exit code: 0 pass, 1 check failed, 2 configuration
error, 3 precondition violation (not a translator).  ``SOLITON_STABILITY_LOG``
selects the log level.  All defaults are embedded, so every command runs with
no arguments.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import sys
from typing import Any

from .charts import Chart, chart_from_config, uniform_grid
from .errors import (
    ConfigurationError,
    ExpressionError,
    NotASolitonError,
    SolitonStabilityError,
)
from .expressions import is_finite_number
from .geometry import soliton_residual
from .quadrature import tensor_rule
from .reports import reports_to_csv, reports_to_json, run_variation_suite
from .stability import DEFAULT_FD_STEPS, DEFAULT_SOLITON_TOL, grid_blocks
from .variations import (
    default_support_box,
    hamiltonian_variation,
    random_generic_variation,
    random_hamiltonian_variation,
    random_polynomial_field,
    scalar_field_from_expression,
)
from .wirtinger import (
    DIRICHLET_MIN_INTERVALS,
    closed_form_deviations,
    cylinder_stability_integrals,
    dirichlet_gap,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3


def _positive(value) -> bool:
    return is_finite_number(value) and value > 0


def _integer(lo: int):
    return f"an integer >= {lo}", lambda v: type(v) is int and v >= lo


_POSITIVE = ("a positive finite number", _positive)

# Every configuration key once: a section is a dict, a key is
# ``(default, requirement, check)``, where ``check(value)`` is true for an
# accepted value and ``requirement`` completes the error message
# "<dotted.key> must be <requirement>".  A check of None leaves the value to
# its consumer: ``charts.chart_from_config`` checks the chart.
SCHEMA: dict[str, Any] = {
    "chart": ("grim_reaper", None, None),
    "T": (
        [1.0, 0.0, 0.0, 0.0],
        "a list of finite numbers",
        lambda v: isinstance(v, list) and all(map(is_finite_number, v)),
    ),
    "grid": {
        "cells": (40, *_integer(1)),
        "points_per_cell": (8, *_integer(1)),
        "support_shrink": (0.8, "a number in (0, 1)", lambda v: _positive(v) and v < 1),
        "diagnostic_points": (50, *_integer(1)),
    },
    "variations": {
        "count": (20, *_integer(1)),
        "seed": (1, *_integer(0)),
        "degree": (4, *_integer(0)),
        "potentials": (
            None,
            "null or a non-empty list of expressions",
            lambda v: v is None
            or (isinstance(v, list) and len(v) > 0 and all(isinstance(p, str) for p in v)),
        ),
    },
    "fd_steps": (
        list(DEFAULT_FD_STEPS),
        "two distinct positive numbers whose squares and squared ratio are finite and nonzero",
        lambda v: isinstance(v, list) and len(v) == 2 and all(map(_positive, v)) and v[0] != v[1]
        and all(0 < s * s <= sys.float_info.max for s in (float(v[0]), float(v[1]), v[0] / v[1])),
    ),
    "tolerances": {
        "soliton_residual": (DEFAULT_SOLITON_TOL, *_POSITIVE),
        "lagrangian_defect": (1e-9, *_POSITIVE),
        "route_agreement": (1e-6, *_POSITIVE),
        "fd_agreement": (1e-4, *_POSITIVE),
        "operator_positivity": (1e-6, *_POSITIVE),
        "geometry_oracle": (1e-10, *_POSITIVE),
        "dirichlet_gap": (1e-3, *_POSITIVE),
        "failure_demonstration": (1e-2, *_POSITIVE),
    },
    "dirichlet_intervals": (2000, *_integer(DIRICHLET_MIN_INTERVALS)),
    "output": {
        "path": (None, "null or a string", lambda v: v is None or isinstance(v, str)),
        "format": ("json", "'json' or 'csv'", lambda v: v in ("json", "csv")),
    },
}


def _resolve(schema: dict, raw, overrides: dict, section: str = "") -> dict:
    """``raw`` merged onto the defaults of ``schema``, then the dotted-key
    ``overrides`` onto that, with every value checked."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{section or 'config'} must be a JSON object, got {raw!r}")
    prefix = f"{section}." if section else ""
    for key in raw:
        if key not in schema:
            raise ConfigurationError(f"unknown configuration key {prefix + key!r}")
    out = {}
    for key, spec in schema.items():
        name = prefix + key
        if isinstance(spec, dict):
            out[key] = _resolve(spec, raw.get(key, {}), overrides, name)
            continue
        default, requirement, check = spec
        value = raw.get(key, default)
        # a value from the file is checked even where an override replaces it
        for value in (value, overrides.get(name, value)):
            if check is not None and not check(value):
                raise ConfigurationError(f"{name} must be {requirement}, got {value!r}")
        out[key] = value
    return out


def load_config(path: str | None, overrides: dict | None = None) -> dict[str, Any]:
    """The run configuration: the JSON file at ``path`` (if any) merged onto
    the defaults of :data:`SCHEMA`, then ``overrides`` (dotted key -> value,
    None meaning not given), with every key checked."""
    raw: Any = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON, nested too deeply
            raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    given = {key: value for key, value in (overrides or {}).items() if value is not None}
    return _resolve(SCHEMA, raw, given)


def chart_and_T(cfg: dict) -> tuple[Chart, list]:
    """The configured chart and its translation direction ``T``."""
    chart = chart_from_config(cfg["chart"])
    if len(cfg["T"]) != chart.ambient_dim:
        raise ConfigurationError(
            f"T has dimension {len(cfg['T'])}, chart ambient dimension is {chart.ambient_dim}"
        )
    return chart, cfg["T"]


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write output {path!r}: {exc.strerror or exc}") from None


# ---------------------------------------------------------------------------
# commands


def cmd_verify_soliton(cfg: dict, chart: Chart, T: list) -> tuple[str, bool]:
    grid = uniform_grid(chart, cfg["grid"]["diagnostic_points"])
    report = soliton_residual(chart, T, grid)
    tols = {key: cfg["tolerances"][key] for key in ("soliton_residual", "lagrangian_defect")}
    passed = (
        report.max_soliton_residual <= tols["soliton_residual"]
        and report.max_lagrangian_defect <= tols["lagrangian_defect"]
    )
    return reports_to_json({**report.to_dict(), "tolerances": tols, "passed": passed}), passed


def cmd_second_variation(
    cfg: dict, chart: Chart, T: list, demonstrate_failure: bool = False, workers: int = 1
) -> tuple[str, bool]:
    tols = cfg["tolerances"]
    grid_cfg = cfg["grid"]
    var_cfg = cfg["variations"]
    seed, degree, potentials = var_cfg["seed"], var_cfg["degree"], var_cfg["potentials"]
    support = default_support_box(chart.domain, grid_cfg["support_shrink"])
    if demonstrate_failure:
        variations = [(seed, random_generic_variation(support, seed, degree))]
    elif potentials:
        variations = [
            (None, hamiltonian_variation(scalar_field_from_expression(expr, support)))
            for expr in potentials
        ]
    else:
        variations = [
            (seed + i, random_hamiltonian_variation(support, seed + i, degree))
            for i in range(var_cfg["count"])
        ]

    grid = tensor_rule(support, grid_cfg["cells"], grid_cfg["points_per_cell"])
    blocks = grid_blocks(chart, T, grid, tols["soliton_residual"])
    reports = run_variation_suite(blocks, variations, tuple(cfg["fd_steps"]), workers)

    if demonstrate_failure:
        report = reports[0]
        gap = abs(report.Fpp_square - report.Fpp_operator) / max(report.scale, 1e-300)
        report.extra["square_operator_gap"] = gap
        ok = report.extra["demonstrated"] = gap > tols["failure_demonstration"]
        summary = None
    else:
        if potentials:
            for report, expr in zip(reports, potentials):
                report.extra["potential"] = expr
        ok = all(
            r.max_pairwise_rel_diff <= tols["route_agreement"]
            and r.fd_rel_diff <= tols["fd_agreement"]
            and r.Fpp_square >= 0.0
            and r.Fpp_operator >= -tols["operator_positivity"] * r.scale
            and r.lagrangian_defect <= tols["lagrangian_defect"]
            for r in reports
        )
        summary = {"passed": ok, "count": len(reports)}
    if cfg["output"]["format"] == "csv":
        return reports_to_csv(reports), ok
    return reports_to_json(reports, extra=summary), ok


def cmd_cylinder(cfg: dict, chart: Chart, T: list) -> tuple[str, bool]:
    """Full closed-form pipeline on the grim reaper cylinder."""
    tols = cfg["tolerances"]
    grid_cfg = cfg["grid"]
    checks: dict[str, Any] = {}
    support = default_support_box(chart.domain, grid_cfg["support_shrink"])

    geo = closed_form_deviations(chart, T, uniform_grid(chart, grid_cfg["diagnostic_points"]))
    checks["geometry_deviations"] = geo
    geo_ok = all(v <= tols["geometry_oracle"] for v in geo.values())  # a NaN fails
    checks["geometry_ok"] = geo_ok

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
    checks["stability_inequality_ok"] = inequality_ok
    checks["wirtinger_slices_ok"] = slices_ok

    n = cfg["dirichlet_intervals"]
    gap = dirichlet_gap(n)
    checks["dirichlet_gap"] = {"intervals": n, "eigenvalue": gap}
    gap_ok = abs(gap - 1.0) <= tols["dirichlet_gap"]
    checks["dirichlet_gap_ok"] = gap_ok

    passed = geo_ok and inequality_ok and slices_ok and gap_ok
    checks["passed"] = passed
    return reports_to_json(checks), passed


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
        p.add_argument("--chart", help="builtin chart name override")

    p_ver = sub.add_parser("verify-soliton", help="translator and Lagrangian certificates")
    common(p_ver)

    p_sv = sub.add_parser("second-variation", help="four-route second variation suite")
    common(p_sv)
    p_sv.add_argument("--format", choices=["json", "csv"], help="output format")
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


def _keep_freed_memory() -> None:
    """Have glibc's malloc serve arrays up to 32 MB from its heap and keep 64 MB of it freed,
    so each row block reuses the previous block's memory (a no-op without ``mallopt``).  By
    default every block's arrays were faulted in anew: verify-soliton on the perfbench
    certify config took 67,173 minor page faults and 0.33 s, against 6,695 and 0.19 s."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if os.name == "posix" else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_memory()
    level = os.environ.get("SOLITON_STABILITY_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        parser.error(f"argument --workers: must be >= 1, got {args.workers}")
    overrides = {
        "output.path": args.out,
        "output.format": getattr(args, "format", None),
        "chart": args.chart,
        "variations.seed": getattr(args, "seed", None),
        "variations.count": getattr(args, "count", None),
    }
    try:
        cfg = load_config(args.config, overrides)
        if args.command != "second-variation" and cfg["output"]["format"] != "json":
            raise ConfigurationError(
                f"output.format must be 'json' for {args.command}, got {cfg['output']['format']!r}"
            )
        chart, T = chart_and_T(cfg)
        if args.command == "verify-soliton":
            text, passed = cmd_verify_soliton(cfg, chart, T)
        elif args.command == "cylinder":
            text, passed = cmd_cylinder(cfg, chart, T)
        else:
            text, passed = cmd_second_variation(cfg, chart, T, args.demonstrate_failure, args.workers)
        _emit(text, cfg["output"]["path"])  # inside the try: an unwritable path exits 2
        return EXIT_PASS if passed else EXIT_FAIL
    except (ConfigurationError, ExpressionError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except NotASolitonError as exc:
        sys.stderr.write(f"precondition violation: {exc}\n")
        return EXIT_PRECONDITION
    except SolitonStabilityError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
