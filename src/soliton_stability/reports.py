"""Variation reports, suite execution, and JSON/CSV serialization.

Reports are plain data and serialize deterministically (sorted keys, native
float repr), so identical configuration and seed produce byte-identical
output when run with a single worker.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from .stability import (
    GridGeometry,
    first_variation,
    prepare_variation,
    require_soliton,
    second_variation_divergence,
    second_variation_fd_oracle,
    second_variation_operator,
    second_variation_square,
    variation_scale,
)
from .variations import OneFormField

__all__ = [
    "VariationReport",
    "evaluate_variation",
    "run_variation_suite",
    "reports_to_json",
    "reports_to_csv",
]

CSV_COLUMNS = [
    "chart",
    "seed",
    "defect",
    "Fpp_operator",
    "Fpp_divergence",
    "Fpp_square",
    "Fpp_fd",
    "max_pairwise_rel_diff",
]


@dataclass
class VariationReport:
    """All second-variation routes and diagnostics for one variation."""

    chart: str
    seed: int | None
    kind: str
    grid: dict
    F_value: float
    first_var: float
    Fpp_operator: float
    Fpp_divergence: float
    Fpp_square: float
    Fpp_fd: float
    lagrangian_defect: float
    scale: float
    max_pairwise_rel_diff: float
    fd_rel_diff: float
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "extra"}
        out.update(self.extra)
        return out


def evaluate_variation(
    gg: GridGeometry,
    theta: OneFormField,
    seed: int | None = None,
    fd_steps: tuple[float, float] = (2e-3, 1e-3),
    soliton_tol: float = 1e-8,
) -> VariationReport:
    """Run every route on one variation and bundle the numbers."""
    # every route refuses off criticality; refuse before forming V, which needs
    # a Lagrangian chart
    require_soliton(gg, soliton_tol)
    data = prepare_variation(gg, theta)
    op = second_variation_operator(gg, data, soliton_tol)
    dv = second_variation_divergence(gg, data, soliton_tol)
    sq = second_variation_square(gg, data, soliton_tol)
    fd = second_variation_fd_oracle(gg, data, fd_steps, soliton_tol)
    scale = variation_scale(gg, data)
    denom = scale if scale > 0 else 1.0
    pairwise = max(abs(op - dv), abs(op - sq), abs(dv - sq)) / denom
    fd_rel = max(abs(fd - op), abs(fd - dv), abs(fd - sq)) / denom
    return VariationReport(
        chart=gg.chart.name,
        seed=seed,
        kind=theta.kind,
        grid=gg.grid.describe(),
        F_value=gg.functional_at_rest,
        first_var=first_variation(gg, data),
        Fpp_operator=op,
        Fpp_divergence=dv,
        Fpp_square=sq,
        Fpp_fd=fd,
        lagrangian_defect=data.defect,
        scale=scale,
        max_pairwise_rel_diff=pairwise,
        fd_rel_diff=fd_rel,
    )


def run_variation_suite(
    gg: GridGeometry,
    variations: list[tuple[int | None, OneFormField]],
    fd_steps: tuple[float, float] = (2e-3, 1e-3),
    soliton_tol: float = 1e-8,
    workers: int = 1,
) -> list[VariationReport]:
    """Evaluate each ``(seed, theta)`` of ``variations`` on the shared geometry ``gg``.

    With ``workers > 1`` the per-variation evaluations run on a thread pool;
    results keep the order of ``variations`` either way.
    """

    def one(item):
        seed, theta = item
        return evaluate_variation(gg, theta, seed, fd_steps, soliton_tol)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(one, variations))
    return [one(item) for item in variations]


def reports_to_json(reports, extra: dict | None = None) -> str:
    payload: Any
    if isinstance(reports, (list, tuple)):
        payload = [r.to_dict() if hasattr(r, "to_dict") else r for r in reports]
    else:
        payload = reports.to_dict() if hasattr(reports, "to_dict") else reports
    if extra is not None:
        payload = {"summary": extra, "reports": payload}
    return json.dumps(_plain(payload), sort_keys=True, indent=2) + "\n"


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        d = r.to_dict()
        writer.writerow(
            [
                d["chart"],
                d["seed"],
                repr(d["lagrangian_defect"]),
                repr(d["Fpp_operator"]),
                repr(d["Fpp_divergence"]),
                repr(d["Fpp_square"]),
                repr(d["Fpp_fd"]),
                repr(d["max_pairwise_rel_diff"]),
            ]
        )
    return buf.getvalue()


def _plain(obj):
    """Recursively convert numpy scalars/arrays for json serialization."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj
