"""Variation reports, suite execution, and JSON/CSV serialization.

Reports are plain data and serialize deterministically (sorted keys, native
float repr), so identical configuration and seed produce byte-identical
output when run with a single worker.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Any

import numpy as np

from .errors import EvaluationError
from .quadrature import total
from .stability import (
    DEFAULT_FD_STEPS,
    GridGeometry,
    fd_second_difference,
    first_variation,
    prepare_variation,
    require_soliton,
    second_variation_divergence,
    second_variation_fd_oracle,
    second_variation_operator,
    second_variation_square,
    variation_scale,
    warn_if_not_closed,
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


# the routes that evaluate_variation runs on each block, each handing back the block's row sums
ROUTES = {
    "first_var": first_variation,
    "Fpp_operator": second_variation_operator,
    "Fpp_divergence": second_variation_divergence,
    "Fpp_square": second_variation_square,
    "scale": variation_scale,
}


def evaluate_variation(
    gg: GridGeometry,
    theta: OneFormField,
    seed: int | None = None,
    fd_steps: tuple[float, float] = DEFAULT_FD_STEPS,
) -> VariationReport:
    """Run every route on one variation, one row block of ``gg`` at a time, and bundle the numbers.

    Each block is finished before the next starts: its form jets and
    per-variation arrays are block-sized and freed before the next block's
    form.  Two half-measures, each measured on the default 102,400-node suite
    in fresh processes, cut memory but cost time through first-touch page
    faults: whole-grid per-variation arrays over blocked geometry took 106k
    minor faults against 20k, 0.29 s of system time against 0.11 s and 1.82 s
    of wall time against 1.58 s (medians of 8 alternating runs), and holding
    every block's ``VariationData`` took 115k faults, about 3.4k-4.9k per
    variation.  A program that frees whole-grid temporaries raises glibc's
    dynamic mmap and trim thresholds, so later arrays of that size reuse the
    heap; block-sized arrays stay below them and reuse it from the start.

    Each route's row sums are added once, by ``quadrature.total``, as
    ``QuadratureGrid.integrate`` adds them, so no value depends on the block size.
    """
    # every route refuses off criticality; refuse before forming V, which needs
    # a Lagrangian chart
    require_soliton(gg)
    sums: dict[str, list[np.ndarray]] = {name: [] for name in (*ROUTES, "fd")}
    defects = []
    for block in gg.blocks:
        data = prepare_variation(block, theta)
        defects.append(data.defect)
        for name, route in ROUTES.items():
            sums[name].append(route(block, data))
        sums["fd"].append(second_variation_fd_oracle(block, data, fd_steps))
        del data
    defect = float(np.max(defects))  # np.max keeps a NaN
    warn_if_not_closed(defect)
    fd_rows = np.concatenate(sums.pop("fd"), axis=1)
    integral = {name: total(np.concatenate(parts)) for name, parts in sums.items()}
    op, dv, sq, scale = (integral[name] for name in ("Fpp_operator", "Fpp_divergence", "Fpp_square", "scale"))
    fd = fd_second_difference([total(rows) for rows in fd_rows], fd_steps)
    denom = scale if scale > 0 else 1.0
    pairwise = max(abs(op - dv), abs(op - sq), abs(dv - sq)) / denom
    fd_rel = max(abs(fd - op), abs(fd - dv), abs(fd - sq)) / denom
    return VariationReport(
        chart=gg.chart.name,
        seed=seed,
        kind=theta.kind,
        grid=gg.grid.describe(),
        F_value=gg.functional_at_rest,
        first_var=integral["first_var"],
        Fpp_operator=op,
        Fpp_divergence=dv,
        Fpp_square=sq,
        Fpp_fd=fd,
        lagrangian_defect=defect,
        scale=scale,
        max_pairwise_rel_diff=pairwise,
        fd_rel_diff=fd_rel,
    )


def run_variation_suite(
    gg: GridGeometry,
    variations: list[tuple[int | None, OneFormField]],
    fd_steps: tuple[float, float] = DEFAULT_FD_STEPS,
    workers: int = 1,
) -> list[VariationReport]:
    """Evaluate each ``(seed, theta)`` of ``variations`` on the shared geometry ``gg``.

    With ``workers > 1`` the per-variation evaluations run on a thread pool;
    results keep the order of ``variations`` either way.
    """

    def one(item):
        seed, theta = item
        return evaluate_variation(gg, theta, seed, fd_steps)

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
    return json.dumps(_plain(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


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


def _plain(obj, key: str = ""):
    """Recursively convert numpy scalars/arrays for json serialization; a float
    that is not finite raises EvaluationError naming its dotted ``key``."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v, f"{key}.{k}".lstrip(".")) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v, f"{key}.{i}".lstrip(".")) for i, v in enumerate(obj)]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        raise EvaluationError(f"{key} is {obj!r}, which a JSON report cannot hold")
    return obj
