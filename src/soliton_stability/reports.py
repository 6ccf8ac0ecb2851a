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
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any, Iterable

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
    "scale",
    "fd_rel_diff",
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


# the routes that evaluate_variation runs on each block, each handing back its integrand
ROUTES = {
    "first_var": first_variation,
    "Fpp_operator": second_variation_operator,
    "Fpp_divergence": second_variation_divergence,
    "Fpp_square": second_variation_square,
    "scale": variation_scale,
}


def evaluate_variation(
    block: GridGeometry, theta: OneFormField, fd_steps: tuple[float, float] = DEFAULT_FD_STEPS
) -> dict[str, np.ndarray]:
    """Run every route on one variation over one row block: the row sums of each of
    :data:`ROUTES`' integrands times ``area_weight``, the fd oracle's ``"fd"`` (2, rows) and
    the block's closedness defect ``"lagrangian_defect"`` (1,), each to be joined along its
    last axis with the other blocks'.

    The variation's form jets and per-node arrays are block-sized and freed
    when it returns, so the next variation reuses their heap pages.  On the
    default 102,400-node suite, whole-grid per-variation arrays took 106k minor
    page faults against 20k and 0.29 s of system time against 0.11 s, and
    holding every block's ``VariationData`` took 115k faults.
    """
    # every route refuses off criticality; refuse before forming V, which needs
    # a Lagrangian chart
    require_soliton(block)
    data, weight = prepare_variation(block, theta), block.pg.area_weight
    sums = {name: block.grid.row_sums(route(block, data) * weight) for name, route in ROUTES.items()}
    sums["fd"] = second_variation_fd_oracle(block, data, fd_steps)
    sums["lagrangian_defect"] = np.array([data.defect])
    return sums


def run_variation_suite(
    blocks: Iterable[GridGeometry],
    variations: list[tuple[int | None, OneFormField]],
    fd_steps: tuple[float, float] = DEFAULT_FD_STEPS,
    workers: int = 1,
) -> list[VariationReport]:
    """Evaluate each ``(seed, theta)`` of ``variations`` over the row blocks of one grid.

    ``blocks`` is the walk :func:`stability.grid_blocks`, or any sequence of
    geometries that cover a grid's rows in order.  Geometry blocks are outer
    and variations inner: each block's geometry is formed once, every
    variation runs on it, and it is dropped before the next is built, so no
    geometry of the whole grid is held.  Only row sums are kept: the functional
    at rest, and per variation 7 floats per x-row and its defect per block.
    The reports are assembled after the walk, each integral adding its row
    sums once, by ``quadrature.total``, as ``QuadratureGrid.integrate`` does, so
    no value depends on the block size.

    A variation that fails on a block does not pre-empt the walk's own errors:
    the rest of the blocks are built first, so a later block's refusal or chart
    error is raised, as it was when the whole grid was built before any
    variation ran, and the variation's error only if the walk ends cleanly.

    With ``workers > 1`` the variations of each block run on one thread pool;
    results keep the order of ``variations`` either way.
    """
    thetas = [theta for _, theta in variations]
    at_rest, sums = np.empty(0), [{} for _ in variations]
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        run = pool.map if pool else map
        for block in blocks:
            at_rest = np.append(at_rest, block.grid.row_sums(block.pg.area_weight))
            each = partial(evaluate_variation, block, fd_steps=fd_steps)
            try:
                block_sums = list(run(each, thetas))
            except Exception:
                del block, each
                for _ in blocks:  # a later block's refusal wins, as when the grid came first
                    pass
                raise
            sums = [_join(old, new) for old, new in zip(sums, block_sums)]
            chart, grid = block.chart.name, block.grid.describe()  # a row block keeps its grid's box
            del block, each, block_sums  # drop this block's geometry before the next is built
    F = total(at_rest)
    return [
        _report(chart, grid, F, seed, theta.kind, rows, fd_steps)
        for (seed, theta), rows in zip(variations, sums)
    ]


def _join(sums: dict[str, np.ndarray], block_sums: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """A variation's row sums so far with the next block's joined on along the last axis."""
    if not sums:
        return block_sums
    return {name: np.concatenate([sums[name], value], axis=-1) for name, value in block_sums.items()}


def _report(chart, grid, F, seed, kind, sums, fd_steps) -> VariationReport:
    """One variation's report from its row sums over the whole grid."""
    defect = float(np.max(sums["lagrangian_defect"]))  # np.max keeps a NaN
    warn_if_not_closed(defect)
    integral = {name: total(sums[name]) for name in ROUTES}
    op, dv, sq, scale = (integral[name] for name in ("Fpp_operator", "Fpp_divergence", "Fpp_square", "scale"))
    fd = fd_second_difference([total(rows) for rows in sums["fd"]], fd_steps)
    denom = scale if scale > 0 else 1.0
    pairwise = max(abs(op - dv), abs(op - sq), abs(dv - sq)) / denom
    fd_rel = max(abs(fd - op), abs(fd - dv), abs(fd - sq)) / denom
    return VariationReport(
        chart=chart,
        seed=seed,
        kind=kind,
        grid=grid,
        F_value=F,
        Fpp_fd=fd,
        lagrangian_defect=defect,
        max_pairwise_rel_diff=pairwise,
        fd_rel_diff=fd_rel,
        **integral,
    )


def reports_to_json(reports, extra: dict | None = None) -> str:
    payload = reports if extra is None else {"summary": extra, "reports": reports}
    return json.dumps(_plain(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def reports_to_csv(reports) -> str:
    """:data:`CSV_COLUMNS` (floats by ``repr``), then each ``extra`` key the reports carry."""
    extras = list(dict.fromkeys(key for r in reports for key in r.extra))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS + extras)
    for r in reports:
        routes = (r.Fpp_operator, r.Fpp_divergence, r.Fpp_square, r.Fpp_fd)
        floats = (r.lagrangian_defect, *routes, r.max_pairwise_rel_diff, r.scale, r.fd_rel_diff)
        writer.writerow([r.chart, r.seed, *map(repr, floats), *(r.extra.get(key, "") for key in extras)])
    return buf.getvalue()


def _plain(obj, key: str = ""):
    """Recursively convert reports (by ``to_dict``) and numpy scalars/arrays for json
    serialization; a float that is not finite raises EvaluationError naming its dotted ``key``."""
    if hasattr(obj, "to_dict"):
        obj = obj.to_dict()
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
