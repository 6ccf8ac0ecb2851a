"""Analytic chart patches of submanifolds of real 2n-space.

A :class:`Chart` maps a rectangular parameter box into ambient space and is
evaluated through jet arithmetic, so tangents, second fundamental data and
Christoffel derivatives downstream are exact to round-off.  The ambient space
is C^n with its standard complex structure, which :func:`apply_J` applies by
index; the translation direction T is a plain vector of length 2n.  Every
chart is built by :func:`chart_from_config` from an expression spec, the
builtins included: :data:`BUILTIN_CHARTS` holds the specs of the grim reaper
cylinder translator, the flat Lagrangian plane, a Lagrangian perturbation of
the cylinder that is no longer a translator, and a non-Lagrangian graph patch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import jets as J
from .errors import DomainError, EvaluationError, ExpressionError, UnsupportedChartError
from .expressions import compile_expression, is_finite_number, variable_names
from .quadrature import QuadratureGrid

__all__ = [
    "Chart",
    "apply_J",
    "eval_jets",
    "chart_from_config",
    "BUILTIN_CHARTS",
    "uniform_grid",
]


@dataclass(frozen=True)
class Chart:
    """Parametrized patch ``map: box in R^d -> R^m`` with jet evaluation.

    ``map_jets`` receives one jet per parameter and returns the ambient
    coordinates as jets (plain numbers are accepted for constant components).
    Whether the patch is Lagrangian is detected from its Kaehler pullback
    (``PointGeometry.lagrangian``).
    """

    name: str
    domain: np.ndarray  # (d, 2) rows [lo, hi]
    ambient_dim: int
    map_jets: Callable[[Sequence[J.Jet]], Sequence]

    @property
    def dim(self) -> int:
        return self.domain.shape[0]

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points)
        return np.all((pts > self.domain[:, 0]) & (pts < self.domain[:, 1]), axis=1)


def apply_J(v: np.ndarray) -> np.ndarray:
    """The standard complex structure of C^n on axis 0 of ``v``: each coordinate
    pair ``(a, b)`` goes to ``(b, -a)``, so ``omega(u, v) = <J u, v>``."""
    out = np.empty_like(v)
    out[0::2] = v[1::2]
    np.negative(v[0::2], out=out[1::2])
    return out


def lagrangian_dims(d: int, m: int) -> bool:
    """The dimension rule of a Lagrangian chart: d parameters in C^d, so m = 2d."""
    return m == 2 * d


def require_lagrangian_dims(chart: Chart) -> None:
    """Refuse with UnsupportedChartError a chart whose dimensions no Lagrangian chart has."""
    if not lagrangian_dims(chart.dim, chart.ambient_dim):
        raise UnsupportedChartError(
            f"a Lagrangian chart has m = 2d; chart {chart.name!r} has d = {chart.dim}, m = {chart.ambient_dim}"
        )


def eval_jets(chart: Chart, points, order: int = 3) -> J.Jet:
    """The chart map's exact jets up to ``order`` at all of the points.

    Component axis first, node axis last: ``val`` (m, N), ``d1`` (m, d, N),
    ``d2`` (m, d, d, N) and ``d3`` (m, d, d, d, N).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != chart.dim:
        raise DomainError(f"points have dimension {pts.shape[1]}, chart has {chart.dim}")
    inside = chart.contains(pts)
    if not np.all(inside):
        bad = pts[~inside][0]
        raise DomainError(f"point {bad.tolist()} outside open domain of chart {chart.name!r}")
    # a domain error inside the map surfaces as the non-finite check below
    out = J.evaluate(chart.map_jets, pts, order)
    if out.val.shape[0] != chart.ambient_dim:
        raise EvaluationError(
            f"chart {chart.name!r} returned {out.val.shape[0]} components, expected {chart.ambient_dim}"
        )
    if not out.is_finite():
        bad = pts[out.first_non_finite()].tolist()
        raise EvaluationError(f"chart {chart.name!r} produced non-finite jet data at point {bad}")
    return out


# ---------------------------------------------------------------------------
# builtin charts: expression specs, each named by its key unless it names itself.
# Both grim reapers stop x 0.1 short of +-pi/2, where the chart and the translation
# weight blow up.  The perturbation adds -0.05*cos(x)*sin(y) to the cylinder's graph
# potential (the first coordinate gains 0.05*sin(x)*sin(y), the fourth becomes
# 0.05*cos(x)*cos(y)); its generating form is closed, so the Kaehler pullback stays
# exactly zero, but the chart is no longer a translator.
BUILTIN_CHARTS: dict[str, dict] = {
    "grim_reaper": {
        "domain": [[-math.pi / 2 + 0.1, math.pi / 2 - 0.1], [-3.0, 3.0]],
        "components": ["-log(cos(x))", "x", "y", "0"],
    },
    "flat_plane": {"domain": [[-3.0, 3.0], [-3.0, 3.0]], "components": ["x", "0", "y", "0"]},
    "perturbed_grim_reaper": {
        "name": "perturbed_grim_reaper(eps=0.05)",
        "domain": [[-math.pi / 2 + 0.1, math.pi / 2 - 0.1], [-3.0, 3.0]],
        "components": ["-log(cos(x)) + 0.05 * sin(x) * sin(y)", "x", "y", "0.05 * cos(x) * cos(y)"],
    },
    "non_lagrangian_patch": {"domain": [[-1.0, 1.0], [-1.0, 1.0]], "components": ["x", "y", "x * x", "0"]},
}


def chart_from_config(spec) -> Chart:
    """Build a chart from a builtin name or an expression spec, the one way to build a chart.

    A spec is a dictionary
    ``{"name": str, "domain": [[lo, hi], ...], "components": [expr, ...]}``
    with components written in the grammar of
    :mod:`soliton_stability.expressions` over variables ``x, y, z`` (or
    ``u1..ud``).  A name is a key of :data:`BUILTIN_CHARTS`, whose spec is
    compiled the same way.
    """
    if isinstance(spec, str):
        if spec not in BUILTIN_CHARTS:
            raise ExpressionError(f"unknown chart {spec!r}; builtins are {sorted(BUILTIN_CHARTS)}")
        spec = {"name": spec, **BUILTIN_CHARTS[spec]}
    if not isinstance(spec, dict):
        raise ExpressionError("chart spec must be a name or a mapping")
    for key in spec:
        if key not in ("name", "domain", "components"):
            raise ExpressionError(f"unknown chart key {key!r}")
    try:
        rows, components = spec["domain"], spec["components"]
    except KeyError as exc:
        raise ExpressionError(f"chart spec missing key {exc}") from None
    if not (isinstance(rows, list) and rows and all(map(_is_interval, rows))):
        raise ExpressionError("chart domain must be rows [lo, hi], lo < hi, with lo, hi, hi - lo and lo + hi finite")
    if not (
        isinstance(components, list) and components and all(isinstance(c, str) for c in components)
    ):
        raise ExpressionError("chart components must be a non-empty list of expressions")
    if len(components) % 2 != 0:
        raise ExpressionError("ambient dimension must be even")
    name = spec.get("name", "expression_chart")
    if not isinstance(name, str):
        raise ExpressionError(f"chart name must be a string, got {name!r}")
    domain = np.asarray(rows, dtype=float)
    var_names = variable_names(len(rows))
    fns = [compile_expression(c, var_names) for c in components]

    def mapping(params):
        return [fn(*params) for fn in fns]

    return Chart(name, domain, len(components), mapping)


def _is_interval(row) -> bool:
    """Whether ``row`` is ``[lo, hi]``, finite numbers lo < hi with a finite width and midpoint."""
    if not (isinstance(row, list) and len(row) == 2 and all(map(is_finite_number, row))):
        return False
    lo, hi = map(float, row)
    return lo < hi and is_finite_number(hi - lo) and is_finite_number(lo + hi)


def uniform_grid(chart: Chart, n: int = 50) -> QuadratureGrid:
    """Uniform interior sampling grid, ``n`` points per axis, endpoints excluded: the tensor
    grid of those axes.  Its weights are the spacing, which no diagnostic reads."""
    axes = tuple(np.linspace(lo, hi, n + 2)[1:-1] for lo, hi in chart.domain)
    spacing = tuple(np.full(n, (hi - lo) / (n + 1)) for lo, hi in chart.domain)
    return QuadratureGrid(chart.domain, n, 1, axes, spacing)
