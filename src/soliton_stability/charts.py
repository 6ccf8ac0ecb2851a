"""Analytic chart patches of submanifolds of real 2n-space.

A :class:`Chart` maps a rectangular parameter box into ambient space and is
evaluated through jet arithmetic, so tangents, second fundamental data and
Christoffel derivatives downstream are exact to round-off.  The ambient space
is C^n with its standard complex structure, which :func:`apply_J` applies by
index; the translation direction T is a plain vector of length 2n.  Builtin
charts cover the test matter: the grim reaper cylinder translator, the flat
Lagrangian plane, a Lagrangian perturbation of the cylinder that is no longer
a translator, and a non-Lagrangian graph patch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import jets as J
from .errors import DomainError, EvaluationError, ExpressionError
from .expressions import compile_expression, is_finite_number, variable_names
from .quadrature import QuadratureGrid

__all__ = [
    "Chart",
    "apply_J",
    "eval_jets",
    "grim_reaper_cylinder",
    "flat_lagrangian_plane",
    "perturbed_grim_reaper",
    "non_lagrangian_patch",
    "builtin_chart",
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
# builtin charts


def grim_reaper_cylinder(delta: float = 0.1, y_extent: float = 3.0) -> Chart:
    """Product of the planar grim reaper curve (-log cos x, x) with a line.

    The x-range is truncated to [-pi/2 + delta, pi/2 - delta] because both the
    chart and the translation weight blow up at |x| = pi/2.
    """

    def mapping(params):
        x, y = params
        return [-J.log(J.cos(x)), x, y, 0.0]

    dom = np.array([[-math.pi / 2 + delta, math.pi / 2 - delta], [-y_extent, y_extent]])
    return Chart("grim_reaper", dom, 4, mapping)


def flat_lagrangian_plane(extent: float = 3.0) -> Chart:
    """The plane (x, 0, y, 0): a trivial translator for any tangent T."""

    def mapping(params):
        x, y = params
        return [x, 0.0, y, 0.0]

    dom = np.array([[-extent, extent], [-extent, extent]])
    return Chart("flat_plane", dom, 4, mapping)


def perturbed_grim_reaper(eps: float = 0.05, delta: float = 0.1, y_extent: float = 3.0) -> Chart:
    """Lagrangian perturbation of the grim reaper cylinder; not a translator.

    Generated by adding -eps*cos(x)*sin(y) to the graph potential, so the
    first ambient coordinate gains eps*sin(x)*sin(y) and the fourth becomes
    eps*cos(x)*cos(y).  Closedness of the generating form keeps the Kaehler
    pullback exactly zero for every eps.
    """

    def mapping(params):
        x, y = params
        return [
            -J.log(J.cos(x)) + eps * J.sin(x) * J.sin(y),
            x,
            y,
            eps * J.cos(x) * J.cos(y),
        ]

    dom = np.array([[-math.pi / 2 + delta, math.pi / 2 - delta], [-y_extent, y_extent]])
    return Chart(f"perturbed_grim_reaper(eps={eps})", dom, 4, mapping)


def non_lagrangian_patch(extent: float = 1.0) -> Chart:
    """Graph patch (x, y, x^2, 0); its Kaehler pullback is identically 1."""

    def mapping(params):
        x, y = params
        return [x, y, x * x, 0.0]

    dom = np.array([[-extent, extent], [-extent, extent]])
    return Chart("non_lagrangian_patch", dom, 4, mapping)


BUILTIN_CHARTS: dict[str, Callable[..., Chart]] = {
    "grim_reaper": grim_reaper_cylinder,
    "flat_plane": flat_lagrangian_plane,
    "perturbed_grim_reaper": perturbed_grim_reaper,
    "non_lagrangian_patch": non_lagrangian_patch,
}


def builtin_chart(name: str) -> Chart:
    if name not in BUILTIN_CHARTS:
        raise ExpressionError(f"unknown chart {name!r}; builtins are {sorted(BUILTIN_CHARTS)}")
    return BUILTIN_CHARTS[name]()


def chart_from_config(spec) -> Chart:
    """Build a chart from a name or an expression-tree definition.

    Expression charts are dictionaries
    ``{"name": str, "domain": [[lo, hi], ...], "components": [expr, ...]}``
    with components written in the grammar of
    :mod:`soliton_stability.expressions` over variables ``x, y`` (or
    ``u1..ud``).
    """
    if isinstance(spec, str):
        return builtin_chart(spec)
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
        raise ExpressionError("chart domain must be rows of [lo, hi] finite numbers with lo < hi")
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
    """Whether ``row`` is ``[lo, hi]`` with finite numbers lo < hi."""
    pair = isinstance(row, list) and len(row) == 2 and all(map(is_finite_number, row))
    return pair and row[0] < row[1]


def uniform_grid(chart: Chart, n: int = 50) -> QuadratureGrid:
    """Uniform interior sampling grid, ``n`` points per axis, endpoints excluded: the tensor
    grid of those axes.  Its weights are the spacing, which no diagnostic reads."""
    axes = tuple(np.linspace(lo, hi, n + 2)[1:-1] for lo, hi in chart.domain)
    spacing = tuple(np.full(n, (hi - lo) / (n + 1)) for lo, hi in chart.domain)
    return QuadratureGrid(chart.domain, n, 1, axes, spacing)
