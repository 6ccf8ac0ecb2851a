"""Analytic chart patches of submanifolds of real 2n-space.

A :class:`Chart` maps a rectangular parameter box into ambient space and is
evaluated through jet arithmetic, so tangents, second fundamental data and
Christoffel derivatives downstream are exact to round-off.  Builtin charts
cover the test matter: the grim reaper cylinder translator, the flat
Lagrangian plane, a Lagrangian perturbation of the cylinder that is no
longer a translator, and a non-Lagrangian graph patch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import jets as J
from .errors import DomainError, EvaluationError, ExpressionError
from .expressions import compile_expression, is_finite_number, variable_names

__all__ = [
    "Chart",
    "AmbientStructure",
    "MapJets",
    "standard_structure",
    "eval_jets",
    "eval_jet3",
    "finite_difference_jet",
    "fd_discrepancy",
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
    ``lagrangian`` may be pinned for builtin charts; ``None`` means "detect
    numerically from the Kaehler pullback when needed".
    """

    name: str
    domain: np.ndarray  # (d, 2) rows [lo, hi]
    ambient_dim: int
    map_jets: Callable[[Sequence[J.Jet]], Sequence]
    lagrangian: bool | None = None

    @property
    def dim(self) -> int:
        return self.domain.shape[0]

    def contains(self, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(points)
        lo = self.domain[:, 0] + margin
        hi = self.domain[:, 1] - margin
        return np.all((pts > lo) & (pts < hi), axis=1)


@dataclass(frozen=True)
class AmbientStructure:
    """Translation direction plus the constant complex structure of R^{2n}.

    ``omega(u, v) = <J u, v>`` is the Kaehler two-form; the compatibility
    ``<u, v> = omega(u, J v)`` then holds automatically for orthogonal J.
    """

    T: np.ndarray
    J: np.ndarray
    omega: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "T", np.asarray(self.T, dtype=float))
        object.__setattr__(self, "J", np.asarray(self.J, dtype=float))
        object.__setattr__(self, "omega", self.J.T.copy())
        m = self.J.shape[0]
        if self.T.shape != (m,):
            raise ValueError("T and J dimensions disagree")
        if not np.allclose(self.J @ self.J, -np.eye(m), atol=1e-14):
            raise ValueError("J^2 must equal -identity")
        if not np.allclose(self.J.T @ self.J, np.eye(m), atol=1e-14):
            raise ValueError("J must be orthogonal")


def standard_structure(n: int, T=None) -> AmbientStructure:
    """Block-diagonal complex structure of C^n acting as (a, b) -> (b, -a)."""
    m = 2 * n
    Jm = np.zeros((m, m))
    for k in range(n):
        Jm[2 * k, 2 * k + 1] = 1.0
        Jm[2 * k + 1, 2 * k] = -1.0
    if T is None:
        T = np.zeros(m)
        T[0] = 1.0
    return AmbientStructure(T=np.asarray(T, dtype=float), J=Jm)


@dataclass(frozen=True)
class MapJets:
    """Stacked ambient jets of a chart at a batch of points.

    ``val`` is ``(N, m)``; derivative axes trail: ``d1[n, p, a]`` is the
    a-th partial of ambient coordinate p, and so on.
    """

    order: int
    points: np.ndarray
    val: np.ndarray
    d1: np.ndarray
    d2: np.ndarray | None = None
    d3: np.ndarray | None = None


def eval_jets(chart: Chart, points, order: int = 3, check_domain: bool = True) -> MapJets:
    """Evaluate the chart map with exact derivatives up to ``order``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != chart.dim:
        raise DomainError(f"points have dimension {pts.shape[1]}, chart has {chart.dim}")
    if check_domain:
        inside = chart.contains(pts)
        if not np.all(inside):
            bad = pts[~inside][0]
            raise DomainError(f"point {bad.tolist()} outside open domain of chart {chart.name!r}")
    seeds = J.variables(pts, order)
    comps = list(chart.map_jets(seeds))
    if len(comps) != chart.ambient_dim:
        raise EvaluationError(
            f"chart {chart.name!r} returned {len(comps)} components, expected {chart.ambient_dim}"
        )
    comps = [
        c if isinstance(c, J.Jet) else J.constant(c, chart.dim, order, batch_shape=(pts.shape[0],))
        for c in comps
    ]
    out = MapJets(
        order,
        pts,
        np.stack([c.val for c in comps], axis=1),
        np.stack([c.d1 for c in comps], axis=1),
        np.stack([c.d2 for c in comps], axis=1) if order >= 2 else None,
        np.stack([c.d3 for c in comps], axis=1) if order >= 3 else None,
    )
    for arr in (out.val, out.d1, out.d2, out.d3):
        if arr is not None and not np.all(np.isfinite(arr)):
            raise EvaluationError(f"chart {chart.name!r} produced non-finite jet data")
    return out


def eval_jet3(chart: Chart, points) -> MapJets:
    """Third-order jets of the chart map (no finite differencing involved)."""
    return eval_jets(chart, points, order=3)


def values(chart: Chart, points, check_domain: bool = True) -> np.ndarray:
    return eval_jets(chart, points, order=1, check_domain=check_domain).val


# ---------------------------------------------------------------------------
# finite-difference oracle


def finite_difference_jet(chart: Chart, u, h: float = 1e-4) -> MapJets:
    """Central-difference jets at a single point; the test oracle for eval_jet3.

    Requires the full stencil (width 2h per axis, 4h on the pure third
    differences) to stay inside the domain.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    d = chart.dim
    lo, hi = chart.domain[:, 0], chart.domain[:, 1]
    if np.any(u - 4 * h <= lo) or np.any(u + 4 * h >= hi):
        raise DomainError("finite-difference stencil too close to the domain boundary")

    def f(*offsets):
        p = u.copy()
        for i, s in offsets:
            p[i] += s * h
        return eval_jets(chart, p[None, :], order=1, check_domain=False).val[0]

    m = chart.ambient_dim
    f0 = f()
    d1 = np.zeros((m, d))
    d2 = np.zeros((m, d, d))
    d3 = np.zeros((m, d, d, d))
    fp = [f((i, 1)) for i in range(d)]
    fm = [f((i, -1)) for i in range(d)]
    for i in range(d):
        d1[:, i] = (fp[i] - fm[i]) / (2 * h)
        d2[:, i, i] = (fp[i] - 2 * f0 + fm[i]) / h**2
        d3[:, i, i, i] = (f((i, 2)) - 2 * fp[i] + 2 * fm[i] - f((i, -2))) / (2 * h**3)
    for i in range(d):
        for j in range(i + 1, d):
            mixed = (f((i, 1), (j, 1)) - f((i, 1), (j, -1)) - f((i, -1), (j, 1)) + f((i, -1), (j, -1))) / (
                4 * h**2
            )
            d2[:, i, j] = d2[:, j, i] = mixed
    # d^2/di^2 d/dj and fully mixed third derivatives
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            diij = (
                f((i, 1), (j, 1))
                - 2 * f((j, 1))
                + f((i, -1), (j, 1))
                - f((i, 1), (j, -1))
                + 2 * f((j, -1))
                - f((i, -1), (j, -1))
            ) / (2 * h**3)
            for perm in ((i, i, j), (i, j, i), (j, i, i)):
                d3[:, perm[0], perm[1], perm[2]] = diij
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                s = np.zeros(m)
                for si in (1, -1):
                    for sj in (1, -1):
                        for sk in (1, -1):
                            s += si * sj * sk * f((i, si), (j, sj), (k, sk))
                val = s / (8 * h**3)
                for perm in ((i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)):
                    d3[:, perm[0], perm[1], perm[2]] = val
    return MapJets(3, u[None, :], f0[None, :], d1[None], d2[None], d3[None])


def fd_discrepancy(chart: Chart, u, h: float, flag_threshold: float = 1e-6):
    """Step-robustness monitor for the finite-difference oracle.

    Compares first/second-order differences at steps ``h`` and ``h/2``
    (third-order differences are excluded: their round-off floor at small
    steps would dominate the comparison).  Returns ``(discrepancy, flagged)``
    where the discrepancy is relative to the field magnitude.
    """
    a = finite_difference_jet(chart, u, h)
    b = finite_difference_jet(chart, u, h / 2)
    disc = 0.0
    for xa, xb in ((a.d1, b.d1), (a.d2, b.d2)):
        scale = 1.0 + float(np.max(np.abs(xb)))
        disc = max(disc, float(np.max(np.abs(xa - xb))) / scale)
    return disc, disc > flag_threshold


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
    return Chart("grim_reaper", dom, 4, mapping, lagrangian=True)


def flat_lagrangian_plane(extent: float = 3.0) -> Chart:
    """The plane (x, 0, y, 0): a trivial translator for any tangent T."""

    def mapping(params):
        x, y = params
        return [x, 0.0, y, 0.0]

    dom = np.array([[-extent, extent], [-extent, extent]])
    return Chart("flat_plane", dom, 4, mapping, lagrangian=True)


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
    return Chart(f"perturbed_grim_reaper(eps={eps})", dom, 4, mapping, lagrangian=True)


def non_lagrangian_patch(extent: float = 1.0) -> Chart:
    """Graph patch (x, y, x^2, 0); its Kaehler pullback is identically 1."""

    def mapping(params):
        x, y = params
        return [x, y, x * x, 0.0]

    dom = np.array([[-extent, extent], [-extent, extent]])
    return Chart("non_lagrangian_patch", dom, 4, mapping, lagrangian=False)


BUILTIN_CHARTS: dict[str, Callable[..., Chart]] = {
    "grim_reaper": grim_reaper_cylinder,
    "flat_plane": flat_lagrangian_plane,
    "perturbed_grim_reaper": perturbed_grim_reaper,
    "non_lagrangian_patch": non_lagrangian_patch,
}


def builtin_chart(name: str, **params) -> Chart:
    try:
        factory = BUILTIN_CHARTS[name]
    except KeyError:
        raise ExpressionError(
            f"unknown chart {name!r}; builtins are {sorted(BUILTIN_CHARTS)}"
        ) from None
    return factory(**params)


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

    return Chart(name, domain, len(components), mapping, lagrangian=None)


def _is_interval(row) -> bool:
    """Whether ``row`` is ``[lo, hi]`` with finite numbers lo < hi."""
    pair = isinstance(row, list) and len(row) == 2 and all(map(is_finite_number, row))
    return pair and row[0] < row[1]


def uniform_grid(chart: Chart, n: int = 50) -> np.ndarray:
    """Uniform interior sampling grid, ``n`` points per axis, endpoints excluded."""
    axes = [np.linspace(lo, hi, n + 2)[1:-1] for lo, hi in chart.domain]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)
