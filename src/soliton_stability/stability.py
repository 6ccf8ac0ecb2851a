"""Weighted-area functional and its first/second variations by several routes.

The functional is ``F = integral of exp(<T, x>) d(area)``.  On a noncompact
chart only box-local values are finite, and since all variations here are
compactly supported, box-local values carry the full variational content:
everything outside the support box is constant along the deformation.

Second variation of F at a critical point (translator), for a variation with
associated one-form theta, by four routes:

* ``operator``    second-order route: pairs theta against the rough Laplacian
                  plus drift and curvature terms,
                  -int( <theta, lap theta + grad_{T^top} theta>_g + |h . V|^2 ) w dmu
* ``divergence``  first-order route after integration by parts,
                  int( |nabla theta|_g^2 - |h . V|^2 ) w dmu
* ``square``      the perfect-square route, valid for closed theta,
                  int( div theta^sharp + theta(T^top) )^2 w dmu  >= 0
* ``fd``          Richardson-extrapolated second difference of the box-local
                  functional along the straight-line flow Phi + s V.  Each
                  step re-integrates the exact metric of the deformed chart,
                  g(s) = g + s C + s^2 Q with C = t^T dV + dV^T t and
                  Q = dV^T dV (t the tangents, dV the derivative of V).  C,
                  Q and the weighted-area densities rho(s) of the four steps
                  are formed one row block at a time and paired, node by
                  node, into the second differences
                  rho(h) - 2 rho(0) + rho(-h), whose row sums the block hands
                  back; :func:`fd_second_difference` divides the two grid
                  totals by h^2 and extrapolates.  Differencing before
                  summing keeps the sums' rounding out of the 1/h^2
                  amplification.  It uses no covariant or
                  second-fundamental-form quantity.

The quadrature grid is walked one row block at a time (:func:`grid_blocks`, over
:meth:`QuadratureGrid.blocks`, the one cut of a grid), and each block's
geometry (:class:`GridGeometry`) is built once and dropped before the next.
Each route is a function of one block and the variation's data there
(:func:`prepare_variation`) that returns the block's row sums
(:meth:`QuadratureGrid.row_sums`).  ``reports.evaluate_variation`` runs every
route on one block, and ``reports.run_variation_suite`` runs every variation
on each block as the walk reaches it, then adds each route's row sums once, by
``quadrature.total``, so no value depends on the block size.

The straight-line flow is justified exactly at critical points, where the
second derivative of F depends only on the first-order variation field; off
critical points the fd route is meaningless, so ``evaluate_variation`` refuses
every route on a block whose translator residual exceeds
``GridGeometry.soliton_tol``, and the walk refuses the whole grid, naming its
largest residual.  The criticality tolerance is set once, in
:func:`grid_blocks`, which hands it to each block's :func:`grid_geometry`.

The drift term reads ``<T, grad V_i>`` as the covariant derivative of theta
along the tangential part of T, evaluated on the frame; the fd oracle is the
arbiter for that reading and validates it in the test suite.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .charts import Chart
from .errors import NotASolitonError
from .geometry import PointGeometry, batch_det, point_geometry, translator_defect
from .quadrature import QuadratureGrid, tensor_rule
from .variations import (
    OneFormField,
    covariant_calculus,
    lagrangian_defect,
    normal_field_from_form,
    require_lagrangian,
    require_support_inside,
    variation_field_jets,
)

log = logging.getLogger("soliton_stability")

__all__ = [
    "GridGeometry",
    "grid_geometry",
    "grid_blocks",
    "VariationData",
    "prepare_variation",
    "require_soliton",
    "first_variation",
    "second_variation_operator",
    "second_variation_divergence",
    "second_variation_square",
    "second_variation_fd_oracle",
    "fd_second_difference",
    "warn_if_not_closed",
    "variation_scale",
    "default_grid_for_support",
    "DEFAULT_SOLITON_TOL",
    "DEFAULT_FD_STEPS",
    "DEFAULT_CLOSED_TOL",
]

DEFAULT_SOLITON_TOL = 1e-8
DEFAULT_FD_STEPS = (2e-3, 1e-3)
DEFAULT_CLOSED_TOL = 1e-9

@dataclass
class GridGeometry:
    """What the routes read on a tensor grid, node axis last: the point geometry with the
    traces the routes read formed once and the construction intermediates dropped,
    ``T^perp - H`` (m, N), ``exp(<T, Phi>) sqrt(det g)`` (N,), the largest |T^perp - H| on
    the grid and the tolerance :func:`require_soliton` judges it by.  The grid is a row block
    of a quadrature grid on the walk of :func:`grid_blocks`, or a whole one."""

    chart: Chart
    grid: QuadratureGrid
    pg: PointGeometry
    translator_defect: np.ndarray
    area_weight: np.ndarray
    soliton_residual: float
    soliton_tol: float


def grid_geometry(
    chart: Chart, T, grid: QuadratureGrid, soliton_tol: float = DEFAULT_SOLITON_TOL
) -> GridGeometry:
    """The geometry of the tensor grid ``grid``, built at once.

    On a Lagrangian grid it forms the frame components ``h3`` of the second
    fundamental form and drops the normal frame they are formed from.
    """
    pg = point_geometry(chart, T, grid.nodes)
    defect = translator_defect(pg)  # forms T_coord
    w = _weighted_area_density(pg.T, pg.positions, pg.g)
    pg.dg_inv, pg.K, pg.P, pg.frame_coeff  # what the routes read
    pg.sqrt_det_g = pg.dg = pg.Gamma_partial = pg.weight = None
    if pg.lagrangian:
        pg.h3
        del pg.nu
    resid = float(np.max(np.linalg.norm(defect, axis=0)))
    return GridGeometry(chart, grid, pg, defect, w, resid, soliton_tol)


def grid_blocks(
    chart: Chart, T, grid: QuadratureGrid, soliton_tol: float = DEFAULT_SOLITON_TOL
) -> Iterator[GridGeometry]:
    """The :func:`grid_geometry` of each row block of ``grid`` (:meth:`QuadratureGrid.blocks`),
    in node order, each built when the walk reaches it; the walk drops each block before it
    builds the next.

    A block is yielded only while every block so far is Lagrangian and within
    ``soliton_tol``.  After the first that is not, the rest are still built for
    the grid-wide residual, and the walk ends by refusing the grid: with
    NotASolitonError naming that residual if some block's exceeds ``soliton_tol``
    (a NaN residual is no refusal by itself, but the maximum keeps it), else
    with :func:`require_lagrangian`'s UnsupportedChartError.
    """
    residuals, lagrangian, off = [], True, False
    for part in grid.blocks():
        block = grid_geometry(chart, T, part, soliton_tol)
        residuals.append(block.soliton_residual)
        lagrangian = lagrangian and block.pg.lagrangian
        off = off or block.soliton_residual > soliton_tol
        if lagrangian and not off:
            yield block
        del block
    if off:  # the grid-wide maximum, by np.max, which keeps a NaN another block may hold
        raise NotASolitonError(float(np.max(residuals)), soliton_tol)
    require_lagrangian(lagrangian)


def _weighted_area_density(T: np.ndarray, values, g) -> np.ndarray:
    """exp(<T, x>) sqrt(det g) at positions ``values`` (m, N) with metric ``g`` (d, d, N)."""
    return np.exp(np.einsum("p,pn->n", T, values)) * np.sqrt(batch_det(g))


def _deformation(pg: PointGeometry, theta: np.ndarray, dtheta: np.ndarray):
    """The two pieces of the metric of the chart  Phi + s V  at pg's points.

    With tangents t and dV the derivative of V, the deformed tangents are
    t + s dV, so the metric is exactly  g(s) = g + s C + s^2 Q  with
    C = t^T dV + (t^T dV)^T  and  Q = dV^T dV.  Returns ``(C, Q)``.
    """
    v_d1 = variation_field_jets(theta, dtheta, pg)
    t_dv = np.einsum("man,mbn->abn", pg.tangents, v_d1)
    quad = np.einsum("man,mbn->abn", v_d1, v_d1)
    return t_dv + t_dv.swapaxes(0, 1), quad


def require_soliton(gg: GridGeometry) -> None:
    """Refuse with NotASolitonError when the grid's translator residual exceeds ``gg.soliton_tol``."""
    if gg.soliton_residual > gg.soliton_tol:
        raise NotASolitonError(gg.soliton_residual, gg.soliton_tol)


@dataclass
class VariationData:
    """One variation evaluated once at a block's nodes, shared by all routes (node axis last)."""

    theta: np.ndarray        # (d, N) theta_a
    dtheta: np.ndarray       # (d, d, N) partial_c theta_a at [a, c]
    nabla: np.ndarray        # (d, d, N) (nabla_a theta)_b at [a, b]
    div: np.ndarray          # (N,) g^{ab} nabla_a theta_b, the divergence of theta^sharp
    laplacian: np.ndarray    # (d, N) rough Laplacian of theta
    nabla_sq: np.ndarray     # (N,) |nabla theta|_g^2
    v: np.ndarray            # (m, N) normal field V = J theta^sharp
    defect: float            # max |partial_a theta_b - partial_b theta_a|


def prepare_variation(block: GridGeometry, theta: OneFormField) -> VariationData:
    """Form jets on the block's sub-grid, covariant derivatives, |nabla theta|_g^2, V and the
    closedness defect there, once."""
    fj = theta.eval_jets(block.grid, order=2)
    pg = block.pg
    nabla, div, laplacian = covariant_calculus(fj.val, fj.d1, fj.d2, pg)
    nabla_sq, v = _metric_square(pg, nabla), normal_field_from_form(fj.val, pg)
    return VariationData(fj.val, fj.d1, nabla, div, laplacian, nabla_sq, v, lagrangian_defect(fj.d1))


def _sharp(pg: PointGeometry, form: np.ndarray) -> np.ndarray:
    """Raised index  g^{ab} form_b  of a one-form at each point."""
    return np.einsum("abn,bn->an", pg.g_inv, form)


def _metric_square(pg: PointGeometry, tensor: np.ndarray) -> np.ndarray:
    """|tensor|_g^2 = g^{ac} g^{bd} tensor_ab tensor_cd of a covariant 2-tensor.

    Raised on both indices, one at a time, then paired with itself.
    """
    raised = np.einsum("acn,cdn->adn", pg.g_inv, tensor)
    raised = np.einsum("adn,dbn->abn", raised, pg.g_inv)
    return np.einsum("abn,abn->n", raised, tensor)


def first_variation(block: GridGeometry, data: VariationData) -> np.ndarray:
    """d/ds of box-local F, the pairing  int <T^perp - H, V> w dmu: the block's row sums."""
    integrand = np.einsum("pn,pn->n", block.translator_defect, data.v)
    return block.grid.row_sums(integrand * block.area_weight)


def variation_scale(block: GridGeometry, data: VariationData) -> np.ndarray:
    """Size of the variation,  int (|theta|_g^2 + |nabla theta|_g^2) w dmu: the block's row sums.

    Used as the denominator of all relative agreement tolerances so that tiny
    fields cannot pass checks by accident.
    """
    theta_sq = np.einsum("an,an->n", _sharp(block.pg, data.theta), data.theta)
    return block.grid.row_sums((theta_sq + data.nabla_sq) * block.area_weight)


def second_variation_operator(block: GridGeometry, data: VariationData) -> np.ndarray:
    """Second-order route through the rough Laplacian of theta: the block's row sums.

    The curvature term is assembled from the frame components h_ijk, pairing
    the variation against itself through the full second fundamental form.
    """
    pg = block.pg
    drift = np.einsum("cn,cbn->bn", pg.T_coord, data.nabla)
    pair = np.einsum("an,an->n", _sharp(pg, data.theta), data.laplacian + drift)
    v_frame = np.einsum("ain,an->in", pg.frame_coeff, data.theta)
    h_v = np.einsum("klpn,pn->kln", pg.h3, v_frame)
    return -block.grid.row_sums((pair + np.einsum("kln,kln->n", h_v, h_v)) * block.area_weight)


def second_variation_divergence(block: GridGeometry, data: VariationData) -> np.ndarray:
    """First-order route,  int (|nabla theta|^2 - |h paired with V|^2) w dmu: the block's row sums.

    The curvature term here goes through the ambient-valued second
    fundamental form and the ambient variation field, independent of the
    frame route used by the operator form.
    """
    h_v = np.einsum("mabn,mn->abn", block.pg.h_coord, data.v)
    return block.grid.row_sums((data.nabla_sq - _metric_square(block.pg, h_v)) * block.area_weight)


def second_variation_square(block: GridGeometry, data: VariationData) -> np.ndarray:
    """Perfect-square route,  int (div theta^sharp + theta(T^top))^2 w dmu: the block's row sums.

    Nonnegative by construction.  Equals the other routes only for closed
    theta; ``evaluate_variation`` logs :func:`warn_if_not_closed` once per variation
    instead of refusing, because the mismatch for non-closed forms is itself a
    test subject.
    """
    q = data.div + np.einsum("an,an->n", data.theta, block.pg.T_coord)
    return block.grid.row_sums(q * q * block.area_weight)


def warn_if_not_closed(defect: float) -> None:
    """Log that the square route does not apply when the grid-wide closedness defect exceeds
    ``DEFAULT_CLOSED_TOL``."""
    if defect > DEFAULT_CLOSED_TOL:
        log.warning(
            "square-form route on a non-closed form (defect %.3e > %.3e); "
            "its value will not match the other routes",
            defect,
            DEFAULT_CLOSED_TOL,
        )


def second_variation_fd_oracle(
    block: GridGeometry,
    data: VariationData,
    steps: tuple[float, float] = DEFAULT_FD_STEPS,
) -> np.ndarray:
    """The block's row sums of the second differences of the box-local functional along
    Phi + s V: ``rho(h) - 2 rho(0) + rho(-h)`` for h = h1, h2, with rho(s) the weighted-area
    density of the deformed chart, (2, rows), for :func:`fd_second_difference`.

    The block forms its metric pieces C and Q and the densities of the four
    deformed charts; rho(0) is the block's area weight.
    """
    pg = block.pg
    cross, quad = _deformation(pg, data.theta, data.dtheta)

    def density(s):
        return _weighted_area_density(pg.T, pg.positions + s * data.v, pg.g + s * cross + (s * s) * quad)

    rest = 2 * block.area_weight
    return np.stack([block.grid.row_sums(density(h) - rest + density(-h)) for h in steps])


def fd_second_difference(second_differences, steps: tuple[float, float] = DEFAULT_FD_STEPS) -> float:
    """Second derivative of the box-local functional along Phi + s V, from the grid totals of
    ``F(h) - 2 F(0) + F(-h)`` at the two steps, Richardson-extrapolated.

    Valid only at critical points, where the value depends on the variation
    field alone.
    """
    h1, h2 = steps
    d1, d2 = (diff / h**2 for diff, h in zip(second_differences, steps))
    r2 = (h1 / h2) ** 2
    return (r2 * d2 - d1) / (r2 - 1)


def default_grid_for_support(
    chart: Chart, support, cells: int = 40, points_per_cell: int = 8
) -> QuadratureGrid:
    """Quadrature grid over the (validated) support box of a variation."""
    require_support_inside(chart.domain, support)
    return tensor_rule(support, cells, points_per_cell)
