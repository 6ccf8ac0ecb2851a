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

The grid geometry is built one row block of the quadrature grid at a time
(:class:`GridBlock`), and each route is a function of one block and the
variation's data there (:func:`prepare_variation`) that returns the block's
row sums (:meth:`QuadratureGrid.row_sums`).  ``reports.evaluate_variation``
runs every route, and it alone: block by block, in node order, and it adds
each route's row sums once, by ``quadrature.total``, so no value depends on
the block size.

The straight-line flow is justified exactly at critical points, where the
second derivative of F depends only on the first-order variation field; off
critical points the fd route is meaningless, so ``evaluate_variation`` refuses
every route when the grid's translator residual exceeds ``GridGeometry.soliton_tol``,
the criticality tolerance, which is set once, in :func:`grid_geometry`.

The drift term reads ``<T, grad V_i>`` as the covariant derivative of theta
along the tangential part of T, evaluated on the frame; the fd oracle is the
arbiter for that reading and validates it in the test suite.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .charts import Chart
from .errors import NotASolitonError
from .geometry import PointGeometry, batch_det, point_blocks, translator_defect
from .quadrature import QuadratureGrid, tensor_rule, total
from .variations import (
    OneFormField,
    covariant_calculus,
    lagrangian_defect,
    normal_field_from_form,
    require_support_inside,
    variation_field_jets,
)

log = logging.getLogger("soliton_stability")

__all__ = [
    "GridBlock",
    "GridGeometry",
    "grid_geometry",
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
    "VARIATION_BLOCK",
]

DEFAULT_SOLITON_TOL = 1e-8
DEFAULT_FD_STEPS = (2e-3, 1e-3)
DEFAULT_CLOSED_TOL = 1e-9

# Nodes per row block of the grid geometry, rounded down to whole x-rows:
# each block holds max(1, VARIATION_BLOCK // row length) rows, cut by
# geometry.point_blocks, so a block is a tensor grid and has at least 2 nodes.
# Each block's geometry is built once, and each variation runs block by block;
# the row-sum reduction makes the block size change no output bit, so it only
# keeps the temporaries in cache.
# On a 2-vCPU VM (Python 3.11.7, numpy 2.4.6), second-variation on the perfbench
# suite2d config took 2.40 / 2.09 / 1.92 s at 4,096 / 8,192 / 16,384 nodes per
# block and peaked at 120.0 / 121.2 / 122.8 MB RSS (medians of 8 alternating
# rounds of fresh processes); 16,384 won only 5 of the 8 pairs against 8,192.
VARIATION_BLOCK = 8192


@dataclass
class GridBlock:
    """What the routes read on one row block of the grid, node axis last: the sub-grid, the
    point geometry with the traces the routes read formed once and the construction
    intermediates dropped, ``T^perp - H`` (m, N) and ``exp(<T, Phi>) sqrt(det g)`` (N,)."""

    grid: QuadratureGrid
    pg: PointGeometry
    translator_defect: np.ndarray
    area_weight: np.ndarray


@dataclass
class GridGeometry:
    """The grid's row blocks, in node order, with the translator residual, the tolerance
    :func:`require_soliton` judges it by and the functional at rest, each over the whole grid."""

    chart: Chart
    grid: QuadratureGrid
    blocks: tuple[GridBlock, ...]
    soliton_residual: float
    soliton_tol: float
    functional_at_rest: float


def _grid_block(grid: QuadratureGrid, pg: PointGeometry) -> GridBlock:
    defect = translator_defect(pg)  # forms T_coord
    w = _weighted_area_density(pg.T, pg.positions, pg.g)
    pg.dg_inv, pg.K, pg.P, pg.frame_coeff, pg.lagrangian  # what the routes read, and this block's flag
    pg.sqrt_det_g = pg.dg = pg.Gamma_partial = pg.weight = None
    return GridBlock(grid, pg, defect, w)


def grid_geometry(
    chart: Chart, T, grid: QuadratureGrid, soliton_tol: float = DEFAULT_SOLITON_TOL
) -> GridGeometry:
    """The geometry of ``grid`` one row block at a time; no whole-grid geometry is held.

    Every block carries the grid-wide Lagrangian flag, and on a Lagrangian
    chart the frame components ``h3`` of the second fundamental form, whose
    normal frame is then dropped.
    """
    per_row = grid.weights.shape[0] // grid.shape[0]
    size = max(1, VARIATION_BLOCK // per_row) * per_row
    blocks = tuple(
        _grid_block(grid.rows(rows.start // per_row, rows.stop // per_row), pg)
        for rows, pg in point_blocks(chart, T, grid.nodes, size=size)
    )
    lagrangian = all(b.pg.lagrangian for b in blocks)
    for b in blocks:
        b.pg.lagrangian = lagrangian
        if lagrangian:
            b.pg.h3
            del b.pg.nu
    resid = float(np.max([np.max(np.linalg.norm(b.translator_defect, axis=0)) for b in blocks]))
    at_rest = total(np.concatenate([b.grid.row_sums(b.area_weight) for b in blocks]))
    return GridGeometry(chart, grid, blocks, resid, soliton_tol, at_rest)


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
    """Refuse with NotASolitonError when the chart's translator residual exceeds ``gg.soliton_tol``."""
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


def prepare_variation(block: GridBlock, theta: OneFormField) -> VariationData:
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


def first_variation(block: GridBlock, data: VariationData) -> np.ndarray:
    """d/ds of box-local F, the pairing  int <T^perp - H, V> w dmu: the block's row sums."""
    integrand = np.einsum("pn,pn->n", block.translator_defect, data.v)
    return block.grid.row_sums(integrand * block.area_weight)


def variation_scale(block: GridBlock, data: VariationData) -> np.ndarray:
    """Size of the variation,  int (|theta|_g^2 + |nabla theta|_g^2) w dmu: the block's row sums.

    Used as the denominator of all relative agreement tolerances so that tiny
    fields cannot pass checks by accident.
    """
    theta_sq = np.einsum("an,an->n", _sharp(block.pg, data.theta), data.theta)
    return block.grid.row_sums((theta_sq + data.nabla_sq) * block.area_weight)


def second_variation_operator(block: GridBlock, data: VariationData) -> np.ndarray:
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


def second_variation_divergence(block: GridBlock, data: VariationData) -> np.ndarray:
    """First-order route,  int (|nabla theta|^2 - |h paired with V|^2) w dmu: the block's row sums.

    The curvature term here goes through the ambient-valued second
    fundamental form and the ambient variation field, independent of the
    frame route used by the operator form.
    """
    h_v = np.einsum("mabn,mn->abn", block.pg.h_coord, data.v)
    return block.grid.row_sums((data.nabla_sq - _metric_square(block.pg, h_v)) * block.area_weight)


def second_variation_square(block: GridBlock, data: VariationData) -> np.ndarray:
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
    block: GridBlock,
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
