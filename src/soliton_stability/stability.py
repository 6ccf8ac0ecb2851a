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
(:func:`prepare_variation`) that returns its integrand at the block's nodes.
``reports.evaluate_variation`` weights each by ``PointGeometry.area_weight`` and
takes its row sums, and ``reports.run_variation_suite`` runs every variation
on each block as the walk reaches it, then adds each route's row sums once, by
``quadrature.total``, so no value depends on the block size.

The straight-line flow is justified exactly at critical points, where the
second derivative of F depends only on the first-order variation field; off
critical points the fd route is meaningless.  So :func:`grid_blocks`, the one
place the criticality tolerance is read, certifies the whole grid by the
order-2 certificate walk before it builds any block: it refuses a grid with a
node whose translator residual exceeds the tolerance, naming the largest
residual, and a grid that is not Lagrangian, where V = J theta^sharp is not
normal.  No route or block checks again.

The drift term reads ``<T, grad V_i>`` as the covariant derivative of theta
along the tangential part of T, evaluated on the frame; the fd oracle is the
arbiter for that reading and validates it in the test suite.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .charts import Chart, require_lagrangian_dims
from .errors import NotASolitonError
from .geometry import LAGRANGIAN_DETECT_TOL, PointGeometry, batch_det, grid_maxima, point_geometry
from .geometry import soliton_certificates, translator_defect, weighted_area_density
from .quadrature import QuadratureGrid
from .variations import (
    OneFormField,
    covariant_calculus,
    lagrangian_defect,
    normal_field_from_form,
    require_lagrangian,
    variation_field_jets,
)

log = logging.getLogger("soliton_stability")

__all__ = [
    "GridGeometry",
    "grid_geometry",
    "grid_blocks",
    "VariationData",
    "prepare_variation",
    "first_variation",
    "second_variation_operator",
    "second_variation_divergence",
    "second_variation_square",
    "second_variation_fd_oracle",
    "fd_second_difference",
    "warn_if_not_closed",
    "variation_scale",
    "DEFAULT_SOLITON_TOL",
    "DEFAULT_FD_STEPS",
    "DEFAULT_CLOSED_TOL",
]

DEFAULT_SOLITON_TOL = 1e-8
DEFAULT_FD_STEPS = (2e-3, 1e-3)
DEFAULT_CLOSED_TOL = 1e-9

@dataclass
class GridGeometry:
    """What the routes read on a tensor grid, node axis last: the point geometry, ``T^perp - H``
    (m, N) and its largest norm.  The grid is a row block of a quadrature grid on the walk of
    :func:`grid_blocks`, or a whole one."""

    chart: Chart
    grid: QuadratureGrid
    pg: PointGeometry
    translator_defect: np.ndarray
    soliton_residual: float


def grid_geometry(chart: Chart, T, grid: QuadratureGrid) -> GridGeometry:
    """The geometry of the tensor grid ``grid``, built at once.

    On a Lagrangian grid it forms the frame components ``h3`` of the second
    fundamental form and drops the normal frame they are formed from.
    """
    pg = point_geometry(chart, T, grid)
    pg.T_coord  # the operator and square routes read it
    defect = translator_defect(pg)
    if pg.lagrangian:
        pg.h3
        del pg.nu
    resid = float(np.max(np.linalg.norm(defect, axis=0)))
    return GridGeometry(chart, grid, pg, defect, resid)


def grid_blocks(
    chart: Chart, T, grid: QuadratureGrid, soliton_tol: float = DEFAULT_SOLITON_TOL
) -> Iterator[GridGeometry]:
    """Certify ``grid``, then yield the :func:`grid_geometry` of each of its row blocks
    (:meth:`QuadratureGrid.blocks`), in node order, each built when the walk reaches it; the
    walk drops each block before it builds the next.

    Every refusal comes before any block is built.  A chart whose dimensions no
    Lagrangian chart has is refused by :func:`charts.require_lagrangian_dims`.
    Then the order-2 certificate walk (:func:`geometry.grid_maxima` over
    :func:`geometry.soliton_certificates`) raises any chart error of order 2,
    refuses with NotASolitonError, naming the grid-wide residual, if some node's
    exceeds ``soliton_tol``, and else with :func:`require_lagrangian`'s
    UnsupportedChartError unless the largest Kaehler pullback is below
    ``LAGRANGIAN_DETECT_TOL``.  A NaN residual is no refusal by itself, but the
    maximum keeps it.
    """
    require_lagrangian_dims(chart)

    def certificates(pg, block):
        residual, pullback = soliton_certificates(pg, block)
        return residual, residual > soliton_tol, pullback

    residual, off, pullback = grid_maxima(chart, T, grid, certificates)
    if off:  # decided node by node, as the maximum keeps a NaN that may hide a node over the tolerance
        raise NotASolitonError(residual, soliton_tol)
    require_lagrangian(pullback < LAGRANGIAN_DETECT_TOL)
    for part in grid.blocks():
        yield grid_geometry(chart, T, part)


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
    """d/ds of box-local F, the pairing  int <T^perp - H, V> w dmu: its integrand."""
    return np.einsum("pn,pn->n", block.translator_defect, data.v)


def variation_scale(block: GridGeometry, data: VariationData) -> np.ndarray:
    """Size of the variation,  int (|theta|_g^2 + |nabla theta|_g^2) w dmu: its integrand.

    Used as the denominator of all relative agreement tolerances so that tiny
    fields cannot pass checks by accident.
    """
    return np.einsum("an,an->n", _sharp(block.pg, data.theta), data.theta) + data.nabla_sq


def second_variation_operator(block: GridGeometry, data: VariationData) -> np.ndarray:
    """Second-order route through the rough Laplacian of theta: its integrand.

    The curvature term is assembled from the frame components h_ijk, pairing
    the variation against itself through the full second fundamental form.
    """
    pg = block.pg
    drift = np.einsum("cn,cbn->bn", pg.T_coord, data.nabla)
    pair = np.einsum("an,an->n", _sharp(pg, data.theta), data.laplacian + drift)
    v_frame = np.einsum("ain,an->in", pg.frame_coeff, data.theta)
    h_v = np.einsum("klpn,pn->kln", pg.h3, v_frame)
    return -(pair + np.einsum("kln,kln->n", h_v, h_v))


def second_variation_divergence(block: GridGeometry, data: VariationData) -> np.ndarray:
    """First-order route,  int (|nabla theta|^2 - |h paired with V|^2) w dmu: its integrand.

    The curvature term pairs the ambient Hessian d_a d_b Phi with the ambient
    variation field, independent of the frame route used by the operator form;
    that pairing is <h_ab, V> only because V = J theta^sharp is normal.
    """
    h_v = np.einsum("mabn,mn->abn", block.pg.hessian, data.v)
    return data.nabla_sq - _metric_square(block.pg, h_v)


def second_variation_square(block: GridGeometry, data: VariationData) -> np.ndarray:
    """Perfect-square route,  int (div theta^sharp + theta(T^top))^2 w dmu: its integrand.

    Nonnegative by construction.  Equals the other routes only for closed
    theta; ``evaluate_variation`` logs :func:`warn_if_not_closed` once per variation
    instead of refusing, because the mismatch for non-closed forms is itself a
    test subject.
    """
    q = data.div + np.einsum("an,an->n", data.theta, block.pg.T_coord)
    return q * q


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
    deformed charts; an overflow there is a NaN that the report names, not a warning.
    """
    pg = block.pg
    cross, quad = _deformation(pg, data.theta, data.dtheta)

    def density(s):
        det = batch_det(pg.g + s * cross + (s * s) * quad)
        return weighted_area_density(pg.T, pg.positions + s * data.v, det)

    rest = 2 * pg.area_weight
    with np.errstate(over="ignore", invalid="ignore"):
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
