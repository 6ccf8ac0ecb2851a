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
                  Q and the weighted-area densities of the four steps are
                  formed one node block at a time; each density is then
                  integrated once, over the whole grid.  It uses no
                  covariant or second-fundamental-form quantity.

The straight-line flow is justified exactly at critical points, where the
second derivative of F depends only on the first-order variation field; off
critical points the fd route is meaningless, so every route refuses when the
grid's translator residual exceeds ``GridGeometry.soliton_tol``, the criticality
tolerance, which is set once, in :func:`grid_geometry`.

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
from .geometry import PointGeometry, batch_det, point_geometry, translator_defect
from .jets import node_blocks
from .quadrature import QuadratureGrid, tensor_rule
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

# Rows per node block of the per-variation passes (prepare_variation, the
# operator and divergence routes, variation_scale and the fd oracle), cut by
# jets.node_blocks.  Each block writes its integrand into one full-length
# array that is summed once, so the block size changes no output bit; it
# keeps the temporaries in cache.
# Not jets.NODE_BLOCK: at NODE_BLOCK = 8192, verify-soliton on the perfbench
# certify config (360,000 points) peaks at 55.1 MB RSS against 47.9 MB.  On a
# 2-vCPU VM (numpy 2.4.6) the in-process 20-variation suite on the default
# 102,400-node grid took 1,564 / 1,545 / 1,542 ms at 4,096 / 8,192 / 16,384
# rows, and 1,914 ms unblocked (medians of 5 alternating rounds); larger
# blocks hold larger temporaries for no further gain.
VARIATION_BLOCK = 8192


@dataclass
class GridGeometry:
    """What the routes read at the nodes of a quadrature grid, formed once, node axis last:
    the point geometry, ``T^perp - H`` (m, N), ``exp(<T, Phi>) sqrt(det g)`` (N,),
    ``blocks``, pairs of node rows and the point geometry there, views of ``pg``, and
    the translator residual with the tolerance :func:`require_soliton` judges it by."""

    chart: Chart
    grid: QuadratureGrid
    pg: PointGeometry
    blocks: tuple[tuple[slice, PointGeometry], ...]
    translator_defect: np.ndarray
    area_weight: np.ndarray
    soliton_residual: float
    soliton_tol: float
    functional_at_rest: float


def grid_geometry(
    chart: Chart, T, grid: QuadratureGrid, soliton_tol: float = DEFAULT_SOLITON_TOL
) -> GridGeometry:
    # point_geometry evaluates the chart jets itself, so it frees their third derivatives once read
    pg = point_geometry(chart, T, grid.nodes)
    defect = translator_defect(pg)
    resid = float(np.max(np.linalg.norm(defect, axis=0)))
    w = pg.weight * pg.sqrt_det_g
    pg.lagrangian  # a grid-wide flag: formed before the blocks, which carry it over
    blocks = tuple((rows, pg.take(rows)) for rows in node_blocks(w.shape[0], VARIATION_BLOCK))
    return GridGeometry(chart, grid, pg, blocks, defect, w, resid, soliton_tol, grid.integrate(w))


def _by_block(gg: GridGeometry, fn, *arrays) -> tuple[np.ndarray, ...]:
    """``fn(pg, *array rows)`` on each node block of ``gg``, its node-last results
    written into full-length arrays, so a sum over them runs in the unblocked order."""
    out = None
    for rows, pg in gg.blocks:
        part = fn(pg, *(a[..., rows] for a in arrays))
        if out is None:
            out = tuple(np.empty(p.shape[:-1] + gg.area_weight.shape) for p in part)
        for full, p in zip(out, part):
            full[..., rows] = p
    return out


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
    """One variation evaluated once at the grid nodes, shared by all routes (node axis last)."""

    theta: np.ndarray        # (d, N) theta_a
    dtheta: np.ndarray       # (d, d, N) partial_c theta_a at [a, c]
    nabla: np.ndarray        # (d, d, N) (nabla_a theta)_b at [a, b]
    div: np.ndarray          # (N,) g^{ab} nabla_a theta_b, the divergence of theta^sharp
    laplacian: np.ndarray    # (d, N) rough Laplacian of theta
    nabla_sq: np.ndarray     # (N,) |nabla theta|_g^2
    v: np.ndarray            # (m, N) normal field V = J theta^sharp
    defect: float            # max |partial_a theta_b - partial_b theta_a|


def _node_data(pg: PointGeometry, theta, dtheta, ddtheta):
    """One block's covariant derivatives, |nabla theta|_g^2 and V, from the form's jets there."""
    nabla, div, laplacian = covariant_calculus(theta, dtheta, ddtheta, pg)
    return nabla, div, laplacian, _metric_square(pg, nabla), normal_field_from_form(theta, pg)


def prepare_variation(gg: GridGeometry, theta: OneFormField) -> VariationData:
    """Form jets, covariant derivatives, |nabla theta|_g^2, V and the closedness defect, once.

    The form jets are one evaluation on the whole grid; the rest runs in node blocks.
    """
    fj = theta.eval_jets(gg.grid, order=2)
    per_node = _by_block(gg, _node_data, fj.val, fj.d1, fj.d2)
    return VariationData(fj.val, fj.d1, *per_node, lagrangian_defect(fj.d1))


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


def first_variation(gg: GridGeometry, data: VariationData) -> float:
    """d/ds of box-local F: the pairing  int <T^perp - H, V> w dmu."""
    integrand = np.einsum("pn,pn->n", gg.translator_defect, data.v)
    return gg.grid.integrate(integrand * gg.area_weight)


def variation_scale(gg: GridGeometry, data: VariationData) -> float:
    """Size of the variation:  int (|theta|_g^2 + |nabla theta|_g^2) w dmu.

    Used as the denominator of all relative agreement tolerances so that tiny
    fields cannot pass checks by accident.
    """

    def density(pg, theta, nabla_sq, w):
        return ((np.einsum("an,an->n", _sharp(pg, theta), theta) + nabla_sq) * w,)

    (integrand,) = _by_block(gg, density, data.theta, data.nabla_sq, gg.area_weight)
    return gg.grid.integrate(integrand)


def second_variation_operator(gg: GridGeometry, data: VariationData) -> float:
    """Second-order route through the rough Laplacian of theta.

    The curvature term is assembled from the frame components h_ijk, pairing
    the variation against itself through the full second fundamental form.
    """
    require_soliton(gg)

    def density(pg, theta, nabla, laplacian, w):
        drift = np.einsum("cn,cbn->bn", pg.T_coord, nabla)
        pair = np.einsum("an,an->n", _sharp(pg, theta), laplacian + drift)
        v_frame = np.einsum("ain,an->in", pg.frame_coeff, theta)
        h_v = np.einsum("klpn,pn->kln", pg.h3, v_frame)
        return ((pair + np.einsum("kln,kln->n", h_v, h_v)) * w,)

    (integrand,) = _by_block(gg, density, data.theta, data.nabla, data.laplacian, gg.area_weight)
    return -gg.grid.integrate(integrand)


def second_variation_divergence(gg: GridGeometry, data: VariationData) -> float:
    """First-order route:  int (|nabla theta|^2 - |h paired with V|^2) w dmu.

    The curvature term here goes through the ambient-valued second
    fundamental form and the ambient variation field, independent of the
    frame route used by the operator form.
    """
    require_soliton(gg)

    def density(pg, nabla_sq, v, w):
        h_v = np.einsum("mabn,mn->abn", pg.h_coord, v)
        return ((nabla_sq - _metric_square(pg, h_v)) * w,)

    (integrand,) = _by_block(gg, density, data.nabla_sq, data.v, gg.area_weight)
    return gg.grid.integrate(integrand)


def second_variation_square(gg: GridGeometry, data: VariationData) -> float:
    """Perfect-square route:  int (div theta^sharp + theta(T^top))^2 w dmu.

    Nonnegative by construction.  Equals the other routes only for closed
    theta; a defect above ``DEFAULT_CLOSED_TOL`` logs a warning instead of
    refusing, because the mismatch for non-closed forms is itself a test
    subject.
    """
    require_soliton(gg)
    defect = data.defect
    if defect > DEFAULT_CLOSED_TOL:
        log.warning(
            "square-form route on a non-closed form (defect %.3e > %.3e); "
            "its value will not match the other routes",
            defect,
            DEFAULT_CLOSED_TOL,
        )
    q = data.div + np.einsum("an,an->n", data.theta, gg.pg.T_coord)
    return gg.grid.integrate(q * q * gg.area_weight)


def second_variation_fd_oracle(
    gg: GridGeometry,
    data: VariationData,
    steps: tuple[float, float] = DEFAULT_FD_STEPS,
) -> float:
    """Second difference of the box-local functional along Phi + s V.

    Richardson-extrapolated over the two given steps.  Valid only at critical
    points, where the value depends on the variation field alone.  Each node
    block forms its metric pieces C and Q and the weighted-area densities of
    the four deformed charts; each density is integrated once, over the grid.
    """
    require_soliton(gg)
    h1, h2 = steps

    def densities(pg, theta, dtheta, v):
        cross, quad = _deformation(pg, theta, dtheta)
        return tuple(
            _weighted_area_density(pg.T, pg.positions + s * v, pg.g + s * cross + (s * s) * quad)
            for s in (h1, -h1, h2, -h2)
        )

    f0 = gg.functional_at_rest
    up1, down1, up2, down2 = map(gg.grid.integrate, _by_block(gg, densities, data.theta, data.dtheta, data.v))
    d1, d2 = (up1 - 2 * f0 + down1) / h1**2, (up2 - 2 * f0 + down2) / h2**2
    r2 = (h1 / h2) ** 2
    return (r2 * d2 - d1) / (r2 - 1)


def default_grid_for_support(
    chart: Chart, support, cells: int = 40, points_per_cell: int = 8
) -> QuadratureGrid:
    """Quadrature grid over the (validated) support box of a variation."""
    require_support_inside(chart.domain, support)
    return tensor_rule(support, cells, points_per_cell)
