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
                  Q = dV^T dV (t the tangents, dV the derivative of V), both
                  formed once per variation; it uses no covariant or
                  second-fundamental-form quantity.

The straight-line flow is justified exactly at critical points, where the
second derivative of F depends only on the first-order variation field; off
critical points the fd route is meaningless and the analytic routes refuse.

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
from .quadrature import QuadratureGrid, tensor_rule
from .variations import (
    CovariantData,
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
    "first_variation_fd",
    "second_variation_operator",
    "second_variation_divergence",
    "second_variation_square",
    "second_variation_fd_oracle",
    "variation_scale",
    "integration_by_parts_report",
    "IntegrationByPartsReport",
    "scalar_laplacian",
    "scalar_gradient_pairing",
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
    """What the routes read at the nodes of a quadrature grid, formed once, node axis last:
    the point geometry, ``T^perp - H`` (m, N) and ``exp(<T, Phi>) sqrt(det g)`` (N,)."""

    chart: Chart
    grid: QuadratureGrid
    pg: PointGeometry
    translator_defect: np.ndarray
    area_weight: np.ndarray
    soliton_residual: float
    functional_at_rest: float


def grid_geometry(chart: Chart, T, grid: QuadratureGrid) -> GridGeometry:
    # point_geometry evaluates the chart jets itself, so it frees their third derivatives once read
    pg = point_geometry(chart, T, grid.nodes)
    defect = translator_defect(pg)
    resid = float(np.max(np.linalg.norm(defect, axis=0)))
    w = pg.weight * pg.sqrt_det_g
    return GridGeometry(chart, grid, pg, defect, w, resid, grid.integrate(w))


def _weighted_area(grid: QuadratureGrid, T: np.ndarray, values, g) -> float:
    """int exp(<T, x>) sqrt(det g) du for positions ``values`` (m, N) and metric ``g`` (d, d, N)."""
    weight = np.exp(np.einsum("p,pn->n", T, values))
    return grid.integrate(weight * np.sqrt(batch_det(g)))


def _deformation(gg: GridGeometry, data: VariationData):
    """V at the nodes and the two pieces of the metric of the chart  Phi + s V.

    With tangents t and dV the derivative of V, the deformed tangents are
    t + s dV, so the metric is exactly  g(s) = g + s C + s^2 Q  with
    C = t^T dV + (t^T dV)^T  and  Q = dV^T dV.  Returns ``(V, C, Q)``.
    """
    v_d1 = variation_field_jets(data.theta, data.dtheta, gg.pg)
    t_dv = np.einsum("man,mbn->abn", gg.pg.tangents, v_d1)
    quad = np.einsum("man,mbn->abn", v_d1, v_d1)
    return data.v, t_dv + t_dv.swapaxes(0, 1), quad


def _deformed_functional(gg: GridGeometry, deformation, s: float) -> float:
    """Box-local F of the chart  Phi + s V, re-integrated from its metric g(s)."""
    v_val, cross, quad = deformation
    g = gg.pg.g + s * cross + (s * s) * quad
    return _weighted_area(gg.grid, gg.pg.T, gg.pg.positions + s * v_val, g)


def require_soliton(gg: GridGeometry, tol: float) -> None:
    """Refuse with NotASolitonError when the chart's translator residual exceeds ``tol``."""
    if gg.soliton_residual > tol:
        raise NotASolitonError(gg.soliton_residual, tol)


@dataclass
class VariationData:
    """One variation evaluated once at the grid nodes, shared by all routes (node axis last)."""

    theta: np.ndarray        # (d, N) theta_a
    dtheta: np.ndarray       # (d, d, N) partial_c theta_a at [a, c]
    cov: CovariantData
    nabla_sq: np.ndarray     # (N,) |nabla theta|_g^2
    v: np.ndarray            # (m, N) normal field V = J theta^sharp
    defect: float            # max |partial_a theta_b - partial_b theta_a|


def prepare_variation(gg: GridGeometry, theta: OneFormField) -> VariationData:
    """Form jets, covariant derivatives, |nabla theta|_g^2, V and the closedness defect, once."""
    pg, fj = gg.pg, theta.eval_jets(gg.grid, order=2)
    cov = covariant_calculus(fj.val, fj.d1, fj.d2, pg)
    v = normal_field_from_form(fj.val, pg)
    return VariationData(fj.val, fj.d1, cov, _metric_square(pg, cov.nabla), v, lagrangian_defect(fj.d1))


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


def first_variation_fd(gg: GridGeometry, data: VariationData, step: float = 2e-3) -> float:
    """Richardson-extrapolated central difference of s -> F(Phi + s V)."""
    deformation = _deformation(gg, data)

    def central(h):
        return (
            _deformed_functional(gg, deformation, h) - _deformed_functional(gg, deformation, -h)
        ) / (2 * h)

    d1, d2 = central(step), central(step / 2)
    return (4 * d2 - d1) / 3


def variation_scale(gg: GridGeometry, data: VariationData) -> float:
    """Size of the variation:  int (|theta|_g^2 + |nabla theta|_g^2) w dmu.

    Used as the denominator of all relative agreement tolerances so that tiny
    fields cannot pass checks by accident.
    """
    pg = gg.pg
    sq_theta = np.einsum("an,an->n", _sharp(pg, data.theta), data.theta)
    return gg.grid.integrate((sq_theta + data.nabla_sq) * gg.area_weight)


def second_variation_operator(
    gg: GridGeometry, data: VariationData, soliton_tol: float = DEFAULT_SOLITON_TOL
) -> float:
    """Second-order route through the rough Laplacian of theta.

    The curvature term is assembled from the frame components h_ijk, pairing
    the variation against itself through the full second fundamental form.
    """
    require_soliton(gg, soliton_tol)
    pg = gg.pg
    theta, cov = data.theta, data.cov
    drift = np.einsum("cn,cbn->bn", pg.T_coord, cov.nabla)
    pair = np.einsum("an,an->n", _sharp(pg, theta), cov.laplacian + drift)
    v_frame = np.einsum("ain,an->in", pg.frame_coeff, theta)
    h_v = np.einsum("klpn,pn->kln", pg.h3, v_frame)
    curv = np.einsum("kln,kln->n", h_v, h_v)
    return -gg.grid.integrate((pair + curv) * gg.area_weight)


def second_variation_divergence(
    gg: GridGeometry, data: VariationData, soliton_tol: float = DEFAULT_SOLITON_TOL
) -> float:
    """First-order route:  int (|nabla theta|^2 - |h paired with V|^2) w dmu.

    The curvature term here goes through the ambient-valued second
    fundamental form and the ambient variation field, independent of the
    frame route used by the operator form.
    """
    require_soliton(gg, soliton_tol)
    pg = gg.pg
    h_v = np.einsum("mabn,mn->abn", pg.h_coord, data.v)
    curv = _metric_square(pg, h_v)
    return gg.grid.integrate((data.nabla_sq - curv) * gg.area_weight)


def second_variation_square(
    gg: GridGeometry,
    data: VariationData,
    soliton_tol: float = DEFAULT_SOLITON_TOL,
) -> float:
    """Perfect-square route:  int (div theta^sharp + theta(T^top))^2 w dmu.

    Nonnegative by construction.  Equals the other routes only for closed
    theta; a defect above ``DEFAULT_CLOSED_TOL`` logs a warning instead of
    refusing, because the mismatch for non-closed forms is itself a test
    subject.
    """
    require_soliton(gg, soliton_tol)
    defect = data.defect
    if defect > DEFAULT_CLOSED_TOL:
        log.warning(
            "square-form route on a non-closed form (defect %.3e > %.3e); "
            "its value will not match the other routes",
            defect,
            DEFAULT_CLOSED_TOL,
        )
    q = data.cov.div + np.einsum("an,an->n", data.theta, gg.pg.T_coord)
    return gg.grid.integrate(q * q * gg.area_weight)


def second_variation_fd_oracle(
    gg: GridGeometry,
    data: VariationData,
    steps: tuple[float, float] = DEFAULT_FD_STEPS,
    soliton_tol: float = DEFAULT_SOLITON_TOL,
    instability_tol: float | None = None,
) -> float:
    """Second difference of the box-local functional along Phi + s V.

    Richardson-extrapolated over the two given steps.  Valid only at critical
    points, where the value depends on the variation field alone.
    """
    require_soliton(gg, soliton_tol)
    deformation = _deformation(gg, data)
    f0 = gg.functional_at_rest

    def second_difference(h):
        return (
            _deformed_functional(gg, deformation, h)
            - 2 * f0
            + _deformed_functional(gg, deformation, -h)
        ) / h**2

    h1, h2 = steps
    d1, d2 = second_difference(h1), second_difference(h2)
    r2 = (h1 / h2) ** 2
    value = (r2 * d2 - d1) / (r2 - 1)
    if instability_tol is not None and abs(value - d2) > instability_tol:
        log.warning(
            "fd oracle extrapolation levels disagree by %.3e (> %.3e); "
            "step sizes %s may be unreliable",
            abs(value - d2),
            instability_tol,
            steps,
        )
    return value


@dataclass(frozen=True)
class IntegrationByPartsReport:
    """Both sides of the two integration-by-parts identities in the square-form proof.

    ``divergence``: moving the gradient off the divergence scalar,
    ``drift``: moving the derivative off the drift pairing (uses the
    translator identity H_p = <T, nu_p> and the symmetry of nabla theta).
    """

    lhs_divergence: float
    rhs_divergence: float
    lhs_drift: float
    rhs_drift: float

    def max_mismatch(self) -> float:
        return max(
            abs(self.lhs_divergence - self.rhs_divergence),
            abs(self.lhs_drift - self.rhs_drift),
        )


def integration_by_parts_report(gg: GridGeometry, data: VariationData) -> IntegrationByPartsReport:
    pg = gg.pg
    theta, cov = data.theta, data.cov
    w = gg.area_weight
    theta_t = np.einsum("an,an->n", theta, pg.T_coord)
    sharp = _sharp(pg, theta)
    pair_grad_div = np.einsum("an,an->n", sharp, cov.div_grad)
    lhs_div = -gg.grid.integrate(pair_grad_div * w)
    rhs_div = gg.grid.integrate((cov.div**2 + cov.div * theta_t) * w)

    drift = np.einsum("cn,cbn->bn", pg.T_coord, cov.nabla)
    lhs_drift = -gg.grid.integrate(np.einsum("an,an->n", sharp, drift) * w)
    v_frame = np.einsum("ain,an->in", pg.frame_coeff, theta)
    h_v = np.einsum("ijn,jn->in", np.einsum("ijpn,pn->ijn", pg.h3, pg.H_frame), v_frame)
    mean_curv_pair = np.einsum("in,in->n", h_v, v_frame)
    rhs_drift = gg.grid.integrate((cov.div * theta_t + mean_curv_pair + theta_t**2) * w)
    return IntegrationByPartsReport(lhs_div, rhs_div, lhs_drift, rhs_drift)


# ---------------------------------------------------------------------------
# scalar helpers (drift-divergence identity, flat-plane cross-checks)


def scalar_laplacian(pg: PointGeometry, scalar_jet) -> np.ndarray:
    """Laplace-Beltrami  g^{ab} (d_a d_b v - Gamma^l_ab d_l v)  of a scalar jet at pg's points."""
    hess = scalar_jet.d2 - np.einsum("labn,ln->abn", pg.Gamma, scalar_jet.d1)
    return np.einsum("abn,abn->n", pg.g_inv, hess)


def scalar_gradient_pairing(pg: PointGeometry, a_jet, b_jet) -> np.ndarray:
    """<grad a, grad b>_g at each point, from scalar jets at pg's points."""
    return np.einsum("abn,an,bn->n", pg.g_inv, a_jet.d1, b_jet.d1)


def default_grid_for_support(
    chart: Chart, support, cells: int = 40, points_per_cell: int = 8
) -> QuadratureGrid:
    """Quadrature grid over the (validated) support box of a variation."""
    require_support_inside(chart.domain, support)
    return tensor_rule(support, cells, points_per_cell)
