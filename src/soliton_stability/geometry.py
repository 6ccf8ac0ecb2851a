"""First/second-order geometry of a chart and global soliton diagnostics.

All quantities are computed in batch over a set of parameter points from the
exact chart jets.  Index conventions used throughout (leading axis ``n`` is
the batch):

* ``g[n, a, b]``          induced metric  <d_a Phi, d_b Phi>
* ``dg[n, c, a, b]``      partial_c g_ab
* ``ddg[n, e, c, a, b]``  partial_e partial_c g_ab
* ``Gamma[n, k, a, b]``   Christoffel symbols Gamma^k_ab of g
* ``Gamma_partial[n, e, k, a, b]``  partial_e Gamma^k_ab
* ``h_coord[n, p, a, b]`` ambient components of the second fundamental form
  (the normal projection of partial^2 Phi via the Gauss formula)
* ``frame_coeff[n, a, i]``  coefficients with e_i = frame_coeff[n, a, i] d_a Phi
* ``nu[n, p, i]``         the normal frame nu_i = J e_i (Lagrangian charts only)

The tangent frame is Gram-Schmidt of the coordinate tangents in coordinate
order (equivalently the inverse-transpose Cholesky factor of g), so it is
deterministic.  There is one normal frame, ``nu_i = J e_i``, and it exists
only on Lagrangian charts, where J maps the tangent space onto the normal
space; reading ``nu`` on any other chart raises UnsupportedChartError.  The
translator defect, the mean curvature vector and the Gauss side of the
curvature use ambient normal components, so they hold on every chart.
Frames are formed on first use, and every reported scalar is gauge
invariant.

Christoffel symbols and their derivatives are assembled intrinsically from
metric derivatives, not from ambient projections, so the curvature tensor
computed from them is genuinely independent of the second-fundamental-form
route used by the Gauss-equation cross-check.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import permutations
from typing import Any

import numpy as np

from .charts import AmbientStructure, Chart, eval_jets
from .errors import EvaluationError, ImmersionError, UnsupportedChartError
from .jets import Jet, node_blocks

__all__ = [
    "PointGeometry",
    "DiagnosticsReport",
    "batch_det",
    "point_geometry",
    "mean_curvature_vector",
    "translator_defect",
    "soliton_residual",
    "curvature_tensor",
    "kaehler_pullback",
]

RANK_TOL = 1e-8
LAGRANGIAN_DETECT_TOL = 1e-9

@dataclass
class PointGeometry:
    """All pointwise geometric data of a chart at a batch of points."""

    structure: AmbientStructure
    points: np.ndarray        # (N, d)
    tangents: np.ndarray      # (N, m, d)
    g: np.ndarray             # (N, d, d)
    g_inv: np.ndarray         # (N, d, d)
    sqrt_det_g: np.ndarray    # (N,)
    dg: np.ndarray            # (N, d, d, d)
    Gamma: np.ndarray         # (N, d, d, d)
    Gamma_partial: np.ndarray | None  # (N, d, d, d, d); None for order-2 jets
    h_coord: np.ndarray       # (N, m, d, d)
    weight: np.ndarray        # (N,) translation weight exp(<T, Phi>)
    pinned_lagrangian: bool | None  # Chart.lagrangian; None means detect

    # every property below is formed on first use; soliton_residual reads T_coord only

    @cached_property
    def lagrangian(self) -> bool:
        if self.pinned_lagrangian is not None:
            return self.pinned_lagrangian
        m, d = self.tangents.shape[1:]
        if m != 2 * d:
            return False
        defect = float(np.max(np.abs(kaehler_pullback(self.structure, self.tangents))))
        return defect < LAGRANGIAN_DETECT_TOL

    @cached_property
    def frame_coeff(self) -> np.ndarray:  # (N, d, d), upper triangular
        return np.linalg.inv(np.linalg.cholesky(self.g)).swapaxes(1, 2)

    @cached_property
    def nu(self) -> np.ndarray:  # (N, m, d) nu_i = J e_i
        if not self.lagrangian:
            raise UnsupportedChartError("the normal frame nu_i = J e_i needs a Lagrangian chart")
        e = np.einsum("nma,nai->nmi", self.tangents, self.frame_coeff)
        return np.einsum("pq,nqi->npi", self.structure.J, e)

    @cached_property
    def dg_inv(self) -> np.ndarray:  # (N, d, d, d) d_e g^kl
        return -np.einsum("nkp,nepq,nql->nekl", self.g_inv, self.dg, self.g_inv)

    @cached_property
    def T_coord(self) -> np.ndarray:  # (N, d) coordinate components of tangential T
        return np.einsum("nab,p,npb->na", self.g_inv, self.structure.T, self.tangents)

    @cached_property
    def h3(self) -> np.ndarray:  # (N, d, d, d) h_ijk
        A = self.frame_coeff
        return np.einsum("nai,nbj,nqab,nqp->nijp", A, A, self.h_coord, self.nu)

    @cached_property
    def H_frame(self) -> np.ndarray:  # (N, d)
        return np.einsum("nab,nqab,nqp->np", self.g_inv, self.h_coord, self.nu)


@dataclass
class DiagnosticsReport:
    """Grid maxima of the translator-equation residual and Kaehler pullback."""

    chart: str
    grid: dict
    max_soliton_residual: float
    max_lagrangian_defect: float

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def batch_det(a: np.ndarray) -> np.ndarray:
    """Determinants of a batch ``(..., d, d)`` of small matrices by the Leibniz sum.

    ``det a = sum over permutations p of sign(p) a[0, p0] a[1, p1] ... a[d-1, p(d-1)]``,
    with d! terms (2 at d = 2, 6 at d = 3).  For the metrics handled here this
    is one elementwise pass per term instead of a batched LU factorisation,
    and the same code path serves every dimension.
    """
    d = a.shape[-1]
    total = np.zeros(a.shape[:-2])
    for perm in permutations(range(d)):
        term = a[..., 0, perm[0]]
        for row in range(1, d):
            term = term * a[..., row, perm[row]]
        inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        total = total - term if inversions % 2 else total + term
    return total


def kaehler_pullback(structure: AmbientStructure, tangents: np.ndarray) -> np.ndarray:
    """omega(d_a Phi, d_b Phi) = <J d_a Phi, d_b Phi> as an (N, d, d) array."""
    return np.matmul(np.matmul(structure.J, tangents).swapaxes(1, 2), tangents)


def point_geometry(
    chart: Chart,
    structure: AmbientStructure,
    points,
    jets: Jet | None = None,
) -> PointGeometry:
    """Compute all pointwise geometric quantities at a batch of points.

    Pass ``jets`` to reuse a chart evaluation at ``points``; order-3 jets
    retain the Christoffel derivatives needed by curvature and rough
    Laplacians, order-2 jets leave ``Gamma_partial`` as None.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if jets is None:
        jets = eval_jets(chart, pts, order=3)
    t = jets.d1  # (N, m, d)
    d2 = jets.d2

    g = np.einsum("nma,nmb->nab", t, t)
    eigmin = np.linalg.eigvalsh(g)[:, 0]
    deficient = np.flatnonzero(eigmin <= RANK_TOL**2)
    if deficient.size:
        # name the first such point, so the message does not depend on the batch
        i = deficient[0]
        raise ImmersionError(
            f"chart {chart.name!r} is rank deficient at point {pts[i].tolist()} "
            f"(smallest singular value {float(np.sqrt(max(eigmin[i], 0.0))):.3e})"
        )
    g_inv = np.linalg.inv(g)
    sqrt_det_g = np.sqrt(batch_det(g))

    # dg[n,c,a,b] = <Phi_ac, Phi_b> + <Phi_a, Phi_bc>
    half = np.einsum("nmac,nmb->ncab", d2, t)
    dg = half + half.swapaxes(2, 3)

    # bracket[n,l,a,b] = d_a g_bl + d_b g_al - d_l g_ab
    bracket = np.einsum("nabl->nlab", dg) + np.einsum("nbal->nlab", dg) - dg
    Gamma = 0.5 * np.einsum("nkl,nlab->nkab", g_inv, bracket)

    # Gauss formula: the normal part of the coordinate Hessian of the map
    h_coord = d2 - np.einsum("nkab,nmk->nmab", Gamma, t)

    with np.errstate(over="ignore", invalid="ignore"):
        weight = np.exp(np.einsum("p,np->n", structure.T, jets.val))
    if not np.all(np.isfinite(weight)):
        raise EvaluationError(f"translation weight exp(<T, x>) overflows on chart {chart.name!r}")

    pg = PointGeometry(
        structure=structure,
        points=pts,
        tangents=t,
        g=g,
        g_inv=g_inv,
        sqrt_det_g=sqrt_det_g,
        dg=dg,
        Gamma=Gamma,
        Gamma_partial=None,
        h_coord=h_coord,
        weight=weight,
        pinned_lagrangian=chart.lagrangian,
    )
    if jets.order >= 3:
        d3 = jets.d3
        # ddg[n,e,c,a,b] = d_e d_c g_ab, by Leibniz on <Phi_ac, Phi_b> + <Phi_a, Phi_bc>
        ddg = (
            np.einsum("nmace,nmb->necab", d3, t)
            + np.einsum("nmac,nmbe->necab", d2, d2)
            + np.einsum("nmae,nmbc->necab", d2, d2)
            + np.einsum("nma,nmbce->necab", t, d3)
        )
        dbracket = (
            np.einsum("neabl->nelab", ddg) + np.einsum("nebal->nelab", ddg) - ddg
        )
        pg.Gamma_partial = 0.5 * (
            np.einsum("nekl,nlab->nekab", pg.dg_inv, bracket)
            + np.einsum("nkl,nelab->nekab", g_inv, dbracket)
        )
    return pg


def mean_curvature_vector(pg: PointGeometry) -> np.ndarray:
    """Ambient mean curvature H = g^{ab} (d^2 Phi)^perp_ab, shape (N, m)."""
    return np.einsum("nab,nmab->nm", pg.g_inv, pg.h_coord)


def translator_defect(pg: PointGeometry) -> np.ndarray:
    """The translator-equation field T^perp - H, shape (N, m); zero on a translator.

    T^perp = T - d_a Phi T^a, with T^a = g^ab <T, d_b Phi> the tangential part.
    """
    t_perp = pg.structure.T[None, :] - np.einsum("npa,na->np", pg.tangents, pg.T_coord)
    return t_perp - mean_curvature_vector(pg)


def soliton_residual(chart: Chart, structure: AmbientStructure, grid) -> DiagnosticsReport:
    """Grid maxima of |T^perp - H| and of the Kaehler pullback.

    A vanishing residual certifies the translator equation; the pullback
    certifies the Lagrangian condition.  The points run in blocks of
    :func:`node_blocks`, so memory is bounded at any grid size; only the
    per-block maxima are kept, and ``np.max`` over them keeps a NaN.
    """
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    resid, defect = [], []
    for rows in node_blocks(pts.shape[0]):
        pg = point_geometry(chart, structure, pts[rows], jets=eval_jets(chart, pts[rows], order=2))
        resid.append(np.max(np.linalg.norm(translator_defect(pg), axis=1)))
        defect.append(np.max(np.abs(kaehler_pullback(structure, pg.tangents))))
    return DiagnosticsReport(
        chart=chart.name,
        grid={"kind": "points", "count": int(pts.shape[0])},
        max_soliton_residual=float(np.max(resid)),
        max_lagrangian_defect=float(np.max(defect)),
    )


def curvature_tensor(pg: PointGeometry):
    """Riemann tensor by two routes plus the Ricci tensor, all frame-valued.

    Returns ``(riem_intrinsic, riem_gauss, ricci)`` where

    * ``riem_intrinsic`` comes from Christoffel symbols and their derivatives
      (metric data only),
    * ``riem_gauss`` is assembled from the ambient second fundamental form
      h_ij = h(e_i, e_j) via the Gauss equation
      R_ijkl = <h_ik, h_jl> - <h_il, h_jk>,
    * ``ricci`` is its trace  R_ik = <H, h_ik> - <h_ji, h_jk>.

    The Gauss side pairs ambient normal vectors, so it needs no normal frame
    and holds on every chart.

    Index convention: ``R[n,i,j,k,l] = <R(e_i, e_j) e_l, e_k>`` with
    ``R(X,Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y]``, which makes
    the sphere direction positive and matches the Gauss form above.
    ``pg`` must come from order-3 chart jets.
    """
    if pg.Gamma_partial is None:
        raise ValueError("curvature needs order-3 jets (Gamma_partial missing)")
    G, dG = pg.Gamma, pg.Gamma_partial
    # R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
    r_up = (
        np.einsum("niljk->nlijk", dG)
        - np.einsum("njlik->nlijk", dG)
        + np.einsum("nlim,nmjk->nlijk", G, G)
        - np.einsum("nljm,nmik->nlijk", G, G)
    )
    r_coord = np.einsum("nkm,nmijl->nijkl", pg.g, r_up)
    A = pg.frame_coeff
    riem_intrinsic = np.einsum("nai,nbj,nck,ndl,nabcd->nijkl", A, A, A, A, r_coord)
    h = np.einsum("nai,nbj,nqab->nijq", A, A, pg.h_coord)
    riem_gauss = np.einsum("nikq,njlq->nijkl", h, h) - np.einsum("nilq,njkq->nijkl", h, h)
    ricci = np.einsum("nq,nikq->nik", mean_curvature_vector(pg), h) - np.einsum(
        "njiq,njkq->nik", h, h
    )
    return riem_intrinsic, riem_gauss, ricci
