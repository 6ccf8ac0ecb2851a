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
* ``e[n, p, i]`` / ``nu[n, p, i]``  orthonormal tangent / normal frames
* ``frame_coeff[n, a, i]``  coefficients with e_i = frame_coeff[n, a, i] d_a Phi

The tangent frame is Gram-Schmidt of the coordinate tangents in coordinate
order (equivalently the inverse-transpose Cholesky factor of g), so frames
are deterministic.  For Lagrangian charts the normal frame is J applied to
the tangent frame; otherwise it is a Gram-Schmidt complement built from the
ambient coordinate axes.  Frame-valued fields are gauge choices; every
reported scalar downstream is gauge invariant.

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

from .charts import AmbientStructure, Chart, MapJets, eval_jets
from .errors import EvaluationError, ImmersionError

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
    "node_blocks",
]

RANK_TOL = 1e-8
LAGRANGIAN_DETECT_TOL = 1e-9

# Rows per node block of soliton_residual and of jet-arithmetic fields.  Every
# per-node quantity depends on its own node alone, so the block size changes
# no output bit; it bounds the temporaries.  On a 2-vCPU VM (numpy 2.4.6),
# 4096 rows beat 8192 and 16384 on perfbench certify (peak RSS 52 / 59 / 74 MB
# at equal wall time) and suite3d (wall 3.13 / 3.32 / 3.40 s).
NODE_BLOCK = 4096


def node_blocks(n: int) -> list[slice]:
    """Consecutive row slices of at most ``NODE_BLOCK`` rows covering ``range(n)``.

    ``n = 0`` gives one empty slice, so an empty batch still runs (and fails)
    as it would unblocked.
    """
    return [slice(i, min(i + NODE_BLOCK, n)) for i in range(0, max(n, 1), NODE_BLOCK)]


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
    e: np.ndarray             # (N, m, d)
    frame_coeff: np.ndarray   # (N, d, d)
    nu: np.ndarray            # (N, m, k), k = m - d
    weight: np.ndarray        # (N,) translation weight exp(<T, Phi>)
    T_tan: np.ndarray         # (N, d)  <T, e_i>
    T_norm: np.ndarray        # (N, k)  <T, nu_p>
    lagrangian: bool

    @cached_property
    def dg_inv(self) -> np.ndarray:  # (N, d, d, d) d_e g^kl; lazy, soliton_residual skips it
        return -np.einsum("nkp,nepq,nql->nekl", self.g_inv, self.dg, self.g_inv)

    @cached_property
    def T_coord(self) -> np.ndarray:  # (N, d) coordinate components of tangential T; lazy
        return np.einsum("nab,p,npb->na", self.g_inv, self.structure.T, self.tangents)

    @cached_property
    def h3(self) -> np.ndarray:  # (N, d, d, k) h_ijk; lazy, soliton_residual skips it
        A = self.frame_coeff
        return np.einsum("nai,nbj,nqab,nqp->nijp", A, A, self.h_coord, self.nu)

    @cached_property
    def H_frame(self) -> np.ndarray:  # (N, k); lazy like h3
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
    Jt = np.einsum("pq,nqa->npa", structure.J, tangents)
    return np.einsum("npa,npb->nab", Jt, tangents)


def _is_lagrangian(chart: Chart, structure: AmbientStructure, tangents: np.ndarray) -> bool:
    if chart.lagrangian is not None:
        return chart.lagrangian
    m, d = tangents.shape[1], tangents.shape[2]
    if m != 2 * d:
        return False
    defect = float(np.max(np.abs(kaehler_pullback(structure, tangents))))
    return defect < LAGRANGIAN_DETECT_TOL


def _orthonormal_frames(tangents, g, structure, lagrangian):
    """Deterministic orthonormal frames; see the module docstring for the gauge."""
    L = np.linalg.cholesky(g)
    A = np.linalg.inv(L).swapaxes(1, 2)  # upper triangular
    e = np.einsum("nma,nai->nmi", tangents, A)
    if lagrangian:
        nu = np.einsum("pq,nqi->npi", structure.J, e)
        return e, A, nu
    n, m, d = tangents.shape
    k = m - d
    cols = [e[:, :, i] for i in range(d)]
    normals = []
    for axis in range(m):
        v = np.zeros((n, m))
        v[:, axis] = 1.0
        for c in cols:
            v = v - np.einsum("np,np->n", c, v)[:, None] * c
        norms = np.linalg.norm(v, axis=1)
        if np.min(norms) > 1e-6:
            v = v / norms[:, None]
            cols.append(v)
            normals.append(v)
            if len(normals) == k:
                break
    if len(normals) < k:
        raise ImmersionError("could not complete a normal frame from the ambient axes")
    nu = np.stack(normals, axis=2)
    return e, A, nu


def point_geometry(
    chart: Chart,
    structure: AmbientStructure,
    points=None,
    jets: MapJets | None = None,
) -> PointGeometry:
    """Compute all pointwise geometric quantities at a batch of points.

    Pass ``jets`` to reuse a previous chart evaluation; order-3 jets retain
    the Christoffel derivatives needed by curvature and rough Laplacians,
    order-2 jets leave ``Gamma_partial`` as None.
    """
    if jets is None:
        if points is None:
            raise ValueError("either points or jets must be given")
        jets = eval_jets(chart, points, order=3)
    pts = jets.points
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

    lagrangian = _is_lagrangian(chart, structure, t)
    e, A, nu = _orthonormal_frames(t, g, structure, lagrangian)

    T = structure.T
    with np.errstate(over="ignore", invalid="ignore"):
        weight = np.exp(np.einsum("p,np->n", T, jets.val))
    if not np.all(np.isfinite(weight)):
        raise EvaluationError(f"translation weight exp(<T, x>) overflows on chart {chart.name!r}")
    T_tan = np.einsum("p,npi->ni", T, e)
    T_norm = np.einsum("q,nqp->np", T, nu)

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
        e=e,
        frame_coeff=A,
        nu=nu,
        weight=weight,
        T_tan=T_tan,
        T_norm=T_norm,
        lagrangian=lagrangian,
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
    """The translator-equation field T^perp - H, shape (N, m); zero on a translator."""
    t_perp = pg.structure.T[None, :] - np.einsum("ni,npi->np", pg.T_tan, pg.e)
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
        pg = point_geometry(chart, structure, jets=eval_jets(chart, pts[rows], order=2))
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
    * ``riem_gauss`` is assembled from the second fundamental form via the
      Gauss equation  R_ijkl = h_ikp h_jlp - h_ilp h_jkp,
    * ``ricci`` is its trace  R_ik = H_p h_ikp - h_jip h_jkp.

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
    h3 = pg.h3
    riem_gauss = np.einsum("nikp,njlp->nijkl", h3, h3) - np.einsum(
        "nilp,njkp->nijkl", h3, h3
    )
    ricci = np.einsum("np,nikp->nik", pg.H_frame, h3) - np.einsum(
        "njip,njkp->nik", h3, h3
    )
    return riem_intrinsic, riem_gauss, ricci
