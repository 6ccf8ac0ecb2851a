"""First/second-order geometry of a chart and global soliton diagnostics.

All quantities are computed in batch over a set of parameter points from the
exact chart jets and the translation direction ``T`` (m,), the only ambient
datum that varies; the complex structure J is :func:`charts.apply_J`, which
acts by index.  Every per-node array keeps the node axis ``n`` last and
contiguous, so a contraction over small indices runs over rows of nodes:

* ``positions[p, n]``      the chart map Phi
* ``tangents[p, a, n]``    d_a Phi;  ``hessian[p, a, b, n]``  d_a d_b Phi
* ``g[a, b, n]``           induced metric  <d_a Phi, d_b Phi>
* ``area_weight[n]``       the weighted area density exp(<T, Phi>) sqrt(det g)
* ``Gamma[k, a, b, n]``    Christoffel symbols Gamma^k_ab of g, from order-3 jets only
* ``dg_inv[e, k, l, n]``, ``K[l, n]``, ``P[l, c, n]``  d_e g^kl and the traces
  g^ab Gamma^l_ab and g^ab d_a Gamma^l_bc, formed at build from order-3 jets
* ``frame_coeff[a, i, n]`` coefficients with e_i = frame_coeff[a, i] d_a Phi
* ``nu[p, i, n]``          the normal frame nu_i = J e_i (Lagrangian charts only)

The tangent frame is Gram-Schmidt of the coordinate tangents in coordinate
order, e_i = (L^-1)_ia d_a Phi with g = L L^T, so it is deterministic; L, L^-1
and the adjugate inverse of g are closed forms over node rows.  The one
normal frame, ``nu_i = J e_i``, exists only on Lagrangian charts, where J maps
the tangent space onto the normal space; reading ``nu`` on any other chart
raises UnsupportedChartError.  The translator defect and the mean curvature
vector use ambient normal components, so they hold on every chart.  Frames
are formed on first use, and every reported scalar is gauge invariant.

The certificates walk a grid's row blocks, one block's order-2 geometry at a
time, by :func:`grid_maxima`: :func:`soliton_residual` here and the cylinder's
closed-form deviations in :mod:`wirtinger`.  That build stops at the metric:
the Gamma term of the Laplacian of an immersion is tangential, so the certificates
take H = (g^ab d_a d_b Phi)^perp by :func:`normal_part`, which needs g^-1 alone.
No build forms the second fundamental form by the Gauss formula: ``h3`` and the
divergence route pair d_a d_b Phi with normal fields, where the tangential
Gamma^k_ab d_k Phi pairs to zero.

Christoffel symbols are assembled from metric derivatives, not ambient
projections; of order 3 only their trace P is formed, straight from the third
jets.  The tests check a curvature tensor from independent Christoffel
derivatives against the second fundamental form by the Gauss equation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import permutations, product
from typing import Any

import numpy as np

from .charts import Chart, apply_J, eval_jets, lagrangian_dims, require_lagrangian_dims
from .errors import EvaluationError, ImmersionError, UnsupportedChartError
from .quadrature import QuadratureGrid

__all__ = [
    "PointGeometry",
    "DiagnosticsReport",
    "batch_det",
    "adjugate",
    "weighted_area_density",
    "point_geometry",
    "normal_part",
    "mean_curvature_vector",
    "translator_defect",
    "grid_maxima",
    "soliton_residual",
    "kaehler_pullback",
]

RANK_TOL = 1e-8
LAGRANGIAN_DETECT_TOL = 1e-9


@dataclass
class PointGeometry:
    """Pointwise geometry of a chart at a batch of points, node axis last; each field is formed at build."""

    T: np.ndarray             # (m,) translation direction
    positions: np.ndarray     # (m, N)
    tangents: np.ndarray      # (m, d, N)
    hessian: np.ndarray       # (m, d, d, N)
    g: np.ndarray             # (d, d, N)
    g_inv: np.ndarray         # (d, d, N)
    area_weight: np.ndarray   # (N,) exp(<T, Phi>) sqrt(det g)
    Gamma: np.ndarray | None = None    # (d, d, d, N); None for order-2 jets, as are the four below
    dg_inv: np.ndarray | None = None   # (d, d, d, N) d_e g^kl
    K: np.ndarray | None = None        # (d, N) K^l = g^ab Gamma^l_ab
    P: np.ndarray | None = None        # (d, d, N) P^l_c = g^ab d_a Gamma^l_bc, at [l, c]

    # every property below is formed on first use; the certificates read none of them

    @cached_property
    def lagrangian(self) -> bool:
        """Whether the Kaehler pullback vanishes, to LAGRANGIAN_DETECT_TOL, at every point."""
        m, d = self.tangents.shape[:2]
        if not lagrangian_dims(d, m):
            return False
        defect = float(np.max(np.abs(kaehler_pullback(self.tangents))))
        return defect < LAGRANGIAN_DETECT_TOL

    @cached_property
    def frame_coeff(self) -> np.ndarray:  # (d, d, N), upper triangular in (a, i)
        g = self.g
        L, A = np.zeros_like(g), np.zeros_like(g)  # g = L L^T; A[a, i] = (L^-1)[i, a]
        for i in range(g.shape[0]):  # row i of L, then row i of L^-1 by forward substitution
            for j in range(i + 1):
                s = g[i, j] - np.einsum("kn,kn->n", L[i, :j], L[j, :j])
                L[i, j] = np.sqrt(s) if i == j else s / L[j, j]
            A[:i, i] = -np.einsum("kn,akn->an", L[i, :i], A[:i, :i]) / L[i, i]
            A[i, i] = 1.0 / L[i, i]
        return A

    @cached_property
    def nu(self) -> np.ndarray:  # (m, d, N) nu_i = J e_i
        if not self.lagrangian:
            raise UnsupportedChartError("the normal frame nu_i = J e_i needs a Lagrangian chart")
        e = np.einsum("man,ain->min", self.tangents, self.frame_coeff)
        return apply_J(e)

    @cached_property
    def T_coord(self) -> np.ndarray:  # (d, N) coordinate components of tangential T
        return np.einsum("abn,bn->an", self.g_inv, np.einsum("p,pbn->bn", self.T, self.tangents))

    @cached_property
    def h3(self) -> np.ndarray:  # (d, d, d, N) h_ijk
        """h_ijk = <h(e_i, e_j), nu_k> from the Hessian: <d_a d_b Phi, nu_k> = <h_ab, nu_k> only
        because nu_k is normal, and so orthogonal to the Gauss formula's Gamma^l_ab d_l Phi."""
        A = self.frame_coeff
        h_nu = np.einsum("qabn,qpn->abpn", self.hessian, self.nu)
        h_nu = np.einsum("ain,abpn->ibpn", A, h_nu)
        return np.einsum("bjn,ibpn->ijpn", A, h_nu)


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
    """Determinants of a batch ``(d, d, ...)`` of small matrices by the Leibniz sum.

    ``det a = sum over permutations p of sign(p) a[0, p0] a[1, p1] ... a[d-1, p(d-1)]``,
    with d! terms (2 at d = 2, 6 at d = 3).  For node-last metrics this is
    one elementwise pass per term instead of a batched LU factorisation, and
    the same code path serves every dimension.
    """
    d = a.shape[0]
    total = 0.0
    for perm in permutations(range(d)):
        term = a[0, perm[0]] if d else np.ones(a.shape[2:])  # a 0 x 0 minor has det 1
        for row in range(1, d):
            term = term * a[row, perm[row]]
        inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        total = total - term if inversions % 2 else total + term
    return total


def adjugate(a: np.ndarray) -> np.ndarray:
    """Adjugates ``adj[j, i] = (-1)^(i+j) det(a without row i, column j)`` of a batch
    ``(d, d, ...)``, each cofactor a :func:`batch_det`; the inverse is ``adj / det``."""
    adj, keep = np.empty_like(a), np.arange(a.shape[0])
    for i, j in product(keep, repeat=2):
        np.multiply((-1) ** (i + j), batch_det(a[np.ix_(keep != i, keep != j)]), out=adj[j, i])
    return adj


def weighted_area_density(T: np.ndarray, positions, det, chart: str | None = None) -> np.ndarray:
    """The weighted area density exp(<T, x>) sqrt(det g) (N,) at positions x (m, N); given the
    ``chart``'s name, it refuses an exp(<T, x>) that overflows with EvaluationError."""
    with np.errstate(over="ignore", invalid="ignore"):
        weight = np.exp(np.einsum("p,pn->n", T, positions))
    if chart is not None and not np.all(np.isfinite(weight)):
        raise EvaluationError(f"translation weight exp(<T, x>) overflows on chart {chart!r}")
    return weight * np.sqrt(det)


def _require_full_rank(name: str, pts: np.ndarray, g: np.ndarray, det: np.ndarray) -> None:
    """Raise ImmersionError at the first point whose metric has eigvalsh <= RANK_TOL**2.

    For PSD g, lambda_min >= det / tr^(d-1).  The Leibniz det errs by about
    d!*d*eps*tr^d and eigvalsh by about d*eps*tr; the bound below clears
    RANK_TOL**2 by 8x that, so a node whose det exceeds it has eigvalsh >
    RANK_TOL**2.  Only the rest, NaN nodes included, go to eigvalsh, which gives
    them the bits they get in any batch, so the message names the same point.
    """
    d, tr = g.shape[0], np.trace(g)
    with np.errstate(over="ignore"):  # an overflowing bound clears nothing
        bound = tr ** (d - 1) * (RANK_TOL**2 + 8 * math.factorial(d) * d * np.finfo(float).eps * tr)
    suspect = np.flatnonzero(~(det > bound))
    eigmin = np.linalg.eigvalsh(np.moveaxis(g[..., suspect], -1, 0))[:, 0]
    deficient = np.flatnonzero(eigmin <= RANK_TOL**2)
    if deficient.size:
        k = deficient[0]
        raise ImmersionError(
            f"chart {name!r} is rank deficient at point {pts[suspect[k]].tolist()} "
            f"(smallest singular value {float(np.sqrt(max(eigmin[k], 0.0))):.3e})"
        )


def kaehler_pullback(tangents: np.ndarray) -> np.ndarray:
    """omega(d_a Phi, d_b Phi) = <J d_a Phi, d_b Phi> as a (d, d, N) array, from (m, d, N) tangents."""
    return np.einsum("pan,pbn->abn", apply_J(tangents), tangents)


def point_geometry(chart: Chart, T, points, order: int = 3) -> PointGeometry:
    """Compute all pointwise geometric quantities at a batch of points.

    ``T`` is the translation direction, of length ``chart.ambient_dim``.  The
    chart's jets are evaluated here at ``order``, 2 or 3: order 3 gives the trace
    ``P`` that rough Laplacians read, and its third derivatives are freed once read;
    order 2 stops at ``area_weight``, leaving ``Gamma``, ``dg_inv``, ``K`` and ``P``
    None.  A block's order-3 build peaks while P forms: 308 floats per node at
    d = 3 and 112 at d = 2.
    With Gamma^l_bc = 1/2 g^lk [k,b,c], the terms of g^ab d_a [k,b,c] symmetric
    in (c, k) cancel, so no d Gamma is formed:

        P^l_c = 1/2 g^ab (d_a g^lk) [k,b,c] + g^lk (<Lambda_c, d_k Phi> + M_ck),
        Lambda_c = g^ef d_c d_e d_f Phi,   M_ck = g^ef <d_c d_e Phi, d_k d_f Phi>.
    """
    if order not in (2, 3):
        raise ValueError(f"point_geometry takes order 2 or 3, not {order!r}")
    T = np.asarray(T, dtype=float)
    if T.shape != (chart.ambient_dim,):
        raise ValueError(f"T has shape {T.shape}, chart {chart.name!r} needs ({chart.ambient_dim},)")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, t, d2, *d3 = eval_jets(chart, pts, order=order).levels  # d3: the third jets at order 3, else []

    g = np.einsum("man,mbn->abn", t, t)
    det = batch_det(g)
    _require_full_rank(chart.name, pts, g, det)
    g_inv = adjugate(g) / det
    area_weight = weighted_area_density(T, x, det, chart.name)
    if not d3:
        return PointGeometry(T, x, t, d2, g, g_inv, area_weight)
    # Lambda[m, c] = g^ef d_c d_e d_f Phi: the third jets, the largest array, are read here alone
    lam = np.einsum("efn,mcefn->mcn", g_inv, *d3)
    del d3

    # dg[c,a,b] = <Phi_ac, Phi_b> + <Phi_a, Phi_bc>
    dg = np.einsum("macn,mbn->cabn", d2, t)
    dg = dg + dg.swapaxes(1, 2)

    # bracket[l,a,b] = d_a g_bl + d_b g_al - d_l g_ab
    bracket = np.einsum("abln->labn", dg) + np.einsum("baln->labn", dg) - dg
    Gamma = 0.5 * np.einsum("kln,labn->kabn", g_inv, bracket)
    dg_inv = -np.einsum("kpn,epqn,qln->ekln", g_inv, dg, g_inv)
    inv_part = np.einsum("alkn,akcn->lcn", dg_inv, np.einsum("abn,kbcn->akcn", g_inv, bracket))
    jet_part = np.einsum("efn,mcen->mcfn", g_inv, d2)  # then <Lambda_c, Phi_k> + M_ck at [c, k]
    jet_part = np.einsum("mcn,mkn->ckn", lam, t) + np.einsum("mcfn,mkfn->ckn", jet_part, d2)
    P = 0.5 * inv_part + np.einsum("lkn,ckn->lcn", g_inv, jet_part)
    K = np.einsum("abn,labn->ln", g_inv, Gamma)
    return PointGeometry(
        T=T,
        positions=x,
        tangents=t,
        hessian=d2,
        g=g,
        g_inv=g_inv,
        area_weight=area_weight,
        Gamma=Gamma,
        dg_inv=dg_inv,
        K=K,
        P=P,
    )


def normal_part(pg: PointGeometry, v: np.ndarray) -> np.ndarray:
    """The normal part v - d_a Phi g^ab <d_b Phi, v> of an ambient array v (m, ..., N)."""
    coeff = np.einsum("abn,b...n->a...n", pg.g_inv, np.einsum("pbn,p...n->b...n", pg.tangents, v))
    return v - np.einsum("pan,a...n->p...n", pg.tangents, coeff)


def mean_curvature_vector(pg: PointGeometry) -> np.ndarray:
    """Ambient mean curvature H = (g^ab d_a d_b Phi)^perp, shape (m, N); the Gamma term is tangential."""
    return normal_part(pg, np.einsum("abn,mabn->mn", pg.g_inv, pg.hessian))


def translator_defect(pg: PointGeometry) -> np.ndarray:
    """The translator-equation field T^perp - H = (T - g^ab d_a d_b Phi)^perp, shape (m, N);
    zero on a translator."""
    return normal_part(pg, pg.T[:, None] - np.einsum("abn,mabn->mn", pg.g_inv, pg.hessian))


def grid_maxima(chart: Chart, T, grid: QuadratureGrid, quantities) -> list[float]:
    """The one certificate walk: over the nodes of ``grid``, the maximum of |value| of each array
    that ``quantities(pg, points)`` returns, ``pg`` a row block's order-2 geometry at its
    ``points``.  Each block (:meth:`QuadratureGrid.blocks`) is built inside a function that
    returns only its maxima, so it is dropped before the next is built and memory is bounded
    at any number of points; ``np.max`` over the blocks' maxima keeps a NaN."""

    def block_maxima(points):
        pg = point_geometry(chart, T, points, order=2)
        return [np.max(np.abs(a)) for a in quantities(pg, points)]

    return [float(m) for m in np.max([block_maxima(block.nodes) for block in grid.blocks()], axis=0)]


def soliton_residual(chart: Chart, T, grid: QuadratureGrid) -> DiagnosticsReport:
    """Maxima of |T^perp - H| and of the Kaehler pullback over the nodes of ``grid``, by
    :func:`grid_maxima`.

    A vanishing residual certifies the translator equation; the pullback
    certifies the Lagrangian condition, so a chart whose dimensions no
    Lagrangian chart has is refused first, by :func:`charts.require_lagrangian_dims`.
    """
    require_lagrangian_dims(chart)

    def certificates(pg, _):
        return np.linalg.norm(translator_defect(pg), axis=0), kaehler_pullback(pg.tangents)

    maxima = grid_maxima(chart, T, grid, certificates)
    return DiagnosticsReport(chart.name, {"kind": "points", "count": math.prod(grid.shape)}, *maxima)
