"""First/second-order geometry of a chart and global soliton diagnostics.

All quantities are computed in batch over a set of parameter points from the
exact chart jets and the translation direction ``T`` (m,), the only ambient
datum that varies; the complex structure J is :func:`charts.apply_J`, which
acts by index.  Every per-node array keeps the node axis ``n`` last and
contiguous, so a contraction over small indices runs over rows of nodes:

* ``positions[p, n]``      the chart map Phi
* ``tangents[p, a, n]``    d_a Phi;  ``hessian[p, a, b, n]``  d_a d_b Phi
* ``g[a, b, n]``           induced metric  <d_a Phi, d_b Phi>
* ``dg[c, a, b, n]``       partial_c g_ab
* ``ddg[e, c, a, b, n]``   partial_e partial_c g_ab
* ``Gamma[k, a, b, n]``    Christoffel symbols Gamma^k_ab of g
* ``Gamma_partial[e, k, a, b, n]``  partial_e Gamma^k_ab
* ``K[l, n]``, ``P[l, c, n]``  the traces g^ab Gamma^l_ab and
  g^ab d_a Gamma^l_bc (P needs order-3 jets)
* ``h_coord[p, a, b, n]``  ambient components of the second fundamental form
  (the normal projection of partial^2 Phi via the Gauss formula)
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

The diagnostics (:func:`soliton_residual`) walk a grid's row blocks, one
block's order-2 geometry at a time.

Christoffel symbols and their derivatives are assembled intrinsically from
metric derivatives, not from ambient projections, so a curvature tensor built
from them is independent of the second fundamental form; the tests check the
two against each other through the Gauss equation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import permutations, product
from typing import Any

import numpy as np

from .charts import Chart, apply_J, eval_jets
from .errors import EvaluationError, ImmersionError, UnsupportedChartError
from .quadrature import QuadratureGrid

__all__ = [
    "PointGeometry",
    "DiagnosticsReport",
    "batch_det",
    "adjugate",
    "point_geometry",
    "mean_curvature_vector",
    "translator_defect",
    "soliton_residual",
    "kaehler_pullback",
]

RANK_TOL = 1e-8
LAGRANGIAN_DETECT_TOL = 1e-9

@dataclass
class PointGeometry:
    """All pointwise geometric data of a chart at a batch of points, node axis last.

    A grid block (:func:`stability.grid_geometry`) sets the construction
    intermediates ``sqrt_det_g``, ``dg``, ``Gamma_partial`` and ``weight`` to
    None once it has formed what the routes read from them.
    """

    T: np.ndarray             # (m,) translation direction
    positions: np.ndarray     # (m, N)
    tangents: np.ndarray      # (m, d, N)
    hessian: np.ndarray       # (m, d, d, N)
    g: np.ndarray             # (d, d, N)
    g_inv: np.ndarray         # (d, d, N)
    sqrt_det_g: np.ndarray | None  # (N,)
    dg: np.ndarray | None     # (d, d, d, N)
    Gamma: np.ndarray         # (d, d, d, N)
    Gamma_partial: np.ndarray | None  # (d, d, d, d, N); None for order-2 jets
    h_coord: np.ndarray       # (m, d, d, N)
    weight: np.ndarray | None  # (N,) translation weight exp(<T, Phi>)

    # every property below is formed on first use; soliton_residual reads T_coord only

    @cached_property
    def lagrangian(self) -> bool:
        """Whether the Kaehler pullback vanishes, to LAGRANGIAN_DETECT_TOL, at every point."""
        m, d = self.tangents.shape[:2]
        if m != 2 * d:
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
    def dg_inv(self) -> np.ndarray:  # (d, d, d, N) d_e g^kl
        return -np.einsum("kpn,epqn,qln->ekln", self.g_inv, self.dg, self.g_inv)

    @cached_property
    def K(self) -> np.ndarray:  # (d, N) K^l = g^ab Gamma^l_ab
        return np.einsum("abn,labn->ln", self.g_inv, self.Gamma)

    @cached_property
    def P(self) -> np.ndarray | None:  # (d, d, N) P^l_c = g^ab d_a Gamma^l_bc, at [l, c]; None at order 2
        if self.Gamma_partial is None:
            return None
        return np.einsum("abn,albcn->lcn", self.g_inv, self.Gamma_partial)

    @cached_property
    def T_coord(self) -> np.ndarray:  # (d, N) coordinate components of tangential T
        return np.einsum("abn,bn->an", self.g_inv, np.einsum("p,pbn->bn", self.T, self.tangents))

    @cached_property
    def h3(self) -> np.ndarray:  # (d, d, d, N) h_ijk
        A = self.frame_coeff
        h_nu = np.einsum("qabn,qpn->abpn", self.h_coord, self.nu)
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
    chart's jets are evaluated here at ``order``: order 3 gives the Christoffel
    derivatives that rough Laplacians read, and its third derivatives are freed
    once read; order 2 leaves ``Gamma_partial`` as None.
    """
    T = np.asarray(T, dtype=float)
    if T.shape != (chart.ambient_dim,):
        raise ValueError(f"T has shape {T.shape}, chart {chart.name!r} needs ({chart.ambient_dim},)")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    jets = eval_jets(chart, pts, order=order)
    x, t, d2, d3 = jets.val, jets.d1, jets.d2, jets.d3
    del jets

    g = np.einsum("man,mbn->abn", t, t)
    det = batch_det(g)
    _require_full_rank(chart.name, pts, g, det)
    g_inv = adjugate(g) / det
    sqrt_det_g = np.sqrt(det)

    # dg[c,a,b] = <Phi_ac, Phi_b> + <Phi_a, Phi_bc>
    dg = np.einsum("macn,mbn->cabn", d2, t)
    dg = dg + dg.swapaxes(1, 2)

    # bracket[l,a,b] = d_a g_bl + d_b g_al - d_l g_ab
    bracket = np.einsum("abln->labn", dg) + np.einsum("baln->labn", dg) - dg
    Gamma = 0.5 * np.einsum("kln,labn->kabn", g_inv, bracket)

    # Gauss formula: the normal part of the coordinate Hessian of the map
    h_coord = d2 - np.einsum("kabn,mkn->mabn", Gamma, t)

    with np.errstate(over="ignore", invalid="ignore"):
        weight = np.exp(np.einsum("p,pn->n", T, x))
    if not np.all(np.isfinite(weight)):
        raise EvaluationError(f"translation weight exp(<T, x>) overflows on chart {chart.name!r}")

    pg = PointGeometry(
        T=T,
        positions=x,
        tangents=t,
        hessian=d2,
        g=g,
        g_inv=g_inv,
        sqrt_det_g=sqrt_det_g,
        dg=dg,
        Gamma=Gamma,
        Gamma_partial=None,
        h_coord=h_coord,
        weight=weight,
    )
    if d3 is not None:
        # ddg[e,c,a,b] = d_e d_c g_ab, by Leibniz on <Phi_ac, Phi_b> + <Phi_a, Phi_bc>
        ddg = (
            np.einsum("macen,mbn->ecabn", d3, t)
            + np.einsum("macn,mben->ecabn", d2, d2)
            + np.einsum("maen,mbcn->ecabn", d2, d2)
            + np.einsum("man,mbcen->ecabn", t, d3)
        )
        dbracket = np.einsum("eabln->elabn", ddg) + np.einsum("ebaln->elabn", ddg) - ddg
        del d3, ddg  # the largest arrays go once read, to bound the peak
        pg.Gamma_partial = 0.5 * (
            np.einsum("ekln,labn->ekabn", pg.dg_inv, bracket)
            + np.einsum("kln,elabn->ekabn", g_inv, dbracket)
        )
    return pg


def mean_curvature_vector(pg: PointGeometry) -> np.ndarray:
    """Ambient mean curvature H = g^{ab} (d^2 Phi)^perp_ab, shape (m, N)."""
    return np.einsum("abn,mabn->mn", pg.g_inv, pg.h_coord)


def translator_defect(pg: PointGeometry) -> np.ndarray:
    """The translator-equation field T^perp - H, shape (m, N); zero on a translator.

    T^perp = T - d_a Phi T^a, with T^a = g^ab <T, d_b Phi> the tangential part.
    """
    t_perp = pg.T[:, None] - np.einsum("pan,an->pn", pg.tangents, pg.T_coord)
    return t_perp - mean_curvature_vector(pg)


def soliton_residual(chart: Chart, T, grid: QuadratureGrid) -> DiagnosticsReport:
    """Maxima of |T^perp - H| and of the Kaehler pullback over the nodes of ``grid``.

    A vanishing residual certifies the translator equation; the pullback
    certifies the Lagrangian condition.  The grid is walked one row block at a
    time (:meth:`QuadratureGrid.blocks`), and each block's order-2 geometry is
    dropped before the next is built, so memory is bounded at any number of
    points; only the per-block maxima are kept, and ``np.max`` over them keeps
    a NaN.
    """

    def maxima(points):
        pg = point_geometry(chart, T, points, order=2)
        resid = np.max(np.linalg.norm(translator_defect(pg), axis=0))
        return resid, np.max(np.abs(kaehler_pullback(pg.tangents)))

    resid, defect = zip(*[maxima(block.nodes) for block in grid.blocks()])
    return DiagnosticsReport(
        chart=chart.name,
        grid={"kind": "points", "count": math.prod(grid.shape)},
        max_soliton_residual=float(np.max(resid)),
        max_lagrangian_defect=float(np.max(defect)),
    )
