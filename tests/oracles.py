"""Reference computations that only the tests use.

Each helper recomputes something the package computes another way (finite
differences against exact jets, the product and chain rules slot by slot, a
one-form from frame components, the translator defect through the tangent
frame, the box-local functional on a fresh grid, the geometry and covariant
calculus with the node axis first, the LAPACK inverse, Cholesky frame and
full-batch rank check of per-node metrics, a polynomial field monomial by
monomial, a grid geometry with its full point geometry, one variation's report on one
block, the deformed functional on it and its first variation by finite differences, both sides of the square-form proof's integrations by
parts, the Laplace-Beltrami operator of a scalar) or checks a proof step (the
Riemann tensor intrinsically and by the Gauss equation, the Ricci identity
through the gradient of the divergence) or reads a structural property off a
result (index symmetry of a jet, one derivative of a jet) or builds what the
package does not offer (a field windowed in y alone, a tensor grid on given
axis nodes).  Jets are node-last,
as in the package: ``d1[..., a, n]``, ``d2[..., a, b, n]``, ``d3[..., a, b, c, n]``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

import soliton_stability.jets as J
from soliton_stability.charts import Chart, eval_jets
from soliton_stability.errors import DomainError
from soliton_stability.expressions import compile_expression, variable_names
from soliton_stability.geometry import (
    RANK_TOL,
    PointGeometry,
    mean_curvature_vector,
    point_geometry,
)
from soliton_stability.quadrature import QuadratureGrid, tensor_rule, total
from soliton_stability.reports import VariationReport, run_variation_suite
from soliton_stability.stability import (
    GridGeometry,
    VariationData,
    _deformation,
    _sharp,
    _weighted_area_density,
)
from soliton_stability.variations import (
    OneFormField,
    ScalarField,
    _jet_arithmetic,
    _polynomial_coefficients,
    covariant_calculus,
    window_jet,
)

# ---------------------------------------------------------------------------
# jets


def symmetry_defect(jet: J.Jet) -> float:
    """Max deviation of d2/d3 from full index symmetry.

    d3 is compared with its transpose of the last two derivative axes and with
    one 3-cycle of its three derivative axes; the two generate every permutation.
    """
    pairs = []
    if jet.d2 is not None:
        pairs.append((jet.d2, np.swapaxes(jet.d2, -3, -2)))
    if jet.d3 is not None:
        t = jet.d3
        pairs += [(t, np.swapaxes(t, -3, -2)), (t, np.moveaxis(t, (-4, -3, -2), (-3, -2, -4)))]
    # np.max keeps a NaN, which Python's max(0.0, nan) would drop
    return float(np.max([np.max(np.abs(a - b), initial=0.0) for a, b in pairs], initial=0.0))


def _outer2(a, b):
    return a[..., :, None, :] * b[..., None, :, :]


def _sym_21(m, v):
    """The 3-tensor  m_ij v_k + m_ik v_j + m_jk v_i  on every slot."""
    return (
        m[..., :, :, None, :] * v[..., None, None, :, :]
        + m[..., :, None, :, :] * v[..., None, :, None, :]
        + m[..., None, :, :, :] * v[..., :, None, None, :]
    )


def _lift(a, rank):
    """``a`` with ``rank`` unit axes before its node axis."""
    return a.reshape(a.shape[:-1] + (1,) * rank + a.shape[-1:])


def reference_product(u: J.Jet, v: J.Jet) -> J.Jet:
    """Leibniz rule for ``u * v``, broadcast over every slot of d2 and d3.

    Each slot is formed by the same association order as the sorted-index
    kernel of ``Jet.__mul__``, so the two agree bit for bit on sorted slots.
    """
    k = min(u.order, v.order)
    u, v = u.truncated(k), v.truncated(k)
    d2 = d3 = None
    if k >= 2:
        d2 = u.d2 * _lift(v.val, 2) + _outer2(u.d1, v.d1) + _outer2(v.d1, u.d1) + _lift(u.val, 2) * v.d2
    if k >= 3:
        d3 = u.d3 * _lift(v.val, 3) + _sym_21(u.d2, v.d1) + _sym_21(v.d2, u.d1)
        d3 = d3 + _lift(u.val, 3) * v.d3
    return J.Jet(k, u.val * v.val, u.d1 * _lift(v.val, 1) + _lift(u.val, 1) * v.d1, d2, d3)


def reference_compose(u: J.Jet, f0, f1, f2, f3) -> J.Jet:
    """Chain rule for ``f(u)`` from ``f0..f3`` at ``u.val``, broadcast over every slot."""
    a = u.d1
    d2 = d3 = None
    if u.order >= 2:
        d2 = _lift(f1, 2) * u.d2 + _lift(f2, 2) * _outer2(a, a)
    if u.order >= 3:
        outer3 = a[..., :, None, None, :] * a[..., None, :, None, :] * a[..., None, None, :, :]
        g1, g2, g3 = (_lift(f, 3) for f in (f1, f2, f3))
        d3 = g1 * u.d3 + g2 * _sym_21(u.d2, a) + g3 * outer3
    return J.Jet(u.order, f0, _lift(f1, 1) * a, d2, d3)


def partial(jet: J.Jet, i: int) -> J.Jet:
    """The i-th first derivative as a jet of one order lower."""
    if jet.order < 2:
        raise ValueError("need order >= 2 to extract a derivative jet")
    return J.Jet(
        jet.order - 1,
        jet.d1[..., i, :],
        jet.d2[..., i, :, :],
        None if jet.d3 is None else jet.d3[..., i, :, :, :],
    )


# ---------------------------------------------------------------------------
# finite-difference oracle for chart jets


def finite_difference_jet(chart: Chart, u, h: float = 1e-4) -> J.Jet:
    """Central-difference jets of the chart map at a single point.

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
        return eval_jets(chart, p[None, :], order=1).val[:, 0]

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
    return J.Jet(3, f0[:, None], d1[..., None], d2[..., None], d3[..., None])


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
# geometry and variations


def functional_value(chart: Chart, T, box, cells: int = 40, points_per_cell: int = 8) -> float:
    """Box-local weighted area  int_box exp(<T, Phi>) sqrt(det g) du."""
    grid = tensor_rule(box, cells, points_per_cell)
    jets = eval_jets(chart, grid.nodes, order=1)
    g = np.einsum("man,mbn->abn", jets.d1, jets.d1)
    return grid.integrate(_weighted_area_density(np.asarray(T, dtype=float), jets.val, g))


def frame_translator_defect(pg: PointGeometry) -> np.ndarray:
    """T^perp - H with T^perp = T - sum_i <T, e_i> e_i in the orthonormal tangent frame."""
    e = np.einsum("man,ain->min", pg.tangents, pg.frame_coeff)
    t_perp = pg.T[:, None] - np.einsum("in,pin->pn", np.einsum("p,pin->in", pg.T, e), e)
    return t_perp - mean_curvature_vector(pg)


def frame_covariant_matrix(nabla: np.ndarray, pg: PointGeometry) -> np.ndarray:
    """nabla(theta) expressed in the orthonormal tangent frame, (d, d, N)."""
    A = pg.frame_coeff
    return np.einsum("ain,bjn,abn->ijn", A, A, nabla)


def standard_J(n: int) -> np.ndarray:
    """The dense (2n, 2n) complex structure of C^n, (a, b) -> (b, -a) on each coordinate pair."""
    return np.kron(np.eye(n), [[0.0, 1.0], [-1.0, 0.0]])


def one_form_pullback(pg: PointGeometry, field: np.ndarray) -> np.ndarray:
    """Coordinate components (d, N) of -i_field omega restricted to the chart."""
    Jv = np.einsum("pq,qn->pn", standard_J(field.shape[0] // 2), field)
    return -np.einsum("pn,pan->an", Jv, pg.tangents)


# ---------------------------------------------------------------------------
# proof steps: curvature by two routes and the Ricci identity


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

    Index convention: ``R[i,j,k,l,n] = <R(e_i, e_j) e_l, e_k>`` with
    ``R(X,Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y]``, which makes
    the sphere direction positive and matches the Gauss form above; the
    node axis is last, as everywhere.  ``pg`` must come from order-3 chart jets.
    """
    if pg.Gamma_partial is None:
        raise ValueError("curvature needs order-3 jets (Gamma_partial missing)")
    G, dG = pg.Gamma, pg.Gamma_partial
    # R^l_ijk = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
    r_up = (
        np.einsum("iljkn->lijkn", dG)
        - np.einsum("jlikn->lijkn", dG)
        + np.einsum("limn,mjkn->lijkn", G, G)
        - np.einsum("ljmn,mikn->lijkn", G, G)
    )
    r_coord = np.einsum("kmn,mijln->ijkln", pg.g, r_up)
    A = pg.frame_coeff
    riem_intrinsic = r_coord
    for _ in range(4):  # one frame index per pass, first to last: (a, b, c, d) -> (i, j, k, l)
        riem_intrinsic = np.einsum("ain,a...n->...in", A, riem_intrinsic)
    h = np.einsum("bjn,qabn->qajn", A, pg.h_coord)
    h = np.einsum("ain,qajn->ijqn", A, h)
    riem_gauss = np.einsum("ikqn,jlqn->ijkln", h, h) - np.einsum("ilqn,jkqn->ijkln", h, h)
    ricci = np.einsum("qn,ikqn->ikn", mean_curvature_vector(pg), h) - np.einsum(
        "jiqn,jkqn->ikn", h, h
    )
    return riem_intrinsic, riem_gauss, ricci


def div_grad(fj: J.Jet, pg: PointGeometry) -> np.ndarray:
    """``partial_e div theta^sharp``, shape (d, N), from order-2 form jets at pg's points.

    With ``Q_e^l = g^ab partial_e Gamma^l_ab`` and pg's ``K^l = g^ab Gamma^l_ab``,

        d_e div = d_e g^ab (nabla_a theta)_b + g^ab d_e d_a theta_b - Q_e^l theta_l - K^l d_e theta_l
    """
    theta, dtheta, ddtheta = fj.val, fj.d1, fj.d2
    nabla, _, _ = covariant_calculus(theta, dtheta, ddtheta, pg)
    Q = np.einsum("abn,elabn->eln", pg.g_inv, pg.Gamma_partial)
    grad = np.einsum("eabn,abn->en", pg.dg_inv, nabla) + np.einsum("abn,baen->en", pg.g_inv, ddtheta)
    return grad - np.einsum("eln,ln->en", Q, theta) - np.einsum("ln,len->en", pg.K, dtheta)


def ricci_identity_residual(fj: J.Jet, pg: PointGeometry, ricci: np.ndarray) -> float:
    """Pointwise residual of the commutation identity used by the square form.

    For closed theta, trace-commuting second covariant derivatives gives
    ``(rough Laplacian theta)_i = partial_i(div) + Ric_ik theta^k`` in an
    orthonormal frame; the residual measures all three terms computed by
    independent code paths (jet calculus for the left side and the gradient,
    the Gauss equation for the Ricci term).  ``fj`` holds the form's order-2
    jets at pg's points and ``ricci`` is :func:`curvature_tensor`'s.
    """
    A = pg.frame_coeff
    _, _, laplacian = covariant_calculus(fj.val, fj.d1, fj.d2, pg)
    v_frame = np.einsum("ain,an->in", A, fj.val)
    lap_frame = np.einsum("ain,an->in", A, laplacian)
    grad_div_frame = np.einsum("ain,an->in", A, div_grad(fj, pg))
    resid = lap_frame - grad_div_frame - np.einsum("ikn,kn->in", ricci, v_frame)
    return float(np.max(np.abs(resid)))


# ---------------------------------------------------------------------------
# LAPACK references for per-node metrics ``g[a, b, n]``


def lapack_inverse(g: np.ndarray) -> np.ndarray:
    """``g^-1`` node by node by ``np.linalg.inv``, node axis last."""
    return np.moveaxis(np.linalg.inv(np.moveaxis(g, -1, 0)), 0, -1)


def lapack_frame(g: np.ndarray) -> np.ndarray:
    """``frame_coeff[a, i, n] = (L^-1)[i, a]`` with ``g = L L^T`` by ``np.linalg.cholesky``."""
    return np.linalg.inv(np.linalg.cholesky(np.moveaxis(g, -1, 0))).transpose(2, 1, 0)


def full_rank_message(name: str, pts: np.ndarray, g: np.ndarray) -> str | None:
    """The rank-deficiency message for the first node whose ``eigvalsh`` minimum is
    at most ``RANK_TOL**2``, from ``eigvalsh`` on every node; None if there is none."""
    eigmin = np.linalg.eigvalsh(np.moveaxis(g, -1, 0))[:, 0]
    deficient = np.flatnonzero(eigmin <= RANK_TOL**2)
    if not deficient.size:
        return None
    i = deficient[0]
    return (
        f"chart {name!r} is rank deficient at point {pts[i].tolist()} "
        f"(smallest singular value {float(np.sqrt(max(eigmin[i], 0.0))):.3e})"
    )


# ---------------------------------------------------------------------------
# node-first reference of the per-node tensor layout


def node_first_geometry(jets: J.Jet) -> dict:
    """``g``, ``g_inv``, ``dg``, ``dg_inv``, ``Gamma``, ``Gamma_partial`` and ``h_coord``
    with the node axis first, from order-3 chart jets, by the index formulas
    the package used before its per-node tensors moved the node axis last.
    """
    t, d2, d3 = jets.d1, jets.d2, jets.d3
    g = np.einsum("man,mbn->nab", t, t)
    g_inv = np.linalg.inv(g)
    half = np.einsum("macn,mbn->ncab", d2, t)
    dg = half + half.swapaxes(2, 3)
    bracket = np.einsum("nabl->nlab", dg) + np.einsum("nbal->nlab", dg) - dg
    Gamma = 0.5 * np.einsum("nkl,nlab->nkab", g_inv, bracket)
    h_coord = np.einsum("mabn->nmab", d2) - np.einsum("nkab,mkn->nmab", Gamma, t)
    dg_inv = -np.einsum("nkp,nepq,nql->nekl", g_inv, dg, g_inv)
    ddg = (
        np.einsum("macen,mbn->necab", d3, t)
        + np.einsum("macn,mben->necab", d2, d2)
        + np.einsum("maen,mbcn->necab", d2, d2)
        + np.einsum("man,mbcen->necab", t, d3)
    )
    dbracket = np.einsum("neabl->nelab", ddg) + np.einsum("nebal->nelab", ddg) - ddg
    Gamma_partial = 0.5 * (
        np.einsum("nekl,nlab->nekab", dg_inv, bracket) + np.einsum("nkl,nelab->nekab", g_inv, dbracket)
    )
    return {
        "g": g,
        "g_inv": g_inv,
        "dg": dg,
        "dg_inv": dg_inv,
        "Gamma": Gamma,
        "Gamma_partial": Gamma_partial,
        "h_coord": h_coord,
    }


def node_first_covariant(fj: J.Jet, geo: dict) -> dict:
    """``nabla``, ``div``, ``laplacian`` and ``div_grad`` with the node axis first,
    from order-2 form jets and :func:`node_first_geometry`.  The second
    covariant derivative goes by the batched ``matmul`` contractions against
    flattened Christoffel symbols that the package used before its per-node
    tensors moved the node axis last.
    """
    G, dG, g_inv = geo["Gamma"], geo["Gamma_partial"], geo["g_inv"]
    theta, dtheta = fj.val, fj.d1
    d, n = theta.shape
    G_flat = G.reshape(n, d, d * d)
    nabla = np.einsum("ban->nab", dtheta) - np.einsum("nlab,ln->nab", G, theta)
    dnabla = (
        np.einsum("baen->neab", fj.d2)
        - np.einsum("nelab,ln->neab", dG, theta)
        - np.einsum("len,nlab->neab", dtheta, G)
    )
    second = (
        dnabla
        - np.matmul(G_flat.swapaxes(1, 2), nabla).reshape(n, d, d, d)
        - np.matmul(nabla, G_flat).reshape(n, d, d, d).swapaxes(1, 2)
    )
    div_grad = np.einsum("neab,nab->ne", geo["dg_inv"], nabla) + np.einsum("nab,neab->ne", g_inv, dnabla)
    return {
        "nabla": nabla,
        "div": np.einsum("nab,nab->n", g_inv, nabla),
        "laplacian": np.einsum("nab,nabc->nc", g_inv, second),
        "div_grad": div_grad,
    }


def reference_polynomial_field(support, seed: int, degree: int = 4) -> ScalarField:
    """``random_polynomial_field`` by jet arithmetic, one monomial at a time, in any d.

    Each monomial is a product of powers of the rescaled coordinate jets
    ``s = u * scale - shift``, summed in the seeded coefficient order, and the
    bump multiplies the sum on every axis.
    """
    support = np.asarray(support, dtype=float)
    d = support.shape[0]
    coeffs, exponents = _polynomial_coefficients(d, seed, degree)
    scale = 2.0 / (support[:, 1] - support[:, 0])
    shift = (support[:, 1] + support[:, 0]) / (support[:, 1] - support[:, 0])

    def polynomial(seeds):
        s = [seeds[i] * scale[i] - shift[i] for i in range(d)]
        powers = [[None] * (degree + 1) for _ in range(d)]
        order, batch = seeds[0].order, seeds[0].val.shape
        acc = None
        for c, exps in zip(coeffs, exponents):
            # a plain coefficient scales the first power; only the degree-0 monomial is a constant jet
            term = float(c) if any(exps) else J.constant(c, d, order, batch_shape=batch)
            for axis, p in enumerate(exps):
                if p:
                    if powers[axis][p] is None:
                        powers[axis][p] = s[axis] ** p
                    term = term * powers[axis][p]
            acc = term if acc is None else acc + term
        return acc

    return ScalarField(support, _jet_arithmetic(support, polynomial), name=f"reference(seed={seed})")


def y_windowed_field(expr: str, support) -> ScalarField:
    """``expr`` in x, y times the bump in y alone, for a field that vanishes on the x edges of
    the support box by itself (a sharp-constant case the package's fields, windowed on every
    axis, cannot reach)."""
    support = np.asarray(support, dtype=float)
    fn = compile_expression(expr, variable_names(2))

    def evaluate(grid, order):
        return J.evaluate(lambda s: fn(*s) * window_jet(s[1], *support[1]), grid.nodes, order)

    return ScalarField(support, evaluate, name=f"{expr} * window(y)")


def cylinder_form_from_normal_components(v3: ScalarField, v4: ScalarField) -> OneFormField:
    """One-form matching the variation V = v3 nu_1 + v4 nu_2 on the grim reaper cylinder.

    In the cylinder's deterministic frames the coordinate components are
    theta = (v3 / cos x) dx + v4 dy.  The result is generic (not closed for
    generic v3, v4), which is exactly what the cross-check against the
    closed-form integrals needs: the first-order variation routes are
    insensitive to closedness.
    """

    def sec_scaled(grid, order):
        return v3.eval_jets(grid, order) / J.cos(J.variables(grid.nodes, order)[0])

    comp_x = ScalarField(v3.support, sec_scaled, name="v3/cos(x)")
    return OneFormField(np.asarray(v3.support, float), "generic", fields=(comp_x, v4))


# ---------------------------------------------------------------------------
# stability: finite differences, the proof's integration by parts, scalar helpers


def frame_mean_curvature(pg: PointGeometry) -> np.ndarray:
    """``<H, nu_p>``, shape (d, N): the mean curvature in the normal frame."""
    return np.einsum("qpn,qn->pn", pg.nu, mean_curvature_vector(pg))


def tensor_grid(*axes) -> QuadratureGrid:
    """The tensor grid on the given axis nodes, with unit weights: fields evaluate only on
    grids, so a point of the plane is the 1 x 1 grid on its coordinates."""
    axis_nodes = tuple(np.atleast_1d(np.asarray(x, dtype=float)) for x in axes)
    box = np.array([[x.min(), x.max()] for x in axis_nodes])
    return QuadratureGrid(box, 1, 1, axis_nodes, tuple(np.ones_like(x) for x in axis_nodes))


def whole_grid_block(gg: GridGeometry) -> GridGeometry:
    """``gg`` with every field of its point geometry kept: for tests that read the per-node
    arrays a grid geometry drops, such as the normal frame or the translation weight."""
    return replace(gg, pg=point_geometry(gg.chart, gg.pg.T, gg.grid.nodes))


def variation_report(gg: GridGeometry, theta: OneFormField, seed: int | None = None) -> VariationReport:
    """One variation's report with ``gg`` as the only block."""
    return run_variation_suite([gg], [(seed, theta)])[0]


def route_integral(route, block: GridGeometry, data: VariationData) -> float:
    """A route's integral over ``block``: the total of the row sums it hands back."""
    return total(route(block, data))


def deformed_functional(block: GridGeometry, data: VariationData, s: float) -> float:
    """Box-local F of the chart  Phi + s V, from its metric g(s) on the block at once."""
    cross, quad = _deformation(block.pg, data.theta, data.dtheta)
    g = block.pg.g + s * cross + (s * s) * quad
    return block.grid.integrate(_weighted_area_density(block.pg.T, block.pg.positions + s * data.v, g))


def first_variation_fd(block: GridGeometry, data: VariationData, step: float = 2e-3) -> float:
    """Richardson-extrapolated central difference of s -> F(Phi + s V)."""

    def central(h):
        return (deformed_functional(block, data, h) - deformed_functional(block, data, -h)) / (2 * h)

    d1, d2 = central(step), central(step / 2)
    return (4 * d2 - d1) / 3


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


def integration_by_parts_report(block: GridGeometry, fj: J.Jet) -> IntegrationByPartsReport:
    """Both sides of each identity for the form whose order-2 jets at the block's nodes are ``fj``."""
    pg, grid = block.pg, block.grid
    theta = fj.val
    nabla, div, _ = covariant_calculus(theta, fj.d1, fj.d2, pg)
    w = block.area_weight
    theta_t = np.einsum("an,an->n", theta, pg.T_coord)
    sharp = _sharp(pg, theta)
    pair_grad_div = np.einsum("an,an->n", sharp, div_grad(fj, pg))
    lhs_div = -grid.integrate(pair_grad_div * w)
    rhs_div = grid.integrate((div**2 + div * theta_t) * w)

    drift = np.einsum("cn,cbn->bn", pg.T_coord, nabla)
    lhs_drift = -grid.integrate(np.einsum("an,an->n", sharp, drift) * w)
    v_frame = np.einsum("ain,an->in", pg.frame_coeff, theta)
    h_v = np.einsum("ijn,jn->in", np.einsum("ijpn,pn->ijn", pg.h3, frame_mean_curvature(pg)), v_frame)
    mean_curv_pair = np.einsum("in,in->n", h_v, v_frame)
    rhs_drift = grid.integrate((div * theta_t + mean_curv_pair + theta_t**2) * w)
    return IntegrationByPartsReport(lhs_div, rhs_div, lhs_drift, rhs_drift)


def scalar_laplacian(pg: PointGeometry, scalar_jet) -> np.ndarray:
    """Laplace-Beltrami  g^{ab} (d_a d_b v - Gamma^l_ab d_l v)  of a scalar jet at pg's points."""
    hess = scalar_jet.d2 - np.einsum("labn,ln->abn", pg.Gamma, scalar_jet.d1)
    return np.einsum("abn,abn->n", pg.g_inv, hess)


def scalar_gradient_pairing(pg: PointGeometry, a_jet, b_jet) -> np.ndarray:
    """<grad a, grad b>_g at each point, from scalar jets at pg's points."""
    return np.einsum("abn,an,bn->n", pg.g_inv, a_jet.d1, b_jet.d1)
