"""Compactly supported variations represented as one-forms on the chart domain.

A normal field V on a Lagrangian chart corresponds to the one-form
``theta = -i_V omega`` (equivalently ``V = J theta^sharp``); closed forms are
the Lagrangian variations and exact forms the Hamiltonian ones.  Fields are
built from a smooth expression times a polynomial window

    B(s) = (1 - s^2)^4,   s the coordinate rescaled to the support box,

which vanishes to third order on the support boundary: smooth enough for the
third-order jets used downstream, with none of the overflow trouble of
exponential cutoffs.  Field values are forced to exactly zero outside the
support box.

On rectangular domains every closed form is exact, so the ``hamiltonian``
kind covers the closed class that the stability statements downstream are
phrased for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import jets as J
from .charts import MapJets
from .errors import ConfigurationError, EvaluationError, UnsupportedChartError
from .expressions import compile_expression, variable_names
from .geometry import PointGeometry
from .quadrature import QuadratureGrid

__all__ = [
    "ScalarField",
    "FormJets",
    "OneFormField",
    "CovariantData",
    "bump_field",
    "scalar_field_from_expression",
    "random_polynomial_field",
    "hamiltonian_variation",
    "generic_variation",
    "random_hamiltonian_variation",
    "random_generic_variation",
    "lagrangian_defect",
    "covariant_calculus",
    "frame_covariant_matrix",
    "ricci_identity_residual",
    "normal_field_from_form",
    "one_form_pullback",
    "variation_field_jets",
    "default_support_box",
    "require_support_inside",
]


def window_jet(u: J.Jet, lo: float, hi: float) -> J.Jet:
    """The polynomial bump (1 - s^2)^4 rescaled from [lo, hi] to s in [-1, 1]."""
    s = u * (2.0 / (hi - lo)) - (hi + lo) / (hi - lo)
    return (1.0 - s * s) ** 4


def _support_mask(points: np.ndarray, support: np.ndarray) -> np.ndarray:
    return np.all((points >= support[:, 0]) & (points <= support[:, 1]), axis=1)


def _nodes(where) -> np.ndarray:
    """The (N, d) points of a QuadratureGrid or of a point batch."""
    if isinstance(where, QuadratureGrid):
        return where.nodes
    return np.atleast_2d(np.asarray(where, dtype=float))


def _mask_jet(jet: J.Jet, keep: np.ndarray) -> J.Jet:
    """Zero a scalar jet (batch shape (N,)) on the rows where keep is False."""
    if np.all(keep):
        return jet

    def m(arr):
        if arr is None:
            return None
        out = arr.copy()
        out[~keep] = 0.0
        return out

    return J.Jet(jet.order, m(jet.val), m(jet.d1), m(jet.d2), m(jet.d3))


@dataclass(frozen=True)
class ScalarField:
    """Compactly supported scalar on the parameter domain with exact jets.

    ``builder`` maps physical-coordinate jets to a scalar jet; axes with
    ``window[i]`` True are multiplied by the support bump.  Axes left
    unwindowed must vanish on the support boundary by construction of the
    expression itself (used for sharp-constant tests).  ``jet_evaluator``,
    when set, bypasses the builder with a closed-form evaluation
    (points or QuadratureGrid, order) -> Jet; 2-d polynomial fields use it to
    avoid jet arithmetic in hot loops.

    ``eval_jets`` takes scattered points ``(N, d)`` or a
    :class:`QuadratureGrid`, whose nodes it evaluates in the grid's order.
    """

    support: np.ndarray
    builder: Callable[[Sequence[J.Jet]], J.Jet] | None = None
    window: tuple[bool, ...] | None = None
    name: str = ""
    jet_evaluator: Callable | None = None

    @property
    def dim(self) -> int:
        return self.support.shape[0]

    def eval_jets(self, where, order: int = 3) -> J.Jet:
        pts = _nodes(where)
        if self.jet_evaluator is not None:
            raw = self.jet_evaluator(where if isinstance(where, QuadratureGrid) else pts, order)
        else:
            if self.builder is None:
                raise ValueError("scalar field needs a builder or a jet_evaluator")
            seeds = J.variables(pts, order)
            raw = self.builder(seeds)
            if not isinstance(raw, J.Jet):
                raw = J.constant(raw, self.dim, order, batch_shape=(pts.shape[0],))
            window = self.window if self.window is not None else (True,) * self.dim
            for i, flag in enumerate(window):
                if flag:
                    raw = raw * window_jet(seeds[i], self.support[i, 0], self.support[i, 1])
        out = _mask_jet(raw, _support_mask(pts, self.support))
        for arr in (out.val, out.d1, out.d2, out.d3):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise EvaluationError(f"scalar field {self.name!r} produced non-finite jet data")
        return out


def bump_field(support) -> ScalarField:
    """The plain product bump over the support box."""
    support = np.asarray(support, dtype=float)
    return ScalarField(support, lambda seeds: 1.0, name="bump")


def scalar_field_from_expression(expr: str, support, window=None) -> ScalarField:
    support = np.asarray(support, dtype=float)
    d = support.shape[0]
    fn = compile_expression(expr, variable_names(d))
    win = tuple(window) if window is not None else (True,) * d
    return ScalarField(support, lambda seeds: fn(*seeds), window=win, name=expr)


def _monomial_exponents(dim: int, degree: int) -> list[tuple[int, ...]]:
    if dim == 1:
        return [(k,) for k in range(degree + 1)]
    out = []
    for total in range(degree + 1):
        for head in range(total + 1):
            for rest in _monomial_exponents(dim - 1, total - head):
                if sum(rest) == total - head:
                    out.append((head,) + rest)
    # deterministic order: by total degree, then lexicographic
    return sorted(set(out), key=lambda e: (sum(e), e))


_BUMP_COEFFS = np.array([1.0, 0.0, -4.0, 0.0, 6.0, 0.0, -4.0, 0.0, 1.0])  # (1 - s^2)^4


def _derivative_vandermonde(x: np.ndarray, lo: float, hi: float, ncoef: int, order: int):
    """``[V_0, ..., V_order]`` with ``V_k[n, p] = d^k/dx^k s(x)^p`` at the nodes x.

    ``s`` is x rescaled from [lo, hi] to [-1, 1], so the k-th derivative
    carries the affine chain-rule factor ``(2 / (hi - lo))^k``.
    """
    scale = 2.0 / (hi - lo)
    s = scale * (x - 0.5 * (lo + hi))
    powers = s[:, None] ** np.arange(ncoef)
    out = [powers]
    falling = np.ones(ncoef)  # p (p - 1) ... (p - k + 1), zero for p < k
    for k in range(1, order + 1):
        falling = falling * (np.arange(ncoef) - k + 1)
        vk = np.zeros_like(powers)
        vk[:, k:] = powers[:, : ncoef - k] * (falling[k:] * scale**k)
        out.append(vk)
    return out


def _polynomial_bump_evaluator(support: np.ndarray, coeff_matrix: np.ndarray):
    """Closed-form jets for (polynomial * bump) on a 2-d support box.

    The windowed field is itself one bivariate polynomial ``s^T C t`` in the
    normalized coordinates, so the (i, j) partial is ``V_i(s)^T C V_j(t)``
    with per-axis derivative Vandermonde matrices.  On a tensor grid that is
    one small matrix product per partial, evaluated once per axis node; at
    scattered points the same matrices are contracted row by row.
    """
    nx, ny = coeff_matrix.shape
    full = np.zeros((nx + 8, ny + 8))
    bump2d = np.outer(_BUMP_COEFFS, _BUMP_COEFFS)
    for i in range(nx):
        for j in range(ny):
            c = coeff_matrix[i, j]
            if c != 0.0:
                full[i : i + 9, j : j + 9] += c * bump2d

    def evaluate(where, order: int) -> J.Jet:
        if isinstance(where, QuadratureGrid):
            x, y = where.axis_nodes
            n = x.shape[0] * y.shape[0]
            # einsum, not matmul: threaded BLAS is slow on this small outer product
            spec = "ip,jp->ij"
        else:
            x, y = where[:, 0], where[:, 1]
            n = x.shape[0]
            spec = "np,np->n"
        vx = _derivative_vandermonde(x, *support[0], full.shape[0], order)
        vy = _derivative_vandermonde(y, *support[1], full.shape[1], order)
        rows = [v @ full for v in vx]

        def dval(i, j):
            return np.einsum(spec, rows[i], vy[j]).reshape(n)

        val = dval(0, 0)
        d1 = np.stack([dval(1, 0), dval(0, 1)], axis=1)
        d2 = d3 = None
        if order >= 2:
            d2 = np.empty((n, 2, 2))
            d2[:, 0, 0] = dval(2, 0)
            d2[:, 0, 1] = d2[:, 1, 0] = dval(1, 1)
            d2[:, 1, 1] = dval(0, 2)
        if order >= 3:
            d3 = np.empty((n, 2, 2, 2))
            d3[:, 0, 0, 0] = dval(3, 0)
            v21 = dval(2, 1)
            v12 = dval(1, 2)
            d3[:, 0, 0, 1] = d3[:, 0, 1, 0] = d3[:, 1, 0, 0] = v21
            d3[:, 0, 1, 1] = d3[:, 1, 0, 1] = d3[:, 1, 1, 0] = v12
            d3[:, 1, 1, 1] = dval(0, 3)
        return J.Jet(order, val, d1, d2, d3)

    return evaluate


def random_polynomial_field(support, seed: int, degree: int = 4) -> ScalarField:
    """Random polynomial (in support-normalized coordinates) times the bump.

    Coefficients are uniform in [-1, 1] from a seeded generator; the seed is
    recorded in reports so suites are reproducible.
    """
    support = np.asarray(support, dtype=float)
    d = support.shape[0]
    exponents = _monomial_exponents(d, degree)
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=len(exponents))

    def builder(seeds):
        s = [
            seeds[i] * (2.0 / (support[i, 1] - support[i, 0]))
            - (support[i, 1] + support[i, 0]) / (support[i, 1] - support[i, 0])
            for i in range(d)
        ]
        powers = [[None] * (degree + 1) for _ in range(d)]
        acc = None
        for c, exps in zip(coeffs, exponents):
            term = J.constant(c, d, seeds[0].order, batch_shape=seeds[0].val.shape)
            for axis, p in enumerate(exps):
                if p:
                    if powers[axis][p] is None:
                        powers[axis][p] = s[axis] ** p
                    term = term * powers[axis][p]
            acc = term if acc is None else acc + term
        return acc

    evaluator = None
    if d == 2:
        cmat = np.zeros((degree + 1, degree + 1))
        for c, (i, j) in zip(coeffs, exponents):
            cmat[i, j] = c
        evaluator = _polynomial_bump_evaluator(support, cmat)
    return ScalarField(
        support, builder, name=f"poly(seed={seed},deg={degree})", jet_evaluator=evaluator
    )


# ---------------------------------------------------------------------------
# one-forms


@dataclass(frozen=True)
class FormJets:
    """Coordinate components of a one-form with derivatives.

    ``val[n, a] = theta_a``, ``d1[n, a, c] = partial_c theta_a``,
    ``d2[n, a, c, e] = partial_c partial_e theta_a``.
    """

    order: int
    val: np.ndarray
    d1: np.ndarray
    d2: np.ndarray | None = None


@dataclass(frozen=True)
class OneFormField:
    """Compactly supported one-form on the chart domain.

    ``kind`` is ``hamiltonian`` (built as d(potential), hence exact) or
    ``generic``.
    """

    support: np.ndarray
    kind: str
    fields: tuple
    potential: ScalarField | None = None

    @property
    def dim(self) -> int:
        return self.support.shape[0]

    def eval_jets(self, where, order: int = 2) -> FormJets:
        """Form jets at scattered points ``(N, d)`` or at a QuadratureGrid's nodes."""
        if self.potential is not None:
            phi = self.potential.eval_jets(where, order=order + 1)
            return FormJets(order, phi.d1, phi.d2, phi.d3 if order >= 2 else None)
        comps = [f.eval_jets(where, order=order) for f in self.fields]
        return FormJets(
            order,
            np.stack([c.val for c in comps], axis=1),
            np.stack([c.d1 for c in comps], axis=1),
            np.stack([c.d2 for c in comps], axis=1) if order >= 2 else None,
        )


def hamiltonian_variation(phi: ScalarField) -> OneFormField:
    """theta = d(phi), with jets obtained by exact differentiation of phi."""
    return OneFormField(phi.support, "hamiltonian", fields=(), potential=phi)


def generic_variation(components: Sequence[ScalarField]) -> OneFormField:
    """Arbitrary compactly supported one-form from per-axis component fields."""
    comps = tuple(components)
    support = comps[0].support
    for c in comps[1:]:
        if not np.array_equal(c.support, support):
            raise ConfigurationError("one-form components must share a support box")
    if len(comps) != support.shape[0]:
        raise ConfigurationError("need one component field per parameter axis")
    return OneFormField(support, "generic", fields=comps)


def random_hamiltonian_variation(support, seed: int, degree: int = 4) -> OneFormField:
    return hamiltonian_variation(random_polynomial_field(support, seed, degree))


def random_generic_variation(support, seed: int, degree: int = 4) -> OneFormField:
    support = np.asarray(support, dtype=float)
    d = support.shape[0]
    fields = tuple(
        random_polynomial_field(support, seed * 1000 + axis, degree) for axis in range(d)
    )
    return OneFormField(support, "generic", fields=fields)


def lagrangian_defect(theta: OneFormField, grid) -> float:
    """max |partial_a theta_b - partial_b theta_a| over the grid.

    This is the coordinate expression of d(theta); Christoffel contributions
    to the covariant antisymmetrization cancel by symmetry, so closedness of
    the form is a purely coordinate condition.
    """
    pts = np.atleast_2d(np.asarray(grid, dtype=float))
    fj = theta.eval_jets(pts, order=1)
    curl = fj.d1 - fj.d1.swapaxes(1, 2)
    return float(np.max(np.abs(curl)))


# ---------------------------------------------------------------------------
# covariant calculus


@dataclass(frozen=True)
class CovariantData:
    """Covariant derivatives of a one-form at a batch of points.

    * ``nabla[n, a, b] = (nabla_a theta)_b``
    * ``div[n] = g^{ab} nabla_a theta_b``  (divergence of theta^sharp)
    * ``laplacian[n, c]`` rough (connection) Laplacian of theta
    * ``div_grad[n, a] = partial_a div`` (gradient of the scalar divergence)
    """

    nabla: np.ndarray
    div: np.ndarray
    laplacian: np.ndarray
    div_grad: np.ndarray


def covariant_calculus(fj: FormJets, pg: PointGeometry) -> CovariantData:
    """Assemble nabla(theta), its trace, and the rough Laplacian at pg's points."""
    if fj.d2 is None or pg.Gamma_partial is None:
        raise ValueError("covariant calculus needs order-2 form jets and order-3 chart jets")
    G, dG = pg.Gamma, pg.Gamma_partial
    theta_val, dtheta, ddtheta = fj.val, fj.d1, fj.d2
    n, d = theta_val.shape
    # Christoffel symbols as (N, d, d^2) matrices, G_flat[n, l, a*d + b] = Gamma^l_ab:
    # every contraction against Gamma below is then one batched matrix product
    G_flat = G.reshape(n, d, d * d)

    nabla = dtheta.swapaxes(1, 2) - np.einsum("nlab,nl->nab", G, theta_val)
    div = np.einsum("nab,nab->n", pg.g_inv, nabla)

    # dnabla[n,e,a,b] = partial_e (nabla_a theta)_b; partial_e Gamma^l_ab theta_l is a
    # matmul over l against the transposed view dG_t[n, e, a*d + b, l]
    dG_t = dG.reshape(n, d, d, d * d).swapaxes(2, 3)
    dnabla = (
        np.einsum("nbae->neab", ddtheta)
        - np.matmul(dG_t, theta_val[:, None, :, None]).reshape(n, d, d, d)
        - np.matmul(dtheta.swapaxes(1, 2), G_flat).reshape(n, d, d, d)
    )
    # second covariant derivative (nabla^2 theta)_{a b c} = nabla_a (nabla theta)_{bc}
    second = (
        dnabla
        - np.matmul(G_flat.swapaxes(1, 2), nabla).reshape(n, d, d, d)
        - np.matmul(nabla, G_flat).reshape(n, d, d, d).swapaxes(1, 2)
    )
    laplacian = np.einsum("nab,nabc->nc", pg.g_inv, second)
    div_grad = np.einsum("neab,nab->ne", pg.dg_inv, nabla) + np.einsum(
        "nab,neab->ne", pg.g_inv, dnabla
    )
    return CovariantData(nabla=nabla, div=div, laplacian=laplacian, div_grad=div_grad)


def frame_covariant_matrix(nabla: np.ndarray, pg: PointGeometry) -> np.ndarray:
    """nabla(theta) expressed in the orthonormal tangent frame."""
    A = pg.frame_coeff
    return np.einsum("nai,nbj,nab->nij", A, A, nabla)


def ricci_identity_residual(fj: FormJets, pg: PointGeometry, ricci: np.ndarray) -> float:
    """Pointwise residual of the commutation identity used by the square form.

    For closed theta, trace-commuting second covariant derivatives gives
    ``(rough Laplacian theta)_i = partial_i(div) + Ric_ik theta^k`` in an
    orthonormal frame; the residual measures all three terms computed by
    independent code paths (jet calculus for the left side and the gradient,
    the Gauss equation for the Ricci term).  ``fj`` holds order-2 form jets
    at pg's points.
    """
    cov = covariant_calculus(fj, pg)
    A = pg.frame_coeff
    v_frame = np.einsum("nai,na->ni", A, fj.val)
    lap_frame = np.einsum("nai,na->ni", A, cov.laplacian)
    grad_div_frame = np.einsum("nai,na->ni", A, cov.div_grad)
    resid = lap_frame - grad_div_frame - np.einsum("nik,nk->ni", ricci, v_frame)
    return float(np.max(np.abs(resid)))


# ---------------------------------------------------------------------------
# correspondence with normal fields


def normal_field_from_form(fj: FormJets, pg: PointGeometry) -> np.ndarray:
    """Ambient normal field V = J theta^sharp, shape (N, m).

    Only meaningful on Lagrangian charts, where J maps tangent to normal
    space; the inverse correspondence is ``theta = -i_V omega``.
    """
    if not pg.lagrangian:
        raise UnsupportedChartError(
            "the one-form/normal-field correspondence needs a Lagrangian chart"
        )
    sharp = np.einsum("nba,na->nb", pg.g_inv, fj.val)
    ambient = np.einsum("nqb,nb->nq", pg.tangents, sharp)
    return np.einsum("pq,nq->np", pg.structure.J, ambient)


def one_form_pullback(pg: PointGeometry, field: np.ndarray) -> np.ndarray:
    """Coordinate components of -i_field omega restricted to the chart."""
    Jv = np.einsum("pq,nq->np", pg.structure.J, field)
    return -np.einsum("np,npa->na", Jv, pg.tangents)


# ---------------------------------------------------------------------------
# variation field with first derivatives (for deforming the chart along V)


def variation_field_jets(fj: FormJets, pg: PointGeometry, chart_jets: MapJets) -> np.ndarray:
    """First derivatives of V = J theta^sharp at pg's points.

    Returns ``d1`` with shape ``(N, m, d)``, from the product rule on
    ``V = J t_b g^{ba} theta_a``:

        partial_c V = J (partial_c t_b g^{ba} theta_a + t_b partial_c g^{ba} theta_a
                         + t_b g^{ba} partial_c theta_a),

    with tangents ``t_b`` and their derivatives from the order-2 chart jets
    at the same points, ``g^{ba}`` and its derivatives from ``pg`` and
    ``theta`` from order-1 form jets.  Deformed charts ``Phi + s V`` then have
    exact metric data.
    """
    sharp = np.einsum("nba,na->nb", pg.g_inv, fj.val)
    # index layouts chosen so that each contraction runs over a contiguous axis;
    # the chart's d2 is symmetric in its two derivative axes
    dsharp = np.einsum("ncba,na->nbc", pg.dg_inv, fj.val) + np.matmul(pg.g_inv, fj.d1)
    d_ambient = np.einsum("nqcb,nb->nqc", chart_jets.d2, sharp) + np.matmul(pg.tangents, dsharp)
    return np.matmul(pg.structure.J, d_ambient)


# ---------------------------------------------------------------------------
# support-box plumbing


def default_support_box(domain, shrink: float = 0.8) -> np.ndarray:
    """Support box concentric with the domain, scaled by ``shrink`` per axis."""
    domain = np.asarray(domain, dtype=float)
    mid = 0.5 * (domain[:, 0] + domain[:, 1])
    half = 0.5 * (domain[:, 1] - domain[:, 0]) * shrink
    return np.stack([mid - half, mid + half], axis=1)


def require_support_inside(domain, support) -> None:
    """Check the support clears the domain boundary by >= 2 grid cells.

    The cell size is taken at the default 40-cell resolution regardless of
    the runtime quadrature (a coarser integration rule does not loosen the
    geometric clearance a variation needs from the domain boundary).
    """
    domain = np.asarray(domain, dtype=float)
    support = np.asarray(support, dtype=float)
    widths = support[:, 1] - support[:, 0]
    margin = 2.0 * widths / 40.0
    lo_ok = support[:, 0] - domain[:, 0] >= margin - 1e-15
    hi_ok = domain[:, 1] - support[:, 1] >= margin - 1e-15
    if not (np.all(lo_ok) & np.all(hi_ok)):
        raise ConfigurationError(
            f"support box {support.tolist()} too close to the domain boundary "
            f"{domain.tolist()} (needs two grid cells of margin)"
        )
