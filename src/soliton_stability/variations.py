"""Compactly supported variations represented as one-forms on the chart domain.

A normal field V on a Lagrangian chart corresponds to the one-form
``theta = -i_V omega`` (equivalently ``V = J theta^sharp``); closed forms are
the Lagrangian variations and exact forms the Hamiltonian ones.  Fields are
built from a smooth expression times a polynomial window on every axis,

    B(s) = (1 - s^2)^4,   s the coordinate rescaled to the support box,

which vanishes to third order on the support boundary: smooth enough for the
third-order jets used downstream, with none of the overflow trouble of
exponential cutoffs.  Expression fields take their jets by jet arithmetic.
Polynomial fields keep the window factored on every axis: each axis gives
``W_k = d^k/dx^k [s^p B(s)]`` at its own nodes, with B's derivatives in
closed form at d = 2 and from jet arithmetic on one-variable jets otherwise,
and the coefficient tensor is contracted against the W_k one axis at a time.
Fields evaluate on a QuadratureGrid only; a row block of a grid is a grid,
and gets the whole grid's jets there bit for bit.  Field values are forced to
exactly zero outside the support box.  :func:`covariant_calculus` returns the
plain arrays nabla theta, div theta^sharp and the rough Laplacian of a form's
jets.

On rectangular domains every closed form is exact, so the ``hamiltonian``
kind covers the closed class that the stability statements downstream are
phrased for.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import jets as J
from .charts import apply_J
from .errors import ConfigurationError, DomainError, EvaluationError, UnsupportedChartError
from .expressions import compile_expression, variable_names
from .geometry import PointGeometry
from .quadrature import QuadratureGrid

__all__ = [
    "ScalarField",
    "OneFormField",
    "scalar_field_from_expression",
    "random_polynomial_field",
    "hamiltonian_variation",
    "generic_variation",
    "random_hamiltonian_variation",
    "random_generic_variation",
    "lagrangian_defect",
    "covariant_calculus",
    "normal_field_from_form",
    "variation_field_jets",
    "default_support_box",
    "require_lagrangian",
    "require_support_inside",
]


def window_jet(u: J.Jet, lo: float, hi: float) -> J.Jet:
    """The polynomial bump (1 - s^2)^4 rescaled from [lo, hi] to s in [-1, 1]."""
    s = u * (2.0 / (hi - lo)) - (hi + lo) / (hi - lo)
    return (1.0 - s * s) ** 4


def _support_mask(grid: QuadratureGrid, support: np.ndarray) -> np.ndarray:
    """Which grid nodes lie in the box: the C-order outer AND of per-axis masks."""
    keep = np.ones((), dtype=bool)
    for x, (lo, hi) in zip(grid.axis_nodes, support):
        keep = np.logical_and.outer(keep, (x >= lo) & (x <= hi))
    return keep.reshape(-1)


def _mask_jet(jet: J.Jet, keep: np.ndarray) -> J.Jet:
    """Zero a jet in place at the nodes (its last axis) where keep is False."""
    if not np.all(keep):
        for a in (jet.val, jet.d1, jet.d2, jet.d3):
            if a is not None:
                np.copyto(a, 0.0, where=~keep)
    return jet


@dataclass(frozen=True)
class ScalarField:
    """Compactly supported scalar on the parameter domain with exact jets.

    ``evaluate(grid, order)`` returns the field's jet at the nodes of a
    :class:`QuadratureGrid`, in the grid's order, in arrays of its own:
    :meth:`eval_jets` zeroes them in place outside the support box, and
    refuses a grid of another dimension and non-finite data.  A row block of a
    grid (:meth:`QuadratureGrid.rows`) is a grid, so fields evaluate block by
    block.
    """

    support: np.ndarray
    evaluate: Callable[[QuadratureGrid, int], J.Jet]
    name: str = ""

    def eval_jets(self, grid: QuadratureGrid, order: int = 3) -> J.Jet:
        d = len(grid.shape)
        if d != self.support.shape[0]:
            raise DomainError(f"points have dimension {d}, field has {self.support.shape[0]}")
        # a domain error inside the field surfaces as the non-finite check below
        with np.errstate(all="ignore"):
            raw = self.evaluate(grid, order)
        out = _mask_jet(raw, _support_mask(grid, self.support))
        if not out.is_finite():
            bad = grid.nodes[out.first_non_finite()].tolist()
            raise EvaluationError(f"scalar field {self.name!r} produced non-finite jet data at point {bad}")
        return out


def _jet_arithmetic(support: np.ndarray, fn):
    """Evaluator of ``fn(coordinate jets)`` times the bump on every axis.

    A plain-number result becomes a constant jet before the bump multiplies
    it, so the product is jet times jet and the signs of its zero derivatives
    do not depend on the constant's sign.  :func:`jets.evaluate` runs it on
    the grid's nodes, a row block's sub-grid when a variation runs.
    """

    def windowed(seeds):
        raw = fn(seeds)
        if not isinstance(raw, J.Jet):
            raw = J.constant(raw, len(seeds), seeds[0].order, batch_shape=seeds[0].val.shape)
        for seed, (lo, hi) in zip(seeds, support):
            raw = raw * window_jet(seed, lo, hi)
        return raw

    return lambda grid, order: J.evaluate(windowed, grid.nodes, order)


def scalar_field_from_expression(expr: str, support) -> ScalarField:
    """``expr`` times the bump on every axis."""
    support = np.asarray(support, dtype=float)
    fn = compile_expression(expr, variable_names(support.shape[0]))
    return ScalarField(support, _jet_arithmetic(support, lambda seeds: fn(*seeds)), name=expr)


def _monomial_exponents(dim: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree <= ``degree``, by total degree, then lexicographic."""
    exps = (e for e in itertools.product(range(degree + 1), repeat=dim) if sum(e) <= degree)
    return sorted(exps, key=lambda e: (sum(e), e))


def _per_axis_cache(make):
    """``make(x, order)`` formed once per axis-node array and order: the factors of the axes
    >= 1, which every row block of a grid shares.  Keyed by the nodes' bytes, so equal
    nodes hit whatever array holds them; the factors are read, never written."""
    cached = functools.lru_cache(maxsize=4)(lambda key, order: make(np.frombuffer(key), order))
    return lambda x, order: cached(np.ascontiguousarray(x, dtype=float).tobytes(), order)


def _derivative_vandermonde(s: np.ndarray, scale: float, ncoef: int, order: int):
    """``[V_0, ..., V_order]`` with ``V_k[n, p] = d^k/dx^k s(x)^p`` at the nodes' s.

    ``s = scale * (x - mid)`` is x rescaled to [-1, 1], so the k-th derivative
    carries the chain-rule factor ``scale**k``.  The powers are a running
    product, not libm ``pow``.
    """
    powers = np.cumprod(np.column_stack([np.ones_like(s)] + [s] * (ncoef - 1)), axis=1)
    out = [powers]
    falling = np.ones(ncoef)  # p (p - 1) ... (p - k + 1), zero for p < k
    for k in range(1, order + 1):
        falling = falling * (np.arange(ncoef) - k + 1)
        vk = np.zeros_like(powers)
        vk[:, k:] = powers[:, : ncoef - k] * (falling[k:] * scale**k)
        out.append(vk)
    return out


def _bump_derivatives(s: np.ndarray, scale: float) -> list[np.ndarray]:
    """``[B, B', B'', B''']`` of the bump B = u^4, u = 1 - s^2, in closed form at the
    nodes' s, the k-th derivative in x carrying ``scale**k`` as in
    :func:`_derivative_vandermonde`."""
    u = 1.0 - s * s
    u2 = u * u
    return [
        u2 * u2,
        (-8.0 * scale) * s * u * u2,
        scale**2 * (48.0 * s * s - 8.0 * u) * u2,
        scale**3 * (144.0 * u - 192.0 * s * s) * s * u,
    ]


def _polynomial_coefficients(d: int, seed: int, degree: int):
    """Seeded coefficients, uniform in [-1, 1], and the exponents they multiply."""
    exponents = _monomial_exponents(d, degree)
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, size=len(exponents))
    return coeffs, exponents


def _factored_window(
    x: np.ndarray, lo: float, hi: float, ncoef: int, order: int, closed_bump: bool
) -> np.ndarray:
    """``W[k, n, p] = d^k/dx^k [s^p B(s)]`` at the nodes x, k <= order.

    Leibniz on the derivative Vandermonde matrices and the bump's
    derivatives: :func:`_bump_derivatives` if ``closed_bump``, else
    :func:`window_jet` on one-variable jets.
    """
    scale = 2.0 / (hi - lo)
    s = scale * (x - 0.5 * (lo + hi))
    v = _derivative_vandermonde(s, scale, ncoef, order)
    if closed_bump:
        b = _bump_derivatives(s, scale)
    else:
        bump = J.evaluate(lambda seeds: window_jet(seeds[0], lo, hi), x[:, None], order)
        b = [a.reshape(-1) for a in (bump.val, bump.d1, bump.d2, bump.d3)[: order + 1]]
    w = [sum(math.comb(k, j) * v[j] * b[k - j][:, None] for j in range(k + 1)) for k in range(order + 1)]
    return np.stack(w)


def _factored_window_evaluator(support: np.ndarray, seed: int, degree: int):
    """Evaluator of (polynomial * bump) for a support box of any dimension, the bump factored per axis.

    The dense ``(degree+1)^d`` coefficient tensor is contracted against each
    axis's :func:`_factored_window` in turn, carrying only the partials of
    total order <= order.  Before the last axis each is summed over the power
    p by a Python loop, so every node sees the same multiply-adds in the same
    order; the last axis is one product per partial.  The windows form at the
    axis nodes and broadcast along their own axis, so the full grid forms only
    at the last axis; the windows of the axes >= 1, which every row block of a
    grid shares, form once per field.
    """
    d = support.shape[0]
    ncoef = degree + 1
    coeffs = np.zeros((ncoef,) * d)
    for c, exps in zip(*_polynomial_coefficients(d, seed, degree)):
        coeffs[exps] = c
    closed_bump = d == 2  # d != 2 takes the bump's jets by jet arithmetic: perfbench's suite3d counts its ops

    def window(a: int, x: np.ndarray, order: int) -> np.ndarray:
        shape = (1,) * a + x.shape + (1,) * (d - 1 - a)
        w = _factored_window(x, *support[a], ncoef, order, closed_bump)
        return np.ascontiguousarray(w.swapaxes(1, 2)).reshape((order + 1, ncoef) + shape)

    shared = [_per_axis_cache(functools.partial(window, a)) for a in range(1, d)]

    def evaluate(grid: QuadratureGrid, order: int) -> J.Jet:
        # parts[(k_0, ..., k_a)]: the tensor contracted over axes 0..a, its other powers first
        parts = {(): coeffs.reshape(coeffs.shape + (1,) * d)}
        x0, *rest = grid.axis_nodes
        *outer, last = [window(0, x0, order)] + [w(x, order) for w, x in zip(shared, rest)]
        for w in outer:
            done, parts = parts, {}
            for ks, part in done.items():
                for k in range(order + 1 - sum(ks)):
                    acc = part[0] * w[k, 0]
                    for p in range(1, ncoef):
                        acc += part[p] * w[k, p]
                    parts[ks + (k,)] = acc
        # einsum, not matmul: OpenBLAS rounds a row by how many rows it multiplies at once (on
        # one row, and at degree 8 on any count not a multiple of 4); einsum's rows depend on
        # their own row alone
        done, parts = parts, {}
        for ks, part in done.items():
            rows = np.ascontiguousarray(part.reshape(ncoef, -1).T)
            for k in range(order + 1 - sum(ks)):
                parts[ks + (k,)] = np.einsum("ip,pj->ij", rows, last[k].reshape(ncoef, -1)).reshape(-1)
        # the partial at an index tuple counts each axis in it; a rank's partials go once stacked
        levels = [parts.pop((0,) * d)]
        for rank in range(1, order + 1):
            slots = itertools.product(range(d), repeat=rank)
            full = np.stack([parts[tuple(t.count(a) for a in range(d))] for t in slots])
            levels.append(full.reshape((d,) * rank + (-1,)))
            parts = {ks: part for ks, part in parts.items() if sum(ks) > rank}
        return J.Jet(order, *levels)

    return evaluate


def random_polynomial_field(support, seed: int, degree: int = 4) -> ScalarField:
    """Random polynomial (in support-normalized coordinates) times the bump.

    Coefficients are uniform in [-1, 1] from a seeded generator; the seed is
    recorded in reports so suites are reproducible.  In every d the jets come
    from per-axis factored windows ``W_k`` (:func:`_factored_window_evaluator`).
    """
    support = np.asarray(support, dtype=float)
    evaluate = _factored_window_evaluator(support, seed, degree)
    return ScalarField(support, evaluate, name=f"poly(seed={seed},deg={degree})")


# ---------------------------------------------------------------------------
# one-forms


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

    def eval_jets(self, grid: QuadratureGrid, order: int = 2) -> J.Jet:
        """The components' jets at a QuadratureGrid's nodes.

        Node axis last: ``val[a, n] = theta_a``, ``d1[a, c, n] = partial_c
        theta_a`` and ``d2[a, c, e, n] = partial_c partial_e theta_a``.
        """
        if self.potential is not None:
            phi = self.potential.eval_jets(grid, order=order + 1)
            return J.Jet(order, phi.d1, phi.d2, phi.d3)
        return J.stack([f.eval_jets(grid, order=order) for f in self.fields])


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
    return generic_variation(
        [random_polynomial_field(support, seed * 1000 + axis, degree) for axis in range(len(support))]
    )


def lagrangian_defect(dtheta: np.ndarray) -> float:
    """max |partial_a theta_b - partial_b theta_a| from ``dtheta[a, c, n] = partial_c theta_a``.

    This is the coordinate expression of d(theta); Christoffel contributions
    to the covariant antisymmetrization cancel by symmetry, so closedness of
    the form is a purely coordinate condition.  Pairs a < b only: one row at d = 2.
    """
    a, b = np.triu_indices(dtheta.shape[0], 1)
    return float(np.max(np.abs(dtheta[a, b] - dtheta[b, a]), initial=0.0))


# ---------------------------------------------------------------------------
# covariant calculus


def covariant_calculus(theta, dtheta, ddtheta, pg: PointGeometry):
    """``(nabla, div, laplacian)`` of a one-form at pg's points, node axis last.

    ``nabla[a, b, n] = (nabla_a theta)_b``, ``div[n] = g^{ab} nabla_a theta_b``
    (the divergence of theta^sharp) and ``laplacian[c, n]``, the rough
    (connection) Laplacian of theta.  The form enters node-last:
    ``theta[a, n]``, ``dtheta[a, c, n] = d_c theta_a`` and
    ``ddtheta[a, c, e, n] = d_c d_e theta_a`` (d = partial).  The traces
    contract those jets against pg's K and P, so no rank-3 array is formed
    per form:

        lap_c = g^ab d_a d_b theta_c - P^l_c theta_l
                - Gamma^l_bc g^ab (d_a theta_l + (nabla_a theta)_l) - K^l (nabla_l theta)_c
    """
    if pg.P is None:
        raise ValueError("covariant calculus needs order-3 chart jets")
    G, g_inv = pg.Gamma, pg.g_inv
    nabla = np.einsum("ban->abn", dtheta) - np.einsum("labn,ln->abn", G, theta)
    div = np.einsum("abn,abn->n", g_inv, nabla)
    raised = np.einsum("abn,aln->bln", g_inv, np.einsum("lan->aln", dtheta) + nabla)
    lap = np.einsum("abn,cabn->cn", g_inv, ddtheta) - np.einsum("lcn,ln->cn", pg.P, theta)
    lap = lap - np.einsum("lbcn,bln->cn", G, raised) - np.einsum("ln,lcn->cn", pg.K, nabla)
    return nabla, div, lap


# ---------------------------------------------------------------------------
# correspondence with normal fields


def require_lagrangian(lagrangian: bool) -> None:
    """Refuse with UnsupportedChartError unless the chart is Lagrangian, the one case where J
    maps tangents to normals."""
    if not lagrangian:
        raise UnsupportedChartError("the one-form/normal-field correspondence needs a Lagrangian chart")


def normal_field_from_form(theta: np.ndarray, pg: PointGeometry) -> np.ndarray:
    """Ambient normal field V = J theta^sharp, shape (m, N), from ``theta`` (d, N).

    Only meaningful on Lagrangian charts, where J maps tangent to normal
    space; the inverse correspondence is ``theta = -i_V omega``.
    """
    require_lagrangian(pg.lagrangian)
    sharp = np.einsum("ban,an->bn", pg.g_inv, theta)
    ambient = np.einsum("qbn,bn->qn", pg.tangents, sharp)
    return apply_J(ambient)


# ---------------------------------------------------------------------------
# variation field with first derivatives (for deforming the chart along V)


def variation_field_jets(theta: np.ndarray, dtheta: np.ndarray, pg: PointGeometry) -> np.ndarray:
    """First derivatives of V = J theta^sharp at pg's points.

    Returns ``dV[p, c, n] = partial_c V_p``, shape ``(m, d, N)``, from the
    product rule on ``V = J t_b g^{ba} theta_a``:

        partial_c V = J (partial_c t_b g^{ba} theta_a + t_b partial_c g^{ba} theta_a
                         + t_b g^{ba} partial_c theta_a),

    with tangents ``t_b``, their derivatives (the chart's second
    derivatives), ``g^{ba}`` and its derivatives from ``pg``, and ``theta``
    (d, N) and ``dtheta[a, c, n] = partial_c theta_a`` node-last.  Deformed
    charts ``Phi + s V`` then have exact metric data.
    """
    dsharp = np.einsum("cban,an->bcn", pg.dg_inv, theta) + np.einsum("ban,acn->bcn", pg.g_inv, dtheta)
    d_amb = np.einsum("qbn,bcn->qcn", pg.tangents, dsharp)
    del dsharp  # hold one (m, d, N) term at a time
    d_amb = np.einsum("qcbn,bn->qcn", pg.hessian, np.einsum("ban,an->bn", pg.g_inv, theta)) + d_amb
    return apply_J(d_amb)


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
