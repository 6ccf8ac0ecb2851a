"""Truncated multivariate Taylor arithmetic up to third order.

A :class:`Jet` carries the value of a quantity together with its partial
derivatives up to ``order`` (1, 2 or 3) with respect to ``nvars`` parameters.
One jet evaluates a quantity at many nodes at once, with the node axis last
and contiguous, as in every per-node array of the package: component axes
lead, the derivative axes come next, and ``val[..., n]``, ``d1[..., a, n]``,
``d2[..., a, b, n]``, ``d3[..., a, b, c, n]``.  Arithmetic propagates
derivatives exactly (to round-off) by the product and chain rules, which is
what makes the downstream geometric identity checks discretization-free.

:func:`evaluate` runs a function of coordinate jets on the points it is
given and returns one jet; :func:`stack` stacks jets along axis 0 (the
components of a one-form), writing each into the stacked levels and then
dropping it.  The coordinate seeds of :func:`variables` hold only their
values: their unit first derivatives and zero higher ones are read-only views
broadcast along the nodes.  So an evaluation peaks at its output, its
temporaries and the seeds' values.  A chart runs each component on
the sub-grid of the parameters it names, once per walk where that fits one
block (``charts.eval_jets``), so at order 3 grim reaper x line in C^3 peaks
at 240.07 floats per node of an 8,100-node block of a walk, 240 of them
output, and at 240.88 on the walk's first block, which runs the components
(240.35 when every block ran them; 283 on every node, and 480 with seeds
that held their zeros and a copy by ``np.stack``).  Cutting a large grid
into blocks is the caller's business (``quadrature.QuadratureGrid.blocks``).

Mixed partials are bit-symmetric: the product and chain rules compute each
distinct entry of ``d2``/``d3`` once, at its sorted index tuple
``i <= j (<= k)`` (10 of 27 ``d3`` entries at d = 3), and copy it to every
other slot, and the coordinate seeds are zero there.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Jet",
    "variables",
    "constant",
    "stack",
    "evaluate",
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
]


@functools.cache
def _sym_index(d: int, rank: int):
    """Sorted index tuples ``i <= j (<= k)`` of a symmetric ``(d,)*rank`` block.

    Returns ``(idx, back)``: ``idx[r]`` holds the r-th index of every sorted
    tuple, and ``back`` maps each slot of the flattened block to its tuple.
    """
    tuples = list(itertools.combinations_with_replacement(range(d), rank))
    position = {t: n for n, t in enumerate(tuples)}
    back = [position[tuple(sorted(s))] for s in itertools.product(range(d), repeat=rank)]
    return tuple(np.array(c, dtype=np.intp) for c in zip(*tuples)), np.array(back, dtype=np.intp)


def _expand(packed, d: int, rank: int):
    """The full symmetric block from its sorted-tuple entries (axis -2)."""
    full = packed[..., _sym_index(d, rank)[1], :]
    return full.reshape(packed.shape[:-2] + (d,) * rank + packed.shape[-1:])


def _lift(a, rank: int):
    """``a`` with ``rank`` unit axes before its node axis, so it broadcasts against a derivative."""
    return a.reshape(a.shape[:-1] + (1,) * rank + a.shape[-1:])


def _sym_mv(m, v, i, j, k):
    """Sorted entries of the symmetrized product  m_ij v_k + m_ik v_j + m_jk v_i."""
    out = m[..., i, j, :] * v[..., k, :] + m[..., i, k, :] * v[..., j, :]
    return out + m[..., j, k, :] * v[..., i, :]


@dataclass(frozen=True)
class Jet:
    """Value plus exact partial derivatives up to ``order``.

    ``val`` has a batch shape ``S + (N,)``, node axis last; ``d1`` has shape
    ``S + (nvars, N)``, ``d2`` shape ``S + (nvars, nvars, N)`` and ``d3`` shape
    ``S + (nvars,)*3 + (N,)``.  Binary operations between jets truncate to the
    lower of the two orders; a plain number or 0-d array broadcasts as a
    constant, and an ndarray constant carries the jet's batch shape.
    """

    order: int
    val: np.ndarray
    d1: np.ndarray
    d2: np.ndarray | None = None
    d3: np.ndarray | None = None

    @property
    def nvars(self) -> int:
        return self.d1.shape[-2]

    @property
    def levels(self) -> tuple:
        """``(val, d1, ..., d_order)``, which ``Jet(order, *levels)`` rebuilds; the fields
        above ``order`` are None, and no other module of the package reads them."""
        return (self.val, self.d1, self.d2, self.d3)[: self.order + 1]

    def is_finite(self) -> bool:
        """Whether the value and every derivative are finite everywhere."""
        return all(np.all(np.isfinite(a)) for a in self.levels)

    def first_non_finite(self) -> int:
        """The first node whose value or some derivative is not finite, for a jet that
        fails :meth:`is_finite`, so a refusal can name the point."""
        finite = np.all([np.isfinite(a).reshape(-1, a.shape[-1]).all(axis=0) for a in self.levels], axis=0)
        return int(np.flatnonzero(~finite)[0])

    # -- helpers ---------------------------------------------------------

    def truncated(self, order: int) -> "Jet":
        return self if order >= self.order else Jet(order, *self.levels[: order + 1])

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            # zip stops at the shorter levels: the sum truncates to the lower order
            return Jet(min(self.order, other.order), *(a + b for a, b in zip(self.levels, other.levels)))
        return Jet(self.order, self.val + other, *self.levels[1:])

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.order, *(-a for a in self.levels))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c = np.asarray(other)
            return Jet(self.order, *(a * _lift(c, k) for k, a in enumerate(self.levels)))
        order = min(self.order, other.order)
        u, v = self.truncated(order), other.truncated(order)
        uv, vv = _lift(u.val, 1), _lift(v.val, 1)
        val = u.val * v.val
        d1 = u.d1 * vv + uv * v.d1
        d2 = d3 = None
        # sums associate as in tests/oracles.reference_product: regrouping moves last bits
        if order >= 2:
            (i, j), _ = _sym_index(self.nvars, 2)
            d2 = u.d2[..., i, j, :] * vv + u.d1[..., i, :] * v.d1[..., j, :]
            d2 = d2 + v.d1[..., i, :] * u.d1[..., j, :]
            d2 = _expand(d2 + uv * v.d2[..., i, j, :], self.nvars, 2)
        if order >= 3:
            (i, j, k), _ = _sym_index(self.nvars, 3)
            d3 = u.d3[..., i, j, k, :] * vv + _sym_mv(u.d2, v.d1, i, j, k) + _sym_mv(v.d2, u.d1, i, j, k)
            d3 = _expand(d3 + uv * v.d3[..., i, j, k, :], self.nvars, 3)
        return Jet(order, val, d1, d2, d3)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return self * (1.0 / np.asarray(other))
        return self * other._reciprocal()

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self):
        s = self.val
        return _compose(self, 1.0 / s, -1.0 / s**2, 2.0 / s**3, -6.0 / s**4)

    def __pow__(self, p):
        if isinstance(p, Jet):
            raise TypeError("jet exponents are not supported; use exp/log")
        p = float(p)
        s = self.val
        if p == int(p) and p >= 0:
            # integer powers stay valid for non-positive bases; skip terms with
            # zero falling-factorial coefficient so 0**negative never appears
            n = int(p)
            if n == 0:
                return constant(np.ones_like(s), self.nvars, self.order)
            if n == 1:
                return self
            coeffs = []
            fall = 1.0
            for k in range(4):
                coeffs.append(fall * s ** (n - k) if n - k >= 0 else np.zeros_like(s))
                fall *= n - k
            return _compose(self, *coeffs)
        return _compose(
            self,
            s**p,
            p * s ** (p - 1),
            p * (p - 1) * s ** (p - 2),
            p * (p - 1) * (p - 2) * s ** (p - 3),
        )


def _compose(u: Jet, f0, f1, f2=None, f3=None) -> Jet:
    """Chain rule for a scalar function applied to a jet.

    ``f0..f3`` are the function's plain derivative values at ``u.val``.
    """
    a, g1 = u.d1, _lift(f1, 1)
    d1 = g1 * a
    d2 = d3 = None
    if u.order >= 2:
        (i, j), _ = _sym_index(u.nvars, 2)
        g2 = _lift(f2, 1)
        d2 = _expand(g1 * u.d2[..., i, j, :] + g2 * (a[..., i, :] * a[..., j, :]), u.nvars, 2)
    if u.order >= 3:
        (i, j, k), _ = _sym_index(u.nvars, 3)
        d3 = g1 * u.d3[..., i, j, k, :] + g2 * _sym_mv(u.d2, a, i, j, k)
        d3 = _expand(d3 + _lift(f3, 1) * (a[..., i, :] * a[..., j, :] * a[..., k, :]), u.nvars, 3)
    return Jet(u.order, f0, d1, d2, d3)


def variables(points: np.ndarray, order: int = 3) -> list[Jet]:
    """Coordinate seed jets, batch shape ``(N,)``, for points of shape ``(N, d)``.

    A seed holds only its values: its first derivative is a unit vector and its
    second and third derivatives are zeros, each a read-only view broadcast along
    the nodes, so the seeds of a block hold ``d`` floats per node.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    zeros = [np.broadcast_to(0.0, (d,) * k + (n,)) for k in range(2, order + 1)]
    unit = np.eye(d)[:, :, None]
    return [Jet(order, pts[:, i].copy(), np.broadcast_to(unit[i], (d, n)), *zeros) for i in range(d)]


def constant(value, nvars: int, order: int = 3, batch_shape=None) -> Jet:
    """A jet with constant value and vanishing derivatives; ``value`` carries the node axis last."""
    val = np.asarray(value, dtype=float)
    if batch_shape is not None:
        val = np.broadcast_to(val, batch_shape).copy()
    lead, n = val.shape[:-1], val.shape[-1:]
    return Jet(order, val, *(np.zeros(lead + (nvars,) * k + n) for k in range(1, order + 1)))


def stack(jets) -> Jet:
    """Jets stacked along axis 0, at the lowest of their orders: ``d1[p, a, n]`` is partial_a
    of jet p at node n.

    Each jet is written into the result's levels and then dropped from the list,
    so only the result and the jets not yet written are held.
    """
    jets = list(jets)
    order, nvars, batch_shape = min(jet.order for jet in jets), jets[0].nvars, jets[0].val.shape
    lead, n = (len(jets),) + batch_shape[:-1], batch_shape[-1:]
    levels = [np.empty(lead + (nvars,) * k + n) for k in range(order + 1)]
    for p, jet in enumerate(jets):
        jets[p] = None
        if jet.val.shape != batch_shape or jet.nvars != nvars:
            raise ValueError(
                f"component {p} has batch shape {jet.val.shape} in {jet.nvars} variables, "
                f"not {batch_shape} in {nvars}"
            )
        for level, a in zip(levels, jet.levels):
            level[p] = a
    return Jet(order, *levels)


def evaluate(fn, points, order: int) -> Jet:
    """``fn(coordinate jets)`` at all of the ``(N, d)`` points, in arrays of its own.

    ``fn`` returns a jet, or a plain number for a constant, which becomes its
    value and zero derivatives.  A returned jet's read-only levels, the
    broadcast derivatives a seed lends it, are copied, so the caller may write
    every level in place.  Floating-point errors are ignored, so a domain
    error surfaces to the caller's :meth:`Jet.is_finite` check.
    """
    seeds = variables(points, order)
    with np.errstate(all="ignore"):
        out = fn(seeds)
    if not isinstance(out, Jet):
        return constant(out, len(seeds), order, batch_shape=seeds[0].val.shape)
    return Jet(out.order, *(a if a.flags.writeable else a.copy() for a in out.levels))


def sin(u):
    if not isinstance(u, Jet):
        return np.sin(u)
    s, c = np.sin(u.val), np.cos(u.val)
    return _compose(u, s, c, -s, -c)


def cos(u):
    if not isinstance(u, Jet):
        return np.cos(u)
    s, c = np.sin(u.val), np.cos(u.val)
    return _compose(u, c, -s, -c, s)


def tan(u):
    if not isinstance(u, Jet):
        return np.tan(u)
    t = np.tan(u.val)
    sec2 = 1.0 + t * t
    return _compose(u, t, sec2, 2.0 * t * sec2, sec2 * (2.0 + 6.0 * t * t))


def exp(u):
    if not isinstance(u, Jet):
        return np.exp(u)
    e = np.exp(u.val)
    return _compose(u, e, e, e, e)


def log(u):
    if not isinstance(u, Jet):
        return np.log(u)
    s = u.val
    return _compose(u, np.log(s), 1.0 / s, -1.0 / s**2, 2.0 / s**3)


def sqrt(u):
    if not isinstance(u, Jet):
        return np.sqrt(u)
    return u**0.5
