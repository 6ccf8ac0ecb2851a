"""Truncated multivariate Taylor arithmetic up to third order.

A :class:`Jet` carries the value of a quantity together with its partial
derivatives up to ``order`` (1, 2 or 3) with respect to ``nvars`` parameters.
All payload arrays share a leading "batch" shape, so one jet evaluates a
quantity at many points simultaneously; derivative axes always trail the
batch axes.  Arithmetic propagates derivatives exactly (to round-off) by the
product and chain rules, which is what makes the downstream geometric
identity checks discretization-free.

:func:`evaluate` runs a function of coordinate jets over a point set in node
blocks; vector-valued results (chart maps, one-forms) are jets stacked along
batch axis 1.

Mixed partials are symmetric by construction: every formula below produces
symmetric ``d2``/``d3`` blocks from symmetric inputs, and the coordinate
seeds produced by :func:`variables` are symmetric (zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Jet",
    "variables",
    "constant",
    "stack",
    "evaluate",
    "node_blocks",
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
]


# Rows per node block of evaluate and of soliton_residual.  Every per-node
# quantity depends on its own node alone, so the block size changes no output
# bit; it bounds the temporaries.  On a 2-vCPU VM (numpy 2.4.6), 4096 rows
# beat 8192 and 16384 on perfbench certify (peak RSS 52 / 59 / 74 MB at equal
# wall time) and suite3d (wall 3.13 / 3.32 / 3.40 s).
NODE_BLOCK = 4096


def node_blocks(n: int) -> list[slice]:
    """Consecutive row slices of at most ``NODE_BLOCK`` rows covering ``range(n)``.

    ``n = 0`` gives one empty slice, so an empty batch still runs (and fails)
    as it would unblocked.
    """
    return [slice(i, min(i + NODE_BLOCK, n)) for i in range(0, max(n, 1), NODE_BLOCK)]


def _outer2(a, b):
    return a[..., :, None] * b[..., None, :]


def _outer3(a, b, c):
    return a[..., :, None, None] * b[..., None, :, None] * c[..., None, None, :]


def _sym_21(m, v):
    """Symmetrized product of a symmetric matrix block and a vector block.

    Returns the 3-tensor  out_ijk = m_ij v_k + m_ik v_j + m_jk v_i.
    """
    return (
        m[..., :, :, None] * v[..., None, None, :]
        + m[..., :, None, :] * v[..., None, :, None]
        + m[..., None, :, :] * v[..., :, None, None]
    )


@dataclass(frozen=True)
class Jet:
    """Value plus exact partial derivatives up to ``order``.

    ``val`` has an arbitrary batch shape ``S``; ``d1`` has shape ``S + (nvars,)``,
    ``d2`` shape ``S + (nvars, nvars)`` and ``d3`` shape ``S + (nvars,)*3``.
    Binary operations between jets truncate to the lower of the two orders;
    plain numbers and ndarrays broadcast as constants.
    """

    order: int
    val: np.ndarray
    d1: np.ndarray
    d2: np.ndarray | None = None
    d3: np.ndarray | None = None

    @property
    def nvars(self) -> int:
        return self.d1.shape[-1]

    def is_finite(self) -> bool:
        """Whether the value and every derivative are finite everywhere."""
        return all(a is None or np.all(np.isfinite(a)) for a in (self.val, self.d1, self.d2, self.d3))

    # -- helpers ---------------------------------------------------------

    def truncated(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        return Jet(
            order,
            self.val,
            self.d1,
            self.d2 if order >= 2 else None,
            self.d3 if order >= 3 else None,
        )

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            k = min(self.order, other.order)
            a, b = self.truncated(k), other.truncated(k)
            return Jet(
                k,
                a.val + b.val,
                a.d1 + b.d1,
                None if k < 2 else a.d2 + b.d2,
                None if k < 3 else a.d3 + b.d3,
            )
        return Jet(self.order, self.val + other, self.d1, self.d2, self.d3)

    __radd__ = __add__

    def __neg__(self):
        return Jet(
            self.order,
            -self.val,
            -self.d1,
            None if self.d2 is None else -self.d2,
            None if self.d3 is None else -self.d3,
        )

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            c = np.asarray(other)
            return Jet(
                self.order,
                self.val * c,
                self.d1 * c[..., None],
                None if self.d2 is None else self.d2 * c[..., None, None],
                None if self.d3 is None else self.d3 * c[..., None, None, None],
            )
        k = min(self.order, other.order)
        u, v = self.truncated(k), other.truncated(k)
        uv, vv = u.val[..., None], v.val[..., None]
        val = u.val * v.val
        d1 = u.d1 * vv + uv * v.d1
        d2 = d3 = None
        if k >= 2:
            d2 = (
                u.d2 * vv[..., None]
                + _outer2(u.d1, v.d1)
                + _outer2(v.d1, u.d1)
                + uv[..., None] * v.d2
            )
        if k >= 3:
            d3 = (
                u.d3 * vv[..., None, None]
                + _sym_21(u.d2, v.d1)
                + _sym_21(v.d2, u.d1)
                + uv[..., None, None] * v.d3
            )
        return Jet(k, val, d1, d2, d3)

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
    k = u.order
    d1 = f1[..., None] * u.d1
    d2 = d3 = None
    if k >= 2:
        d2 = f1[..., None, None] * u.d2 + f2[..., None, None] * _outer2(u.d1, u.d1)
    if k >= 3:
        d3 = (
            f1[..., None, None, None] * u.d3
            + f2[..., None, None, None] * _sym_21(u.d2, u.d1)
            + f3[..., None, None, None] * _outer3(u.d1, u.d1, u.d1)
        )
    return Jet(k, f0, d1, d2, d3)


def variables(points: np.ndarray, order: int = 3) -> list[Jet]:
    """Coordinate seed jets for a batch of points of shape ``(N, d)``."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = pts.shape[1]
    seeds = [constant(pts[:, i].copy(), d, order) for i in range(d)]
    for i, seed in enumerate(seeds):
        seed.d1[:, i] = 1.0
    return seeds


def constant(value, nvars: int, order: int = 3, batch_shape=None) -> Jet:
    """A jet with constant value and vanishing derivatives."""
    val = np.asarray(value, dtype=float)
    if batch_shape is not None:
        val = np.broadcast_to(val, batch_shape).copy()
    s = val.shape
    return Jet(
        order,
        val,
        np.zeros(s + (nvars,)),
        np.zeros(s + (nvars, nvars)) if order >= 2 else None,
        np.zeros(s + (nvars, nvars, nvars)) if order >= 3 else None,
    )


def stack(jets) -> Jet:
    """Jets of one order stacked along batch axis 1: ``d1[n, p, a]`` is partial_a of jet p."""
    fields = zip(*[(j.val, j.d1, j.d2, j.d3) for j in jets])
    return Jet(jets[0].order, *(None if f[0] is None else np.stack(f, axis=1) for f in fields))


def evaluate(fn, points, order: int) -> Jet:
    """``fn(coordinate jets)`` at the ``(N, d)`` points, one node block at a time.

    ``fn`` returns a jet, or a sequence of components (jets, or plain numbers
    for constant ones) that is stacked along batch axis 1.  Floating-point
    errors are ignored, so a domain error surfaces to the caller's
    :meth:`Jet.is_finite` check.  Each block is written into the result in
    node order.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = pts.shape
    out = None
    for rows in node_blocks(n):
        seeds = variables(pts[rows], order)
        with np.errstate(all="ignore"):
            jet = fn(seeds)
        if not isinstance(jet, Jet):
            batch = seeds[0].val.shape
            jet = stack([c if isinstance(c, Jet) else constant(c, d, order, batch) for c in jet])
        arrays = (jet.val, jet.d1, jet.d2, jet.d3)
        if out is None:
            out = [None if a is None else np.empty((n,) + a.shape[1:]) for a in arrays]
        for dst, src in zip(out, arrays):
            if dst is not None:
                dst[rows] = src
    return Jet(jet.order, *out)


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
