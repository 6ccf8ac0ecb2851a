"""Closed-form stability integrals for the grim reaper cylinder.

For that chart the weighted stability inequality collapses to unweighted
plane integrals: the curvature side is the plain square integral of the
first normal component, and the gradient side picks up a 1/cos^2 x factor
on the y-derivatives only,

    int (V3)^2 dx dy   <=   int [(V3_x)^2 + (V4_x)^2] dx dy
                           + int (1/cos^2 x) [(V3_y)^2 + (V4_y)^2] dx dy.

Slice by slice in y this is the Wirtinger inequality on an interval of
length pi (first Dirichlet eigenvalue 1, extremal cos x), which is what the
per-slice report and the discrete Dirichlet-gap solver certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ConvergenceError
from .geometry import batch_det, grid_maxima, mean_curvature_vector, normal_part
from .quadrature import QuadratureGrid, total
from .variations import ScalarField

__all__ = [
    "CylinderIntegrals",
    "cylinder_stability_integrals",
    "closed_form_deviations",
    "require_cylinder_dims",
    "dirichlet_ground_state",
    "dirichlet_gap",
]

DIRICHLET_MIN_INTERVALS = 100


@dataclass(frozen=True)
class CylinderIntegrals:
    """Both sides of the cylinder stability inequality plus per-slice data."""

    curvature_integral: float
    gradient_integral: float
    wirtinger_lhs: float
    wirtinger_rhs: float
    slice_lhs: np.ndarray
    slice_rhs: np.ndarray

    def slices_hold(self) -> bool:
        return bool(np.all(self.slice_lhs <= self.slice_rhs + 1e-12))


def require_cylinder_dims(d: int, m: int = 4) -> None:
    """Raise ConfigurationError unless d = 2 parameters map into m = 4 real dimensions (C^2)."""
    if (d, m) != (2, 4):
        raise ConfigurationError(f"cylinder needs a chart with 2 parameters in C^2, got {d} in R^{m}")


def cylinder_stability_integrals(
    v3: ScalarField, v4: ScalarField, grid: QuadratureGrid
) -> CylinderIntegrals:
    """Evaluate the closed-form integrals on a tensor quadrature grid, one row block at a time.

    ``v3``/``v4`` are the normal components of the variation in the cylinder's
    natural normal frame in C^2; both must be supported inside the 2-d grid box.
    The fields are evaluated per block of :meth:`QuadratureGrid.blocks`; the
    gradient integral is the :func:`quadrature.total` of the blocks' row sums,
    and each y-slice's sums over x add the x-rows one at a time, in order, by
    ``np.add.accumulate``, so no value depends on the block size.
    """
    require_cylinder_dims(len(grid.shape))
    ny = grid.shape[1]
    slices = np.zeros((1, 2, ny))  # per y-slice: sum over x of wx v3^2 and of wx (d_x v3)^2
    gradient = []
    for block in grid.blocks():
        j3, j4 = v3.eval_jets(block, order=1), v4.eval_jets(block, order=1)
        val3 = j3.val.reshape(-1, ny)
        dx3, dy3 = j3.d1.reshape(2, -1, ny)
        dx4, dy4 = j4.d1.reshape(2, -1, ny)
        sec2 = 1.0 / np.cos(block.axis_nodes[0][:, None]) ** 2
        gradient.append(block.row_sums(dx3**2 + dx4**2 + sec2 * (dy3**2 + dy4**2)))
        rows = block.axis_weights[0][:, None, None] * np.stack([val3**2, dx3**2], axis=1)
        slices = np.add.accumulate(np.concatenate([slices, rows]), axis=0)[-1:]
    slice_lhs, slice_rhs = slices[0]
    wy = grid.axis_weights[1]
    wirtinger_lhs = float(np.sum(wy * slice_lhs))
    return CylinderIntegrals(
        curvature_integral=wirtinger_lhs,
        gradient_integral=total(np.concatenate(gradient)),
        wirtinger_lhs=wirtinger_lhs,
        wirtinger_rhs=float(np.sum(wy * slice_rhs)),
        slice_lhs=slice_lhs,
        slice_rhs=slice_rhs,
    )


def closed_form_deviations(chart, T, grid: QuadratureGrid) -> dict[str, float]:
    """Max deviation of numeric cylinder geometry from its closed forms on the diagnostic ``grid``.

    On the grim reaper cylinder the metric is diag(1/cos^2 x, 1), the area
    density and translation weight are both 1/cos x, the only nonzero
    ambient second-fundamental-form component is h(d_x, d_x) = (1, -tan x, 0, 0),
    and |H| = cos x.  Returns one max-abs deviation per quantity, by
    :func:`geometry.grid_maxima`; no normal frame is read, so any chart with 2
    parameters in C^2 gets a report.
    """
    require_cylinder_dims(chart.dim, chart.ambient_dim)

    def deviations(pg, points):
        x = points[:, 0]
        sec = 1.0 / np.cos(x)
        g_exact = np.zeros_like(pg.g)
        g_exact[0, 0], g_exact[1, 1] = sec**2, 1.0
        sff = normal_part(pg, pg.hessian)  # less h(d_x, d_x), in place: no closed-form array is formed
        sff[0, 0, 0], sff[1, 0, 0] = sff[0, 0, 0] - 1.0, sff[1, 0, 0] + np.tan(x)
        curvature = np.linalg.norm(mean_curvature_vector(pg), axis=0) - np.cos(x)
        area_density, weight = np.sqrt(batch_det(pg.g)), np.exp(np.einsum("p,pn->n", pg.T, pg.positions))
        return pg.g - g_exact, area_density - sec, sff, curvature, weight - sec

    names = ("metric", "area_density", "second_fundamental_form", "mean_curvature", "weight")
    return dict(zip(names, grid_maxima(chart, T, grid, deviations)))


def _thomas_solve(lower: float, diag: float, upper: float, rhs: np.ndarray) -> np.ndarray:
    """Tridiagonal solve with constant bands (Thomas algorithm).

    Both sweeps run on Python floats: each step is the same IEEE double
    operation as on numpy scalars, without their per-element overhead.  One
    list holds the right-hand side, then the forward sweep's values, then the
    solution.
    """
    x = rhs.tolist()
    cp = [upper / diag]
    x[0] = x[0] / diag
    for i in range(1, len(x)):
        denom = diag - lower * cp[i - 1]
        cp.append(upper / denom)
        x[i] = (x[i] - lower * x[i - 1]) / denom
    for i in range(len(x) - 2, -1, -1):
        x[i] = x[i] - cp[i] * x[i + 1]
    return np.array(x)


def dirichlet_ground_state(n: int, max_iter: int = 500, rtol: float = 1e-14):
    """Lowest Dirichlet eigenpair of -d^2/dx^2 on (-pi/2, pi/2).

    Second-order central differences on ``n`` subintervals, smallest
    eigenvalue by (unshifted) inverse iteration with the Rayleigh quotient as
    the eigenvalue estimate.  Returns ``(eigenvalue, nodes, eigenvector)``;
    the continuum limit is eigenvalue 1 with eigenfunction cos x.
    """
    if n < DIRICHLET_MIN_INTERVALS:
        raise ValueError(f"need at least {DIRICHLET_MIN_INTERVALS} subintervals")
    h = math.pi / n
    nodes = -math.pi / 2 + h * np.arange(1, n)
    inv_h2 = 1.0 / h**2

    def apply_a(v):
        out = 2.0 * inv_h2 * v
        out[:-1] -= inv_h2 * v[1:]
        out[1:] -= inv_h2 * v[:-1]
        return out

    v = np.ones(n - 1)
    v /= np.linalg.norm(v)
    lam_old = np.inf
    for _ in range(max_iter):
        w = _thomas_solve(-inv_h2, 2.0 * inv_h2, -inv_h2, v)
        w /= np.linalg.norm(w)
        lam = float(w @ apply_a(w))
        if abs(lam - lam_old) <= rtol * max(1.0, abs(lam)):
            return lam, nodes, w
        lam_old = lam
        v = w
    raise ConvergenceError(f"inverse iteration did not converge in {max_iter} iterations")


def dirichlet_gap(n: int) -> float:
    """Smallest discrete Dirichlet eigenvalue on (-pi/2, pi/2); tends to 1."""
    lam, _, _ = dirichlet_ground_state(n)
    return lam
