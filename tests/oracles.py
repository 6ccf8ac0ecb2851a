"""Reference computations that only the tests use.

Each helper recomputes something the package computes another way (finite
differences against exact jets, a one-form from frame components, the
translator defect through the tangent frame, the box-local functional on a
fresh grid) or reads a structural property off a result (index symmetry of
a jet, one derivative of a jet).
"""

from __future__ import annotations

import numpy as np

import soliton_stability.jets as J
from soliton_stability.charts import Chart, eval_jets
from soliton_stability.errors import DomainError
from soliton_stability.geometry import PointGeometry, mean_curvature_vector
from soliton_stability.quadrature import QuadratureGrid, tensor_rule
from soliton_stability.stability import _weighted_area
from soliton_stability.variations import OneFormField, ScalarField

# ---------------------------------------------------------------------------
# jets


def symmetry_defect(jet: J.Jet) -> float:
    """Max deviation of d2/d3 from full index symmetry."""
    worst = 0.0
    if jet.d2 is not None:
        worst = max(worst, float(np.max(np.abs(jet.d2 - np.swapaxes(jet.d2, -1, -2)), initial=0.0)))
    if jet.d3 is not None:
        t = jet.d3
        for perm in ((-1, -3, -2), (-2, -1, -3)):
            worst = max(worst, float(np.max(np.abs(t - np.moveaxis(t, (-3, -2, -1), perm)), initial=0.0)))
    return worst


def partial(jet: J.Jet, i: int) -> J.Jet:
    """The i-th first derivative as a jet of one order lower."""
    if jet.order < 2:
        raise ValueError("need order >= 2 to extract a derivative jet")
    return J.Jet(
        jet.order - 1,
        jet.d1[..., i],
        jet.d2[..., i, :],
        None if jet.d3 is None else jet.d3[..., i, :, :],
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
        return eval_jets(chart, p[None, :], order=1).val[0]

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
    return J.Jet(3, f0[None, :], d1[None], d2[None], d3[None])


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


def functional_value(chart: Chart, structure, box, cells: int = 40, points_per_cell: int = 8) -> float:
    """Box-local weighted area  int_box exp(<T, Phi>) sqrt(det g) du."""
    grid = tensor_rule(box, cells, points_per_cell)
    jets = eval_jets(chart, grid.nodes, order=1)
    g = np.einsum("nma,nmb->nab", jets.d1, jets.d1)
    return _weighted_area(grid, structure, jets.val, g)


def frame_translator_defect(pg: PointGeometry) -> np.ndarray:
    """T^perp - H with T^perp = T - sum_i <T, e_i> e_i in the orthonormal tangent frame."""
    e = np.einsum("nma,nai->nmi", pg.tangents, pg.frame_coeff)
    T = pg.structure.T
    t_perp = T[None, :] - np.einsum("ni,npi->np", np.einsum("p,npi->ni", T, e), e)
    return t_perp - mean_curvature_vector(pg)


def frame_covariant_matrix(nabla: np.ndarray, pg: PointGeometry) -> np.ndarray:
    """nabla(theta) expressed in the orthonormal tangent frame."""
    A = pg.frame_coeff
    return np.einsum("nai,nbj,nab->nij", A, A, nabla)


def one_form_pullback(pg: PointGeometry, field: np.ndarray) -> np.ndarray:
    """Coordinate components of -i_field omega restricted to the chart."""
    Jv = np.einsum("pq,nq->np", pg.structure.J, field)
    return -np.einsum("np,npa->na", Jv, pg.tangents)


def cylinder_form_from_normal_components(v3: ScalarField, v4: ScalarField) -> OneFormField:
    """One-form matching the variation V = v3 nu_1 + v4 nu_2 on the grim reaper cylinder.

    In the cylinder's deterministic frames the coordinate components are
    theta = (v3 / cos x) dx + v4 dy.  The result is generic (not closed for
    generic v3, v4), which is exactly what the cross-check against the
    closed-form integrals needs: the first-order variation routes are
    insensitive to closedness.
    """

    def sec_scaled(where, order):
        pts = where.nodes if isinstance(where, QuadratureGrid) else where
        return v3.eval_jets(where, order) / J.cos(J.variables(pts, order)[0])

    comp_x = ScalarField(v3.support, sec_scaled, name="v3/cos(x)")
    return OneFormField(np.asarray(v3.support, float), "generic", fields=(comp_x, v4))
