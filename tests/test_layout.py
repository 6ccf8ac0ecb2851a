"""The node-last layout: what every jet producer returns, and the per-node
tensors against the node-first formulas they replaced.

Every jet is C-contiguous with its component axes first, its derivative axes
next and the node axis last: ``val[..., n]``, ``d1[..., a, n]``,
``d2[..., a, b, n]`` and ``d3[..., a, b, c, n]``.

``oracles.node_first_geometry`` and ``oracles.node_first_covariant`` keep the
index formulas and the flattened-Christoffel ``matmul`` contractions of the
node-first layout.  The grim reaper alone cannot guard the change of layout:
its metric is diagonal and J pairs the chart's own coordinates, so an index
transposition can cancel there.  The gradient graph of a generic cubic in C^3
is Lagrangian with a full metric ``I + (D^2 u)^2`` and Christoffel symbols
without index symmetries, so it cannot hide one.
"""

import numpy as np
import pytest

import soliton_stability as ss
import soliton_stability.jets as J
from oracles import div_grad, node_first_covariant, node_first_geometry, tensor_grid

# u = 0.3 x^3 + 0.2 x^2 y - 0.25 x y z + 0.15 y^2 z + 0.1 z^3 + 0.4 x y + 0.2 y z
CUBIC_GRADIENT_GRAPH = {
    "name": "cubic_gradient_graph",
    "domain": [[-1.0, 1.0]] * 3,
    "components": [
        "x",
        "0.9*x**2 + 0.4*x*y - 0.25*y*z + 0.4*y",
        "y",
        "0.2*x**2 - 0.25*x*z + 0.3*y*z + 0.4*x + 0.2*z",
        "z",
        "-0.25*x*y + 0.15*y**2 + 0.3*z**2 + 0.2*y",
    ],
}

SUPPORT2 = ss.default_support_box([[-1.47, 1.47], [-3.0, 3.0]])
SUPPORT3 = ss.default_support_box([[-1.47, 1.47], [-2.0, 2.0], [-2.0, 2.0]])
GRID2 = ss.tensor_rule(SUPPORT2, cells=2, points_per_cell=3)  # 36 nodes
GRID3 = ss.tensor_rule(SUPPORT3, cells=2, points_per_cell=3)  # 216 nodes
# inside both support boxes and the domains of both charts below
POINTS2 = np.random.default_rng(2).uniform(-0.9, 0.9, size=(30, 2))
POINTS3 = np.random.default_rng(3).uniform(-0.9, 0.9, size=(30, 3))


def _scalar(support):
    return ss.random_polynomial_field(support, seed=1)


def _cubic():
    return ss.chart_from_config(CUBIC_GRADIENT_GRAPH)


# name -> (producer, component axes, parameters, nodes, order); at d = 2 the
# windowed polynomial field has closed-form jets, at d = 3 only its polynomial
# does and the bump runs jet arithmetic on one-variable jets at each axis's nodes
PRODUCERS = {
    "evaluate-scalar": (lambda: J.evaluate(lambda s: J.sin(s[0]) * s[1], POINTS2, 3), (), 2, 30, 3),
    "evaluate-stacked": (lambda: J.evaluate(lambda s: [s[1] * s[0], 1.0], POINTS2, 3), (2,), 2, 30, 3),
    "chart": (lambda: ss.eval_jets(ss.grim_reaper_cylinder(), POINTS2, 3), (4,), 2, 30, 3),
    "chart-3d": (lambda: ss.eval_jets(_cubic(), POINTS3, 2), (6,), 3, 30, 2),
    "field-closed-form-row": (lambda: _scalar(SUPPORT2).eval_jets(GRID2.rows(2, 3), 3), (), 2, 6, 3),
    "field-closed-form-grid": (lambda: _scalar(SUPPORT2).eval_jets(GRID2, 3), (), 2, 36, 3),
    "field-arithmetic-row": (lambda: _scalar(SUPPORT3).eval_jets(GRID3.rows(2, 3), 3), (), 3, 36, 3),
    "field-arithmetic-grid": (lambda: _scalar(SUPPORT3).eval_jets(GRID3, 1), (), 3, 216, 1),
    "form-hamiltonian": (
        lambda: ss.hamiltonian_variation(_scalar(SUPPORT2)).eval_jets(GRID2), (2,), 2, 36, 2
    ),
    "form-generic": (lambda: ss.random_generic_variation(SUPPORT3, 1).eval_jets(GRID3), (3,), 3, 216, 2),
}


@pytest.mark.parametrize("name", list(PRODUCERS))
def test_jets_are_node_last_and_contiguous(name):
    produce, lead, d, n, order = PRODUCERS[name]
    jet = produce()
    assert (jet.order, jet.nvars) == (order, d)
    for rank, a in enumerate((jet.val, jet.d1, jet.d2, jet.d3)):
        if rank > order:
            assert a is None
        else:
            assert a.shape == lead + (d,) * rank + (n,), rank
            assert a.flags.c_contiguous, rank


@pytest.fixture(
    scope="module",
    params=["perturbed_grim_reaper", CUBIC_GRADIENT_GRAPH],
    ids=["perturbed_grim_reaper", "cubic_gradient_graph"],
)
def case(request):
    chart = ss.chart_from_config(request.param)
    d = chart.dim
    support = ss.default_support_box(chart.domain)
    rng = np.random.default_rng(31 + d)
    # 64 nodes on a tensor grid of random axis nodes
    per_axis = round(64 ** (1 / d))
    grid = tensor_grid(*(lo + (hi - lo) * rng.uniform(0.05, 0.95, size=per_axis) for lo, hi in support))
    pg = ss.point_geometry(chart, np.eye(2 * d)[0], grid.nodes)
    jets = ss.eval_jets(chart, grid.nodes, order=3)
    # a generic form, so nabla theta has no symmetry either
    fj = ss.random_generic_variation(support, seed=13).eval_jets(grid, order=2)
    return chart, pg, jets, fj


def assert_close(got, ref, name):
    assert got.shape == ref.shape, name
    scale = np.max(np.abs(ref))
    assert scale > 0, name
    assert np.max(np.abs(got - ref)) <= 1e-14 * scale, name


def assert_matches(got_node_last, ref_node_first, name):
    assert_close(np.moveaxis(got_node_last, -1, 0), ref_node_first, name)


def test_case_is_lagrangian_with_a_full_metric(case):
    chart, pg, _, _ = case
    assert pg.lagrangian
    off_diagonal = np.max(np.abs(pg.g[0, 1]))
    if chart.dim == 3:
        assert min(off_diagonal, np.max(np.abs(pg.g[0, 2])), np.max(np.abs(pg.g[1, 2]))) > 1e-2
    else:
        assert off_diagonal > 1e-3


def test_point_geometry_matches_node_first_reference(case):
    _, pg, jets, _ = case
    reference = node_first_geometry(jets)
    for name, ref in reference.items():
        assert_matches(getattr(pg, name), ref, name)
    assert_close(pg.tangents, jets.d1, "tangents")
    assert_close(pg.hessian, jets.d2, "hessian")
    assert_close(pg.positions, jets.val, "positions")


def test_covariant_calculus_matches_node_first_reference(case):
    _, pg, jets, fj = case
    reference = node_first_covariant(fj, node_first_geometry(jets))
    nabla, div, laplacian = ss.covariant_calculus(fj.val, fj.d1, fj.d2, pg)
    computed = {"nabla": nabla, "div": div, "laplacian": laplacian, "div_grad": div_grad(fj, pg)}
    for name, ref in reference.items():
        assert_matches(computed[name], ref, name)
