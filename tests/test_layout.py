"""Node-last per-node tensors against the node-first formulas they replaced.

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
from oracles import node_first_covariant, node_first_geometry, node_last

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
    pts = support[:, 0] + (support[:, 1] - support[:, 0]) * rng.uniform(0.05, 0.95, size=(64, d))
    pg = ss.point_geometry(chart, ss.standard_structure(d), pts)
    jets = ss.eval_jets(chart, pts, order=3)
    # a generic form, so nabla theta has no symmetry either
    fj = ss.random_generic_variation(support, seed=13).eval_jets(pts, order=2)
    return chart, pg, jets, fj


def assert_matches(got_node_last, ref_node_first, name):
    got = np.moveaxis(got_node_last, -1, 0)
    assert got.shape == ref_node_first.shape, name
    scale = np.max(np.abs(ref_node_first))
    assert scale > 0, name
    assert np.max(np.abs(got - ref_node_first)) <= 1e-14 * scale, name


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
    assert_matches(pg.tangents, jets.d1, "tangents")
    assert_matches(pg.hessian, jets.d2, "hessian")
    assert_matches(pg.positions, jets.val, "positions")


def test_covariant_calculus_matches_node_first_reference(case):
    _, pg, jets, fj = case
    reference = node_first_covariant(fj, node_first_geometry(jets))
    cov = ss.covariant_calculus(*node_last(fj), pg)
    for name, ref in reference.items():
        assert_matches(getattr(cov, name), ref, name)
