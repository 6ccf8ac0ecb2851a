"""One-form fields, covariant calculus, and the normal-field correspondence."""

import numpy as np
import pytest

import soliton_stability as ss
from oracles import frame_covariant_matrix, one_form_pullback
import soliton_stability.jets as J
from soliton_stability.errors import ConfigurationError, UnsupportedChartError
from soliton_stability.geometry import curvature_tensor
from soliton_stability.variations import (
    _polynomial_jet_arithmetic,
    ricci_identity_residual,
    window_jet,
)


@pytest.fixture(scope="module")
def support(gr_support):
    return gr_support


def interior_points(support, n=7):
    axes = [np.linspace(lo, hi, n + 2)[1:-1] for lo, hi in support]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def test_window_vanishes_to_third_order(support):
    lo, hi = support[0]
    pts = np.array([[lo, 0.0], [hi, 0.0]])
    s, _ = J.variables(pts, order=3)
    w = window_jet(s, lo, hi)
    assert np.allclose(w.val, 0.0)
    assert np.allclose(w.d1, 0.0)
    assert np.allclose(w.d2, 0.0)


def test_field_zero_outside_support(support):
    phi = ss.random_polynomial_field(support, seed=2)
    outside = np.array([[support[0, 1] + 0.05, 0.0], [0.0, support[1, 1] + 0.2]])
    j = phi.eval_jets(outside, order=3)
    for arr in (j.val, j.d1, j.d2, j.d3):
        assert np.all(arr == 0.0)


def test_polynomial_fast_path_matches_builder(support):
    phi = ss.random_polynomial_field(support, seed=5)
    slow_field = ss.ScalarField(phi.support, _polynomial_jet_arithmetic(phi.support, 5, 4), name="slow")
    pts = interior_points(support, 5)
    inner = ss.tensor_rule(support, cells=3, points_per_cell=4)
    # a grid reaching past the support box also exercises the zero mask
    outer = ss.tensor_rule(1.2 * support, cells=4, points_per_cell=3)
    for where, nodes in ((pts, pts), (inner, inner.nodes), (outer, outer.nodes)):
        fast = phi.eval_jets(where, order=3)
        slow = slow_field.eval_jets(nodes, order=3)
        for name in ("val", "d1", "d2", "d3"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert a.shape == b.shape
            assert np.allclose(a, b, atol=1e-12)
    assert np.any(phi.eval_jets(outer, order=1).val == 0.0)


def test_polynomial_field_in_three_variables():
    """The d = 3 jet-arithmetic field: each jet level against central differences of the one below."""
    support = ss.default_support_box([[-1.47, 1.47], [-2.0, 2.0], [-2.0, 2.0]])
    phi = ss.random_polynomial_field(support, seed=3)
    pts = interior_points(support, 3)
    jet = phi.eval_jets(pts, order=3)
    scale = 1.0 + max(float(np.max(np.abs(a))) for a in (jet.val, jet.d1, jet.d2, jet.d3))
    h = 1e-5
    for k in range(3):
        step = np.zeros(3)
        step[k] = h
        up, down = phi.eval_jets(pts + step, order=2), phi.eval_jets(pts - step, order=2)
        assert np.max(np.abs((up.val - down.val) / (2 * h) - jet.d1[:, k])) <= 1e-8 * scale
        assert np.max(np.abs((up.d1 - down.d1) / (2 * h) - jet.d2[:, :, k])) <= 1e-8 * scale
        assert np.max(np.abs((up.d2 - down.d2) / (2 * h) - jet.d3[..., k])) <= 1e-8 * scale
    # a quadrature grid gives the same jets at its nodes, and exact zeros past the support
    grid = ss.tensor_rule(1.2 * support, cells=2, points_per_cell=3)
    on_grid = phi.eval_jets(grid, order=3)
    outside = ~np.all((grid.nodes >= support[:, 0]) & (grid.nodes <= support[:, 1]), axis=1)
    assert np.any(outside)
    for name in ("val", "d1", "d2", "d3"):
        arr = getattr(on_grid, name)
        assert np.array_equal(arr, getattr(phi.eval_jets(grid.nodes, order=3), name))
        assert np.all(arr[outside] == 0.0)
    assert np.any(on_grid.val[~outside] != 0.0)


def test_exact_forms_are_closed(support):
    pts = interior_points(support)
    for seed in range(5):
        theta = ss.random_hamiltonian_variation(support, seed=seed)
        assert ss.lagrangian_defect(theta.eval_jets(pts, order=1)) <= 1e-12
    zero = ss.hamiltonian_variation(ss.scalar_field_from_expression("0", support))
    assert ss.lagrangian_defect(zero.eval_jets(pts, order=1)) == 0.0


def test_hand_differentiated_potential(support):
    # phi = cos(x) * window(y): theta_x = -sin(x) * window(y) inside the support
    phi = ss.scalar_field_from_expression("cos(x)", support, window=(False, True))
    theta = ss.hamiltonian_variation(phi)
    pts = interior_points(support, 5)
    fj = theta.eval_jets(pts, order=1)
    lo, hi = support[1]
    s, t = J.variables(pts, order=1)
    taper = window_jet(t, lo, hi)
    assert np.allclose(fj.val[:, 0], -np.sin(pts[:, 0]) * taper.val, atol=1e-13)


def test_generic_form_is_not_closed(support):
    theta = ss.generic_variation(
        [ss.scalar_field_from_expression("1", support), ss.scalar_field_from_expression("0", support)]
    )
    pts = interior_points(support)
    assert theta.kind == "generic"
    assert ss.lagrangian_defect(theta.eval_jets(pts, order=1)) > 1e-3


def test_components_must_share_support(support):
    other = support + 0.01
    with pytest.raises(ConfigurationError):
        ss.generic_variation(
            [ss.scalar_field_from_expression("1", support), ss.scalar_field_from_expression("1", other)]
        )


def test_covariant_divergence_on_flat_plane(fp_geometry_small):
    gg = fp_geometry_small
    support = gg.grid.box
    phi = ss.random_polynomial_field(support, seed=9)
    theta = ss.hamiltonian_variation(phi)
    cov = ss.covariant_calculus(theta.eval_jets(gg.pg.points, order=2), gg.pg)
    # flat coordinates: divergence of d(phi) is the coordinate Laplacian
    pj = phi.eval_jets(gg.pg.points, order=2)
    flat_lap = pj.d2[:, 0, 0] + pj.d2[:, 1, 1]
    assert np.max(np.abs(cov.div - flat_lap)) < 1e-11


def test_ricci_identity(gr_geometry_small):
    """Rough Laplacian vs gradient-of-divergence plus Ricci, for closed forms."""
    gg = gr_geometry_small
    _, _, ricci = curvature_tensor(gg.pg)
    for seed in range(10):
        theta = ss.random_hamiltonian_variation(gg.grid.box, seed=seed)
        resid = ricci_identity_residual(theta.eval_jets(gg.pg.points, order=2), gg.pg, ricci)
        assert resid < 1e-7


def test_ricci_identity_on_curved_chart(perturbed, structure):
    """Same identity where the Ricci term is genuinely nonzero."""
    support = ss.default_support_box(perturbed.domain)
    grid = ss.tensor_rule(support, cells=6, points_per_cell=5)
    gg = ss.grid_geometry(perturbed, structure, grid)
    _, _, ricci = curvature_tensor(gg.pg)
    assert np.max(np.abs(ricci)) > 1e-4
    theta = ss.random_hamiltonian_variation(support, seed=3)
    assert ricci_identity_residual(theta.eval_jets(gg.pg.points, order=2), gg.pg, ricci) < 1e-7


def test_frame_covariant_symmetry_for_closed_forms(gr_geometry_small):
    gg = gr_geometry_small
    theta = ss.random_hamiltonian_variation(gg.grid.box, seed=4)
    cov = ss.covariant_calculus(theta.eval_jets(gg.pg.points, order=2), gg.pg)
    nf = frame_covariant_matrix(cov.nabla, gg.pg)
    assert np.max(np.abs(nf - nf.swapaxes(1, 2))) < 1e-9


def test_round_trip_form_field_form(gr_geometry_small):
    gg = gr_geometry_small
    theta = ss.random_hamiltonian_variation(gg.grid.box, seed=8)
    fj = theta.eval_jets(gg.pg.points, order=1)
    v = ss.normal_field_from_form(fj, gg.pg)
    back = one_form_pullback(gg.pg, v)
    assert np.max(np.abs(back - fj.val)) < 1e-12
    # V is normal: orthogonal to both tangents
    tang = np.einsum("np,npa->na", v, gg.pg.tangents)
    assert np.max(np.abs(tang)) < 1e-12


def test_unit_form_gives_unit_normal(grim_reaper, structure):
    # theta = dx at the origin corresponds to V = J e_1 = (1, 0, 0, 0)
    pg = ss.point_geometry(grim_reaper, structure, np.array([[0.0, 0.0]]))
    fj = J.Jet(1, np.array([[1.0, 0.0]]), np.zeros((1, 2, 2)))
    v = ss.normal_field_from_form(fj, pg)
    assert np.allclose(v, [[1.0, 0.0, 0.0, 0.0]], atol=1e-14)
    assert np.isclose(np.linalg.norm(v), 1.0)


def test_correspondence_requires_lagrangian(structure):
    patch = ss.non_lagrangian_patch()
    pg = ss.point_geometry(patch, structure, np.array([[0.1, 0.1]]))
    fj = J.Jet(1, np.array([[1.0, 0.0]]), np.zeros((1, 2, 2)))
    with pytest.raises(UnsupportedChartError):
        ss.normal_field_from_form(fj, pg)


def test_variation_field_jets_match_correspondence(gr_geometry_small, grim_reaper, structure):
    gg = gr_geometry_small
    theta = ss.random_hamiltonian_variation(gg.grid.box, seed=12)
    data = ss.prepare_variation(gg, theta)
    v_val, v_d1 = data.v, ss.variation_field_jets(data.fj, gg.pg, gg.jets)
    v_direct = ss.normal_field_from_form(theta.eval_jets(gg.pg.points, order=1), gg.pg)
    assert np.max(np.abs(v_val - v_direct)) < 1e-12
    # derivative slot cross-checked by finite differences at one interior node
    idx = len(gg.pg.points) // 2
    u0 = gg.pg.points[idx]
    h = 1e-5
    for axis in range(2):
        up, um = u0.copy(), u0.copy()
        up[axis] += h
        um[axis] -= h
        pts = np.array([up, um])
        pg_pair = ss.point_geometry(grim_reaper, structure, pts)
        v_pair = ss.normal_field_from_form(theta.eval_jets(pts, order=1), pg_pair)
        fd = (v_pair[0] - v_pair[1]) / (2 * h)
        assert np.max(np.abs(v_d1[idx, :, axis] - fd)) < 1e-8


@pytest.mark.parametrize(
    "domain, components",
    [
        ([[-1.47, 1.47], [-3.0, 3.0]], ["-log(cos(x))", "x", "y", "0"]),
        ([[-1.47, 1.47], [-2.0, 2.0], [-2.0, 2.0]], ["-log(cos(x))", "x", "y", "0", "z", "0"]),
        ([[-1.0, 1.0]] * 4, ["u1", "0", "u2", "0", "u3", "0", "u4", "0"]),
    ],
    ids=["grim_reaper", "grim_reaper_x_line", "flat_plane_c4"],
)
def test_variation_field_derivative_matches_central_differences(domain, components):
    """d V from the product rule against central differences of V = J theta^sharp."""
    chart = ss.chart_from_config({"domain": domain, "components": components})
    d = chart.dim
    structure = ss.standard_structure(d)
    support = ss.default_support_box(chart.domain)
    theta = ss.random_hamiltonian_variation(support, seed=21)
    rng = np.random.default_rng(d)
    pts = support[:, 0] + (support[:, 1] - support[:, 0]) * rng.uniform(0.1, 0.9, size=(4, d))

    pg = ss.point_geometry(chart, structure, pts)
    v_d1 = ss.variation_field_jets(theta.eval_jets(pts, order=1), pg, ss.eval_jets(chart, pts, order=2))
    assert v_d1.shape == (4, 2 * d, d)
    assert np.max(np.abs(v_d1)) > 1e-3

    def field(q):
        return ss.normal_field_from_form(
            theta.eval_jets(q, order=1), ss.point_geometry(chart, structure, q)
        )

    h = 1e-5
    for axis in range(d):
        step = np.zeros(d)
        step[axis] = h
        fd = (field(pts + step) - field(pts - step)) / (2 * h)
        assert np.max(np.abs(v_d1[:, :, axis] - fd)) < 1e-8


@pytest.mark.parametrize(
    "domain, components",
    [
        (
            [[-1.3, 1.3], [-3.0, 3.0]],
            ["-log(cos(x)) + 0.05*sin(x)*sin(y)", "x", "y", "0.05*cos(x)*cos(y)"],
        ),
        (
            [[-1.0, 1.0]] * 3,
            ["x", "0.3*sin(x*y)", "y", "0.2*x*z", "z", "0.25*y*y + 0.1*x*z*z"],
        ),
    ],
    ids=["perturbed_grim_reaper", "graph_in_c3"],
)
def test_covariant_calculus_matches_index_notation(domain, components):
    """The matmul contractions against the index-notation einsum reference.

    Both charts have Christoffel symbols and derivatives without the index
    symmetries of the grim reaper, whose only one is Gamma^x_xx.
    """
    chart = ss.chart_from_config({"domain": domain, "components": components})
    d = chart.dim
    support = ss.default_support_box(chart.domain)
    rng = np.random.default_rng(d)
    pts = support[:, 0] + (support[:, 1] - support[:, 0]) * rng.uniform(0.1, 0.9, size=(50, d))
    pg = ss.point_geometry(chart, ss.standard_structure(d), pts)
    # a generic form, so nabla theta has no symmetry that could hide a transposition
    fj = ss.random_generic_variation(support, seed=5).eval_jets(pts, order=2)
    G, dG = pg.Gamma, pg.Gamma_partial

    nabla = np.einsum("nba->nab", fj.d1) - np.einsum("nlab,nl->nab", G, fj.val)
    dnabla = (
        np.einsum("nbae->neab", fj.d2)
        - np.einsum("nelab,nl->neab", dG, fj.val)
        - np.einsum("nlab,nle->neab", G, fj.d1)
    )
    second = (
        dnabla
        - np.einsum("nlab,nlc->nabc", G, nabla)
        - np.einsum("nlac,nbl->nabc", G, nabla)
    )
    reference = {
        "nabla": nabla,
        "div": np.einsum("nab,nab->n", pg.g_inv, nabla),
        "laplacian": np.einsum("nab,nabc->nc", pg.g_inv, second),
        "div_grad": np.einsum("neab,nab->ne", pg.dg_inv, nabla)
        + np.einsum("nab,neab->ne", pg.g_inv, dnabla),
    }
    cov = ss.covariant_calculus(fj, pg)
    for name, ref in reference.items():
        got = getattr(cov, name)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), name


def test_non_finite_field_is_reported(support):
    bad = ss.scalar_field_from_expression("log(x - 100)", support)
    with pytest.raises(ss.EvaluationError):
        bad.eval_jets(np.array([[0.0, 0.0]]), order=2)


def test_support_margin_validation(grim_reaper):
    domain = grim_reaper.domain
    ss.variations.require_support_inside(domain, ss.default_support_box(domain))
    hugging = domain.copy()  # zero margin
    with pytest.raises(ConfigurationError):
        ss.variations.require_support_inside(domain, hugging)
