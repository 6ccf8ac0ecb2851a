"""One-form fields, covariant calculus, and the normal-field correspondence."""

import math
import re

import numpy as np
import pytest

import soliton_stability as ss
from oracles import (
    christoffel_partial,
    curvature_tensor,
    div_grad,
    frame_covariant_matrix,
    one_form_pullback,
    reference_polynomial_field,
    ricci_identity_residual,
    tensor_grid,
    whole_grid_block,
    y_windowed_field,
)
import soliton_stability.jets as J
from soliton_stability import quadrature
from soliton_stability.errors import ConfigurationError, DomainError, UnsupportedChartError
from soliton_stability.variations import _axis_window, _monomial_exponents, _support_mask, window_jet


@pytest.fixture(scope="module")
def support(gr_support):
    return gr_support


def interior_grid(support, n=7):
    return tensor_grid(*(np.linspace(lo, hi, n + 2)[1:-1] for lo, hi in support))


def shifted(grid, step):
    """The tensor grid of ``grid``'s nodes moved by ``step``."""
    return tensor_grid(*(x + h for x, h in zip(grid.axis_nodes, step)))


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
    for outside in ([support[0, 1] + 0.05, 0.0], [0.0, support[1, 1] + 0.2]):
        j = phi.eval_jets(tensor_grid(*outside), order=3)
        for arr in (j.val, j.d1, j.d2, j.d3):
            assert np.all(arr == 0.0)


def assert_matches_reference(support, box, seed, rtol=1e-13):
    """A random potential at orders 1-3 and a random generic form at order 2 against their
    per-monomial builds, on an interior grid and on a grid over ``box``, each jet level to
    ``rtol`` of its largest entry."""
    d = support.shape[0]
    potential = (ss.random_polynomial_field(support, seed), reference_polynomial_field(support, seed))
    form = (
        ss.random_generic_variation(support, seed),
        ss.generic_variation([reference_polynomial_field(support, seed * 1000 + a) for a in range(d)]),
    )
    cases = [potential + (order,) for order in (1, 2, 3)] + [form + (2,)]
    grid = ss.tensor_rule(box, cells=3, points_per_cell=4)
    for where in (interior_grid(support, 5), grid):
        for field, reference, order in cases:
            got, want = field.eval_jets(where, order=order), reference.eval_jets(where, order=order)
            assert got.order == want.order == order
            for name in ("val", "d1", "d2", "d3")[: order + 1]:
                a, b = getattr(got, name), getattr(want, name)
                assert a.shape == b.shape, name
                assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b)), (name, order)


def test_polynomial_fast_path_matches_builder(support):
    """The d = 2 windowed field, on a grid that also reaches past the box: over seeds 0-19 the
    largest gap is 1.2e-15 of a jet level's largest entry from the per-monomial build."""
    assert_matches_reference(support, 1.2 * support, seed=5, rtol=1e-14)
    outer = ss.tensor_rule(1.2 * support, cells=3, points_per_cell=4)
    assert np.any(ss.random_polynomial_field(support, seed=5).eval_jets(outer, order=1).val == 0.0)


@pytest.mark.parametrize("lo, hi", [(-1.2, 1.2), (-0.7, 1.9), (-2.0, 2.0)])
def test_closed_form_bump_matches_the_window_jet(lo, hi):
    """With one power (p = 0) the factored window W_k is the bump's k-th derivative: in closed
    form, as at d = 2, against window_jet on one-variable jets, at nodes spanning [lo, hi] with
    both edges, each level to 1e-15 of its largest entry."""
    x = np.linspace(lo, hi, 41)
    closed = _axis_window(x.tobytes(), lo, hi, 1, 3, closed_bump=True)
    by_jets = _axis_window(x.tobytes(), lo, hi, 1, 3, closed_bump=False)
    for k in range(4):
        assert np.max(np.abs(closed[k] - by_jets[k])) <= 1e-15 * np.max(np.abs(by_jets[k])), k


@pytest.mark.parametrize("d", [1, 3])
def test_closed_form_polynomial_jets_match_the_per_monomial_builder(d):
    """At d != 2 the coefficient tensor is contracted against each axis's factored window
    W_k = d^k/dx^k [s^p (1 - s^2)^4], formed by Leibniz from the derivative Vandermonde
    matrices and the bump's jets; the grid straddles the support box on every axis.  Over
    seeds 0-19 the largest gap is 1.5e-15 of a jet level's largest entry."""
    support = np.array([[-0.7, 1.9], [-1.0, 1.0], [-2.0, 2.0]])[:d]
    box = np.array([[-1.0, 1.2], [-1.4, 0.3], [-1.4, 2.9]])[:d]
    for seed in (3, 8):
        assert_matches_reference(support, box, seed, rtol=1e-14)


@pytest.fixture
def jet_ops(monkeypatch):
    """Counts of outermost Jet operations (``a - b`` is one), as perfbench counts them, from a
    cleared window cache, so no window an earlier test formed is missing from the count."""
    _axis_window.cache_clear()
    counts = {"ops": 0, "depth": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            counts["ops"] += counts["depth"] == 0
            counts["depth"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                counts["depth"] -= 1

        return wrapper

    for name in ("add", "radd", "neg", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv", "pow"):
        monkeypatch.setattr(J.Jet, f"__{name}__", counted(getattr(J.Jet, f"__{name}__")))
    for name in ("sin", "cos", "tan", "exp", "log", "sqrt"):
        monkeypatch.setattr(J, name, counted(getattr(J, name)))
    return counts


SUPPORT_3D = ss.default_support_box([[-1.47, 1.47], [-2.0, 2.0], [-2.0, 2.0]])


def test_closed_form_polynomial_jets_stay_within_the_jet_op_budget(jet_ops):
    """A grid runs 5 outermost Jet operations per axis, the bump's on one-variable jets; the
    per-monomial build ran 130 for this d = 3 order-3 field.  A further row block of the same
    grid runs them on axis 0 alone: the windows of the axes >= 1 are formed once."""
    grid = ss.tensor_rule(SUPPORT_3D, cells=2, points_per_cell=8)
    phi = ss.random_polynomial_field(SUPPORT_3D, seed=3)
    jet = phi.eval_jets(grid.rows(0, 4), order=3)
    assert jet.d3.shape == (3, 3, 3, 4 * 16 * 16)
    assert 0 < jet_ops["ops"] <= 5 * 3, jet_ops
    first = jet_ops["ops"]
    for i0 in range(4, 16, 4):
        phi.eval_jets(grid.rows(i0, i0 + 4), order=3)
    assert 0 < jet_ops["ops"] - first <= 3 * 5, jet_ops


def test_grid_jet_ops_do_not_grow_with_the_grid(jet_ops):
    """On a QuadratureGrid the bump's jets form at the axis nodes: 512 nodes and 27,000 nodes
    run the same Jet operations."""
    phi = ss.random_polynomial_field(SUPPORT_3D, seed=3)
    ops = []
    for cells, points in ((1, 8), (3, 10)):
        before = jet_ops["ops"]
        phi.eval_jets(ss.tensor_rule(SUPPORT_3D, cells=cells, points_per_cell=points), order=3)
        ops.append(jet_ops["ops"] - before)
    assert 0 < ops[0] == ops[1] <= 5 * 3, ops


def test_a_suite_forms_each_window_once(monkeypatch, grim_reaper, T, gr_support):
    """A 20-field suite at one worker forms one window per row block on axis 0 and one on
    axis 1, which every block shares: the count does not grow with the fields."""
    grid = ss.tensor_rule(gr_support, cells=4, points_per_cell=6)
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 8 * grid.shape[1])
    blocks = len(list(grid.blocks()))
    assert blocks == 3
    variations = [(seed, ss.random_hamiltonian_variation(gr_support, seed)) for seed in range(1, 21)]
    _axis_window.cache_clear()
    reports = ss.run_variation_suite(ss.grid_blocks(grim_reaper, T, grid), variations, workers=1)
    assert len(reports) == 20
    assert _axis_window.cache_info().misses == blocks + 1


@pytest.mark.parametrize("d", [2, 3])
def test_field_jets_do_not_depend_on_the_window_cache(monkeypatch, d):
    """A polynomial field's jets on every row block, at two block sizes, are the whole grid's
    bits whether the windows come from a cleared cache or a warm one; a cached window is
    read-only, so no caller can change what the next field reads."""
    support = SUPPORT_3D[:d]
    grid = ss.tensor_rule(1.1 * support, cells=2, points_per_cell=4)
    per_row = grid.nodes.shape[0] // grid.shape[0]
    phi = ss.random_polynomial_field(support, seed=5)
    _axis_window.cache_clear()
    whole = [level.tobytes() for level in phi.eval_jets(grid, order=3).levels]
    for rows in (2, 3):
        monkeypatch.setattr(quadrature, "BLOCK_NODES", rows * per_row)
        _axis_window.cache_clear()
        for cache in ("cleared", "warm"):
            parts = [phi.eval_jets(block, order=3).levels for block in grid.blocks()]
            joined = [np.concatenate(level, axis=-1).tobytes() for level in zip(*parts)]
            assert joined == whole, (rows, cache)
    window = _axis_window(grid.axis_nodes[0].tobytes(), *support[0], 5, 3, d == 2)
    assert window.shape == (4, 5, grid.shape[0])
    with pytest.raises(ValueError):
        window[0, 0, 0] = 1.0


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("degree", [4, 8])
def test_grid_jets_match_row_blocks_across_the_support_edge(d, degree):
    """On a grid straddling the support box, the per-axis mask is the per-node mask,
    the jets outside the box are exactly 0, and every block of rows (one row, two, seven)
    gives the whole grid's jets there bit for bit.  At degree 8 a BLAS product of the
    d = 2 rows would round by how many rows it multiplies at once."""
    support = np.array([[-1.0, 1.0], [-2.0, 2.0], [-0.5, 1.5]])[:d]
    box = np.array([[-1.4, 0.3], [-1.4, 2.9], [-0.8, 1.7]])[:d]  # past an edge on every axis
    grid = ss.tensor_rule(box, cells=3, points_per_cell=5)
    keep = _support_mask(grid, support)
    assert np.array_equal(keep, np.all((grid.nodes >= support[:, 0]) & (grid.nodes <= support[:, 1]), axis=1))
    assert 0 < np.count_nonzero(keep) < keep.size
    phi = ss.random_polynomial_field(support, seed=4, degree=degree)
    on_grid = phi.eval_jets(grid, order=3)
    per_row = keep.size // 15
    for name in ("val", "d1", "d2", "d3"):
        assert np.all(getattr(on_grid, name)[..., ~keep] == 0.0), name
    for size in (1, 2, 7):
        for i0 in range(0, 15, size):
            i1 = min(i0 + size, 15)
            part = phi.eval_jets(grid.rows(i0, i1), order=3)
            for name in ("val", "d1", "d2", "d3"):
                want = getattr(on_grid, name)[..., i0 * per_row : i1 * per_row]
                assert np.array_equal(getattr(part, name), want), (size, i0, name)


def test_polynomial_field_in_three_variables():
    """The d = 3 node-block field: each jet level against central differences of the one below."""
    support = ss.default_support_box([[-1.47, 1.47], [-2.0, 2.0], [-2.0, 2.0]])
    phi = ss.random_polynomial_field(support, seed=3)
    inner = interior_grid(support, 3)
    jet = phi.eval_jets(inner, order=3)
    scale = 1.0 + max(float(np.max(np.abs(a))) for a in (jet.val, jet.d1, jet.d2, jet.d3))
    h = 1e-5
    for k in range(3):
        step = np.zeros(3)
        step[k] = h
        up, down = phi.eval_jets(shifted(inner, step), order=2), phi.eval_jets(shifted(inner, -step), order=2)
        assert np.max(np.abs((up.val - down.val) / (2 * h) - jet.d1[k])) <= 1e-8 * scale
        assert np.max(np.abs((up.d1 - down.d1) / (2 * h) - jet.d2[:, k])) <= 1e-8 * scale
        assert np.max(np.abs((up.d2 - down.d2) / (2 * h) - jet.d3[..., k, :])) <= 1e-8 * scale
    # a quadrature grid gives exact zeros past the support, and its row blocks its own jets
    grid = ss.tensor_rule(1.2 * support, cells=2, points_per_cell=3)
    on_grid = phi.eval_jets(grid, order=3)
    outside = ~np.all((grid.nodes >= support[:, 0]) & (grid.nodes <= support[:, 1]), axis=1)
    assert np.any(outside)
    for name in ("val", "d1", "d2", "d3"):
        arr = getattr(on_grid, name)
        assert np.array_equal(arr[..., 36:], getattr(phi.eval_jets(grid.rows(1, 6), order=3), name))
        assert np.all(arr[..., outside] == 0.0)
    assert np.any(on_grid.val[~outside] != 0.0)


def test_exact_forms_are_closed(support):
    grid = interior_grid(support)
    for seed in range(5):
        theta = ss.random_hamiltonian_variation(support, seed=seed)
        assert ss.lagrangian_defect(theta.eval_jets(grid, order=1).d1) <= 1e-12
    zero = ss.hamiltonian_variation(ss.scalar_field_from_expression("0", support))
    assert ss.lagrangian_defect(zero.eval_jets(grid, order=1).d1) == 0.0


def test_hand_differentiated_potential(support):
    # phi = cos(x) * window(y): theta_x = -sin(x) * window(y) inside the support
    phi = y_windowed_field("cos(x)", support)
    theta = ss.hamiltonian_variation(phi)
    grid = interior_grid(support, 5)
    fj = theta.eval_jets(grid, order=1)
    pts = grid.nodes
    lo, hi = support[1]
    s, t = J.variables(pts, order=1)
    taper = window_jet(t, lo, hi)
    assert np.allclose(fj.val[0], -np.sin(pts[:, 0]) * taper.val, atol=1e-13)


def test_generic_form_is_not_closed(support):
    theta = ss.generic_variation(
        [ss.scalar_field_from_expression("1", support), ss.scalar_field_from_expression("0", support)]
    )
    assert theta.kind == "generic"
    assert ss.lagrangian_defect(theta.eval_jets(interior_grid(support), order=1).d1) > 1e-3


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
    fj = ss.hamiltonian_variation(phi).eval_jets(gg.grid, order=2)
    _, div, _ = ss.covariant_calculus(fj.val, fj.d1, fj.d2, whole_grid_block(gg).pg)
    # flat coordinates: divergence of d(phi) is the coordinate Laplacian
    pj = phi.eval_jets(gg.grid, order=2)
    flat_lap = pj.d2[0, 0] + pj.d2[1, 1]
    assert np.max(np.abs(div - flat_lap)) < 1e-11


def test_ricci_identity(gr_geometry_small):
    """Rough Laplacian vs gradient-of-divergence plus Ricci, for closed forms."""
    gg = gr_geometry_small
    pg, dG = whole_grid_block(gg).pg, christoffel_partial(gg.chart, gg.grid.nodes)
    _, _, ricci = curvature_tensor(pg, dG)
    for seed in range(10):
        fj = ss.random_hamiltonian_variation(gg.grid.box, seed=seed).eval_jets(gg.grid, order=2)
        assert ricci_identity_residual(fj, pg, ricci, dG) < 1e-7


def test_ricci_identity_on_curved_chart(perturbed, T):
    """Same identity where the Ricci term is genuinely nonzero."""
    support = ss.default_support_box(perturbed.domain)
    grid = ss.tensor_rule(support, cells=6, points_per_cell=5)
    pg, dG = ss.point_geometry(perturbed, T, grid.nodes), christoffel_partial(perturbed, grid.nodes)
    _, _, ricci = curvature_tensor(pg, dG)
    assert np.max(np.abs(ricci)) > 1e-4
    fj = ss.random_hamiltonian_variation(support, seed=3).eval_jets(grid, order=2)
    assert ricci_identity_residual(fj, pg, ricci, dG) < 1e-7


# u = x^3/6 + x y^2/2 + y z^2/2 + x z; its gradient graph (x, u_x, y, u_y, z, u_z) is Lagrangian
CURVED_GRADIENT_GRAPH_3D = {
    "name": "curved_gradient_graph",
    "domain": [[-1.0, 1.0]] * 3,
    "components": ["x", "x*x/2 + y*y/2 + z", "y", "x*y + z*z/2", "z", "y*z + x"],
}


def test_gauss_and_ricci_identities_on_a_curved_3d_chart():
    """The Gauss equation and the Ricci identity at d = 3, where Ric has no 2-d shortcut."""
    chart = ss.chart_from_config(CURVED_GRADIENT_GRAPH_3D)
    support = ss.default_support_box(chart.domain)
    grid = ss.tensor_rule(support, 2, 6)
    pg, dG = ss.point_geometry(chart, np.eye(6)[0], grid.nodes), christoffel_partial(chart, grid.nodes)
    assert pg.lagrangian
    r_int, r_gauss, ricci = curvature_tensor(pg, dG)
    assert np.max(np.abs(ricci)) > 1e-4
    assert np.max(np.abs(r_int - r_gauss)) < 1e-8
    for seed in (1, 2, 3):
        fj = ss.random_hamiltonian_variation(support, seed=seed).eval_jets(grid, order=2)
        assert ricci_identity_residual(fj, pg, ricci, dG) < 1e-7


def test_frame_covariant_symmetry_for_closed_forms(gr_geometry_small):
    gg = gr_geometry_small
    pg = whole_grid_block(gg).pg
    fj = ss.random_hamiltonian_variation(gg.grid.box, seed=4).eval_jets(gg.grid, order=2)
    nabla, _, _ = ss.covariant_calculus(fj.val, fj.d1, fj.d2, pg)
    nf = frame_covariant_matrix(nabla, pg)
    assert np.max(np.abs(nf - nf.swapaxes(0, 1))) < 1e-9


def test_round_trip_form_field_form(gr_geometry_small):
    gg = gr_geometry_small
    pg = whole_grid_block(gg).pg
    theta = ss.random_hamiltonian_variation(gg.grid.box, seed=8)
    val = theta.eval_jets(gg.grid, order=1).val
    v = ss.normal_field_from_form(val, pg)
    back = one_form_pullback(pg, v)
    assert np.max(np.abs(back - val)) < 1e-12
    # V is normal: orthogonal to both tangents
    tang = np.einsum("pn,pan->an", v, pg.tangents)
    assert np.max(np.abs(tang)) < 1e-12


def test_unit_form_gives_unit_normal(grim_reaper, T):
    # theta = dx at the origin corresponds to V = J e_1 = (1, 0, 0, 0)
    pg = ss.point_geometry(grim_reaper, T, np.array([[0.0, 0.0]]))
    v = ss.normal_field_from_form(np.array([[1.0], [0.0]]), pg)
    assert np.allclose(v, [[1.0], [0.0], [0.0], [0.0]], atol=1e-14)
    assert np.isclose(np.linalg.norm(v), 1.0)


def test_correspondence_requires_lagrangian(T):
    patch = ss.chart_from_config("non_lagrangian_patch")
    pg = ss.point_geometry(patch, T, np.array([[0.1, 0.1]]))
    with pytest.raises(UnsupportedChartError):
        ss.normal_field_from_form(np.array([[1.0], [0.0]]), pg)


def test_variation_field_jets_match_correspondence(gr_geometry_small, grim_reaper, T):
    gg = gr_geometry_small
    block = whole_grid_block(gg)
    theta = ss.random_hamiltonian_variation(gg.grid.box, seed=12)
    data = ss.prepare_variation(block, theta)
    v_val, v_d1 = data.v, ss.variation_field_jets(data.theta, data.dtheta, block.pg)
    v_direct = ss.normal_field_from_form(theta.eval_jets(gg.grid, order=1).val, block.pg)
    assert np.max(np.abs(v_val - v_direct)) < 1e-12
    # derivative slot cross-checked by finite differences at one interior node
    idx = len(gg.grid.nodes) // 2
    u0 = gg.grid.nodes[idx]
    h = 1e-5
    for axis in range(2):
        # the two-node grid u0 - h e_axis, u0 + h e_axis
        pair = tensor_grid(*([u - h, u + h] if a == axis else [u] for a, u in enumerate(u0)))
        pg_pair = ss.point_geometry(grim_reaper, T, pair.nodes)
        v_pair = ss.normal_field_from_form(theta.eval_jets(pair, order=1).val, pg_pair)
        fd = (v_pair[:, 1] - v_pair[:, 0]) / (2 * h)
        assert np.max(np.abs(v_d1[:, axis, idx] - fd)) < 1e-8


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
    T = np.eye(2 * d)[0]
    support = ss.default_support_box(chart.domain)
    theta = ss.random_hamiltonian_variation(support, seed=21)
    rng = np.random.default_rng(d)
    grid = tensor_grid(*(lo + (hi - lo) * rng.uniform(0.1, 0.9, size=2) for lo, hi in support))

    pg = ss.point_geometry(chart, T, grid.nodes)
    fj = theta.eval_jets(grid, order=1)
    v_d1 = ss.variation_field_jets(fj.val, fj.d1, pg)
    assert v_d1.shape == (2 * d, d, 2**d)
    assert np.max(np.abs(v_d1)) > 1e-3

    def field(q):
        return ss.normal_field_from_form(
            theta.eval_jets(q, order=1).val, ss.point_geometry(chart, T, q.nodes)
        )

    h = 1e-5
    for axis in range(d):
        step = np.zeros(d)
        step[axis] = h
        fd = (field(shifted(grid, step)) - field(shifted(grid, -step))) / (2 * h)
        assert np.max(np.abs(v_d1[:, axis] - fd)) < 1e-8


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
    """The node-last contractions against a node-first index-notation reference.

    Both charts have Christoffel symbols and derivatives without the index
    symmetries of the grim reaper, whose only one is Gamma^x_xx.
    """
    chart = ss.chart_from_config({"domain": domain, "components": components})
    d = chart.dim
    support = ss.default_support_box(chart.domain)
    rng = np.random.default_rng(d)
    grid = tensor_grid(*(lo + (hi - lo) * rng.uniform(0.1, 0.9, size=4) for lo, hi in support))
    pg = ss.point_geometry(chart, np.eye(2 * d)[0], grid.nodes)
    # a generic form, so nabla theta has no symmetry that could hide a transposition
    fj = ss.random_generic_variation(support, seed=5).eval_jets(grid, order=2)
    dG_last = christoffel_partial(chart, grid.nodes)
    G, dG = np.moveaxis(pg.Gamma, -1, 0), np.moveaxis(dG_last, -1, 0)
    g_inv, dg_inv = np.moveaxis(pg.g_inv, -1, 0), np.moveaxis(pg.dg_inv, -1, 0)

    nabla = np.einsum("ban->nab", fj.d1) - np.einsum("nlab,ln->nab", G, fj.val)
    dnabla = (
        np.einsum("baen->neab", fj.d2)
        - np.einsum("nelab,ln->neab", dG, fj.val)
        - np.einsum("nlab,len->neab", G, fj.d1)
    )
    second = (
        dnabla
        - np.einsum("nlab,nlc->nabc", G, nabla)
        - np.einsum("nlac,nbl->nabc", G, nabla)
    )
    reference = {
        "nabla": nabla,
        "div": np.einsum("nab,nab->n", g_inv, nabla),
        "laplacian": np.einsum("nab,nabc->nc", g_inv, second),
        "div_grad": np.einsum("neab,nab->ne", dg_inv, nabla) + np.einsum("nab,neab->ne", g_inv, dnabla),
    }
    nabla, div, laplacian = ss.covariant_calculus(fj.val, fj.d1, fj.d2, pg)
    computed = {"nabla": nabla, "div": div, "laplacian": laplacian, "div_grad": div_grad(fj, pg, dG_last)}
    for name, ref in reference.items():
        got = np.moveaxis(computed[name], -1, 0)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), name


@pytest.mark.parametrize(
    "make",
    [
        lambda support: ss.random_polynomial_field(support, seed=2),
        lambda support: ss.scalar_field_from_expression("sin(x)*y", support),
    ],
    ids=["polynomial", "expression"],
)
@pytest.mark.parametrize("dim", [1, 3])
def test_field_refuses_points_of_another_dimension(support, make, dim):
    with pytest.raises(DomainError, match=rf"^points have dimension {dim}, field has 2$"):
        make(support).eval_jets(tensor_grid(*([0.0, 0.5],) * dim), order=2)


def test_non_finite_field_is_reported(support):
    bad = ss.scalar_field_from_expression("log(x - 100)", support)
    with pytest.raises(ss.EvaluationError):
        bad.eval_jets(tensor_grid(0.0, 0.0), order=2)


def test_non_finite_field_names_the_point():
    box = [[-1, 1], [-1, 1]]
    bad = ss.scalar_field_from_expression("log(x - 0.1)", box)
    message = "scalar field 'log(x - 0.1)' produced non-finite jet data at point [0.0, 0.0]"
    with pytest.raises(ss.EvaluationError, match=f"^{re.escape(message)}$"):
        bad.eval_jets(tensor_grid([0.5, 0.0], 0.0), order=2)
    # on a grid, the first node in the grid's C order where 0.1 - x - y <= 0
    grid = ss.tensor_rule(box, cells=3, points_per_cell=2)
    first = grid.nodes[np.flatnonzero(grid.nodes.sum(axis=1) >= 0.1)[0]]
    assert first[0] > grid.axis_nodes[0][0]  # not the first row of the grid
    tilted = ss.scalar_field_from_expression("log(0.1 - x - y)", box)
    message = f"scalar field 'log(0.1 - x - y)' produced non-finite jet data at point {first.tolist()}"
    with pytest.raises(ss.EvaluationError, match=f"^{re.escape(message)}$"):
        tilted.eval_jets(grid, order=1)


def test_monomial_exponents_in_order():
    assert _monomial_exponents(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    for d in range(1, 5):
        for degree in range(5):
            exps = _monomial_exponents(d, degree)
            assert len(exps) == math.comb(d + degree, d) == len(set(exps))
            assert exps == sorted(exps, key=lambda e: (sum(e), e))
            assert all(len(e) == d and sum(e) <= degree for e in exps)
