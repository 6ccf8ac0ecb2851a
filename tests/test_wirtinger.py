"""Closed-form cylinder integrals, sharp Wirtinger constant, Dirichlet gap."""

import math

import numpy as np
import pytest

import soliton_stability as ss
from oracles import cylinder_form_from_normal_components
from soliton_stability.errors import ConvergenceError


@pytest.fixture(scope="module")
def sgrid(gr_support):
    return ss.tensor_rule(gr_support, cells=12, points_per_cell=8)


def test_zero_fields_give_zeros(gr_support, sgrid):
    zero = ss.scalar_field_from_expression("0", gr_support)
    res = ss.cylinder_stability_integrals(zero, zero, sgrid)
    assert res.curvature_integral == 0.0
    assert res.gradient_integral == 0.0
    assert res.wirtinger_lhs == 0.0
    assert res.wirtinger_rhs == 0.0


def test_stability_inequality_for_random_pairs(gr_support, sgrid):
    for seed in range(10):
        v3 = ss.random_polynomial_field(gr_support, seed=seed + 1)
        v4 = ss.random_polynomial_field(gr_support, seed=seed + 101)
        res = ss.cylinder_stability_integrals(v3, v4, sgrid)
        assert res.curvature_integral <= res.gradient_integral
        assert res.slices_hold()
        assert res.wirtinger_lhs <= res.wirtinger_rhs


def test_divergence_route_reproduces_closed_form(grim_reaper, structure, gr_support):
    """The general machinery must reproduce gradient minus curvature integrals."""
    grid = ss.tensor_rule(gr_support, cells=12, points_per_cell=8)
    gg = ss.grid_geometry(grim_reaper, structure, grid)
    v3 = ss.random_polynomial_field(gr_support, seed=11)
    v4 = ss.random_polynomial_field(gr_support, seed=111)
    data = ss.prepare_variation(gg, cylinder_form_from_normal_components(v3, v4))
    res = ss.cylinder_stability_integrals(v3, v4, grid)
    expected = res.gradient_integral - res.curvature_integral
    dv = ss.second_variation_divergence(gg, data)
    assert abs(dv - expected) <= 1e-8 * max(1.0, abs(expected))
    # the one-form built this way is generically non-closed, but the
    # second-order route is also closedness-free and must agree
    op = ss.second_variation_operator(gg, data)
    assert abs(op - expected) <= 1e-8 * max(1.0, abs(expected))


def test_adapted_cosine_saturates_wirtinger(grim_reaper):
    """Dirichlet ground state of the truncated slab: ratio is exactly (pi/2b)^2."""
    b = grim_reaper.domain[0, 1]
    support = np.array([[-b, b], [-2.4, 2.4]])
    grid = ss.tensor_rule(support, cells=20, points_per_cell=8)
    v3 = ss.scalar_field_from_expression(f"cos(pi*x/{2*b})", support, window=(False, True))
    v4 = ss.scalar_field_from_expression("0", support)
    res = ss.cylinder_stability_integrals(v3, v4, grid)
    ratio = res.wirtinger_rhs / res.wirtinger_lhs
    assert abs(ratio - (math.pi / (2 * b)) ** 2) < 1e-10
    # near-saturation: the two sides agree within ~15 percent on this domain
    assert res.wirtinger_lhs <= res.wirtinger_rhs
    assert res.wirtinger_lhs >= 0.85 * res.wirtinger_rhs
    assert res.slices_hold()


def test_dirichlet_gap_convergence():
    lam_fine = ss.dirichlet_gap(2000)
    lam_coarse = ss.dirichlet_gap(200)
    assert abs(lam_fine - 1.0) < 1e-3
    assert abs(lam_coarse - 1.0) < 1e-2
    # second-order convergence: the error shrinks ~100x between the two
    assert abs(lam_fine - 1.0) < abs(lam_coarse - 1.0) / 50


@pytest.mark.parametrize("n", [100, 2000])
def test_dirichlet_gap_matches_exact_discrete_eigenvalue(n):
    # the n-interval three-point Laplacian on (-pi/2, pi/2) has lowest
    # eigenvalue exactly (4/h^2) sin^2(h/2), h = pi/n
    h = math.pi / n
    exact = 4.0 / h**2 * math.sin(h / 2) ** 2
    assert abs(ss.dirichlet_gap(n) - exact) <= 1e-12 * exact


def test_dirichlet_eigenvector_is_cosine():
    lam, x, v = ss.dirichlet_ground_state(2000)
    c = np.cos(x)
    angle = math.acos(min(1.0, abs(v @ c) / (np.linalg.norm(v) * np.linalg.norm(c))))
    assert angle < 1e-2


def test_dirichlet_rejects_tiny_grids():
    with pytest.raises(ValueError):
        ss.dirichlet_ground_state(50)


def test_dirichlet_nonconvergence_flag():
    with pytest.raises(ConvergenceError):
        ss.dirichlet_ground_state(500, max_iter=1)


def test_closed_form_deviations_within_budget(grim_reaper, structure):
    dev = ss.closed_form_deviations(grim_reaper, structure, 50)
    assert set(dev) == {
        "metric",
        "area_density",
        "second_fundamental_form",
        "mean_curvature",
        "weight",
    }
    assert max(dev.values()) <= 1e-10
