"""Closed-form cylinder integrals, sharp Wirtinger constant, Dirichlet gap."""

import math
import re

import numpy as np
import pytest

import soliton_stability as ss
from oracles import cylinder_form_from_normal_components, variation_report, y_windowed_field
from soliton_stability import wirtinger
from soliton_stability.errors import ConfigurationError, ConvergenceError


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


def test_divergence_route_reproduces_closed_form(grim_reaper, T, gr_support):
    """The general machinery must reproduce gradient minus curvature integrals."""
    grid = ss.tensor_rule(gr_support, cells=12, points_per_cell=8)
    gg = ss.grid_geometry(grim_reaper, T, grid)
    v3 = ss.random_polynomial_field(gr_support, seed=11)
    v4 = ss.random_polynomial_field(gr_support, seed=111)
    report = variation_report(gg, cylinder_form_from_normal_components(v3, v4))
    res = ss.cylinder_stability_integrals(v3, v4, grid)
    expected = res.gradient_integral - res.curvature_integral
    dv = report.Fpp_divergence
    assert abs(dv - expected) <= 1e-8 * max(1.0, abs(expected))
    # the one-form built this way is generically non-closed, but the
    # second-order route is also closedness-free and must agree
    op = report.Fpp_operator
    assert abs(op - expected) <= 1e-8 * max(1.0, abs(expected))


def test_adapted_cosine_saturates_wirtinger(grim_reaper):
    """Dirichlet ground state of the truncated slab: ratio is exactly (pi/2b)^2."""
    b = grim_reaper.domain[0, 1]
    support = np.array([[-b, b], [-2.4, 2.4]])
    grid = ss.tensor_rule(support, cells=20, points_per_cell=8)
    v3 = y_windowed_field(f"cos(pi*x/{2*b})", support)
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


def test_dirichlet_gap_keeps_its_bits():
    """The Thomas sweeps on Python floats run the same double operations in the same order
    as on numpy scalars, so the default 2,000-interval eigenvalue keeps its last bit."""
    assert ss.dirichlet_gap(2000) == 0.9999997943832363


def test_thomas_solve_matches_a_dense_solve():
    rng = np.random.default_rng(5)
    rhs = rng.normal(size=12)
    lower, diag, upper = -1.3, 3.1, -0.7
    dense = np.diag(np.full(12, diag)) + np.diag(np.full(11, lower), -1) + np.diag(np.full(11, upper), 1)
    got = wirtinger._thomas_solve(lower, diag, upper, rhs)
    assert got.shape == rhs.shape
    assert np.allclose(got, np.linalg.solve(dense, rhs), rtol=1e-13, atol=1e-14)


def test_dirichlet_rejects_tiny_grids():
    with pytest.raises(ValueError):
        ss.dirichlet_ground_state(50)


def test_dirichlet_nonconvergence_flag():
    with pytest.raises(ConvergenceError):
        ss.dirichlet_ground_state(500, max_iter=1)


def test_closed_form_deviations_within_budget(grim_reaper, T):
    dev = ss.closed_form_deviations(grim_reaper, T, ss.uniform_grid(grim_reaper, 50))
    assert set(dev) == {
        "metric",
        "area_density",
        "second_fundamental_form",
        "mean_curvature",
        "weight",
    }
    assert max(dev.values()) <= 1e-10


@pytest.mark.parametrize(
    "config, m",
    [
        ({"name": "line", "domain": [[-1.0, 1.0]], "components": ["x", "0"]}, 2),
        (
            {
                "name": "grim_reaper_x_line",
                "domain": [[-1.47, 1.47], [-2.0, 2.0], [-2.0, 2.0]],
                "components": ["-log(cos(x))", "x", "y", "0", "z", "0"],
            },
            6,
        ),
    ],
    ids=["1-parameter", "3-parameter"],
)
def test_closed_form_deviations_refuse_a_chart_of_another_dimension(config, m):
    chart = ss.chart_from_config(config)
    d = chart.dim
    message = f"cylinder needs a chart with 2 parameters in C^2, got {d} in R^{m}"
    with pytest.raises(ConfigurationError, match=rf"^{re.escape(message)}$"):
        ss.closed_form_deviations(chart, np.eye(m)[0], ss.uniform_grid(chart, 5))


def test_cylinder_integrals_refuse_a_grid_of_another_dimension(gr_support):
    zero = ss.scalar_field_from_expression("0", gr_support)
    grid = ss.tensor_rule(np.vstack([gr_support, [[-1.0, 1.0]]]), cells=2, points_per_cell=2)
    with pytest.raises(ConfigurationError, match=r"got 3 in R\^4$"):
        ss.cylinder_stability_integrals(zero, zero, grid)
