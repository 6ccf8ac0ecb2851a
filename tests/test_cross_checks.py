"""Cross-cutting checks: convention anchors, alternate T directions, and the
expression-chart path through the full variational machinery."""

import math

import numpy as np

import soliton_stability as ss
from oracles import REFERENCE_CHARTS, variation_report


def test_complex_structure_maps_tangents_to_scaled_normals(grim_reaper):
    """J Phi_x = (1, -tan x, 0, 0) = sec(x) nu_1 and J Phi_y = nu_2."""
    x = 0.7
    jets = ss.eval_jets(grim_reaper, np.array([[x, 0.0]]), order=1)
    j_phx = ss.apply_J(jets.d1[:, 0, 0])
    j_phy = ss.apply_J(jets.d1[:, 1, 0])
    assert np.allclose(j_phx, [1.0, -math.tan(x), 0.0, 0.0], atol=1e-14)
    sec = 1.0 / math.cos(x)
    assert np.allclose(j_phx, sec * np.array([math.cos(x), -math.sin(x), 0.0, 0.0]), atol=1e-14)
    assert np.allclose(j_phy, [0.0, 0.0, 0.0, -1.0], atol=1e-15)


def test_flat_plane_translator_for_other_tangent_directions(flat_plane):
    # any tangent T makes the plane a translator; the machinery must not care
    for T in ([0.0, 0.0, 1.0, 0.0], [1 / math.sqrt(2), 0.0, 1 / math.sqrt(2), 0.0]):
        rep = ss.soliton_residual(flat_plane, T, ss.uniform_grid(flat_plane, 10))
        assert rep.max_soliton_residual <= 1e-14
        support = ss.default_support_box(flat_plane.domain)
        grid = ss.tensor_rule(support, cells=10, points_per_cell=6)
        gg = ss.grid_geometry(flat_plane, T, grid)
        r = variation_report(gg, ss.random_hamiltonian_variation(support, seed=5))
        op, sq, fd, scale = r.Fpp_operator, r.Fpp_square, r.Fpp_fd, r.scale
        assert sq >= 0.0
        assert abs(op - sq) <= 1e-6 * scale
        assert abs(fd - sq) <= 1e-4 * scale


def test_normal_t_direction_is_not_a_translator(flat_plane):
    # T purely normal to the plane: T_perp = T but H = 0
    rep = ss.soliton_residual(flat_plane, [0.0, 1.0, 0.0, 0.0], ss.uniform_grid(flat_plane, 8))
    assert abs(rep.max_soliton_residual - 1.0) < 1e-12


def test_expression_chart_runs_the_full_pipeline(T):
    """The cylinder defined via the expression grammar matches its hand-written jet closure."""
    delta, y_extent = 0.1, 3.0
    expr_chart = ss.chart_from_config(
        {
            "name": "cylinder_from_expressions",
            "domain": [[-math.pi / 2 + delta, math.pi / 2 - delta], [-y_extent, y_extent]],
            "components": ["-log(cos(x))", "x", "y", "0"],
        }
    )
    rep = ss.soliton_residual(expr_chart, T, ss.uniform_grid(expr_chart, 15))
    assert rep.max_soliton_residual <= 1e-10
    assert rep.max_lagrangian_defect <= 1e-12

    support = ss.default_support_box(expr_chart.domain)
    theta = ss.random_hamiltonian_variation(support, seed=9)
    values = []
    for chart in (expr_chart, REFERENCE_CHARTS["grim_reaper"]):
        grid = ss.tensor_rule(support, cells=10, points_per_cell=6)
        gg = ss.grid_geometry(chart, T, grid)
        values.append(variation_report(gg, theta).Fpp_square)
    assert abs(values[0] - values[1]) <= 1e-12 * max(1.0, abs(values[1]))


def test_tilted_lagrangian_plane_is_translator_when_t_tangent(T):
    """A rotated parametrization of a Lagrangian plane through the machinery."""
    chart = ss.chart_from_config(
        {
            "name": "tilted_lagrangian_plane",
            "domain": [[-2.0, 2.0], [-2.0, 2.0]],
            # plane spanned by (1,0,0,0) and (0,0,1,0), skew parametrization
            "components": ["x + y/2", "0", "y", "0"],
        }
    )
    rep = ss.soliton_residual(chart, T, ss.uniform_grid(chart, 8))
    assert rep.max_soliton_residual <= 1e-13
    assert rep.max_lagrangian_defect <= 1e-15
    # skew coordinates: non-orthogonal metric, still exactly flat
    pg = ss.point_geometry(chart, T, np.array([[0.1, -0.3]]))
    assert abs(pg.g[0, 1, 0] - 0.5) < 1e-15
    grid = ss.tensor_rule(ss.default_support_box(chart.domain), cells=10, points_per_cell=6)
    gg = ss.grid_geometry(chart, T, grid)
    r = variation_report(gg, ss.random_hamiltonian_variation(gg.grid.box, seed=2))
    sq, op, scale = r.Fpp_square, r.Fpp_operator, r.scale
    assert sq >= 0.0
    assert abs(op - sq) <= 1e-6 * scale
