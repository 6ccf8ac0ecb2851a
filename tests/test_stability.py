"""Functional values, criticality, and the four second-variation routes."""

import logging

import numpy as np
import pytest

import soliton_stability as ss
from oracles import (
    deformed_functional,
    first_variation_fd,
    functional_value,
    integration_by_parts_report,
    route_integral,
    scalar_gradient_pairing,
    scalar_laplacian,
    variation_report,
    whole_grid_block,
)
from soliton_stability.errors import NotASolitonError
from soliton_stability.geometry import batch_det
from soliton_stability.stability import DEFAULT_FD_STEPS, default_grid_for_support, prepare_variation


def zero_form(support):
    return ss.hamiltonian_variation(ss.scalar_field_from_expression("0", support))


# ---------------------------------------------------------------------------
# functional value


def test_functional_closed_form_on_cylinder(grim_reaper, T):
    # weight times area density is 1/cos^2 x, whose antiderivative is tan x
    for a in (np.pi / 4, 0.9, 1.2):
        val = functional_value(grim_reaper, T, [[-a, a], [0.0, 1.0]])
        assert abs(val - 2.0 * np.tan(a)) < 1e-12 * max(1.0, 2.0 * np.tan(a))
    val = functional_value(grim_reaper, T, [[-np.pi / 4, np.pi / 4], [0.0, 1.0]])
    assert abs(val - 2.0) < 1e-12


def test_functional_flat_plane(flat_plane, T):
    val = functional_value(flat_plane, T, [[0.0, 1.0], [0.0, 1.0]])
    assert abs(val - (np.e - 1.0)) < 1e-13


# ---------------------------------------------------------------------------
# first variation


def test_first_variation_vanishes_on_translators(gr_geometry_small, fp_geometry_small):
    for gg in (gr_geometry_small, fp_geometry_small):
        for seed in range(5):
            report = variation_report(gg, ss.random_hamiltonian_variation(gg.grid.box, seed=seed))
            assert abs(report.first_var) <= 1e-9 * report.scale


def test_first_variation_matches_fd_off_criticality(perturbed, T):
    support = ss.default_support_box(perturbed.domain)
    grid = default_grid_for_support(perturbed, support, cells=20, points_per_cell=8)
    block = whole_grid_block(ss.grid_geometry(perturbed, T, grid))
    for seed in (3, 17):
        data = prepare_variation(block, ss.random_hamiltonian_variation(support, seed=seed))
        fv = route_integral(ss.first_variation, block, data)
        fd = first_variation_fd(block, data)
        assert abs(fv) > 1e-4  # genuinely away from criticality
        assert abs(fv - fd) <= 1e-6 * abs(fd)


# ---------------------------------------------------------------------------
# second variation routes


def test_zero_variation_gives_zeros(gr_geometry_small):
    gg = gr_geometry_small
    theta = zero_form(gg.grid.box)
    report = variation_report(gg, theta)
    assert report.Fpp_operator == 0.0
    assert report.Fpp_divergence == 0.0
    assert report.Fpp_square == 0.0
    assert abs(report.Fpp_fd) < 1e-12
    rep = integration_by_parts_report(whole_grid_block(gg), theta.eval_jets(gg.grid, order=2))
    assert rep.max_mismatch() == 0.0


def test_route_agreement_on_cylinder(gr_geometry_small):
    gg = gr_geometry_small
    for seed in range(1, 6):
        r = variation_report(gg, ss.random_hamiltonian_variation(gg.grid.box, seed=seed))
        op, dv, sq, fd, scale = r.Fpp_operator, r.Fpp_divergence, r.Fpp_square, r.Fpp_fd, r.scale
        assert sq >= 0.0
        assert max(abs(op - dv), abs(op - sq), abs(dv - sq)) <= 1e-6 * scale
        assert abs(fd - sq) <= 1e-4 * scale


def test_route_agreement_on_flat_plane_suite(flat_plane, T):
    support = ss.default_support_box(flat_plane.domain)
    grid = default_grid_for_support(flat_plane, support, cells=12, points_per_cell=6)
    gg = ss.grid_geometry(flat_plane, T, grid)
    variations = [(s, ss.random_hamiltonian_variation(support, s)) for s in range(1, 21)]
    reports = ss.run_variation_suite([gg], variations)
    for r in reports:
        assert r.Fpp_square >= 0.0
        assert r.max_pairwise_rel_diff <= 1e-6
        assert r.fd_rel_diff <= 1e-4
        assert r.Fpp_operator >= -1e-6 * r.scale


def test_richardson_extrapolation_takes_the_quartic_term_out():
    """F(s) = c s^2 + e s^4 has second differences 2c h^2 + 2e h^4, which the extrapolation over
    the squared step ratio takes to F''(0) = 2c exactly; over the plain ratio h1/h2 it would
    leave 2c - 4e h2^2, 5.99998 at c = 3, e = 5."""
    c, e = 3.0, 5.0

    def F(s):
        return c * s**2 + e * s**4

    diffs = [F(h) - 2 * F(0.0) + F(-h) for h in DEFAULT_FD_STEPS]
    assert abs(ss.fd_second_difference(diffs, DEFAULT_FD_STEPS) - 2 * c) <= 1e-12 * 2 * c


def test_quadratic_homogeneity(gr_geometry_small):
    gg = gr_geometry_small
    support = gg.grid.box
    phi = ss.random_polynomial_field(support, seed=6)
    lam = 2.0
    phi2 = ss.ScalarField(support, lambda grid, order: phi.eval_jets(grid, order) * lam, name="scaled")
    form1, form2 = ss.hamiltonian_variation(phi), ss.hamiltonian_variation(phi2)
    r1, r2 = variation_report(gg, form1), variation_report(gg, form2)
    for route in ("Fpp_operator", "Fpp_divergence", "Fpp_square"):
        q1, q2 = getattr(r1, route), getattr(r2, route)
        assert abs(q2 - lam**2 * q1) <= 1e-12 * max(1.0, abs(q2))
    block = whole_grid_block(gg)
    rep1 = integration_by_parts_report(block, form1.eval_jets(gg.grid, order=2))
    rep2 = integration_by_parts_report(block, form2.eval_jets(gg.grid, order=2))
    for a, b in (
        (rep1.lhs_divergence, rep2.lhs_divergence),
        (rep1.rhs_divergence, rep2.rhs_divergence),
        (rep1.lhs_drift, rep2.lhs_drift),
        (rep1.rhs_drift, rep2.rhs_drift),
    ):
        assert abs(b - lam**2 * a) <= 1e-12 * max(1.0, abs(b))


def test_integration_by_parts_identities(gr_geometry_small):
    gg = gr_geometry_small
    block = whole_grid_block(gg)
    for seed in range(10):
        theta = ss.random_hamiltonian_variation(gg.grid.box, seed=seed)
        rep = integration_by_parts_report(block, theta.eval_jets(gg.grid, order=2))
        scale = route_integral(ss.variation_scale, block, prepare_variation(block, theta))
        assert abs(rep.lhs_divergence - rep.rhs_divergence) <= 1e-6 * scale
        assert abs(rep.lhs_drift - rep.rhs_drift) <= 1e-6 * scale


def test_non_closed_form_breaks_square_route_only(gr_geometry_small, caplog):
    gg = gr_geometry_small
    with caplog.at_level(logging.WARNING, logger="soliton_stability"):
        r = variation_report(gg, ss.random_generic_variation(gg.grid.box, seed=7))
    assert r.lagrangian_defect > 0.1
    assert any("non-closed" in rec.message for rec in caplog.records)
    op, dv, sq, fd, scale = r.Fpp_operator, r.Fpp_divergence, r.Fpp_square, r.Fpp_fd, r.scale
    # operator/divergence/fd do not need closedness and still agree
    assert abs(op - dv) <= 1e-6 * scale
    assert abs(fd - op) <= 1e-4 * scale
    # the square form genuinely disagrees
    assert abs(sq - op) / scale > 1e-2


def test_routes_refuse_off_criticality(perturbed, T, monkeypatch):
    """evaluate_variation refuses every route before it forms a variation's jets, and the
    walk refuses the grid before any block's."""
    support = ss.default_support_box(perturbed.domain)
    grid = default_grid_for_support(perturbed, support, cells=6, points_per_cell=4)
    gg = ss.grid_geometry(perturbed, T, grid)
    theta = ss.random_hamiltonian_variation(support, seed=1)
    monkeypatch.setattr(ss.reports, "prepare_variation", lambda *args: pytest.fail("formed jets"))
    with pytest.raises(NotASolitonError):
        ss.evaluate_variation(gg, theta)
    for blocks in ([gg], ss.grid_blocks(perturbed, T, grid)):
        with pytest.raises(NotASolitonError):
            ss.run_variation_suite(blocks, [(1, theta)])


def test_the_walk_refuses_exactly_above_the_grid_wide_residual(perturbed, T, monkeypatch):
    """On the perturbed grim reaper, with r the largest residual over the walk's blocks, the
    walk refuses a tolerance of r / 2 naming r, and yields every block at 2 r."""
    grid = ss.tensor_rule(ss.default_support_box(perturbed.domain), cells=4, points_per_cell=4)
    monkeypatch.setattr(ss.quadrature, "BLOCK_NODES", 4 * 16)
    residuals = [block.soliton_residual for block in ss.grid_blocks(perturbed, T, grid, np.inf)]
    r = max(residuals)
    assert len(residuals) == 4 and 0 < r < np.inf
    with pytest.raises(NotASolitonError) as info:
        list(ss.grid_blocks(perturbed, T, grid, r / 2))
    assert (info.value.residual, info.value.tolerance) == (r, r / 2)
    assert len(list(ss.grid_blocks(perturbed, T, grid, 2 * r))) == 4


def test_flat_plane_square_form_reduces_to_drift_laplacian(fp_geometry_small):
    """On the plane with tangent T the square integrand is (lap phi + phi_x)^2 e^x."""
    gg = fp_geometry_small
    phi = ss.random_polynomial_field(gg.grid.box, seed=21)
    report = variation_report(gg, ss.hamiltonian_variation(phi))
    sq = report.Fpp_square
    pj = phi.eval_jets(gg.grid, order=2)
    integrand = (pj.d2[0, 0] + pj.d2[1, 1] + pj.d1[0]) ** 2 * np.exp(
        gg.grid.nodes[:, 0]
    )
    direct = gg.grid.integrate(integrand)
    assert abs(sq - direct) <= 1e-10 * max(1.0, abs(direct))
    assert abs(report.Fpp_fd - direct) <= 1e-4 * max(1.0, report.scale)


def test_drift_divergence_identity(gr_geometry_small):
    """int (lap v + <T, grad v>) w e^f dmu == -int <grad v, grad w> e^f dmu."""
    gg = gr_geometry_small
    block = whole_grid_block(gg)
    pg, area_weight = block.pg, block.area_weight
    for seed in (2, 14):
        v = ss.random_polynomial_field(gg.grid.box, seed=seed)
        w = ss.random_polynomial_field(gg.grid.box, seed=seed + 1000)
        vj = v.eval_jets(gg.grid, order=2)
        wj = w.eval_jets(gg.grid, order=2)
        drift_lap = scalar_laplacian(pg, vj) + np.einsum("an,an->n", pg.T_coord, vj.d1)
        lhs = gg.grid.integrate(drift_lap * wj.val * area_weight)
        rhs = -gg.grid.integrate(scalar_gradient_pairing(pg, vj, wj) * area_weight)
        scale = gg.grid.integrate(
            (
                vj.val**2
                + wj.val**2
                + scalar_gradient_pairing(pg, vj, vj)
                + scalar_gradient_pairing(pg, wj, wj)
            )
            * area_weight
        )
        assert abs(lhs - rhs) <= 1e-6 * scale


def test_grid_convergence_of_reported_integrals(grim_reaper, T, gr_support):
    theta = ss.random_hamiltonian_variation(gr_support, seed=1)
    values = {}
    for cells in (10, 20):
        grid = ss.tensor_rule(gr_support, cells=cells, points_per_cell=8)
        gg = ss.grid_geometry(grim_reaper, T, grid)
        report = variation_report(gg, theta)
        values[cells] = (report.Fpp_square, report.scale, report.F_value)
    for a, b in zip(values[10], values[20]):
        assert abs(a - b) <= 1e-8 * abs(b)


def test_deformed_functional_reuses_rest_metric(gr_geometry_small, perturbed, T):
    # the perturbed cylinder is no translator, but its metric has off-diagonal
    # terms, where two determinant formulas round differently
    grid = ss.tensor_rule(ss.default_support_box(perturbed.domain), cells=10, points_per_cell=6)
    for gg in (gr_geometry_small, ss.grid_geometry(perturbed, T, grid)):
        block = whole_grid_block(gg)
        pg = block.pg
        data = prepare_variation(block, ss.random_hamiltonian_variation(gg.grid.box, seed=4))
        # bit for bit: at s = 0 the deformed metric is point_geometry's, and
        # both sides use the same weight and the same determinant.  Pointwise
        # last-bit differences of two determinants can cancel in the quadrature
        # sum, so the shared determinant is also checked node by node.
        assert deformed_functional(block, data, 0.0) == gg.grid.integrate(gg.area_weight)
        assert np.array_equal(pg.sqrt_det_g, np.sqrt(batch_det(pg.g)))
        # g + s C + s^2 Q is the Gram matrix of the deformed tangents t + s dV
        v_val, v_d1 = data.v, ss.variation_field_jets(data.theta, data.dtheta, pg)
        for s in (2e-3, -1e-3, 0.5):
            tang = pg.tangents + s * v_d1
            g = np.einsum("man,mbn->nab", tang, tang)
            weight = np.exp(pg.T @ (pg.positions + s * v_val))
            direct = gg.grid.integrate(weight * np.sqrt(np.linalg.det(g)))
            assert abs(deformed_functional(block, data, s) - direct) <= 1e-14 * abs(direct)
