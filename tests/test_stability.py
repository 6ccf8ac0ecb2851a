"""Functional values, criticality, and the four second-variation routes."""

import logging

import numpy as np
import pytest

import soliton_stability as ss
from oracles import functional_value
from soliton_stability.errors import NotASolitonError
from soliton_stability.geometry import batch_det
from soliton_stability.stability import (
    _deformation,
    _deformed_functional,
    default_grid_for_support,
    first_variation_fd,
    integration_by_parts_report,
    prepare_variation,
    scalar_gradient_pairing,
    scalar_laplacian,
)


def zero_form(support):
    return ss.hamiltonian_variation(ss.scalar_field_from_expression("0", support))


# ---------------------------------------------------------------------------
# functional value


def test_functional_closed_form_on_cylinder(grim_reaper, structure):
    # weight times area density is 1/cos^2 x, whose antiderivative is tan x
    for a in (np.pi / 4, 0.9, 1.2):
        val = functional_value(grim_reaper, structure, [[-a, a], [0.0, 1.0]])
        assert abs(val - 2.0 * np.tan(a)) < 1e-12 * max(1.0, 2.0 * np.tan(a))
    val = functional_value(grim_reaper, structure, [[-np.pi / 4, np.pi / 4], [0.0, 1.0]])
    assert abs(val - 2.0) < 1e-12


def test_functional_flat_plane(flat_plane, structure):
    val = functional_value(flat_plane, structure, [[0.0, 1.0], [0.0, 1.0]])
    assert abs(val - (np.e - 1.0)) < 1e-13


# ---------------------------------------------------------------------------
# first variation


def test_first_variation_vanishes_on_translators(gr_geometry_small, fp_geometry_small):
    for gg in (gr_geometry_small, fp_geometry_small):
        for seed in range(5):
            data = prepare_variation(gg, ss.random_hamiltonian_variation(gg.grid.box, seed=seed))
            fv = ss.first_variation(gg, data)
            scale = ss.variation_scale(gg, data)
            assert abs(fv) <= 1e-9 * scale


def test_first_variation_matches_fd_off_criticality(perturbed, structure):
    support = ss.default_support_box(perturbed.domain)
    grid = default_grid_for_support(perturbed, support, cells=20, points_per_cell=8)
    gg = ss.grid_geometry(perturbed, structure, grid)
    for seed in (3, 17):
        data = prepare_variation(gg, ss.random_hamiltonian_variation(support, seed=seed))
        fv = ss.first_variation(gg, data)
        fd = first_variation_fd(gg, data)
        assert abs(fv) > 1e-4  # genuinely away from criticality
        assert abs(fv - fd) <= 1e-6 * abs(fd)


# ---------------------------------------------------------------------------
# second variation routes


def test_zero_variation_gives_zeros(gr_geometry_small):
    gg = gr_geometry_small
    data = prepare_variation(gg, zero_form(gg.grid.box))
    assert ss.second_variation_operator(gg, data) == 0.0
    assert ss.second_variation_divergence(gg, data) == 0.0
    assert ss.second_variation_square(gg, data) == 0.0
    assert abs(ss.second_variation_fd_oracle(gg, data)) < 1e-12
    rep = integration_by_parts_report(gg, data)
    assert rep.max_mismatch() == 0.0


def test_route_agreement_on_cylinder(gr_geometry_small):
    gg = gr_geometry_small
    for seed in range(1, 6):
        data = prepare_variation(gg, ss.random_hamiltonian_variation(gg.grid.box, seed=seed))
        op = ss.second_variation_operator(gg, data)
        dv = ss.second_variation_divergence(gg, data)
        sq = ss.second_variation_square(gg, data)
        fd = ss.second_variation_fd_oracle(gg, data)
        scale = ss.variation_scale(gg, data)
        assert sq >= 0.0
        assert max(abs(op - dv), abs(op - sq), abs(dv - sq)) <= 1e-6 * scale
        assert abs(fd - sq) <= 1e-4 * scale


def test_route_agreement_on_flat_plane_suite(flat_plane, structure):
    support = ss.default_support_box(flat_plane.domain)
    grid = default_grid_for_support(flat_plane, support, cells=12, points_per_cell=6)
    gg = ss.grid_geometry(flat_plane, structure, grid)
    variations = [(s, ss.random_hamiltonian_variation(support, s)) for s in range(1, 21)]
    reports = ss.run_variation_suite(gg, variations)
    for r in reports:
        assert r.Fpp_square >= 0.0
        assert r.max_pairwise_rel_diff <= 1e-6
        assert r.fd_rel_diff <= 1e-4
        assert r.Fpp_operator >= -1e-6 * r.scale


def test_quadratic_homogeneity(gr_geometry_small):
    gg = gr_geometry_small
    support = gg.grid.box
    phi = ss.random_polynomial_field(support, seed=6)
    lam = 2.0
    phi2 = ss.ScalarField(support, lambda where, order: phi.eval_jets(where, order) * lam, name="scaled")
    th1 = prepare_variation(gg, ss.hamiltonian_variation(phi))
    th2 = prepare_variation(gg, ss.hamiltonian_variation(phi2))
    for route in (
        ss.second_variation_operator,
        ss.second_variation_divergence,
        ss.second_variation_square,
    ):
        q1, q2 = route(gg, th1), route(gg, th2)
        assert abs(q2 - lam**2 * q1) <= 1e-12 * max(1.0, abs(q2))
    rep1 = integration_by_parts_report(gg, th1)
    rep2 = integration_by_parts_report(gg, th2)
    for a, b in (
        (rep1.lhs_divergence, rep2.lhs_divergence),
        (rep1.rhs_divergence, rep2.rhs_divergence),
        (rep1.lhs_drift, rep2.lhs_drift),
        (rep1.rhs_drift, rep2.rhs_drift),
    ):
        assert abs(b - lam**2 * a) <= 1e-12 * max(1.0, abs(b))


def test_integration_by_parts_identities(gr_geometry_small):
    gg = gr_geometry_small
    for seed in range(10):
        data = prepare_variation(gg, ss.random_hamiltonian_variation(gg.grid.box, seed=seed))
        rep = integration_by_parts_report(gg, data)
        scale = ss.variation_scale(gg, data)
        assert abs(rep.lhs_divergence - rep.rhs_divergence) <= 1e-6 * scale
        assert abs(rep.lhs_drift - rep.rhs_drift) <= 1e-6 * scale


def test_non_closed_form_breaks_square_route_only(gr_geometry_small, caplog):
    gg = gr_geometry_small
    data = prepare_variation(gg, ss.random_generic_variation(gg.grid.box, seed=7))
    assert data.defect > 0.1
    with caplog.at_level(logging.WARNING, logger="soliton_stability"):
        sq = ss.second_variation_square(gg, data)
    assert any("non-closed" in rec.message for rec in caplog.records)
    op = ss.second_variation_operator(gg, data)
    dv = ss.second_variation_divergence(gg, data)
    fd = ss.second_variation_fd_oracle(gg, data)
    scale = ss.variation_scale(gg, data)
    # operator/divergence/fd do not need closedness and still agree
    assert abs(op - dv) <= 1e-6 * scale
    assert abs(fd - op) <= 1e-4 * scale
    # the square form genuinely disagrees
    assert abs(sq - op) / scale > 1e-2


def test_routes_refuse_off_criticality(perturbed, structure):
    support = ss.default_support_box(perturbed.domain)
    grid = default_grid_for_support(perturbed, support, cells=6, points_per_cell=4)
    gg = ss.grid_geometry(perturbed, structure, grid)
    data = prepare_variation(gg, ss.random_hamiltonian_variation(support, seed=1))
    for route in (
        ss.second_variation_operator,
        ss.second_variation_divergence,
        ss.second_variation_square,
        ss.second_variation_fd_oracle,
    ):
        with pytest.raises(NotASolitonError):
            route(gg, data)


def test_flat_plane_square_form_reduces_to_drift_laplacian(fp_geometry_small):
    """On the plane with tangent T the square integrand is (lap phi + phi_x)^2 e^x."""
    gg = fp_geometry_small
    phi = ss.random_polynomial_field(gg.grid.box, seed=21)
    data = prepare_variation(gg, ss.hamiltonian_variation(phi))
    sq = ss.second_variation_square(gg, data)
    pj = phi.eval_jets(gg.pg.points, order=2)
    integrand = (pj.d2[:, 0, 0] + pj.d2[:, 1, 1] + pj.d1[:, 0]) ** 2 * np.exp(
        gg.pg.points[:, 0]
    )
    direct = gg.grid.integrate(integrand)
    assert abs(sq - direct) <= 1e-10 * max(1.0, abs(direct))
    fd = ss.second_variation_fd_oracle(gg, data)
    assert abs(fd - direct) <= 1e-4 * max(1.0, ss.variation_scale(gg, data))


def test_drift_divergence_identity(gr_geometry_small):
    """int (lap v + <T, grad v>) w e^f dmu == -int <grad v, grad w> e^f dmu."""
    gg = gr_geometry_small
    pg = gg.pg
    for seed in (2, 14):
        v = ss.random_polynomial_field(gg.grid.box, seed=seed)
        w = ss.random_polynomial_field(gg.grid.box, seed=seed + 1000)
        vj = v.eval_jets(pg.points, order=2)
        wj = w.eval_jets(pg.points, order=2)
        drift_lap = scalar_laplacian(pg, vj) + np.einsum("na,na->n", pg.T_coord, vj.d1)
        lhs = gg.grid.integrate(drift_lap * wj.val * gg.area_weight)
        rhs = -gg.grid.integrate(scalar_gradient_pairing(pg, vj, wj) * gg.area_weight)
        scale = gg.grid.integrate(
            (
                vj.val**2
                + wj.val**2
                + scalar_gradient_pairing(pg, vj, vj)
                + scalar_gradient_pairing(pg, wj, wj)
            )
            * gg.area_weight
        )
        assert abs(lhs - rhs) <= 1e-6 * scale


def test_grid_convergence_of_reported_integrals(grim_reaper, structure, gr_support):
    theta = ss.random_hamiltonian_variation(gr_support, seed=1)
    values = {}
    for cells in (10, 20):
        grid = ss.tensor_rule(gr_support, cells=cells, points_per_cell=8)
        gg = ss.grid_geometry(grim_reaper, structure, grid)
        data = prepare_variation(gg, theta)
        values[cells] = (
            ss.second_variation_square(gg, data),
            ss.variation_scale(gg, data),
            gg.functional_at_rest,
        )
    for a, b in zip(values[10], values[20]):
        assert abs(a - b) <= 1e-8 * abs(b)


def test_fd_oracle_instability_flag(gr_geometry_small, caplog):
    gg = gr_geometry_small
    data = prepare_variation(gg, ss.random_hamiltonian_variation(gg.grid.box, seed=2))
    with caplog.at_level(logging.WARNING, logger="soliton_stability"):
        ss.second_variation_fd_oracle(gg, data, steps=(2e-3, 1e-3), instability_tol=1e-18)
    assert any("extrapolation levels disagree" in rec.message for rec in caplog.records)


def test_deformed_functional_reuses_rest_metric(gr_geometry_small, perturbed, structure):
    # the perturbed cylinder is no translator, but its metric has off-diagonal
    # terms, where two determinant formulas round differently
    grid = ss.tensor_rule(ss.default_support_box(perturbed.domain), cells=10, points_per_cell=6)
    for gg in (gr_geometry_small, ss.grid_geometry(perturbed, structure, grid)):
        data = prepare_variation(gg, ss.random_hamiltonian_variation(gg.grid.box, seed=4))
        deformation = _deformation(gg, data)
        # bit for bit: at s = 0 the deformed metric is point_geometry's, and
        # both sides use the same weight and the same determinant.  Pointwise
        # last-bit differences of two determinants can cancel in the quadrature
        # sum, so the shared determinant is also checked node by node.
        assert _deformed_functional(gg, deformation, 0.0) == gg.functional_at_rest
        assert np.array_equal(gg.pg.sqrt_det_g, np.sqrt(batch_det(gg.pg.g)))
        # g + s C + s^2 Q is the Gram matrix of the deformed tangents t + s dV
        v_val, v_d1 = data.v, ss.variation_field_jets(data.fj, gg.pg, gg.jets)
        for s in (2e-3, -1e-3, 0.5):
            tang = gg.jets.d1 + s * v_d1
            g = np.einsum("nma,nmb->nab", tang, tang)
            weight = np.exp((gg.jets.val + s * v_val) @ gg.structure.T)
            direct = gg.grid.integrate(weight * np.sqrt(np.linalg.det(g)))
            assert abs(_deformed_functional(gg, deformation, s) - direct) <= 1e-14 * abs(direct)
