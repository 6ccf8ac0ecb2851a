"""End-to-end acceptance criteria at their contractual tolerances.

Each test prints one ``ACCEPTANCE <n> <name>: PASS`` line (run with ``-s`` to
see them live).  Criteria that share expensive artifacts (the default-grid
geometry and the 20-variation suite) reuse module-scoped fixtures; the
determinism criterion rebuilds everything from scratch by design.
"""

import time

import numpy as np
import pytest

import soliton_stability as ss
from oracles import (
    christoffel_partial,
    curvature_tensor,
    first_variation_fd,
    integration_by_parts_report,
    ricci_identity_residual,
    route_integral,
    variation_report,
    whole_grid_block,
)
from soliton_stability.reports import reports_to_json
from soliton_stability.stability import prepare_variation
from soliton_stability.wirtinger import closed_form_deviations

SUITE_SEED = 1
SUITE_COUNT = 20


def report(n, name, detail=""):
    print(f"\nACCEPTANCE {n} {name}: PASS {detail}")


@pytest.fixture(scope="module")
def default_gg(grim_reaper, T, gr_support):
    grid = ss.tensor_rule(gr_support, cells=40, points_per_cell=8)
    return ss.grid_geometry(grim_reaper, T, grid)


def seeded_variations(support, count):
    return [
        (seed, ss.random_hamiltonian_variation(support, seed))
        for seed in range(SUITE_SEED, SUITE_SEED + count)
    ]


@pytest.fixture(scope="module")
def suite(gr_support, default_gg):
    t0 = time.perf_counter()
    blocks = ss.grid_blocks(default_gg.chart, default_gg.pg.T, default_gg.grid)
    reports = ss.run_variation_suite(blocks, seeded_variations(gr_support, SUITE_COUNT))
    return reports, time.perf_counter() - t0


def test_criterion_1_geometry_oracle(grim_reaper, T):
    t0 = time.perf_counter()
    dev = closed_form_deviations(grim_reaper, T, ss.uniform_grid(grim_reaper, 50))
    elapsed = time.perf_counter() - t0
    assert max(dev.values()) <= 1e-10, dev
    assert elapsed < 5.0
    report(1, "geometry-oracle", f"(max deviation {max(dev.values()):.2e}, {elapsed:.2f}s)")


def test_criterion_2_soliton_certificate(grim_reaper, flat_plane, T):
    rep = ss.soliton_residual(grim_reaper, T, ss.uniform_grid(grim_reaper, 50))
    assert rep.max_soliton_residual <= 1e-10
    assert rep.max_lagrangian_defect <= 1e-12
    rep_fp = ss.soliton_residual(flat_plane, T, ss.uniform_grid(flat_plane, 50))
    assert rep_fp.max_soliton_residual <= 1e-14  # zero up to round-off
    report(
        2,
        "soliton-certificate",
        f"(cylinder residual {rep.max_soliton_residual:.2e}, "
        f"defect {rep.max_lagrangian_defect:.2e}, plane residual {rep_fp.max_soliton_residual:.2e})",
    )


def test_criterion_3_identity_suite(suite):
    reports, elapsed = suite
    assert len(reports) == SUITE_COUNT
    worst_pair = max(r.max_pairwise_rel_diff for r in reports)
    worst_fd = max(r.fd_rel_diff for r in reports)
    for r in reports:
        assert r.max_pairwise_rel_diff <= 1e-6
        assert r.fd_rel_diff <= 1e-4
        assert r.Fpp_square >= 0.0
        assert r.Fpp_operator >= -1e-6 * r.scale
    assert elapsed < 60.0
    report(
        3,
        "second-variation-identity",
        f"(20 variations, pairwise {worst_pair:.2e}, fd {worst_fd:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_4_lagrangian_hypothesis_necessary(default_gg, suite):
    reports, _ = suite
    assert all(r.max_pairwise_rel_diff < 1e-6 for r in reports)
    r = variation_report(default_gg, ss.random_generic_variation(default_gg.grid.box, seed=7))
    gap = abs(r.Fpp_square - r.Fpp_operator) / r.scale
    assert gap > 1e-2
    report(4, "closedness-hypothesis", f"(non-closed gap {gap:.2e} vs closed < 1e-6)")


def test_criterion_5_proof_step_identities(default_gg, grim_reaper, T):
    block = whole_grid_block(default_gg)
    dG = christoffel_partial(block.chart, block.grid)
    _, _, ricci = curvature_tensor(block.pg, dG)
    worst_ricci = 0.0
    worst_parts = 0.0
    for seed in range(SUITE_SEED, SUITE_SEED + 10):
        theta = ss.random_hamiltonian_variation(default_gg.grid.box, seed=seed)
        data = prepare_variation(block, theta)
        fj = theta.eval_jets(default_gg.grid, order=2)
        worst_ricci = max(worst_ricci, ricci_identity_residual(fj, block.pg, ricci, dG))
        rep = integration_by_parts_report(block, fj)
        scale = route_integral(ss.variation_scale, block, data)
        worst_parts = max(worst_parts, rep.max_mismatch() / scale)
    assert worst_ricci <= 1e-7
    assert worst_parts <= 1e-6
    gauss_worst = 0.0
    for chart in (grim_reaper, ss.chart_from_config("perturbed_grim_reaper"), ss.chart_from_config("flat_plane")):
        grid = ss.uniform_grid(chart, 20)
        r_int, r_gauss, _ = curvature_tensor(ss.point_geometry(chart, T, grid), christoffel_partial(chart, grid))
        gauss_worst = max(gauss_worst, float(np.max(np.abs(r_int - r_gauss))))
    assert gauss_worst <= 1e-8
    report(
        5,
        "proof-step-identities",
        f"(ricci {worst_ricci:.2e}, gauss {gauss_worst:.2e}, by-parts {worst_parts:.2e})",
    )


def test_criterion_6_cylinder_stability_pipeline(gr_support):
    grid = ss.tensor_rule(gr_support, cells=20, points_per_cell=8)
    for i in range(10):
        v3 = ss.random_polynomial_field(gr_support, seed=SUITE_SEED + i)
        v4 = ss.random_polynomial_field(gr_support, seed=SUITE_SEED + 100 + i)
        res = ss.cylinder_stability_integrals(v3, v4, grid)
        assert res.curvature_integral <= res.gradient_integral
        assert np.all(res.slice_lhs <= res.slice_rhs + 1e-12)
    gap = ss.dirichlet_gap(2000)
    assert abs(gap - 1.0) <= 1e-3
    report(6, "cylinder-stability", f"(10 pairs ok, dirichlet gap {gap:.6f})")


def test_criterion_7_criticality(suite, flat_plane, T, perturbed):
    reports, _ = suite
    worst = max(abs(r.first_var) / r.scale for r in reports)
    assert worst <= 1e-9
    fp_support = ss.default_support_box(flat_plane.domain)
    fp_grid = ss.tensor_rule(fp_support, cells=12, points_per_cell=6)
    fp_gg = ss.grid_geometry(flat_plane, T, fp_grid)
    fp_reports = ss.run_variation_suite([fp_gg], seeded_variations(fp_support, 10))
    worst_fp = max(abs(r.first_var) / r.scale for r in fp_reports)
    assert worst_fp <= 1e-9
    support = ss.default_support_box(perturbed.domain)
    grid = ss.tensor_rule(support, cells=20, points_per_cell=8)
    block = whole_grid_block(ss.grid_geometry(perturbed, T, grid))
    worst_fd = 0.0
    for seed in (SUITE_SEED, SUITE_SEED + 1):
        data = prepare_variation(block, ss.random_hamiltonian_variation(support, seed=seed))
        fv = route_integral(ss.first_variation, block, data)
        fd = first_variation_fd(block, data)
        worst_fd = max(worst_fd, abs(fv - fd) / abs(fd))
    assert worst_fd <= 1e-6
    report(
        7,
        "criticality",
        f"(soliton {max(worst, worst_fp):.2e} rel, non-soliton fd match {worst_fd:.2e})",
    )


def test_criterion_8_determinism(grim_reaper, T, gr_support, suite):
    reports_a, _ = suite
    json_a = reports_to_json(reports_a)
    grid = ss.tensor_rule(gr_support, cells=40, points_per_cell=8)
    blocks = ss.grid_blocks(grim_reaper, T, grid)
    reports_b = ss.run_variation_suite(blocks, seeded_variations(gr_support, SUITE_COUNT), workers=1)
    json_b = reports_to_json(reports_b)
    assert json_a.encode() == json_b.encode()
    report(8, "determinism", f"({len(json_a)} bytes, identical)")
