"""Pointwise geometry against closed forms, frames, and global diagnostics."""

import math

import numpy as np
import pytest

import soliton_stability as ss
from soliton_stability.errors import ImmersionError
from soliton_stability.geometry import batch_det, kaehler_pullback

# frozen regression baseline for the eps=0.05 perturbed cylinder on the 30x30
# diagnostic grid (max pointwise distance from the translator equation)
PERTURBED_RESIDUAL_BASELINE = 0.0993304270633205


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_batch_det_matches_lapack(d):
    # random SPD batches, as every induced metric is; d = 4 covers the flat plane in C^4
    rng = np.random.default_rng(d)
    b = rng.uniform(-1.0, 1.0, size=(500, d, d))
    spd = b @ b.swapaxes(1, 2) + d * np.eye(d)
    ref = np.linalg.det(spd)
    assert np.max(np.abs(batch_det(spd) - ref) / np.abs(ref)) <= 1e-13


def test_metric_and_weight_closed_forms(grim_reaper, structure):
    pts = np.array([[math.pi / 3, 0.4], [0.0, -1.0], [-1.2, 2.2]])
    pg = ss.point_geometry(grim_reaper, structure, pts)
    x = pts[:, 0]
    sec2 = 1.0 / np.cos(x) ** 2
    assert np.allclose(pg.g[:, 0, 0], sec2, atol=1e-12)
    assert np.allclose(pg.g[:, 0, 1], 0.0, atol=1e-15)
    assert np.allclose(pg.g[:, 1, 1], 1.0, atol=1e-15)
    assert np.allclose(pg.g_inv[:, 0, 0], 1.0 / sec2, atol=1e-13)
    assert np.allclose(pg.sqrt_det_g, np.sqrt(sec2), atol=1e-12)
    assert np.allclose(pg.weight, 1.0 / np.cos(x), atol=1e-12)
    # spot values: g = diag(4, 1) and weight 2 at x = pi/3
    assert np.allclose(pg.g[0], np.diag([4.0, 1.0]), atol=1e-12)
    assert np.isclose(pg.weight[0], 2.0, atol=1e-12)
    assert np.allclose(pg.g @ pg.g_inv, np.eye(2)[None], atol=1e-12)


def test_flat_plane_trivials(flat_plane, structure):
    pts = np.array([[0.3, 0.4], [-1.0, 2.0]])
    pg = ss.point_geometry(flat_plane, structure, pts)
    assert np.allclose(pg.g, np.eye(2)[None], atol=1e-15)
    assert np.all(pg.h3 == 0.0)
    assert np.all(pg.H_frame == 0.0)
    assert np.all(pg.Gamma == 0.0)
    assert np.allclose(ss.mean_curvature_vector(pg), 0.0)


def test_second_fundamental_form_closed_form(grim_reaper, structure):
    pts = np.array([[0.0, 0.0], [0.8, -0.5]])
    pg = ss.point_geometry(grim_reaper, structure, pts)
    sec = 1.0 / np.cos(pts[:, 0])
    h_num = np.einsum("nqab,nqp->nabp", pg.h_coord, pg.nu)
    expected = np.zeros_like(h_num)
    expected[:, 0, 0, 0] = sec
    assert np.allclose(h_num, expected, atol=1e-12)
    # at x = 0 this is the single unit component
    assert np.isclose(h_num[0, 0, 0, 0], 1.0, atol=1e-14)


def test_mean_curvature_closed_form(grim_reaper, structure):
    pts = np.array([[0.0, 0.0], [math.pi / 3, 1.0]])
    pg = ss.point_geometry(grim_reaper, structure, pts)
    H = ss.mean_curvature_vector(pg)
    assert np.allclose(H[0], [1.0, 0.0, 0.0, 0.0], atol=1e-13)
    assert np.isclose(np.linalg.norm(H[1]), 0.5, atol=1e-13)
    # H equals its frame expansion sum_k H_k nu_k
    assert np.allclose(H, np.einsum("nk,npk->np", pg.H_frame, pg.nu), atol=1e-10)


def test_frames_orthonormal_and_adapted(grim_reaper, perturbed, structure):
    for chart in (grim_reaper, perturbed):
        pts = ss.uniform_grid(chart, 12)
        pg = ss.point_geometry(chart, structure, pts)
        ee = np.einsum("npi,npj->nij", pg.e, pg.e)
        nn = np.einsum("npi,npj->nij", pg.nu, pg.nu)
        en = np.einsum("npi,npj->nij", pg.e, pg.nu)
        assert np.max(np.abs(ee - np.eye(2))) < 1e-12
        assert np.max(np.abs(nn - np.eye(2))) < 1e-12
        assert np.max(np.abs(en)) < 1e-12
        # J e_i lies in the numeric normal space: orthogonal to all tangents
        Je = np.einsum("pq,nqi->npi", structure.J, pg.e)
        proj = np.einsum("npi,npa->nia", Je, pg.tangents)
        assert np.max(np.abs(proj)) < 1e-10
        # h fully symmetric in all three indices for Lagrangian charts
        assert np.max(np.abs(pg.h3 - pg.h3.swapaxes(0 + 1, 1 + 1))) < 1e-9
        assert np.max(np.abs(pg.h3 - np.einsum("nijk->nkji", pg.h3))) < 1e-9
        # h_coord is perpendicular to the tangent space
        perp = np.einsum("nqab,nqc->nabc", pg.h_coord, pg.tangents)
        assert np.max(np.abs(perp)) < 1e-10


def test_frame_gauge_matches_natural_cylinder_frame(grim_reaper, structure):
    """Gram-Schmidt in coordinate order reproduces (cos x, -sin x, 0, 0), (0,0,0,-1)."""
    pts = np.array([[0.6, 0.0]])
    pg = ss.point_geometry(grim_reaper, structure, pts)
    x = 0.6
    assert np.allclose(pg.e[0, :, 0], [math.sin(x), math.cos(x), 0, 0], atol=1e-14)
    assert np.allclose(pg.nu[0, :, 0], [math.cos(x), -math.sin(x), 0, 0], atol=1e-14)
    assert np.allclose(pg.nu[0, :, 1], [0, 0, 0, -1], atol=1e-15)


def test_translator_identity_for_normal_components(grim_reaper, structure):
    # H_p = <T, nu_p> on a translator
    pts = ss.uniform_grid(grim_reaper, 15)
    pg = ss.point_geometry(grim_reaper, structure, pts)
    assert np.max(np.abs(pg.H_frame - pg.T_norm)) < 1e-10


def test_soliton_residual_certificates(grim_reaper, flat_plane, perturbed, structure):
    rep = ss.soliton_residual(grim_reaper, structure, ss.uniform_grid(grim_reaper, 50))
    assert rep.max_soliton_residual <= 1e-10
    assert rep.max_lagrangian_defect <= 1e-12

    rep_fp = ss.soliton_residual(flat_plane, structure, ss.uniform_grid(flat_plane, 20))
    assert rep_fp.max_soliton_residual <= 1e-14
    assert rep_fp.max_lagrangian_defect == 0.0

    rep_p = ss.soliton_residual(perturbed, structure, ss.uniform_grid(perturbed, 30))
    assert rep_p.max_soliton_residual > 1e-3
    assert abs(rep_p.max_soliton_residual - PERTURBED_RESIDUAL_BASELINE) < 1e-9
    # the perturbation is exactly Lagrangian by construction
    assert rep_p.max_lagrangian_defect <= 1e-12


def test_lagrangian_defect_on_non_lagrangian_patch(structure):
    patch = ss.non_lagrangian_patch()
    defect = ss.soliton_residual(patch, structure, ss.uniform_grid(patch, 10)).max_lagrangian_defect
    assert defect > 0.5  # identically 1 for this patch


def test_gauss_equation_agreement(grim_reaper, flat_plane, perturbed, structure):
    for chart in (grim_reaper, flat_plane, perturbed):
        grid = ss.uniform_grid(chart, 12)
        r_int, r_gauss, ric = ss.curvature_tensor(ss.point_geometry(chart, structure, grid))
        assert np.max(np.abs(r_int - r_gauss)) < 1e-8
        # Ricci from the Gauss route equals the intrinsic trace
        assert np.max(np.abs(np.einsum("nijkj->nik", r_int) - ric)) < 1e-8


def test_cylinder_is_intrinsically_flat(grim_reaper, structure):
    grid = ss.uniform_grid(grim_reaper, 10)
    r_int, r_gauss, ric = ss.curvature_tensor(ss.point_geometry(grim_reaper, structure, grid))
    assert np.max(np.abs(r_int)) < 1e-12
    assert np.max(np.abs(ric)) < 1e-12


def test_curved_graph_sign_convention(structure):
    """Paraboloid graph osculating the unit sphere: sectional curvature +1 at 0."""
    chart = ss.chart_from_config(
        {
            "name": "paraboloid",
            "domain": [[-0.5, 0.5], [-0.5, 0.5]],
            "components": ["x", "y", "(x*x + y*y)/2", "0"],
        }
    )
    pts = np.array([[1e-8, 1e-8]])
    r_int, r_gauss, ric = ss.curvature_tensor(ss.point_geometry(chart, structure, pts))
    assert np.isclose(r_int[0, 0, 1, 0, 1], 1.0, atol=1e-6)
    assert np.allclose(ric[0], np.eye(2), atol=1e-6)
    assert np.max(np.abs(r_int - r_gauss)) < 1e-8


def test_low_dimensional_chart_is_supported(structure):
    """A curve in R^4 (d < n): frames complete and H is the curve's curvature."""
    helix = ss.chart_from_config(
        {
            "name": "circle_line",
            "domain": [[-3.0, 3.0]],
            "components": ["cos(x)", "sin(x)", "x", "0"],
        }
    )
    pts = np.array([[0.3], [1.1]])
    pg = ss.point_geometry(helix, structure, pts)
    assert not pg.lagrangian
    assert pg.e.shape == (2, 4, 1)
    assert pg.nu.shape == (2, 4, 3)
    frame = np.concatenate([pg.e, pg.nu], axis=2)
    gram = np.einsum("npi,npj->nij", frame, frame)
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12
    # |curvature vector| of (cos t, sin t, t) is 1/2 at unit speed sqrt(2)
    H = ss.mean_curvature_vector(pg)
    assert np.allclose(np.linalg.norm(H, axis=1), 0.5, atol=1e-12)


def test_rank_deficiency_raises(structure):
    chart = ss.chart_from_config(
        {
            "name": "degenerate",
            "domain": [[-1, 1], [-1, 1]],
            "components": ["x", "0", "x", "0"],  # second column collapses
        }
    )
    with pytest.raises(ImmersionError, match=r"rank deficient at point \[0\.1, 0\.1\]"):
        ss.point_geometry(chart, structure, np.array([[0.1, 0.1]]))


def test_kaehler_pullback_values(grim_reaper, structure):
    jets = ss.eval_jets(grim_reaper, np.array([[0.5, 0.5]]), order=1)
    omega = kaehler_pullback(structure, jets.d1)
    assert np.allclose(omega, 0.0, atol=1e-15)


def test_diagnostics_report_serialization(grim_reaper, structure):
    rep = ss.soliton_residual(grim_reaper, structure, ss.uniform_grid(grim_reaper, 5))
    d = rep.to_dict()
    assert set(d) == {"chart", "grid", "max_soliton_residual", "max_lagrangian_defect"}
    assert d["chart"] == "grim_reaper"
