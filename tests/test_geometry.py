"""Pointwise geometry against closed forms, frames, and global diagnostics."""

import math
import re

import numpy as np
import pytest
from numpy.linalg import LinAlgError
from hypothesis import given, settings
from hypothesis import strategies as st

import soliton_stability as ss
import soliton_stability.jets as J
from oracles import (
    curvature_tensor,
    frame_mean_curvature,
    frame_translator_defect,
    full_rank_message,
    lapack_frame,
    lapack_inverse,
)
from soliton_stability.charts import BUILTIN_CHARTS, apply_J
from soliton_stability.expressions import variable_names
from soliton_stability.errors import EvaluationError, ImmersionError, UnsupportedChartError
from soliton_stability.geometry import (
    RANK_TOL,
    PointGeometry,
    _require_full_rank,
    adjugate,
    batch_det,
    kaehler_pullback,
    translator_defect,
)

# frozen regression baseline for the eps=0.05 perturbed cylinder on the 30x30
# diagnostic grid (max pointwise distance from the translator equation)
PERTURBED_RESIDUAL_BASELINE = 0.0993304270633205


def random_spd(d, seed, count=500):
    """A node-last batch of well-conditioned SPD matrices (eigenvalues at least d)."""
    b = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(count, d, d))
    return np.ascontiguousarray(np.moveaxis(b @ b.swapaxes(1, 2) + d * np.eye(d), 0, -1))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_batch_det_matches_lapack(d):
    # random SPD batches, as every induced metric is; d = 4 covers the flat plane in C^4
    spd = random_spd(d, d)
    ref = np.linalg.det(np.moveaxis(spd, -1, 0))
    # batch_det indexes the leading (matrix) axes: the node axis is last
    assert np.max(np.abs(batch_det(spd) - ref) / np.abs(ref)) <= 1e-13


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_adjugate_inverse_matches_lapack(d):
    g = random_spd(d, 10 + d)
    g_inv = adjugate(g) / batch_det(g)
    ref = lapack_inverse(g)
    assert np.max(np.abs(g_inv - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.max(np.abs(np.einsum("abn,bcn->acn", g, g_inv) - np.eye(d)[..., None])) <= 1e-13


def frame_of(g):
    pg = PointGeometry.__new__(PointGeometry)  # frame_coeff reads g only
    pg.g = g
    return pg.frame_coeff


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_frame_is_upper_triangular_and_orthonormal(d):
    g = random_spd(d, 20 + d)
    A = frame_of(g)
    assert np.all(A[np.tril_indices(d, -1)] == 0.0)
    gram = np.einsum("ain,abn,bjn->ijn", A, g, A)
    assert np.max(np.abs(gram - np.eye(d)[..., None])) <= 1e-13
    assert np.max(np.abs(A - lapack_frame(g))) <= 1e-13 * np.max(np.abs(A))


GRIM_REAPER_X_LINE = {
    "name": "grim_reaper_x_line",
    "domain": [[-1.47, 1.47], [-2.0, 2.0], [-2.0, 2.0]],
    "components": ["-log(cos(x))", "x", "y", "0", "z", "0"],
}


@pytest.mark.parametrize(
    "chart, cells, points_per_cell",
    [(ss.builtin_chart("grim_reaper"), 40, 8), (ss.chart_from_config(GRIM_REAPER_X_LINE), 3, 10)],
    ids=["grim_reaper", "grim_reaper_x_line"],
)
def test_frame_equals_lapack_bits_on_suite_grids(chart, cells, points_per_cell):
    # the default second-variation grid and the 3-d benchmark grid, each on its default support
    grid = ss.tensor_rule(ss.default_support_box(chart.domain), cells, points_per_cell)
    pg = ss.point_geometry(chart, np.eye(chart.ambient_dim)[0], grid.nodes, order=2)
    assert np.array_equal(pg.frame_coeff, lapack_frame(pg.g))


def gram_batch(d, kinds, scale, seed):
    """Metrics ``t^T t`` of random (2d, d) tangents, one node per entry of ``kinds``.

    The singular values of t are sqrt(scale) times uniform(0.5, 2), except the
    smallest, which is 0 on "deficient" nodes and sqrt(0.5) and sqrt(2) times
    RANK_TOL on "half" and "double" nodes (lambda_min at 0.5x and 2x RANK_TOL**2);
    "nan" nodes get one NaN tangent entry.
    """
    rng = np.random.default_rng(seed)
    m = 2 * d
    t = np.empty((m, d, len(kinds)))
    smallest = {"deficient": 0.0, "half": math.sqrt(0.5) * RANK_TOL, "double": math.sqrt(2.0) * RANK_TOL}
    for n, kind in enumerate(kinds):
        q = np.linalg.qr(rng.standard_normal((m, d)))[0]
        v = np.linalg.qr(rng.standard_normal((d, d)))[0]
        s = math.sqrt(scale) * rng.uniform(0.5, 2.0, size=d)
        s[0] = smallest.get(kind, s[0])
        t[..., n] = (q * s) @ v.T
        if kind == "nan":
            t[rng.integers(m), rng.integers(d), n] = np.nan
    return np.einsum("man,mbn->abn", t, t)


def eigvalsh_message(pts, g):
    """The rank-deficiency message of ``eigvalsh`` on every node, or None."""
    return full_rank_message("gram", pts, g)


def screened_message(pts, g):
    """The rank-deficiency message of the screened check, or None."""
    try:
        _require_full_rank("gram", pts, g, batch_det(g))
    except ImmersionError as exc:
        return str(exc)
    return None


def first_message(check, pts, g, size):
    """The first message of ``check`` run block by block, as ``soliton_residual`` runs."""
    for start in range(0, g.shape[-1], size):
        rows = slice(start, start + size)
        try:
            message = check(pts[rows], g[..., rows])
        except LinAlgError as exc:  # eigvalsh does not converge on some NaN metrics
            return f"LinAlgError: {exc}"
        if message is not None:
            return message
    return None


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 4),
    kinds=st.lists(st.sampled_from(("generic", "deficient", "half", "double", "nan")), min_size=1, max_size=9),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_screen_flags_exactly_what_eigvalsh_flags(d, kinds, scale, seed):
    g = gram_batch(d, kinds, scale, seed)
    n = g.shape[-1]
    pts = 0.1 * np.arange(n * d, dtype=float).reshape(n, d)
    # block by block, the first message is eigvalsh's, byte for byte
    for size in (1, 3, n):
        got = first_message(screened_message, pts, g, size)
        assert got == first_message(eigvalsh_message, pts, g, size), size
        if "nan" not in kinds:
            # and without NaN every block size names the same first point
            assert got == first_message(eigvalsh_message, pts, g, n), size

    def flagged(check):  # node by node, the screen raises exactly where eigvalsh does
        return [i for i in range(n) if first_message(check, pts[i : i + 1], g[..., i : i + 1], 1)]

    assert flagged(screened_message) == flagged(eigvalsh_message)


def test_metric_and_weight_closed_forms(grim_reaper, T):
    pts = np.array([[math.pi / 3, 0.4], [0.0, -1.0], [-1.2, 2.2]])
    pg = ss.point_geometry(grim_reaper, T, pts)
    x = pts[:, 0]
    sec2 = 1.0 / np.cos(x) ** 2
    assert np.allclose(pg.g[0, 0], sec2, atol=1e-12)
    assert np.allclose(pg.g[0, 1], 0.0, atol=1e-15)
    assert np.allclose(pg.g[1, 1], 1.0, atol=1e-15)
    assert np.allclose(pg.g_inv[0, 0], 1.0 / sec2, atol=1e-13)
    assert np.allclose(pg.sqrt_det_g, np.sqrt(sec2), atol=1e-12)
    assert np.allclose(pg.weight, 1.0 / np.cos(x), atol=1e-12)
    # spot values: g = diag(4, 1) and weight 2 at x = pi/3
    assert np.allclose(pg.g[..., 0], np.diag([4.0, 1.0]), atol=1e-12)
    assert np.isclose(pg.weight[0], 2.0, atol=1e-12)
    assert np.allclose(np.einsum("abn,bcn->acn", pg.g, pg.g_inv), np.eye(2)[..., None], atol=1e-12)


def test_flat_plane_trivials(flat_plane, T):
    pts = np.array([[0.3, 0.4], [-1.0, 2.0]])
    pg = ss.point_geometry(flat_plane, T, pts)
    assert np.allclose(pg.g, np.eye(2)[..., None], atol=1e-15)
    assert np.all(pg.h3 == 0.0)
    assert np.all(frame_mean_curvature(pg) == 0.0)
    assert np.all(pg.Gamma == 0.0)
    assert np.allclose(ss.mean_curvature_vector(pg), 0.0)


def test_second_fundamental_form_closed_form(grim_reaper, T):
    pts = np.array([[0.0, 0.0], [0.8, -0.5]])
    pg = ss.point_geometry(grim_reaper, T, pts)
    sec = 1.0 / np.cos(pts[:, 0])
    h_num = np.einsum("qabn,qpn->abpn", pg.h_coord, pg.nu)
    expected = np.zeros_like(h_num)
    expected[0, 0, 0] = sec
    assert np.allclose(h_num, expected, atol=1e-12)
    # at x = 0 this is the single unit component
    assert np.isclose(h_num[0, 0, 0, 0], 1.0, atol=1e-14)


def test_mean_curvature_closed_form(grim_reaper, T):
    pts = np.array([[0.0, 0.0], [math.pi / 3, 1.0]])
    pg = ss.point_geometry(grim_reaper, T, pts)
    H = ss.mean_curvature_vector(pg)
    assert np.allclose(H[:, 0], [1.0, 0.0, 0.0, 0.0], atol=1e-13)
    assert np.isclose(np.linalg.norm(H[:, 1]), 0.5, atol=1e-13)
    # H equals its frame expansion sum_k H_k nu_k
    assert np.allclose(H, np.einsum("kn,pkn->pn", frame_mean_curvature(pg), pg.nu), atol=1e-10)


def test_frames_orthonormal_and_adapted(grim_reaper, perturbed, T):
    for chart in (grim_reaper, perturbed):
        pts = ss.uniform_grid(chart, 12).nodes
        pg = ss.point_geometry(chart, T, pts)
        e = np.einsum("man,ain->min", pg.tangents, pg.frame_coeff)
        ee = np.einsum("pin,pjn->ijn", e, e)
        nn = np.einsum("pin,pjn->ijn", pg.nu, pg.nu)
        en = np.einsum("pin,pjn->ijn", e, pg.nu)
        assert np.max(np.abs(ee - np.eye(2)[..., None])) < 1e-12
        assert np.max(np.abs(nn - np.eye(2)[..., None])) < 1e-12
        assert np.max(np.abs(en)) < 1e-12
        # J e_i lies in the numeric normal space: orthogonal to all tangents
        Je = apply_J(e)
        proj = np.einsum("pin,pan->ian", Je, pg.tangents)
        assert np.max(np.abs(proj)) < 1e-10
        # h fully symmetric in all three indices for Lagrangian charts
        assert np.max(np.abs(pg.h3 - pg.h3.swapaxes(0, 1))) < 1e-9
        assert np.max(np.abs(pg.h3 - np.einsum("ijkn->kjin", pg.h3))) < 1e-9
        # h_coord is perpendicular to the tangent space
        perp = np.einsum("qabn,qcn->abcn", pg.h_coord, pg.tangents)
        assert np.max(np.abs(perp)) < 1e-10


def test_frame_gauge_matches_natural_cylinder_frame(grim_reaper, T):
    """Gram-Schmidt in coordinate order reproduces (cos x, -sin x, 0, 0), (0,0,0,-1)."""
    pts = np.array([[0.6, 0.0]])
    pg = ss.point_geometry(grim_reaper, T, pts)
    e = np.einsum("man,ain->min", pg.tangents, pg.frame_coeff)
    x = 0.6
    assert np.allclose(e[:, 0, 0], [math.sin(x), math.cos(x), 0, 0], atol=1e-14)
    assert np.allclose(pg.nu[:, 0, 0], [math.cos(x), -math.sin(x), 0, 0], atol=1e-14)
    assert np.allclose(pg.nu[:, 1, 0], [0, 0, 0, -1], atol=1e-15)


def test_translator_identity_for_normal_components(grim_reaper, T):
    # H_p = <T, nu_p> on a translator
    pts = ss.uniform_grid(grim_reaper, 15).nodes
    pg = ss.point_geometry(grim_reaper, T, pts)
    T_norm = np.einsum("q,qpn->pn", T, pg.nu)
    assert np.max(np.abs(frame_mean_curvature(pg) - T_norm)) < 1e-10


@pytest.mark.parametrize(
    "spec",
    [
        "grim_reaper",
        "perturbed_grim_reaper",
        "non_lagrangian_patch",
        {
            "name": "non_lagrangian_3d_patch",
            "domain": [[-1.4, 1.4], [-1.0, 1.0], [-1.0, 1.0]],
            "components": ["-log(cos(x))", "x", "y", "x*z", "z", "y*y"],
        },
    ],
    ids=["grim_reaper", "perturbed", "non_lagrangian_patch", "expression_3d"],
)
def test_translator_defect_matches_frame_projection(spec):
    """T - t g^-1 <T, t> is the frame projection T - sum <T, e_i> e_i, on any chart."""
    chart = ss.chart_from_config(spec)
    pg = ss.point_geometry(chart, np.eye(chart.ambient_dim)[0], ss.uniform_grid(chart, 7).nodes)
    assert np.max(np.abs(translator_defect(pg) - frame_translator_defect(pg))) <= 1e-14


def test_soliton_residual_forms_no_frame(monkeypatch, grim_reaper, T):
    def no_frame(*args, **kwargs):
        raise AssertionError("soliton_residual formed a frame")

    monkeypatch.setattr(np.linalg, "cholesky", no_frame)
    rep = ss.soliton_residual(grim_reaper, T, ss.uniform_grid(grim_reaper, 20))
    assert rep.max_soliton_residual <= 1e-10


def test_soliton_residual_certificates(grim_reaper, flat_plane, perturbed, T):
    rep = ss.soliton_residual(grim_reaper, T, ss.uniform_grid(grim_reaper, 50))
    assert rep.max_soliton_residual <= 1e-10
    assert rep.max_lagrangian_defect <= 1e-12

    rep_fp = ss.soliton_residual(flat_plane, T, ss.uniform_grid(flat_plane, 20))
    assert rep_fp.max_soliton_residual <= 1e-14
    assert rep_fp.max_lagrangian_defect == 0.0

    rep_p = ss.soliton_residual(perturbed, T, ss.uniform_grid(perturbed, 30))
    assert rep_p.max_soliton_residual > 1e-3
    assert abs(rep_p.max_soliton_residual - PERTURBED_RESIDUAL_BASELINE) < 1e-9
    # the perturbation is exactly Lagrangian by construction
    assert rep_p.max_lagrangian_defect <= 1e-12


def test_lagrangian_defect_on_non_lagrangian_patch(T):
    patch = ss.non_lagrangian_patch()
    defect = ss.soliton_residual(patch, T, ss.uniform_grid(patch, 10)).max_lagrangian_defect
    assert defect > 0.5  # identically 1 for this patch


def test_gauss_equation_agreement(grim_reaper, flat_plane, perturbed, T):
    # the Gauss side needs no normal frame, so a non-Lagrangian chart is checked too
    for chart in (grim_reaper, flat_plane, perturbed, ss.non_lagrangian_patch()):
        grid = ss.uniform_grid(chart, 12)
        r_int, r_gauss, ric = curvature_tensor(ss.point_geometry(chart, T, grid.nodes))
        assert np.max(np.abs(r_int - r_gauss)) < 1e-8
        # Ricci from the Gauss route equals the intrinsic trace
        assert np.max(np.abs(np.einsum("ijkjn->ikn", r_int) - ric)) < 1e-8


def test_cylinder_is_intrinsically_flat(grim_reaper, T):
    grid = ss.uniform_grid(grim_reaper, 10)
    r_int, r_gauss, ric = curvature_tensor(ss.point_geometry(grim_reaper, T, grid.nodes))
    assert np.max(np.abs(r_int)) < 1e-12
    assert np.max(np.abs(ric)) < 1e-12


def test_curved_graph_sign_convention(T):
    """Paraboloid graph osculating the unit sphere: sectional curvature +1 at 0."""
    chart = ss.chart_from_config(
        {
            "name": "paraboloid",
            "domain": [[-0.5, 0.5], [-0.5, 0.5]],
            "components": ["x", "y", "(x*x + y*y)/2", "0"],
        }
    )
    pts = np.array([[1e-8, 1e-8]])
    r_int, r_gauss, ric = curvature_tensor(ss.point_geometry(chart, T, pts))
    assert np.isclose(r_int[0, 1, 0, 1, 0], 1.0, atol=1e-6)
    assert np.allclose(ric[..., 0], np.eye(2), atol=1e-6)
    assert np.max(np.abs(r_int - r_gauss)) < 1e-8


def test_low_dimensional_chart_is_supported(T):
    """A curve in R^4 (d < n): H is the curve's curvature, and it has no J-frame."""
    helix = ss.chart_from_config(
        {
            "name": "circle_line",
            "domain": [[-3.0, 3.0]],
            "components": ["cos(x)", "sin(x)", "x", "0"],
        }
    )
    pts = np.array([[0.3], [1.1]])
    pg = ss.point_geometry(helix, T, pts)
    assert not pg.lagrangian
    with pytest.raises(UnsupportedChartError):
        pg.nu
    # |curvature vector| of (cos t, sin t, t) is 1/2 at unit speed sqrt(2)
    H = ss.mean_curvature_vector(pg)
    assert np.allclose(np.linalg.norm(H, axis=0), 0.5, atol=1e-12)


def test_rank_deficiency_raises(T):
    chart = ss.chart_from_config(
        {
            "name": "degenerate",
            "domain": [[-1, 1], [-1, 1]],
            "components": ["x", "0", "x", "0"],  # second column collapses
        }
    )
    with pytest.raises(ImmersionError, match=r"rank deficient at point \[0\.1, 0\.1\]"):
        ss.point_geometry(chart, T, np.array([[0.1, 0.1]]))


def test_wrong_length_T_raises(grim_reaper):
    with pytest.raises(ValueError, match=r"T has shape \(3,\), chart 'grim_reaper' needs \(4,\)"):
        ss.point_geometry(grim_reaper, [1.0, 0.0, 0.0], np.array([[0.1, 0.1]]))


# at x = 0.2 each term first fails at its slot's level: log(0.1 - x) is NaN,
# sqrt(0.2 - x) is 0 with an infinite slope, (0.2 - x)**1.5 has an infinite d2
NON_FINITE_FROM = {"val": "log(0.1 - x)", "d1": "sqrt(0.2 - x)", "d2": "(0.2 - x)**1.5"}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("slot", list(NON_FINITE_FROM))
def test_non_finite_given_jets_raise_naming_the_point(d, slot):
    """The chart evaluation names the first point whose jets are not finite, at whichever
    level they stop being finite; unchecked, a NaN tangent would give NaN geometry at
    d = 2 and numpy's LinAlgError at d = 3."""
    components = [c for v in variable_names(d) for c in (f"sin({v})", f"{v}*{v}")]
    components[0] = f"sin(x) + {NON_FINITE_FROM[slot]}"
    chart = ss.chart_from_config({"domain": [[-1.0, 1.0]] * d, "components": components})
    pts = np.linspace(-0.5, 0.5, 5 * d).reshape(5, d)
    pts[:, 0] = [-0.4, -0.2, 0.0, 0.2, 0.4]  # points 0-2 are finite, points 3 and 4 are not
    message = f"chart 'expression_chart' produced non-finite jet data at point {pts[3].tolist()}"
    with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
        ss.point_geometry(chart, np.eye(2 * d)[0], pts, order=2)
    raw = J.evaluate(chart.map_jets, pts[3:4], 2)  # unchecked
    levels = ["val", "d1", "d2"]
    finite = [bool(np.isfinite(getattr(raw, name)).all()) for name in levels]
    k = levels.index(slot)
    assert finite[: k + 1] == [True] * k + [False]


@pytest.mark.parametrize("name", list(BUILTIN_CHARTS))
def test_lagrangian_flag_is_detected_on_builtin_charts(T, name):
    """The pullback is exactly 0 on the Lagrangian builtins and 1 on the other: far from the 1e-9 cut."""
    chart = ss.builtin_chart(name)
    pg = ss.point_geometry(chart, T, ss.uniform_grid(chart, 60).nodes)
    lagrangian = name != "non_lagrangian_patch"
    assert pg.lagrangian is lagrangian
    assert np.max(np.abs(kaehler_pullback(pg.tangents))) == (0.0 if lagrangian else 1.0)


def test_kaehler_pullback_values(grim_reaper):
    jets = ss.eval_jets(grim_reaper, np.array([[0.5, 0.5]]), order=1)
    omega = kaehler_pullback(jets.d1)
    assert np.allclose(omega, 0.0, atol=1e-15)


def test_diagnostics_report_serialization(grim_reaper, T):
    rep = ss.soliton_residual(grim_reaper, T, ss.uniform_grid(grim_reaper, 5))
    d = rep.to_dict()
    assert set(d) == {"chart", "grid", "max_soliton_residual", "max_lagrangian_defect"}
    assert d["chart"] == "grim_reaper"
