"""Node blocks: the certificate, the cylinder's closed-form deviations, the grid
geometry's row blocks and the variations run over them give the same bits at
every block size, keep a NaN, and hold memory to one block; chart jets and
jet-arithmetic fields on a block are the whole evaluation's jets there; and
covariant calculus forms no rank-3 array per one-form."""

import itertools
import logging
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import soliton_stability as ss
from soliton_stability import geometry, jets, stability, wirtinger
from soliton_stability.charts import Chart
from soliton_stability.cli import EXIT_FAIL, main
from soliton_stability.errors import ImmersionError, UnsupportedChartError
from soliton_stability.geometry import kaehler_pullback, node_blocks, translator_defect

EXPRESSION_GRIM_REAPER = {
    "name": "expression_grim_reaper",
    "domain": [[-1.47, 1.47], [-3.0, 3.0]],
    "components": ["-log(cos(x))", "x", "y", "0"],
}
GRIM_REAPER_X_LINE = {
    "name": "grim_reaper_x_line",
    "domain": [[-1.47, 1.47], [-2.0, 2.0], [-2.0, 2.0]],
    "components": ["-log(cos(x))", "x", "y", "0", "z", "0"],
}


def unblocked_residual(chart, T, pts):
    """The certificate as one batch, the reference every block size must match."""
    pg = ss.point_geometry(chart, T, pts, order=2)
    resid = np.linalg.norm(translator_defect(pg), axis=0)
    defect = np.max(np.abs(kaehler_pullback(pg.tangents)), axis=(0, 1))
    return ss.DiagnosticsReport(
        chart=chart.name,
        grid={"kind": "points", "count": int(pts.shape[0])},
        max_soliton_residual=float(np.max(resid)),
        max_lagrangian_defect=float(np.max(defect)),
    )


def block_sizes(n):
    return (1, 7, n)


@pytest.mark.parametrize(
    "spec",
    ["grim_reaper", EXPRESSION_GRIM_REAPER, "non_lagrangian_patch"],
    ids=["grim_reaper", "expression_grim_reaper", "non_lagrangian_patch"],
)
def test_soliton_residual_is_block_invariant(monkeypatch, T, spec):
    chart = ss.chart_from_config(spec)
    pts = ss.uniform_grid(chart, 9)
    expected = unblocked_residual(chart, T, pts)
    for size in block_sizes(pts.shape[0]):
        monkeypatch.setattr(geometry, "NODE_BLOCK", size)
        report = ss.soliton_residual(chart, T, pts)
        assert report.to_dict() == expected.to_dict(), size


def test_node_blocks_have_at_least_two_rows():
    """Blocks cover the rows in order; a one-row remainder joins the block before it."""

    def sizes(n, size):
        rows = node_blocks(n, size)
        assert [r.start for r in rows[1:]] == [r.stop for r in rows[:-1]]
        assert (rows[0].start, rows[-1].stop) == (0, n)
        return [r.stop - r.start for r in rows]

    assert sizes(81, 10) == [10] * 7 + [11]
    assert sizes(80, 10) == [10] * 8
    assert sizes(1, 10) == [1]
    assert node_blocks(0) == [slice(0, 0)]
    assert sizes(7, 1) == [2, 2, 3]
    assert sizes(8, 1) == [2] * 4


def test_soliton_residual_checks_each_block_once(monkeypatch, grim_reaper, T):
    """The chart evaluation is the one finiteness check: point_geometry takes no jets to re-check."""
    pts = ss.uniform_grid(grim_reaper, 9)
    monkeypatch.setattr(geometry, "NODE_BLOCK", 10)
    checked = []
    is_finite = jets.Jet.is_finite

    def counted(jet):
        checked.append(jet.val.shape[-1])
        return is_finite(jet)

    monkeypatch.setattr(jets.Jet, "is_finite", counted)
    ss.soliton_residual(grim_reaper, T, pts)
    assert checked == [rows.stop - rows.start for rows in node_blocks(pts.shape[0])]
    assert len(checked) == 8  # 81 points: seven blocks of 10, then one of 11


def block_of(jet, rows):
    """``jet`` at the nodes ``rows``."""
    arrays = (jet.val, jet.d1, jet.d2, jet.d3)
    return jets.Jet(jet.order, *(None if a is None else a[..., rows] for a in arrays))


def assert_jets_equal(got, want, where):
    assert (got.order, got.val.shape[:-1]) == (want.order, want.val.shape[:-1]), where
    for name in ("val", "d1", "d2", "d3"):
        a, b = getattr(got, name), getattr(want, name)
        assert a is None if b is None else np.array_equal(a, b), (where, name)


def test_jet_arithmetic_fields_are_block_invariant():
    """Every block of whole rows, one row among them, gets the whole grid's jets there."""
    support3 = ss.default_support_box([[-1.47, 1.47], [-2.0, 2.0], [-2.0, 2.0]])
    support2 = ss.default_support_box([[-1.47, 1.47], [-3.0, 3.0]])
    cases = [
        (ss.random_polynomial_field(support3, seed=3), support3),
        (ss.scalar_field_from_expression("sin(x)*exp(y)/(2 + cos(x*y))", support2), support2),
    ]
    for field, support in cases:
        grid = ss.tensor_rule(1.1 * support, cells=2, points_per_cell=2)
        per_row = grid.nodes.shape[0] // grid.shape[0]
        whole = field.eval_jets(grid, order=3)
        for i, j in itertools.combinations(range(grid.shape[0] + 1), 2):
            jet = field.eval_jets(grid.rows(i, j), order=3)
            assert_jets_equal(jet, block_of(whole, slice(i * per_row, j * per_row)), (i, j))


@pytest.mark.parametrize(
    "spec", ["grim_reaper", EXPRESSION_GRIM_REAPER], ids=["grim_reaper", "expression_grim_reaper"]
)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_chart_jets_are_block_invariant(spec, order):
    """Chart jets on each node block are the whole evaluation's there: the property the
    row blocks' bit identity rests on."""
    # the expression chart's fourth component "0" is a plain number, promoted per call
    chart = ss.chart_from_config(spec)
    pts = ss.uniform_grid(chart, 9)
    whole = ss.eval_jets(chart, pts, order=order)
    assert whole.val.shape == (4, pts.shape[0])
    assert (whole.order, whole.d2 is None, whole.d3 is None) == (order, order < 2, order < 3)
    for size in block_sizes(pts.shape[0]):
        for rows in node_blocks(pts.shape[0], size):
            jet = ss.eval_jets(chart, pts[rows], order=order)
            assert_jets_equal(jet, block_of(whole, rows), (size, rows))


@pytest.mark.parametrize("container", [tuple, iter], ids=["tuple", "iterator"])
def test_chart_map_jets_may_return_any_sequence(container):
    # Chart.map_jets is typed Sequence: a tuple (or any iterable) of components
    # gives the same jets as a list, on all the points and on each node block
    chart = ss.grim_reaper_cylinder()
    other = Chart(
        "grim_reaper_tuple",
        chart.domain,
        chart.ambient_dim,
        lambda seeds: container(chart.map_jets(seeds)),
    )
    pts = ss.uniform_grid(chart, 9)
    for rows in [slice(None)] + node_blocks(pts.shape[0], 7):
        want = ss.eval_jets(chart, pts[rows], order=3)
        assert_jets_equal(ss.eval_jets(other, pts[rows], order=3), want, rows)


def test_rank_deficiency_message_is_block_invariant(monkeypatch, T):
    # g = diag(1, 9 y^4) loses rank on the middle row y = 0 of an odd grid
    chart = ss.chart_from_config(
        {"name": "cusp", "domain": [[-1, 1], [-1, 1]], "components": ["x", "0", "y**3", "0"]}
    )
    pts = ss.uniform_grid(chart, 9)
    messages = set()
    for size in block_sizes(pts.shape[0]):
        monkeypatch.setattr(geometry, "NODE_BLOCK", size)
        with pytest.raises(ImmersionError, match=r"at point \[-0\.8, 0\.0\]") as info:
            ss.soliton_residual(chart, T, pts)
        messages.add(str(info.value))
    assert len(messages) == 1


def nan_in_third_block(monkeypatch):
    """Make translator_defect write NaN into one node of the third block it sees."""
    calls = []

    def defect(pg):
        out = translator_defect(pg)
        calls.append(out.shape[1])
        if len(calls) == 3:
            out[:, out.shape[1] // 2] = np.nan
        return out

    monkeypatch.setattr(geometry, "translator_defect", defect)
    return calls


def test_nan_in_a_later_block_reaches_the_certificate(monkeypatch, grim_reaper, T):
    monkeypatch.setattr(geometry, "NODE_BLOCK", 16)
    calls = nan_in_third_block(monkeypatch)
    report = ss.soliton_residual(grim_reaper, T, ss.uniform_grid(grim_reaper, 10))
    assert len(calls) == 7
    assert np.isnan(report.max_soliton_residual)
    assert report.max_lagrangian_defect == 0.0


def test_nan_certificate_fails_verify_soliton(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(geometry, "NODE_BLOCK", 512)
    calls = nan_in_third_block(monkeypatch)
    out = tmp_path / "report.json"
    assert main(["verify-soliton", "--out", str(out)]) == EXIT_FAIL
    assert len(calls) == 5  # the default 50 x 50 diagnostic points
    assert capsys.readouterr().err == (
        "error: max_soliton_residual is nan, which a JSON report cannot hold\n"
    )
    assert not out.exists()


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak memory traced while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_soliton_residual_memory_is_bounded(grim_reaper, T):
    """Peak memory grows with the input points only, not with the geometry."""
    block = geometry.NODE_BLOCK
    rng = np.random.default_rng(5)
    lo, hi = grim_reaper.domain[:, 0], grim_reaper.domain[:, 1]
    small = rng.uniform(0.9 * lo, 0.9 * hi, size=(4 * block, 2))
    large = rng.uniform(0.9 * lo, 0.9 * hi, size=(16 * block, 2))
    _, peak_small = traced_peak(ss.soliton_residual, grim_reaper, T, small)
    _, peak_large = traced_peak(ss.soliton_residual, grim_reaper, T, large)
    slack = 64 * 1024  # the per-block maxima and interpreter bookkeeping
    assert peak_large - peak_small <= (large.nbytes - small.nbytes) + slack


def test_closed_form_deviations_are_block_invariant(monkeypatch, grim_reaper, T):
    """The cylinder's deviations are the same dict at every block size, and a NaN in one
    node of a later block reaches it."""
    dicts = []
    for size in block_sizes(81):
        monkeypatch.setattr(geometry, "NODE_BLOCK", size)
        dicts.append(ss.closed_form_deviations(grim_reaper, T, 9))
    assert dicts[1:] == dicts[:1] * 2 and all(map(np.isfinite, dicts[0].values())), dicts

    monkeypatch.setattr(geometry, "NODE_BLOCK", 16)
    clean = ss.closed_form_deviations(grim_reaper, T, 10)
    calls = []

    def curvature(pg):
        out = geometry.mean_curvature_vector(pg)
        calls.append(out.shape[1])
        if len(calls) == 3:
            out[:, out.shape[1] // 2] = np.nan
        return out

    monkeypatch.setattr(wirtinger, "mean_curvature_vector", curvature)
    deviations = ss.closed_form_deviations(grim_reaper, T, 10)
    assert len(calls) == 7
    assert np.isnan(deviations.pop("mean_curvature"))
    assert deviations == {k: v for k, v in clean.items() if k != "mean_curvature"}


def test_closed_form_deviations_memory_is_bounded(grim_reaper, T):
    """Peak memory grows with the sampled points only: one block's geometry is held at a time.
    The whole-point-set build peaked at about 1.1 kB per point (415 MB RSS at 600 x 600)."""
    block = geometry.NODE_BLOCK
    peaks, points = [], []
    for blocks in (4, 16):
        n = int(np.sqrt(blocks * block))
        _, peak = traced_peak(ss.closed_form_deviations, grim_reaper, T, n)
        peaks.append(peak)
        points.append(ss.uniform_grid(grim_reaper, n).nbytes)
    slack = 64 * 1024  # the per-block maxima and interpreter bookkeeping
    assert peaks[1] - peaks[0] <= (points[1] - points[0]) + slack, (peaks, points)


def test_polynomial_field_memory_on_a_grid_stays_near_its_jet():
    """A d = 3 field on suite3d's 27,000-node grid, which reaches past the support box, peaks
    at most 2x its order-3 jet: only the 20 distinct partials form on the whole grid, and the
    mask zeroes the jet in place."""
    domain = np.array(GRIM_REAPER_X_LINE["domain"])
    grid = ss.tensor_rule(domain, cells=3, points_per_cell=10)
    phi = ss.random_polynomial_field(ss.default_support_box(domain), seed=3)
    phi.eval_jets(grid, 3)  # first-call caches stay out of the peak
    out, peak = traced_peak(phi.eval_jets, grid, 3)
    assert np.any(out.val == 0.0) and grid.nodes.shape[0] > geometry.NODE_BLOCK
    assert peak <= 2 * sum(a.nbytes for a in (out.val, out.d1, out.d2, out.d3))


# (chart, one-form, cells, points per cell, rows per block): rows of 15 and 36 nodes
VARIATION_CASES = {
    "grim_reaper": ("grim_reaper", ss.random_hamiltonian_variation, 3, 5, (1, 2, 7)),
    "grim_reaper_x_line": (GRIM_REAPER_X_LINE, ss.random_hamiltonian_variation, 2, 3, (1, 2, 4)),
    "non_closed": ("grim_reaper", ss.random_generic_variation, 3, 5, (1, 2, 7)),
}


def row_blocks(gg):
    """The sub-grids of ``gg``'s blocks cover its rows in order, each a view of its nodes."""
    grid = gg.grid
    per_row = grid.nodes.shape[0] // grid.shape[0]
    axis0 = np.concatenate([b.grid.axis_nodes[0] for b in gg.blocks])
    assert np.array_equal(axis0, grid.axis_nodes[0])
    for b in gg.blocks:
        assert b.grid.nodes.shape[0] == b.grid.shape[0] * per_row
        assert np.shares_memory(b.grid.nodes, grid.nodes) and np.shares_memory(b.grid.weights, grid.weights)
    return [b.grid.shape[0] for b in gg.blocks]


@pytest.mark.parametrize("case", list(VARIATION_CASES))
def test_variation_reports_are_block_invariant(monkeypatch, case):
    """Blocks of whole rows, one row among them, give the bits of one block over the grid."""
    spec, make_form, cells, points, row_counts = VARIATION_CASES[case]
    chart = ss.chart_from_config(spec)
    d = chart.domain.shape[0]
    support = ss.default_support_box(chart.domain)
    grid = ss.tensor_rule(support, cells=cells, points_per_cell=points)
    per_row = grid.nodes.shape[0] // grid.shape[0]
    theta = make_form(support, seed=3)
    reports = {}
    for rows in (None,) + row_counts:
        size = 10**9 if rows is None else rows * per_row + per_row // 2  # rounds down to whole rows
        monkeypatch.setattr(stability, "VARIATION_BLOCK", size)
        gg = ss.grid_geometry(chart, np.eye(2 * d)[0], grid)
        sizes = row_blocks(gg)
        assert sizes == [grid.shape[0]] if rows is None else sizes[:-1] == [rows] * (len(sizes) - 1)
        reports[rows] = ss.evaluate_variation(gg, theta, seed=3).to_dict()
    for rows in row_counts:
        assert reports[rows] == reports[None], rows
    if case == "non_closed":
        assert reports[1]["lagrangian_defect"] > 0.1


def test_one_node_rows_run_in_blocks_of_two_rows(monkeypatch, grim_reaper, T):
    """A grid whose rows hold one node keeps geometry.node_blocks's no-one-node rule."""
    grid = ss.tensor_rule(ss.default_support_box(grim_reaper.domain), cells=1, points_per_cell=1)
    grid = replace(grid, nodes=np.repeat(grid.nodes, 5, axis=0), weights=np.repeat(grid.weights, 5))
    grid = replace(grid, axis_nodes=(np.linspace(-0.5, 0.5, 5), grid.axis_nodes[1]))
    grid = replace(grid, nodes=np.stack([grid.axis_nodes[0], np.zeros(5)], axis=1))
    monkeypatch.setattr(stability, "VARIATION_BLOCK", 1)
    assert row_blocks(ss.grid_geometry(grim_reaper, T, grid)) == [2, 3]


# the arrays a block keeps: what the routes read; every other field of point_geometry is dropped
KEPT = ("positions", "tangents", "hessian", "g", "g_inv", "Gamma", "h_coord")
FORMED = ("dg_inv", "K", "P", "T_coord", "frame_coeff", "h3")
DROPPED = ("sqrt_det_g", "dg", "Gamma_partial", "weight")


@pytest.mark.parametrize("spec", ["grim_reaper", GRIM_REAPER_X_LINE], ids=["d2", "d3"])
def test_block_geometry_matches_the_full_grid(monkeypatch, spec):
    """Each block holds the whole grid's geometry at its rows, bit for bit, with the traces
    the routes read formed and the construction intermediates dropped."""
    chart = ss.chart_from_config(spec)
    d = chart.domain.shape[0]
    grid = ss.tensor_rule(ss.default_support_box(chart.domain), cells=2, points_per_cell=3 if d == 3 else 5)
    T = np.eye(2 * d)[0]
    full = ss.point_geometry(chart, T, grid.nodes)
    monkeypatch.setattr(stability, "VARIATION_BLOCK", 2 * grid.nodes.shape[0] // grid.shape[0])
    gg = ss.grid_geometry(chart, T, grid)
    assert len(gg.blocks) == grid.shape[0] // 2
    start = 0
    for block in gg.blocks:
        rows = slice(start, start + block.grid.nodes.shape[0])
        start = rows.stop
        pg = block.pg
        assert pg.lagrangian is True and pg.T is full.T
        assert set(vars(pg)) == {"T", "lagrangian", *KEPT, *FORMED, *DROPPED}
        for name in KEPT + FORMED:
            assert np.array_equal(getattr(pg, name), getattr(full, name)[..., rows]), name
        assert all(getattr(pg, name) is None for name in DROPPED)
        assert np.array_equal(block.translator_defect, translator_defect(full)[:, rows])
        assert np.array_equal(block.area_weight, (full.weight * full.sqrt_det_g)[rows])
    assert gg.functional_at_rest == grid.integrate(full.weight * full.sqrt_det_g)


def test_every_block_carries_the_grid_wide_lagrangian_flag(monkeypatch, T):
    """A chart Lagrangian on its first rows only: no block forms h3, and the first block,
    Lagrangian by itself, refuses the normal field V = J theta^sharp."""
    chart = ss.chart_from_config(
        {
            "name": "bent_patch",
            "domain": [[-1.0, 1.0], [-1.0, 1.0]],
            "components": ["x", "0", "y", "1e-9*exp(20*x)*y"],
        }
    )
    grid = ss.tensor_rule(ss.default_support_box(chart.domain), cells=2, points_per_cell=4)
    monkeypatch.setattr(stability, "VARIATION_BLOCK", 2 * 8)
    gg = ss.grid_geometry(chart, T, grid)
    assert ss.point_geometry(chart, T, gg.blocks[0].grid.nodes).lagrangian
    assert [b.pg.lagrangian for b in gg.blocks] == [False] * 4
    assert not any("h3" in vars(b.pg) or "nu" in vars(b.pg) for b in gg.blocks)
    with pytest.raises(UnsupportedChartError):
        ss.prepare_variation(gg.blocks[0], ss.random_hamiltonian_variation(grid.box, seed=1))


@pytest.mark.parametrize(
    "spec, cells, points, held, peak",
    [("grim_reaper", 20, 8, 94, 110), (GRIM_REAPER_X_LINE, 3, 10, 263, 340)],
    ids=["d2", "d3"],
)
def test_grid_geometry_memory_per_node(spec, cells, points, held, peak):
    """The geometry holds what the routes read, 93 floats per node at d = 2 and 262 at d = 3,
    and builds it one row block at a time.  The whole-grid build held 101 and 324 and peaked
    at 143 and 558."""
    chart = ss.chart_from_config(spec)
    d = chart.domain.shape[0]
    grid = ss.tensor_rule(ss.default_support_box(chart.domain), cells=cells, points_per_cell=points)
    n = grid.nodes.shape[0]
    ss.grid_geometry(chart, np.eye(2 * d)[0], grid)  # first-call caches stay out of the count
    tracemalloc.start()
    try:
        gg = ss.grid_geometry(chart, np.eye(2 * d)[0], grid)
        held_bytes, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(gg.blocks) > 2
    assert held_bytes < held * 8 * n, held_bytes / (8 * n)
    assert peak_bytes < peak * 8 * n, peak_bytes / (8 * n)


def test_variation_memory_does_not_grow_with_the_grid(monkeypatch, grim_reaper, T, gr_support):
    """A variation holds one block's arrays at a time: its peak is the same on 6,400 and
    25,600 nodes.  With whole-grid per-variation arrays it grew with the grid, to 28
    floats per node."""
    monkeypatch.setattr(stability, "VARIATION_BLOCK", 1024)
    theta = ss.random_hamiltonian_variation(gr_support, seed=2)
    peaks = []
    for cells in (20, 40):
        gg = ss.grid_geometry(grim_reaper, T, ss.tensor_rule(gr_support, cells=cells, points_per_cell=4))
        warm = ss.evaluate_variation(gg, theta)
        report, peak = traced_peak(ss.evaluate_variation, gg, theta)
        assert report == warm
        peaks.append(peak)
    assert peaks[1] < 1.1 * peaks[0] + 64 * 1024, peaks
    assert peaks[1] < 4 * 25_600 * 8, peaks  # 4 floats per node


def test_square_route_warns_once_per_variation(monkeypatch, caplog, gr_geometry_small):
    """The non-closed warning reads the grid-wide defect, once, not once per block."""
    grid = gr_geometry_small.grid
    monkeypatch.setattr(stability, "VARIATION_BLOCK", 4 * grid.nodes.shape[0] // grid.shape[0])
    gg = ss.grid_geometry(gr_geometry_small.chart, gr_geometry_small.blocks[0].pg.T, grid)
    assert len(gg.blocks) == 15
    with caplog.at_level(logging.WARNING, logger="soliton_stability"):
        report = ss.evaluate_variation(gg, ss.random_generic_variation(grid.box, seed=7))
    assert [r.message for r in caplog.records] == [
        f"square-form route on a non-closed form (defect {report.lagrangian_defect:.3e} > 1.000e-09); "
        "its value will not match the other routes"
    ]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="soliton_stability"):
        ss.evaluate_variation(gg, ss.random_hamiltonian_variation(grid.box, seed=7))
    assert caplog.records == []


def test_covariant_calculus_needs_the_order_three_trace():
    """The guard tests P, which a block keeps, not Gamma_partial, which it drops."""
    chart = ss.chart_from_config(GRIM_REAPER_X_LINE)
    support = ss.default_support_box(chart.domain)
    grid = ss.tensor_rule(support, cells=1, points_per_cell=3)
    fj = ss.random_generic_variation(support, seed=5).eval_jets(grid, order=2)
    T = np.eye(6)[0]
    with pytest.raises(ValueError, match="order-3 chart jets"):
        ss.covariant_calculus(fj.val, fj.d1, fj.d2, ss.point_geometry(chart, T, grid.nodes, order=2))
    (block,) = ss.grid_geometry(chart, T, grid).blocks
    assert block.pg.Gamma_partial is None
    full = ss.point_geometry(chart, T, grid.nodes)
    got, want = (ss.covariant_calculus(fj.val, fj.d1, fj.d2, pg) for pg in (block.pg, full))
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_covariant_calculus_memory_is_bounded():
    """At d = 3, one call stays below the d^3-per-node pair ``dnabla`` and ``second``.

    Those two arrays alone take 2 d^3 = 54 floats per node; the trace formulas
    peaked at 31 (the result itself is 16) and the rank-3 assembly at 91
    (5.8 MB on these 8,000 nodes), with the geometry traces formed beforehand.
    """
    chart = ss.chart_from_config(
        {
            "domain": [[-1.47, 1.47], [-2.0, 2.0], [-2.0, 2.0]],
            "components": ["-log(cos(x))", "x", "y", "0", "z", "0"],
        }
    )
    support = ss.default_support_box(chart.domain)
    grid = ss.tensor_rule(support, cells=4, points_per_cell=5)
    pg = ss.point_geometry(chart, np.eye(6)[0], grid.nodes)
    fj = ss.random_generic_variation(support, seed=5).eval_jets(grid, order=2)
    for trace in (pg.dg_inv, pg.K, pg.P):  # formed once per geometry, not per form
        assert trace.shape[-1] == grid.nodes.shape[0]
    _, peak = traced_peak(ss.covariant_calculus, fj.val, fj.d1, fj.d2, pg)
    rank3_pair = 2 * 3**3 * grid.nodes.shape[0] * 8
    assert peak < rank3_pair, (peak, rank3_pair)


def test_fd_oracle_memory_is_bounded(monkeypatch, grim_reaper, T, gr_support):
    """On one block the fd oracle holds its metric pieces, one deformed chart's temporaries
    and the row sums: 49 floats per node of the block, whatever the grid size.  Over
    blocks of node rows that wrote into whole-grid densities it held 4 floats per node of
    the grid beyond them."""
    monkeypatch.setattr(stability, "VARIATION_BLOCK", 512)
    grid = ss.tensor_rule(gr_support, cells=20, points_per_cell=8)
    gg = ss.grid_geometry(grim_reaper, T, grid)
    assert len(gg.blocks) >= 8 and grid.nodes.shape[0] == 25_600
    block = gg.blocks[3]
    data = ss.prepare_variation(block, ss.random_hamiltonian_variation(gr_support, seed=2))
    warm = ss.second_variation_fd_oracle(block, data)
    value, peak = traced_peak(ss.second_variation_fd_oracle, block, data)
    assert np.array_equal(value, warm) and value.shape == (2, block.grid.shape[0])
    bound = 56 * block.grid.nodes.shape[0] * 8
    assert peak < bound, (peak / (8 * block.grid.nodes.shape[0]), bound)
