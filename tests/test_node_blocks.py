"""Row blocks, the one cut of a grid (``QuadratureGrid.blocks``): the certificate, the
cylinder's closed-form deviations and integrals, the grid geometry's row blocks and
the variations run over them give the same bits at every block size, keep a NaN,
and hold memory to one block; chart jets and jet-arithmetic fields on a block are
the whole evaluation's jets there; and covariant calculus forms no rank-3 array per
one-form."""

import itertools
import json
import logging
import math
import tracemalloc

import numpy as np
import pytest

import soliton_stability as ss
from oracles import tensor_grid
from soliton_stability import geometry, jets, quadrature, stability, wirtinger
from soliton_stability.charts import Chart
from soliton_stability.cli import EXIT_FAIL, EXIT_PASS, EXIT_PRECONDITION, main
from soliton_stability.errors import ImmersionError, NotASolitonError, UnsupportedChartError
from soliton_stability.geometry import kaehler_pullback, translator_defect
from soliton_stability.quadrature import QuadratureGrid

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


def block_sizes(grid):
    """Nodes per block that cut ``grid`` into one row each, two rows each, and one block."""
    return (1, 2 * math.prod(grid.shape[1:]) + 1, math.prod(grid.shape))


def node_slices(grid):
    """Each block of ``grid.blocks()`` with the slice of the grid's nodes it covers."""
    start = 0
    for block in grid.blocks():
        rows = slice(start, start + math.prod(block.shape))
        start = rows.stop
        yield rows, block


@pytest.mark.parametrize(
    "spec",
    ["grim_reaper", EXPRESSION_GRIM_REAPER, "non_lagrangian_patch"],
    ids=["grim_reaper", "expression_grim_reaper", "non_lagrangian_patch"],
)
def test_soliton_residual_is_block_invariant(monkeypatch, T, spec):
    chart = ss.chart_from_config(spec)
    grid = ss.uniform_grid(chart, 9)
    expected = unblocked_residual(chart, T, grid.nodes)
    for size in block_sizes(grid):
        monkeypatch.setattr(quadrature, "BLOCK_NODES", size)
        report = ss.soliton_residual(chart, T, grid)
        assert report.to_dict() == expected.to_dict(), size


def test_row_blocks_have_at_least_two_nodes(monkeypatch):
    """Blocks cover the x-rows in order, ``BLOCK_NODES`` rounded down to whole rows and at
    least one row; rows of one node go two to a block, and a one-node remainder joins the
    block before it."""

    def sizes(nx, per_row, size):
        monkeypatch.setattr(quadrature, "BLOCK_NODES", size)
        grid = tensor_grid(np.arange(float(nx)), np.arange(float(per_row)))
        blocks = list(grid.blocks())
        assert np.array_equal(np.concatenate([b.axis_nodes[0] for b in blocks]), grid.axis_nodes[0])
        assert all(b.axis_nodes[1] is grid.axis_nodes[1] for b in blocks)
        return [b.shape[0] for b in blocks]

    assert sizes(81, 1, 10) == [10] * 7 + [11]
    assert sizes(80, 1, 10) == [10] * 8
    assert sizes(1, 1, 10) == [1]
    assert sizes(7, 1, 1) == [2, 2, 3]
    assert sizes(8, 1, 1) == [2] * 4
    assert sizes(10, 3, 7) == [2] * 5
    assert sizes(10, 3, 1) == [1] * 10
    assert sizes(10, 3, 2) == [1] * 10
    assert sizes(10, 3, 100) == [10]
    assert sizes(5, 36, 8192) == [5]


def test_soliton_residual_checks_each_block_once(monkeypatch, grim_reaper, T):
    """The chart evaluation is the one finiteness check: point_geometry takes no jets to re-check."""
    grid = ss.uniform_grid(grim_reaper, 9)
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 20)
    checked = []
    is_finite = jets.Jet.is_finite

    def counted(jet):
        checked.append(jet.val.shape[-1])
        return is_finite(jet)

    monkeypatch.setattr(jets.Jet, "is_finite", counted)
    ss.soliton_residual(grim_reaper, T, grid)
    assert checked == [rows.stop - rows.start for rows, _ in node_slices(grid)]
    assert checked == [18] * 4 + [9]  # 9 rows of 9 points: four blocks of two rows, then one


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
def test_chart_jets_are_block_invariant(monkeypatch, spec, order):
    """Chart jets on each row block are the whole evaluation's there: the property the
    row blocks' bit identity rests on."""
    # the expression chart's fourth component "0" is a plain number, promoted per call
    chart = ss.chart_from_config(spec)
    grid = ss.uniform_grid(chart, 9)
    whole = ss.eval_jets(chart, grid.nodes, order=order)
    assert whole.val.shape == (4, 81)
    assert (whole.order, whole.d2 is None, whole.d3 is None) == (order, order < 2, order < 3)
    for size in block_sizes(grid):
        monkeypatch.setattr(quadrature, "BLOCK_NODES", size)
        for rows, block in node_slices(grid):
            jet = ss.eval_jets(chart, block.nodes, order=order)
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
    pts = ss.uniform_grid(chart, 9).nodes
    for rows in (slice(None), slice(0, 18), slice(18, 81)):
        want = ss.eval_jets(chart, pts[rows], order=3)
        assert_jets_equal(ss.eval_jets(other, pts[rows], order=3), want, rows)


def test_rank_deficiency_message_is_block_invariant(monkeypatch, T):
    # g = diag(1, 9 y^4) loses rank on the middle row y = 0 of an odd grid
    chart = ss.chart_from_config(
        {"name": "cusp", "domain": [[-1, 1], [-1, 1]], "components": ["x", "0", "y**3", "0"]}
    )
    grid = ss.uniform_grid(chart, 9)
    messages = set()
    for size in block_sizes(grid):
        monkeypatch.setattr(quadrature, "BLOCK_NODES", size)
        with pytest.raises(ImmersionError, match=r"at point \[-0\.8, 0\.0\]") as info:
            ss.soliton_residual(chart, T, grid)
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
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 20)
    calls = nan_in_third_block(monkeypatch)
    report = ss.soliton_residual(grim_reaper, T, ss.uniform_grid(grim_reaper, 10))
    assert calls == [20] * 5
    assert np.isnan(report.max_soliton_residual)
    assert report.max_lagrangian_defect == 0.0


def test_nan_certificate_fails_verify_soliton(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 500)
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


def test_soliton_residual_memory_is_bounded(monkeypatch, grim_reaper, T):
    """Peak memory does not grow with the points: the diagnostic grid is its axes, and
    one row block's geometry is held at a time.  From 4 blocks to 16 it grows by the axes,
    the per-block maxima and bookkeeping alone."""
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 4096)
    small, large = ss.uniform_grid(grim_reaper, 128), ss.uniform_grid(grim_reaper, 256)
    assert [len(list(g.blocks())) for g in (small, large)] == [4, 16]
    _, peak_small = traced_peak(ss.soliton_residual, grim_reaper, T, small)
    _, peak_large = traced_peak(ss.soliton_residual, grim_reaper, T, large)
    slack = 64 * 1024  # the per-block maxima and interpreter bookkeeping
    assert peak_large - peak_small <= slack, (peak_small, peak_large)


@pytest.mark.parametrize("build", ["soliton_residual", "closed_form_deviations"])
def test_diagnostic_walk_holds_one_block_geometry_at_a_time(monkeypatch, grim_reaper, T, build):
    """16 row blocks of 4,096 points peak as one does: each block's geometry is dropped
    before the next is built.  Holding the previous block's while building the next
    peaked at 5.45 MB for soliton_residual on 16 blocks of 4,096 points, against 3.08 MB on one."""
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 4096)
    side = {1: 64, 16: 256}  # 64 x 64 and 256 x 256, 4,096 points per block
    peaks = {}
    for blocks in (1, 16):
        if build == "soliton_residual":
            grid = ss.uniform_grid(grim_reaper, side[blocks])
            assert len(list(grid.blocks())) == blocks
            _, peaks[blocks] = traced_peak(ss.soliton_residual, grim_reaper, T, grid)
        else:
            _, peaks[blocks] = traced_peak(ss.closed_form_deviations, grim_reaper, T, side[blocks])
    slack = 64 * 1024  # the axes, the per-block maxima and interpreter bookkeeping
    assert peaks[16] - peaks[1] <= slack, peaks


def test_closed_form_deviations_are_block_invariant(monkeypatch, grim_reaper, T):
    """The cylinder's deviations are the same dict at every block size, and a NaN in one
    node of a later block reaches it."""
    dicts = []
    for size in block_sizes(ss.uniform_grid(grim_reaper, 9)):
        monkeypatch.setattr(quadrature, "BLOCK_NODES", size)
        dicts.append(ss.closed_form_deviations(grim_reaper, T, 9))
    assert dicts[1:] == dicts[:1] * 2 and all(map(np.isfinite, dicts[0].values())), dicts

    monkeypatch.setattr(quadrature, "BLOCK_NODES", 20)
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
    assert calls == [20] * 5
    assert np.isnan(deviations.pop("mean_curvature"))
    assert deviations == {k: v for k, v in clean.items() if k != "mean_curvature"}


def test_closed_form_deviations_memory_is_bounded(grim_reaper, T):
    """Peak memory does not grow with the sampled points: the diagnostic grid is its axes,
    and one row block's geometry is held at a time.  The whole-point-set build peaked at
    about 1.1 kB per point (415 MB RSS at 600 x 600)."""
    peaks = []
    for blocks in (4, 16):  # 8,192 points per block at 181 x 181 and 362 x 362
        n = int(np.sqrt(blocks * quadrature.BLOCK_NODES))
        _, peak = traced_peak(ss.closed_form_deviations, grim_reaper, T, n)
        peaks.append(peak)
    slack = 64 * 1024  # the axes, the per-block maxima and interpreter bookkeeping
    assert peaks[1] - peaks[0] <= slack, peaks


def test_polynomial_field_memory_on_a_grid_stays_near_its_jet():
    """A d = 3 field on suite3d's 27,000-node grid, which reaches past the support box, peaks
    at most 2x its order-3 jet: only the 20 distinct partials form on the whole grid, and the
    mask zeroes the jet in place."""
    domain = np.array(GRIM_REAPER_X_LINE["domain"])
    grid = ss.tensor_rule(domain, cells=3, points_per_cell=10)
    phi = ss.random_polynomial_field(ss.default_support_box(domain), seed=3)
    phi.eval_jets(grid, 3)  # first-call caches stay out of the peak
    out, peak = traced_peak(phi.eval_jets, grid, 3)
    assert np.any(out.val == 0.0) and grid.nodes.shape[0] > quadrature.BLOCK_NODES
    assert peak <= 2 * sum(a.nbytes for a in (out.val, out.d1, out.d2, out.d3))


# (command, config, nodes per block that cut its grids into rows of one, of more, and whole)
COMMAND_CASES = {
    "verify_soliton_d3": (
        "verify-soliton",
        {"chart": GRIM_REAPER_X_LINE, "T": [1.0, 0, 0, 0, 0, 0], "grid": {"diagnostic_points": 12}},
        (1, 300, 10**9),
    ),
    "verify_soliton_d2": ("verify-soliton", {"grid": {"diagnostic_points": 20}}, (1, 50, 10**9)),
    "cylinder_d2": (
        "cylinder",
        {"grid": {"cells": 4, "points_per_cell": 4, "diagnostic_points": 10}, "dirichlet_intervals": 400},
        (1, 50, 10**9),
    ),
}


@pytest.mark.parametrize("case", list(COMMAND_CASES))
def test_command_output_is_byte_identical_at_every_block_size(monkeypatch, tmp_path, capsys, case):
    """verify-soliton on grim reaper x line in C^3 and on the grim reaper, and cylinder (whose
    per-slice sums span blocks), pass and print the same bytes whatever the block size."""
    command, cfg, sizes = COMMAND_CASES[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    blocks, cuts = QuadratureGrid.blocks, []

    def counted(grid):
        cut = list(blocks(grid))
        cuts[-1].append((len(cut), grid.shape[0]))
        return iter(cut)

    monkeypatch.setattr(QuadratureGrid, "blocks", counted)
    outputs = []
    for size in sizes:
        monkeypatch.setattr(quadrature, "BLOCK_NODES", size)
        cuts.append([])
        assert main([command, "--config", str(path)]) == EXIT_PASS
        outputs.append(capsys.readouterr())
    assert outputs[1:] == outputs[:1] * 2 and json.loads(outputs[0].out)["passed"] is True
    one_row, several_rows, whole = cuts  # (blocks, rows) of each grid cut
    assert all(n == rows for n, rows in one_row) and all(1 < n < rows for n, rows in several_rows)
    assert all(n == 1 for n, _ in whole), cuts


# (chart, one-form, cells, points per cell, rows per block): rows of 15 and 36 nodes
VARIATION_CASES = {
    "grim_reaper": ("grim_reaper", ss.random_hamiltonian_variation, 3, 5, (1, 2, 7)),
    "grim_reaper_x_line": (GRIM_REAPER_X_LINE, ss.random_hamiltonian_variation, 2, 3, (1, 2, 4)),
    "non_closed": ("grim_reaper", ss.random_generic_variation, 3, 5, (1, 2, 7)),
}


def row_blocks(grid, blocks):
    """The sub-grids of ``blocks`` cover ``grid``'s rows in order, each on views of its axes."""
    per_row = grid.nodes.shape[0] // grid.shape[0]
    axis0 = np.concatenate([b.grid.axis_nodes[0] for b in blocks])
    assert np.array_equal(axis0, grid.axis_nodes[0])
    for b in blocks:
        assert b.grid.nodes.shape[0] == b.grid.shape[0] * per_row
        assert np.shares_memory(b.grid.axis_nodes[0], grid.axis_nodes[0])
        assert np.shares_memory(b.grid.axis_weights[0], grid.axis_weights[0])
        assert all(x is y for x, y in zip(b.grid.axis_nodes[1:], grid.axis_nodes[1:]))
    return [b.grid.shape[0] for b in blocks]


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
        monkeypatch.setattr(quadrature, "BLOCK_NODES", size)
        blocks = list(ss.grid_blocks(chart, np.eye(2 * d)[0], grid))
        sizes = row_blocks(grid, blocks)
        assert sizes == [grid.shape[0]] if rows is None else sizes[:-1] == [rows] * (len(sizes) - 1)
        reports[rows] = ss.run_variation_suite(blocks, [(3, theta)])[0].to_dict()
    for rows in row_counts:
        assert reports[rows] == reports[None], rows
    if case == "non_closed":
        assert reports[1]["lagrangian_defect"] > 0.1


def test_one_node_rows_run_in_blocks_of_two_rows(monkeypatch, grim_reaper, T):
    """A grid whose rows hold one node keeps the walk's no-one-node rule."""
    grid = tensor_grid(np.linspace(-0.5, 0.5, 5), 0.0)
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 1)
    assert row_blocks(grid, list(ss.grid_blocks(grim_reaper, T, grid))) == [2, 3]


# the arrays a block keeps: what the routes read; every other field of point_geometry is dropped
KEPT = ("positions", "tangents", "hessian", "g", "g_inv", "Gamma", "h_coord")
FORMED = ("dg_inv", "K", "P", "T_coord", "frame_coeff", "h3")
DROPPED = ("sqrt_det_g", "dg", "Gamma_partial", "weight")


@pytest.mark.parametrize("spec", ["grim_reaper", GRIM_REAPER_X_LINE], ids=["d2", "d3"])
def test_block_geometry_matches_the_full_grid(monkeypatch, spec):
    """Each block holds the whole grid's geometry at its rows, bit for bit, with the traces
    the routes read formed and the construction intermediates dropped; the reported
    functional at rest is the whole grid's."""
    chart = ss.chart_from_config(spec)
    d = chart.domain.shape[0]
    grid = ss.tensor_rule(ss.default_support_box(chart.domain), cells=2, points_per_cell=3 if d == 3 else 5)
    T = np.eye(2 * d)[0]
    full = ss.point_geometry(chart, T, grid.nodes)
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 2 * grid.nodes.shape[0] // grid.shape[0])
    blocks = list(ss.grid_blocks(chart, T, grid))
    assert len(blocks) == grid.shape[0] // 2
    start = 0
    for block in blocks:
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
        assert block.soliton_residual == np.max(np.linalg.norm(block.translator_defect, axis=0))
    (report,) = ss.run_variation_suite(blocks, [(1, ss.random_hamiltonian_variation(grid.box, seed=1))])
    assert report.F_value == grid.integrate(full.weight * full.sqrt_det_g)


# a translator to within soliton_tol whose Kaehler pullback, |d/dx 4e-9 exp(x - 0.8)|, passes
# the Lagrangian test on the first row of 2 x 4 points only: 8.5e-10 there, 1.1e-9 on the second
BENT_PLANE = {
    "name": "bent_plane",
    "domain": [[-1.0, 1.0], [-1.0, 1.0]],
    "components": ["x", "0", "y", "4e-9*exp(x - 0.8)"],
}


def test_a_grid_lagrangian_on_its_first_rows_only_is_refused(monkeypatch, T):
    """On BENT_PLANE, the walk yields the first block, Lagrangian by itself, and no later one,
    then refuses the grid as a whole; a grid geometry that is not Lagrangian forms no h3 and
    refuses the normal field V = J theta^sharp."""
    chart = ss.chart_from_config(BENT_PLANE)
    grid = ss.tensor_rule(ss.default_support_box(chart.domain), cells=2, points_per_cell=4)
    theta = ss.random_hamiltonian_variation(grid.box, seed=1)
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 8)
    walk = ss.grid_blocks(chart, T, grid)
    first = next(walk)
    assert first.pg.lagrangian and "h3" in vars(first.pg)
    assert first.soliton_residual <= first.soliton_tol
    with pytest.raises(UnsupportedChartError, match="needs a Lagrangian chart"):
        next(walk)
    with pytest.raises(UnsupportedChartError, match="needs a Lagrangian chart"):
        ss.run_variation_suite(ss.grid_blocks(chart, T, grid), [(1, theta)])
    gg = ss.grid_geometry(chart, T, grid)
    assert not gg.pg.lagrangian and not any(name in vars(gg.pg) for name in ("h3", "nu"))
    with pytest.raises(UnsupportedChartError):
        ss.prepare_variation(gg, theta)


@pytest.mark.parametrize(
    "spec, cells, points, held, peak",
    [("grim_reaper", 20, 8, 94, 146), (GRIM_REAPER_X_LINE, 3, 10, 263, 562)],
    ids=["d2", "d3"],
)
def test_grid_geometry_memory_per_node(spec, cells, points, held, peak):
    """A block's geometry holds what the routes read, 93 floats per node at d = 2 and 262 at
    d = 3, and its build peaks at 143 and 558 per node of the block.  The walk holds one
    block at a time, so it peaks as the largest block's build does, whatever the number of
    blocks.  Holding every block's geometry held 93 and 262 floats per node of the grid and
    peaked at 110 and 340; the whole-grid build held 101 and 324 and peaked at 143 and 558."""
    chart = ss.chart_from_config(spec)
    d = chart.domain.shape[0]
    T = np.eye(2 * d)[0]
    grid = ss.tensor_rule(ss.default_support_box(chart.domain), cells=cells, points_per_cell=points)
    ss.grid_geometry(chart, T, grid.rows(0, 2))  # first-call caches stay out of the count
    sizes = []

    def walk():
        for block in ss.grid_blocks(chart, T, grid):
            sizes.append(block.grid.shape[0])
            del block

    _, walk_peak = traced_peak(walk)
    largest = max(sizes) * grid.nodes.shape[0] // grid.shape[0]
    tracemalloc.start()
    try:
        gg = ss.grid_geometry(chart, T, grid.rows(0, max(sizes)))
        held_bytes, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sizes) > 2 and gg.grid.nodes.shape[0] == largest
    assert held_bytes < held * 8 * largest, held_bytes / (8 * largest)
    assert peak_bytes < peak * 8 * largest, peak_bytes / (8 * largest)
    assert walk_peak < peak * 8 * largest, walk_peak / (8 * largest)


def test_variation_memory_does_not_grow_with_the_grid(monkeypatch, grim_reaper, T, gr_support):
    """A variation holds one block's arrays at a time: over blocks built beforehand, its peak
    is the same on 6,400 and 25,600 nodes.  With whole-grid per-variation arrays it grew
    with the grid, to 28 floats per node."""
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 1024)
    variations = [(2, ss.random_hamiltonian_variation(gr_support, seed=2))]
    peaks = []
    for cells in (20, 40):
        blocks = list(ss.grid_blocks(grim_reaper, T, ss.tensor_rule(gr_support, cells=cells, points_per_cell=4)))
        warm = ss.run_variation_suite(blocks, variations)
        reports, peak = traced_peak(ss.run_variation_suite, blocks, variations)
        assert reports == warm
        peaks.append(peak)
    assert peaks[1] < 1.1 * peaks[0] + 64 * 1024, peaks
    assert peaks[1] < 4 * 25_600 * 8, peaks  # 4 floats per node


def test_suite_memory_grows_by_its_row_sums_alone(monkeypatch, grim_reaper, T, gr_support):
    """Geometry blocks outer, variations inner: from 10 to 40 cells, from one block of 1,600
    nodes to 16, the suite's peak, its geometry included, grows by no more than the row sums
    it keeps (7 per x-row per variation, and the functional at rest) and 32 kB of bookkeeping.
    Every block's geometry held for the whole run grew it by 93 floats per node, and the
    previous block's held while the next was built by 93 per node of a block."""
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 1600)  # 40 rows of 40 nodes, 10 of 160
    variations = [(seed, ss.random_hamiltonian_variation(gr_support, seed)) for seed in (1, 2)]
    peaks, rows = [], []
    for cells in (10, 40):
        grid = ss.tensor_rule(gr_support, cells=cells, points_per_cell=4)
        ss.run_variation_suite(ss.grid_blocks(grim_reaper, T, grid), variations)  # first-call caches
        _, peak = traced_peak(ss.run_variation_suite, ss.grid_blocks(grim_reaper, T, grid), variations)
        peaks.append(peak)
        rows.append(grid.shape[0])
    row_sums = (rows[1] - rows[0]) * (7 * len(variations) + 1) * 8
    assert peaks[1] - peaks[0] <= row_sums + 32 * 1024, (peaks, row_sums)


def test_square_route_warns_once_per_variation(monkeypatch, caplog, gr_geometry_small):
    """The non-closed warning reads the grid-wide defect, once, not once per block."""
    grid = gr_geometry_small.grid
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 4 * grid.nodes.shape[0] // grid.shape[0])
    chart, T = gr_geometry_small.chart, gr_geometry_small.pg.T
    assert len(list(ss.grid_blocks(chart, T, grid))) == 15
    generic = ss.random_generic_variation(grid.box, seed=7)
    with caplog.at_level(logging.WARNING, logger="soliton_stability"):
        (report,) = ss.run_variation_suite(ss.grid_blocks(chart, T, grid), [(7, generic)])
    assert [r.message for r in caplog.records] == [
        f"square-form route on a non-closed form (defect {report.lagrangian_defect:.3e} > 1.000e-09); "
        "its value will not match the other routes"
    ]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="soliton_stability"):
        ss.run_variation_suite(ss.grid_blocks(chart, T, grid), [(7, ss.random_hamiltonian_variation(grid.box, seed=7))])
    assert caplog.records == []


def small_suite(tmp_path, chart, cells, points):
    """A 3-variation second-variation config, written to ``tmp_path``."""
    path = tmp_path / "cfg.json"
    cfg = {"chart": chart, "grid": {"cells": cells, "points_per_cell": points}, "variations": {"count": 3}}
    path.write_text(json.dumps(cfg))
    return str(path)


def count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name`` made through the module."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_workers_give_the_bytes_of_one_worker_over_row_blocks(monkeypatch, tmp_path, capsys):
    """With 4 row blocks, --workers 2 runs each block's variations on one thread pool and
    prints the bytes of --workers 1."""
    cfg = small_suite(tmp_path, "grim_reaper", cells=12, points=6)
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 18 * 72)
    built = count_calls(monkeypatch, stability, "grid_geometry")
    stdout = {}
    for workers in ("1", "2"):
        assert main(["second-variation", "--config", cfg, "--workers", workers]) == EXIT_PASS
        stdout[workers] = capsys.readouterr().out
    assert len(built) == 2 * 4
    assert stdout["2"] == stdout["1"] and json.loads(stdout["1"])["summary"]["count"] == 3


# a translator to within 1e-8 on its first 11 of 16 rows at 4 x 4 points, up to 3.6e-7 on the last
BENT_LATE = {
    "name": "grim_reaper_bent_late",
    "domain": [[-1.47, 1.47], [-3.0, 3.0]],
    "components": ["-log(cos(x)) + 1e-12*exp(10*x)", "x", "y", "0"],
}


def test_a_later_block_off_criticality_names_the_grid_wide_residual(monkeypatch, tmp_path, capsys):
    """The residual passes on the first two of 4 blocks, so the variations run there; the
    third block refuses, the fourth is still built, and exit 3 names its larger residual."""
    cfg = small_suite(tmp_path, BENT_LATE, cells=4, points=4)
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 4 * 16)
    spec = ss.chart_from_config(BENT_LATE)
    grid = ss.tensor_rule(ss.default_support_box(spec.domain), cells=4, points_per_cell=4)
    T = [1.0, 0.0, 0.0, 0.0]
    residuals = [ss.grid_geometry(spec, T, grid.rows(i, i + 4)).soliton_residual for i in range(0, 16, 4)]
    tol = stability.DEFAULT_SOLITON_TOL
    assert max(residuals[:2]) <= tol < residuals[2] < residuals[3]
    assert residuals[3] == ss.grid_geometry(spec, T, grid).soliton_residual
    built = count_calls(monkeypatch, stability, "grid_geometry")
    evaluated = count_calls(monkeypatch, ss.reports, "evaluate_variation")
    assert main(["second-variation", "--config", cfg]) == EXIT_PRECONDITION
    assert capsys.readouterr() == ("", f"precondition violation: {NotASolitonError(residuals[3], tol)}\n")
    assert (len(built), len(evaluated)) == (4, 2 * 3)


def test_a_later_refusal_wins_over_a_variation_failing_on_an_earlier_block(monkeypatch, tmp_path, capsys):
    """A potential that is not finite on the first of 4 blocks does not pre-empt the third
    block's refusal: the walk builds every block, and exit 3 names the grid-wide residual, as
    when the whole grid was built before any variation ran."""
    path = tmp_path / "cfg.json"
    grid_cfg, variations = {"cells": 4, "points_per_cell": 4}, {"potentials": ["log(x + 1)"]}
    cfg = {"chart": BENT_LATE, "grid": grid_cfg, "variations": variations}
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 4 * 16)
    spec = ss.chart_from_config(BENT_LATE)
    grid = ss.tensor_rule(ss.default_support_box(spec.domain), cells=4, points_per_cell=4)
    resid = ss.grid_geometry(spec, [1.0, 0.0, 0.0, 0.0], grid).soliton_residual
    built = count_calls(monkeypatch, stability, "grid_geometry")
    evaluated = count_calls(monkeypatch, ss.reports, "evaluate_variation")
    assert main(["second-variation", "--config", str(path)]) == EXIT_PRECONDITION
    err = NotASolitonError(resid, stability.DEFAULT_SOLITON_TOL)
    assert capsys.readouterr() == ("", f"precondition violation: {err}\n")
    assert (len(built), len(evaluated)) == (4, 1)
    cfg["chart"] = "grim_reaper"  # with no refusal, the potential's own error is raised
    path.write_text(json.dumps(cfg))
    assert main(["second-variation", "--config", str(path)]) == EXIT_FAIL
    assert "'log(x + 1)' produced non-finite jet data" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, cells, block, refusal",
    [(BENT_LATE, 4, 4 * 16, NotASolitonError), (BENT_PLANE, 2, 8, UnsupportedChartError)],
    ids=["off_criticality", "not_lagrangian"],
)
def test_a_nan_residual_does_not_hide_a_later_refusal(monkeypatch, spec, cells, block, refusal):
    """A NaN residual on the first block is no refusal by itself, as before the walk, but it
    cannot hide a later refusal: a block off criticality refuses with the NaN grid maximum,
    and a block that is not Lagrangian, with every residual within soliton_tol, refuses with
    UnsupportedChartError, not with the NaN."""
    monkeypatch.setattr(quadrature, "BLOCK_NODES", block)
    calls = []

    def defect(pg):
        out = translator_defect(pg)
        calls.append(out.shape[1])
        if len(calls) == 1:
            out[:, 0] = np.nan
        return out

    monkeypatch.setattr(stability, "translator_defect", defect)
    spec = ss.chart_from_config(spec)
    grid = ss.tensor_rule(ss.default_support_box(spec.domain), cells=cells, points_per_cell=4)
    walk = ss.grid_blocks(spec, [1.0, 0.0, 0.0, 0.0], grid)
    assert np.isnan(next(walk).soliton_residual)
    with pytest.raises(refusal) as info:
        list(walk)
    assert len(calls) == grid.nodes.shape[0] // block
    assert np.isnan(info.value.residual) if refusal is NotASolitonError else "Lagrangian" in str(info.value)


def test_covariant_calculus_needs_the_order_three_trace():
    """The guard tests P, which a block keeps, not Gamma_partial, which it drops."""
    chart = ss.chart_from_config(GRIM_REAPER_X_LINE)
    support = ss.default_support_box(chart.domain)
    grid = ss.tensor_rule(support, cells=1, points_per_cell=3)
    fj = ss.random_generic_variation(support, seed=5).eval_jets(grid, order=2)
    T = np.eye(6)[0]
    with pytest.raises(ValueError, match="order-3 chart jets"):
        ss.covariant_calculus(fj.val, fj.d1, fj.d2, ss.point_geometry(chart, T, grid.nodes, order=2))
    block = ss.grid_geometry(chart, T, grid)
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
    monkeypatch.setattr(quadrature, "BLOCK_NODES", 512)
    grid = ss.tensor_rule(gr_support, cells=20, points_per_cell=8)
    blocks = list(ss.grid_blocks(grim_reaper, T, grid))
    assert len(blocks) >= 8 and grid.nodes.shape[0] == 25_600
    block = blocks[3]
    data = ss.prepare_variation(block, ss.random_hamiltonian_variation(gr_support, seed=2))
    warm = ss.second_variation_fd_oracle(block, data)
    value, peak = traced_peak(ss.second_variation_fd_oracle, block, data)
    assert np.array_equal(value, warm) and value.shape == (2, block.grid.shape[0])
    bound = 56 * block.grid.nodes.shape[0] * 8
    assert peak < bound, (peak / (8 * block.grid.nodes.shape[0]), bound)
