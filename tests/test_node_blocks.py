"""Node blocks: the certificate, chart jets, jet-arithmetic fields and the
per-variation passes give the same bits at every block size, keep a NaN, and
hold memory to one block; and covariant calculus forms no rank-3 array per
one-form."""

import tracemalloc

import numpy as np
import pytest

import soliton_stability as ss
from soliton_stability import geometry, jets, stability
from soliton_stability.charts import Chart
from soliton_stability.cli import EXIT_FAIL, main
from soliton_stability.errors import ImmersionError
from soliton_stability.geometry import kaehler_pullback, translator_defect

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
        monkeypatch.setattr(jets, "NODE_BLOCK", size)
        report = ss.soliton_residual(chart, T, pts)
        assert report.to_dict() == expected.to_dict(), size


def test_node_blocks_have_at_least_two_rows():
    """Blocks cover the rows in order; a one-row remainder joins the block before it."""

    def sizes(n, size):
        rows = jets.node_blocks(n, size)
        assert [r.start for r in rows[1:]] == [r.stop for r in rows[:-1]]
        assert (rows[0].start, rows[-1].stop) == (0, n)
        return [r.stop - r.start for r in rows]

    assert sizes(81, 10) == [10] * 7 + [11]
    assert sizes(80, 10) == [10] * 8
    assert sizes(1, 10) == [1]
    assert jets.node_blocks(0) == [slice(0, 0)]
    assert sizes(7, 1) == [2, 2, 3]
    assert sizes(8, 1) == [2] * 4


def test_soliton_residual_checks_each_block_once(monkeypatch, grim_reaper, T):
    """The chart evaluation is the one finiteness check: point_geometry takes no jets to re-check."""
    pts = ss.uniform_grid(grim_reaper, 9)
    monkeypatch.setattr(jets, "NODE_BLOCK", 10)
    checked = []
    is_finite = jets.Jet.is_finite

    def counted(jet):
        checked.append(jet.val.shape[-1])
        return is_finite(jet)

    monkeypatch.setattr(jets.Jet, "is_finite", counted)
    ss.soliton_residual(grim_reaper, T, pts)
    assert checked == [rows.stop - rows.start for rows in jets.node_blocks(pts.shape[0])]
    assert len(checked) == 8  # 81 points: seven blocks of 10, then one of 11


def test_jet_arithmetic_fields_are_block_invariant(monkeypatch):
    rng = np.random.default_rng(11)
    support3 = ss.default_support_box([[-1.47, 1.47], [-2.0, 2.0], [-2.0, 2.0]])
    support2 = ss.default_support_box([[-1.47, 1.47], [-3.0, 3.0]])
    cases = [
        (ss.random_polynomial_field(support3, seed=3), support3),
        (ss.scalar_field_from_expression("sin(x)*exp(y)/(2 + cos(x*y))", support2), support2),
    ]
    for field, support in cases:
        grid = ss.tensor_rule(1.1 * support, cells=1, points_per_cell=3)
        pts = rng.uniform(support[:, 0], support[:, 1], size=(20, support.shape[0]))
        for where in (grid, pts):
            n = grid.nodes.shape[0] if where is grid else pts.shape[0]
            monkeypatch.setattr(jets, "NODE_BLOCK", 10**9)
            expected = field.eval_jets(where, order=3)
            for size in block_sizes(n):
                monkeypatch.setattr(jets, "NODE_BLOCK", size)
                jet = field.eval_jets(where, order=3)
                for name in ("val", "d1", "d2", "d3"):
                    assert np.array_equal(getattr(jet, name), getattr(expected, name)), size


@pytest.mark.parametrize(
    "spec", ["grim_reaper", EXPRESSION_GRIM_REAPER], ids=["grim_reaper", "expression_grim_reaper"]
)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_chart_jets_are_block_invariant(monkeypatch, spec, order):
    # the expression chart's fourth component "0" is a plain number, promoted per block
    chart = ss.chart_from_config(spec)
    pts = ss.uniform_grid(chart, 9)
    monkeypatch.setattr(jets, "NODE_BLOCK", 10**9)
    expected = ss.eval_jets(chart, pts, order=order)
    assert expected.val.shape == (4, pts.shape[0])
    for size in block_sizes(pts.shape[0]):
        monkeypatch.setattr(jets, "NODE_BLOCK", size)
        jet = ss.eval_jets(chart, pts, order=order)
        assert (jet.order, jet.d2 is None, jet.d3 is None) == (order, order < 2, order < 3)
        for name in ("val", "d1", "d2", "d3"):
            got, want = getattr(jet, name), getattr(expected, name)
            assert got is None if want is None else np.array_equal(got, want), (size, name)


@pytest.mark.parametrize("container", [tuple, iter], ids=["tuple", "iterator"])
def test_chart_map_jets_may_return_any_sequence(monkeypatch, container):
    # Chart.map_jets is typed Sequence: a tuple (or any iterable) of components
    # gives the same jets as a list, on the one-block and the many-block path
    chart = ss.grim_reaper_cylinder()
    other = Chart(
        "grim_reaper_tuple",
        chart.domain,
        chart.ambient_dim,
        lambda seeds: container(chart.map_jets(seeds)),
    )
    pts = ss.uniform_grid(chart, 9)
    for size in (10**9, 7):
        monkeypatch.setattr(jets, "NODE_BLOCK", size)
        expected = ss.eval_jets(chart, pts, order=3)
        jet = ss.eval_jets(other, pts, order=3)
        for name in ("val", "d1", "d2", "d3"):
            assert np.array_equal(getattr(jet, name), getattr(expected, name)), (size, name)


def test_rank_deficiency_message_is_block_invariant(monkeypatch, T):
    # g = diag(1, 9 y^4) loses rank on the middle row y = 0 of an odd grid
    chart = ss.chart_from_config(
        {"name": "cusp", "domain": [[-1, 1], [-1, 1]], "components": ["x", "0", "y**3", "0"]}
    )
    pts = ss.uniform_grid(chart, 9)
    messages = set()
    for size in block_sizes(pts.shape[0]):
        monkeypatch.setattr(jets, "NODE_BLOCK", size)
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
    monkeypatch.setattr(jets, "NODE_BLOCK", 16)
    calls = nan_in_third_block(monkeypatch)
    report = ss.soliton_residual(grim_reaper, T, ss.uniform_grid(grim_reaper, 10))
    assert len(calls) == 7
    assert np.isnan(report.max_soliton_residual)
    assert report.max_lagrangian_defect == 0.0


def test_nan_certificate_fails_verify_soliton(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(jets, "NODE_BLOCK", 512)
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
    block = jets.NODE_BLOCK
    rng = np.random.default_rng(5)
    lo, hi = grim_reaper.domain[:, 0], grim_reaper.domain[:, 1]
    small = rng.uniform(0.9 * lo, 0.9 * hi, size=(4 * block, 2))
    large = rng.uniform(0.9 * lo, 0.9 * hi, size=(16 * block, 2))
    _, peak_small = traced_peak(ss.soliton_residual, grim_reaper, T, small)
    _, peak_large = traced_peak(ss.soliton_residual, grim_reaper, T, large)
    slack = 64 * 1024  # the per-block maxima and interpreter bookkeeping
    assert peak_large - peak_small <= (large.nbytes - small.nbytes) + slack


def test_chart_jet_memory_is_bounded(grim_reaper):
    """Beyond the result, chart jets hold one block of temporaries at any size."""
    block = jets.NODE_BLOCK
    rng = np.random.default_rng(7)
    lo, hi = grim_reaper.domain[:, 0], grim_reaper.domain[:, 1]
    overheads = []
    for blocks in (4, 16):
        pts = rng.uniform(0.9 * lo, 0.9 * hi, size=(blocks * block, 2))
        out, peak = traced_peak(ss.eval_jets, grim_reaper, pts, 3)
        result = sum(a.nbytes for a in (out.val, out.d1, out.d2, out.d3))
        overheads.append(peak - result)
    mask = (16 - 4) * block  # the domain check's mask, one byte per point
    slack = 64 * 1024  # the per-block slices and interpreter bookkeeping
    assert overheads[1] - overheads[0] <= mask + slack, overheads


def test_polynomial_field_memory_on_a_grid_stays_near_its_jet():
    """A d = 3 field on suite3d's 27,000-node grid, which reaches past the support box, peaks
    at most 2x its order-3 jet: only the 20 distinct partials form on the whole grid, and the
    mask zeroes the jet in place."""
    domain = np.array(GRIM_REAPER_X_LINE["domain"])
    grid = ss.tensor_rule(domain, cells=3, points_per_cell=10)
    phi = ss.random_polynomial_field(ss.default_support_box(domain), seed=3)
    phi.eval_jets(grid, 3)  # first-call caches stay out of the peak
    out, peak = traced_peak(phi.eval_jets, grid, 3)
    assert np.any(out.val == 0.0) and grid.nodes.shape[0] > jets.NODE_BLOCK
    assert peak <= 2 * sum(a.nbytes for a in (out.val, out.d1, out.d2, out.d3))


# (chart, one-form, cells, points per cell): 15^2 = 225 and 6^3 = 216 nodes, neither a multiple of 7
VARIATION_CASES = {
    "grim_reaper": ("grim_reaper", ss.random_hamiltonian_variation, 3, 5),
    "grim_reaper_x_line": (GRIM_REAPER_X_LINE, ss.random_hamiltonian_variation, 2, 3),
    "non_closed": ("grim_reaper", ss.random_generic_variation, 3, 5),
}


@pytest.mark.parametrize("case", list(VARIATION_CASES))
def test_variation_reports_are_block_invariant(monkeypatch, case):
    spec, make_form, cells, points = VARIATION_CASES[case]
    chart = ss.chart_from_config(spec)
    d = chart.domain.shape[0]
    support = ss.default_support_box(chart.domain)
    grid = ss.tensor_rule(support, cells=cells, points_per_cell=points)
    assert grid.nodes.shape[0] % 7
    theta = make_form(support, seed=3)
    reports = {}
    for size in (10**9, 1, 7):
        monkeypatch.setattr(stability, "VARIATION_BLOCK", size)
        gg = ss.grid_geometry(chart, np.eye(2 * d)[0], grid)
        # the blocks cover the nodes in order, and none has one node (size 1 runs as 2)
        edges = [(rows.start, rows.stop) for rows, _ in gg.blocks]
        assert [a for a, _ in edges[1:]] == [b for _, b in edges[:-1]]
        assert (edges[0][0], edges[-1][1]) == (0, grid.nodes.shape[0])
        assert min(b - a for a, b in edges) >= 2
        assert max(b - a for a, b in edges) <= max(size, 2) + 1
        reports[size] = ss.evaluate_variation(gg, theta, seed=3).to_dict()
    assert reports[1] == reports[10**9]
    assert reports[7] == reports[10**9]
    if case == "non_closed":
        assert reports[7]["lagrangian_defect"] > 0.1


@pytest.mark.parametrize("spec", ["grim_reaper", GRIM_REAPER_X_LINE], ids=["d2", "d3"])
def test_block_geometry_matches_the_full_grid(spec):
    chart = ss.chart_from_config(spec)
    d = chart.domain.shape[0]
    grid = ss.tensor_rule(ss.default_support_box(chart.domain), cells=2, points_per_cell=3 if d == 3 else 5)
    lazy = ("K", "P", "dg_inv", "T_coord", "h3", "frame_coeff", "nu")
    for size in (1, 7):
        pg = ss.point_geometry(chart, np.eye(2 * d)[0], grid.nodes)  # forms dg_inv only
        parts = [(rows, pg.take(rows)) for rows in jets.node_blocks(grid.nodes.shape[0], size)]
        for name in lazy:
            for rows, part in parts:
                assert np.array_equal(getattr(part, name), getattr(pg, name)[..., rows]), (size, name)
    # once formed on the whole batch, a property reaches a new part as a view
    rows = slice(3, 10)
    part = pg.take(rows)
    assert all(np.shares_memory(getattr(part, name), getattr(pg, name)) for name in lazy)
    assert part.T is pg.T


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
    """Beyond its inputs, the fd oracle holds its four step densities and one block.

    That is ``4 N + 64 VARIATION_BLOCK`` floats; the oracle formed on the
    whole grid at once peaked at 20 floats per node.
    """
    monkeypatch.setattr(stability, "VARIATION_BLOCK", 512)
    grid = ss.tensor_rule(gr_support, cells=20, points_per_cell=8)
    gg = ss.grid_geometry(grim_reaper, T, grid)
    n = grid.nodes.shape[0]
    assert len(gg.blocks) >= 8 and n == 25_600
    data = ss.prepare_variation(gg, ss.random_hamiltonian_variation(gr_support, seed=2))
    warm = ss.second_variation_fd_oracle(gg, data)
    value, peak = traced_peak(ss.second_variation_fd_oracle, gg, data)
    assert value == warm
    bound = (4 * n + 64 * 512) * 8
    assert peak < bound, (peak / (8 * n), bound)
