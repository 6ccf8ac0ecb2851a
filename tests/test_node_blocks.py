"""Node blocks: the certificate, chart jets and jet-arithmetic fields give the
same bits at every block size, keep a NaN, and hold memory to one block."""

import tracemalloc

import numpy as np
import pytest

import soliton_stability as ss
from soliton_stability import geometry, jets
from soliton_stability.charts import Chart
from soliton_stability.cli import EXIT_FAIL, main
from soliton_stability.errors import ImmersionError
from soliton_stability.geometry import kaehler_pullback, translator_defect

# detected, not pinned: expression charts leave ``lagrangian`` as None
EXPRESSION_GRIM_REAPER = {
    "name": "expression_grim_reaper",
    "domain": [[-1.47, 1.47], [-3.0, 3.0]],
    "components": ["-log(cos(x))", "x", "y", "0"],
}


def unblocked_residual(chart, structure, pts):
    """The certificate as one batch, the reference every block size must match."""
    pg = ss.point_geometry(chart, structure, pts, jets=ss.eval_jets(chart, pts, order=2))
    resid = np.linalg.norm(translator_defect(pg), axis=1)
    defect = np.max(np.abs(kaehler_pullback(structure, pg.tangents)), axis=(1, 2))
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
def test_soliton_residual_is_block_invariant(monkeypatch, structure, spec):
    chart = ss.chart_from_config(spec)
    pts = ss.uniform_grid(chart, 9)
    expected = unblocked_residual(chart, structure, pts)
    for size in block_sizes(pts.shape[0]):
        monkeypatch.setattr(jets, "NODE_BLOCK", size)
        report = ss.soliton_residual(chart, structure, pts)
        assert report.to_dict() == expected.to_dict(), size


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
    assert expected.val.shape == (pts.shape[0], 4)
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
        chart.lagrangian,
    )
    pts = ss.uniform_grid(chart, 9)
    for size in (10**9, 7):
        monkeypatch.setattr(jets, "NODE_BLOCK", size)
        expected = ss.eval_jets(chart, pts, order=3)
        jet = ss.eval_jets(other, pts, order=3)
        for name in ("val", "d1", "d2", "d3"):
            assert np.array_equal(getattr(jet, name), getattr(expected, name)), (size, name)


def test_rank_deficiency_message_is_block_invariant(monkeypatch, structure):
    # g = diag(1, 9 y^4) loses rank on the middle row y = 0 of an odd grid
    chart = ss.chart_from_config(
        {"name": "cusp", "domain": [[-1, 1], [-1, 1]], "components": ["x", "0", "y**3", "0"]}
    )
    pts = ss.uniform_grid(chart, 9)
    messages = set()
    for size in block_sizes(pts.shape[0]):
        monkeypatch.setattr(jets, "NODE_BLOCK", size)
        with pytest.raises(ImmersionError, match=r"at point \[-0\.8, 0\.0\]") as info:
            ss.soliton_residual(chart, structure, pts)
        messages.add(str(info.value))
    assert len(messages) == 1


def nan_in_third_block(monkeypatch):
    """Make translator_defect write NaN into one row of the third block it sees."""
    calls = []

    def defect(pg):
        out = translator_defect(pg)
        calls.append(out.shape[0])
        if len(calls) == 3:
            out[out.shape[0] // 2] = np.nan
        return out

    monkeypatch.setattr(geometry, "translator_defect", defect)
    return calls


def test_nan_in_a_later_block_reaches_the_certificate(monkeypatch, grim_reaper, structure):
    monkeypatch.setattr(jets, "NODE_BLOCK", 16)
    calls = nan_in_third_block(monkeypatch)
    report = ss.soliton_residual(grim_reaper, structure, ss.uniform_grid(grim_reaper, 10))
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


def test_soliton_residual_memory_is_bounded(grim_reaper, structure):
    """Peak memory grows with the input points only, not with the geometry."""
    block = jets.NODE_BLOCK
    rng = np.random.default_rng(5)
    lo, hi = grim_reaper.domain[:, 0], grim_reaper.domain[:, 1]
    small = rng.uniform(0.9 * lo, 0.9 * hi, size=(4 * block, 2))
    large = rng.uniform(0.9 * lo, 0.9 * hi, size=(16 * block, 2))
    _, peak_small = traced_peak(ss.soliton_residual, grim_reaper, structure, small)
    _, peak_large = traced_peak(ss.soliton_residual, grim_reaper, structure, large)
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
