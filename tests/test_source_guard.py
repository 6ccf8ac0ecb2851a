"""Settled design decisions that the package source must keep.

* Per-node metrics never go through LAPACK ``inv`` or ``cholesky``: the
  inverse is ``adjugate(g) / det`` and the frame is a node-last Cholesky
  factor with forward substitution, both closed forms over node rows.
* The complex structure is applied by index in ``charts.apply_J`` alone: no
  dense J matrix is contracted, and the structure object that carried one
  (``AmbientStructure``, built by ``standard_structure``) stays deleted.
* The package computes only what a run reads: the proof-step checks
  (``curvature_tensor``, ``ricci_identity_residual`` and the gradient of the
  divergence they read) live in ``tests/oracles.py``, the fd oracle reports no
  level gap through an ``instability_tol`` option, and ``point_geometry``
  evaluates the chart jets itself, so no caller hands it jets to check again.
* The criticality tolerance is set once, on ``GridGeometry`` by
  ``grid_geometry``: ``require_soliton`` takes the grid geometry alone, and no
  route, ``evaluate_variation`` or ``run_variation_suite`` takes a
  ``soliton_tol``.  ``VariationData`` holds the arrays of ``covariant_calculus``
  itself, with no ``CovariantData`` wrapper; every field is windowed on every
  axis.
* A grid is cut into blocks in ``quadrature`` alone, by
  ``QuadratureGrid.blocks``, which every command walks: no other module
  calls ``.rows(``, reads ``BLOCK_NODES``, splits arrays or ranges over
  block starts, or indexes points by a block of rows, and no module lays a
  grid out by ``meshgrid`` outside ``quadrature`` (which forms a grid's
  nodes from its axes only when they are read).  The scattered-point walk
  and its block rules (``point_blocks``, ``node_blocks``, ``NODE_BLOCK``,
  ``VARIATION_BLOCK``) stay deleted everywhere; ``jets.evaluate`` evaluates
  what it is given.
* The routes run over the grid's row blocks and nowhere else: no whole-grid
  point geometry on ``GridGeometry``, no ``take`` of node rows, no
  ``_by_block`` writes into full-length arrays, and fields evaluate on grids
  only, with no scattered-point branch.
* Geometry blocks are outer and variations inner: the suite walks
  ``grid_blocks`` and holds one block's geometry at a time, so no tuple of
  every block's geometry (``gg.blocks``, ``blocks: tuple[GridBlock, ...]``)
  comes back.
* The only order-3 geometry is the Christoffel trace ``P``, formed straight
  from the chart's third jets: the d^4-per-node tensors it was contracted
  from (``ddg``, ``dbracket``, ``Gamma_partial``) stay deleted.
* One evaluator serves polynomial fields in every d, the bump factored per
  axis: the d = 2 expanded window (``_polynomial_bump_evaluator`` over
  ``_BUMP_COEFFS``) stays deleted.

Patterns in ``OUTSIDE_QUADRATURE`` hold in every module but ``quadrature.py``.
A pattern may span lines (``[^)]*`` crosses them), so a signature written over
several lines is caught too; a violation is reported at its first line.
"""

import re
from pathlib import Path

import pytest

import soliton_stability as ss

SOURCES = sorted(Path(ss.__file__).parent.glob("*.py"))

FORBIDDEN = {
    "LAPACK inverse": r"linalg\.inv\b|linalg import .*\binv\b",
    "LAPACK Cholesky": r"linalg\.cholesky\b|linalg import .*\bcholesky\b",
    "dense complex-structure einsum": r"""["']pq,q""",
    "deleted structure object": r"\b(AmbientStructure|standard_structure)\b",
    "test-only curvature tensor": r"\bcurvature_tensor\b",
    "test-only Ricci identity": r"\bricci_identity_residual\b",
    "test-only gradient of the divergence": r"\bdiv_grad\b",
    "deleted fd level-gap option": r"\binstability_tol\b",
    "jets given to point_geometry": r"point_geometry\([^)]*\bjets\s*[:=]",
    "deleted covariant wrapper": r"\bCovariantData\b",
    "tolerance passed to require_soliton": r"\brequire_soliton\([^,)]*,",
    "route with its own soliton tolerance": (
        r"def (second_variation_\w+|evaluate_variation|run_variation_suite)\([^)]*\bsoliton_tol\b"
    ),
    "second node-block rule": r"\b_variation_blocks\b",
    "per-axis window option": r"(scalar_field_from_expression|_jet_arithmetic)\([^)]*\bwindow\b",
    "whole-grid path beside the row blocks": r"\b_by_block\b|\bgg\.pg\b|\.take\(rows\)",
    "scattered-point field branch": r"isinstance\(where, QuadratureGrid\)",
    "deleted point walk or block rule": r"\b(node_blocks|point_blocks|NODE_BLOCK|VARIATION_BLOCK)\b",
    "grid-wide tuple of block geometry": r"\bgg\.blocks\b|\btuple\[Grid(Block|Geometry)\b",
    "deleted order-3 Christoffel tensor": r"\b(Gamma_partial|ddg|dbracket)\b",
    "deleted expanded-window evaluator": r"\b(_polynomial_bump_evaluator|_BUMP_COEFFS)\b",
}

OUTSIDE_QUADRATURE = {
    "meshgrid outside quadrature": r"\bmeshgrid\b",
    "block cut outside quadrature": (
        r"\.rows\(|\bBLOCK_NODES\b|\barray_split\b|\brange\(\s*0\s*,[^,()]*,|\[\s*rows\s*[\],]"
    ),
}

# one sample per pattern that the guard must flag, at the sample's first line
CAUGHT = {
    "LAPACK inverse": "g_inv = np.linalg.inv(np.moveaxis(g, -1, 0))",
    "LAPACK Cholesky": "from numpy.linalg import cholesky, eigvalsh",
    "dense complex-structure einsum": 'nu = np.einsum("pq,qin->pin", J, e)',
    "deleted structure object": "def soliton_residual(chart, structure: AmbientStructure, grid):",
    "test-only curvature tensor": "_, _, ricci = curvature_tensor(block.pg)",
    "test-only Ricci identity": "resid = ricci_identity_residual(theta, cov, pg, ricci)",
    "test-only gradient of the divergence": 'div_grad = np.einsum("eabn,abn->en", pg.dg_inv, nabla)',
    "deleted fd level-gap option": "if instability_tol is not None and abs(value - d2) > instability_tol:",
    "jets given to point_geometry": "pg = point_geometry(chart, T, pts, jets=eval_jets(chart, pts, order=2))",
    "deleted covariant wrapper": "return VariationData(fj.val, fj.d1, CovariantData(*cov), nabla_sq, v, defect)",
    "tolerance passed to require_soliton": "require_soliton(gg, soliton_tol)",
    "route with its own soliton tolerance": (
        "def second_variation_square(\n    gg: GridGeometry,\n    data: VariationData,\n"
        "    soliton_tol: float = DEFAULT_SOLITON_TOL,\n) -> float:"
    ),
    "second node-block rule": "for rows in _variation_blocks(n):",
    "per-axis window option": "def scalar_field_from_expression(expr: str, support, window=None) -> ScalarField:",
    "whole-grid path beside the row blocks": "q = data.div + np.einsum(\"an,an->n\", data.theta, gg.pg.T_coord)",
    "scattered-point field branch": "x, y = where.axis_nodes if isinstance(where, QuadratureGrid) else where.T",
    "deleted point walk or block rule": "from .jets import Jet, node_blocks, stack",
    "meshgrid outside quadrature": "mesh = np.meshgrid(*axes, indexing=\"ij\")",
    "block cut outside quadrature": "block = grid.rows(i0, i1)",
    "grid-wide tuple of block geometry": "    blocks: tuple[GridBlock, ...]",
    "deleted order-3 Christoffel tensor": 'dbracket = np.einsum("eabln->elabn", ddg) - ddg',
    "deleted expanded-window evaluator": (
        "make = _polynomial_bump_evaluator if support.shape[0] == 2 else _factored_window_evaluator"
    ),
}


def violations(text: str, module: str = "") -> list[tuple[int, str]]:
    """``(line number, why)`` once per line a pattern starts to match on, by line, then pattern;
    ``module`` is the file's name, which exempts ``quadrature.py`` from ``OUTSIDE_QUADRATURE``."""
    rules = FORBIDDEN if module == "quadrature.py" else {**FORBIDDEN, **OUTSIDE_QUADRATURE}
    return sorted(
        {
            (text.count("\n", 0, match.start()) + 1, why)
            for why, pattern in rules.items()
            for match in re.finditer(pattern, text)
        }
    )


def test_guard_flags_each_pattern_and_nothing_else():
    for why, line in CAUGHT.items():
        assert violations(line) == [(1, why)], why
    assert violations("eigmin = np.linalg.eigvalsh(g)\nout[0::2] = v[1::2]") == []
    assert violations("pg = point_geometry(chart, T, block.nodes, order=2)\njets = eval_jets(chart, pts)") == []
    assert violations("from .jets import Jet\nJ.evaluate(f, x, 3)\nfor block in grid.blocks():") == []
    deleted = (
        "for rows in J.node_blocks(n):",
        "n = jets.NODE_BLOCK",
        "from .jets import (\n  Jet,\n  node_blocks)",
        "from .geometry import point_blocks",
        "size = VARIATION_BLOCK // per_row",
    )
    for line in deleted:
        for module in ("geometry.py", "quadrature.py"):
            assert [why for _, why in violations(line, module)] == ["deleted point walk or block rule"], line
    cuts = (
        "for i0 in range(0, nx, step):",
        "step = BLOCK_NODES // per_row",
        "from .quadrature import BLOCK_NODES, total",
        "for part in np.array_split(pts, 4):",
        "pg = point_geometry(chart, T, pts[rows], order=2)",
        "x = pts[rows, 0]",
        "part = block.grid.rows(0, 2)",
    )
    for line in cuts:
        assert violations(line, "wirtinger.py") == [(1, "block cut outside quadrature")], line
        assert violations(line, "quadrature.py") == [], line
    mesh = "mesh = np.meshgrid(*self.axis_nodes, indexing=\"ij\")"
    assert violations(mesh, "charts.py") == [(1, "meshgrid outside quadrature")]
    assert violations(mesh, "quadrature.py") == []
    walk_rows = "for i in range(n):\nrows = slice(0, 3)\nx = block.axis_nodes[0][:, None]\nfor rows in grid.blocks():"
    assert violations(walk_rows, "stability.py") == []
    kept = (
        "def grid_geometry(\n    chart, T, grid, soliton_tol: float = DEFAULT_SOLITON_TOL\n) -> GridGeometry:\n"
        "    require_soliton(gg)\n    raw = raw * window_jet(seed, lo, hi)\n"
        "def second_variation_operator(gg: GridGeometry, data: VariationData) -> float:\n"
        "    return _jet_arithmetic(support, polynomial)\n    soliton_tol: float"
    )
    assert violations(kept) == []
    held = ("for block in gg.blocks:", "blocks: tuple[GridGeometry, ...] = ()")
    for line in held:
        assert violations(line) == [(1, "grid-wide tuple of block geometry")], line
    order3 = ("pg.Gamma_partial = 0.5 * dbracket", "Gamma_partial: np.ndarray | None", "del d3, ddg")
    for line in order3:
        assert violations(line) == [(1, "deleted order-3 Christoffel tensor")], line
    trace = 'bracket = dg - dg.swapaxes(1, 2)\npg.P = 0.5 * np.einsum("alkn,akcn->lcn", pg.dg_inv, x)'
    assert violations(trace) == []
    window = "bump2d = np.outer(_BUMP_COEFFS, _BUMP_COEFFS)"
    assert violations(window) == [(1, "deleted expanded-window evaluator")]
    closed = "b = _bump_derivatives(s, scale)\nw = _factored_window(x, *support[a], ncoef, order, closed_bump)"
    assert violations(closed) == []
    walk = "for block in blocks:\n    each = partial(evaluate_variation, block)\nblocks = grid_blocks(chart, T, grid)"
    assert violations(walk) == []


def test_every_module_is_scanned():
    assert {"charts.py", "geometry.py", "stability.py", "variations.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_keeps_settled_decisions(path):
    assert violations(path.read_text(encoding="utf-8"), path.name) == []
