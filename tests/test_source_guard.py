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
* Points are cut into blocks in ``geometry`` alone, by ``node_blocks`` through
  ``point_blocks``: ``jets.evaluate`` evaluates what it is given, and no other
  module imports or reads the block rule from ``jets``.
* The routes run over the grid's row blocks and nowhere else: no whole-grid
  point geometry on ``GridGeometry``, no ``take`` of node rows, no
  ``_by_block`` writes into full-length arrays, and fields evaluate on grids
  only, with no scattered-point branch.
* Geometry blocks are outer and variations inner: the suite walks
  ``grid_blocks`` and holds one block's geometry at a time, so no tuple of
  every block's geometry (``gg.blocks``, ``blocks: tuple[GridBlock, ...]``)
  comes back.

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
    "node-block rule outside geometry": (
        r"from \.jets import (\([^)]*|[^\n]*)\bnode_blocks\b|\b(J|jets)\.(node_blocks|NODE_BLOCK)\b"
    ),
    "grid-wide tuple of block geometry": r"\bgg\.blocks\b|\btuple\[Grid(Block|Geometry)\b",
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
    "jets given to point_geometry": "pg = point_geometry(chart, T, pts[rows], jets=eval_jets(chart, pts[rows], order=2))",
    "deleted covariant wrapper": "return VariationData(fj.val, fj.d1, CovariantData(*cov), nabla_sq, v, defect)",
    "tolerance passed to require_soliton": "require_soliton(gg, soliton_tol)",
    "route with its own soliton tolerance": (
        "def second_variation_square(\n    gg: GridGeometry,\n    data: VariationData,\n"
        "    soliton_tol: float = DEFAULT_SOLITON_TOL,\n) -> float:"
    ),
    "second node-block rule": "blocks = tuple(grid.rows(r.start, r.stop) for r in _variation_blocks(n))",
    "per-axis window option": "def scalar_field_from_expression(expr: str, support, window=None) -> ScalarField:",
    "whole-grid path beside the row blocks": "q = data.div + np.einsum(\"an,an->n\", data.theta, gg.pg.T_coord)",
    "scattered-point field branch": "x, y = where.axis_nodes if isinstance(where, QuadratureGrid) else where.T",
    "node-block rule outside geometry": "from .jets import Jet, node_blocks, stack",
    "grid-wide tuple of block geometry": "    blocks: tuple[GridBlock, ...]",
}


def violations(text: str) -> list[tuple[int, str]]:
    """``(line number, why)`` once per line a pattern starts to match on, by line, then pattern."""
    return sorted(
        {
            (text.count("\n", 0, match.start()) + 1, why)
            for why, pattern in FORBIDDEN.items()
            for match in re.finditer(pattern, text)
        }
    )


def test_guard_flags_each_pattern_and_nothing_else():
    for why, line in CAUGHT.items():
        assert violations(line) == [(1, why)], why
    assert violations("eigmin = np.linalg.eigvalsh(g)\nout[0::2] = v[1::2]") == []
    assert violations("pg = point_geometry(chart, T, pts[rows], order=2)\njets = eval_jets(chart, pts)") == []
    in_geometry = "from .geometry import NODE_BLOCK, node_blocks\nfrom .jets import Jet\nJ.evaluate(f, x, 3)"
    assert violations(in_geometry) == []
    from_jets = ("for rows in J.node_blocks(n):", "n = jets.NODE_BLOCK", "from .jets import (\n  Jet,\n  node_blocks)")
    for line in from_jets:
        assert violations(line) == [(1, "node-block rule outside geometry")], line
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
    walk = "for block in blocks:\n    each = partial(evaluate_variation, block)\nblocks = grid_blocks(chart, T, grid)"
    assert violations(walk) == []


def test_every_module_is_scanned():
    assert {"charts.py", "geometry.py", "stability.py", "variations.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_keeps_settled_decisions(path):
    assert violations(path.read_text(encoding="utf-8")) == []
