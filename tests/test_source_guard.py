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
}

# one line per pattern that the guard must flag
CAUGHT = {
    "LAPACK inverse": "g_inv = np.linalg.inv(np.moveaxis(g, -1, 0))",
    "LAPACK Cholesky": "from numpy.linalg import cholesky, eigvalsh",
    "dense complex-structure einsum": 'nu = np.einsum("pq,qin->pin", J, e)',
    "deleted structure object": "def soliton_residual(chart, structure: AmbientStructure, grid):",
    "test-only curvature tensor": "_, _, ricci = curvature_tensor(gg.pg)",
    "test-only Ricci identity": "resid = ricci_identity_residual(theta, cov, pg, ricci)",
    "test-only gradient of the divergence": "return CovariantData(nabla=nabla, div=div, laplacian=lap, div_grad=grad)",
    "deleted fd level-gap option": "if instability_tol is not None and abs(value - d2) > instability_tol:",
    "jets given to point_geometry": "pg = point_geometry(chart, T, pts[rows], jets=eval_jets(chart, pts[rows], order=2))",
}


def violations(text: str) -> list[tuple[int, str]]:
    return [
        (number, why)
        for number, line in enumerate(text.splitlines(), 1)
        for why, pattern in FORBIDDEN.items()
        if re.search(pattern, line)
    ]


def test_guard_flags_each_pattern_and_nothing_else():
    for why, line in CAUGHT.items():
        assert violations(line) == [(1, why)], why
    assert violations("eigmin = np.linalg.eigvalsh(g)\nout[0::2] = v[1::2]") == []
    assert violations("pg = point_geometry(chart, T, pts[rows], order=2)\njets = eval_jets(chart, pts)") == []


def test_every_module_is_scanned():
    assert {"charts.py", "geometry.py", "stability.py", "variations.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_keeps_settled_decisions(path):
    assert violations(path.read_text(encoding="utf-8")) == []
