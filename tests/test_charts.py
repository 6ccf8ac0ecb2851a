"""Builtin charts, the expression grammar, and the jet oracle monitor."""

import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import soliton_stability as ss
from oracles import (
    REFERENCE_CHARTS,
    fd_discrepancy,
    finite_difference_jet,
    stacked_component_jets,
    standard_J,
    tensor_grid,
)
from soliton_stability.charts import BUILTIN_CHARTS
from soliton_stability.errors import DomainError, EvaluationError, ExpressionError
from soliton_stability.expressions import compile_expression
import soliton_stability.jets as J


def test_grim_reaper_tangent_values(grim_reaper):
    j = ss.eval_jets(grim_reaper, tensor_grid([0.0, math.pi / 3], 0.0))
    assert np.allclose(j.val[:, 0], [0, 0, 0, 0], atol=1e-15)
    assert np.allclose(j.d1[:, 0, 0], [0, 1, 0, 0], atol=1e-15)
    assert np.allclose(j.d2[:, 0, 0, 0], [1, 0, 0, 0], atol=1e-15)
    # tangent at pi/3 is (tan(pi/3), 1, 0, 0)
    assert np.allclose(j.d1[:, 0, 1], [math.sqrt(3), 1, 0, 0], atol=1e-14)
    assert np.allclose(j.d1[:, 1, 1], [0, 0, 1, 0], atol=1e-15)


def test_affine_chart_higher_jets_vanish(flat_plane):
    j = ss.eval_jets(flat_plane, tensor_grid([0.7, 2.0], [-1.3, 2.5]))
    assert np.all(j.d2 == 0.0)
    assert np.all(j.d3 == 0.0)


def test_domain_errors(grim_reaper):
    with pytest.raises(DomainError):
        ss.eval_jets(grim_reaper, tensor_grid(math.pi / 2, 0.0))
    with pytest.raises(DomainError):
        ss.eval_jets(grim_reaper, tensor_grid(0.0, 10.0))
    # boundary itself is excluded (open domain)
    with pytest.raises(DomainError):
        ss.eval_jets(grim_reaper, tensor_grid(grim_reaper.domain[0, 1], 0.0))


def test_domain_refusal_names_the_first_node_in_c_order(grim_reaper):
    """Both axes hold a node outside the domain; the first node outside, in C order, is on
    the first x-row."""
    grid = tensor_grid([0.0, 0.5, 2.0], [0.0, 1.0, 10.0])
    message = "point [0.0, 10.0] outside open domain of chart 'grim_reaper'"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        ss.eval_jets(grim_reaper, grid)


@pytest.mark.parametrize(
    "first, second",
    [
        ("log(x)", "y"),
        ("log(0.5 - x)", "y"),
        ("log(0.5 - y)", "y"),
        ("log(0.5 - x*y)", "y"),
        ("log(0.5 - x)", "log(0.5 - y)"),
    ],
)
def test_non_finite_refusal_names_the_first_node_in_c_order(first, second):
    """Whether the failing components run on the x-nodes, the y-nodes or the whole grid, the
    refusal names the first node, in C order, where the jets of every component at every
    node are not finite: with two failing components, a node of the first x-row that the
    second fails on, not the first component's first failing node."""
    spec = {"domain": [[-1.0, 1.0], [-1.0, 1.0]], "components": [first, second, "x", "0"]}
    chart = ss.chart_from_config(spec)
    grid = ss.uniform_grid(chart, 9)
    first = stacked_component_jets(chart, grid.nodes, 2).first_non_finite()
    message = f"chart 'expression_chart' produced non-finite jet data at point {grid.nodes[first].tolist()}"
    with pytest.raises(EvaluationError, match=f"^{re.escape(message)}$"):
        ss.eval_jets(chart, grid, 2)


def test_non_finite_evaluation_is_reported():
    chart = ss.chart_from_config(
        {"name": "bad_log", "domain": [[-1.0, 1.0], [-1.0, 1.0]], "components": ["log(x)", "y", "0", "0"]}
    )
    with pytest.raises(EvaluationError):
        ss.eval_jets(chart, tensor_grid(-0.5, 0.0), order=1)


def test_ambient_structure_invariants():
    """J^2 = -1 and J^T J = 1 as matrices, omega(u, v) = <J u, v> skew, <u, v> = omega(u, J v)."""
    Jm = ss.apply_J(np.eye(4))  # column k is J e_k
    assert np.array_equal(Jm @ Jm, -np.eye(4))
    assert np.array_equal(Jm.T @ Jm, np.eye(4))
    rng = np.random.default_rng(0)
    u, v = rng.normal(size=4), rng.normal(size=4)

    def omega(a, b):
        return ss.apply_J(a) @ b

    assert np.isclose(omega(u, v), -omega(v, u))
    assert np.isclose(u @ v, omega(u, ss.apply_J(v)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_apply_J_matches_the_dense_matrix(n):
    m, rng = 2 * n, np.random.default_rng(n)
    for shape in [(m,), (m, 7), (m, 3, 5), (m, 0)]:
        v = rng.normal(size=shape)
        dense = np.einsum("pq,q...->p...", standard_J(n), v)
        assert np.array_equal(ss.apply_J(v), dense), shape


def test_finite_difference_affine_chart_is_exact(flat_plane):
    fd = finite_difference_jet(flat_plane, [0.3, 0.4], h=1e-3)
    exact = ss.eval_jets(flat_plane, tensor_grid(0.3, 0.4))
    assert np.allclose(fd.d1, exact.d1, atol=1e-12)
    assert np.max(np.abs(fd.d2)) < 1e-9
    assert np.max(np.abs(fd.d3)) < 1e-6


def test_fd_discrepancy_monitor(grim_reaper):
    # benign point: no flag; near the weight singularity the monitor must fire
    disc_ok, flagged_ok = fd_discrepancy(grim_reaper, [0.0, 0.0], h=1e-4)
    disc_bad, flagged_bad = fd_discrepancy(grim_reaper, [1.4, 0.0], h=0.01)
    assert not flagged_ok and disc_ok < 1e-8
    assert flagged_bad and disc_bad > disc_ok


def test_fd_requires_margin(grim_reaper):
    with pytest.raises(DomainError):
        finite_difference_jet(grim_reaper, [grim_reaper.domain[0, 1] - 1e-4, 0.0], h=1e-3)


def test_expression_grammar_accepts_vocabulary():
    fn = compile_expression("sin(x)*cos(y) + exp(-x**2)/ (1 + y*y) - tan(x/4)", ["x", "y"])
    pts = np.array([[0.3, 0.5]])
    x, y = J.variables(pts, order=1)
    out = fn(x, y)
    expected = math.sin(0.3) * math.cos(0.5) + math.exp(-0.09) / 1.25 - math.tan(0.075)
    assert np.isclose(out.val[0], expected)


def test_expression_grammar_aliases_and_constants():
    fn = compile_expression("pi * u1 + e * u2", ["x", "y"])
    assert np.isclose(fn(1.0, 2.0), math.pi + 2 * math.e)


@pytest.mark.parametrize(
    "expr",
    [
        "__import__('os')",
        "x.real",
        "x if y else 0",
        "unknown(x)",
        "z + 1",
        "x @ y",
        "lambda: 1",
        "[1,2]",
        "True*x",
        "x**y",
        "2**x",
        "1/0 + x",
        "log(-1)*x",
        "(-1)**0.5*y",
        "1e999*x",
    ],
)
def test_expression_grammar_rejects(expr):
    with pytest.raises(ExpressionError):
        compile_expression(expr, ["x", "y"])


GRAMMAR_TOKENS = [
    "x", "y", "u1", "u2", "pi", "e", "0", "1", "2.5", "1e308", "+", "-", "*", "/", "**",
    "(", ")", "sin(", "cos(", "tan(", "exp(", "log(", "sqrt(", " ",
]
FOREIGN_TOKENS = ["z", "True", "None", "@", ".", ",", "[", "]", "%", "==", "if", "lambda", "1j", "'"]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(GRAMMAR_TOKENS + FOREIGN_TOKENS), max_size=24).map("".join))
@example("x" + "+x" * 1000)
def test_expression_parser_fuzz(expr):
    """Any token string either fails with ExpressionError or evaluates on jets."""
    try:
        fn = compile_expression(expr, ["x", "y"])
    except ExpressionError:
        return
    x, y = J.variables(np.array([[0.3, 0.5], [-0.7, 1.2]]), order=2)
    with np.errstate(all="ignore"):
        try:
            out = fn(x, y)
        except ExpressionError:
            return
    assert isinstance(out, (J.Jet, float))


def test_deep_expression_fails_cleanly_when_called_from_a_deeper_stack():
    fn = compile_expression("x" + "+x" * (sys.getrecursionlimit() - 150), ["x", "y"])
    assert fn(1.0, 0.0) == sys.getrecursionlimit() - 149

    def nested(k):
        return nested(k - 1) if k else fn(1.0, 0.0)

    with pytest.raises(ExpressionError):
        nested(300)


def test_chart_from_config_expression_tree(T):
    chart = ss.chart_from_config(
        {
            "name": "tilted_plane",
            "domain": [[-1, 1], [-1, 1]],
            "components": ["x", "0", "y", "0"],
        }
    )
    point = tensor_grid(0.2, -0.3)
    assert np.allclose(ss.eval_jets(chart, point, order=1).val[:, 0], [0.2, 0.0, -0.3, 0.0])
    # auto-detected as Lagrangian when the geometry is first computed
    pg = ss.point_geometry(chart, T, point)
    assert pg.lagrangian


def test_chart_from_config_errors():
    with pytest.raises(ExpressionError):
        ss.chart_from_config({"domain": [[0, 1]], "components": ["x"]})  # odd ambient dim
    with pytest.raises(ExpressionError):
        ss.chart_from_config({"components": ["x", "y"]})  # missing domain
    with pytest.raises(ExpressionError):
        ss.chart_from_config({"domain": [[1, 0]], "components": ["x", "x"]})  # lo >= hi
    with pytest.raises(ExpressionError):
        ss.chart_from_config({"domain": "ab", "components": ["x", "x"]})  # text domain
    with pytest.raises(ExpressionError):
        ss.chart_from_config({"domain": [[0, 1], [0, 1]], "components": "xy"})  # text components
    with pytest.raises(ExpressionError):
        ss.chart_from_config({"domain": [[0, 1]], "components": ["x", "x"], "extra": 1})
    with pytest.raises(ExpressionError):
        ss.chart_from_config("no_such_chart")


@pytest.mark.parametrize("name", sorted(BUILTIN_CHARTS))
def test_builtin_chart_is_its_hand_written_closure(name):
    """Each builtin spec compiles to the chart its reference closure writes out: the same
    name, domain and order-3 jets, bit for bit."""
    chart, reference = ss.chart_from_config(name), REFERENCE_CHARTS[name]
    assert (chart.name, chart.ambient_dim) == (reference.name, reference.ambient_dim)
    assert chart.domain.tobytes() == reference.domain.tobytes()
    grid = ss.uniform_grid(chart, 7)
    got, want = ss.eval_jets(chart, grid, 3).levels, ss.eval_jets(reference, grid, 3).levels
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


def test_readme_lists_the_builtin_charts():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (listed,) = re.findall(r"`chart` is a builtin name \(([^)]*)\)", readme)
    assert re.findall(r"`(\w+)`", listed) == sorted(BUILTIN_CHARTS)


def test_uniform_grid_is_interior(grim_reaper):
    grid = ss.uniform_grid(grim_reaper, 9)
    assert grid.shape == (9, 9) and grid.nodes.shape == (81, 2)
    assert np.all(grim_reaper.contains(grid.nodes))
