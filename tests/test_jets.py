"""Exactness and structure of the truncated Taylor arithmetic."""

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import soliton_stability as ss
import soliton_stability.jets as J
from oracles import finite_difference_jet, partial, symmetry_defect
from soliton_stability.errors import EvaluationError, ExpressionError


def _scalar_case(pts):
    """f(x, y) = exp(x) * sin(y) + x^2 / (1 + y^2) with hand derivatives."""
    x, y = pts[:, 0], pts[:, 1]
    ex, sy, cy = np.exp(x), np.sin(y), np.cos(y)
    q = 1.0 + y**2
    val = ex * sy + x**2 / q
    fx = ex * sy + 2 * x / q
    fy = ex * cy - x**2 * 2 * y / q**2
    fxx = ex * sy + 2 / q
    fxy = ex * cy - 4 * x * y / q**2
    fyy = -ex * sy + x**2 * (6 * y**2 - 2) / q**3
    return val, fx, fy, fxx, fxy, fyy


def _build(seeds):
    x, y = seeds
    return J.exp(x) * J.sin(y) + x * x / (1.0 + y * y)


def test_matches_hand_derivatives():
    pts = np.array([[0.3, -0.7], [1.1, 0.2], [-0.5, 1.4]])
    f = _build(J.variables(pts, order=2))
    val, fx, fy, fxx, fxy, fyy = _scalar_case(pts)
    assert np.allclose(f.val, val, atol=1e-14)
    assert np.allclose(f.d1[:, 0], fx, atol=1e-13)
    assert np.allclose(f.d1[:, 1], fy, atol=1e-13)
    assert np.allclose(f.d2[:, 0, 0], fxx, atol=1e-12)
    assert np.allclose(f.d2[:, 0, 1], fxy, atol=1e-12)
    assert np.allclose(f.d2[:, 1, 1], fyy, atol=1e-12)


def test_division_and_powers():
    pts = np.array([[0.4, 0.9]])
    x, y = J.variables(pts, order=3)
    left = (x / y).val
    assert np.allclose(left, 0.4 / 0.9)
    # (x/y) == x * y**-1 through all jet levels
    a = x / y
    b = x * y**-1.0
    for arr_a, arr_b in ((a.val, b.val), (a.d1, b.d1), (a.d2, b.d2), (a.d3, b.d3)):
        assert np.allclose(arr_a, arr_b, atol=1e-13)


def test_integer_power_at_zero_base():
    # (1 - s^2)^4 at s = +-1 must be exactly zero with zero first derivatives
    pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
    s, _ = J.variables(pts, order=3)
    b = (1.0 - s * s) ** 4
    assert np.all(b.val == 0.0)
    assert np.all(b.d1 == 0.0)
    assert np.all(b.d2 == 0.0)
    assert np.all(np.isfinite(b.d3))


def test_tan_against_sin_cos():
    pts = np.array([[0.7, 0.1], [-1.2, 2.0]])
    x, _ = J.variables(pts, order=3)
    a = J.tan(x)
    b = J.sin(x) / J.cos(x)
    for arr_a, arr_b in ((a.val, b.val), (a.d1, b.d1), (a.d2, b.d2), (a.d3, b.d3)):
        assert np.allclose(arr_a, arr_b, atol=1e-12)


def test_mixed_partial_symmetry_is_structural():
    pts = np.array([[0.3, 0.8]])
    x, y = J.variables(pts, order=3)
    f = J.exp(x * y) * J.sin(x - 2.0 * y) / (2.0 + J.cos(x))
    assert symmetry_defect(f) == 0.0


def test_partial_extraction():
    pts = np.array([[0.25, -0.4]])
    x, y = J.variables(pts, order=3)
    f = J.sin(x * y)
    fx = partial(f, 0)
    assert fx.order == 2
    assert np.allclose(fx.val, f.d1[:, 0])
    assert np.allclose(fx.d1, f.d2[:, 0, :])
    assert np.allclose(fx.d2, f.d3[:, 0, :, :])


@pytest.mark.parametrize("u", [(0.2, 0.5), (-0.8, -1.7), (1.1, 2.1)])
def test_taylor_remainder_order(u):
    """|Phi(u + h v) - cubic Taylor| must shrink like h^4 (observed order >= 3.7).

    The direction needs a solid component along the curved coordinate so the
    remainder sits well above the round-off floor at both steps.
    """
    chart = ss.grim_reaper_cylinder()
    v = np.array([0.8, 0.6])
    j = ss.eval_jets(chart, np.array([u]))

    def taylor_error(h):
        target = ss.eval_jets(chart, np.array([np.array(u) + h * v])).val[0]
        model = (
            j.val[0]
            + h * j.d1[0] @ v
            + 0.5 * h**2 * np.einsum("mab,a,b->m", j.d2[0], v, v)
            + h**3 / 6.0 * np.einsum("mabc,a,b,c->m", j.d3[0], v, v, v)
        )
        return np.max(np.abs(target - model))

    h = 0.05
    e1, e2 = taylor_error(h), taylor_error(h / 2)
    assert e2 > 1e-13  # above the float floor, so the order estimate is meaningful
    order = np.log2(e1 / e2)
    assert order >= 3.7


def test_finite_difference_oracle_agrees():
    chart = ss.grim_reaper_cylinder()
    exact = ss.eval_jets(chart, np.array([[0.0, 0.0]]))
    fd = finite_difference_jet(chart, [0.0, 0.0], h=1e-4)
    assert np.max(np.abs(fd.d1 - exact.d1)) < 1e-7
    assert np.max(np.abs(fd.d2 - exact.d2)) < 1e-7


def _expressions(names):
    """Random expressions over ``names`` from + - * /, sin cos exp log sqrt and integer powers.

    Divisors and the arguments of log and sqrt are kept at least 1, so every
    expression is smooth on the whole domain.
    """
    leaves = st.sampled_from(list(names) + ["1", "2", "0.5"])

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(inner, inner).map(lambda t: f"({t[0]}) / (2 + ({t[1]})**2)"),
            st.tuples(st.sampled_from(["sin", "cos", "exp"]), inner).map(lambda t: f"{t[0]}({t[1]})"),
            st.tuples(st.sampled_from(["log", "sqrt"]), inner).map(lambda t: f"{t[0]}(1 + ({t[1]})**2)"),
            st.tuples(inner, st.integers(2, 4)).map(lambda t: f"({t[0]})**{t[1]}"),
        )

    return st.recursive(leaves, extend, max_leaves=6)


@st.composite
def _expression_charts(draw):
    d = draw(st.sampled_from([2, 3]))
    names = ["x", "y", "z"][:d]
    components = [draw(_expressions(names)) for _ in range(2)]
    point = draw(st.lists(st.floats(-0.5, 0.5), min_size=d, max_size=d))
    return {"domain": [[-1.0, 1.0]] * d, "components": components}, np.array(point)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_expression_charts())
def test_jet_arithmetic_matches_finite_differences(case):
    """Order-3 jets of random expression charts against finite differences.

    d1 and d2 are checked against ``finite_difference_jet`` at h = 1e-4 and
    d3 against central differences of the exact d2 at h = 1e-5, relative to
    the size of the jet.  d1 and d3 use the 1e-7 of
    test_finite_difference_oracle_agrees.  d2 gets 1e-6:
    its second difference carries a round-off floor of about 4 eps |f| / h^2,
    i.e. 1e-7 |f|, and a truncation term h^2 f'''' / 12 that the jet's size
    does not bound.
    """
    spec, u = case
    try:
        chart = ss.chart_from_config(spec)
        exact = ss.eval_jets(chart, u[None, :], order=3)
    except (ExpressionError, EvaluationError):
        reject()  # a constant or a value that overflows
    scale = 1.0 + max(float(np.max(np.abs(a))) for a in (exact.val, exact.d1, exact.d2, exact.d3))
    assume(scale <= 1e3)
    fd = finite_difference_jet(chart, u, h=1e-4)
    assert np.max(np.abs(fd.d1 - exact.d1)) <= 1e-7 * scale
    assert np.max(np.abs(fd.d2 - exact.d2)) <= 1e-6 * scale
    h = 1e-5
    for k in range(chart.dim):
        step = np.zeros(chart.dim)
        step[k] = h
        up = ss.eval_jets(chart, (u + step)[None, :], order=2)
        down = ss.eval_jets(chart, (u - step)[None, :], order=2)
        assert np.max(np.abs((up.d2 - down.d2) / (2 * h) - exact.d3[..., k])) <= 1e-7 * scale
