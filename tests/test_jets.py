"""Exactness and structure of the truncated Taylor arithmetic."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

import soliton_stability as ss
import soliton_stability.jets as J
from oracles import (
    finite_difference_jet,
    partial,
    reference_compose,
    reference_product,
    symmetry_defect,
    tensor_grid,
)
from soliton_stability.charts import BUILTIN_CHARTS
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
    assert np.allclose(f.d1[0], fx, atol=1e-13)
    assert np.allclose(f.d1[1], fy, atol=1e-13)
    assert np.allclose(f.d2[0, 0], fxx, atol=1e-12)
    assert np.allclose(f.d2[0, 1], fxy, atol=1e-12)
    assert np.allclose(f.d2[1, 1], fyy, atol=1e-12)


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


def _every_jet_function(seeds):
    """One field per jet function, plus products, quotients and powers, in any d."""
    d = len(seeds)
    x, y, z, w = seeds[0], seeds[1 % d], seeds[2 % d], seeds[-1]
    return [
        J.exp(x * y) * J.sin(x - 2.0 * z) / (2.0 + J.cos(y * z)),
        J.tan(0.5 * x * w - y),
        J.log(2.0 + y * z),
        J.sqrt(1.5 + x * w),
        (1.0 + x * y * z) ** 3,
        (2.0 + x - w) ** 2.5,
        1 / (3.0 + y - z * w),
    ]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("batch", ["N", "N-p", "empty", "empty-p"])
def test_mixed_partial_symmetry_is_structural(d, batch):
    """Every d2/d3 comes out bit-symmetric: each distinct partial is formed once and copied."""
    n = 0 if batch.startswith("empty") else 200
    pts = np.random.default_rng(d).uniform(-0.5, 0.5, (n, d))
    fields = _every_jet_function(J.variables(pts, order=3))
    if batch.endswith("-p"):
        f = J.stack(fields)  # batch shape (7, n)
        fields = [f, J.sin(f) * f**2, J.exp(f) / (2.0 + f * f), (2.0 + f * f) ** -1.5 + J.sqrt(2 + J.cos(f))]
    for f in fields:
        assert symmetry_defect(f) == 0.0


def test_symmetry_defect_sees_every_transposition():
    """A Levi-Civita d3 is invariant under 3-cycles but not under a swap."""
    eps = np.zeros((3, 3, 3, 1))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k, 0], eps[j, i, k, 0] = 1.0, -1.0
    jet = J.Jet(3, np.zeros(1), np.zeros((3, 1)), np.zeros((3, 3, 1)), eps)
    assert symmetry_defect(jet) == 2.0


def _random_entries(rng, shape):
    """Normal samples with about a fifth of them +0.0 or -0.0, so signed-zero products occur."""
    return rng.normal(size=shape) * rng.choice([1.0, 0.0, -0.0], size=shape, p=[0.8, 0.1, 0.1])


def _derivative_shape(shape, d, rank):
    """``shape`` with ``rank`` derivative axes of length d before its node axis."""
    return shape[:-1] + (d,) * rank + shape[-1:]


def _random_symmetric(rng, shape, d, rank):
    """A random node-last block whose entries are bit-equal under index permutation."""
    slots = np.sort(np.indices((d,) * rank).reshape(rank, -1), axis=0)
    flat = _random_entries(rng, _derivative_shape(shape, d**rank, 1))
    flat = flat[..., np.ravel_multi_index(tuple(slots), (d,) * rank), :]
    return flat.reshape(_derivative_shape(shape, d, rank))


def _random_jet(rng, shape, d, order):
    return J.Jet(
        order,
        _random_entries(rng, shape),
        _random_entries(rng, _derivative_shape(shape, d, 1)),
        _random_symmetric(rng, shape, d, 2) if order >= 2 else None,
        _random_symmetric(rng, shape, d, 3) if order >= 3 else None,
    )


def _assert_kernel_matches(kernel, reference):
    """Bit-equal on sorted-index slots (signed zeros included), 1e-13 relative elsewhere."""
    assert kernel.order == reference.order
    for a, b in ((kernel.val, reference.val), (kernel.d1, reference.d1)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    d = kernel.nvars
    for rank, a, b in ((2, kernel.d2, reference.d2), (3, kernel.d3, reference.d3)):
        if kernel.order < rank:
            assert a is None and b is None
            continue
        assert a.shape == b.shape
        idx = tuple(np.array(c) for c in zip(*itertools.combinations_with_replacement(range(d), rank)))
        sorted_slots = (...,) + idx + (slice(None),)
        assert a[sorted_slots].tobytes() == b[sorted_slots].tobytes()
        assert np.all(np.abs(a - b) <= 1e-13 * np.max(np.abs(b), initial=0.0))


BATCHES = {"N": (64,), "N-p": (5, 64), "empty": (0,), "empty-p": (5, 0)}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("orders", [(3, 3), (3, 2), (3, 1), (2, 2)])
@pytest.mark.parametrize("batch", list(BATCHES))
def test_product_kernel_matches_broadcast_reference(d, orders, batch):
    rng = np.random.default_rng([d, *orders, list(BATCHES).index(batch)])
    u, v = (_random_jet(rng, BATCHES[batch], d, k) for k in orders)
    _assert_kernel_matches(u * v, reference_product(u, v))
    _assert_kernel_matches(v * u, reference_product(v, u))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("batch", list(BATCHES))
def test_chain_rule_kernel_matches_broadcast_reference(d, order, batch):
    rng = np.random.default_rng([d, order, list(BATCHES).index(batch)])
    u = _random_jet(rng, BATCHES[batch], d, order)
    f = [rng.normal(size=BATCHES[batch]) for _ in range(4)]
    _assert_kernel_matches(J._compose(u, *f), reference_compose(u, *f))


LEVEL_NAMES = ("val", "d1", "d2", "d3")


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("orders", list(itertools.product([1, 2, 3], repeat=2)))
@pytest.mark.parametrize("batch", ["N", "N-p", "N-p with N"])
def test_every_result_carries_its_levels_alone(d, orders, batch):
    """Each operation's result has ``order + 1`` levels, all arrays, and every level field
    above its order is None: jet and constant operands, mixed orders and batch shapes."""
    rng = np.random.default_rng([d, *orders, len(batch)])
    shapes = {"N": ((16,), (16,)), "N-p": ((5, 16), (5, 16)), "N-p with N": ((5, 16), (16,))}[batch]
    u, v = (_random_jet(rng, shape, d, k) for shape, k in zip(shapes, orders))
    pts = rng.uniform(0.1, 0.9, (16, d))
    with np.errstate(all="ignore"):
        results = [u + v, v + u, u - v, v - u, u * v, v * u, u / v, v / u, -u]
        results += [u + 1.5, 1.5 + u, u - 2.0, 2.0 - u, u * 3.0, 3.0 * u, u / 2.0, 2.0 / u]
        results += [u**0, u**1, u**2, u**3, u**-1.5, u**0.5]
        results += [f(u) for f in (J.sin, J.cos, J.tan, J.exp, J.log, J.sqrt)]
        results += [u.truncated(k) for k in (1, 2, 3)] + [J.stack([u, u.truncated(v.order)]), J.stack([v])]
        results += [J.constant(u.val, d, k) for k in orders]
        results += [J.constant(1.0, d, k, batch_shape=shapes[1]) for k in orders]
        results += [J.evaluate(lambda s: J.sin(s[0]) * s[-1], pts, k) for k in orders]
        results += [J.evaluate(lambda s: [s[0] / (1.0 + s[-1]), 2.0], pts, k) for k in orders]
    for n, r in enumerate(results):
        assert len(r.levels) == r.order + 1 and all(isinstance(a, np.ndarray) for a in r.levels), n
        assert all(getattr(r, name) is None for name in LEVEL_NAMES[r.order + 1 :]), n
        assert all(a is getattr(r, name) for a, name in zip(r.levels, LEVEL_NAMES)), n
    assert [r.order for r in results[:9]] == [min(orders)] * 8 + [orders[0]]


def test_seeds_hold_only_their_values():
    """A seed's derivatives are read-only views broadcast along the nodes, so the seeds of
    10,000 points in three variables hold their 3 floats per node and no per-node zeros
    (order-3 seeds that held theirs took 40 floats per node each)."""
    n, d = 10_000, 3
    pts = np.random.default_rng(4).uniform(-1.0, 1.0, (n, d))
    tracemalloc.start()
    try:
        seeds = J.variables(pts, order=3)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= d * n * 8 + 4096, held / (8 * n)
    for i, seed in enumerate(seeds):
        assert [a.shape for a in seed.levels] == [(n,), (d, n), (d, d, n), (d, d, d, n)]
        assert seed.val.flags.owndata and np.array_equal(seed.val, pts[:, i])
        assert not any(a.flags.writeable for a in seed.levels[1:])
        assert np.array_equal(seed.d1, np.eye(d)[i][:, None] * np.ones(n))
        assert not np.any(seed.d2) and not np.any(seed.d3)


# fn paths of jets.evaluate: a returned jet (a bare seed, one that shares a seed's derivatives,
# a fresh one) or components (jets, bare seeds and plain numbers, in a list or a tuple)
EVALUATE_PATHS = {
    "bare seed": lambda s: s[0],
    "seed plus a constant": lambda s: s[1] + 1.5,
    "jet": lambda s: J.sin(s[0]) * s[1],
    "list": lambda s: [s[0], 0.0, s[1] * s[0], s[1]],
    "tuple": lambda s: (s[1], -2),
}


@pytest.mark.parametrize("path", list(EVALUATE_PATHS))
@pytest.mark.parametrize("order", [1, 2, 3])
def test_evaluate_returns_levels_of_its_own(path, order):
    """Every level ``evaluate`` returns is writeable and C-contiguous and shares memory with
    no other level, the points or another evaluation, so a field's mask can zero it in
    place: on every path, a bare seed's included."""
    fn = EVALUATE_PATHS[path]
    pts = np.random.default_rng(6).uniform(-1.0, 1.0, (9, 2))
    first, second = J.evaluate(fn, pts, order), J.evaluate(fn, pts, order)
    assert first.order == order
    for k, a in enumerate(first.levels):
        assert a.flags.writeable and a.flags.c_contiguous, k
        assert not np.shares_memory(a, pts) and not np.shares_memory(a, second.levels[k]), k
        assert not any(np.shares_memory(a, b) for b in first.levels[k + 1 :]), k


def test_a_field_of_a_bare_seed_is_masked_in_place():
    """``ScalarField.eval_jets`` zeroes its jet in place outside the support box, so a field
    whose jet is a bare coordinate seed needs levels of its own."""
    support = np.array([[-1.0, 0.0], [-1.0, 1.0]])
    field = ss.ScalarField(support, lambda grid, k: J.evaluate(lambda s: s[0], grid.nodes, k))
    grid = tensor_grid(np.linspace(-0.9, 0.9, 4), np.linspace(-0.5, 0.5, 3))
    out = field.eval_jets(grid, 3)
    inside = grid.nodes[:, 0] <= 0.0
    assert np.any(~inside) and not any(np.any(a[..., ~inside]) for a in out.levels)
    assert np.array_equal(out.val[inside], grid.nodes[inside, 0])
    assert np.all(out.d1[0, inside] == 1.0) and not np.any(out.d1[1]) and not np.any(out.d3)


# an expression chart with constant components ("0", and "-0", whose value is -0.0) and a
# bare coordinate ("x"), which the chart returns as its seed
CONSTANTS_AND_SEEDS = {
    "name": "constants_and_seeds",
    "domain": [[-1.0, 1.0], [-1.0, 1.0]],
    "components": ["x", "0", "y * sin(x)", "-0"],
}


@pytest.mark.parametrize(
    "spec", [*BUILTIN_CHARTS, CONSTANTS_AND_SEEDS], ids=[*BUILTIN_CHARTS, "constants_and_seeds"]
)
@pytest.mark.parametrize("order", [1, 2, 3])
def test_chart_jets_are_the_stacked_components(spec, order):
    """The levels written straight into the stacked result are ``np.stack`` of the chart's
    components, each plain number promoted to a constant jet, bit for bit."""
    chart = ss.chart_from_config(spec)
    pts = ss.uniform_grid(chart, 7).nodes
    seeds = J.variables(pts, order)
    components = [
        c if isinstance(c, J.Jet) else J.constant(c, chart.dim, order, batch_shape=(pts.shape[0],))
        for c in chart.map_jets(seeds)
    ]
    want = [np.stack(level) for level in zip(*[c.levels for c in components])]
    got = ss.eval_jets(chart, pts, order)
    assert got.order == order and len(got.levels) == len(want)
    for a, b in zip(got.levels, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_a_lower_order_component_truncates_the_result():
    pts = np.random.default_rng(8).uniform(-1.0, 1.0, (5, 2))
    full = J.evaluate(lambda s: [J.sin(s[0]), s[1], 2.0], pts, 3)
    cut = J.evaluate(lambda s: [J.sin(s[0]), s[1].truncated(1), 2.0], pts, 3)
    assert (cut.order, cut.d2, cut.d3) == (1, None, None) and cut.d1.shape == (3, 2, 5)
    assert all(np.array_equal(a, b) for a, b in zip(cut.levels, full.levels))
    assert J.stack([full, cut]).order == 1 and J.stack([cut, full]).order == 1


def test_partial_extraction():
    pts = np.array([[0.25, -0.4]])
    x, y = J.variables(pts, order=3)
    f = J.sin(x * y)
    fx = partial(f, 0)
    assert fx.order == 2
    assert np.allclose(fx.val, f.d1[0])
    assert np.allclose(fx.d1, f.d2[0])
    assert np.allclose(fx.d2, f.d3[0])


@pytest.mark.parametrize("u", [(0.2, 0.5), (-0.8, -1.7), (1.1, 2.1)])
def test_taylor_remainder_order(u):
    """|Phi(u + h v) - cubic Taylor| must shrink like h^4 (observed order >= 3.7).

    The direction needs a solid component along the curved coordinate so the
    remainder sits well above the round-off floor at both steps.
    """
    chart = ss.chart_from_config("grim_reaper")
    v = np.array([0.8, 0.6])
    j = ss.eval_jets(chart, np.array([u]))

    def taylor_error(h):
        target = ss.eval_jets(chart, np.array([np.array(u) + h * v])).val[:, 0]
        model = (
            j.val[:, 0]
            + h * j.d1[..., 0] @ v
            + 0.5 * h**2 * np.einsum("mab,a,b->m", j.d2[..., 0], v, v)
            + h**3 / 6.0 * np.einsum("mabc,a,b,c->m", j.d3[..., 0], v, v, v)
        )
        return np.max(np.abs(target - model))

    h = 0.05
    e1, e2 = taylor_error(h), taylor_error(h / 2)
    assert e2 > 1e-13  # above the float floor, so the order estimate is meaningful
    order = np.log2(e1 / e2)
    assert order >= 3.7


def test_finite_difference_oracle_agrees():
    chart = ss.chart_from_config("grim_reaper")
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
        assert np.max(np.abs((up.d2 - down.d2) / (2 * h) - exact.d3[..., k, :])) <= 1e-7 * scale
