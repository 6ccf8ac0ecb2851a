"""Tensor-product Gauss-Legendre rule: exactness and determinism."""

import tracemalloc

import numpy as np

from soliton_stability import tensor_rule
from soliton_stability.quadrature import total


def test_weights_sum_to_volume():
    grid = tensor_rule([[-1.3, 0.7], [2.0, 5.0]], cells=7, points_per_cell=4)
    assert np.all(grid.weights > 0)
    assert abs(np.sum(grid.weights) - 2.0 * 3.0) < 1e-12


def test_polynomial_exactness():
    # per-cell Gauss with p points integrates degree 2p-1 exactly
    grid = tensor_rule([[0.0, 1.0], [0.0, 1.0]], cells=3, points_per_cell=4)
    x, y = grid.nodes[:, 0], grid.nodes[:, 1]
    val = grid.integrate(x**7 * y**5)
    assert abs(val - (1 / 8) * (1 / 6)) < 1e-15


def test_exponential_integral():
    grid = tensor_rule([[0.0, 1.0], [0.0, 1.0]], cells=10, points_per_cell=8)
    val = grid.integrate(np.exp(grid.nodes[:, 0]))
    assert abs(val - (np.e - 1.0)) < 1e-14


def test_node_ordering_is_cell_major_and_c_order():
    grid = tensor_rule([[0.0, 1.0], [10.0, 11.0]], cells=2, points_per_cell=2)
    nx, ny = grid.shape
    assert (nx, ny) == (4, 4)
    # last axis fastest: first ny nodes share the first x
    assert np.all(grid.nodes[:ny, 0] == grid.nodes[0, 0])
    assert np.all(np.diff(grid.axis_nodes[0]) > 0)


def test_integration_is_bit_deterministic():
    grid = tensor_rule([[-1.0, 1.0], [-1.0, 1.0]], cells=11, points_per_cell=6)
    vals = np.sin(3.0 * grid.nodes[:, 0]) * np.cos(grid.nodes[:, 1]) ** 2 + 0.1
    a = grid.integrate(vals)
    b = grid.integrate(vals.copy())
    assert a == b


def test_refinement_changes_analytic_integral_below_tolerance():
    box = [[-1.1, 1.1], [-2.0, 2.0]]
    f = lambda g: g.integrate(np.exp(-g.nodes[:, 0] ** 2) / (2.0 + np.sin(g.nodes[:, 1])))
    coarse = f(tensor_rule(box, cells=40, points_per_cell=8))
    fine = f(tensor_rule(box, cells=80, points_per_cell=8))
    assert abs(coarse - fine) / abs(fine) < 1e-8


def test_row_blocks_are_tensor_grids_of_views():
    """A block of x-rows is a tensor grid on views of the grid's axes, and forms the grid's
    nodes and weights at its rows."""
    grid = tensor_rule([[-1.0, 1.0], [0.0, 2.0], [3.0, 4.0]], cells=2, points_per_cell=3)
    part = grid.rows(2, 5)
    assert part.shape == (3, 6, 6)
    assert np.shares_memory(part.axis_nodes[0], grid.axis_nodes[0])
    assert np.shares_memory(part.axis_weights[0], grid.axis_weights[0])
    assert np.array_equal(part.nodes, grid.nodes[2 * 36 : 5 * 36])
    assert np.array_equal(part.weights, grid.weights[2 * 36 : 5 * 36])
    assert part.axis_nodes[1] is grid.axis_nodes[1] and part.axis_nodes[2] is grid.axis_nodes[2]
    assert np.array_equal(part.axis_nodes[0], grid.axis_nodes[0][2:5])
    mesh = np.meshgrid(*part.axis_nodes, indexing="ij")
    assert np.array_equal(part.nodes, np.stack([m.reshape(-1) for m in mesh], axis=1))


def test_weights_are_axis_products_in_axis_order():
    """The weights formed from the axes are ``1 * w0 * w1 * w2`` node by node, multiplied in
    axis order: the bits of the whole-grid product of meshgrids they replace."""
    grid = tensor_rule([[-1.0, 1.0], [0.0, 2.0], [3.0, 4.0]], cells=3, points_per_cell=5)
    want = np.ones(grid.nodes.shape[0])
    for w in np.meshgrid(*grid.axis_weights, indexing="ij"):
        want = want * w.reshape(-1)
    assert np.array_equal(grid.weights, want)
    assert grid.weights.shape == (15**3,) and grid.nodes.shape == (15**3, 3)


def test_integral_is_one_sum_over_row_sums_at_any_block_size():
    """Row sums of any block of rows are the grid's row sums there, bit for bit, so a
    pass over row blocks reduces to the integral of the whole grid."""
    for box in ([[-1.0, 1.0], [-1.0, 1.0]], [[-1.0, 1.0], [0.0, 2.0], [3.0, 4.0]]):
        grid = tensor_rule(box, cells=5, points_per_cell=3)
        vals = np.sin(3.0 * grid.nodes[:, 0]) * np.cos(grid.nodes[:, -1]) ** 2 + 0.1
        rows = grid.row_sums(vals)
        assert rows.shape == (15,)
        assert grid.integrate(vals) == total(rows) == float(np.sum(rows))
        per_row = vals.size // 15
        for size in (1, 2, 7):
            parts = [
                grid.rows(i, min(i + size, 15)).row_sums(vals[i * per_row : min(i + size, 15) * per_row])
                for i in range(0, 15, size)
            ]
            assert np.array_equal(np.concatenate(parts), rows), size


def test_a_grid_holds_its_axes_alone():
    """A 2,560,000-node rule holds its two axes and nothing per node: a whole-grid layout
    (the meshgrids, nodes and weights it kept) peaked at 8 floats per node."""
    tracemalloc.start()
    try:
        grid = tensor_rule([[-1.0, 1.0], [-2.0, 2.0]], cells=200, points_per_cell=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.shape == (1600, 1600)
    assert peak < 128 * 1024, peak  # 85.6 kB: the axes and their construction
    assert [b.shape[0] for b in grid.blocks()] == [5] * 320
