"""Composite tensor-product Gauss-Legendre quadrature with deterministic sums.

A grid is its axes; its (N, d) ``nodes`` are formed on each read and its (N,)
``weights`` on the first, so only the grid they are read on is laid out.  Nodes
are ordered cell-major along each axis, flattened in C order (last axis fastest).  An
x-row is the nodes that share one axis-0 node; a block of x-rows is a tensor grid
itself that knows the grid it was cut from (:meth:`QuadratureGrid.rows`), and
:meth:`QuadratureGrid.blocks` is the one cut into blocks, which every command walks.
Every integral is each x-row's weighted values summed by ``np.sum``, then one
``np.sum`` over the row sums (:func:`total`), so no bit depends on the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["QuadratureGrid", "tensor_rule", "total", "BLOCK_NODES"]

# Nodes per block of QuadratureGrid.blocks, rounded down to whole x-rows; no
# output bit depends on it.  It sets the memory a block holds (77 floats per
# node of grid geometry at d = 2, 208 at d = 3; its build peaks at 112 and 308,
# while the Christoffel trace P forms) against per-block fixed costs.
# On a 2-vCPU VM (Python 3.11.7, numpy 2.4.6, fresh processes), second-variation
# on the perfbench suite2d config took 2.25 / 1.99 / 1.94 s at 4,096 / 8,192 /
# 16,384 nodes and peaked at 49.1 / 54.8 / 65.5 MB RSS (16,384 won 4 of 10
# pairs); verify-soliton on its certify config (13 rows of 600) peaked at 38.2
# MB in 0.25-0.27 s, against 41.9 MB in 0.29-0.32 s over 4,096 scattered points.
BLOCK_NODES = 8192


def _axis_rule(lo: float, hi: float, cells: int, points_per_cell: int):
    ref_x, ref_w = leggauss(points_per_cell)
    edges = np.linspace(lo, hi, cells + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * ref_x[None, :]).reshape(-1)
    w = (half[:, None] * ref_w[None, :]).reshape(-1)
    return x, w


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor-product rule over a box, ``cells`` cells per axis, kept as its axes."""

    box: np.ndarray
    cells: int
    points_per_cell: int
    axis_nodes: tuple[np.ndarray, ...]
    axis_weights: tuple[np.ndarray, ...]
    parent: QuadratureGrid | None = field(default=None, repr=False, compare=False)
    row0: int = field(default=0, repr=False, compare=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(x) for x in self.axis_nodes)

    @property
    def nodes(self) -> np.ndarray:
        """The (N, d) nodes in C order, formed from the axes on each read."""
        d = len(self.axis_nodes)
        nodes = np.empty(self.shape + (d,))
        for a, x in enumerate(self.axis_nodes):
            nodes[..., a] = x.reshape((-1,) + (1,) * (d - 1 - a))
        return nodes.reshape(-1, d)

    @cached_property
    def weights(self) -> np.ndarray:
        """The (N,) weights ``w0 * w1 * ...``, multiplied in axis order, formed on the first read
        and kept: the commands read them on row blocks only, never on a whole grid."""
        weights = self.axis_weights[0]
        for w in self.axis_weights[1:]:
            weights = (weights[:, None] * w).reshape(-1)
        return weights

    def rows(self, i0: int, i1: int) -> QuadratureGrid:
        """The row block on axis-0 nodes ``i0:i1``, a tensor grid on views of this grid's axes,
        with this grid as its ``parent`` and ``i0`` as its ``row0``; ``box`` and ``cells`` too."""
        return replace(
            self,
            axis_nodes=(self.axis_nodes[0][i0:i1],) + self.axis_nodes[1:],
            axis_weights=(self.axis_weights[0][i0:i1],) + self.axis_weights[1:],
            parent=self,
            row0=i0,
        )

    def along(self, axes) -> QuadratureGrid:
        """The sub-grid on ``axes``, with only the first node of every other axis: where a
        function of the ``axes`` parameters alone takes each of its values on this grid."""
        return replace(
            self,
            axis_nodes=tuple(x if a in axes else x[:1] for a, x in enumerate(self.axis_nodes)),
            axis_weights=tuple(w if a in axes else w[:1] for a, w in enumerate(self.axis_weights)),
            parent=None,
            row0=0,
        )

    def walk_part(self, axes) -> tuple | None:
        """For a row block, where a function of the ``axes`` parameters alone runs once per walk,
        on ``parent.along(axes)``: the index of this block's part of an array ``(...,) +
        parent.along(axes).shape``.  None off a walk, or if that sub-grid exceeds one block."""
        if self.parent is None or math.prod(n for a, n in enumerate(self.parent.shape) if a in axes) > BLOCK_NODES:
            return None
        first = slice(self.row0, self.row0 + self.shape[0]) if 0 in axes else slice(None)
        return (..., first) + (slice(None),) * (len(self.shape) - 1)

    def blocks(self) -> Iterator[QuadratureGrid]:
        """The grid's row blocks in order, ``max(1, BLOCK_NODES // row length)`` x-rows each.

        No block has one node unless the grid has: on one node numpy's einsum
        sums small indices in another order (|nabla theta|_g^2 moved in its last
        bit), so rows of one node go two to a block, and a one-node remainder
        joins the block before it.
        """
        nx, per_row = self.shape[0], math.prod(self.shape[1:])
        step = max(BLOCK_NODES // per_row, 2 // per_row, 1)
        starts = list(range(0, nx, step))
        if len(starts) > 1 and (nx - starts[-1]) * per_row == 1:
            del starts[-1]
        for i0, i1 in zip(starts, starts[1:] + [nx]):
            yield self.rows(i0, i1)

    def row_sums(self, values: np.ndarray) -> np.ndarray:
        """The weighted sum over each x-row, in C order: (rows,)."""
        weighted = np.asarray(values).reshape(-1) * self.weights
        return np.sum(weighted.reshape(self.shape[0], -1), axis=1)

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum in the documented deterministic order: the :func:`total` of the row sums."""
        return total(self.row_sums(values))

    def describe(self) -> dict:
        return {
            "box": [list(map(float, row)) for row in self.box],
            "cells": [self.cells] * self.box.shape[0],
            "points_per_cell": self.points_per_cell,
        }


def total(row_sums) -> float:
    """The integral from the x-row sums of a grid, in C order: one ``np.sum`` over them."""
    return float(np.sum(row_sums))


def tensor_rule(box, cells: int = 40, points_per_cell: int = 8) -> QuadratureGrid:
    """Composite Gauss-Legendre rule over the closed box ``[[lo, hi], ...]``, ``cells`` cells per axis."""
    box = np.asarray(box, dtype=float)
    if np.any(box[:, 0] >= box[:, 1]):
        raise ValueError("box rows must be [lo, hi] with lo < hi")
    axis_nodes, axis_weights = zip(*(_axis_rule(lo, hi, cells, points_per_cell) for lo, hi in box))
    return QuadratureGrid(box, cells, points_per_cell, axis_nodes, axis_weights)
