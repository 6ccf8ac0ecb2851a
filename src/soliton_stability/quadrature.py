"""Composite tensor-product Gauss-Legendre quadrature with deterministic sums.

Nodes are ordered cell-major along each axis and the tensor product is
flattened in C order (last axis fastest).  An x-row is the nodes that share
one axis-0 node; a block of consecutive x-rows is a tensor grid itself
(:meth:`QuadratureGrid.rows`).  Every integral is reduced one way: the
weighted values of each x-row are summed by ``np.sum`` in C order, then one
``np.sum`` runs over the row sums (:func:`total`).  A row sum depends on its
own row alone, so a pass over row blocks that hands back each block's row
sums, in order, gives the same bits as the whole grid at once, whatever the
block size.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["QuadratureGrid", "tensor_rule", "total"]


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
    """Tensor-product rule over a box, ``cells`` cells per axis; ``nodes`` is (N, d), ``weights`` (N,)."""

    box: np.ndarray
    cells: int
    points_per_cell: int
    nodes: np.ndarray
    weights: np.ndarray
    axis_nodes: tuple[np.ndarray, ...]
    axis_weights: tuple[np.ndarray, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(x) for x in self.axis_nodes)

    def rows(self, i0: int, i1: int) -> QuadratureGrid:
        """The sub-grid on axis-0 nodes ``i0:i1``, a tensor grid with ``nodes`` and ``weights``
        as views of this grid's; ``box`` and ``cells`` stay this grid's."""
        per_row = self.weights.shape[0] // self.axis_nodes[0].shape[0]
        nodes = slice(i0 * per_row, i1 * per_row)
        return replace(
            self,
            nodes=self.nodes[nodes],
            weights=self.weights[nodes],
            axis_nodes=(self.axis_nodes[0][i0:i1],) + self.axis_nodes[1:],
            axis_weights=(self.axis_weights[0][i0:i1],) + self.axis_weights[1:],
        )

    def row_sums(self, values: np.ndarray) -> np.ndarray:
        """The weighted sum over each x-row, in C order: (rows,)."""
        weighted = np.asarray(values).reshape(-1) * self.weights
        return np.sum(weighted.reshape(self.axis_nodes[0].shape[0], -1), axis=1)

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
    axes = [_axis_rule(lo, hi, cells, points_per_cell) for lo, hi in box]
    axis_nodes = tuple(a[0] for a in axes)
    axis_weights = tuple(a[1] for a in axes)
    mesh = np.meshgrid(*axis_nodes, indexing="ij")
    nodes = np.stack([m.reshape(-1) for m in mesh], axis=1)
    wmesh = np.meshgrid(*axis_weights, indexing="ij")
    weights = np.ones(nodes.shape[0])
    for w in wmesh:
        weights = weights * w.reshape(-1)
    return QuadratureGrid(
        box=box,
        cells=cells,
        points_per_cell=points_per_cell,
        nodes=nodes,
        weights=weights,
        axis_nodes=axis_nodes,
        axis_weights=axis_weights,
    )
