"""Composite tensor-product Gauss-Legendre quadrature with deterministic sums.

Nodes are ordered cell-major along each axis and the tensor product is
flattened in C order (last axis fastest).  Integrals are evaluated with a
single ``np.sum`` over that fixed ordering (pairwise summation), so repeated
runs produce bit-identical values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["QuadratureGrid", "tensor_rule"]


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

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum in the documented deterministic order."""
        return float(np.sum(np.asarray(values).reshape(-1) * self.weights))

    def describe(self) -> dict:
        return {
            "box": [list(map(float, row)) for row in self.box],
            "cells": [self.cells] * self.box.shape[0],
            "points_per_cell": self.points_per_cell,
        }


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
