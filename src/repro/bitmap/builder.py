"""Constructing a hierarchical bitmap index from a data column.

A *column* here is a 1-D integer array of leaf ids: row ``i`` holds the
leaf (finest-granularity domain value) of the indexed attribute.  The
paper assumes only leaves occur in the database (§2.1.1); an internal
node's bitmap marks the rows whose value is any of its leaf descendants,
i.e. it is the OR of its children's bitmaps (§2.1).
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from ..hierarchy.tree import Hierarchy
from .wah import WahBitmap

__all__ = ["build_node_bitmaps", "check_leaf_ids"]


def check_leaf_ids(column: np.ndarray, num_leaves: int) -> np.ndarray:
    """Return ``column`` as an array after checking it holds leaf ids.

    Raises:
        WorkloadError: ``column`` is not 1-D, not integral (unless
            empty), or holds a value outside ``[0, num_leaves)``.
    """
    column = np.asarray(column)
    if column.ndim != 1:
        raise WorkloadError(
            f"column must be a 1-D array, got shape {column.shape}"
        )
    if column.size and not np.issubdtype(column.dtype, np.integer):
        raise WorkloadError(
            f"column must hold integral leaf ids, got {column.dtype}"
        )
    if column.size and (column.min() < 0 or column.max() >= num_leaves):
        raise WorkloadError(
            f"column values must lie in [0, {num_leaves}), got range "
            f"[{column.min()}, {column.max()}]"
        )
    return column


def build_node_bitmaps(
    hierarchy: Hierarchy, column: np.ndarray
) -> list[WahBitmap]:
    """Build one WAH bitmap per hierarchy node from a column of leaf ids.

    One stable argsort groups the rows by leaf; each leaf's rows are a
    ``searchsorted`` slice of that order, already in row order.  Internal
    nodes are then ORed from their children in post-order, so no node
    rescans the column.  A full build and an appended batch go through
    it alike, so both validate leaf ids with :func:`check_leaf_ids`.

    Args:
        hierarchy: the indexed hierarchy.
        column: integer array of leaf ids in ``[0, num_leaves)``; leaves
            absent from the column get all-zero bitmaps.

    Returns:
        ``bitmaps`` where ``bitmaps[node_id]`` marks the rows under that
        node, each ``column.size`` bits long.

    Raises:
        WorkloadError: ``column`` is not 1-D, not integral, or holds a
            value outside ``[0, num_leaves)``.
    """
    column = check_leaf_ids(column, hierarchy.num_leaves)
    num_rows = int(column.size)
    order = np.argsort(column, kind="stable")
    bounds = np.searchsorted(
        column[order], np.arange(hierarchy.num_leaves + 1)
    )
    bitmaps = [WahBitmap.zeros(num_rows)] * hierarchy.num_nodes
    for leaf, node_id in enumerate(hierarchy.leaf_ids()):
        bitmaps[node_id] = WahBitmap.from_positions(
            order[bounds[leaf]:bounds[leaf + 1]], num_rows
        )
    for node_id in hierarchy.internal_ids_postorder():
        bitmaps[node_id] = WahBitmap.union_all(
            (bitmaps[child] for child in hierarchy.node(node_id).children),
            num_bits=num_rows,
        )
    return bitmaps
