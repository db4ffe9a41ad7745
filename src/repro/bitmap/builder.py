"""Constructing a hierarchical bitmap index from a data column.

A *column* here is a 1-D integer array of leaf ids: row ``i`` holds the
leaf (finest-granularity domain value) of the indexed attribute.  The
paper assumes only leaves occur in the database (§2.1.1); an internal
node's bitmap marks the rows whose value is any of its leaf descendants,
i.e. it is the OR of its children's bitmaps (§2.1).
"""

from __future__ import annotations

from collections.abc import Iterator

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
) -> Iterator[tuple[int, WahBitmap]]:
    """Build one WAH bitmap per hierarchy node from a column of leaf ids.

    One stable argsort groups the rows by leaf; each leaf's rows are a
    slice of that order (bounded by the leaf counts), already in row
    order.  Nodes are formed in post-order, every internal node as the
    OR of its children, so no node rescans the column.  Each node is
    yielded as soon as it is formed and the builder drops a child once
    its parent is ORed: it holds at most the finished children of the
    nodes on one root-to-leaf path, never the whole index.  A full
    build and an appended batch go through it alike.

    The column is validated with :func:`check_leaf_ids` by this call,
    before the first node is yielded, so a caller that writes nodes as
    they arrive writes nothing for a bad column.

    Args:
        hierarchy: the indexed hierarchy.
        column: integer array of leaf ids in ``[0, num_leaves)``; leaves
            absent from the column get all-zero bitmaps.

    Returns:
        An iterator of ``(node_id, bitmap)`` over every node, children
        before parents; each bitmap marks the rows under its node and
        is ``column.size`` bits long.

    Raises:
        WorkloadError: ``column`` is not 1-D, not integral, or holds a
            value outside ``[0, num_leaves)``.
    """
    column = check_leaf_ids(column, hierarchy.num_leaves)
    # Leaf ids fit the narrowest unsigned type holding num_leaves - 1,
    # which numpy's stable sort radix-sorts; the order is the same.
    keys = column.astype(
        np.min_scalar_type(max(hierarchy.num_leaves - 1, 0)), copy=False
    )
    order = np.argsort(keys, kind="stable")
    bounds = np.zeros(hierarchy.num_leaves + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(keys, minlength=hierarchy.num_leaves), out=bounds[1:]
    )
    return _postorder(hierarchy, hierarchy.root_id, order, bounds)


def _postorder(
    hierarchy: Hierarchy,
    node_id: int,
    order: np.ndarray,
    bounds: np.ndarray,
):
    """Yield ``(node_id, bitmap)`` over the subtree of ``node_id``,
    children first, and return the node's own bitmap.

    ``order`` is the column's stable argsort and ``bounds[leaf]`` the
    first position in it of each leaf's rows.  (A module-level
    generator: a nested one would close over itself, and that cycle
    would keep ``order`` alive until a garbage collection.)
    """
    num_rows = int(order.size)
    node = hierarchy.node(node_id)
    if node.is_leaf:
        leaf = node.leaf_lo
        bitmap = WahBitmap.from_positions(
            order[bounds[leaf]:bounds[leaf + 1]], num_rows
        )
    else:
        children = []
        for child in node.children:
            children.append(
                (yield from _postorder(hierarchy, child, order, bounds))
            )
        bitmap = WahBitmap.union_all(children, num_bits=num_rows)
        del children
    yield node_id, bitmap
    return bitmap
