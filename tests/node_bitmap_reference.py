"""Mask-per-node hierarchical index construction: the test oracle.

This is the original way node bitmaps were built: one boolean mask
scan of the whole column per hierarchy node
(``leaf_lo <= value <= leaf_hi``), encoded by the scalar WAH reference
(``tests/wah_reference.py``).  It is deliberately simple and slow,
O(nodes × rows); :func:`repro.bitmap.builder.build_node_bitmaps` must
produce the same canonical word streams, node for node
(``tests/test_bitmap_builder.py``, ``tests/test_bitmap_index.py``).
"""

from __future__ import annotations

import numpy as np

from repro.hierarchy.tree import Hierarchy
from tests import wah_reference as ref


def node_bitmap_words(
    hierarchy: Hierarchy, column: np.ndarray
) -> list[list[int]]:
    """WAH words of every node's bitmap, indexed by node id."""
    column = np.asarray(column)
    return [
        ref.from_positions(
            np.flatnonzero(
                (column >= node.leaf_lo) & (column <= node.leaf_hi)
            ).tolist(),
            int(column.size),
        )
        for node in hierarchy.nodes()
    ]
