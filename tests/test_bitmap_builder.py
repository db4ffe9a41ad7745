"""Tests for building a hierarchical bitmap index from a data column."""

from __future__ import annotations

import functools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap import builder
from repro.bitmap.wah import WahBitmap
from repro.errors import WorkloadError
from repro.hierarchy import paper_hierarchy
from repro.hierarchy.tree import Hierarchy
from tests.node_bitmap_reference import node_bitmap_words


@pytest.fixture
def hierarchy() -> Hierarchy:
    """10 leaves under an irregular tree: fanouts 3 and 2, then 5."""
    return Hierarchy.from_nested([[3, 2], [5]])


@pytest.fixture
def column() -> np.ndarray:
    rng = np.random.default_rng(42)
    return rng.integers(0, 10, size=5000).astype(np.int64)


def build_node_bitmaps(hierarchy, column) -> list[WahBitmap]:
    """Every node's bitmap from the streaming builder, by node id."""
    built = dict(builder.build_node_bitmaps(hierarchy, column))
    assert sorted(built) == list(range(hierarchy.num_nodes))
    return [built[node_id] for node_id in range(hierarchy.num_nodes)]


def _leaf_bitmaps(hierarchy, bitmaps) -> list[WahBitmap]:
    return [bitmaps[node_id] for node_id in hierarchy.leaf_ids()]


class TestLeafBitmaps:
    def test_partition_property(self, hierarchy, column):
        """Leaf bitmaps partition the rows: disjoint and covering."""
        leaves = _leaf_bitmaps(
            hierarchy, build_node_bitmaps(hierarchy, column)
        )
        total = sum(bitmap.count() for bitmap in leaves)
        assert total == column.size
        union = WahBitmap.union_all(leaves)
        assert union.count() == column.size

    def test_each_leaf_marks_its_rows(self, hierarchy, column):
        leaves = _leaf_bitmaps(
            hierarchy, build_node_bitmaps(hierarchy, column)
        )
        for leaf in range(10):
            expected = np.flatnonzero(column == leaf).tolist()
            assert leaves[leaf].to_positions().tolist() == expected

    def test_absent_leaf_gets_empty_bitmap(self, hierarchy):
        column = np.array([0, 0, 2], dtype=np.int64)
        leaves = _leaf_bitmaps(
            hierarchy, build_node_bitmaps(hierarchy, column)
        )
        assert leaves[1].count() == 0
        assert leaves[3].count() == 0
        assert all(bitmap.num_bits == 3 for bitmap in leaves)

    def test_empty_column(self, hierarchy):
        bitmaps = build_node_bitmaps(
            hierarchy, np.array([], dtype=np.int64)
        )
        assert len(bitmaps) == hierarchy.num_nodes
        assert all(bitmap.num_bits == 0 for bitmap in bitmaps)

    def test_rejects_bad_shapes_and_values(self, hierarchy):
        for column, match in [
            (np.zeros((2, 2), dtype=np.int64), "1-D"),
            (np.array([0.5]), "integral"),
            (np.array([True, False]), "integral"),
            (np.array([10], dtype=np.int64), "lie in"),
            (np.array([-1], dtype=np.int64), "lie in"),
        ]:
            with pytest.raises(WorkloadError, match=match):
                build_node_bitmaps(hierarchy, column)


class TestStreaming:
    """The builder hands out nodes children-first as it forms them and
    keeps only what a pending parent still needs."""

    def test_validates_before_the_first_node(self, hierarchy):
        # No iteration: the call itself rejects the column.
        with pytest.raises(WorkloadError):
            builder.build_node_bitmaps(hierarchy, np.array([10]))

    def test_children_before_parents(self, hierarchy, column):
        seen = set()
        for node_id, _bitmap in builder.build_node_bitmaps(
            hierarchy, column
        ):
            assert set(hierarchy.node(node_id).children) <= seen
            seen.add(node_id)
        assert seen == set(range(hierarchy.num_nodes))

    def test_live_set_is_one_path_of_pending_children(self, monkeypatch):
        hierarchy = Hierarchy.from_nested([[4, 4, 4], [4, 4, 4], [4, 4]])
        column = np.random.default_rng(5).integers(0, 32, size=3000)
        made: list[WahBitmap] = []

        class Tracking:
            """Records every bitmap the builder makes."""

            @staticmethod
            def from_positions(positions, num_bits):
                made.append(WahBitmap.from_positions(positions, num_bits))
                return made[-1]

            @staticmethod
            def union_all(bitmaps, num_bits=None):
                made.append(WahBitmap.union_all(bitmaps, num_bits=num_bits))
                return made[-1]

        monkeypatch.setattr(builder, "WahBitmap", Tracking)
        most_live = 0
        for _node_id, _bitmap in builder.build_node_bitmaps(
            hierarchy, column
        ):
            # A bitmap nothing else holds has three references here:
            # ``made``, the loop variable and getrefcount's argument.
            live = sum(sys.getrefcount(bitmap) > 3 for bitmap in made)
            most_live = max(most_live, live)
        assert len(made) == hierarchy.num_nodes
        # At most: the yielded node, three finished leaves of one
        # leaf-parent, two of one middle node and two of the root.
        assert most_live <= 8


class TestSpanBitmap:
    def test_span_matches_mask(self, hierarchy, column):
        bitmaps = build_node_bitmaps(hierarchy, column)
        for node in hierarchy:
            expected = np.flatnonzero(
                (column >= node.leaf_lo) & (column <= node.leaf_hi)
            ).tolist()
            assert (
                bitmaps[node.node_id].to_positions().tolist()
                == expected
            )

    def test_span_equals_union_of_leaves(self, hierarchy, column):
        bitmaps = build_node_bitmaps(hierarchy, column)
        for node in hierarchy:
            union = WahBitmap.union_all(
                (
                    bitmaps[hierarchy.leaf_node_id(value)]
                    for value in range(node.leaf_lo, node.leaf_hi + 1)
                ),
                num_bits=column.size,
            )
            assert bitmaps[node.node_id] == union

    def test_full_span_is_all_rows(self, hierarchy, column):
        root = build_node_bitmaps(hierarchy, column)[hierarchy.root_id]
        assert root.count() == column.size
        assert root.density() == 1.0

    def test_empty_span(self, hierarchy, column):
        """A subtree none of whose leaves occur gets a zero bitmap of
        full length."""
        bitmaps = build_node_bitmaps(hierarchy, column[column < 5])
        right = hierarchy.node(hierarchy.root_id).children[-1]
        assert hierarchy.node(right).leaf_lo == 5
        assert bitmaps[right].count() == 0
        assert bitmaps[right].num_bits == int((column < 5).sum())


# Any tree shape from_nested accepts: an int is a leaf-parent with that
# many leaves, a list an internal node over its children.
nested_specs = st.recursive(
    st.integers(min_value=1, max_value=4),
    lambda children: st.lists(children, min_size=1, max_size=3),
    max_leaves=6,
)


class TestAgainstReference:
    """:func:`build_node_bitmaps` is word-identical to the
    mask-per-node oracle (``tests/node_bitmap_reference.py``)."""

    @settings(max_examples=150, deadline=None)
    @given(spec=nested_specs, data=st.data())
    def test_matches_reference_on_any_tree(self, spec, data):
        hierarchy = Hierarchy.from_nested(spec)
        values = data.draw(
            st.lists(
                st.integers(0, hierarchy.num_leaves - 1), max_size=200
            )
        )
        column = np.asarray(values, dtype=np.int64)
        bitmaps = build_node_bitmaps(hierarchy, column)
        assert [
            bitmap.word_array.tolist() for bitmap in bitmaps
        ] == node_bitmap_words(hierarchy, column)

    @pytest.mark.parametrize(
        "hierarchy",
        [
            Hierarchy.from_nested([[4, 4], [4, 4]]),
            paper_hierarchy(20),
            paper_hierarchy(50),
        ],
        ids=["balanced-16", "paper-20", "paper-50"],
    )
    @settings(max_examples=20, deadline=None)
    @given(
        rows=st.integers(min_value=0, max_value=400),
        leaves_used=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_reference_with_absent_leaves(
        self, hierarchy, rows, leaves_used, seed
    ):
        """Columns that use only a few leaves, so most subtrees and
        leaves are absent."""
        rng = np.random.default_rng(seed)
        present = rng.choice(
            hierarchy.num_leaves, size=leaves_used, replace=False
        )
        column = rng.choice(present, size=rows).astype(np.int64)
        bitmaps = build_node_bitmaps(hierarchy, column)
        assert [
            bitmap.word_array.tolist() for bitmap in bitmaps
        ] == node_bitmap_words(hierarchy, column)

    @pytest.mark.parametrize(
        "spec", [[[2, 2], [2, 2]], [[2, 2], 3, [[1], 4]]]
    )
    @pytest.mark.parametrize("column", [[], [0], [3]])
    def test_empty_and_single_row_columns(self, spec, column):
        hierarchy = Hierarchy.from_nested(spec)
        column = np.asarray(column, dtype=np.int64)
        bitmaps = build_node_bitmaps(hierarchy, column)
        assert [
            bitmap.word_array.tolist() for bitmap in bitmaps
        ] == node_bitmap_words(hierarchy, column)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=11),
                max_size=60,
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_concat_of_batch_builds_matches_reference(self, batches):
        """Appending batch by batch (each a delta tail, joined by
        :meth:`WahBitmap.concat` on read) equals building the whole
        column at once, word for word."""
        hierarchy = Hierarchy.from_nested([[2, 2], [3, 2], [3]])
        tails = [
            build_node_bitmaps(
                hierarchy, np.asarray(values, dtype=np.int64)
            )
            for values in batches
        ]
        merged = [
            functools.reduce(
                WahBitmap.concat, (batch[node_id] for batch in tails)
            )
            for node_id in range(hierarchy.num_nodes)
        ]
        column = np.asarray(sum(batches, []), dtype=np.int64)
        assert [
            bitmap.word_array.tolist() for bitmap in merged
        ] == node_bitmap_words(hierarchy, column)
