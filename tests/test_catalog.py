"""Tests for the modeled and materialized node catalogs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StorageError, WorkloadError
from repro.storage.catalog import (
    MaterializedNodeCatalog,
    ModeledNodeCatalog,
    node_file_name,
)
from repro.storage.costmodel import MB, CostModel
from repro.storage.filestore import BitmapFileStore
from repro.storage.manifest import DurableBitmapStore


class TestModeledCatalog:
    def test_node_density_is_subtree_probability_mass(
        self, small_hierarchy, paper_cost_model
    ):
        num_leaves = small_hierarchy.num_leaves
        probabilities = np.arange(1, num_leaves + 1, dtype=float)
        probabilities /= probabilities.sum()
        catalog = ModeledNodeCatalog(
            small_hierarchy, probabilities, paper_cost_model, 10**6
        )
        for node in small_hierarchy:
            expected = probabilities[
                node.leaf_lo:node.leaf_hi + 1
            ].sum()
            assert catalog.density(node.node_id) == pytest.approx(
                expected
            )
        assert catalog.density(
            small_hierarchy.root_id
        ) == pytest.approx(1.0)

    def test_read_cost_follows_model(
        self, small_hierarchy, paper_cost_model
    ):
        num_leaves = small_hierarchy.num_leaves
        probabilities = np.full(num_leaves, 1.0 / num_leaves)
        catalog = ModeledNodeCatalog(
            small_hierarchy, probabilities, paper_cost_model, 10**6
        )
        for node in small_hierarchy:
            expected = paper_cost_model.read_cost_mb(
                catalog.density(node.node_id)
            )
            assert catalog.read_cost_mb(node.node_id) == expected
            assert catalog.size_mb(node.node_id) == expected

    def test_root_bitmap_is_free(self, uniform_catalog100):
        """Density-1 bitmaps compress to nothing (§2.2.1)."""
        root = uniform_catalog100.hierarchy.root_id
        assert uniform_catalog100.read_cost_mb(root) == 0.0

    def test_leaf_range_cost_prefix_sums(self, uniform_catalog100):
        leaf_ids = uniform_catalog100.hierarchy.leaf_ids()
        direct = sum(
            uniform_catalog100.read_cost_mb(leaf_ids[value])
            for value in range(10, 20)
        )
        assert uniform_catalog100.leaf_range_cost(
            10, 19
        ) == pytest.approx(direct)
        assert uniform_catalog100.leaf_range_cost(5, 4) == 0.0

    def test_subtree_leaf_cost(self, uniform_catalog100):
        hierarchy = uniform_catalog100.hierarchy
        root = hierarchy.root_id
        assert uniform_catalog100.subtree_leaf_cost(
            root
        ) == pytest.approx(
            uniform_catalog100.leaf_range_cost(
                0, hierarchy.num_leaves - 1
            )
        )

    def test_from_leaf_counts(self, small_hierarchy, paper_cost_model):
        counts = np.full(small_hierarchy.num_leaves, 25)
        catalog = ModeledNodeCatalog.from_leaf_counts(
            small_hierarchy, counts, paper_cost_model
        )
        assert catalog.num_rows == counts.sum()
        assert catalog.density(
            small_hierarchy.leaf_ids()[0]
        ) == pytest.approx(1.0 / small_hierarchy.num_leaves)

    def test_validation(self, small_hierarchy, paper_cost_model):
        wrong_size = np.full(3, 1 / 3)
        with pytest.raises(ValueError):
            ModeledNodeCatalog(
                small_hierarchy, wrong_size, paper_cost_model, 10
            )
        bad_sum = np.full(small_hierarchy.num_leaves, 0.5)
        with pytest.raises(ValueError):
            ModeledNodeCatalog(
                small_hierarchy, bad_sum, paper_cost_model, 10
            )
        negative = np.full(
            small_hierarchy.num_leaves,
            1.0 / small_hierarchy.num_leaves,
        )
        negative[0] = -negative[0]
        with pytest.raises(ValueError):
            ModeledNodeCatalog(
                small_hierarchy, negative, paper_cost_model, 10
            )

    def test_read_only_views(self, uniform_catalog100):
        with pytest.raises(ValueError):
            uniform_catalog100.read_cost_array()[0] = 1.0
        with pytest.raises(ValueError):
            uniform_catalog100.size_array()[0] = 1.0
        with pytest.raises(ValueError):
            uniform_catalog100.leaf_probabilities[0] = 1.0


class TestMaterializedCatalog:
    def test_sizes_match_stored_files(self, materialized_setup):
        _hierarchy, _column, catalog = materialized_setup
        for node in catalog.hierarchy:
            name = node_file_name(node.node_id)
            stored = catalog.store.size_bytes(name)
            assert catalog.size_mb(node.node_id) == pytest.approx(
                stored / MB
            )
            assert catalog.read_cost_mb(
                node.node_id
            ) == catalog.size_mb(node.node_id)

    def test_densities_match_column(self, materialized_setup):
        _hierarchy, column, catalog = materialized_setup
        for node in catalog.hierarchy:
            mask = (column >= node.leaf_lo) & (column <= node.leaf_hi)
            expected = mask.sum() / column.size
            assert catalog.density(node.node_id) == pytest.approx(
                expected
            )

    def test_bitmaps_roundtrip(self, materialized_setup):
        _hierarchy, column, catalog = materialized_setup
        leaf_id = catalog.hierarchy.leaf_ids()[0]
        bitmap = catalog.bitmap(leaf_id)
        expected = np.flatnonzero(column == 0).tolist()
        assert bitmap.to_positions().tolist() == expected

    def test_missing_bitmap_raises(self, materialized_setup):
        _hierarchy, _column, catalog = materialized_setup
        with pytest.raises(StorageError):
            catalog.bitmap(10_000)

    def test_internal_bitmap_is_union_of_leaves(
        self, materialized_setup
    ):
        hierarchy, _column, catalog = materialized_setup
        root_child = hierarchy.internal_children(hierarchy.root_id)[0]
        node = hierarchy.node(root_child)
        union = catalog.bitmap(
            hierarchy.leaf_node_id(node.leaf_lo)
        )
        for value in range(node.leaf_lo + 1, node.leaf_hi + 1):
            union = union | catalog.bitmap(
                hierarchy.leaf_node_id(value)
            )
        assert catalog.bitmap(root_child) == union


@pytest.mark.parametrize("durable", [False, True], ids=["plain", "durable"])
@pytest.mark.parametrize(
    "column,match",
    [
        (np.zeros((2, 2), dtype=np.int64), "1-D"),
        (np.array([0.5, 3.7, 1.0]), "integral"),
        (np.array([0, 5, 20, 3, -1], dtype=np.int64), "lie in"),
        (np.array([10**6], dtype=np.int64), "lie in"),
    ],
)
def test_catalog_rejects_bad_columns(
    tmp_path, small_hierarchy, durable, column, match
):
    """A bad column raises before anything is written or committed."""
    store = (
        DurableBitmapStore(tmp_path / "store")
        if durable
        else BitmapFileStore()
    )
    with pytest.raises(WorkloadError, match=match):
        MaterializedNodeCatalog(small_hierarchy, column, store)
    assert list(store.names()) == []
    if durable:
        assert store.generation == 0
        assert DurableBitmapStore(tmp_path / "store").generation == 0
