"""Tests for OLAP aggregation over bitmap-selected rows."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.executor import QueryExecutor
from repro.core.opnodes import leaf_only_plan
from repro.core.single import hybrid_cut
from repro.core.opnodes import build_query_plan
from repro.workload.query import RangeQuery


@pytest.fixture
def measure(materialized_setup) -> np.ndarray:
    _hierarchy, column, _catalog = materialized_setup
    rng = np.random.default_rng(99)
    return rng.uniform(0.0, 100.0, size=column.size)


class TestAggregates:
    @pytest.mark.parametrize(
        "agg,reducer",
        [
            ("count", lambda values: float(values.size)),
            ("sum", lambda values: float(values.sum())),
            ("avg", lambda values: float(values.mean())),
            ("min", lambda values: float(values.min())),
            ("max", lambda values: float(values.max())),
        ],
    )
    def test_matches_numpy_over_scan(
        self, materialized_setup, measure, agg, reducer
    ):
        _hierarchy, column, catalog = materialized_setup
        query = RangeQuery([(3, 11)])
        executor = QueryExecutor(catalog)
        value, _result = executor.aggregate(
            leaf_only_plan(catalog, query), measure, agg
        )
        mask = (column >= 3) & (column <= 11)
        assert value == pytest.approx(reducer(measure[mask]))

    def test_same_result_under_any_plan(
        self, materialized_setup, measure
    ):
        _hierarchy, column, catalog = materialized_setup
        query = RangeQuery([(1, 13)])
        selection = hybrid_cut(catalog, query)
        plan = build_query_plan(
            catalog,
            query,
            selection.cut.node_ids,
            labels=selection.labels,
        )
        executor = QueryExecutor(catalog)
        via_cut, _ = executor.aggregate(plan, measure, "sum")
        via_leaves, _ = executor.aggregate(
            leaf_only_plan(catalog, query), measure, "sum"
        )
        assert via_cut == pytest.approx(via_leaves)

    def test_empty_selection(self):
        from repro.hierarchy.tree import Hierarchy
        from repro.storage.catalog import MaterializedNodeCatalog

        hierarchy = Hierarchy.from_nested([2, 2])
        # Leaf value 3 never occurs in the column.
        column = np.array([0, 1, 2, 0, 1], dtype=np.int64)
        catalog = MaterializedNodeCatalog(hierarchy, column)
        measure = np.arange(column.size, dtype=float)
        leaf = 3
        query = RangeQuery([(leaf, leaf)])
        executor = QueryExecutor(catalog)
        count, _ = executor.aggregate(
            leaf_only_plan(catalog, query), measure, "count"
        )
        assert count == 0.0
        total, _ = executor.aggregate(
            leaf_only_plan(catalog, query), measure, "sum"
        )
        assert total == 0.0
        avg, _ = executor.aggregate(
            leaf_only_plan(catalog, query), measure, "avg"
        )
        assert np.isnan(avg)
        # An unknown aggregate is an error even when nothing matches.
        with pytest.raises(ValueError):
            executor.aggregate(
                leaf_only_plan(catalog, query), measure, "median"
            )

    def test_count_does_not_materialize_positions(
        self, materialized_setup, measure, monkeypatch
    ):
        from repro.bitmap.wah import WahBitmap

        _hierarchy, column, catalog = materialized_setup
        query = RangeQuery([(2, 12)])
        executor = QueryExecutor(catalog)

        def refuse(_self):
            raise AssertionError("count materialized every position")

        monkeypatch.setattr(WahBitmap, "to_positions", refuse)
        count, _ = executor.aggregate(
            leaf_only_plan(catalog, query), measure, "count"
        )
        assert count == float(((column >= 2) & (column <= 12)).sum())

    def test_validation(self, materialized_setup, measure):
        _hierarchy, _column, catalog = materialized_setup
        query = RangeQuery([(0, 1)])
        executor = QueryExecutor(catalog)
        plan = leaf_only_plan(catalog, query)
        with pytest.raises(ValueError):
            executor.aggregate(plan, measure, "median")
        with pytest.raises(ValueError):
            executor.aggregate(plan, measure[:-1], "sum")

    def test_returns_execution_result(
        self, materialized_setup, measure
    ):
        _hierarchy, _column, catalog = materialized_setup
        query = RangeQuery([(0, 5)])
        executor = QueryExecutor(catalog)
        _value, result = executor.aggregate(
            leaf_only_plan(catalog, query), measure, "count"
        )
        assert result.io_bytes > 0
        assert result.query == query
