"""End-to-end execution tests: plans run on real WAH bitmaps through
the buffer pool, answers checked against a column scan, and IO
accounting checked against the plan's prediction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Hierarchy, MaterializedNodeCatalog
from repro.bitmap.serialization import serialize_wah
from repro.bitmap.wah import WahBitmap
from repro.core.costs import StrategyLabel
from repro.core.executor import QueryExecutor, scan_answer
from repro.core.opnodes import (
    PlanAtom,
    QueryPlan,
    build_query_plan,
    leaf_only_plan,
)
from repro.core.single import (
    exclusive_cut,
    hybrid_cut,
    inclusive_cut,
)
from repro.storage.cache import BufferPool
from repro.storage.catalog import node_file_name
from repro.serve.batch import BatchExecutor
from repro.storage.costmodel import MB
from repro.workload.query import RangeQuery, Workload


QUERIES = [
    RangeQuery([(0, 2)]),
    RangeQuery([(3, 11)]),
    RangeQuery([(0, 15)]),
    RangeQuery([(2, 9), (12, 14)]),
    RangeQuery([(7, 7)]),
]


class TestAnswerCorrectness:
    @pytest.mark.parametrize("query", QUERIES, ids=repr)
    def test_leaf_only_plan_matches_scan(
        self, materialized_setup, query
    ):
        _hierarchy, column, catalog = materialized_setup
        executor = QueryExecutor(catalog)
        result = executor.execute_plan(
            leaf_only_plan(catalog, query)
        )
        assert result.answer == scan_answer(column, query)

    @pytest.mark.parametrize(
        "strategy", [inclusive_cut, exclusive_cut, hybrid_cut]
    )
    @pytest.mark.parametrize("query", QUERIES, ids=repr)
    def test_selected_cut_plans_match_scan(
        self, materialized_setup, strategy, query
    ):
        _hierarchy, column, catalog = materialized_setup
        selection = strategy(catalog, query)
        plan = build_query_plan(
            catalog,
            query,
            selection.cut.node_ids,
            labels=selection.labels,
        )
        executor = QueryExecutor(catalog)
        result = executor.execute_plan(plan)
        assert result.answer == scan_answer(column, query)

    def test_incomplete_cut_still_answers_correctly(
        self, materialized_setup
    ):
        hierarchy, column, catalog = materialized_setup
        member = hierarchy.internal_children(hierarchy.root_id)[0]
        query = RangeQuery([(1, 12)])
        executor = QueryExecutor(catalog)
        result = executor.execute_query(query, [member])
        assert result.answer == scan_answer(column, query)


class TestIOAccounting:
    def test_io_matches_prediction_for_cold_execution(
        self, materialized_setup
    ):
        """With measured file sizes, predicted MB == actual bytes."""
        _hierarchy, column, catalog = materialized_setup
        for query in QUERIES:
            selection = hybrid_cut(catalog, query)
            plan = build_query_plan(
                catalog,
                query,
                selection.cut.node_ids,
                labels=selection.labels,
            )
            # A fresh pool that streams everything (budget 0): every
            # operation node is read exactly once by this single plan.
            executor = QueryExecutor(
                catalog,
                BufferPool(catalog.store, budget_bytes=0),
            )
            result = executor.execute_plan(plan)
            assert result.io_mb == pytest.approx(
                plan.predicted_cost_mb
            )

    def test_hybrid_io_never_exceeds_leaf_only(
        self, materialized_setup
    ):
        _hierarchy, _column, catalog = materialized_setup
        for query in QUERIES:
            selection = hybrid_cut(catalog, query)
            plan = build_query_plan(
                catalog,
                query,
                selection.cut.node_ids,
                labels=selection.labels,
            )
            cold = QueryExecutor(
                catalog, BufferPool(catalog.store, budget_bytes=0)
            )
            hybrid_io = cold.execute_plan(plan).io_bytes
            baseline = QueryExecutor(
                catalog, BufferPool(catalog.store, budget_bytes=0)
            )
            leaf_io = baseline.execute_plan(
                leaf_only_plan(catalog, query)
            ).io_bytes
            assert hybrid_io <= leaf_io

    def test_pinned_cut_charged_once_across_workload(
        self, materialized_setup
    ):
        hierarchy, column, catalog = materialized_setup
        workload = Workload(
            [RangeQuery([(0, 9)]), RangeQuery([(4, 13)])]
        )
        members = hierarchy.internal_children(hierarchy.root_id)
        pool = BufferPool(catalog.store, budget_bytes=None)
        executor = QueryExecutor(catalog, pool)
        results, snapshot = executor.execute_workload(
            workload, members
        )
        for result, query in zip(results, workload):
            assert result.answer == scan_answer(column, query)
        # Every file fetched at most once: unbounded pool caches all.
        assert all(
            count == 1
            for count in snapshot.reads_by_name.values()
        )

    def test_unpinned_workload_io_matches_uncached_prediction(
        self, materialized_setup
    ):
        """Regression: with ``pin=False`` the plans must not assume the
        cut is resident — measured IO equals the uncached (Eq. 1-style)
        prediction, not the Case-2/3 cached one."""
        hierarchy, column, catalog = materialized_setup
        workload = Workload(
            [RangeQuery([(0, 9)]), RangeQuery([(4, 13)])]
        )
        members = hierarchy.internal_children(hierarchy.root_id)
        pool = BufferPool(catalog.store, budget_bytes=0)
        executor = QueryExecutor(catalog, pool)
        results, snapshot = executor.execute_workload(
            workload, members, pin=False
        )
        for result, query in zip(results, workload):
            assert result.answer == scan_answer(column, query)
        predicted = sum(
            build_query_plan(
                catalog, query, members, node_is_cached=False
            ).predicted_cost_mb
            for query in workload
        )
        assert snapshot.mb_read == pytest.approx(predicted)
        # Per-query results carry the same uncached predictions.
        for result, query in zip(results, workload):
            plan = build_query_plan(
                catalog, query, members, node_is_cached=False
            )
            assert result.io_mb == pytest.approx(
                plan.predicted_cost_mb
            )

    def test_pinned_workload_io_matches_cached_prediction(
        self, materialized_setup
    ):
        """With ``pin=True`` measured IO is the one-time cut read plus
        the per-query Case-2/3 (cached-members) predictions."""
        hierarchy, column, catalog = materialized_setup
        workload = Workload(
            [RangeQuery([(0, 9)]), RangeQuery([(4, 13)])]
        )
        members = hierarchy.internal_children(hierarchy.root_id)
        pin_bytes = sum(
            catalog.store.size_bytes(node_file_name(node_id))
            for node_id in members
        )
        pool = BufferPool(
            catalog.store, budget_bytes=pin_bytes
        )
        executor = QueryExecutor(catalog, pool)
        results, snapshot = executor.execute_workload(
            workload, members, pin=True
        )
        for result, query in zip(results, workload):
            assert result.answer == scan_answer(column, query)
        predicted = sum(
            build_query_plan(
                catalog, query, members, node_is_cached=True
            ).predicted_cost_mb
            for query in workload
        )
        assert snapshot.mb_read == pytest.approx(
            predicted + pin_bytes / MB
        )

    def test_streaming_rereads_unpinned_files(
        self, materialized_setup
    ):
        hierarchy, _column, catalog = materialized_setup
        query = RangeQuery([(0, 3)])
        pool = BufferPool(catalog.store, budget_bytes=0)
        executor = QueryExecutor(catalog, pool)
        executor.execute_plan(leaf_only_plan(catalog, query))
        executor.execute_plan(leaf_only_plan(catalog, query))
        assert all(
            count == 2
            for count in pool.accountant.reads_by_name.values()
        )


class TestScanAnswer:
    def test_multi_spec_scan(self, materialized_setup):
        _hierarchy, column, _catalog = materialized_setup
        query = RangeQuery([(0, 1), (14, 15)])
        answer = scan_answer(column, query)
        expected = (
            (column <= 1) | (column >= 14)
        ).sum()
        assert answer.count() == expected


def _disjoint_members(hierarchy, candidates) -> list[int]:
    """Keep each candidate whose leaf span overlaps no earlier keeper."""
    taken: list[tuple[int, int]] = []
    for node_id in candidates:
        node = hierarchy.node(node_id)
        if all(
            node.leaf_hi < lo or node.leaf_lo > hi for lo, hi in taken
        ):
            taken.append((node.leaf_lo, node.leaf_hi))
            yield node_id


def _refuse(*_args, **_kwargs):
    raise AssertionError("the fused evaluator combines in place")


def _not_built(_payload):
    raise AssertionError("no resident view: the payload was not read")


def _pinned_views(executor, names):
    """The resident ``(bitmap, groups)`` view of each pinned name."""
    pool = executor.pool
    return {
        name: pool.pinned_view(name, pool.get(name), _not_built)
        for name in names
    }


class TestFusedEvaluator:
    """One group accumulator per plan: every atom label, pinned or
    not, matches the column scan word for word."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_matches_scan_for_any_plan(
        self, materialized_setup, monkeypatch, data
    ):
        hierarchy, column, catalog = materialized_setup
        # Composite WahBitmap operations are not part of the plan
        # evaluation (no degraded reads happen here).
        monkeypatch.setattr(WahBitmap, "union_all", _refuse)
        monkeypatch.setattr(WahBitmap, "andnot", _refuse)
        leaves = hierarchy.num_leaves
        specs = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, leaves - 1), st.integers(0, leaves - 1)
                ),
                min_size=1,
                max_size=3,
            )
        )
        query = RangeQuery([(min(a, b), max(a, b)) for a, b in specs])
        order = data.draw(st.permutations(range(hierarchy.num_nodes)))
        count = data.draw(st.integers(0, 6))
        members = list(_disjoint_members(hierarchy, order))[:count]
        labels = {
            node_id: data.draw(
                st.sampled_from(
                    [StrategyLabel.INCLUSIVE, StrategyLabel.EXCLUSIVE]
                )
            )
            for node_id in members
        }
        # Pin nothing, the cut, or every node (so removal leaves of
        # EXCLUSIVE atoms are pinned too).
        pinned = data.draw(
            st.sampled_from([(), members, range(hierarchy.num_nodes)])
        )
        plan = build_query_plan(catalog, query, members, labels=labels)
        executor = QueryExecutor(catalog, BufferPool(catalog.store))
        executor.pin_cut(pinned)
        expected = scan_answer(column, query)
        for _ in range(2):  # the second run meets the resident views
            result = executor.execute_plan(plan)
            assert result.answer == expected
            assert not result.degraded

    def test_every_atom_label_against_a_pinned_cut(
        self, materialized_setup
    ):
        hierarchy, column, catalog = materialized_setup
        # Leaf-parents: the first fully covered (COMPLETE), the second
        # missing one leaf (EXCLUSIVE), the third with one leaf in range
        # (INCLUSIVE); leaves past them are read uncovered (INCLUSIVE).
        parents = [
            node.node_id
            for node in hierarchy
            if not node.is_leaf
            and all(hierarchy.node(c).is_leaf for c in node.children)
        ][:3]
        first, second, third = (hierarchy.node(p) for p in parents)
        query = RangeQuery([
            (first.leaf_lo, second.leaf_hi - 1),
            (third.leaf_lo, third.leaf_lo),
            (hierarchy.num_leaves - 1, hierarchy.num_leaves - 1),
        ])
        labels = {
            first.node_id: StrategyLabel.INCLUSIVE,
            second.node_id: StrategyLabel.EXCLUSIVE,
            third.node_id: StrategyLabel.INCLUSIVE,
        }
        plan = build_query_plan(catalog, query, parents, labels=labels)
        assert {atom.label for atom in plan.atoms} == {
            StrategyLabel.COMPLETE,
            StrategyLabel.INCLUSIVE,
            StrategyLabel.EXCLUSIVE,
        }
        executor = QueryExecutor(catalog, BufferPool(catalog.store))
        executor.pin_cut(parents)
        # The INCLUSIVE member is answered from its leaves alone.
        names = [node_file_name(p) for p in parents[:2]]
        for _ in range(3):
            assert executor.execute_plan(plan).answer == scan_answer(
                column, query
            )
        for bitmap, groups in _pinned_views(executor, names).values():
            assert not groups.flags.writeable
            assert WahBitmap.from_groups(groups, bitmap.num_bits) == bitmap


@pytest.mark.parametrize("pin", [False, True], ids=["unpinned", "pinned"])
def test_atoms_are_independent_or_terms(materialized_setup, pin):
    """An EXCLUSIVE atom clears its removal leaves from its own term
    only, never from what earlier atoms ORed in."""
    hierarchy, column, catalog = materialized_setup
    parent = next(node for node in hierarchy if node.num_leaves == 3)
    leaf = parent.leaf_lo
    query = RangeQuery([(parent.leaf_lo, parent.leaf_hi)])
    plan = QueryPlan(
        query=query,
        atoms=(
            PlanAtom(StrategyLabel.INCLUSIVE, None, (leaf,)),
            PlanAtom(StrategyLabel.EXCLUSIVE, parent.node_id, (leaf,)),
        ),
        operation_node_ids=frozenset(),
        predicted_cost_mb=0.0,
    )
    executor = QueryExecutor(catalog, BufferPool(catalog.store))
    if pin:
        executor.pin_cut(range(hierarchy.num_nodes))
    for _ in range(2):
        assert executor.execute_plan(plan).answer == scan_answer(
            column, query
        )


class TestPinnedViewsNeverGoStale:
    """A pinned member's resident group array follows its payload:
    after the file is rewritten and the pin reloaded, invalidated or
    dropped, the next answer is the new payload's."""

    @staticmethod
    def _setup():
        hierarchy = Hierarchy.from_nested([[3, 3], [2, 4]])
        rng = np.random.default_rng(17)
        column = rng.integers(0, hierarchy.num_leaves, size=5000)
        catalog = MaterializedNodeCatalog(hierarchy, column)
        member = hierarchy.internal_children(hierarchy.root_id)[0]
        node = hierarchy.node(member)
        query = RangeQuery([(node.leaf_lo, node.leaf_hi)])
        executor = QueryExecutor(catalog, BufferPool(catalog.store))
        executor.pin_cut([member])
        plan = build_query_plan(
            catalog, query, [member], node_is_cached=True
        )
        assert [atom.label for atom in plan.atoms] == [
            StrategyLabel.COMPLETE
        ]
        assert executor.execute_plan(plan).answer == scan_answer(
            column, query
        )
        replacement = WahBitmap.from_positions(
            rng.choice(column.size, size=40, replace=False), column.size
        )
        name = node_file_name(member)
        catalog.store.write(name, serialize_wah(replacement))
        return executor, plan, name, replacement

    @pytest.mark.parametrize(
        "drop",
        [
            lambda pool, name: pool.reload(name),
            lambda pool, name: pool.invalidate(name),
            lambda pool, name: pool.unpin_all(),
            lambda pool, name: pool.clear(),
        ],
        ids=["reload", "invalidate", "unpin_all", "clear"],
    )
    def test_answer_follows_the_rewritten_payload(self, drop):
        executor, plan, name, replacement = self._setup()
        # Until the pin is dropped, the pinned bytes answer.
        assert executor.execute_plan(plan).answer != replacement
        drop(executor.pool, name)
        assert executor.execute_plan(plan).answer == replacement
        assert executor.execute_plan(plan).answer == replacement


@pytest.mark.stress
def test_concurrent_exclusive_plans_share_pinned_views(materialized_setup):
    """Many workers evaluate EXCLUSIVE-heavy plans over one pinned cut:
    each answer equals the serial one and the shared group arrays are
    never written."""
    hierarchy, column, catalog = materialized_setup
    members = [
        node.node_id
        for node in hierarchy
        if not node.is_leaf
        and all(hierarchy.node(c).is_leaf for c in node.children)
    ]
    last = hierarchy.num_leaves - 1
    queries = [
        RangeQuery([(lo, last - hi)]) for lo in range(3) for hi in range(3)
    ] * 4
    executor = QueryExecutor(catalog, BufferPool(catalog.store))
    executor.pin_cut(members)
    plans = [
        build_query_plan(catalog, query, members, node_is_cached=True)
        for query in queries
    ]
    assert sum(
        atom.label is StrategyLabel.EXCLUSIVE
        for plan in plans
        for atom in plan.atoms
    ) >= len(queries)
    serial = BatchExecutor(executor, max_workers=1).run(
        queries, members, node_is_cached=True
    )
    names = [node_file_name(node_id) for node_id in members]
    views = _pinned_views(executor, names)
    before = {name: groups.copy() for name, (_b, groups) in views.items()}
    report = BatchExecutor(executor, max_workers=8).run(
        queries, members, node_is_cached=True
    )
    assert report.reconciles()
    for got, want, query in zip(report.results, serial.results, queries):
        assert got.answer == want.answer == scan_answer(column, query)
    after = _pinned_views(executor, names)
    for name, (_bitmap, groups) in after.items():
        assert groups is views[name][1]
        assert np.array_equal(groups, before[name])
