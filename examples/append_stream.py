#!/usr/bin/env python3
"""Streaming ingest + OLAP aggregation on a durable, appendable index.

Extensions beyond the paper: the first batch of rows is built into a
durable base generation, and every later batch is committed as a small
delta generation by ``DeltaAppender`` (WAH fills absorb the zero tails
cheaply).  Queries and SUM/AVG aggregates run on the live index through
``QueryExecutor``, which merges the deltas on read; a compaction then
folds them back into the base, and the materialization advisor decides
which internal bitmaps would be worth keeping on disk for the observed
workload.

Run:  python examples/append_stream.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    BufferPool,
    DurableBitmapStore,
    Hierarchy,
    MaterializedNodeCatalog,
    QueryExecutor,
    RangeQuery,
    Workload,
    scan_answer,
)
from repro.core import leaf_only_plan, recommend_materialization
from repro.core.simulate import simulate_workload
from repro.storage import Compactor, DeltaAppender, DiskProfile

BATCHES = 6
BATCH_ROWS = 8_000

# A product-category hierarchy: departments -> aisles -> products.
SPEC = [[4, 4, 4], [4, 4], [4, 4, 4, 4]]


def main() -> None:
    rng = np.random.default_rng(11)
    hierarchy = Hierarchy.from_nested(SPEC)
    num_products = hierarchy.num_leaves
    weights = rng.dirichlet(np.ones(num_products) * 2)
    batches = [
        rng.choice(num_products, size=BATCH_ROWS, p=weights).astype(
            np.int64
        )
        for _ in range(BATCHES)
    ]

    with tempfile.TemporaryDirectory() as tmp:
        store = DurableBitmapStore(Path(tmp) / "index")
        print(
            f"streaming {BATCHES} batches x {BATCH_ROWS} rows over "
            f"{num_products} products ..."
        )
        MaterializedNodeCatalog(hierarchy, batches[0], store)
        print(f"  batch 1: {BATCH_ROWS:>6} rows built as the base")
        appender = DeltaAppender(store, hierarchy)
        for batch_number, batch in enumerate(batches[1:], start=2):
            result = appender.append(batch)
            print(
                f"  batch {batch_number}: {store.total_num_rows:>6} "
                f"rows indexed, delta {result.seq} wrote "
                f"{result.bytes_written} bytes"
            )
        column = np.concatenate(batches)
        amounts = rng.gamma(2.0, 25.0, size=column.size)

        # Query the live index: base + deltas merged on read.
        catalog = MaterializedNodeCatalog.from_store(hierarchy, store)
        executor = QueryExecutor(catalog, BufferPool(store))
        first_dept = hierarchy.internal_children(hierarchy.root_id)[0]
        dept = hierarchy.node(first_dept)
        query = RangeQuery(
            [(dept.leaf_lo, dept.leaf_hi)], label="dept-1 revenue"
        )
        total, result = executor.aggregate(
            leaf_only_plan(catalog, query), amounts, "sum"
        )
        average, _ = executor.aggregate(
            leaf_only_plan(catalog, query), amounts, "avg"
        )
        print(
            f"\nSUM(amount)  = {total:12.2f}  "
            f"(read {result.io_mb:.3f} MB)"
        )
        print(f"AVG(amount)  = {average:12.2f}")
        matches = executor.execute_query(query).answer
        assert matches == scan_answer(column, query)
        print(
            f"rows in department 1 (products "
            f"[{dept.leaf_lo},{dept.leaf_hi}]): {matches.count()} "
            f"(base + {len(store.delta_manifests)} deltas)"
        )

        # Fold the deltas into a new base; statistics now cover all rows.
        report = Compactor(store).run()
        print(
            f"\ncompaction folded {len(report.folded_seqs)} deltas "
            f"({report.folded_rows} rows) into the base"
        )
        catalog = MaterializedNodeCatalog.from_store(hierarchy, store)

        # What should we keep materialized for tomorrow's workload?
        workload = Workload(
            [
                RangeQuery(
                    [(node.leaf_lo, node.leaf_hi)],
                    label=f"dept-{i + 1}",
                )
                for i, node in enumerate(
                    hierarchy.node(child)
                    for child in hierarchy.internal_children(
                        hierarchy.root_id
                    )
                )
            ]
            + [RangeQuery([(0, num_products - 1)], label="all")]
        )
        plan = recommend_materialization(
            catalog, workload, disk_budget_mb=0.5
        )
        print(
            f"\nmaterialization advisor (0.5 MB disk budget): build "
            f"{len(plan.node_ids)} internal bitmaps, saving "
            f"{plan.saving_fraction:.0%} of workload IO "
            f"({plan.baseline_cost_mb:.3f} -> "
            f"{plan.optimized_cost_mb:.3f} MB)"
        )
        simulation = simulate_workload(
            catalog, workload, plan.node_ids, cache_everything=True
        )
        for profile in (DiskProfile.sata_7200(), DiskProfile.nvme()):
            seconds = simulation.estimated_seconds(profile)
            print(
                f"estimated workload time on {profile.name}: "
                f"{seconds * 1000:.1f} ms"
            )


if __name__ == "__main__":
    main()
