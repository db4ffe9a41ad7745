"""Serving benchmark — concurrent Case-2 workloads, threads and shards.

The paper's experiments are single-threaded: one query at a time over
one buffer pool.  This benchmark measures what the serving layer buys
on top of that, in two regimes:

* **Thread sweep** — a Case-2 workload (many queries, one pinned
  Alg.-3 cut) executed by :class:`~repro.serve.BatchExecutor` at
  increasing worker counts against a *materialized* catalog whose
  storage simulates per-read disk latency
  (``FaultPolicy(slow_rate=1.0)``; ``time.sleep`` releases the GIL, so
  overlapping reads parallelize the way real disk/network IO does).
* **Shard sweep** — the same workload scatter-gathered by
  :class:`~repro.serve.ShardedExecutor` across N worker *processes*
  (each with its own store, pool, per-shard cut, and M local threads).
  Processes sidestep the GIL on the WAH decode/union CPU that caps the
  thread sweep, so on a multi-core host the sharded configurations can
  pass the thread ceiling at equal total worker count.

Every concurrent run is checked against the 1-worker oracle —
bit-identical answers, exact IO reconciliation (cross-process for the
shard rows) — before its wall-clock time is reported, so the speedup
column never comes from a run that cut corners.
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path

from ..core.executor import QueryExecutor
from ..core.multi import select_cut_multi
from ..serve import BatchExecutor, BatchReport, ShardedExecutor
from ..storage.cache import BufferPool
from ..storage.catalog import MaterializedNodeCatalog
from ..storage.costmodel import MB
from ..storage.faults import FaultPolicy
from ..storage.filestore import BitmapFileStore
from ..workload.datagen import sample_column
from ..workload.generator import fraction_workload
from .common import (
    ExperimentResult,
    hierarchy_for,
    leaf_probabilities_for,
)

__all__ = ["available_cpus", "run"]

#: Default per-read latency (seconds) injected by the slow-read fault
#: policy.  2ms sits between NVMe and networked block storage; it is
#: large enough that IO dominates the Python compute and the worker
#: sweep measures IO overlap, not GIL contention.
DEFAULT_SLOW_DELAY_S = 0.002

#: Default shard-count × threads-per-shard configurations, all at 8
#: total workers — comparable against the thread sweep's 8-worker row.
DEFAULT_SHARD_CONFIGS = ((2, 4), (4, 2), (8, 1))


def available_cpus() -> int:
    """CPU cores usable by this process (affinity-aware).

    The shard sweep's process-level parallelism is bounded by this:
    on a single-core host every shard process time-slices one CPU, so
    the sharded rows cannot beat the thread ceiling there — consumers
    gate speedup comparisons on it (recorded in the bench notes).
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run(
    dataset: str = "tpch",
    num_leaves: int = 20,
    num_rows: int = 100_000,
    num_queries: int = 48,
    range_fraction: float = 0.5,
    worker_counts: tuple[int, ...] = (1, 2, 4, 8),
    slow_delay_s: float = DEFAULT_SLOW_DELAY_S,
    seed: int = 11,
    parallel: int | None = None,
    shard_configs: tuple[tuple[int, int], ...] = DEFAULT_SHARD_CONFIGS,
    shards: int | None = None,
) -> ExperimentResult:
    """Measure batch wall-clock time and speedup per configuration.

    Args:
        dataset: leaf distribution ("tpch", "normal", "uniform").
        num_leaves: hierarchy width (paper shapes for 20/50/100).
        num_rows: materialized column length.
        num_queries: Case-2 workload size.
        range_fraction: query range width as a fraction of the domain.
        worker_counts: thread counts to sweep; must start at 1 (the
            serial oracle every other run is verified against).
        slow_delay_s: injected per-read storage latency in seconds.
        seed: column/workload seed.
        parallel: convenience override (the CLI's ``--parallel N``) —
            replaces ``worker_counts`` with ``(1, N)`` and sets the
            threads-per-shard of an explicit ``shards`` request.
        shard_configs: ``(num_shards, threads_per_shard)`` pairs for
            the scatter-gather sweep (empty tuple skips it).
        shards: convenience override (the CLI's ``--shards N``) —
            replaces ``shard_configs`` with the single configuration
            ``(N, parallel or 1)``; ``1`` skips the shard sweep.

    Returns:
        Rows of ``mode, shards, workers, wall_s, speedup, io_mb,
        queries_per_s`` — ``mode`` is ``threads`` or ``sharded``;
        ``workers`` is total workers (shards × threads for sharded
        rows).

    Raises:
        RuntimeError: if a concurrent run disagrees with the serial
            oracle or its IO accounting fails to reconcile.
    """
    if parallel is not None:
        if parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {parallel}")
        worker_counts = (1, parallel) if parallel != 1 else (1,)
    if shards is not None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        shard_configs = (
            ((shards, parallel or 1),) if shards > 1 else ()
        )
    if not worker_counts or worker_counts[0] != 1:
        raise ValueError(
            "worker_counts must start with 1 (the serial oracle), "
            f"got {worker_counts!r}"
        )
    for num_shards, threads in shard_configs:
        if num_shards < 2 or threads < 1:
            raise ValueError(
                f"shard configs need >= 2 shards and >= 1 thread, "
                f"got {(num_shards, threads)!r}"
            )
    hierarchy = hierarchy_for(num_leaves)
    column = sample_column(
        leaf_probabilities_for(dataset, hierarchy.num_leaves),
        num_rows,
        seed=seed,
    )
    workload = fraction_workload(
        hierarchy.num_leaves, range_fraction, num_queries, seed=seed
    )
    result = ExperimentResult(
        title=(
            "Serving: Case-2 batch wall clock vs workers "
            "(threads and shard processes)"
        ),
        columns=[
            "mode",
            "shards",
            "workers",
            "wall_s",
            "speedup",
            "io_mb",
            "queries_per_s",
        ],
        notes=[
            f"dataset={dataset} num_leaves={num_leaves} "
            f"num_rows={num_rows} num_queries={num_queries} "
            f"range_fraction={range_fraction} "
            f"slow_delay_s={slow_delay_s} seed={seed}",
            "answers verified bit-identical to the 1-worker oracle; "
            "IO reconciled per run (pin + per-query == shared delta; "
            "per-shard and cross-process for sharded rows)",
            f"host_cpus={available_cpus()} (sharded rows only beat "
            f"the thread ceiling when processes get real cores)",
        ],
    )
    fault_kwargs = dict(
        seed=seed, slow_rate=1.0, slow_delay_s=slow_delay_s
    )
    with tempfile.TemporaryDirectory() as tmp:
        store = BitmapFileStore(
            Path(tmp) / "whole",
            fault_policy=FaultPolicy(**fault_kwargs),
        )
        catalog = MaterializedNodeCatalog(hierarchy, column, store)
        cut = select_cut_multi(catalog, workload).cut.node_ids
        # Budget exactly the pinned cut: non-cut reads stream (the
        # paper's Case-3 execution, §2.3.4), so every query keeps
        # paying real IO and the sweep measures IO overlap rather than
        # a fully warmed cache.
        budget = sum(
            store.size_bytes(catalog.file_name(node_id))
            for node_id in cut
        )
        oracle: BatchReport | None = None
        for workers in worker_counts:
            executor = QueryExecutor(
                catalog, BufferPool(store, budget_bytes=budget)
            )
            batch = BatchExecutor(executor, max_workers=workers)
            started = time.perf_counter()
            report = batch.run(workload, cut)
            wall = time.perf_counter() - started
            _verify(report, oracle, workers)
            if oracle is None:
                oracle = report
            result.add_row(
                mode="threads",
                shards=1,
                workers=workers,
                wall_s=wall,
                speedup=oracle.wall_seconds / report.wall_seconds,
                io_mb=report.io.bytes_read / MB,
                queries_per_s=num_queries / wall,
            )
        assert oracle is not None
        built_shards: dict[int, ShardedExecutor] = {}
        for num_shards, threads in shard_configs:
            if num_shards not in built_shards:
                built_shards[num_shards] = ShardedExecutor.build(
                    hierarchy,
                    column,
                    num_shards,
                    Path(tmp) / f"shards_{num_shards}",
                    fault_policy_kwargs=fault_kwargs,
                )
            base = built_shards[num_shards]
            sharded = ShardedExecutor(
                hierarchy,
                base.shard_specs,
                threads_per_shard=threads,
                fault_policy_kwargs=fault_kwargs,
            )
            with sharded:
                sharded.prepare(workload)
                report = sharded.run(workload)
            _verify_sharded(report, oracle, num_shards, threads)
            wall = report.wall_seconds
            result.add_row(
                mode="sharded",
                shards=num_shards,
                workers=num_shards * threads,
                wall_s=wall,
                speedup=oracle.wall_seconds / wall,
                io_mb=report.io.bytes_read / MB,
                queries_per_s=num_queries / wall,
            )
    return result


def _verify(
    report: BatchReport, oracle: BatchReport | None, workers: int
) -> None:
    """Fail loudly if a run's answers or accounting are wrong."""
    if not report.reconciles():
        raise RuntimeError(
            f"IO accounting failed to reconcile at {workers} workers: "
            f"pin {report.pin_io.bytes_read} B + attributed "
            f"{report.attributed_bytes} B != total "
            f"{report.io.bytes_read} B"
        )
    if oracle is None:
        return
    for ours, theirs in zip(report.outcomes, oracle.outcomes):
        if ours.result.answer != theirs.result.answer:
            raise RuntimeError(
                f"query {ours.index} answer diverged from the serial "
                f"oracle at {workers} workers"
            )


def _verify_sharded(
    report, oracle: BatchReport, num_shards: int, threads: int
) -> None:
    """Cross-process verification for one sharded configuration."""
    label = f"{num_shards} shards x {threads} threads"
    if not report.reconciles():
        raise RuntimeError(
            f"sharded IO accounting failed to reconcile across "
            f"process boundaries at {label}"
        )
    for ours, theirs in zip(report.outcomes, oracle.outcomes):
        if ours.result.answer != theirs.result.answer:
            raise RuntimeError(
                f"query {ours.index} merged answer diverged from the "
                f"serial oracle at {label}"
            )
