"""Gateway benchmark — concurrent clients through admission control.

Where :mod:`~repro.experiments.serve_bench` measures the *compute*
tier (threads, shard processes), this experiment measures the
*network-edge* tier built on top of it: the asyncio
:class:`~repro.serve.Gateway` taking many concurrent in-flight
requests, coalescing them into bounded micro-batches, and answering
under admission control.

The sweep varies the number of concurrent clients while keeping the
workload fixed, and reports for each configuration the SLO numbers an
operator would alarm on: achieved throughput, latency p50/p95/p99, and
the shed/deadline counts.  Every answered request is verified
bit-identical against a serial :class:`~repro.core.QueryExecutor`
oracle before its latency is allowed into the report — the gateway's
batching and failover machinery must never change an answer.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from pathlib import Path

from ..core.executor import QueryExecutor
from ..core.multi import select_cut_multi
from ..errors import ShardFailedError
from ..serve import (
    BatchExecutor,
    BatchReplica,
    Gateway,
    GatewayConfig,
)
from ..storage.cache import BufferPool
from ..storage.catalog import MaterializedNodeCatalog
from ..storage.faults import FaultPolicy
from ..storage.filestore import BitmapFileStore
from ..workload.datagen import sample_column
from ..workload.generator import fraction_workload
from .common import (
    ExperimentResult,
    hierarchy_for,
    leaf_probabilities_for,
)
from .serve_bench import DEFAULT_SLOW_DELAY_S, available_cpus

__all__ = ["run"]

#: Concurrent-client counts swept by default.
DEFAULT_CLIENT_COUNTS = (1, 4, 16)

#: Concurrency used by the resilience and hedge legs.
RESILIENCE_CLIENTS = 8

#: Wall-clock budget for the supervisor to re-admit the failed
#: replica during the resilience leg.
READMIT_TIMEOUT_S = 30.0


class _FlakyReplica(BatchReplica):
    """A replica that fails its first batch, then serves cleanly.

    Drives the resilience leg: the first batch raises a fleet-level
    :class:`~repro.errors.ShardFailedError` (triggering gateway
    failover), after which the replica behaves normally so the
    supervisor's canary probe passes and it is re-admitted.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._failed_once = False

    def run_batch(self, queries):
        """Fail exactly once, then delegate to the real executor."""
        if not self._failed_once:
            self._failed_once = True
            raise ShardFailedError(
                self.replica_id, "injected bench failure"
            )
        return super().run_batch(queries)


def run(
    dataset: str = "tpch",
    num_leaves: int = 20,
    num_rows: int = 100_000,
    num_queries: int = 48,
    range_fraction: float = 0.5,
    client_counts: tuple[int, ...] = DEFAULT_CLIENT_COUNTS,
    max_batch_size: int = 16,
    max_batch_delay_s: float = 0.002,
    max_queue_depth: int = 256,
    slow_delay_s: float = DEFAULT_SLOW_DELAY_S,
    workers: int = 4,
    seed: int = 11,
    parallel: int | None = None,
    shards: int | None = None,
) -> ExperimentResult:
    """Sweep concurrent clients through one gateway; report SLOs.

    Args:
        dataset: leaf distribution ("tpch", "normal", "uniform").
        num_leaves: hierarchy width (paper shapes for 20/50/100).
        num_rows: materialized column length.
        num_queries: requests issued per configuration.
        range_fraction: query range width as a fraction of the domain.
        client_counts: concurrent-client counts to sweep.
        max_batch_size: gateway micro-batch bound.
        max_batch_delay_s: gateway micro-batch flush delay.
        max_queue_depth: gateway admission bound (generous by default
            so the sweep measures latency, not shedding).
        slow_delay_s: injected per-read storage latency in seconds.
        workers: backend thread-pool width under the gateway.
        seed: column/workload seed.
        parallel: convenience override (the CLI's ``--parallel N``) —
            replaces ``workers``.
        shards: accepted for CLI uniformity; the gateway bench always
            serves through an in-process thread replica, so any value
            other than ``None``/1 raises.

    Returns:
        Rows of ``phase, clients, requests, ok, shed, deadline,
        batches, failovers, readmissions, hedges, wall_s, qps,
        p50_ms, p95_ms, p99_ms``.  The ``sweep`` phase varies
        concurrent clients over a healthy single-replica gateway; the
        ``resilience`` phase injects one fleet failure into a
        two-replica gateway and measures failover plus supervised
        re-admission; the ``hedge`` phase serves through a slow
        primary so hedged requests fire and the fast peer's answers
        win.

    Raises:
        RuntimeError: if any gateway answer diverges from the serial
            oracle, a request fails for a non-admission reason, or
            the failed replica is never re-admitted.
    """
    if parallel is not None:
        if parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {parallel}")
        workers = parallel
    if shards not in (None, 1):
        raise ValueError(
            "the gateway bench serves through a thread replica; "
            "use `hcs-experiments serve --shards N` for the shard "
            "sweep"
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
            "Gateway: concurrent clients through admission control "
            "and micro-batching"
        ),
        columns=[
            "phase",
            "clients",
            "requests",
            "ok",
            "shed",
            "deadline",
            "batches",
            "failovers",
            "readmissions",
            "hedges",
            "wall_s",
            "qps",
            "p50_ms",
            "p95_ms",
            "p99_ms",
        ],
        notes=[
            f"dataset={dataset} num_leaves={num_leaves} "
            f"num_rows={num_rows} num_queries={num_queries} "
            f"range_fraction={range_fraction} "
            f"slow_delay_s={slow_delay_s} seed={seed}",
            f"gateway max_batch_size={max_batch_size} "
            f"max_batch_delay_s={max_batch_delay_s} "
            f"max_queue_depth={max_queue_depth} "
            f"backend_workers={workers}",
            "every answered request verified bit-identical to the "
            "serial QueryExecutor oracle before its latency counts",
            f"host_cpus={available_cpus()}",
        ],
    )
    fault_kwargs = dict(
        seed=seed, slow_rate=1.0, slow_delay_s=slow_delay_s
    )
    with tempfile.TemporaryDirectory() as tmp:
        store = BitmapFileStore(
            Path(tmp) / "column",
            fault_policy=FaultPolicy(**fault_kwargs),
        )
        catalog = MaterializedNodeCatalog(hierarchy, column, store)
        cut = select_cut_multi(catalog, workload).cut.node_ids
        budget = sum(
            store.size_bytes(catalog.file_name(node_id))
            for node_id in cut
        )
        # Serial oracle over a fault-free twin of the same column.
        oracle_store = BitmapFileStore(Path(tmp) / "oracle")
        oracle_catalog = MaterializedNodeCatalog(
            hierarchy, column, oracle_store
        )
        oracle_executor = QueryExecutor(
            oracle_catalog,
            BufferPool(oracle_store, budget_bytes=budget),
        )
        oracle_answers = [
            oracle_executor.execute_query(query, cut).answer
            for query in workload
        ]
        for clients in client_counts:
            executor = QueryExecutor(
                catalog, BufferPool(store, budget_bytes=budget)
            )
            replica = BatchReplica(
                0, BatchExecutor(executor, max_workers=workers), cut
            )
            config = GatewayConfig(
                max_batch_size=max_batch_size,
                max_batch_delay_s=max_batch_delay_s,
                max_queue_depth=max_queue_depth,
            )
            wall, stats = asyncio.run(
                _drive(
                    [replica],
                    config,
                    list(workload),
                    oracle_answers,
                    clients,
                )
            )
            _add_row(result, "sweep", clients, wall, stats)

        # Resilience leg: two replicas, one injected fleet failure —
        # the gateway fails over, the supervisor probes and
        # re-admits, and a second wave confirms the healed fleet.
        def _replica(replica_cls, replica_id):
            backend = QueryExecutor(
                catalog, BufferPool(store, budget_bytes=budget)
            )
            return replica_cls(
                replica_id,
                BatchExecutor(backend, max_workers=workers),
                cut,
            )

        resilience_config = GatewayConfig(
            max_batch_size=max_batch_size,
            max_batch_delay_s=max_batch_delay_s,
            max_queue_depth=max_queue_depth,
            max_probe_attempts=10,
            probe_backoff_base_s=0.01,
            probe_backoff_max_s=0.1,
            probe_jitter=0.0,
            supervisor_interval_s=0.01,
        )
        wall, stats = asyncio.run(
            _drive_resilience(
                _replica(_FlakyReplica, 0),
                _replica(BatchReplica, 1),
                resilience_config,
                list(workload),
                oracle_answers,
                RESILIENCE_CLIENTS,
            )
        )
        _add_row(result, "resilience", RESILIENCE_CLIENTS, wall, stats)

        # Hedge leg: the primary serves through the fault-injected
        # (slow) store while the peer serves a fault-free twin, so
        # batches stuck behind slow reads hedge to the fast replica.
        fast_backend = QueryExecutor(
            oracle_catalog,
            BufferPool(oracle_store, budget_bytes=budget),
        )
        hedge_config = GatewayConfig(
            max_batch_size=max_batch_size,
            max_batch_delay_s=max_batch_delay_s,
            max_queue_depth=max_queue_depth,
            hedge_delay_s=max(slow_delay_s, 1e-4),
            max_probe_attempts=0,
        )
        wall, stats = asyncio.run(
            _drive(
                [
                    _replica(BatchReplica, 0),
                    BatchReplica(
                        1,
                        BatchExecutor(
                            fast_backend, max_workers=workers
                        ),
                        cut,
                    ),
                ],
                hedge_config,
                list(workload),
                oracle_answers,
                RESILIENCE_CLIENTS,
            )
        )
        _add_row(result, "hedge", RESILIENCE_CLIENTS, wall, stats)
    return result


def _add_row(result, phase, clients, wall, stats) -> None:
    """Fold one gateway run's stats into an experiment row."""
    result.add_row(
        phase=phase,
        clients=clients,
        requests=stats.requests_total,
        ok=stats.ok,
        shed=stats.shed,
        deadline=(stats.deadline_queued + stats.deadline_inflight),
        batches=stats.batches,
        failovers=stats.failovers,
        readmissions=stats.readmissions,
        hedges=stats.hedges,
        wall_s=wall,
        qps=stats.ok / wall if wall > 0 else 0.0,
        p50_ms=stats.latency_p50_s * 1e3,
        p95_ms=stats.latency_p95_s * 1e3,
        p99_ms=stats.latency_p99_s * 1e3,
    )


async def _drive(
    replicas: list,
    config: GatewayConfig,
    queries: list,
    oracle_answers: list,
    clients: int,
) -> tuple[float, object]:
    """Issue the workload through ``clients`` concurrent submitters;
    verify every answer; return (wall seconds, gateway stats)."""
    async with Gateway(
        replicas, config, close_replicas_on_exit=False
    ) as gateway:
        started = time.perf_counter()
        await _issue_wave(gateway, queries, oracle_answers, clients)
        wall = time.perf_counter() - started
        return wall, gateway.stats()


async def _drive_resilience(
    flaky: BatchReplica,
    healthy: BatchReplica,
    config: GatewayConfig,
    queries: list,
    oracle_answers: list,
    clients: int,
) -> tuple[float, object]:
    """Run the failover/re-admission scenario: a first wave through a
    fleet whose replica 0 fails its opening batch (failover), a wait
    for the supervisor to probe and re-admit it, and a second wave
    through the healed fleet.  Every answer of both waves is oracle
    verified."""
    async with Gateway(
        [flaky, healthy], config, close_replicas_on_exit=False
    ) as gateway:
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        await _issue_wave(gateway, queries, oracle_answers, clients)
        deadline = loop.time() + READMIT_TIMEOUT_S
        while gateway.replica_states() != {0: "active", 1: "active"}:
            if loop.time() > deadline:
                raise RuntimeError(
                    "the failed replica was never re-admitted "
                    f"(states {gateway.replica_states()})"
                )
            await asyncio.sleep(0.01)
        await _issue_wave(gateway, queries, oracle_answers, clients)
        wall = time.perf_counter() - started
        return wall, gateway.stats()


async def _issue_wave(
    gateway: Gateway,
    queries: list,
    oracle_answers: list,
    clients: int,
) -> None:
    """Submit the whole workload through ``clients`` concurrent
    submitters and verify every answer bit-identical to the oracle."""
    semaphore = asyncio.Semaphore(clients)

    async def one(index: int):
        async with semaphore:
            return await gateway.submit(queries[index])

    results = await asyncio.gather(
        *(one(index) for index in range(len(queries)))
    )
    for index, result in enumerate(results):
        if result.answer != oracle_answers[index]:
            raise RuntimeError(
                f"request {index} diverged from the serial "
                f"oracle at {clients} clients"
            )
