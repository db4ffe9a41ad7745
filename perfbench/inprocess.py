"""The two in-process closed-loop workloads: ``case2-wide`` and
``ingest-mixed``.  One client calls the executor directly; the next
query starts when the previous answer has been materialized and
checked."""

from __future__ import annotations

import os
import shutil
import time
from contextlib import ExitStack
from pathlib import Path

import numpy as np

from repro.core.executor import QueryExecutor
from repro.core.multi import select_cut_multi
from repro.obs import collecting_metrics
from repro.storage.cache import BufferPool
from repro.storage.catalog import MaterializedNodeCatalog, node_file_name
from repro.storage.compactor import Compactor
from repro.storage.delta import DeltaAppender
from repro.storage.filestore import BitmapFileStore
from repro.storage.manifest import DurableBitmapStore
from repro.workload.query import Workload

import layers
from common import (
    MB,
    BenchmarkError,
    Reference,
    Result,
    Scale,
    check_answer,
    hierarchy,
    make_column,
    median,
    oracle_positions,
    peak_rss_mb,
    reset_peak_rss,
    spaced_range_queries,
)
from tracer import Tracer


def _timed_setups(reps: int, work: Path, build):
    """Run ``build(directory)`` ``reps`` times in fresh directories and
    keep the last result; returns ``(result, median seconds)``.

    Set-up is repeated because one index build is a single noisy
    sample; earlier builds are deleted outside the timed region.
    """
    seconds = []
    built = None
    for rep in range(reps):
        directory = work / f"setup{rep}"
        if built is not None:
            shutil.rmtree(work / f"setup{rep - 1}")
        started = time.perf_counter()
        built = build(directory)
        seconds.append(time.perf_counter() - started)
    return built, median(seconds)


class _Loop:
    """Closed-loop bookkeeping: latencies, IO, the time of queries and
    appends in seconds and in reference-kernel units, and the time
    spent on oracle checks and the kernel (both excluded from the
    timed wall clock)."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.reference = Reference()
        self.busy_s = 0.0
        self.io_bytes = 0
        self.check_s = 0.0

    def timed(self, operation) -> float:
        """Run ``operation()`` between reference samples; returns its
        wall time."""
        seconds = self.reference.timed(operation)
        self.busy_s += seconds
        return seconds

    def query(self, executor, query, cut, cached, expected, what) -> None:
        tracer = self.tracer
        done = {}

        def run() -> None:
            if tracer is not None:
                tracer.request = len(self.latencies)
                span = tracer.open(layers.QUERY_ROOT)
            done["result"] = executor.execute_query(
                query, cut, node_is_cached=cached
            )
            done["positions"] = done["result"].answer.to_positions()
            if tracer is not None:
                tracer.close(span)

        elapsed = self.timed(run)
        check_started = time.perf_counter()
        check_answer(done["positions"], expected, what)
        self.check_s += time.perf_counter() - check_started
        self.latencies.append(elapsed)
        self.io_bytes += done["result"].io_bytes


def _finish(
    result: Result,
    loop: _Loop,
    wall: float,
    setup_s: float,
    tracer: Tracer | None,
    counters: dict,
    work: Path,
) -> None:
    """Fill end-to-end metrics (untraced) or per-layer ones (traced).

    ``query_time_rel`` is the time of all timed operations, in
    reference-kernel units, per answered query: on ``ingest-mixed``
    each query carries its share of the appends.
    """
    answered = len(loop.latencies)
    result.attempted = answered
    rel = loop.reference.work_rel() / answered
    result.notes.update(
        samples=answered,
        qps=answered / (wall - loop.check_s - loop.reference.total_s()),
        query_p50_ms=median(loop.latencies) * 1e3,
        query_ms=loop.busy_s / answered * 1e3,
        reference_ms=loop.reference.unit_s() * 1e3,
    )
    if tracer is None:
        result.put("setup_s", setup_s, "s")
        result.put("query_time_rel", rel, "ratio")
        result.put("io_mb_per_query", loop.io_bytes / answered / MB, "MB")
        result.put("ok_ratio", answered / result.attempted, "ratio")
        result.put("peak_rss_mb", peak_rss_mb(os.getpid()), "MB")
        return
    tracer.write(work / "spans.jsonl")
    _check_counters(tracer, counters)
    per_layer, covered = layers.inprocess_metrics(tracer.spans, answered)
    for name, (value, unit) in per_layer.items():
        result.put(name, value, unit)
    result.put("trace.query_time_rel", rel, "ratio")
    result.put("trace.layer_sum_ratio", covered, "ratio")
    result.put("bench.samples", answered, "count")


def _check_counters(tracer: Tracer, counters: dict) -> None:
    """Check the wrappers against the program's own counters: a
    mismatch means a call went through a binding that was not
    patched."""
    decode_spans = sum(
        1 for span in tracer.spans if span.name == layers.DECODE
    )
    if decode_spans != counters["decode_observations"]:
        raise BenchmarkError(
            f"{decode_spans} decode spans but the executor observed "
            f"{counters['decode_observations']} decode_seconds samples"
        )
    read_bytes = sum(
        span.attrs["bytes"]
        for span in tracer.spans
        if span.name == layers.READ
    )
    if read_bytes != counters["pool_bytes_read"]:
        raise BenchmarkError(
            f"store reads traced {read_bytes} B but the pool "
            f"accountant charged {counters['pool_bytes_read']} B"
        )


def _measure(tracer: Tracer | None, pool: BufferPool, body) -> tuple:
    """Run the timed phase ``body()``, with tracing and the program's
    metrics registry on when ``tracer`` is given; returns the wall
    clock and the counters the traced run is checked against."""
    before = pool.accountant.bytes_read
    with ExitStack() as stack:
        registry = None
        if tracer is not None:
            stack.enter_context(tracer)
            layers.install_inprocess_layers(tracer)
            registry = stack.enter_context(collecting_metrics())
        reset_peak_rss(os.getpid())
        started = time.perf_counter()
        body()
        wall = time.perf_counter() - started
    counters = {
        "pool_bytes_read": pool.accountant.bytes_read - before,
        "decode_observations": (
            registry.histogram("decode_seconds").count if registry else 0
        ),
    }
    return wall, counters


# -- case2-wide ----------------------------------------------------------
def case2_wide(
    scale: Scale, seed: int, seconds: float, trace: bool, work: Path
) -> Result:
    """Case 2: wide queries replayed against one pinned Alg.-3 cut."""
    rng = np.random.default_rng(seed)
    tree = hierarchy(scale)
    column = make_column(scale, scale.rows, seed)
    queries = [
        spaced_range_queries(
            scale, scale.case2_fraction, scale.case2_queries
        )[i]
        for i in rng.permutation(scale.case2_queries)
    ]
    expected = [oracle_positions(column, query) for query in queries]

    def build(directory: Path):
        store = BitmapFileStore(directory)
        catalog = MaterializedNodeCatalog(tree, column, store)
        cut = select_cut_multi(catalog, Workload(queries)).cut.node_ids
        # Budget exactly the pinned cut, so reads outside it stream
        # from the store (the paper's Case 2 over a bounded pool).
        budget = sum(store.size_bytes(node_file_name(n)) for n in cut)
        pool = BufferPool(store, budget_bytes=budget)
        executor = QueryExecutor(catalog, pool)
        executor.pin_cut(cut)
        return executor, pool, tuple(cut)

    (executor, pool, cut), setup_s = _timed_setups(
        scale.setup_reps, work, build
    )
    pin_bytes = pool.accountant.bytes_read
    loop = _Loop(Tracer() if trace else None)

    def body() -> None:
        # Whole passes only: the cost of a query varies several-fold
        # with where its range falls, so a partial pass would weigh a
        # seed-dependent subset of the queries.
        deadline = time.perf_counter() + seconds
        index = 0
        while index % len(queries) or time.perf_counter() < deadline:
            slot = index % len(queries)
            loop.query(
                executor,
                queries[slot],
                cut,
                True,
                expected[slot],
                f"case2-wide query {index} ({queries[slot]!r})",
            )
            index += 1

    wall, counters = _measure(loop.tracer, pool, body)
    if pin_bytes + loop.io_bytes != pool.accountant.bytes_read:
        raise BenchmarkError(
            f"IO does not reconcile: pin {pin_bytes} B + queries "
            f"{loop.io_bytes} B != pool {pool.accountant.bytes_read} B"
        )
    result = Result(notes={"cut_size": len(cut)})
    _finish(result, loop, wall, setup_s, loop.tracer, counters, work)
    return result


# -- ingest-mixed --------------------------------------------------------
def ingest_mixed(
    scale: Scale, seed: int, seconds: float, trace: bool, work: Path
) -> Result:
    """Appends, merge-on-read queries and foreground compactions over
    a durable store, in one closed loop."""
    rng = np.random.default_rng(seed)
    tree = hierarchy(scale)
    base = make_column(scale, scale.rows, seed)
    queries = [
        spaced_range_queries(
            scale, scale.ingest_fraction, scale.ingest_queries
        )[i]
        for i in rng.permutation(scale.ingest_queries)
    ]
    # Far more batches than a run appends: one cycle (two appends and
    # a compaction) takes longer than the run at full scale.
    max_batches = 64
    appended = make_column(
        scale, max_batches * scale.ingest_batch_rows, seed + 1
    )
    full = np.concatenate((base, appended))
    expected_full = [oracle_positions(full, query) for query in queries]

    def expected(slot: int, total_rows: int) -> np.ndarray:
        positions = expected_full[slot]
        return positions[: np.searchsorted(positions, total_rows)]

    def build(directory: Path):
        store = DurableBitmapStore(directory)
        catalog = MaterializedNodeCatalog(tree, base, store)
        return store, catalog

    (store, catalog), setup_s = _timed_setups(
        scale.setup_reps, work, build
    )
    # No pinned cut and a zero budget: every query reads its bases and
    # deltas from the store, so merge-on-read cost is measured, and a
    # compaction can never leave a stale pinned base behind.
    pool = BufferPool(store, budget_bytes=0)
    executor = QueryExecutor(catalog, pool)
    appender = DeltaAppender(store, tree)
    compactor = Compactor(store)
    loop = _Loop(Tracer() if trace else None)
    batch_rows = scale.ingest_batch_rows
    appends: list[float] = []
    compactions: list[float] = []

    def body() -> None:
        deadline = time.perf_counter() + seconds
        rows = scale.rows
        index = 0

        def query_round() -> None:
            nonlocal index
            for _ in range(scale.ingest_queries_per_append):
                slot = index % len(queries)
                loop.query(
                    executor,
                    queries[slot],
                    (),
                    False,
                    expected(slot, rows),
                    f"ingest-mixed query {index} after {len(appends)} "
                    f"appends ({queries[slot]!r})",
                )
                index += 1

        # Each compaction cycle reads the delta-free base, then one and
        # two live deltas, with as many queries in each state.
        while not appends or time.perf_counter() < deadline:
            query_round()
            for _ in range(scale.ingest_appends_per_compaction):
                batch = len(appends)
                if batch == max_batches:
                    raise BenchmarkError("ran out of appended batches")
                first = batch * batch_rows
                rows_in = appended[first : first + batch_rows]
                appends.append(loop.timed(lambda: appender.append(rows_in)))
                rows += batch_rows
                query_round()
            # Not counted in query_time_rel: one compaction's time
            # varies by 10-50% between runs, and between compactions of
            # one run, where the reference kernel around it and a
            # kernel run beside it on the other core hold steady.
            started = time.perf_counter()
            compactor.run()
            compactions.append(time.perf_counter() - started)

    wall, counters = _measure(loop.tracer, pool, body)
    if loop.io_bytes != pool.accountant.bytes_read:
        raise BenchmarkError(
            f"IO does not reconcile: queries {loop.io_bytes} B != "
            f"pool {pool.accountant.bytes_read} B"
        )
    if store.total_num_rows != scale.rows + len(appends) * batch_rows:
        raise BenchmarkError(
            f"store holds {store.total_num_rows} rows after "
            f"{len(appends)} appends of {batch_rows} to {scale.rows}"
        )
    result = Result(
        notes={
            "appends": len(appends),
            "compactions": len(compactions),
            "append_rows_per_s": len(appends) * batch_rows / sum(appends),
            "compact_s": median(compactions),
        }
    )
    _finish(result, loop, wall, setup_s, loop.tracer, counters, work)
    return result
