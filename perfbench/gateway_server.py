"""Gateway process of the ``gateway-sharded-open`` workload.

Reads the column and the query set from ``--work``, builds a
``ShardedExecutor`` fleet over them under ``--store``, prepares it on
the query set, and serves it through a ``Gateway`` on a TCP port of
localhost.
Protocol on stdio: prints ``{"ready": port}`` once serving; answers
each ``cpu`` line on stdin with ``{"cpu_s": s}``, the CPU seconds the
gateway process and its shard workers have run so far; on a ``stop``
line prints one JSON line with the run's server-side figures and
exits.

Every batch the gateway hands to the fleet is checked: its
``ShardedBatchReport`` must reconcile.  With ``--trace 1`` the gateway
entry points record spans, written to ``<work>/server_spans.jsonl``.

Run as a script (the fleet's spawned workers re-import it, hence the
``__main__`` guard).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from repro import RangeQuery  # noqa: E402
from repro.serve import (  # noqa: E402
    Gateway,
    GatewayConfig,
    ShardedExecutor,
    ShardedReplica,
)
from repro.workload.query import Workload  # noqa: E402

from common import (  # noqa: E402
    Scale,
    hierarchy,
    peak_rss_mb,
    reset_peak_rss,
    tasks_cpu_s,
)
from tracer import Tracer  # noqa: E402

import layers  # noqa: E402


class BatchChecks:
    """Wraps ``ShardedReplica.run_batch`` to check every batch's IO
    reconciliation, traced or not."""

    def __init__(self) -> None:
        self.batches = 0
        self.unreconciled = 0
        self._original = ShardedReplica.run_batch

    def install(self) -> None:
        original = self._original

        def run_batch(replica, queries):
            report = original(replica, queries)
            self.batches += 1
            if not report.reconciles():
                self.unreconciled += 1
            return report

        ShardedReplica.run_batch = run_batch


def _install_tracing(tracer: Tracer) -> None:
    tracer.wrap(
        Gateway,
        "submit",
        "serve.gateway.submit",
        enter=lambda args, kwargs: (args, kwargs, {"label": args[1].label}),
    )
    tracer.wrap(
        ShardedReplica,
        "run_batch",
        "serve.sharded.run_batch",
        enter=lambda args, kwargs: (
            args,
            kwargs,
            {"labels": [query.label for query in args[1]]},
        ),
        leave=lambda args, report: {
            "shard_max_s": max(
                shard.wall_seconds for shard in report.shard_reports
            ),
        },
    )
    layers.install_bitmap_layers(tracer)


async def _serve(executor: ShardedExecutor, work: Path, trace: bool):
    checks = BatchChecks()
    checks.install()
    tracer = Tracer()
    if trace:
        _install_tracing(tracer)
    gateway = Gateway([ShardedReplica(0, executor)], GatewayConfig())
    await gateway.start()
    server = await gateway.serve_tcp()
    pids = [os.getpid()] + [
        process.pid for process in executor.worker_processes
    ]
    for pid in pids:
        reset_peak_rss(pid)
    port = server.sockets[0].getsockname()[1]
    print(json.dumps({"ready": port}), flush=True)
    loop = asyncio.get_running_loop()
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        if line.strip() == "cpu":
            cpu_s = time.process_time() + sum(map(tasks_cpu_s, pids[1:]))
            print(json.dumps({"cpu_s": cpu_s}), flush=True)
            continue
        if line.strip() == "stop" or not line:
            break
    peak = sum(peak_rss_mb(pid) for pid in pids)
    server.close()
    await server.wait_closed()
    await gateway.aclose()
    tracer.restore()
    if trace:
        tracer.write(work / "server_spans.jsonl")
    stats = gateway.stats()
    return {
        "peak_rss_mb": peak,
        "batches": checks.batches,
        "unreconciled": checks.unreconciled,
        "failovers": stats.failovers,
        "shed": stats.shed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--store", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((args.work / "gateway.json").read_text())
    scale = Scale(**spec["scale"])
    column = np.load(args.work / "column.npy")
    queries = [
        RangeQuery([tuple(r) for r in ranges], label=f"q{i}")
        for i, ranges in enumerate(spec["queries"])
    ]
    executor = ShardedExecutor.build(
        hierarchy(scale),
        column,
        scale.gateway_shards,
        args.store,
        threads_per_shard=scale.gateway_threads_per_shard,
    )
    try:
        executor.start()
        executor.prepare(Workload(queries))
        summary = asyncio.run(_serve(executor, args.work, bool(args.trace)))
    finally:
        executor.close()
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
