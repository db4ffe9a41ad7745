"""The ``gateway-sharded-open`` workload: an open loop of pipelined
JSON-lines requests over TCP to a gateway process fronting a sharded
fleet.  The gateway itself runs ``gateway_server.py``.

The gated time is the serving CPU time per answered request - the
gateway process's and its shard workers', read between rounds - in
units of the reference kernel sampled on both sides of each round.
Request latencies, timed from each request's due time, go to the
result's notes: four processes share the host's two cores with the
load generator, so their wall clock varies with scheduling and with
the neighbours' load far beyond any useful bound."""

from __future__ import annotations

import asyncio
import json
import math
import os
import selectors
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from common import (
    MB,
    BenchmarkError,
    Reference,
    Result,
    Scale,
    check_answer,
    make_column,
    median,
    oracle_positions,
    spaced_range_queries,
)

SERVER = Path(__file__).resolve().parent / "gateway_server.py"
READY_TIMEOUT_S = 150.0
STOP_TIMEOUT_S = 60.0
#: Head start of the first arrival after a round's origin.
LEAD_S = 0.05
#: Reference kernel samples on each side of a round.
REFERENCE_BLOCK = 10
#: Draws the order of a round's arrival gaps, the same in every run.
SCHEDULE_SEED = 0


class Server:
    """One gateway process; :meth:`stop` always reaps it."""

    def __init__(self, work: Path, store: Path, trace: bool):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(SERVER),
                "--work",
                str(work),
                "--store",
                str(store),
                "--trace",
                str(int(trace)),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            self.port = self._line(READY_TIMEOUT_S)["ready"]
        except BaseException:
            self.kill()
            raise
        self.start_s = time.perf_counter() - started

    def _line(self, timeout: float) -> dict:
        """The server's next stdout line, as JSON."""
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise BenchmarkError(
                    f"gateway process silent for {timeout:.0f}s"
                )
        line = self.process.stdout.readline()
        if not line:
            raise BenchmarkError(
                f"gateway process exited with {self.process.wait()}"
            )
        return json.loads(line)

    def cpu_s(self) -> float:
        """CPU seconds the gateway and its shard workers have run."""
        self.process.stdin.write("cpu\n")
        self.process.stdin.flush()
        return self._line(STOP_TIMEOUT_S)["cpu_s"]

    def stop(self) -> dict:
        """Ask the server to stop; returns its closing summary."""
        try:
            self.process.stdin.write("stop\n")
            self.process.stdin.flush()
            summary = self._line(STOP_TIMEOUT_S)
            self.process.wait(STOP_TIMEOUT_S)
            return summary
        finally:
            self.kill()

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()


def _round(scale: Scale, seconds: float) -> np.ndarray:
    """Arrival times of one round, ``seconds / rounds`` long, at the
    offered rate, with Poisson-like gaps: the exponential
    distribution's quantiles at evenly spaced levels, in an order
    drawn once from :data:`SCHEDULE_SEED`, scaled so that a gap after
    the last arrival would end the round.

    The schedule is part of the workload, like its query set: a round
    holds few requests, and with seeded gaps one seed's requests
    queued behind each other far more than another's (a 0.2 spread of
    mean latency over five seeds).  The run's seed still draws the
    column and which query arrives when.
    """
    length = seconds / scale.gateway_rounds
    count = max(1, round(scale.gateway_rate_qps * length))
    levels = (np.arange(count + 1) + 0.5) / (count + 1)
    order = np.random.default_rng(SCHEDULE_SEED).permutation(count + 1)
    gaps = -np.log1p(-levels[order])
    return np.cumsum(gaps)[:-1] * (length / gaps.sum())


def _zipf_mix(
    count: int, draws: int, s: float, rng: np.random.Generator
) -> np.ndarray:
    """``draws`` query indices whose counts follow Zipf popularity
    over ``count`` queries exactly (largest-remainder rounding), in
    seeded random order.

    Matching the popularity instead of sampling it keeps every run's
    query mix equal; a run holds few requests, and sampled mixes would
    differ more between seeds than any change to the program.  Rank
    ``k`` goes to query ``k * 13 mod count``, so popular ranges are
    spread over the domain rather than packed at one end.
    """
    if math.gcd(13, count) != 1:
        raise ValueError(f"{count} queries share a factor with 13")
    weights = 1.0 / np.arange(1, count + 1) ** s
    ideal = weights / weights.sum() * draws
    counts = np.floor(ideal).astype(int)
    short = draws - counts.sum()
    counts[np.argsort(counts - ideal, kind="stable")[:short]] += 1
    ranked = (np.arange(count) * 13) % count
    picks = np.repeat(ranked, counts)
    rng.shuffle(picks)
    return picks


async def _drive(
    server: Server,
    lines: list[bytes],
    arrivals: np.ndarray,
    reference: Reference,
):
    """Send the lines in rounds of ``len(arrivals)`` on one pipelined
    connection, each at its round's origin plus its arrival time.

    Before each round and after the last, with no request in flight,
    the reference kernel is sampled and the server's CPU seconds read;
    each round's serving CPU time is counted as the reference's work,
    done while the kernel took the mean of the samples on both sides.
    Returns ``(due times, send times, [(receive time, line)], seconds
    spent in rounds)``."""
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", server.port, limit=2**24
    )
    per_round = len(arrivals)
    due = [0.0] * len(lines)
    sent = [0.0] * len(lines)
    received: list[tuple[float, bytes]] = []
    busy_s = 0.0

    async def send(first: int) -> None:
        for index in range(first, first + per_round):
            delay = due[index] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent[index] = time.perf_counter()
            writer.write(lines[index])
            await writer.drain()

    async def receive() -> None:
        for _ in range(per_round):
            line = await reader.readline()
            if not line:
                raise BenchmarkError("gateway closed the connection")
            received.append((time.perf_counter(), line))

    try:
        budget = float(arrivals[-1]) + READY_TIMEOUT_S
        before = reference.sample(REFERENCE_BLOCK)
        for first in range(0, len(lines), per_round):
            cpu_s = server.cpu_s()
            origin = time.perf_counter()
            for offset, arrival in enumerate(arrivals):
                due[first + offset] = origin + LEAD_S + float(arrival)
            await asyncio.wait_for(
                asyncio.gather(send(first), receive()), budget
            )
            busy_s += received[-1][0] - origin
            cpu_s = server.cpu_s() - cpu_s
            after = reference.sample(REFERENCE_BLOCK)
            reference.count(cpu_s, (before + after) / 2)
            before = after
    finally:
        writer.close()
        await writer.wait_closed()
    return due, sent, received, busy_s


def gateway_sharded_open(
    scale: Scale, seed: int, seconds: float, trace: bool, work: Path
) -> Result:
    """Seeded Poisson arrivals of Zipf-popular narrow queries through
    the TCP gateway to a 2-shard fleet."""
    rng = np.random.default_rng(seed)
    column = make_column(scale, scale.rows, seed)
    queries = spaced_range_queries(
        scale, scale.gateway_fraction, scale.gateway_queries
    )
    expected = [oracle_positions(column, query) for query in queries]
    arrivals = _round(scale, seconds)
    picks = np.tile(
        _zipf_mix(len(queries), len(arrivals), scale.gateway_zipf_s, rng),
        scale.gateway_rounds,
    )
    lines = [
        (
            json.dumps(
                {
                    "id": index,
                    "label": f"r{index}",
                    "ranges": [
                        [spec.start, spec.end]
                        for spec in queries[pick].specs
                    ],
                    "positions": True,
                }
            )
            + "\n"
        ).encode()
        for index, pick in enumerate(picks)
    ]
    np.save(work / "column.npy", column)
    (work / "gateway.json").write_text(
        json.dumps(
            {
                "scale": asdict(scale),
                "queries": [
                    [[spec.start, spec.end] for spec in query.specs]
                    for query in queries
                ],
            }
        )
    )

    setups = []
    server = None
    for rep in range(scale.setup_reps):
        if server is not None:
            server.stop()
            shutil.rmtree(work / f"setup{rep - 1}")
        server = Server(work, work / f"setup{rep}", trace)
        setups.append(server.start_s)
    reference = Reference()
    try:
        due, sent, received, busy_s = asyncio.run(
            _drive(server, lines, arrivals, reference)
        )
    finally:
        summary = server.stop()

    result = Result(
        attempted=len(lines),
        notes={"batches": summary["batches"], "shed": summary["shed"]},
    )
    if summary["unreconciled"]:
        raise BenchmarkError(
            f"{summary['unreconciled']} of {summary['batches']} gateway "
            f"batches failed ShardedBatchReport.reconciles()"
        )
    latencies: dict[int, float] = {}
    io_bytes = 0
    for received_at, line in received:
        response = json.loads(line)
        index = response["id"]
        if response["status"] != "ok":
            result.failed += 1
            continue
        positions = np.asarray(response["positions"], dtype=np.int64)
        check_answer(
            positions,
            expected[picks[index]],
            f"gateway request {index} ({queries[picks[index]]!r})",
        )
        if response["count"] != len(positions):
            raise BenchmarkError(
                f"request {index}: count {response['count']} but "
                f"{len(positions)} positions"
            )
        latencies[index] = received_at - due[index]
        io_bytes += response["io_bytes"]
    answered = len(latencies)
    if not answered:
        raise BenchmarkError("the gateway answered no request")
    lag = [sent[i] - due[i] for i in range(len(lines))]
    rel = reference.work_rel() / answered
    result.notes.update(
        samples=answered,
        qps=answered / busy_s,
        query_p50_ms=median(latencies.values()) * 1e3,
        query_mean_ms=sum(latencies.values()) / answered * 1e3,
        serve_cpu_ms=reference.work_s() / answered * 1e3,
        reference_ms=reference.unit_s() * 1e3,
    )
    if not trace:
        result.put("setup_s", median(setups), "s")
        result.put("query_time_rel", rel, "ratio")
        result.put("io_mb_per_query", io_bytes / answered / MB, "MB")
        result.put("ok_ratio", answered / len(lines), "ratio")
        result.put("peak_rss_mb", summary["peak_rss_mb"], "MB")
        return result
    _edge_layers(result, work, latencies, lag, rel)
    return result


def _edge_layers(
    result: Result,
    work: Path,
    latencies: dict[int, float],
    lag: list[float],
    rel: float,
) -> None:
    """Per-request layer times from the gateway's spans.

    For request ``r`` served in batch ``b``: queue = ``b.start -
    submit.start``; the batch's ``run_batch`` span splits into the
    slowest shard's own wall clock and the rest (scatter, gather and
    merge); wire = client latency - ``submit`` duration (the socket,
    JSON encoding of the answer and the client's send lag).
    """
    submits: dict[int, dict] = {}
    batches: list[dict] = []
    positions_s = 0.0
    with open(work / "server_spans.jsonl", encoding="utf-8") as spans:
        for line in spans:
            span = json.loads(line)
            if span["name"] == "serve.gateway.submit":
                submits[int(span["attrs"]["label"][1:])] = span
            elif span["name"] == "serve.sharded.run_batch":
                batches.append(span)
            elif span["name"] == "bitmap.wah.to_positions":
                positions_s += span["self_s"]
    batch_of: dict[int, dict] = {}
    for batch in batches:
        for label in batch["attrs"]["labels"]:
            batch_of[int(label[1:])] = batch
    queue = run = shard_max = wire = 0.0
    for index, latency in latencies.items():
        submit = submits[index]
        batch = batch_of[index]
        queue += batch["start"] - submit["start"]
        run += batch["end"] - batch["start"]
        shard_max += batch["attrs"]["shard_max_s"]
        wire += latency - (submit["end"] - submit["start"])
    answered = len(latencies)
    mean = lambda total: total / answered  # noqa: E731
    result.put("serve.sharded.run_s", mean(run), "s")
    result.put("serve.sharded.shard_max_s", mean(shard_max), "s")
    result.put("serve.sharded.gather_s", mean(run - shard_max), "s")
    result.put("serve.gateway.queue_s", mean(queue), "s")
    result.put(
        "serve.gateway.batch_size",
        sum(len(b["attrs"]["labels"]) for b in batches) / len(batches),
        "count",
    )
    result.put("edge.wire_s", mean(wire), "s")
    result.put(
        "loadgen.lag_p90_ms",
        float(np.quantile(np.asarray(lag), 0.9)) * 1e3,
        "ms",
    )
    result.put("bitmap.wah.to_positions_s", mean(positions_s), "s")
    result.put("trace.query_time_rel", rel, "ratio")
    result.put(
        "trace.layer_sum_ratio",
        (queue + run + wire) / sum(latencies.values()),
        "ratio",
    )
    result.put("bench.samples", answered, "count")
