"""Inputs, oracle and measurement helpers shared by the workloads."""

from __future__ import annotations

import os
import re
import statistics
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from repro import (
    Hierarchy,
    RangeQuery,
    paper_hierarchy,
    sample_column,
    tpch_acctbal_leaf_probabilities,
)
from repro.storage.costmodel import MB

#: Bytes per row of the leaf-id columns the benchmark generates
#: (``sample_column`` returns int64), the base of the write and
#: rewrite amplification ratios.
LEAF_ID_BYTES = 8


class BenchmarkError(RuntimeError):
    """A wrong answer, an IO ledger that does not balance, or a
    wrapper that missed a binding: the run's numbers cannot count."""


@dataclass(frozen=True)
class Scale:
    """Every size and rate the workloads run at.

    ``FULL`` is the benchmark; ``SMOKE`` runs the same code paths on a
    tiny column for the benchmark's own tests.
    """

    rows: int = 1_000_000
    leaves: int = 100
    distribution: str = "tpch"
    setup_reps: int = 3
    case2_queries: int = 48
    case2_fraction: float = 0.5
    ingest_fraction: float = 0.1
    ingest_queries: int = 8
    ingest_queries_per_append: int = 8
    ingest_batch_rows: int = 10_000
    ingest_appends_per_compaction: int = 2
    #: Two leaves: the bitmap work per request is small, so the edge
    #: (admission, batching, scatter/gather, the answer on the wire)
    #: dominates, and a run holds enough requests to be steady.
    gateway_fraction: float = 0.02
    gateway_queries: int = 32
    gateway_zipf_s: float = 1.0
    #: About a third of the path's single-client capacity (a request
    #: takes 75-110 ms of wall time on 2 CPUs).
    gateway_rate_qps: float = 3.0
    #: Replays of one round of arrivals per run, with the reference
    #: kernel sampled between them.
    gateway_rounds: int = 3
    gateway_shards: int = 2
    gateway_threads_per_shard: int = 1

    def params(self, workload: str) -> dict:
        """The parameters a workload's result is recorded with."""
        base = {
            "rows": self.rows,
            "leaves": self.leaves,
            "distribution": self.distribution,
            "setup_reps": self.setup_reps,
        }
        prefix = {
            "case2-wide": "case2_",
            "ingest-mixed": "ingest_",
            "gateway-sharded-open": "gateway_",
        }[workload]
        base.update(
            (key[len(prefix):], value)
            for key, value in asdict(self).items()
            if key.startswith(prefix)
        )
        return base


FULL = Scale()
SMOKE = Scale(
    rows=20_000,
    setup_reps=2,
    case2_queries=8,
    ingest_queries=4,
    ingest_queries_per_append=2,
    ingest_batch_rows=500,
    gateway_queries=6,
    gateway_rate_qps=8.0,
)


@dataclass
class Result:
    """What one workload run measured."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def hierarchy(scale: Scale) -> Hierarchy:
    """The paper's hierarchy for the scale's leaf count."""
    if scale.leaves in (20, 50, 100):
        return paper_hierarchy(scale.leaves)
    return Hierarchy.balanced(scale.leaves, 4)


def make_column(scale: Scale, rows: int, seed: int) -> np.ndarray:
    """A column of leaf ids drawn from the scale's distribution."""
    if scale.distribution != "tpch":
        raise ValueError(f"unknown distribution {scale.distribution!r}")
    probabilities = tpch_acctbal_leaf_probabilities(scale.leaves)
    return sample_column(probabilities, rows, seed=seed)


def spaced_range_queries(
    scale: Scale, fraction: float, count: int
) -> list[RangeQuery]:
    """``count`` distinct single-range queries of one width, their
    start leaves spread evenly over the domain.

    The query set is part of a workload's definition, not of its
    seed: the per-query cost varies several-fold with where a range
    falls, so a seeded choice of a few queries would move a run's
    averages more than any change to the program does.
    """
    length = max(1, round(fraction * scale.leaves))
    starts = scale.leaves - length + 1
    if count > starts:
        raise ValueError(
            f"only {starts} distinct {fraction:.0%} ranges exist over "
            f"{scale.leaves} leaves, asked for {count}"
        )
    return [
        RangeQuery([(int(start), int(start) + length - 1)], label=f"q{i}")
        for i, start in enumerate(
            np.linspace(0, starts - 1, count).round().astype(int)
        )
    ]


def oracle_positions(column: np.ndarray, query: RangeQuery) -> np.ndarray:
    """Rows matching ``query``, by a direct numpy scan of the column."""
    mask = np.zeros(column.shape, dtype=bool)
    for spec in query.specs:
        mask |= (column >= spec.start) & (column <= spec.end)
    return np.flatnonzero(mask).astype(np.int32)


def check_answer(
    positions: np.ndarray, expected: np.ndarray, what: str
) -> None:
    """Raise unless an answer's positions equal the oracle's."""
    if not np.array_equal(positions, expected):
        raise BenchmarkError(
            f"{what}: answer has {len(positions)} positions, oracle "
            f"{len(expected)}; they differ"
        )


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class Reference:
    """A fixed kernel, timed around each of a workload's operations,
    that the operation's time is reported in multiples of.

    The host is shared with other machines' work, and its speed drifts
    by 15-30% between runs a minute apart, and by up to 2.5x within
    minutes (the same query, the same build): more than any bound a
    regression check could use.  The kernel does the kind of work the
    program does - a word-wise OR, bit unpacking and position
    extraction in numpy over arrays larger than a core's cache, then
    an interpreter loop - so it slows down with the host, not with
    the program: it is part of the benchmark, which a change to the
    program does not touch.

    Each operation is bracketed by kernel samples; the run's unit is
    the mean of those bracketing samples weighted by the time of the
    operation between them, so a compaction of seconds counts for as
    much host time as it spans.  Raw milliseconds are recorded in the
    result's notes.
    """

    WORDS = 1 << 17
    INTERPRETER_STEPS = 20_000

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a, self._b = (
            rng.integers(0, 2**32, self.WORDS, dtype=np.uint64).astype(
                np.uint32
            )
            for _ in range(2)
        )
        self.seconds: list[float] = []
        self._work = 0.0
        self._weighted = 0.0

    def sample(self, count: int = 1) -> float:
        """Time the kernel ``count`` times; returns the mean."""
        first = len(self.seconds)
        for _ in range(count):
            started = time.perf_counter()
            words = self._a | self._b
            positions = np.flatnonzero(np.unpackbits(words.view(np.uint8)))
            total = 0
            for step in range(self.INTERPRETER_STEPS):
                total += step & 7
            np.cumsum(positions[::7])
            self.seconds.append(time.perf_counter() - started)
        return statistics.fmean(self.seconds[first:])

    def timed(self, operation, count: int = 1) -> float:
        """Run ``operation()`` between two blocks of ``count`` kernel
        samples, and count its wall time as work; returns it."""
        before = self.sample(count)
        started = time.perf_counter()
        operation()
        seconds = time.perf_counter() - started
        self.count(seconds, (before + self.sample(count)) / 2)
        return seconds

    def count(self, work_s: float, around_s: float) -> None:
        """Count ``work_s`` seconds of work, done while the kernel
        took ``around_s``."""
        self._work += work_s
        self._weighted += work_s * around_s

    def work_s(self) -> float:
        return self._work

    def unit_s(self) -> float:
        """The kernel time the counted work is measured in."""
        return self._weighted / self._work

    def work_rel(self) -> float:
        """The counted work, in multiples of :meth:`unit_s`."""
        return self._work / self.unit_s()

    def total_s(self) -> float:
        return sum(self.seconds)


# -- resident memory -----------------------------------------------------
def reset_peak_rss(pid: int) -> None:
    """Reset a process's resident-memory high-water mark (Linux
    ``clear_refs`` code 5), so build peaks cannot hide the serving
    phase's."""
    with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as out:
        out.write("5")


def peak_rss_mb(pid: int) -> float:
    """A process's resident-memory high-water mark, in MB (2^20 B,
    the program's unit)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        match = re.search(r"^VmHWM:\s+(\d+) kB", status.read(), re.M)
    if match is None:
        raise BenchmarkError(f"no VmHWM for pid {pid}")
    return int(match.group(1)) * 1024 / MB


def host_cpus() -> int:
    return len(os.sched_getaffinity(0))


def tasks_cpu_s(pid: int) -> float:
    """CPU seconds the live threads of process ``pid`` have run, from
    the nanosecond counters of ``/proc/<pid>/task/*/schedstat``."""
    total = 0
    for task in os.scandir(f"/proc/{pid}/task"):
        try:
            with open(f"{task.path}/schedstat", encoding="ascii") as stat:
                total += int(stat.read().split()[0])
        except FileNotFoundError:  # the thread ended meanwhile
            continue
    return total / 1e9
