"""Which ``repro`` entry points the traced run wraps, and the
per-layer metrics computed from their spans.

Layers are named after their modules.  Per-query metrics divide by
answered queries and count only spans under a ``bench.query`` root
(the benchmark's own span around one query and its answer
materialization); ``storage.delta.*`` and ``storage.compactor.*`` are
per call of the wrapped entry point.  A layer's self time counts
wherever its entry point is called from: ``concat`` rebuilds its
result through ``to_positions``, and that time is
``bitmap.wah.to_positions_s``, not ``bitmap.wah.concat_s``.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from common import LEAF_ID_BYTES, BenchmarkError
from tracer import Span, Tracer

QUERY_ROOT = "bench.query"

PLAN = "core.opnodes.build_query_plan"
EXECUTE = "core.executor.execute_plan"
GET = "storage.cache.get"
READ = "storage.filestore.read"
DECODE = "bitmap.serialization.deserialize_wah"
UNION = "bitmap.wah.union_all"
ANDNOT = "bitmap.wah.andnot"
CONCAT = "bitmap.wah.concat"
POSITIONS = "bitmap.wah.to_positions"
APPEND = "storage.delta.append"
COMPACT = "storage.compactor.run"


def _materialize_operands(args: tuple, kwargs: dict):
    """Drain ``union_all``'s operand iterable before its span opens:
    the executor passes a generator that reads and decodes leaves
    lazily, and that work belongs to the read/decode layers, not to
    the kernel combine."""
    if args:
        operands = list(args[0])
        args = (operands,) + tuple(args[1:])
    else:
        operands = list(kwargs["bitmaps"])
        kwargs = dict(kwargs, bitmaps=operands)
    return args, kwargs, {"operands": len(operands)}


def install_bitmap_layers(tracer: Tracer) -> None:
    """Wrap the WAH bitmap operations (used in every process that
    touches answers)."""
    from repro.bitmap.wah import WahBitmap

    tracer.wrap(WahBitmap, "union_all", UNION, enter=_materialize_operands)
    tracer.wrap(WahBitmap, "andnot", ANDNOT)
    tracer.wrap(WahBitmap, "concat", CONCAT)
    tracer.wrap(WahBitmap, "to_positions", POSITIONS)


def install_inprocess_layers(tracer: Tracer) -> None:
    """Wrap every layer an in-process query or ingest crosses."""
    import repro.core.executor as executor_module
    from repro.storage.cache import BufferPool
    from repro.storage.compactor import Compactor
    from repro.storage.delta import DeltaAppender
    from repro.storage.filestore import BitmapFileStore

    tracer.wrap(executor_module, "build_query_plan", PLAN)
    tracer.wrap(executor_module.QueryExecutor, "execute_plan", EXECUTE)
    tracer.wrap(
        BufferPool,
        "get",
        GET,
        enter=lambda args, kwargs: (
            args,
            kwargs,
            {"hit": args[0].contains(args[1])},
        ),
    )
    # DurableBitmapStore.read resolves its physical name and calls
    # this one through super(), so one wrapper sees every store read.
    tracer.wrap(
        BitmapFileStore,
        "read",
        READ,
        leave=lambda args, payload: {"bytes": len(payload)},
    )
    tracer.wrap(
        executor_module,
        "deserialize_wah",
        DECODE,
        leave=lambda args, bitmap: {"words": bitmap.num_words},
    )
    install_bitmap_layers(tracer)
    tracer.wrap(
        DeltaAppender,
        "append",
        APPEND,
        enter=lambda args, kwargs: (
            args,
            kwargs,
            {"rows": int(np.asarray(args[1]).size)},
        ),
        leave=lambda args, result: {"bytes_written": result.bytes_written},
    )
    tracer.wrap(
        Compactor,
        "run",
        COMPACT,
        leave=lambda args, report: {
            "folded_rows": report.folded_rows,
            "bytes_written": report.bytes_written,
        },
    )


def _roots(spans: list[Span]) -> list[int]:
    """Root span index of every span (parents precede children)."""
    roots: list[int] = []
    for index, span in enumerate(spans):
        roots.append(index if span.parent is None else roots[span.parent])
    return roots


def inprocess_metrics(
    spans: list[Span], answered: int
) -> tuple[dict, float]:
    """Per-layer metrics of an in-process traced run.

    Returns ``{name: (value, unit)}`` and the share of the query time
    that the layers' self times cover (the blocking path of a query is
    every span under its root).
    """
    if answered < 1:
        raise BenchmarkError("traced run answered no queries")
    roots = _roots(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    attr: dict[tuple[str, str], float] = defaultdict(float)
    query_s = 0.0
    for index, span in enumerate(spans):
        if spans[roots[index]].name != QUERY_ROOT:
            continue
        if span.name == QUERY_ROOT:
            query_s += span.duration
            continue
        self_s[span.name] += span.self_s
        calls[span.name] += 1
        for key, value in span.attrs.items():
            attr[span.name, key] += float(value)
    appends = [span for span in spans if span.name == APPEND]
    compactions = [span for span in spans if span.name == COMPACT]
    appended_bytes = sum(s.attrs["rows"] for s in appends) * LEAF_ID_BYTES
    folded_bytes = (
        sum(s.attrs["folded_rows"] for s in compactions) * LEAF_ID_BYTES
    )
    per_query = lambda value: value / answered  # noqa: E731
    gets = calls[GET]
    metrics = {
        "core.opnodes.plan_s": (per_query(self_s[PLAN]), "s"),
        "core.executor.self_s": (per_query(self_s[EXECUTE]), "s"),
        "storage.cache.get_calls": (per_query(gets), "count"),
        "storage.cache.hit_ratio": (
            attr[GET, "hit"] / gets if gets else 0.0,
            "ratio",
        ),
        "storage.filestore.read_s": (per_query(self_s[READ]), "s"),
        "storage.filestore.read_bytes": (
            per_query(attr[READ, "bytes"]),
            "B",
        ),
        "bitmap.serialization.decode_s": (per_query(self_s[DECODE]), "s"),
        "bitmap.serialization.decode_calls": (
            per_query(calls[DECODE]),
            "count",
        ),
        "bitmap.serialization.decode_words": (
            per_query(attr[DECODE, "words"]),
            "count",
        ),
        "bitmap.wah.union_all_s": (per_query(self_s[UNION]), "s"),
        "bitmap.wah.union_all_operands": (
            per_query(attr[UNION, "operands"]),
            "count",
        ),
        "bitmap.wah.andnot_s": (per_query(self_s[ANDNOT]), "s"),
        "bitmap.wah.concat_s": (per_query(self_s[CONCAT]), "s"),
        "bitmap.wah.concat_calls": (per_query(calls[CONCAT]), "count"),
        "bitmap.wah.to_positions_s": (per_query(self_s[POSITIONS]), "s"),
        "storage.delta.append_s": (
            _mean(s.duration for s in appends),
            "s",
        ),
        "storage.delta.write_amp": (
            sum(s.attrs["bytes_written"] for s in appends) / appended_bytes
            if appended_bytes
            else 0.0,
            "ratio",
        ),
        "storage.compactor.run_s": (
            _mean(s.duration for s in compactions),
            "s",
        ),
        "storage.compactor.rewrite_amp": (
            sum(s.attrs["bytes_written"] for s in compactions)
            / folded_bytes
            if folded_bytes
            else 0.0,
            "ratio",
        ),
    }
    return metrics, sum(self_s.values()) / query_s


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
