"""LSM-style ingest: append row batches as delta generations.

The materialized index is read-optimized; rebuilding it for every
appended batch would cost a full index write.  Instead,
:class:`DeltaAppender` — the one way rows are appended to an index —
turns a batch of appended rows into one small *delta generation*: per
hierarchy node, the WAH tail bitmap covering only the batch, built by
the same :func:`~repro.bitmap.builder.build_node_bitmaps` as a full
build (zero tails compress to a single fill word), committed
atomically through the same tmp + fsync + manifest-swap protocol as a
full build (:class:`~repro.storage.manifest.DeltaBuild`).

Readers merge on read — a node's effective bitmap is
``base.concat(delta_1).concat(delta_2)...`` in seq order, which for
append-only rows is exactly ``OR(base ∪ offset-extended deltas)`` and
bit-identical (canonical WAH words) to a from-scratch rebuild over the
full column.  :class:`~repro.storage.compactor.Compactor` folds deltas
back into a new base generation when read amplification grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bitmap.builder import build_node_bitmaps
from ..bitmap.serialization import serialize_wah
from ..errors import StorageError
from ..hierarchy.tree import Hierarchy
from ..obs import get_metrics, record
from .manifest import DurableBitmapStore

__all__ = ["DeltaAppendResult", "DeltaAppender"]


@dataclass(frozen=True)
class DeltaAppendResult:
    """What one :meth:`DeltaAppender.append` call committed.

    Attributes:
        seq: the delta generation's sequence number (0 when the batch
            was empty and nothing was committed).
        generation: the manifest generation committed (0 for an empty
            batch).
        num_rows: rows appended by this batch.
        files_written: delta files staged (one per hierarchy node).
        bytes_written: total serialized delta payload bytes.
    """

    seq: int
    generation: int
    num_rows: int
    files_written: int
    bytes_written: int

    @property
    def committed(self) -> bool:
        """Whether a delta generation was actually committed (an
        empty batch is a no-op)."""
        return self.num_rows > 0

    def to_dict(self) -> dict:
        """JSON-serializable form (CLI output)."""
        return {
            "seq": self.seq,
            "generation": self.generation,
            "num_rows": self.num_rows,
            "files_written": self.files_written,
            "bytes_written": self.bytes_written,
            "committed": self.committed,
        }


class DeltaAppender:
    """Stages and commits per-node delta bitmaps for appended rows.

    One appender serializes all appends to its store (it holds the
    store's reorg lock across staging and commit), so concurrent
    callers cannot race a sequence number or interleave with a
    compaction's manifest swap.

    Args:
        store: the durable store holding the base generation.  Must
            already contain a built index (``num_rows > 0``) — a delta
            extends a base, it cannot found one.
        hierarchy: the indexed hierarchy; checked against the store's
            recorded fingerprint so a delta can never be computed for
            the wrong tree shape.
    """

    def __init__(
        self, store: DurableBitmapStore, hierarchy: Hierarchy
    ):
        if not isinstance(store, DurableBitmapStore):
            raise StorageError(
                "DeltaAppender requires a DurableBitmapStore; "
                "in-memory stores have no durable delta lifecycle"
            )
        if store.manifest.num_rows <= 0:
            raise StorageError(
                "cannot append deltas to an empty store: build a "
                "base generation first"
            )
        store.verify_hierarchy(hierarchy)
        self._store = store
        self._hierarchy = hierarchy

    @property
    def store(self) -> DurableBitmapStore:
        """The store appends commit into."""
        return self._store

    def append(self, values: np.ndarray) -> DeltaAppendResult:
        """Commit one batch of appended rows as a delta generation.

        ``values`` are the batch's leaf ids in row order, exactly as
        for the initial build.  Every hierarchy node gets a tail
        bitmap covering only the batch (nodes missed by the batch get
        a pure zero fill), so merge-on-read can extend any node
        positionally without consulting which nodes the batch touched.
        An empty batch commits nothing and returns a result with
        ``committed == False``.
        """
        tails = build_node_bitmaps(self._hierarchy, values)
        batch = int(np.asarray(values).size)
        if batch == 0:
            return DeltaAppendResult(
                seq=0,
                generation=0,
                num_rows=0,
                files_written=0,
                bytes_written=0,
            )
        # A batch's tails are small, so all of them are serialized
        # before the first (fsynced) file is staged: fsyncs spaced out
        # by the build made a 10k-row append about 25% slower.
        payloads = [
            (node_id, serialize_wah(tail)) for node_id, tail in tails
        ]
        bytes_written = 0
        store = self._store
        with store._reorg_lock:
            with store.begin_delta(batch) as delta:
                seq = delta.seq
                generation = delta.generation
                for node_id, payload in payloads:
                    delta.add(node_id, payload)
                    bytes_written += len(payload)
                files_written = len(delta.staged_names)
        record(
            "delta.append",
            f"delta_{seq:06d}",
            seq=seq,
            rows=batch,
            files=files_written,
            bytes=bytes_written,
        )
        get_metrics().inc("delta_rows_appended_total", batch)
        return DeltaAppendResult(
            seq=seq,
            generation=generation,
            num_rows=batch,
            files_written=files_written,
            bytes_written=bytes_written,
        )
