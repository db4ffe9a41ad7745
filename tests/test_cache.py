"""Tests for the memory-budgeted buffer pool."""

from __future__ import annotations

import weakref

import pytest

from repro.bitmap.plain import PlainBitmap
from repro.bitmap.plwah import PlwahBitmap
from repro.bitmap.roaring import RoaringBitmap
from repro.bitmap.serialization import serialize_bitmap
from repro.bitmap.wah import WahBitmap
from repro.errors import BudgetExceededError, StorageError
from repro.obs import collecting_metrics, recording
from repro.storage.accounting import IOAccountant
from repro.storage.cache import BufferPool
from repro.storage.filestore import BitmapFileStore


@pytest.fixture
def store() -> BitmapFileStore:
    store = BitmapFileStore()
    for index in range(5):
        store.write(f"node_{index}.wah", bytes(100 * (index + 1)))
    return store


class TestUnboundedPool:
    def test_reads_charged_once_then_cached(self, store):
        pool = BufferPool(store)
        pool.get("node_0.wah")
        pool.get("node_0.wah")
        pool.get("node_0.wah")
        assert pool.accountant.read_count == 1
        assert pool.accountant.bytes_read == 100

    def test_distinct_files_each_charged(self, store):
        pool = BufferPool(store)
        pool.get("node_0.wah")
        pool.get("node_1.wah")
        assert pool.accountant.bytes_read == 300


class TestPinning:
    def test_pin_reads_each_file_once(self, store):
        pool = BufferPool(store, budget_bytes=1000)
        pool.pin(["node_0.wah", "node_1.wah"])
        assert pool.accountant.bytes_read == 300
        pool.get("node_0.wah")
        pool.get("node_1.wah")
        assert pool.accountant.bytes_read == 300
        assert pool.pinned_bytes == 300

    def test_pin_over_budget_raises_without_partial_pin(self, store):
        pool = BufferPool(store, budget_bytes=250)
        with pytest.raises(BudgetExceededError):
            pool.pin(["node_0.wah", "node_1.wah"])
        assert pool.pinned_bytes == 0

    def test_repinning_is_idempotent(self, store):
        pool = BufferPool(store, budget_bytes=1000)
        pool.pin(["node_0.wah"])
        pool.pin(["node_0.wah"])
        assert pool.accountant.read_count == 1

    def test_unpin_all(self, store):
        pool = BufferPool(store, budget_bytes=1000)
        pool.pin(["node_0.wah"])
        pool.unpin_all()
        assert pool.pinned_bytes == 0
        pool.get("node_0.wah")
        assert pool.accountant.read_count == 2


class TestBudgetedStreaming:
    def test_unpinned_reads_are_streamed_by_default(self, store):
        """Case-3 semantics: non-cut bitmaps re-read on every access."""
        pool = BufferPool(store, budget_bytes=1000)
        pool.get("node_0.wah")
        pool.get("node_0.wah")
        assert pool.accountant.read_count == 2

    def test_spare_budget_lru_caches_within_budget(self, store):
        pool = BufferPool(
            store, budget_bytes=350, use_spare_budget_lru=True
        )
        pool.pin(["node_0.wah"])  # 100 bytes pinned, 250 spare
        pool.get("node_1.wah")  # 200 bytes -> cached in spare
        pool.get("node_1.wah")
        assert pool.accountant.read_count == 2  # pin + one fetch

    def test_spare_budget_lru_evicts_oldest(self, store):
        pool = BufferPool(
            store, budget_bytes=400, use_spare_budget_lru=True
        )
        pool.get("node_1.wah")  # 200
        pool.get("node_2.wah")  # 300 -> evicts node_1
        pool.get("node_1.wah")  # re-read
        assert pool.accountant.read_count == 3

    def test_oversized_file_never_admitted(self, store):
        pool = BufferPool(
            store, budget_bytes=100, use_spare_budget_lru=True
        )
        pool.get("node_4.wah")  # 500 bytes > budget
        pool.get("node_4.wah")
        assert pool.accountant.read_count == 2

    def test_pin_after_lru_warm_keeps_resident_within_budget(
        self, store
    ):
        """Regression: pinning must shrink the LRU area it displaces.

        Warming the LRU first and pinning afterwards used to leave
        ``pinned + lru`` above the budget, violating the Case-3
        ``S_total`` constraint.
        """
        pool = BufferPool(
            store, budget_bytes=450, use_spare_budget_lru=True
        )
        pool.get("node_2.wah")  # 300 bytes cached in the LRU area
        assert pool.lru_bytes == 300
        pool.pin(["node_0.wah", "node_1.wah"])  # 300 bytes pinned
        assert pool.pinned_bytes == 300
        assert pool.resident_bytes <= pool.budget_bytes
        assert not pool.contains("node_2.wah")
        # The evicted file streams again on the next access.
        pool.get("node_2.wah")
        assert pool.accountant.reads_by_name["node_2.wah"] == 2

    def test_pin_evicts_only_until_budget_holds(self, store):
        pool = BufferPool(
            store, budget_bytes=600, use_spare_budget_lru=True
        )
        pool.get("node_0.wah")  # 100 in LRU
        pool.get("node_1.wah")  # 200 in LRU (300 total)
        pool.pin(["node_2.wah"])  # 300 pinned -> spare 300, LRU fits
        assert pool.resident_bytes <= pool.budget_bytes
        assert pool.contains("node_0.wah")
        assert pool.contains("node_1.wah")

    def test_pin_promoting_lru_entry_respects_budget(self, store):
        pool = BufferPool(
            store, budget_bytes=500, use_spare_budget_lru=True
        )
        pool.get("node_1.wah")  # 200 in LRU
        pool.get("node_2.wah")  # 300 in LRU (500 total)
        pool.pin(["node_1.wah"])  # promoted out of the LRU, no re-read
        assert pool.accountant.reads_by_name["node_1.wah"] == 1
        assert pool.resident_bytes <= pool.budget_bytes


class TestPinDuplicates:
    """Regression tests for the pin() double-counting bug.

    ``pin(["a", "a"])`` used to fetch the file twice, charge the
    accountant twice, and record ``pinned_bytes`` at twice the real
    residency — which then tripped ``BudgetExceededError`` on budgets
    the cut actually fits.
    """

    def test_duplicate_names_read_once(self, store):
        with collecting_metrics() as metrics:
            pool = BufferPool(store, budget_bytes=1000)
            pool.pin(["node_0.wah", "node_0.wah", "node_0.wah"])
        assert pool.accountant.read_count == 1
        assert pool.accountant.bytes_read == 100
        assert pool.pinned_bytes == 100
        assert metrics.counter("cache_pins_total") == 1

    def test_duplicates_fit_a_budget_the_file_fits(self, store):
        # 100-byte file, 150-byte budget: duplicates used to demand 300.
        pool = BufferPool(store, budget_bytes=150)
        pool.pin(["node_0.wah"] * 3)
        assert pool.pinned_bytes == 100
        assert pool.resident_bytes <= pool.budget_bytes

    def test_duplicates_mixed_with_new_names(self, store):
        pool = BufferPool(store, budget_bytes=1000)
        pool.pin(
            ["node_0.wah", "node_1.wah", "node_0.wah", "node_1.wah"]
        )
        assert pool.accountant.read_count == 2
        assert pool.pinned_bytes == 300
        assert pool.accountant.reads_by_name["node_0.wah"] == 1
        assert pool.accountant.reads_by_name["node_1.wah"] == 1


class _LyingStore(BitmapFileStore):
    """A store whose ``size_bytes`` underreports the payload length."""

    def size_bytes(self, name: str) -> int:
        return super().size_bytes(name) // 10


class TestAdmissionReconciliation:
    """pin() budgets with ``size_bytes`` estimates but must commit
    against actual payload lengths, keeping ``resident_bytes <=
    budget_bytes`` a real invariant even when the estimate lies."""

    def test_size_bytes_agrees_with_payload_for_every_codec(self):
        store = BitmapFileStore()
        bitmaps = {
            "wah": WahBitmap.from_positions([1, 5, 900], 2048),
            "plwah": PlwahBitmap.from_positions([1, 5, 900], 2048),
            "roaring": RoaringBitmap.from_positions([1, 5, 900], 2048),
            "plain": PlainBitmap.from_positions([1, 5, 900], 2048),
        }
        for name, bitmap in bitmaps.items():
            payload = serialize_bitmap(bitmap)
            store.write(f"{name}.bin", payload)
            assert store.size_bytes(f"{name}.bin") == len(payload)
            assert len(store.read(f"{name}.bin")) == len(payload)

    def test_lying_size_estimate_cannot_break_the_budget(self):
        store = _LyingStore()
        store.write("a.wah", bytes(100))
        store.write("b.wah", bytes(200))
        pool = BufferPool(store, budget_bytes=150)
        # Estimates (10 + 20 bytes) pass the pre-check; the actual
        # payloads (300 bytes) must still be rejected at commit.
        with pytest.raises(BudgetExceededError):
            pool.pin(["a.wah", "b.wah"])
        assert pool.pinned_bytes == 0
        assert pool.resident_bytes <= pool.budget_bytes
        assert not pool.contains("a.wah")
        assert not pool.contains("b.wah")

    def test_lying_estimate_within_budget_pins_at_true_size(self):
        store = _LyingStore()
        store.write("a.wah", bytes(100))
        pool = BufferPool(store, budget_bytes=150)
        pool.pin(["a.wah"])
        assert pool.pinned_bytes == 100  # true bytes, not the estimate
        assert pool.resident_bytes <= pool.budget_bytes


class TestInvalidationObservability:
    def test_invalidate_counts_by_tier(self, store):
        with collecting_metrics() as metrics:
            pool = BufferPool(store, budget_bytes=1000)
            pool.pin(["node_0.wah"])
            pool.invalidate("node_0.wah")
        assert (
            metrics.counter("cache_invalidations_total", tier="pinned")
            == 1
        )

    def test_invalidate_lru_entry_counts_lru_tier(self, store):
        with collecting_metrics() as metrics:
            pool = BufferPool(store)  # unbounded -> LRU caches
            pool.get("node_0.wah")
            pool.invalidate("node_0.wah")
        assert (
            metrics.counter("cache_invalidations_total", tier="lru")
            == 1
        )

    def test_invalidate_absent_name_counts_nothing(self, store):
        with collecting_metrics() as metrics:
            pool = BufferPool(store)
            pool.invalidate("node_0.wah")
        assert (
            metrics.counter("cache_invalidations_total", tier="lru")
            == 0
        )
        assert (
            metrics.counter("cache_invalidations_total", tier="pinned")
            == 0
        )

    def test_unpin_all_emits_clear_event_and_metric(self, store):
        pool = BufferPool(store, budget_bytes=1000)
        pool.pin(["node_0.wah", "node_1.wah"])
        with collecting_metrics() as metrics, recording() as collector:
            pool.unpin_all()
        clears = [
            event
            for event in collector.events
            if event.kind == "cache.clear"
        ]
        assert len(clears) == 1
        assert clears[0].name == "pinned"
        assert clears[0].attrs["files"] == 2
        assert clears[0].attrs["nbytes"] == 300
        assert (
            metrics.counter("cache_invalidations_total", tier="pinned")
            == 2
        )

    def test_clear_emits_events_for_both_tiers(self, store):
        pool = BufferPool(store, budget_bytes=1000)
        pool.pin(["node_0.wah"])
        unbounded = BufferPool(store)
        unbounded.get("node_1.wah")
        with recording() as collector:
            pool.clear()
            unbounded.clear()
        kinds = [
            (event.kind, event.name)
            for event in collector.events
            if event.kind == "cache.clear"
        ]
        assert ("cache.clear", "pinned") in kinds
        assert ("cache.clear", "lru") in kinds

    def test_empty_clear_is_silent(self, store):
        pool = BufferPool(store)
        with collecting_metrics() as metrics, recording() as collector:
            pool.clear()
            pool.unpin_all()
        assert not [
            event
            for event in collector.events
            if event.kind == "cache.clear"
        ]
        assert metrics.counter("cache_invalidations_total") == 0


class _View:
    """A weak-referenceable stand-in for a decoded view."""

    def __init__(self, number: int):
        self.number = number

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _View) and other.number == self.number


class TestPinnedViews:
    """A view is built once per pinned ``bytes`` object and dropped
    with the pin."""

    @staticmethod
    def _counting_build():
        built = []

        def build(payload):
            built.append(payload)
            return _View(len(built))

        return built, build

    def test_built_once_per_pinned_payload(self, store):
        pool = BufferPool(store)
        pool.pin(["node_0.wah"])
        built, build = self._counting_build()
        first = pool.pinned_view("node_0.wah", pool.get("node_0.wah"), build)
        again = pool.pinned_view("node_0.wah", pool.get("node_0.wah"), build)
        assert first == again == _View(1)
        assert len(built) == 1

    def test_none_unless_the_payload_is_the_pinned_object(self, store):
        pool = BufferPool(store)
        built, build = self._counting_build()
        payload = pool.get("node_1.wah")  # LRU-resident, not pinned
        assert pool.pinned_view("node_1.wah", payload, build) is None
        pool.pin(["node_0.wah"])
        copy = bytes(bytearray(pool.get("node_0.wah")))
        assert pool.pinned_view("node_0.wah", copy, build) is None
        assert built == []

    @pytest.mark.parametrize(
        "drop",
        [
            lambda pool: pool.reload("node_0.wah"),
            lambda pool: pool.invalidate("node_0.wah"),
            lambda pool: pool.unpin_all(),
            lambda pool: pool.clear(),
        ],
        ids=["reload", "invalidate", "unpin_all", "clear"],
    )
    def test_dropped_with_the_pin(self, store, drop):
        pool = BufferPool(store)
        pool.pin(["node_0.wah"])
        built, build = self._counting_build()
        old = pool.get("node_0.wah")
        view = weakref.ref(pool.pinned_view("node_0.wah", old, build))
        assert view() == _View(1)
        store.write("node_0.wah", b"\x01" * 100)
        drop(pool)
        assert view() is None  # the pool no longer holds it
        assert pool.pinned_view("node_0.wah", old, build) is None
        pool.pin(["node_0.wah"])
        fresh = pool.get("node_0.wah")
        assert fresh == b"\x01" * 100
        assert pool.pinned_view("node_0.wah", fresh, build) == _View(2)
        assert built == [old, fresh]

    def test_build_errors_cache_nothing(self, store):
        pool = BufferPool(store)
        pool.pin(["node_0.wah"])
        payload = pool.get("node_0.wah")

        def fail(_payload):
            raise ValueError("undecodable")

        with pytest.raises(ValueError):
            pool.pinned_view("node_0.wah", payload, fail)
        built, build = self._counting_build()
        assert pool.pinned_view("node_0.wah", payload, build) == _View(1)


class TestMisc:
    def test_custom_accountant(self, store):
        accountant = IOAccountant()
        pool = BufferPool(store, accountant=accountant)
        pool.get("node_0.wah")
        assert accountant.bytes_read == 100

    def test_negative_budget_rejected(self, store):
        with pytest.raises(ValueError):
            BufferPool(store, budget_bytes=-1)

    def test_contains_and_cached_names(self, store):
        pool = BufferPool(store)
        assert not pool.contains("node_0.wah")
        pool.get("node_0.wah")
        assert pool.contains("node_0.wah")
        assert "node_0.wah" in pool.cached_names

    def test_clear(self, store):
        pool = BufferPool(store)
        pool.get("node_0.wah")
        pool.clear()
        assert not pool.cached_names

    def test_verify_store_has(self, store):
        pool = BufferPool(store)
        pool.verify_store_has(["node_0.wah"])
        with pytest.raises(StorageError):
            pool.verify_store_has(["node_0.wah", "ghost.wah"])

    def test_missing_file_propagates(self, store):
        pool = BufferPool(store)
        with pytest.raises(StorageError):
            pool.get("ghost.wah")

    def test_repr(self, store):
        assert "unbounded" in repr(BufferPool(store))
        assert "100B" in repr(BufferPool(store, budget_bytes=100))
