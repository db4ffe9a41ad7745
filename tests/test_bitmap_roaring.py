"""Tests for the Roaring-style chunked bitmap."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.plain import PlainBitmap
from repro.bitmap.roaring import (
    ARRAY_CONTAINER_LIMIT,
    CHUNK_BITS,
    RoaringBitmap,
)
from repro.errors import BitmapLengthMismatchError


class TestConstruction:
    def test_zeros_and_ones(self):
        zeros = RoaringBitmap.zeros(100)
        assert zeros.count() == 0
        assert zeros.num_chunks == 0
        ones = RoaringBitmap.ones(100)
        assert ones.count() == 100

    def test_from_positions(self):
        positions = [0, 7, CHUNK_BITS - 1, CHUNK_BITS, CHUNK_BITS + 5]
        bitmap = RoaringBitmap.from_positions(
            positions, 2 * CHUNK_BITS
        )
        assert bitmap.to_positions().tolist() == positions
        assert bitmap.num_chunks == 2

    def test_unsorted_duplicates_build_the_same_containers(self):
        rng = np.random.default_rng(5)
        num_bits = 3 * CHUNK_BITS
        # Chunk 0 sparse (array), chunk 1 dense (bitmap), chunk 2 empty.
        distinct = np.concatenate((
            rng.choice(CHUNK_BITS, size=50, replace=False),
            CHUNK_BITS + rng.choice(
                CHUNK_BITS, size=ARRAY_CONTAINER_LIMIT + 10, replace=False
            ),
        ))
        messy = rng.permutation(
            np.concatenate((distinct, distinct[::3], distinct[:7]))
        )
        built = RoaringBitmap.from_positions(messy, num_bits)
        clean = RoaringBitmap.from_positions(np.sort(distinct), num_bits)
        assert built.container_kinds() == {"array": 1, "bitmap": 1}
        assert len(built.chunks()) == len(clean.chunks())
        for got, want in zip(built.chunks(), clean.chunks()):
            key, kind, data, cardinality = got
            assert (key, kind, cardinality) == (want[0], want[1], want[3])
            assert data.dtype == want[2].dtype
            assert np.array_equal(data, want[2])
        assert built == clean

    def test_from_positions_validation(self):
        with pytest.raises(ValueError):
            RoaringBitmap.from_positions([5], 5)
        with pytest.raises(ValueError):
            RoaringBitmap.zeros(-1)

    def test_from_dense(self):
        dense = np.zeros(300, dtype=bool)
        dense[[0, 150, 299]] = True
        bitmap = RoaringBitmap.from_dense(dense)
        assert bitmap.to_positions().tolist() == [0, 150, 299]


class TestContainers:
    def test_sparse_chunk_uses_array_container(self):
        bitmap = RoaringBitmap.from_positions(
            range(100), CHUNK_BITS
        )
        assert bitmap.container_kinds() == {"array": 1, "bitmap": 0}

    def test_dense_chunk_uses_bitmap_container(self):
        bitmap = RoaringBitmap.from_positions(
            range(ARRAY_CONTAINER_LIMIT + 1), CHUNK_BITS
        )
        assert bitmap.container_kinds() == {"array": 0, "bitmap": 1}

    def test_ops_renormalize_containers(self):
        dense = RoaringBitmap.from_positions(
            range(ARRAY_CONTAINER_LIMIT + 100), CHUNK_BITS
        )
        sparse = RoaringBitmap.from_positions(
            range(50), CHUNK_BITS
        )
        intersection = dense & sparse
        assert intersection.count() == 50
        assert intersection.container_kinds()["array"] == 1

    def test_array_container_size_accounting(self):
        bitmap = RoaringBitmap.from_positions(
            range(100), CHUNK_BITS
        )
        assert bitmap.serialized_size_bytes == 8 + 2 * 100

    def test_bitmap_container_size_accounting(self):
        bitmap = RoaringBitmap.from_positions(
            range(ARRAY_CONTAINER_LIMIT + 1), CHUNK_BITS
        )
        assert bitmap.serialized_size_bytes == 8 + CHUNK_BITS // 8


class TestGet:
    def test_get_across_container_kinds(self):
        sparse_positions = [3, 1000]
        dense_positions = list(
            range(CHUNK_BITS, CHUNK_BITS + ARRAY_CONTAINER_LIMIT + 10)
        )
        bitmap = RoaringBitmap.from_positions(
            sparse_positions + dense_positions, 2 * CHUNK_BITS
        )
        assert bitmap.get(3)
        assert not bitmap.get(4)
        assert bitmap.get(CHUNK_BITS + 5)
        assert not bitmap.get(2 * CHUNK_BITS - 1)
        with pytest.raises(IndexError):
            bitmap.get(2 * CHUNK_BITS)


@st.composite
def roaring_pair(draw):
    num_bits = draw(st.integers(min_value=1, max_value=1500))
    positions = st.lists(
        st.integers(min_value=0, max_value=num_bits - 1),
        max_size=200,
    )
    return num_bits, draw(positions), draw(positions)


class TestAgainstOracle:
    @given(roaring_pair())
    @settings(max_examples=150)
    def test_binary_ops_match_reference(self, data):
        num_bits, left_positions, right_positions = data
        roaring_a = RoaringBitmap.from_positions(
            left_positions, num_bits
        )
        roaring_b = RoaringBitmap.from_positions(
            right_positions, num_bits
        )
        plain_a = PlainBitmap.from_positions(left_positions, num_bits)
        plain_b = PlainBitmap.from_positions(
            right_positions, num_bits
        )
        pairs = [
            (roaring_a & roaring_b, plain_a & plain_b),
            (roaring_a | roaring_b, plain_a | plain_b),
            (roaring_a ^ roaring_b, plain_a ^ plain_b),
            (roaring_a.andnot(roaring_b), plain_a.andnot(plain_b)),
            (~roaring_a, ~plain_a),
        ]
        for roaring_result, plain_result in pairs:
            assert (
                roaring_result.to_positions().tolist()
                == plain_result.to_positions().tolist()
            )

    @given(roaring_pair())
    @settings(max_examples=50)
    def test_count_and_density(self, data):
        num_bits, positions, _other = data
        bitmap = RoaringBitmap.from_positions(positions, num_bits)
        assert bitmap.count() == len(set(positions))
        assert bitmap.density() == pytest.approx(
            len(set(positions)) / num_bits
        )

    def test_cross_chunk_threshold_ops(self):
        """Operations straddling the array/bitmap threshold."""
        rng = np.random.default_rng(3)
        a_positions = rng.choice(
            CHUNK_BITS, size=ARRAY_CONTAINER_LIMIT + 500,
            replace=False,
        )
        b_positions = rng.choice(
            CHUNK_BITS, size=200, replace=False
        )
        a = RoaringBitmap.from_positions(a_positions, CHUNK_BITS)
        b = RoaringBitmap.from_positions(b_positions, CHUNK_BITS)
        expected = set(a_positions.tolist()) | set(
            b_positions.tolist()
        )
        assert (a | b).count() == len(expected)
        expected_and = set(a_positions.tolist()) & set(
            b_positions.tolist()
        )
        assert (a & b).count() == len(expected_and)


class TestDunder:
    def test_length_mismatch(self):
        with pytest.raises(BitmapLengthMismatchError):
            _ = RoaringBitmap.zeros(5) | RoaringBitmap.zeros(6)

    def test_equality(self):
        a = RoaringBitmap.from_positions([1, 2], 10)
        b = RoaringBitmap.from_positions([2, 1], 10)
        assert a == b
        assert hash(a) == hash(b)
        assert a != RoaringBitmap.from_positions([1], 10)
        assert a != RoaringBitmap.from_positions([1, 2], 11)
        assert a != object()

    def test_len_and_repr(self):
        bitmap = RoaringBitmap.from_positions([1], 10)
        assert len(bitmap) == 10
        assert "chunks=1" in repr(bitmap)


class TestCompressionComparison:
    def test_roaring_beats_wah_on_very_sparse_data(self):
        from repro.bitmap.wah import WahBitmap

        num_bits = 2_000_000
        rng = np.random.default_rng(0)
        positions = rng.choice(num_bits, size=200, replace=False)
        roaring = RoaringBitmap.from_positions(positions, num_bits)
        wah = WahBitmap.from_positions(positions, num_bits)
        assert (
            roaring.serialized_size_bytes
            < wah.serialized_size_bytes
        )

    def test_both_schemes_bounded_on_dense_random_data(self):
        from repro.bitmap.wah import WahBitmap

        num_bits = 500_000
        rng = np.random.default_rng(1)
        positions = rng.choice(
            num_bits, size=num_bits // 2, replace=False
        )
        roaring = RoaringBitmap.from_positions(positions, num_bits)
        wah = WahBitmap.from_positions(positions, num_bits)
        raw = num_bits / 8
        assert roaring.serialized_size_bytes <= 1.2 * raw
        assert wah.serialized_size_bytes <= 1.2 * raw * (32 / 31) + 64
