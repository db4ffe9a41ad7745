"""Tests for WAH concat, the join behind appends and merge-on-read."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap.wah import WORD_PAYLOAD_BITS, WahBitmap


class TestConcat:
    def test_aligned_concat(self):
        a = WahBitmap.from_positions([0, 30], WORD_PAYLOAD_BITS * 2)
        b = WahBitmap.from_positions([5], 40)
        joined = a.concat(b)
        assert joined.num_bits == WORD_PAYLOAD_BITS * 2 + 40
        assert joined.to_positions().tolist() == [
            0, 30, WORD_PAYLOAD_BITS * 2 + 5,
        ]

    def test_unaligned_concat(self):
        a = WahBitmap.from_positions([1, 35], 40)
        b = WahBitmap.from_positions([0, 30], 31)
        joined = a.concat(b)
        assert joined.to_positions().tolist() == [1, 35, 40, 70]
        assert joined.num_bits == 71

    def test_concat_with_empty(self):
        a = WahBitmap.from_positions([3], 10)
        assert a.concat(WahBitmap.zeros(0)) == a
        grown = WahBitmap.zeros(0).concat(a)
        assert grown == a

    def test_aligned_concat_merges_fills_at_seam(self):
        a = WahBitmap.zeros(WORD_PAYLOAD_BITS * 3)
        b = WahBitmap.zeros(WORD_PAYLOAD_BITS * 4)
        joined = a.concat(b)
        assert joined.num_words == 1

    @given(
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100)
    def test_concat_matches_position_arithmetic(
        self, left_bits, right_bits, seed
    ):
        rng = np.random.default_rng(seed)
        left = (
            rng.choice(left_bits, size=left_bits // 3, replace=False)
            if left_bits
            else np.empty(0, dtype=np.int64)
        )
        right = (
            rng.choice(
                right_bits, size=right_bits // 3, replace=False
            )
            if right_bits
            else np.empty(0, dtype=np.int64)
        )
        a = WahBitmap.from_positions(left, left_bits)
        b = WahBitmap.from_positions(right, right_bits)
        joined = a.concat(b)
        expected = sorted(left.tolist()) + sorted(
            (right + left_bits).tolist()
        )
        assert joined.to_positions().tolist() == expected
        assert joined.num_bits == left_bits + right_bits
