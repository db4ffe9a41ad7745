"""Property tests: vectorized WAH kernels vs. the scalar reference.

The scalar per-word implementation in ``tests/wah_reference.py`` is the
oracle; the numpy kernels behind :class:`~repro.bitmap.wah.WahBitmap`
must produce **bit-identical canonical word streams** for every
operation, across random densities, lengths (including non-multiples
of 31), and run structures.  Word-level equality is stronger than
logical equality: it pins the canonical encoding (fill merging,
uniform-literal collapsing) the serialization format and the cost
accounting depend on.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitmap import kernels
from repro.bitmap.serialization import deserialize_wah, serialize_wah
from repro.bitmap.wah import LITERAL_PAYLOAD_MASK, WahBitmap
from repro.errors import BitmapDecodeError, BitmapLengthMismatchError
from tests import wah_reference as ref

MAX_BITS = 700

BINARY_OPS = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "andnot": lambda a, b: a.andnot(b),
}


@st.composite
def run_list(draw, num_bits: int) -> list[tuple[int, int]]:
    """Sorted, disjoint ``(start, stop)`` runs within ``num_bits``."""
    edges = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_bits),
            max_size=8,
        )
    )
    edges = sorted(set(edges))
    return list(zip(edges[::2], edges[1::2]))


@st.composite
def wah_bitmap(draw, num_bits: int) -> WahBitmap:
    """A random bitmap biased toward interesting run structure."""
    style = draw(st.integers(min_value=0, max_value=2))
    if style == 0:
        positions = draw(
            st.lists(
                st.integers(min_value=0, max_value=num_bits - 1),
                max_size=num_bits,
            )
        )
        return WahBitmap.from_positions(positions, num_bits)
    if style == 1:
        # Long 1-runs exercise fill merging.
        return WahBitmap.from_runs(draw(run_list(num_bits)), num_bits)
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return WahBitmap.from_dense(rng.random(num_bits) < density)


@st.composite
def bitmap_pair(draw):
    num_bits = draw(st.integers(min_value=1, max_value=MAX_BITS))
    return (
        draw(wah_bitmap(num_bits)),
        draw(wah_bitmap(num_bits)),
    )


@st.composite
def bitmap_list(draw):
    num_bits = draw(st.integers(min_value=1, max_value=MAX_BITS))
    count = draw(st.integers(min_value=1, max_value=7))
    return num_bits, [
        draw(wah_bitmap(num_bits)) for _ in range(count)
    ]


class TestConstructors:
    @given(st.integers(min_value=0, max_value=MAX_BITS), st.data())
    @settings(max_examples=150)
    def test_from_positions_bit_identical(self, num_bits, data):
        positions = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=max(num_bits - 1, 0)),
                max_size=num_bits,
            )
        ) if num_bits else []
        bitmap = WahBitmap.from_positions(positions, num_bits)
        assert bitmap.words == tuple(
            ref.from_positions(positions, num_bits)
        )

    @given(st.integers(min_value=0, max_value=MAX_BITS), st.data())
    @settings(max_examples=150)
    def test_from_runs_bit_identical(self, num_bits, data):
        runs = data.draw(run_list(num_bits))
        bitmap = WahBitmap.from_runs(runs, num_bits)
        assert bitmap.words == tuple(ref.from_runs(runs, num_bits))

    @given(st.integers(min_value=0, max_value=MAX_BITS))
    def test_zeros_and_ones_bit_identical(self, num_bits):
        assert WahBitmap.zeros(num_bits).words == tuple(
            ref.from_positions([], num_bits)
        )
        assert WahBitmap.ones(num_bits).words == tuple(
            ref.ones(num_bits)
        )


class TestReaders:
    @given(st.integers(min_value=1, max_value=MAX_BITS), st.data())
    @settings(max_examples=150)
    def test_to_positions_count_and_get_match_reference(
        self, num_bits, data
    ):
        bitmap = data.draw(wah_bitmap(num_bits))
        words = bitmap.words
        positions = bitmap.to_positions()
        assert positions.dtype == np.int64
        assert positions.tolist() == ref.to_positions(words)
        assert bitmap.count() == ref.count(words)
        probes = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=num_bits - 1),
                max_size=20,
            )
        )
        for position in probes:
            assert bitmap.get(position) == ref.get(words, position)

    def test_iter_runs_decodes_each_word(self):
        bitmap = WahBitmap.from_runs([(0, 93), (100, 103)], 200)
        runs = list(bitmap.iter_runs())
        assert runs[0] == (True, 1, 3, 0)
        assert [run[2] for run in runs] == [
            ngroups for _payload, ngroups in ref.iter_groups(bitmap.words)
        ]


class TestBinaryOps:
    @given(bitmap_pair())
    @settings(max_examples=150)
    def test_binary_ops_bit_identical(self, pair):
        a, b = pair
        for name, op in BINARY_OPS.items():
            assert op(a, b).words == tuple(
                ref.binary(a.words, b.words, name)
            )

    @given(bitmap_pair())
    @settings(max_examples=80)
    def test_results_stay_canonical(self, pair):
        """Kernel outputs survive a WAH round-trip unchanged (no
        adjacent same-value fills, no uniform literals)."""
        a, b = pair
        result = a | b
        encoder = ref.Encoder()
        for is_fill, value, ngroups, literal in result.iter_runs():
            if is_fill:
                encoder.append_fill(value, ngroups)
            else:
                encoder.append_literal(literal)
        assert encoder.words == list(result.words)

    def test_length_mismatch_raises(self):
        a = WahBitmap.zeros(62)
        b = WahBitmap.zeros(31)
        with pytest.raises(BitmapLengthMismatchError):
            a | b


class TestInvertAndCount:
    @given(st.integers(min_value=0, max_value=MAX_BITS), st.data())
    @settings(max_examples=150)
    def test_invert_and_count_bit_identical(self, num_bits, data):
        if num_bits == 0:
            bitmap = WahBitmap.zeros(0)
        else:
            bitmap = data.draw(wah_bitmap(num_bits))
        assert (~bitmap).words == tuple(
            ref.invert(bitmap.words, num_bits)
        )
        assert bitmap.count() == ref.count(bitmap.words)


class TestConcat:
    @given(
        st.integers(min_value=0, max_value=MAX_BITS),
        st.integers(min_value=0, max_value=MAX_BITS),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=200)
    def test_concat_bit_identical(self, bits_a, bits_b, aligned, data):
        if aligned:
            bits_a -= bits_a % 31
        a = data.draw(wah_bitmap(bits_a)) if bits_a else WahBitmap.zeros(0)
        b = data.draw(wah_bitmap(bits_b)) if bits_b else WahBitmap.zeros(0)
        joined = a.concat(b)
        assert joined.num_bits == bits_a + bits_b
        assert joined.words == tuple(
            ref.concat(a.words, bits_a, b.words, bits_b)
        )

    @pytest.mark.parametrize("bits_a", [31 * 40, 31 * 40 + 7, 31 * 40 + 30])
    @pytest.mark.parametrize("bits_b", [0, 1, 24, 31 * 9, 31 * 9 + 25])
    def test_concat_fills_across_the_seam(self, bits_a, bits_b):
        """All-one and all-zero operands: the shifted fills must merge
        with the seam group exactly as the reference encoder does."""
        for a in (WahBitmap.ones(bits_a), WahBitmap.zeros(bits_a)):
            for b in (WahBitmap.ones(bits_b), WahBitmap.zeros(bits_b)):
                assert a.concat(b).words == tuple(
                    ref.concat(a.words, bits_a, b.words, bits_b)
                )


class TestUnionAll:
    @given(bitmap_list())
    @settings(max_examples=100)
    def test_union_all_bit_identical(self, data):
        num_bits, bitmaps = data
        union = WahBitmap.union_all(bitmaps, num_bits=num_bits)
        assert union.words == tuple(
            ref.union_all(bitmap.words for bitmap in bitmaps)
        )

    def test_union_all_empty_input(self):
        result = WahBitmap.union_all([], num_bits=100)
        assert result == WahBitmap.zeros(100)

    def test_union_all_length_mismatch_raises(self):
        bitmaps = [WahBitmap.zeros(31), WahBitmap.zeros(62)]
        with pytest.raises(BitmapLengthMismatchError):
            WahBitmap.union_all(bitmaps)


class TestLargerDeterministicCases:
    """Seeded larger-scale cases beyond hypothesis' size sweet spot."""

    NUM_BITS = 200_013  # deliberately not a multiple of 31

    @pytest.mark.parametrize(
        "density", [1e-4, 1e-3, 1e-2, 0.05, 0.3, 0.5, 0.9, 0.999]
    )
    def test_dense_sweep_bit_identical(self, density):
        rng = np.random.default_rng(int(density * 1e6))
        dense_a = rng.random(self.NUM_BITS) < density
        a = WahBitmap.from_dense(dense_a)
        b = WahBitmap.from_dense(rng.random(self.NUM_BITS) < density)
        assert a.words == tuple(
            ref.from_positions(np.flatnonzero(dense_a), self.NUM_BITS)
        )
        for name, op in BINARY_OPS.items():
            assert op(a, b).words == tuple(
                ref.binary(a.words, b.words, name)
            )
        assert (~a).words == tuple(ref.invert(a.words, self.NUM_BITS))
        assert a.count() == ref.count(a.words)
        assert a.to_positions().tolist() == ref.to_positions(a.words)
        assert a.concat(b).words == tuple(
            ref.concat(a.words, self.NUM_BITS, b.words, self.NUM_BITS)
        )

    def test_many_way_union_bit_identical(self):
        rng = np.random.default_rng(42)
        bitmaps = [
            WahBitmap.from_positions(
                rng.choice(self.NUM_BITS, size=500, replace=False),
                self.NUM_BITS,
            )
            for _ in range(24)
        ]
        assert WahBitmap.union_all(bitmaps).words == tuple(
            ref.union_all(bitmap.words for bitmap in bitmaps)
        )


def _force_regime(monkeypatch, dense: bool) -> None:
    """Make the regime the gate must not pick fail loudly.

    Only the sparse path decodes run arrays and only the dense path
    expands group arrays, so disabling one proves the other ran.
    """
    name = "decode_words" if dense else "_expand_groups"

    def refuse(*_args, **_kwargs):
        raise AssertionError(f"{name} called on the wrong path")

    monkeypatch.setattr(kernels, name, refuse)


def _spaced(
    periods: int, spacing: int, bit: int, extra_groups: int
) -> WahBitmap:
    """Bit ``bit`` set in every ``spacing``-th group, from group 0, then
    ``extra_groups`` more groups: two words per ``spacing`` groups (a
    literal and a 0-fill)."""
    positions = np.arange(periods) * spacing * 31 + bit
    return WahBitmap.from_positions(
        positions, (periods * spacing + extra_groups) * 31
    )


def _near_empty(num_bits: int, count: int, seed: int) -> WahBitmap:
    rng = np.random.default_rng(seed)
    return WahBitmap.from_positions(
        rng.choice(num_bits, size=count, replace=False), num_bits
    )


def _non_canonical(words) -> list[int]:
    """The same groups with every fill split in two and a zero-length
    0-fill and 1-fill before every literal (CRC-valid, not canonical)."""
    out = []
    for word in words:
        count = word & kernels.FILL_COUNT_MASK
        if word >= kernels.FILL_FLAG and count >= 2:
            out += [word - count + count // 2, word - count // 2]
        elif word < kernels.FILL_FLAG:
            out += [kernels.FILL_FLAG, kernels.FILL_FLAG
                    | kernels.FILL_VALUE_BIT, word]
        else:
            out.append(word)
    return out


class TestRegimes:
    """Both sides of the ``DENSE_GROUPS_PER_WORD`` gate match the
    scalar oracle word for word: random bitmaps (dense), long
    near-empty ones (sparse) and operands exactly on the threshold."""

    DENSE_BITS = 31 * 300 + 17
    SPARSE_BITS = 31 * 100_000 + 17

    def _operands(
        self, dense: bool, count: int, trim_bits: int = 0
    ) -> list[WahBitmap]:
        if dense:
            num_bits = self.DENSE_BITS - trim_bits
            rng = np.random.default_rng(count)
            return [
                WahBitmap.from_dense(
                    rng.random(num_bits) < rng.uniform(0.02, 0.6)
                )
                for _ in range(count)
            ]
        return [
            _near_empty(self.SPARSE_BITS - trim_bits, 30, seed)
            for seed in range(count)
        ]

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    @pytest.mark.parametrize("k", range(1, 17))
    def test_union_all(self, monkeypatch, dense, k):
        bitmaps = self._operands(dense, k)
        expected = ref.union_all(bitmap.words for bitmap in bitmaps)
        _force_regime(monkeypatch, dense)
        assert WahBitmap.union_all(bitmaps).words == tuple(expected)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    def test_binary_ops(self, monkeypatch, dense):
        a, b = self._operands(dense, 2)
        expected = {
            name: tuple(ref.binary(a.words, b.words, name))
            for name in BINARY_OPS
        }
        _force_regime(monkeypatch, dense)
        for name, op in BINARY_OPS.items():
            assert op(a, b).words == expected[name]

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    @pytest.mark.parametrize("shift", [0, 1, 17, 30])
    def test_concat(self, monkeypatch, dense, shift):
        (a,) = self._operands(dense, 1, trim_bits=17 - shift)
        (b,) = self._operands(dense, 1, trim_bits=5)
        assert a.num_bits % 31 == shift
        expected = ref.concat(a.words, a.num_bits, b.words, b.num_bits)
        _force_regime(monkeypatch, dense)
        assert a.concat(b).words == tuple(expected)

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    def test_to_positions(self, monkeypatch, dense):
        bitmaps = self._operands(dense, 3)
        if dense:
            # Mostly literals, with 1-fills and 0-fills among them.
            bitmaps.append(WahBitmap.from_runs(
                [(5, 200), (400, 410), (1000, 1300)], self.DENSE_BITS
            ) ^ bitmaps[0])
        else:
            bitmaps.append(WahBitmap.from_runs(
                [(100, 5000), (2_000_000, 2_000_100)], self.SPARSE_BITS
            ))
        expected = [ref.to_positions(bitmap.words) for bitmap in bitmaps]
        _force_regime(monkeypatch, dense)
        for bitmap, want in zip(bitmaps, expected):
            got = bitmap.to_positions()
            assert got.dtype == np.int64
            assert got.tolist() == want

    @pytest.mark.parametrize("extra_groups", [0, 1], ids=["on", "over"])
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 16])
    def test_union_all_on_the_threshold(self, monkeypatch, k, extra_groups):
        # 2 words per 16k groups in each of k streams: exactly
        # DENSE_GROUPS_PER_WORD groups per word, plus extra_groups.
        spacing = 16 * k
        num_groups = 4 * spacing + extra_groups
        bitmaps = [
            _spaced(4, spacing, bit, extra_groups) for bit in range(k)
        ]
        total_words = sum(bitmap.num_words for bitmap in bitmaps)
        assert num_groups == (
            kernels.DENSE_GROUPS_PER_WORD * total_words + extra_groups
        )
        expected = ref.union_all(bitmap.words for bitmap in bitmaps)
        _force_regime(monkeypatch, dense=not extra_groups)
        assert WahBitmap.union_all(bitmaps).words == tuple(expected)

    @pytest.mark.parametrize("extra_groups", [0, 1], ids=["on", "over"])
    def test_binary_concat_positions_on_the_threshold(
        self, monkeypatch, extra_groups
    ):
        # Binary ops: 2 operands over G groups, 2 words per 32 groups
        # each.  Concat (operands over G + G groups) and to_positions
        # (one operand): 2 words per 16 groups.
        a = _spaced(4, 32, 3, extra_groups)
        b = _spaced(4, 32, 30, extra_groups)
        c = _spaced(4, 16, 5, extra_groups)
        d = _spaced(4, 16, 29, extra_groups)
        c_short = WahBitmap.from_positions(c.to_positions(), c.num_bits - 7)
        assert a.num_words == b.num_words == c.num_words == 8
        expected = (
            {name: tuple(ref.binary(a.words, b.words, name))
             for name in BINARY_OPS},
            [tuple(ref.concat(x.words, x.num_bits, d.words, d.num_bits))
             for x in (c, c_short)],
            ref.to_positions(c.words),
        )
        _force_regime(monkeypatch, dense=not extra_groups)
        for name, op in BINARY_OPS.items():
            assert op(a, b).words == expected[0][name]
        assert [x.concat(d).words for x in (c, c_short)] == expected[1]
        assert c.to_positions().tolist() == expected[2]

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    def test_group_count_mismatch_raises(self, monkeypatch, dense):
        if dense:
            a = WahBitmap.from_positions([0, 40], 62).word_array
            b = WahBitmap.from_positions([3], 31).word_array
        else:
            a = WahBitmap.zeros(31 * 1000).word_array
            b = WahBitmap.zeros(31 * 999).word_array
        _force_regime(monkeypatch, dense)
        with pytest.raises(BitmapDecodeError):
            kernels.binary_words(a, b, "or")
        with pytest.raises(BitmapDecodeError):
            kernels.union_all_words([a, b])
        with pytest.raises(BitmapDecodeError):
            kernels.union_all_words([b, a])

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    def test_non_canonical_frames_reencode_canonically(
        self, monkeypatch, dense
    ):
        canonical, other = self._operands(dense, 2)
        num_bits = canonical.num_bits
        words = _non_canonical(canonical.words)
        assert len(words) > canonical.num_words
        decoded = deserialize_wah(serialize_wah(WahBitmap(words, num_bits)))
        assert decoded.words == tuple(words)  # the frame is accepted as is
        zeros = WahBitmap.zeros(num_bits)
        tail = WahBitmap.from_positions([0, 12], 40)
        expected = (
            canonical.words,
            tuple(ref.binary(canonical.words, other.words, "and")),
            tuple(ref.concat(canonical.words, num_bits, tail.words, 40)),
            ref.to_positions(canonical.words),
        )
        _force_regime(monkeypatch, dense)
        assert (decoded | zeros).words == expected[0]
        assert decoded.andnot(zeros).words == expected[0]
        assert WahBitmap.union_all([decoded]).words == expected[0]
        assert WahBitmap.union_all([zeros, decoded]).words == expected[0]
        assert (decoded & other).words == expected[1]
        assert decoded.concat(tail).words == expected[2]
        assert decoded.to_positions().tolist() == expected[3]


def _oracle_groups(words) -> np.ndarray:
    """The payload of every group of a word stream, by the oracle."""
    return np.array(
        [
            payload
            for payload, count in ref.iter_groups(words)
            for _ in range(count)
        ],
        dtype=np.uint32,
    )


ACCUMULATE = {
    "or": kernels.or_words_into,
    "andnot": kernels.andnot_words_into,
}


def _accumulated(base: WahBitmap, steps, monkeypatch=None, dense=None):
    """``(kernel words, oracle words)`` of applying ``(op, bitmap)``
    steps in place to a group array holding ``base``; with
    ``monkeypatch``, the regime other than ``dense`` is disabled
    first."""
    expected = list(base.words)
    for op, bitmap in steps:
        expected = ref.binary(expected, bitmap.words, op)
    acc = _oracle_groups(base.words)
    if monkeypatch is not None:
        _force_regime(monkeypatch, dense)
    for op, bitmap in steps:
        ACCUMULATE[op](acc, bitmap.word_array)
    return WahBitmap.from_groups(acc, base.num_bits).words, tuple(expected)


class TestAccumulators:
    """``or_words_into`` / ``andnot_words_into`` leave the group array
    the scalar oracle's binary ops describe, word for word once
    encoded, on both sides of the regime gate."""

    @given(bitmap_list(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_operands_match_oracle(self, operands, data):
        num_bits, bitmaps = operands
        base = data.draw(wah_bitmap(num_bits))
        ops = data.draw(
            st.lists(
                st.sampled_from(sorted(ACCUMULATE)),
                min_size=len(bitmaps),
                max_size=len(bitmaps),
            )
        )
        got, expected = _accumulated(base, list(zip(ops, bitmaps)))
        assert got == expected

    @pytest.mark.parametrize("op", sorted(ACCUMULATE))
    @pytest.mark.parametrize("tail_bits", [0, 1, 17, 30])
    @pytest.mark.parametrize("density", [0.0, 0.02, 0.5, 1.0])
    def test_long_fills_and_partial_final_group(
        self, op, tail_bits, density
    ):
        num_bits = 31 * 400 + tail_bits
        rng = np.random.default_rng(int(density * 100) + tail_bits)
        base = WahBitmap.from_dense(rng.random(num_bits) < density)
        # 1-fills of many groups, one running into the final group.
        fills = WahBitmap.from_runs(
            [(3, 31 * 40 + 9), (31 * 100, 31 * 260), (31 * 399, num_bits)],
            num_bits,
        )
        scattered = WahBitmap.from_dense(rng.random(num_bits) < 0.01)
        got, expected = _accumulated(
            base, [(op, fills), (op, scattered), ("or", fills)]
        )
        assert got == expected

    @pytest.mark.parametrize("op", sorted(ACCUMULATE))
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    def test_each_regime(self, monkeypatch, op, dense):
        bitmaps = TestRegimes()._operands(dense, 4)
        num_bits = bitmaps[0].num_bits
        # Long 1-fills (and, when dense, literals around them).
        fills = WahBitmap.from_runs(
            [(100, 5000), (6000, num_bits - 3)], num_bits
        )
        bitmaps.append(fills ^ bitmaps[1] if dense else fills)
        got, expected = _accumulated(
            bitmaps[0],
            [(op, bitmap) for bitmap in bitmaps[1:]],
            monkeypatch,
            dense,
        )
        assert got == expected

    @pytest.mark.parametrize("op", sorted(ACCUMULATE))
    @pytest.mark.parametrize("extra_groups", [0, 1], ids=["on", "over"])
    def test_on_the_threshold(self, monkeypatch, op, extra_groups):
        # 8 words over 64 groups: exactly DENSE_GROUPS_PER_WORD groups
        # per word, plus extra_groups.
        base = _spaced(4, 16, 3, extra_groups) | _spaced(
            4, 16, 11, extra_groups
        )
        operand = _spaced(4, 16, 11, extra_groups)
        assert operand.num_words * kernels.DENSE_GROUPS_PER_WORD == 64
        got, expected = _accumulated(
            base, [(op, operand)], monkeypatch, dense=not extra_groups
        )
        assert got == expected

    @pytest.mark.parametrize("op", sorted(ACCUMULATE))
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
    def test_group_count_mismatch_raises(self, monkeypatch, op, dense):
        if dense:
            acc = np.zeros(2, dtype=np.uint32)
            words = WahBitmap.from_positions([3], 31).word_array
        else:
            acc = np.zeros(1000, dtype=np.uint32)
            words = WahBitmap.zeros(31 * 999).word_array
        _force_regime(monkeypatch, dense)
        with pytest.raises(BitmapDecodeError):
            ACCUMULATE[op](acc, words)

    def test_from_groups_rejects_a_wrong_group_count(self):
        with pytest.raises(ValueError):
            WahBitmap.from_groups(np.zeros(3, dtype=np.uint32), 31)


class TestWordArray:
    def test_words_are_one_read_only_uint32_array(self):
        bitmap = WahBitmap.from_positions([1, 40, 99], 100)
        array = bitmap.word_array
        assert array.dtype == np.uint32
        assert not array.flags.writeable
        assert bitmap.words == tuple(array.tolist())
        with pytest.raises(ValueError):
            array[0] = 0

    def test_pickled_bitmap_stays_read_only(self):
        bitmap = WahBitmap.from_positions([1, 40, 99], 100)
        restored = pickle.loads(pickle.dumps(bitmap))
        assert restored == bitmap
        assert not restored.word_array.flags.writeable

    def test_caller_array_is_not_frozen(self):
        words = np.asarray(WahBitmap.ones(62).words, dtype=np.uint32)
        WahBitmap(words, 62)
        assert words.flags.writeable


class TestKernelPrimitives:
    def test_decode_encode_roundtrip_is_identity(self):
        rng = np.random.default_rng(9)
        bitmap = WahBitmap.from_positions(
            rng.choice(10_000, size=700, replace=False), 10_000
        )
        lengths, payloads = kernels.decode_words(bitmap.word_array)
        words = kernels.encode_runs(lengths, payloads)
        assert words.dtype == np.uint32
        assert tuple(words.tolist()) == bitmap.words

    def test_encode_splits_oversized_fills_like_scalar(self):
        huge = 3 * kernels.MAX_FILL_GROUPS + 5
        words = kernels.encode_runs([huge, 1, huge], [0, 0b1010, 0])
        encoder = ref.Encoder()
        encoder.append_fill(0, huge)
        encoder.append_literal(0b1010)
        encoder.append_fill(0, huge)
        assert words.tolist() == encoder.words

    def test_encode_collapses_uniform_literals(self):
        words = kernels.encode_runs(
            [1, 1, 1], [0, 0, LITERAL_PAYLOAD_MASK]
        )
        encoder = ref.Encoder()
        encoder.append_literal(0)
        encoder.append_literal(0)
        encoder.append_literal(LITERAL_PAYLOAD_MASK)
        assert words.tolist() == encoder.words

    def test_encode_expands_non_uniform_multi_group_runs(self):
        # Hand-built input violating the literal-length-1 invariant.
        words = kernels.encode_runs([3], [0b101])
        assert words.tolist() == [0b101, 0b101, 0b101]

    def test_binary_words_rejects_group_count_mismatch(self):
        a = WahBitmap.zeros(62).word_array
        b = WahBitmap.zeros(31).word_array
        with pytest.raises(BitmapDecodeError):
            kernels.binary_words(a, b, "or")

    def test_binary_words_rejects_unknown_op(self):
        words = WahBitmap.zeros(31).word_array
        with pytest.raises(ValueError):
            kernels.binary_words(words, words, "nand")

    def test_popcount32_matches_bit_count(self):
        rng = np.random.default_rng(3)
        values = rng.integers(
            0, 2**32, size=1000, dtype=np.uint64
        ).astype(np.int64)
        expected = [int(v).bit_count() for v in values]
        assert kernels.popcount32(values).tolist() == expected
