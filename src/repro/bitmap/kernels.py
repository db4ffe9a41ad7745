"""WAH kernels: bulk run-array operations over ``uint32`` word arrays.

Every :class:`~repro.bitmap.wah.WahBitmap` operation is implemented
here as whole-array numpy work, so its cost follows the number of
compressed words (or, for ``to_positions``, of the positions it
returns) rather than a Python loop per word or per bit:

1. **decode** a word array into two parallel ``int64`` arrays —
   ``lengths`` (groups covered by each run) and ``payloads`` (the 31-bit
   payload replicated across the run: ``0`` / ``0x7FFFFFFF`` for fills,
   the literal word otherwise);
2. **merge** two (or ``k``) run arrays group-aligned by intersecting
   their cumulative group boundaries with ``searchsorted`` and applying
   the bitwise op to whole payload arrays at once;
3. **re-encode** canonically — uniform segments collapse into fill
   words, adjacent same-value fills merge, and oversized fills split at
   the 2^30-1 group limit.

The invariant the merge step relies on: a decoded run with a
non-uniform payload always covers exactly one group (it came from a
literal word), so any merged segment wider than one group is covered by
fills on every input and therefore has a uniform result payload.

The per-word scalar encoder these kernels must agree with, word for
word, lives with the tests (``tests/wah_reference.py``) as the oracle.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import BitmapDecodeError

__all__ = [
    "WORD_PAYLOAD_BITS",
    "LITERAL_PAYLOAD_MASK",
    "FILL_FLAG",
    "FILL_VALUE_BIT",
    "FILL_COUNT_MASK",
    "MAX_FILL_GROUPS",
    "decode_words",
    "encode_runs",
    "literals_to_words",
    "check_words",
    "expand_ranges",
    "groups_for_bits",
    "binary_words",
    "union_all_words",
    "invert_words",
    "concat_words",
    "positions_words",
    "count_words",
    "popcount32",
]

WORD_PAYLOAD_BITS = 31
LITERAL_PAYLOAD_MASK = (1 << WORD_PAYLOAD_BITS) - 1  # 0x7FFFFFFF
FILL_FLAG = 1 << 31
FILL_VALUE_BIT = 1 << 30
FILL_COUNT_MASK = (1 << 30) - 1
MAX_FILL_GROUPS = FILL_COUNT_MASK


def groups_for_bits(num_bits: int) -> int:
    """Number of 31-bit groups needed to hold ``num_bits`` bits."""
    return -(-num_bits // WORD_PAYLOAD_BITS)


def expand_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(start, start + length)`` for every range."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(
        starts - offsets, lengths
    )


# ----------------------------------------------------------------------
# Decode / encode between word arrays and run arrays
# ----------------------------------------------------------------------
def decode_words(words) -> tuple[np.ndarray, np.ndarray]:
    """Decode a WAH word array into ``(lengths, payloads)`` run arrays.

    ``lengths[i]`` is the number of 31-bit groups run ``i`` covers and
    ``payloads[i]`` the payload of every group in the run (``0`` or
    ``LITERAL_PAYLOAD_MASK`` for fills; literal runs always have length
    one).  Zero-length fills (non-canonical) are dropped.
    """
    w = np.asarray(words, dtype=np.int64)
    if w.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    is_fill = (w & FILL_FLAG) != 0
    lengths = np.where(is_fill, w & FILL_COUNT_MASK, 1)
    fill_payload = np.where(
        (w & FILL_VALUE_BIT) != 0, LITERAL_PAYLOAD_MASK, 0
    )
    payloads = np.where(is_fill, fill_payload, w & LITERAL_PAYLOAD_MASK)
    if lengths.min() <= 0:
        keep = lengths > 0
        lengths = lengths[keep]
        payloads = payloads[keep]
    return lengths, payloads


def encode_runs(lengths, payloads) -> np.ndarray:
    """Canonically encode run arrays into a ``uint32`` WAH word array.

    Uniform payloads become fill words, adjacent fills of the same value
    merge (splitting into ``MAX_FILL_GROUPS``-sized words first and the
    remainder last), and every non-uniform group becomes one literal
    word.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    payloads = np.asarray(payloads, dtype=np.int64)
    if lengths.size and lengths.min() <= 0:
        keep = lengths > 0
        lengths = lengths[keep]
        payloads = payloads[keep]
    n = lengths.size
    if n == 0:
        return np.empty(0, dtype=np.uint32)
    uniform = (payloads == 0) | (payloads == LITERAL_PAYLOAD_MASK)
    if bool(np.any(~uniform & (lengths > 1))):
        # Defensive: a multi-group run with a non-uniform payload can
        # only come from hand-built input; expand it into unit literals
        # so canonicalization below stays correct.
        reps = np.where(uniform, 1, lengths)
        payloads = np.repeat(payloads, reps)
        lengths = np.repeat(np.where(uniform, lengths, 1), reps)
        uniform = np.repeat(uniform, reps)
        n = lengths.size
    # A new output word starts wherever the previous run cannot absorb
    # this one (literals never merge; fills merge only on equal value).
    start = np.empty(n, dtype=bool)
    start[0] = True
    if n > 1:
        start[1:] = ~(
            uniform[1:]
            & uniform[:-1]
            & (payloads[1:] == payloads[:-1])
        )
    idx = np.flatnonzero(start)
    grp_lengths = np.add.reduceat(lengths, idx)
    grp_payloads = payloads[idx]
    grp_uniform = uniform[idx]
    nwords = np.where(
        grp_uniform, -(-grp_lengths // MAX_FILL_GROUPS), 1
    )
    if bool(np.any(nwords > 1)):
        # A fill longer than the 30-bit count field: every word but the
        # last holds MAX_FILL_GROUPS groups, the last the remainder.
        last = np.repeat(grp_lengths - (nwords - 1) * MAX_FILL_GROUPS,
                         nwords)
        is_last = np.zeros(last.size, dtype=bool)
        is_last[np.cumsum(nwords) - 1] = True
        grp_lengths = np.where(is_last, last, MAX_FILL_GROUPS)
        grp_payloads = np.repeat(grp_payloads, nwords)
        grp_uniform = np.repeat(grp_uniform, nwords)
    fill_words = (
        FILL_FLAG
        | np.where(grp_payloads == LITERAL_PAYLOAD_MASK,
                   FILL_VALUE_BIT, 0)
        | grp_lengths
    )
    out = np.where(grp_uniform, fill_words, grp_payloads)
    return out.astype(np.uint32)


def literals_to_words(
    groups: np.ndarray, payloads: np.ndarray, total_groups: int
) -> np.ndarray:
    """Encode literal payloads at sorted, distinct group ids, with
    0-fills over every group in between and after them."""
    n = groups.size
    lengths = np.ones(2 * n + 1, dtype=np.int64)
    lengths[0:-1:2] = np.diff(groups, prepend=-1) - 1
    lengths[-1] = total_groups - (int(groups[-1]) + 1 if n else 0)
    run_payloads = np.zeros(2 * n + 1, dtype=np.int64)
    run_payloads[1::2] = payloads
    return encode_runs(lengths, run_payloads)


def check_words(words: np.ndarray, num_bits: int) -> None:
    """Reject a word array that does not fit ``num_bits`` logical bits.

    The words must cover exactly ``ceil(num_bits / 31)`` groups and
    leave the padding bits of a partial final group clear; raises
    :class:`~repro.errors.BitmapDecodeError` otherwise.
    """
    words = np.asarray(words, dtype=np.uint32)
    is_fill = words >= FILL_FLAG
    covered = int(
        np.where(is_fill, words & FILL_COUNT_MASK, 1).sum(dtype=np.int64)
    )
    expected = groups_for_bits(num_bits)
    if covered != expected:
        raise BitmapDecodeError(
            f"words cover {covered} groups, but {num_bits} bits need "
            f"{expected}"
        )
    tail_bits = num_bits % WORD_PAYLOAD_BITS
    last = int(words[-1]) if tail_bits else 0
    if last & FILL_FLAG:
        last = LITERAL_PAYLOAD_MASK if last & FILL_VALUE_BIT else 0
    if last >> tail_bits:
        raise BitmapDecodeError(
            f"padding bits beyond num_bits={num_bits} are set"
        )


def _merge_bounds(
    runs: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Segment boundaries shared by run arrays over the same groups.

    Returns the sorted union of the streams' cumulative group
    boundaries and each stream's own boundaries (for ``searchsorted``
    lookups of its payload in every segment).  Boundary values are
    bounded by the total group count, so unless the streams are very
    sparse relative to the logical length a boolean-mask scatter beats
    sorting; the sparse case sorts so memory stays ``O(total runs)``.
    """
    ends_list = [np.cumsum(lengths) for lengths, _ in runs]
    totals = {int(ends[-1]) if ends.size else 0 for ends in ends_list}
    if len(totals) > 1:
        raise BitmapDecodeError(
            "operand word streams cover different group counts"
        )
    total_groups = totals.pop()
    if len(ends_list) == 1 or total_groups == 0:
        return ends_list[0], ends_list
    num_runs = sum(ends.size for ends in ends_list)
    if total_groups <= 8 * num_runs:
        mask = np.zeros(total_groups + 1, dtype=bool)
        for ends in ends_list:
            mask[ends] = True
        return np.flatnonzero(mask), ends_list
    bounds = np.sort(np.concatenate(ends_list))
    return bounds[np.diff(bounds, prepend=-1) != 0], ends_list


def _segment_payloads(
    ends: np.ndarray, payloads: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """One stream's payload in every merged segment."""
    return payloads[np.searchsorted(ends, bounds, side="left")]


# ----------------------------------------------------------------------
# Bulk logical operations
# ----------------------------------------------------------------------
_BINARY_OPS = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "andnot": lambda a, b: a & ~b & LITERAL_PAYLOAD_MASK,
}


def binary_words(words_a, words_b, op: str) -> np.ndarray:
    """Merge two word arrays group-aligned under a named bitwise op.

    ``op`` is one of ``and`` / ``or`` / ``xor`` / ``andnot``.  Both
    arrays must cover the same number of 31-bit groups.
    """
    try:
        op_func = _BINARY_OPS[op]
    except KeyError:
        raise ValueError(
            f"op must be one of {sorted(_BINARY_OPS)}, got {op!r}"
        ) from None
    runs = [decode_words(words_a), decode_words(words_b)]
    bounds, (ends_a, ends_b) = _merge_bounds(runs)
    out = op_func(
        _segment_payloads(ends_a, runs[0][1], bounds),
        _segment_payloads(ends_b, runs[1][1], bounds),
    )
    return encode_runs(np.diff(bounds, prepend=0), out)


def union_all_words(word_streams: Sequence) -> np.ndarray:
    """OR together any number of word arrays in one k-way bulk merge.

    The merged segment boundaries are the union of every stream's run
    boundaries; each stream then contributes its payloads to all
    segments with a single ``searchsorted`` + fancy-index, and the OR
    accumulates across streams as whole-array ops.  A merged segment
    wider than one group is covered by fills in *every* stream, so the
    accumulated payload is uniform there and the final
    :func:`encode_runs` yields the canonical word array.
    """
    if not word_streams:
        raise ValueError("union_all_words requires at least one stream")
    runs = [decode_words(words) for words in word_streams]
    bounds, ends_list = _merge_bounds(runs)
    acc = np.zeros(bounds.size, dtype=np.int64)
    for ends, (_lengths, payloads) in zip(ends_list, runs):
        np.bitwise_or(
            acc, _segment_payloads(ends, payloads, bounds), out=acc
        )
    return encode_runs(np.diff(bounds, prepend=0), acc)


def invert_words(words, num_bits: int) -> np.ndarray:
    """Complement a word array over ``num_bits`` logical bits.

    Flips every payload and re-clears the zero-padding of the final
    partial group, preserving the canonical-form invariant.
    """
    lengths, payloads = decode_words(words)
    payloads = ~payloads & LITERAL_PAYLOAD_MASK
    tail_bits = num_bits % WORD_PAYLOAD_BITS
    if tail_bits and lengths.size:
        tail_mask = (1 << tail_bits) - 1
        if lengths[-1] == 1:
            payloads[-1] &= tail_mask
        else:
            masked = int(payloads[-1]) & tail_mask
            lengths = np.append(lengths, 1)
            lengths[-2] -= 1
            payloads = np.append(payloads, masked)
    return encode_runs(lengths, payloads)


def concat_words(words_a, bits_a: int, words_b, bits_b: int) -> np.ndarray:
    """The word array of ``bits_b`` bits of ``words_b`` appended after
    ``bits_a`` bits of ``words_a``.

    When ``bits_a`` is a multiple of 31 the run arrays are simply
    joined.  Otherwise ``a``'s final group holds only ``shift`` bits,
    and output group ``t`` of the appended part takes the low bits of
    ``b``'s group ``t`` moved up by ``shift`` plus the high bits of its
    group ``t - 1`` moved down: a group-aligned merge of ``b`` with
    itself delayed by one group, which keeps the cost proportional to
    the runs of both operands.
    """
    lengths_a, payloads_a = decode_words(words_a)
    lengths_b, payloads_b = decode_words(words_b)
    shift = bits_a % WORD_PAYLOAD_BITS
    if shift == 0:
        return encode_runs(
            np.concatenate((lengths_a, lengths_b)),
            np.concatenate((payloads_a, payloads_b)),
        )
    # Pad the current groups with one trailing 0-group, and delay a
    # copy by one leading 0-group, so both cover len(b) + 1 groups.
    current = (np.append(lengths_b, 1), np.append(payloads_b, 0))
    previous = (np.insert(lengths_b, 0, 1), np.insert(payloads_b, 0, 0))
    bounds, (ends_cur, ends_prev) = _merge_bounds([current, previous])
    out = (
        (_segment_payloads(ends_cur, current[1], bounds) << shift)
        & LITERAL_PAYLOAD_MASK
    ) | (
        _segment_payloads(ends_prev, previous[1], bounds)
        >> (WORD_PAYLOAD_BITS - shift)
    )
    seg_lengths = np.diff(bounds, prepend=0)
    # The first segment is one group wide (the delayed copy starts with
    # a 1-group run): it is a's partial final group, shared with b.
    out[0] |= payloads_a[-1]
    lengths_a[-1] -= 1
    if groups_for_bits(bits_a + bits_b) < (
        groups_for_bits(bits_a) + seg_lengths.sum() - 1
    ):
        # The joined length ends before the extra group the trailing
        # 0-group run added (the last segment, one group wide): drop it.
        seg_lengths[-1] -= 1
    return encode_runs(
        np.concatenate((lengths_a, seg_lengths)),
        np.concatenate((payloads_a, out)),
    )


# ----------------------------------------------------------------------
# Readers
# ----------------------------------------------------------------------
def positions_words(words) -> np.ndarray:
    """Sorted ``int64`` array of the set-bit positions of a word array.

    Literals expand to their set bits and 1-fills to position ranges;
    both are laid out in run order, so the result needs no sort.
    """
    lengths, payloads = decode_words(words)
    starts = (np.cumsum(lengths) - lengths) * WORD_PAYLOAD_BITS
    ones = payloads == LITERAL_PAYLOAD_MASK
    literal = (payloads != 0) & ~ones
    # Bit b of literal i is flat index 32 * i + b of the unpacked bits.
    bits = np.unpackbits(
        payloads[literal].astype("<u4").view(np.uint8), bitorder="little"
    ).view(bool)
    flat = np.flatnonzero(bits)
    literal_positions = starts[literal][flat >> 5] + (flat & 31)
    if not ones.any():
        return literal_positions
    counts = np.where(ones, lengths * WORD_PAYLOAD_BITS, 0)
    counts[literal] = popcount32(payloads[literal])
    positions = expand_ranges(starts, counts)
    positions[np.repeat(literal, counts)] = literal_positions
    return positions


_POPCOUNT_SUPPORTED = hasattr(np, "bitwise_count")


def popcount32(arr: np.ndarray) -> np.ndarray:
    """Per-element population count of 32-bit values.

    Uses ``np.bitwise_count`` when available (numpy >= 2.0), otherwise
    a SWAR fallback.
    """
    values = np.asarray(arr).astype(np.uint32)
    if _POPCOUNT_SUPPORTED:
        return np.bitwise_count(values)
    v = values.copy()
    v = v - ((v >> 1) & np.uint32(0x55555555))
    v = (v & np.uint32(0x33333333)) + (
        (v >> 2) & np.uint32(0x33333333)
    )
    v = (v + (v >> 4)) & np.uint32(0x0F0F0F0F)
    return (v * np.uint32(0x01010101)) >> 24


def count_words(words) -> int:
    """Number of set bits in a word array (bulk popcount)."""
    lengths, payloads = decode_words(words)
    if lengths.size == 0:
        return 0
    full = payloads == LITERAL_PAYLOAD_MASK
    total = WORD_PAYLOAD_BITS * int(lengths[full].sum())
    partial = payloads[~full]
    if partial.size:
        total += int(popcount32(partial).sum(dtype=np.int64))
    return total
