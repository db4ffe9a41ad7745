"""WAH kernels: bulk numpy operations over ``uint32`` word arrays.

Every :class:`~repro.bitmap.wah.WahBitmap` operation is whole-array
numpy work, never a Python loop per word or bit.  The combiners and
``positions_words`` take one of two regimes, picked by one gate:
operands covering at most :data:`DENSE_GROUPS_PER_WORD` 31-bit groups
per word they hold (summed over the operands) are *word-dense*.

* **Dense** - expand each word array into one ``uint32`` payload per
  group, apply the op to whole group arrays and re-encode with
  :func:`encode_groups`; positions unpack the group array, where
  bit ``b`` of group ``g`` is unpacked index ``32g + b`` and row
  ``31g + b``.  Cost follows the group count.
* **Sparse** - decode each word array into ``(lengths, payloads)`` run
  arrays, merge the streams' sorted cumulative group boundaries, look
  up each stream's payload per merged segment with ``searchsorted``
  and re-encode with :func:`encode_runs`.  Cost follows the run count.
  A run with a non-uniform payload is one group wide (it came from a
  literal), so a merged segment wider than one group is fill-covered
  on every input and has a uniform result payload.

Both emit the canonical encoding (uniform groups become fills,
adjacent same-value fills merge, fills split at 2^30-1 groups), word
for word the scalar oracle's in ``tests/wah_reference.py``.

:func:`or_words_into` and :func:`andnot_words_into` combine one word
array into a caller-owned group array in place, under the same gate:
a dense operand is expanded and applied whole, a sparse one touches
only the groups its literals and 1-fills cover.  A query evaluates
its whole plan into one such accumulator and encodes it once with
:func:`encode_groups`.
"""

from __future__ import annotations

import functools
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
    "DENSE_GROUPS_PER_WORD",
    "decode_words",
    "encode_runs",
    "literals_to_words",
    "check_words",
    "expand_ranges",
    "groups_for_bits",
    "binary_words",
    "union_all_words",
    "ones_words",
    "invert_words",
    "concat_words",
    "or_words_into",
    "andnot_words_into",
    "encode_groups",
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
#: The one regime gate: operands covering at most this many groups per
#: word they hold (summed over the operands) take the dense path.
DENSE_GROUPS_PER_WORD = 8


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
    is_fill = w >= FILL_FLAG
    lengths = np.where(is_fill, w & FILL_COUNT_MASK, 1)
    payloads = np.where(is_fill, (w >> 30 & 1) * LITERAL_PAYLOAD_MASK, w)
    keep = lengths > 0
    if keep.all():
        return lengths, payloads
    return lengths[keep], payloads[keep]


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
    covered = _num_groups(words)
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


# ----------------------------------------------------------------------
# Dense regime: one uint32 payload per 31-bit group
# ----------------------------------------------------------------------
def _num_groups(words: np.ndarray) -> int:
    """Total groups a word array covers (fill counts plus literals)."""
    return int(np.where(
        words >= FILL_FLAG, words & FILL_COUNT_MASK, 1
    ).sum(dtype=np.int64))


def _is_dense(total_groups: int, word_streams: Sequence) -> bool:
    """Whether operands spanning ``total_groups`` groups are word-dense
    (see the module docstring)."""
    num_words = sum(words.size for words in word_streams)
    return total_groups <= DENSE_GROUPS_PER_WORD * num_words


def _expand_groups(words: np.ndarray) -> np.ndarray:
    """A fresh ``uint32`` array of the payload of every group."""
    # Fills are the minority of a word-dense array: patch them in.
    fills = np.flatnonzero(words >= FILL_FLAG)
    if fills.size == 0:
        return words.copy()
    fill_words = words[fills]
    payloads = words.copy()
    payloads[fills] = ((fill_words >> 30) & 1) * np.uint32(
        LITERAL_PAYLOAD_MASK
    )
    lengths = np.ones(words.size, dtype=np.intp)
    lengths[fills] = fill_words & FILL_COUNT_MASK
    return np.repeat(payloads, lengths)


def encode_groups(groups: np.ndarray) -> np.ndarray:
    """Canonically encode a per-group ``uint32`` payload array.

    Each uniform stretch of equal payloads becomes one fill word and
    every other group one literal word, as :func:`encode_runs` would
    encode the same groups given as unit runs.
    """
    n = groups.size
    if n == 0:
        return np.empty(0, dtype=np.uint32)
    uniform = (groups == 0) | (groups == LITERAL_PAYLOAD_MASK)
    start = np.empty(n, dtype=bool)
    start[0] = True
    np.not_equal(groups[1:], groups[:-1], out=start[1:])
    start[1:] |= ~uniform[1:]
    idx = np.flatnonzero(start)
    lengths = np.diff(idx, append=n)
    if n > MAX_FILL_GROUPS:
        return encode_runs(lengths, groups[idx])
    payloads = groups[idx]
    fill_words = (
        np.uint32(FILL_FLAG)
        | (payloads & np.uint32(FILL_VALUE_BIT))
        | lengths.astype(np.uint32)
    )
    return np.where(uniform[idx], fill_words, payloads)


# ----------------------------------------------------------------------
# Sparse regime: sorted merge of run boundaries
# ----------------------------------------------------------------------
def _merge_bounds(
    runs: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Segment boundaries shared by run arrays over the same groups.

    Returns the sorted union of the streams' cumulative group
    boundaries and each stream's own boundaries (for ``searchsorted``
    lookups of its payload in every segment).
    """
    ends_list = [np.cumsum(lengths) for lengths, _ in runs]
    totals = {int(ends[-1]) if ends.size else 0 for ends in ends_list}
    if len(totals) > 1:
        raise BitmapDecodeError(
            "operand word streams cover different group counts"
        )
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
# Each op may overwrite its first operand, always a fresh array here.
_BINARY_OPS = {
    "and": lambda a, b: np.bitwise_and(a, b, out=a),
    "or": lambda a, b: np.bitwise_or(a, b, out=a),
    "xor": lambda a, b: np.bitwise_xor(a, b, out=a),
    "andnot": lambda a, b: np.bitwise_and(a, ~b, out=a),
}


def _fold(word_streams: Sequence, op_func) -> np.ndarray:
    """Fold a bitwise op over group-aligned word arrays, in order.

    Dense operands fold their group arrays.  Sparse ones merge: the
    segment boundaries are the union of every stream's run boundaries,
    and each stream contributes its payload in every segment with one
    ``searchsorted`` + fancy-index.
    """
    streams = [np.asarray(words, dtype=np.uint32) for words in word_streams]
    if _is_dense(_num_groups(streams[0]), streams):
        expanded = [_expand_groups(words) for words in streams]
        if len({groups.size for groups in expanded}) > 1:
            raise BitmapDecodeError(
                "operand word streams cover different group counts"
            )
        return encode_groups(functools.reduce(op_func, expanded))
    runs = [decode_words(words) for words in streams]
    bounds, ends_list = _merge_bounds(runs)
    out = functools.reduce(op_func, (
        _segment_payloads(ends, payloads, bounds)
        for ends, (_lengths, payloads) in zip(ends_list, runs)
    ))
    return encode_runs(np.diff(bounds, prepend=0), out)


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
    return _fold([words_a, words_b], op_func)


def union_all_words(word_streams: Sequence) -> np.ndarray:
    """OR together any number of word arrays in one k-way bulk pass."""
    if not word_streams:
        raise ValueError("union_all_words requires at least one stream")
    return _fold(word_streams, _BINARY_OPS["or"])


def _apply_into(acc: np.ndarray, words, op: str) -> None:
    """Apply ``_BINARY_OPS[op]`` with a word array to a group array,
    in place: a dense operand whole, a sparse one by its literals and
    1-fills (0-groups leave both ops' results unchanged)."""
    words = np.asarray(words, dtype=np.uint32)
    if _is_dense(acc.size, [words]):
        groups = _expand_groups(words)
        if groups.size != acc.size:
            raise BitmapDecodeError(
                f"operand covers {groups.size} groups, the "
                f"accumulator {acc.size}"
            )
        _BINARY_OPS[op](acc, groups)
        return
    lengths, payloads = decode_words(words)
    ends = np.cumsum(lengths)
    covered = int(ends[-1]) if ends.size else 0
    if covered != acc.size:
        raise BitmapDecodeError(
            f"operand covers {covered} groups, the accumulator "
            f"{acc.size}"
        )
    starts = ends - lengths
    # One-group runs (literals) combine by index; longer ones are fills.
    single = (lengths == 1) & (payloads != 0)
    at = starts[single]
    acc[at] = _BINARY_OPS[op](acc[at], payloads[single].astype(np.uint32))
    ones = (lengths > 1) & (payloads != 0)
    if ones.any():
        acc[expand_ranges(starts[ones], lengths[ones])] = (
            LITERAL_PAYLOAD_MASK if op == "or" else 0
        )


def or_words_into(acc: np.ndarray, words) -> None:
    """OR a word array into ``acc``, a writable ``uint32`` array of one
    payload per 31-bit group covering the same groups, in place."""
    _apply_into(acc, words, "or")


def andnot_words_into(acc: np.ndarray, words) -> None:
    """Clear from ``acc`` (as for :func:`or_words_into`) every bit set
    in a word array, in place."""
    _apply_into(acc, words, "andnot")


def ones_words(num_bits: int) -> np.ndarray:
    """The word array of ``num_bits`` set bits (zero padding kept)."""
    full_groups, tail_bits = divmod(num_bits, WORD_PAYLOAD_BITS)
    return encode_runs(
        [full_groups, 1 if tail_bits else 0],
        [LITERAL_PAYLOAD_MASK, (1 << tail_bits) - 1],
    )


def invert_words(words, num_bits: int) -> np.ndarray:
    """Complement a word array over ``num_bits`` logical bits: an XOR
    with all ones, which leaves the padding bits clear."""
    return binary_words(words, ones_words(num_bits), "xor")


def concat_words(words_a, bits_a: int, words_b, bits_b: int) -> np.ndarray:
    """The word array of ``bits_b`` bits of ``words_b`` appended after
    ``bits_a`` bits of ``words_a``.

    When ``bits_a`` is a multiple of 31 the groups are simply joined.
    Otherwise ``a``'s final group holds only ``shift`` bits, and output
    group ``t`` of the appended part takes the low bits of ``b``'s
    group ``t`` moved up by ``shift`` plus the high bits of its group
    ``t - 1`` moved down: dense operands shift their group array, and
    sparse ones merge ``b``'s runs with themselves delayed by one
    group, which keeps the cost proportional to the runs of both.
    """
    words_a = np.asarray(words_a, dtype=np.uint32)
    words_b = np.asarray(words_b, dtype=np.uint32)
    shift = bits_a % WORD_PAYLOAD_BITS
    total_groups = groups_for_bits(bits_a) + groups_for_bits(bits_b)
    if _is_dense(total_groups, [words_a, words_b]):
        groups_a = _expand_groups(words_a)
        groups_b = _expand_groups(words_b)
        if shift:
            current = np.append(groups_b, np.uint32(0))
            previous = np.insert(groups_b, 0, np.uint32(0))
            groups_b = ((current << shift) & LITERAL_PAYLOAD_MASK) | (
                previous >> (WORD_PAYLOAD_BITS - shift)
            )
            groups_b[0] |= groups_a[-1]
            groups_a = groups_a[:-1]
        return encode_groups(
            np.concatenate((groups_a, groups_b))[
                :groups_for_bits(bits_a + bits_b)
            ]
        )
    lengths_a, payloads_a = decode_words(words_a)
    lengths_b, payloads_b = decode_words(words_b)
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

    Dense words unpack their group array whole.  Sparse ones expand
    literals to their set bits and 1-fills to position ranges; both
    are laid out in run order, so the result needs no sort.
    """
    words = np.asarray(words, dtype=np.uint32)
    if _is_dense(_num_groups(words), [words]):
        groups = _expand_groups(words).astype("<u4", copy=False)
        flat = np.flatnonzero(
            np.unpackbits(groups.view(np.uint8), bitorder="little")
            .view(bool)
        )
        flat -= flat >> 5
        return flat
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
