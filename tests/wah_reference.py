"""Scalar per-word WAH reference implementation: the test oracle.

This is the original word-at-a-time implementation of every
:class:`~repro.bitmap.wah.WahBitmap` operation, over plain
``list[int]`` word streams.  It is deliberately simple and slow; the
vectorized kernels in :mod:`repro.bitmap.kernels` must produce the
same canonical word streams, word for word
(``tests/test_wah_kernels.py``, ``benchmarks/test_micro_wah_kernels.py``).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

WORD_PAYLOAD_BITS = 31
LITERAL_PAYLOAD_MASK = (1 << WORD_PAYLOAD_BITS) - 1
FILL_FLAG = 1 << 31
FILL_COUNT_MASK = (1 << 30) - 1
MAX_FILL_GROUPS = FILL_COUNT_MASK


def groups_for_bits(num_bits: int) -> int:
    """Number of 31-bit groups needed to hold ``num_bits`` bits."""
    return -(-num_bits // WORD_PAYLOAD_BITS)


class Encoder:
    """Append-only builder that maintains WAH run-merging invariants.

    Appending an all-zero or all-one literal converts it into (or merges it
    with) a fill word, so the produced word sequence is always canonical:
    no two adjacent fills share the same value, and no literal equals a
    fill pattern.
    """

    __slots__ = ("words",)

    def __init__(self) -> None:
        self.words: list[int] = []

    def append_literal(self, payload: int) -> None:
        """Append one 31-bit literal group (collapsing uniform groups)."""
        if payload == 0:
            self.append_fill(0, 1)
        elif payload == LITERAL_PAYLOAD_MASK:
            self.append_fill(1, 1)
        else:
            self.words.append(payload)

    def append_fill(self, fill_value: int, ngroups: int) -> None:
        """Append ``ngroups`` uniform groups of ``fill_value`` (0 or 1)."""
        if ngroups <= 0:
            return
        words = self.words
        if words:
            last = words[-1]
            if last & FILL_FLAG and ((last >> 30) & 1) == fill_value:
                merged = (last & FILL_COUNT_MASK) + ngroups
                take = min(merged, MAX_FILL_GROUPS)
                words[-1] = FILL_FLAG | (fill_value << 30) | take
                ngroups = merged - take
                if ngroups == 0:
                    return
        while ngroups > 0:
            take = min(ngroups, MAX_FILL_GROUPS)
            words.append(FILL_FLAG | (fill_value << 30) | take)
            ngroups -= take

    def append_group(self, payload: int, ngroups: int = 1) -> None:
        """Append ``ngroups`` groups that all carry ``payload``."""
        if payload == 0:
            self.append_fill(0, ngroups)
        elif payload == LITERAL_PAYLOAD_MASK:
            self.append_fill(1, ngroups)
        else:
            for _ in range(ngroups):
                self.append_literal(payload)


class RunCursor:
    """Sequential decoder over a WAH word list, exposing group-sized runs.

    At any time the cursor points into a *run*: either a fill of
    ``remaining`` uniform groups, or a single literal group.  ``consume``
    advances by whole groups.
    """

    __slots__ = ("_words", "_index", "is_fill", "remaining", "literal",
                 "exhausted")

    def __init__(self, words: Iterable[int]):
        self._words = list(words)
        self._index = 0
        self.exhausted = False
        self._load()

    def _load(self) -> None:
        if self._index >= len(self._words):
            self.exhausted = True
            self.is_fill = True
            self.remaining = 0
            self.literal = 0
            return
        word = self._words[self._index]
        if word & FILL_FLAG:
            self.is_fill = True
            self.remaining = word & FILL_COUNT_MASK
            self.literal = LITERAL_PAYLOAD_MASK if (word >> 30) & 1 else 0
        else:
            self.is_fill = False
            self.remaining = 1
            self.literal = word
        self._index += 1

    def consume(self, ngroups: int) -> None:
        self.remaining -= ngroups
        if self.remaining == 0:
            self._load()


def iter_groups(words: Iterable[int]) -> Iterable[tuple[int, int]]:
    """Yield ``(payload, ngroups)`` per code word."""
    for word in words:
        if word & FILL_FLAG:
            payload = LITERAL_PAYLOAD_MASK if (word >> 30) & 1 else 0
            yield payload, word & FILL_COUNT_MASK
        else:
            yield word, 1


# ----------------------------------------------------------------------
# Constructors
# ----------------------------------------------------------------------
def from_positions(positions: Iterable[int], num_bits: int) -> list[int]:
    """Words of the bitmap with the given set bits, one group at a time."""
    payloads: dict[int, int] = {}
    for position in positions:
        position = int(position)
        if not 0 <= position < num_bits:
            raise ValueError(position)
        group, offset = divmod(position, WORD_PAYLOAD_BITS)
        payloads[group] = payloads.get(group, 0) | (1 << offset)
    encoder = Encoder()
    previous_end = 0
    for group in sorted(payloads):
        encoder.append_fill(0, group - previous_end)
        encoder.append_literal(payloads[group])
        previous_end = group + 1
    encoder.append_fill(0, groups_for_bits(num_bits) - previous_end)
    return encoder.words


def from_runs(runs: Iterable[tuple[int, int]], num_bits: int) -> list[int]:
    """Words of the bitmap with the given ``(start, stop)`` 1-runs."""
    return from_positions(
        (bit for start, stop in runs for bit in range(start, stop)),
        num_bits,
    )


# ----------------------------------------------------------------------
# Readers
# ----------------------------------------------------------------------
def count(words: Iterable[int]) -> int:
    """Number of set bits."""
    return sum(
        payload.bit_count() * ngroups
        for payload, ngroups in iter_groups(words)
    )


def to_positions(words: Iterable[int]) -> list[int]:
    """Sorted set-bit positions, peeling one bit at a time."""
    positions: list[int] = []
    group = 0
    for payload, ngroups in iter_groups(words):
        for _ in range(ngroups):
            remaining = payload
            while remaining:
                low = remaining & -remaining
                positions.append(
                    group * WORD_PAYLOAD_BITS + low.bit_length() - 1
                )
                remaining ^= low
            group += 1
            if payload == 0:
                group += ngroups - 1
                break
    return positions


def get(words: Iterable[int], position: int) -> bool:
    """Whether bit ``position`` is set, scanning words from the start."""
    target_group, offset = divmod(position, WORD_PAYLOAD_BITS)
    group = 0
    for payload, ngroups in iter_groups(words):
        if group + ngroups > target_group:
            return bool((payload >> offset) & 1)
        group += ngroups
    raise IndexError(position)


# ----------------------------------------------------------------------
# Combiners
# ----------------------------------------------------------------------
BINARY_OPS: dict[str, Callable[[int, int], int]] = {
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "andnot": lambda a, b: a & ~b & LITERAL_PAYLOAD_MASK,
}


def binary(words_a: Iterable[int], words_b: Iterable[int],
           op: str) -> list[int]:
    """Merge two word streams group-aligned under a named op.

    Fill runs on both sides are consumed in bulk, so the loop cost is
    proportional to the number of runs, not the number of groups,
    except where both operands are literal-dense.
    """
    op_func = BINARY_OPS[op]
    left = RunCursor(words_a)
    right = RunCursor(words_b)
    encoder = Encoder()
    while not (left.exhausted or right.exhausted):
        if left.is_fill and right.is_fill:
            step = min(left.remaining, right.remaining)
        else:
            step = 1
        encoder.append_group(op_func(left.literal, right.literal), step)
        left.consume(step)
        right.consume(step)
    if left.exhausted != right.exhausted:
        raise ValueError("operand word streams cover different group counts")
    return encoder.words


def invert(words: Iterable[int], num_bits: int) -> list[int]:
    """Complement over ``num_bits`` bits (padding bits kept zero)."""
    encoder = Encoder()
    for payload, ngroups in iter_groups(words):
        encoder.append_group(~payload & LITERAL_PAYLOAD_MASK, ngroups)
    tail_bits = num_bits % WORD_PAYLOAD_BITS
    if tail_bits == 0:
        return encoder.words
    return binary(encoder.words, ones(num_bits), "and")


def ones(num_bits: int) -> list[int]:
    """Words of the all-one bitmap."""
    encoder = Encoder()
    full_groups, tail_bits = divmod(num_bits, WORD_PAYLOAD_BITS)
    encoder.append_fill(1, full_groups)
    if tail_bits:
        encoder.append_literal((1 << tail_bits) - 1)
    return encoder.words


def union_all(word_streams: Iterable[Iterable[int]]) -> list[int]:
    """OR together word streams by pairwise tree reduction."""
    pending = [list(words) for words in word_streams]
    while len(pending) > 1:
        merged = [
            binary(pending[i], pending[i + 1], "or")
            for i in range(0, len(pending) - 1, 2)
        ]
        if len(pending) % 2:
            merged.append(pending[-1])
        pending = merged
    return pending[0]


def concat(words_a: Iterable[int], bits_a: int,
           words_b: Iterable[int], bits_b: int) -> list[int]:
    """Append ``b``'s bits after ``a``'s logical length.

    Aligned lengths join the word streams group by group; otherwise the
    result is rebuilt from the shifted set-bit positions.
    """
    if bits_a % WORD_PAYLOAD_BITS == 0:
        encoder = Encoder()
        for words in (words_a, words_b):
            for payload, ngroups in iter_groups(words):
                encoder.append_group(payload, ngroups)
        return encoder.words
    positions = to_positions(words_a) + [
        bits_a + position for position in to_positions(words_b)
    ]
    return from_positions(positions, bits_a + bits_b)
