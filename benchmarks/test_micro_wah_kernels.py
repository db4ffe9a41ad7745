"""Micro-benchmark: vectorized WAH kernels vs. the scalar reference.

Times the operations the query executor bottoms out in — k-way
``union_all``, the in-place group accumulator a plan is evaluated
into (``or_words_into`` over many operands, then one encode), pairwise
OR / ANDNOT, complement, and ``count`` — on
:class:`~repro.bitmap.wah.WahBitmap` (the numpy kernels) against the
scalar per-word oracle in ``tests/wah_reference.py``, asserting
bit-identical results.  A sparse-regime row (a few dozen positions per
30M-bit operand) times the sorted run merge the kernels keep there
against the per-group dense path they use for word-dense operands.
Each run appends one entry, tagged with the commit and the host's CPU
count, to the ``history`` list in ``BENCH_wah.json`` at the repository
root, so later changes have a performance trajectory.

Run modes (``WAH_BENCH_MODE`` environment variable):

* ``full`` (default) — paper-scale operands (1M-bit bitmaps, 64-way
  union); asserts the kernel k-way union is at least 5x faster than
  the scalar reference, and that the sorted merge beats the dense
  path on the sparse-regime row.
* ``check`` — small operands and **no timing assertions**; this is the
  tier-1-adjacent smoke target (``make bench-wah-smoke``) that just
  proves the benchmark executes and emits the JSON.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bitmap import kernels
from repro.bitmap.wah import WahBitmap
from repro.experiments.serve_bench import available_cpus
from tests import wah_reference as ref

MODE = (
    os.environ.get("WAH_BENCH_MODE", "full").strip().lower() or "full"
)
CHECK_MODE = MODE == "check"

NUM_BITS = 100_000 if CHECK_MODE else 1_000_000
NUM_BITMAPS = 8 if CHECK_MODE else 64
DENSITY = 0.01
MIN_UNION_SPEEDUP = 5.0
SPARSE_BITS = 30_000_000
#: Set bits per operand of the sparse accumulator row: few enough that
#: each operand alone is below the dense gate.
ACC_SPARSE_POSITIONS = NUM_BITS // 2000
SPARSE_POSITIONS = 40
SPARSE_BITMAPS = 16

ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = ROOT / "BENCH_wah.json"


def _commit() -> str:
    """Abbreviated commit, suffixed ``-dirty`` for uncommitted changes."""
    found = subprocess.run(
        ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
        capture_output=True, text=True, check=False,
    )
    return found.stdout.strip() or "unknown"


_RECORDS: dict = {
    "commit": _commit(),
    "host_cpus": available_cpus(),
    "mode": MODE,
    "num_bits": NUM_BITS,
    "density": DENSITY,
    "operations": {},
}


def _fresh_bitmaps(count: int, density: float = DENSITY) -> list[WahBitmap]:
    rng = np.random.default_rng(7)
    size = max(1, int(NUM_BITS * density))
    return [
        WahBitmap.from_positions(
            rng.choice(NUM_BITS, size=size, replace=False), NUM_BITS
        )
        for _ in range(count)
    ]


def _time(fn, repeats: int = 3) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def _record(name: str, scalar_s: float, kernel_s: float, **extra) -> None:
    _RECORDS["operations"][name] = {
        "scalar_seconds": scalar_s,
        "kernel_seconds": kernel_s,
        "speedup": scalar_s / kernel_s if kernel_s > 0 else None,
        **extra,
    }


def _load_history() -> list:
    if not RESULT_PATH.exists():
        return []
    return json.loads(RESULT_PATH.read_text())["history"]


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    yield
    history = _load_history() + [_RECORDS]
    RESULT_PATH.write_text(json.dumps(
        {"benchmark": "wah_kernels_micro", "history": history}, indent=2
    ) + "\n")


def test_union_all_kway():
    """The acceptance-criterion case: 64-way union of 1M-bit operands."""
    _RECORDS["num_bitmaps"] = NUM_BITMAPS
    operands = _fresh_bitmaps(NUM_BITMAPS)
    word_lists = [list(bitmap.words) for bitmap in operands]
    kernel_s, kernel_result = _time(
        lambda: WahBitmap.union_all(operands), repeats=3
    )
    scalar_s, scalar_result = _time(
        lambda: ref.union_all(word_lists), repeats=1
    )
    assert kernel_result.words == tuple(scalar_result)
    _record("union_all", scalar_s, kernel_s)
    if not CHECK_MODE:
        assert scalar_s / kernel_s >= MIN_UNION_SPEEDUP, (
            f"kernel union_all only {scalar_s / kernel_s:.1f}x faster "
            f"than the scalar reference (need >= {MIN_UNION_SPEEDUP}x)"
        )


def _accumulate(operands: list[WahBitmap]) -> WahBitmap:
    """The fused evaluator's OR: every operand into one group array in
    place, then a single encode."""
    acc = np.zeros(kernels.groups_for_bits(NUM_BITS), dtype=np.uint32)
    for bitmap in operands:
        kernels.or_words_into(acc, bitmap.word_array)
    return WahBitmap.from_groups(acc, NUM_BITS)


@pytest.mark.parametrize(
    "regime,density",
    [("dense", DENSITY), ("sparse", ACC_SPARSE_POSITIONS / NUM_BITS)],
)
def test_accumulator_or_kway(monkeypatch, regime, density):
    """The k-way OR as a plan evaluates it, next to ``union_all`` of
    the same operands; the sparse row's operands each stay below the
    dense gate, so none of them is expanded."""
    operands = _fresh_bitmaps(NUM_BITMAPS, density)
    word_lists = [list(bitmap.words) for bitmap in operands]
    union_s, union_result = _time(lambda: WahBitmap.union_all(operands))
    scalar_s, scalar_result = _time(
        lambda: ref.union_all(word_lists), repeats=1
    )
    if regime == "sparse":
        monkeypatch.setattr(kernels, "_expand_groups", None)
    kernel_s, kernel_result = _time(lambda: _accumulate(operands))
    assert kernel_result.words == union_result.words == tuple(scalar_result)
    _record(
        f"accumulator_or_{regime}", scalar_s, kernel_s,
        union_all_seconds=union_s, num_bitmaps=NUM_BITMAPS,
        positions_per_bitmap=operands[0].count(),
    )
    if not CHECK_MODE:
        assert scalar_s / kernel_s >= MIN_UNION_SPEEDUP, (
            f"accumulator OR only {scalar_s / kernel_s:.1f}x faster "
            f"than the scalar reference (need >= {MIN_UNION_SPEEDUP}x)"
        )


@pytest.mark.parametrize("op_name", ["or", "and", "andnot", "xor"])
def test_pairwise_ops(op_name):
    a, b = _fresh_bitmaps(2)
    ops = {
        "or": lambda x, y: x | y,
        "and": lambda x, y: x & y,
        "andnot": lambda x, y: x.andnot(y),
        "xor": lambda x, y: x ^ y,
    }
    op = ops[op_name]
    words_a, words_b = list(a.words), list(b.words)
    kernel_s, kernel_result = _time(lambda: op(a, b))
    scalar_s, scalar_result = _time(
        lambda: ref.binary(words_a, words_b, op_name)
    )
    assert kernel_result.words == tuple(scalar_result)
    _record(f"pairwise_{op_name}", scalar_s, kernel_s)


def test_invert_and_count():
    (bitmap,) = _fresh_bitmaps(1)
    words = list(bitmap.words)
    kernel_inv_s, kernel_inv = _time(lambda: ~bitmap)
    kernel_cnt_s, kernel_cnt = _time(bitmap.count)
    scalar_inv_s, scalar_inv = _time(
        lambda: ref.invert(words, bitmap.num_bits)
    )
    scalar_cnt_s, scalar_cnt = _time(lambda: ref.count(words))
    assert kernel_inv.words == tuple(scalar_inv)
    assert kernel_cnt == scalar_cnt
    _record("invert", scalar_inv_s, kernel_inv_s)
    _record("count", scalar_cnt_s, kernel_cnt_s)


def test_union_all_sparse_regime(monkeypatch):
    """Near-empty operands stay on the sorted run merge, which beats
    expanding every group of a 30M-bit bitmap."""
    rng = np.random.default_rng(11)
    operands = [
        WahBitmap.from_positions(
            rng.choice(SPARSE_BITS, size=SPARSE_POSITIONS, replace=False),
            SPARSE_BITS,
        )
        for _ in range(SPARSE_BITMAPS)
    ]
    word_lists = [list(bitmap.words) for bitmap in operands]
    streams = [bitmap.word_array for bitmap in operands]

    def dense_union():
        acc = kernels._expand_groups(streams[0])
        for words in streams[1:]:
            np.bitwise_or(acc, kernels._expand_groups(words), out=acc)
        return kernels.encode_groups(acc)

    dense_s, dense_result = _time(dense_union)
    scalar_s, scalar_result = _time(
        lambda: ref.union_all(word_lists), repeats=1
    )
    # The gate must pick the merge here: expanding groups now fails.
    monkeypatch.setattr(kernels, "_expand_groups", None)
    kernel_s, kernel_result = _time(lambda: WahBitmap.union_all(operands))
    assert kernel_result.words == tuple(scalar_result)
    assert dense_result.tolist() == scalar_result
    _record(
        "union_all_sparse", scalar_s, kernel_s,
        dense_seconds=dense_s, num_bits=SPARSE_BITS,
        num_bitmaps=SPARSE_BITMAPS, positions_per_bitmap=SPARSE_POSITIONS,
    )
    if not CHECK_MODE:
        assert kernel_s < dense_s, (
            f"sorted merge {kernel_s * 1e3:.2f} ms is not faster than the "
            f"dense path {dense_s * 1e3:.2f} ms on near-empty operands"
        )
