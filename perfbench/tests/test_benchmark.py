"""Smoke-size runs of every workload, and the checks that must fail.

Run with ``python -m pytest perfbench/tests`` from the repository root.
No assertion here depends on timing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import common
import gateway
import inprocess
from common import SMOKE, BenchmarkError
from tracer import Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
WORKLOADS = ("case2-wide", "ingest-mixed", "gateway-sharded-open")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", ("0", "1"))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_declared_metric(workload, trace):
    # The layer-sum tolerance is a timing check: at smoke size a
    # request takes milliseconds and scheduling jitter dominates it.
    done = _run(
        "--workload", workload, "--seed", "5", "--seconds", "0.5",
        "--trace", trace, "--smoke", "--layer-tolerance", "1",
    )
    assert done.returncode == 0, done.stderr
    *_, provenance_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    provenance = json.loads(provenance_line)["provenance"]
    assert provenance["seed"] == 5
    assert provenance["params"]["rows"] == SMOKE.rows
    assert {"commit", "host_cpus", "python", "numpy"} <= set(provenance)


def _wrong_positions(monkeypatch) -> None:
    """Drop the last row from every materialized answer."""
    from repro.bitmap.wah import WahBitmap

    original = WahBitmap.to_positions
    monkeypatch.setattr(
        WahBitmap, "to_positions", lambda self: original(self)[:-1]
    )


@pytest.mark.parametrize(
    "run", (inprocess.case2_wide, inprocess.ingest_mixed)
)
def test_corrupted_answer_fails_the_run(run, monkeypatch, tmp_path):
    _wrong_positions(monkeypatch)
    with pytest.raises(BenchmarkError, match="differ"):
        run(SMOKE, 1, 0.1, False, tmp_path)


def test_gateway_answer_checked_against_oracle(monkeypatch, tmp_path):
    # The answer crosses a process boundary, so the oracle side is
    # corrupted instead: the same comparison must reject the pair.
    monkeypatch.setattr(
        gateway,
        "oracle_positions",
        lambda column, query: common.oracle_positions(column, query)[1:],
    )
    with pytest.raises(BenchmarkError, match="differ"):
        gateway.gateway_sharded_open(SMOKE, 1, 0.5, False, tmp_path)


def test_io_that_does_not_reconcile_fails_the_run(monkeypatch, tmp_path):
    from dataclasses import replace

    from repro.core.executor import QueryExecutor

    original = QueryExecutor.execute_query

    def undercharged(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        return replace(result, io_bytes=result.io_bytes + 1)

    monkeypatch.setattr(QueryExecutor, "execute_query", undercharged)
    with pytest.raises(BenchmarkError, match="reconcile"):
        inprocess.case2_wide(SMOKE, 1, 0.1, False, tmp_path)


def test_missed_binding_fails_the_traced_run(monkeypatch, tmp_path):
    import layers

    original = layers.install_inprocess_layers

    def without_decode(tracer):
        original(tracer)
        import repro.core.executor as executor_module

        # Undo only the decode wrapper, as if its binding were missed.
        for index, (owner, attr, function) in enumerate(tracer._patches):
            if owner is executor_module and attr == "deserialize_wah":
                setattr(owner, attr, function)
                del tracer._patches[index]
                break

    monkeypatch.setattr(layers, "install_inprocess_layers", without_decode)
    with pytest.raises(BenchmarkError, match="decode"):
        inprocess.case2_wide(SMOKE, 1, 0.1, True, tmp_path)


def test_without_the_program_the_benchmark_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run(
        "--workload", "case2-wide", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_same_seed_same_inputs():
    first = common.make_column(SMOKE, 1000, 7)
    assert np.array_equal(first, common.make_column(SMOKE, 1000, 7))
    rng = np.random.default_rng
    mix = gateway._zipf_mix(6, 40, 1.0, rng(3))
    assert np.array_equal(mix, gateway._zipf_mix(6, 40, 1.0, rng(3)))
    counts = np.bincount(mix, minlength=6)
    assert counts.sum() == 40 and counts.max() == counts[0]


def test_self_time_excludes_children_and_patches_restore():
    class Layer:
        @staticmethod
        def inner(x):
            return x + 1

        def outer(self, x):
            return Layer.inner(x) * 2

    original = Layer.__dict__["inner"]
    with Tracer() as tracer:
        tracer.wrap(Layer, "inner", "inner")
        tracer.wrap(Layer, "outer", "outer")
        assert Layer().outer(1) == 4
    assert Layer.__dict__["inner"] is original
    outer = next(s for s in tracer.spans if s.name == "outer")
    inner = next(s for s in tracer.spans if s.name == "inner")
    assert inner.parent == tracer.spans.index(outer)
    assert outer.self_s == pytest.approx(
        outer.duration - inner.duration
    )


def test_reference_unit_weighs_samples_by_the_work_between_them():
    reference = common.Reference()
    reference.count(3.0, 0.010)
    reference.count(1.0, 0.030)
    assert reference.unit_s() == pytest.approx(0.015)
    assert reference.work_rel() == pytest.approx(4.0 / 0.015)
    seconds = reference.timed(lambda: None, count=2)
    assert len(reference.seconds) == 4
    assert reference.work_s() == pytest.approx(4.0 + seconds)
