"""End-to-end benchmark of the HCS reproduction at 1M rows.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload case2-wide --seed 1 \\
        --seconds 10 --trace 0 [--layer-tolerance 0.1] [--smoke]

Workloads (inputs are generated from ``--seed``; the program only
receives the generated column and queries):

* ``case2-wide`` - one closed-loop client replaying whole passes over
  48 distinct 50%-range queries through ``QueryExecutor.execute_query``
  against a pinned Alg.-3 cut, non-cut reads streaming from a file
  store.
* ``ingest-mixed`` - one closed-loop client over a durable store:
  10k-row appends, eight 10%-range merge-on-read queries after each
  (and on the delta-free base), and a foreground compaction after
  every second append.
* ``gateway-sharded-open`` - an open loop of Zipf-popular 2%-range
  queries at a fixed Poisson-like rate (3/s), in three rounds over
  one pipelined TCP connection to a gateway process fronting a
  2-shard fleet.

End-to-end metrics (``--trace 0``): ``setup_s`` (median of repeated
index builds with cut selection and pinning, or gateway and fleet
starts; the oracle is excluded), ``query_time_rel`` (time per answered
query, in units of a fixed reference kernel timed around the work -
see ``common.Reference``: on the closed loops the client's wall time,
answer materialization and, on ingest, the appends included (the
compactions' times, too unsteady to gate, are in the notes and the
traced run); on the open loop the CPU time of the gateway process
and its shard workers), ``io_mb_per_query``
(``ExecutionResult.io_bytes``, or the TCP ``io_bytes``), ``ok_ratio``
(answered over attempted; shed and expired requests count against it)
and ``peak_rss_mb`` (high-water resident memory of the serving
processes, summed, reset after set-up).  Wall-clock figures - answers
per second, p50 and mean query (or request) milliseconds, the
kernel's own milliseconds and the sample count - are in the
provenance line's notes.

Every answer is checked against a numpy oracle before its time counts,
and the IO ledgers must reconcile; a failed check prints
``"correct": false`` and exits 1.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones from a separate traced run,
whose blocking-path layer times must sum to the query time within
``--layer-tolerance``.  The last stdout line is the JSON result; the
line before it records provenance.  Spans of traced runs are written
under ``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _declared() -> tuple[dict, dict]:
    """End-to-end and per-layer metric units, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    found = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        check=False,
    )
    return found.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload",
        required=True,
        choices=("case2-wide", "ingest-mixed", "gateway-sharded-open"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--layer-tolerance", type=float, default=0.1)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny column, same code paths (for the benchmark's tests)",
    )
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import numpy as np

    from common import FULL, SMOKE, BenchmarkError, host_cpus
    from gateway import gateway_sharded_open
    from inprocess import case2_wide, ingest_mixed

    run = {
        "case2-wide": case2_wide,
        "ingest-mixed": ingest_mixed,
        "gateway-sharded-open": gateway_sharded_open,
    }[args.workload]
    scale = SMOKE if args.smoke else FULL
    end_to_end, per_layer = _declared()
    declared = per_layer if args.trace else end_to_end
    provenance = {
        "commit": _commit(),
        "host_cpus": host_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": scale.params(args.workload),
    }
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out))
    result = None
    error = None
    try:
        result = run(scale, args.seed, args.seconds, bool(args.trace), work)
        if args.trace:
            ratio = result.metrics["trace.layer_sum_ratio"][0]
            if abs(1.0 - ratio) > args.layer_tolerance:
                raise BenchmarkError(
                    f"blocking-path layer times sum to {ratio:.3f} of "
                    f"the query time, outside 1 +- {args.layer_tolerance}"
                )
    except BenchmarkError as err:
        error = str(err)
    finally:
        for spans in work.glob("*spans.jsonl"):
            target = out / "spans" / (
                f"{args.workload}-seed{args.seed}-{spans.name}"
            )
            target.parent.mkdir(exist_ok=True)
            shutil.move(spans, target)
        shutil.rmtree(work)

    if error is not None:
        provenance["error"] = error
        print(json.dumps({"provenance": provenance}))
        print(
            json.dumps(
                {
                    "correct": False,
                    "attempted": max(1, result.attempted if result else 1),
                    "failed": 1,
                    "metrics": {},
                }
            )
        )
        return 1
    produced = result.metrics
    unknown = {
        name
        for name, (_value, unit) in produced.items()
        if declared.get(name) != unit
    }
    missing = set(end_to_end) - set(produced) if not args.trace else set()
    if unknown or missing:
        raise SystemExit(
            f"metric set mismatch: undeclared or wrong unit "
            f"{sorted(unknown)}, "
            f"missing {sorted(missing)}"
        )
    # Layers a workload does not cross have no calls: they read 0.
    metrics = {
        name: {"value": produced.get(name, (0.0, unit))[0], "unit": unit}
        for name, unit in declared.items()
    }
    provenance["notes"] = result.notes
    print(json.dumps({"provenance": provenance}))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
