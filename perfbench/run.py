"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

``--trace 0`` makes the workload's timed passes untraced, each on a freshly
set-up system, and prints the end-to-end metrics.  ``--trace 1`` makes an
untraced, a traced and another untraced pass on the same seed and prints the
per-layer metrics of the traced pass plus the tracing overhead; the spans are
written to ``perfbench/out/``.  Human-readable lines come first; the last
line of standard output is the JSON result.  The exit code is 1 when any answer
disagrees with the serial oracle.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import sys
import tempfile
from statistics import median

from percentiles import best_of, calibration_ms, percentile, required_percentile
from tracing import Tracer, layer_report

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: glibc's ``mallopt`` parameter number for the arena limit.
M_ARENA_MAX = -8

#: Set-ups per untraced run, the timed passes' own included; ``setup_s``
#: reports their median.
SETUPS = 7


def _single_malloc_arena() -> None:
    """Make glibc malloc serve every thread from one arena.

    By default each thread that allocates may get an arena of its own, and
    how many the server's connection threads end up with depends on lock
    timing; the freed memory each arena keeps then moves the peak RSS by up
    to a third between identical runs.  One arena makes ``peak_rss_mb``
    measure the program's allocations.  Must run before any thread starts.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:  # not glibc: nothing to pin
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(M_ARENA_MAX, 1)


def _load_program():
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: the program's source is missing ({SRC}/repro)")
    sys.path.insert(0, SRC)


def _ms(seconds: float) -> float:
    return 1e3 * seconds


def end_to_end(run, requests_per_step: int) -> dict:
    rank = best_of(run.recorders, "rank")
    step = best_of(run.recorders, "step")
    return {
        "setup_s": (median(run.setup_seconds), "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        # The closed loop's rate with every step at its best-of-passes time.
        "throughput_rps": (requests_per_step * len(step) / sum(step), "1/s"),
        "rank_p50_ms": (_ms(required_percentile(rank, 50, "rank")), "ms"),
        "step_p50_ms": (_ms(required_percentile(step, 50, "step")), "ms"),
    }


def _ratio(hits: float, attempts: float) -> float:
    return hits / attempts if attempts else 0.0


def per_layer(untraced_runs, traced, tracer) -> dict:
    recorder = traced.recorders[-1]
    requests = recorder.answered
    commits = len(recorder.latency.get("commit", ()))
    report = layer_report(tracer.spans, tracer.counts, requests, commits)
    c = traced.counters
    report["service.pair_cache_hit_ratio"] = _ratio(
        c["tesc_pair_cache_hits_total"],
        c["tesc_pair_cache_hits_total"] + c["tesc_pair_cache_misses_total"],
    )
    report["service.matrices_per_request"] = (
        c["tesc_matrices_computed_total"] / max(requests, 1)
    )
    memo_hits = c["tesc_sample_memo_hits_total"] + c["tesc_sampler_cache_hits_total"]
    report["sampling.memo_hit_ratio"] = _ratio(
        memo_hits,
        memo_hits + c["tesc_sample_memo_misses_total"]
        + c["tesc_sampler_cache_misses_total"],
    )
    report["streaming.wal_bytes_per_commit"] = (
        traced.wal_bytes / commits if commits else 0.0
    )
    untraced = sum(
        required_percentile(best_of(run.recorders, "step"), 50, "step")
        for run in untraced_runs
    ) / len(untraced_runs)
    with_spans = required_percentile(best_of(traced.recorders, "step"), 50, "step")
    report["trace.overhead_ms"] = _ms(with_spans - untraced)
    report["trace.overhead_pct"] = 100.0 * (with_spans - untraced) / untraced
    return {name: (value, _layer_unit(name)) for name, value in report.items()}


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name == "streaming.wal_bytes_per_commit":
        return "bytes"
    return "count"


def describe(workload, runs) -> None:
    """Print every latency family with the percentiles its sample supports."""
    print(f"workload {workload.name} seed {workload.seed} "
          f"steps {workload.steps} per pass")
    for label, run in runs:
        print(
            f"  [{label}] attempted {run.attempted} failed {run.failed} "
            f"passes " + " ".join(f"{s:.3f}" for s in run.pass_seconds)
            + " s  setups " + " ".join(f"{s:.4f}" for s in run.setup_seconds)
        )
        for op in sorted(run.recorders[0].latency):
            values = best_of(run.recorders, op)
            name = "refresh" if op == "step" and workload.name == "churn_wal" else op
            cells = [f"{name:>8} best-of-{len(run.recorders)}"]
            for q in (50, 90, 99):
                value = percentile(values, q)
                shown = "-" if value is None else f"{_ms(value):9.3f}"
                cells.append(f"{name}_p{q}_ms {shown}")
            print(f"    {'  '.join(cells)}  (n={len(values)})")
        for mismatch in run.mismatches:
            print(f"  MISMATCH {mismatch}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("explore", "churn_wal", "served_hits"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    _single_malloc_arena()
    from workloads import WORKLOADS, measure

    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out)
    calibration_before = calibration_ms()
    try:
        workload = WORKLOADS[args.workload](args.seed, args.seconds, workdir)
        if args.trace:
            # Untraced passes on both sides of the traced one, so the
            # overhead figure is not the process warming up.
            before = measure(workload, 1)
            tracer = Tracer()
            traced = measure(workload, 1, tracer=tracer)
            after = measure(workload, 1)
            runs = [("untraced", before), ("traced", traced), ("untraced", after)]
            metrics = per_layer((before, after), traced, tracer)
            tracer.write(os.path.join(
                out, f"spans-{args.workload}-seed{args.seed}.jsonl"
            ))
        else:
            run = measure(workload, workload.passes,
                          extra_setups=max(0, SETUPS - workload.passes))
            runs = [("untraced", run)]
            metrics = end_to_end(run, workload.requests_per_step)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calibration_after = calibration_ms()

    describe(workload, runs)
    print(f"  calibration_ms before {calibration_before:.3f} after "
          f"{calibration_after:.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36} {value:14.4f} {unit}")
    mismatches = [m for _label, run in runs for m in run.mismatches]
    result = {
        "correct": not mismatches,
        "attempted": sum(run.attempted for _label, run in runs),
        "failed": sum(run.failed for _label, run in runs),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
