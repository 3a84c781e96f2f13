"""Latency summaries: best-of-passes latencies and nearest-rank percentiles
that refuse thin tails."""

from __future__ import annotations

import statistics
import time
from typing import List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie beyond
#: it; otherwise its value would hang on a handful of requests.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: int) -> Optional[float]:
    """The nearest-rank ``q``-th percentile of ``values``.

    Returns ``None`` when fewer than :data:`MIN_BEYOND` samples lie beyond
    it, i.e. when ``len(values) * (100 - q) / 100 < MIN_BEYOND``.  ``q`` is
    a whole percent, so the test is exact integer arithmetic.
    """
    q = int(q)
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in 1..99, got {q}")
    n = len(values)
    if n * (100 - q) // 100 < MIN_BEYOND:
        return None
    rank = -(-q * n // 100)  # ceil(q * n / 100)
    return sorted(values)[rank - 1]


def required_percentile(values: Sequence[float], q: int, what: str) -> float:
    """:func:`percentile`, raising when the sample cannot support it."""
    value = percentile(values, q)
    if value is None:
        raise RuntimeError(
            f"{what}: {len(values)} samples cannot support p{q} "
            f"(needs {MIN_BEYOND} beyond it)"
        )
    return value


def best_of(recorders: Sequence, op: str) -> List[float]:
    """Per-step best latency of ``op`` over the passes.

    Every pass sends the identical request sequence to an identically set-up
    system, so the passes differ only in what else the machine was doing; the
    minimum keeps the run that was least disturbed.  Steps no pass answered
    are left out.
    """
    best = []
    for column in zip(*(recorder.latency.get(op, ()) for recorder in recorders)):
        answered = [value for value in column if value is not None]
        if answered:
            best.append(min(answered))
    return best


def calibration_ms(rounds: int = 3) -> float:
    """Median time of a fixed pure-Python loop: a machine-speed probe."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)
