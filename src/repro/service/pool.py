"""The process-wide persistent worker pool.

BENCH_pr5 showed the fork-per-call pools regressing every parallel path
below serial speed: after the O(n log n) kernels a 50-pair ranking takes
~40ms, so a ~60ms pool spin-up per call can never pay for itself.  This
module replaces them with one :class:`PersistentWorkerPool` per process —
spawned on first use, reused by every parallel call of every engine, and
surviving graph mutations because workers hold no call state beyond the
bounded shared-memory caches of :mod:`repro.service.shm`.

Two task families run on the pool:

* :func:`_density_columns_task` — one contiguous *column* shard of the
  density pass.  :meth:`~repro.graph.traversal.BFSEngine.grouped_marked_counts`
  is per-reference-node independent, so splitting the sample across workers
  duplicates no traversal work and reassembling the columns is exact: the
  parallel density matrix is bit-identical to a one-shot serial pass.
  Results are written straight into parent-created shared blocks.
* :func:`_estimate_shard_task` — one round-robin *pair* shard of the
  estimate pass, reading the density matrix from shared memory and running
  :func:`~repro.core.batch.estimate_pair_list` exactly as the serial engine
  does.

A worker killed mid-task breaks the executor; :meth:`run_tasks` then rebuilds
the pool once and resubmits the whole task batch, so in-flight requests
complete instead of wedging.  A second consecutive break surfaces as
:class:`WorkerCrashedError` — a clean error, with the pool rebuilt and ready
for the next caller.

Supervision (PR 9): the pool accepts a bounded *respawn budget* so a
crash-looping workload cannot fork-bomb the host, exposes a :meth:`probe`
health check, and this module provides the :class:`CircuitBreaker` +
:class:`PoolSupervisor` pair the engine uses to trip into bit-identical
serial fallback when the pool keeps dying.  The
:data:`~repro.service.faults.WORKER_DISPATCH` fault seam fires once per
submitted task, so chaos plans like "kill worker 2 on task 7" replay
deterministically.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.density import DensityMatrix, densities_from_counts
from repro.obs.trace import attach_remote, propagation, remote_record
from repro.service import faults
from repro.service.shm import (
    ArrayRef,
    DatasetRef,
    WriteSlot,
    alloc_array,
    materialise_dataset,
    publish_array,
    publish_dataset,
    read_array,
    release_ref,
)


class WorkerCrashedError(RuntimeError):
    """A pool worker died repeatedly while running a task batch."""


@dataclass(frozen=True)
class MatrixRef:
    """Picklable handle to a density matrix published in shared memory."""

    densities: ArrayRef
    counts: ArrayRef
    sizes: ArrayRef
    nodes: ArrayRef
    level: int


# -- worker-side task entry points -------------------------------------------


def _density_columns_task(
    dataset_ref: DatasetRef,
    events: Tuple[str, ...],
    sample_ref: ArrayRef,
    start: int,
    stop: int,
    level: int,
    counts_ref: ArrayRef,
    sizes_ref: ArrayRef,
    span_ctx: Optional[Dict[str, str]] = None,
) -> Tuple[int, Optional[Dict[str, object]]]:
    """Compute density counts for reference-node columns ``[start, stop)``.

    The shard's counts/vicinity-sizes land directly in the parent-created
    shared blocks; the future carries back only the BFS-call count and —
    when the parent request is traced — a self-measured remote span record
    so the shard's wall time is attributed to the dispatching request.
    """
    t0 = time.perf_counter()
    attributed, engine = materialise_dataset(dataset_ref)
    indicators = attributed.indicator_matrix(list(events))
    nodes = read_array(sample_ref)[start:stop]
    calls_before = engine.bfs_calls
    counts, sizes = engine.grouped_marked_counts(nodes, level, indicators)
    with WriteSlot(counts_ref) as counts_slot, WriteSlot(sizes_ref) as sizes_slot:
        counts_slot.array[:, start:stop] = counts
        sizes_slot.array[start:stop] = sizes
    bfs_calls = engine.bfs_calls - calls_before
    record = remote_record(
        "worker:density_shard", time.perf_counter() - t0, span_ctx,
        columns=int(stop - start), bfs_calls=int(bfs_calls),
    )
    return bfs_calls, record


def _estimate_shard_task(
    matrix_ref: MatrixRef,
    row_of: Dict[str, int],
    shard: List[Tuple[str, str]],
    config_kwargs: Dict[str, object],
    on_insufficient: str,
    span_ctx: Optional[Dict[str, str]] = None,
):
    """Estimate one pair shard against a shared-memory density matrix.

    Runs the plain restricted-vector path (``batcher=None``), which is
    numerically identical to the serial engine's shared-rank-vector path
    (asserted in the estimator tests) and perfectly partitionable: total
    CPU across shards equals the serial estimate cost.  Returns the
    shard's ranked pairs plus an optional remote span record (see
    :func:`_density_columns_task`).
    """
    from repro.core.batch import estimate_pair_list
    from repro.core.config import TescConfig

    t0 = time.perf_counter()
    matrix = DensityMatrix(
        reference_nodes=read_array(matrix_ref.nodes),
        densities=read_array(matrix_ref.densities),
        counts=read_array(matrix_ref.counts),
        vicinity_sizes=read_array(matrix_ref.sizes),
        level=matrix_ref.level,
    )
    cfg = TescConfig(**config_kwargs)
    results = estimate_pair_list(shard, row_of, matrix, None, cfg, on_insufficient)
    record = remote_record(
        "worker:estimate_shard", time.perf_counter() - t0, span_ctx,
        pairs=len(shard),
    )
    return results, record


def _probe_task() -> int:
    """Health-probe entry point: prove a worker can run code at all."""
    return os.getpid()


# -- the pool -----------------------------------------------------------------


@dataclass
class PoolStats:
    """Lifetime counters of one :class:`PersistentWorkerPool`."""

    pools_spawned: int = 0
    tasks_dispatched: int = 0
    batches_dispatched: int = 0
    crashes_recovered: int = 0
    respawns_denied: int = 0


@dataclass(frozen=True)
class PoolHealth:
    """One :meth:`PersistentWorkerPool.probe` result."""

    ok: bool
    pids: Tuple[int, ...] = ()
    error: str = ""


class PersistentWorkerPool:
    """A grow-only, crash-recovering process pool shared by all engines.

    The pool is spawned once (first :meth:`ensure`/:meth:`run_tasks`) and
    reused for every subsequent task batch; growing the worker count
    re-forks, shrinking never does (idle workers cost nothing and keep their
    warm dataset caches).  Thread-safe: concurrent server requests submit
    through the same executor, and crash recovery is serialised through a
    generation counter so one rebuild serves every thread that saw the
    break.
    """

    def __init__(self, mp_context: Optional[str] = None,
                 respawn_budget: Optional[int] = None) -> None:
        self._mp_context = mp_context
        self._executor: Optional[ProcessPoolExecutor] = None
        self._workers = 0
        self._generation = 0
        self._lock = threading.Lock()
        self._respawns_left = respawn_budget
        self._budget_exhausted = False
        self.stats = PoolStats()

    # -- lifecycle ----------------------------------------------------------

    def _context(self):
        method = self._mp_context
        if method is None:
            available = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in available else None
        return multiprocessing.get_context(method)

    def _spawn_locked(self, workers: int) -> None:
        self._executor = ProcessPoolExecutor(
            max_workers=workers, mp_context=self._context()
        )
        self._workers = workers
        self._generation += 1
        self.stats.pools_spawned += 1

    def ensure(self, workers: int) -> None:
        """Make sure the pool exists with at least ``workers`` processes."""
        workers = max(1, int(workers))
        with self._lock:
            if self._executor is not None and self._workers >= workers:
                return
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
            self._spawn_locked(workers)

    def _acquire(self, workers: int) -> Tuple[ProcessPoolExecutor, int]:
        with self._lock:
            if self._budget_exhausted:
                raise WorkerCrashedError(
                    "worker pool respawn budget exhausted; refusing to "
                    "respawn (set_respawn_budget resets the allowance)"
                )
            if self._executor is None or self._workers < workers:
                if self._executor is not None:
                    self._executor.shutdown(wait=False, cancel_futures=True)
                self._spawn_locked(max(1, int(workers)))
            return self._executor, self._generation

    def _recover(self, seen_generation: int) -> None:
        """Respawn after a broken pool, once per generation across threads."""
        with self._lock:
            if self._generation != seen_generation:
                return  # another thread already rebuilt
            workers = self._workers
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
            if self._respawns_left is not None and self._respawns_left <= 0:
                # Crash-looping workload: stop forking replacements.  The
                # pool stays down until the budget is reset, and callers see
                # WorkerCrashedError immediately (the breaker's cue to go
                # serial for good).
                self._executor = None
                self._workers = 0
                self._budget_exhausted = True
                self.stats.respawns_denied += 1
                return
            if self._respawns_left is not None:
                self._respawns_left -= 1
            self._spawn_locked(workers)
            self.stats.crashes_recovered += 1

    def set_respawn_budget(self, budget: Optional[int]) -> None:
        """Reset the crash-respawn allowance (``None`` = unlimited)."""
        with self._lock:
            self._respawns_left = budget
            self._budget_exhausted = False

    @property
    def respawns_left(self) -> Optional[int]:
        """Remaining crash-respawn allowance (``None`` = unlimited)."""
        with self._lock:
            return self._respawns_left

    def shutdown(self) -> None:
        """Tear the pool down (it respawns lazily on the next task batch)."""
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True, cancel_futures=True)
                self._executor = None
                self._workers = 0

    @property
    def workers(self) -> int:
        """Current worker-process count (0 while not spawned)."""
        return self._workers

    @property
    def running(self) -> bool:
        return self._executor is not None

    # -- task dispatch ------------------------------------------------------

    def run_tasks(self, fn, task_args: Sequence[tuple], workers: Optional[int] = None):
        """Run ``fn(*args)`` for every args tuple, preserving input order.

        A broken pool (worker killed, e.g. OOM or a crash) is rebuilt and
        the *whole batch* resubmitted once — cheap, because task inputs live
        in shared memory — so in-flight requests survive a single worker
        death.  Repeated breaks raise :class:`WorkerCrashedError`, leaving a
        fresh pool behind for subsequent callers.
        """
        if not task_args:
            return []
        needed = workers if workers is not None else len(task_args)
        task_name = getattr(fn, "__name__", str(fn))
        for attempt in range(2):
            executor, generation = self._acquire(needed)
            try:
                futures = []
                for args in task_args:
                    rule = faults.inject(faults.WORKER_DISPATCH, task=task_name)
                    if rule is not None and rule.action == "kill_worker":
                        self._kill_worker(executor, rule.worker)
                    futures.append(executor.submit(fn, *args))
                results = [future.result() for future in futures]
            except BrokenProcessPool:
                self._recover(generation)
                if attempt == 0:
                    continue
                raise WorkerCrashedError(
                    "worker pool broke twice while running "
                    f"{getattr(fn, '__name__', fn)!r}; giving up on this batch"
                ) from None
            self.stats.batches_dispatched += 1
            self.stats.tasks_dispatched += len(task_args)
            return results
        raise AssertionError("unreachable")  # pragma: no cover

    @staticmethod
    def _kill_worker(executor: ProcessPoolExecutor, index: int) -> bool:
        """SIGKILL one live worker (chaos only; selected by sorted-pid index).

        Returns only once the victim has exited and the executor reports
        itself broken, so the batch being dispatched always meets the break.
        Returning straight after the signal would race: a surviving worker
        could finish the whole batch before the executor noticed the death.
        """
        processes = dict(getattr(executor, "_processes", None) or {})
        pids = sorted(processes.keys())
        if not pids:
            return False
        victim = processes[pids[index % len(pids)]]
        try:
            os.kill(victim.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return False
        # Both waits are bounded, so a wedged executor cannot hang dispatch.
        deadline = time.monotonic() + 10.0
        multiprocessing.connection.wait([victim.sentinel], timeout=10.0)
        while not getattr(executor, "_broken", True) and time.monotonic() < deadline:
            time.sleep(0.001)
        return True

    # -- health -------------------------------------------------------------

    def probe(self) -> PoolHealth:
        """Round-trip a trivial task through the pool.

        ``ok`` means the pool can currently execute work; a probe of a
        downed pool (respawn budget exhausted, or workers dying faster than
        the single transparent respawn) reports the failure instead of
        raising.
        """
        try:
            pids = self.run_tasks(_probe_task, [()], workers=self._workers or 1)
        except WorkerCrashedError as exc:
            return PoolHealth(ok=False, error=str(exc))
        return PoolHealth(ok=True, pids=tuple(int(pid) for pid in pids))


# -- the process-wide singleton ----------------------------------------------

_GLOBAL_POOL: Optional[PersistentWorkerPool] = None
_GLOBAL_POOL_LOCK = threading.Lock()


def global_pool() -> PersistentWorkerPool:
    """The process-wide pool every engine shares (created on first use)."""
    global _GLOBAL_POOL
    with _GLOBAL_POOL_LOCK:
        if _GLOBAL_POOL is None:
            _GLOBAL_POOL = PersistentWorkerPool()
        return _GLOBAL_POOL


def shutdown_global_pool() -> None:
    """Shut the process-wide pool down (it respawns on the next use).

    Used by tests and by the fork-cold leg of the warm-vs-fork benchmark;
    ordinary callers never need it — the pool is meant to live as long as
    the process.
    """
    global _GLOBAL_POOL
    with _GLOBAL_POOL_LOCK:
        pool = _GLOBAL_POOL
    if pool is not None:
        pool.shutdown()


# -- supervision ---------------------------------------------------------------


class CircuitBreaker:
    """A classic closed → open → half-open breaker guarding the pool path.

    ``record_failure`` counts consecutive failures; at ``failure_threshold``
    the breaker *opens* and :meth:`allow` answers ``False`` (the engine runs
    the bit-identical serial path instead of touching the pool).  After
    ``cooldown_seconds`` the next :meth:`allow` admits exactly one trial
    (*half-open*); its success closes the breaker, its failure re-opens it
    for another cooldown.  ``clock`` is injectable so chaos tests step time
    deterministically.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, failure_threshold: int = 2, cooldown_seconds: float = 5.0,
                 clock=time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = int(failure_threshold)
        self.cooldown_seconds = float(cooldown_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._trial_in_flight = False
        self.transitions = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def open(self) -> bool:
        """Whether the protected path is currently distrusted (not closed)."""
        with self._lock:
            return self._state != self.CLOSED

    def _transition_locked(self, state: str) -> None:
        if state != self._state:
            self._state = state
            self.transitions += 1

    def allow(self) -> bool:
        """Whether the caller may take the protected (pooled) path now."""
        with self._lock:
            if self._state == self.CLOSED:
                return True
            if self._state == self.OPEN:
                if self._clock() - self._opened_at < self.cooldown_seconds:
                    return False
                self._transition_locked(self.HALF_OPEN)
                self._trial_in_flight = True
                return True
            if not self._trial_in_flight:
                self._trial_in_flight = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._trial_in_flight = False
            self._transition_locked(self.CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            trial_failed = self._state == self.HALF_OPEN
            self._trial_in_flight = False
            if trial_failed or self._failures >= self.failure_threshold:
                self._transition_locked(self.OPEN)
                self._opened_at = self._clock()

    def reset(self) -> None:
        with self._lock:
            self._failures = 0
            self._trial_in_flight = False
            self._transition_locked(self.CLOSED)


class PoolSupervisor:
    """The engine's view of pool health: breaker + probe + failure ledger.

    One supervisor guards every pooled call site of one engine.  Call
    :meth:`allow` before dispatching to the pool, then exactly one of
    :meth:`record_success` / :meth:`record_failure`; once the breaker
    opens, the engine serves the serial path (bit-identical by the pool's
    own determinism contract) until a cooldown trial heals it.
    """

    def __init__(self, pool: PersistentWorkerPool,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        self.pool = pool
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.failures = 0
        self.last_error = ""

    def allow(self) -> bool:
        return self.breaker.allow()

    def record_success(self) -> None:
        self.breaker.record_success()

    def record_failure(self, error: BaseException) -> None:
        self.failures += 1
        self.last_error = f"{type(error).__name__}: {error}"
        self.breaker.record_failure()

    @property
    def degraded(self) -> bool:
        """Whether new requests are currently routed to the serial path."""
        return self.breaker.open

    def probe(self) -> PoolHealth:
        """Health-check the pool without disturbing the breaker."""
        return self.pool.probe()

    def describe(self) -> Dict[str, object]:
        return {
            "breaker_state": self.breaker.state,
            "breaker_transitions": self.breaker.transitions,
            "pool_failures": self.failures,
            "last_error": self.last_error,
            "respawns_left": self.pool.respawns_left,
        }


# -- pooled high-level phases -------------------------------------------------


def pooled_density_matrix(
    pool: PersistentWorkerPool,
    attributed,
    sample_nodes: np.ndarray,
    events: Sequence[str],
    level: int,
    workers: int,
) -> Tuple[DensityMatrix, int]:
    """One density pass, column-sharded across the persistent pool.

    The parent publishes the dataset (memoised per graph version) and the
    sample nodes, allocates shared counts/sizes blocks, and hands each
    worker a contiguous slice of reference-node columns.  Because the
    grouped BFS treats reference nodes independently, the reassembled
    matrix is bit-identical to the serial engine's one-shot pass — and no
    traversal work is duplicated, so total CPU stays at serial cost plus
    ~ms of dispatch.

    Returns the matrix plus the number of worker-side BFS calls.
    """
    nodes = np.asarray(sample_nodes, dtype=np.int64)
    num_events = len(events)
    dataset_ref = publish_dataset(attributed)
    sample_ref = publish_array(nodes, "sample")
    counts_ref = alloc_array((num_events, nodes.size), np.int64, "counts")
    sizes_ref = alloc_array((nodes.size,), np.int64, "sizes")
    try:
        shards = max(1, min(int(workers), nodes.size))
        bounds = np.linspace(0, nodes.size, shards + 1, dtype=np.int64)
        span_ctx = propagation()
        tasks = [
            (
                dataset_ref, tuple(events), sample_ref,
                int(bounds[i]), int(bounds[i + 1]), int(level),
                counts_ref, sizes_ref, span_ctx,
            )
            for i in range(shards)
            if bounds[i] < bounds[i + 1]
        ]
        shard_outputs = pool.run_tasks(_density_columns_task, tasks, workers=workers)
        bfs_calls = 0
        for shard_calls, record in shard_outputs:
            bfs_calls += shard_calls
            attach_remote(record)
        counts = read_array(counts_ref)
        sizes = read_array(sizes_ref)
    finally:
        release_ref(sample_ref)
        release_ref(counts_ref)
        release_ref(sizes_ref)
    return (
        DensityMatrix(
            reference_nodes=nodes,
            densities=densities_from_counts(counts, sizes),
            counts=counts,
            vicinity_sizes=sizes,
            level=int(level),
        ),
        int(bfs_calls),
    )


def publish_matrix(matrix: DensityMatrix) -> MatrixRef:
    """Publish a density matrix's arrays to shared memory."""
    return MatrixRef(
        densities=publish_array(matrix.densities, "dens"),
        counts=publish_array(matrix.counts, "counts"),
        sizes=publish_array(matrix.vicinity_sizes, "sizes"),
        nodes=publish_array(matrix.reference_nodes, "refs"),
        level=int(matrix.level),
    )


def release_matrix(ref: MatrixRef) -> None:
    """Unlink a published density matrix."""
    for array_ref in (ref.densities, ref.counts, ref.sizes, ref.nodes):
        release_ref(array_ref)
