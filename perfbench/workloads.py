"""The benchmark's three workloads, their seeded inputs and their oracles.

Every workload is one caller in a closed loop: it sends its next request only
after the previous one returned.  Inputs (event sets, delta batches, request
order) are generated from the seed before anything is timed; the graphs are
fixed, so a seed changes only which requests are sent.

* ``explore``: an in-process session over the 50-pair acceptance graph.
  Each step draws a fresh 6-of-100 event set and asks ``rank`` and then
  ``topk(k=3)`` on its 15 pairs, so every request misses the pair and matrix
  caches and the sampling, density and Kendall layers do the work.
* ``churn_wal``: a server with a write-ahead log (fsync per commit) over the
  20k-node churn graph.  Each step streams 20 edge rewires, then ranks the
  10 planted pairs at the new epoch, so every read misses every epoch-keyed
  cache and writes run beside reads.
* ``served_hits``: a server over the acceptance graph answering a small
  fixed set of 50-pair rank requests, all warmed into the pair cache before
  timing, so the request path and wire are the whole cost.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import resource
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro import TescConfig, open_session
from repro.datasets.synthetic_dblp import make_dblp_like
from repro.events.attributed_graph import AttributedGraph
from repro.exceptions import ReproError
from repro.graph.csr import CSRGraph
from repro.service.client import CorrelationClient
from repro.service.engine import pair_record
from repro.service.protocol import ServiceError
from repro.service.server import CorrelationServer
from repro.streaming.delta import WriteAheadLog
from repro.streaming.dynamic_graph import DynamicAttributedGraph

EXPLORE_CONFIG = TescConfig(vicinity_level=1, sample_size=900, random_state=17)
#: sample_size exceeds the ~4.2k-node reference population at h=2, so every
#: rank works on the whole population.
CHURN_CONFIG = TescConfig(vicinity_level=2, sample_size=8000, random_state=17)

EXPLORE_EVENTS_PER_SET = 6
EXPLORE_TOPK = 3
CHURN_REWIRES = 20
SERVED_REQUESTS = 4
SERVED_PAIRS = 50

#: Minimum timed steps per pass: p50 needs 20 (ten beyond it).
MIN_STEPS = 20
#: Answers per pass compared against the serial oracle (on churn_wal the
#: last answer is one of them).
CHECKED_ANSWERS = 3
#: Offsets the check-sample seed away from the input seed.
CHECK_SALT = 7919


def explore_dataset():
    """The 50-pair acceptance graph: 2,184 nodes, 100 events."""
    return make_dblp_like(
        num_communities=28, community_size=60, num_positive_pairs=13,
        num_negative_pairs=12, num_background_keywords=50, random_state=11,
    )


def churn_dataset():
    """The churn graph: 20,020 nodes, 74,023 edges, 20 events."""
    return make_dblp_like(
        num_communities=200, community_size=77, num_positive_pairs=5,
        num_negative_pairs=5, num_background_keywords=0, random_state=13,
    )


def fresh_graph(base: AttributedGraph) -> DynamicAttributedGraph:
    """A deep copy of ``base`` with empty caches, ready to serve."""
    csr = CSRGraph(base.csr.indptr.copy(), base.csr.indices.copy())
    return DynamicAttributedGraph(csr, base.events.copy(), labels=base.labels)


class ChurnGenerator:
    """Seeded edge rewires over the generator's own copy of the edge set.

    A batch first removes ``rewires`` distinct edges live before the batch,
    then adds as many new edges between uniformly drawn nodes: never a
    self-loop, never an edge that exists or that this batch removed.  So
    every ``edge_remove`` hits a live edge and no delta of a batch cancels
    another.
    """

    def __init__(self, edges: Iterable[Tuple[int, int]], num_nodes: int,
                 seed: int) -> None:
        self._rng = random.Random(seed)
        self._num_nodes = int(num_nodes)
        self._edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
        self._slot = {edge: i for i, edge in enumerate(self._edges)}

    @property
    def edges(self) -> set:
        return set(self._edges)

    def _remove(self, edge: Tuple[int, int]) -> None:
        slot = self._slot.pop(edge)
        last = self._edges.pop()
        if last != edge:
            self._edges[slot] = last
            self._slot[last] = slot

    def _add(self, edge: Tuple[int, int]) -> None:
        self._slot[edge] = len(self._edges)
        self._edges.append(edge)

    def batch(self, rewires: int) -> List[dict]:
        """One batch of ``rewires`` remove/add pairs as protocol records."""
        rng = self._rng
        removed = []
        for _ in range(rewires):
            edge = self._edges[rng.randrange(len(self._edges))]
            self._remove(edge)
            removed.append(edge)
        taboo = set(removed)
        records = []
        for u, v in removed:
            while True:
                a, b = rng.randrange(self._num_nodes), rng.randrange(self._num_nodes)
                edge = (min(a, b), max(a, b))
                if a != b and edge not in self._slot and edge not in taboo:
                    break
            self._add(edge)
            records.append({"op": "edge_remove", "u": u, "v": v})
            records.append({"op": "edge_add", "u": edge[0], "v": edge[1]})
        return records


class Recorder:
    """Latencies and request outcomes of one timed pass.

    ``latency[op]`` lists one entry per step in step order; a request that
    failed or was refused leaves ``None`` in its slot.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.latency: Dict[str, List[Optional[float]]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0

    @property
    def answered(self) -> int:
        return self.attempted - self.failed

    def call(self, op: str, fn, *args):
        """One request, timed; returns ``None`` when it fails."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request_id = self.attempted
        start = time.perf_counter()
        try:
            result = fn(*args)
        except (ServiceError, ReproError):
            self.failed += 1
            self.latency[op].append(None)
            return None
        self.latency[op].append(time.perf_counter() - start)
        return result

    def step(self, start: float, *answers) -> None:
        """Close a step begun at ``start``: timed only if all were answered."""
        answered = all(answer is not None for answer in answers)
        self.latency["step"].append(
            time.perf_counter() - start if answered else None
        )


def same_records(answer: Optional[dict], reference: Sequence) -> bool:
    """Bit-for-bit equality of an answer's pairs and the oracle's ranking.

    ``repr`` of a float round-trips exactly, so equal JSON text means equal
    bits (and NaN compares equal to NaN).
    """
    if answer is None:
        return False
    expected = [pair_record(pair) for pair in reference]
    return (json.dumps(answer["pairs"], sort_keys=True)
            == json.dumps(expected, sort_keys=True))


def _counter(registry, name: str) -> float:
    try:
        return registry.value(name)
    except KeyError:  # family registers on first use
        return 0.0


COUNTERS = (
    "tesc_pair_cache_hits_total", "tesc_pair_cache_misses_total",
    "tesc_matrices_computed_total", "tesc_sample_memo_hits_total",
    "tesc_sample_memo_misses_total", "tesc_sampler_cache_hits_total",
    "tesc_sampler_cache_misses_total",
)


class Workload:
    """One workload: seeded inputs, the system under test and its oracle.

    A run makes :attr:`passes` timed passes over the same request sequence,
    each on a freshly set-up system, and a request's latency is its best
    over the passes (see :func:`percentiles.best_of`).
    """

    name = ""
    config: TescConfig
    passes = 6
    requests_per_step = 2
    #: Rough seconds per step, used to size a pass to ``--seconds``.
    nominal_step_seconds: float

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        self.seed = int(seed)
        self.workdir = workdir
        self.check_rng = random.Random(self.seed + CHECK_SALT)
        self.steps = max(
            MIN_STEPS,
            round(seconds / (self.passes * self.nominal_step_seconds)),
        )
        self.answers: Dict[int, tuple] = {}

    def fresh(self) -> DynamicAttributedGraph:
        return fresh_graph(self.base)

    def start(self, graph):
        """Set the system up over ``graph``; ends with the first answer."""
        raise NotImplementedError

    def warm(self, handle) -> None:
        """Fill lazy state before timing (default: nothing to fill)."""

    def stop(self, handle) -> None:
        raise NotImplementedError

    def registry(self, handle):
        raise NotImplementedError

    def step(self, handle, index: int, recorder: Recorder) -> None:
        raise NotImplementedError

    def wal_path(self, handle) -> Optional[str]:
        return None

    def check(self, outputs: List["PassOutput"]) -> List[str]:
        """Compare every pass's kept answers with the oracle."""
        raise NotImplementedError


class PassOutput:
    """The answers one pass kept for the oracle, and its WAL if any."""

    def __init__(self, answers: Dict[int, tuple], wal_path: Optional[str]) -> None:
        self.answers = answers
        self.wal_path = wal_path


class Explore(Workload):
    name = "explore"
    config = EXPLORE_CONFIG
    passes = 8
    nominal_step_seconds = 0.045
    WARM_STEPS = 5

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        super().__init__(seed, seconds, workdir)
        self.base = explore_dataset().attributed
        names = sorted(self.base.event_names())
        rng = random.Random(self.seed)
        sets = [
            sorted(rng.sample(names, EXPLORE_EVENTS_PER_SET))
            for _ in range(1 + self.WARM_STEPS + self.steps)
        ]
        requests = [list(itertools.combinations(s, 2)) for s in sets]
        self.first = requests[0]
        self.warm_requests = requests[1:1 + self.WARM_STEPS]
        self.requests = requests[1 + self.WARM_STEPS:]
        self.checked = set(self.check_rng.sample(range(self.steps), CHECKED_ANSWERS))

    def start(self, graph):
        session = open_session(graph, self.config, workers=1)
        session.rank(self.first)
        return session

    def warm(self, session) -> None:
        for pairs in self.warm_requests:
            session.rank(pairs)
            session.topk(EXPLORE_TOPK, pairs)

    def stop(self, session) -> None:
        session.close()

    def registry(self, session):
        return session.metrics

    def step(self, session, index: int, recorder: Recorder) -> None:
        pairs = self.requests[index]
        start = time.perf_counter()
        ranked = recorder.call("rank", session.rank, pairs)
        top = recorder.call("topk", session.topk, EXPLORE_TOPK, pairs)
        recorder.step(start, ranked, top)
        if index in self.checked:
            self.answers[index] = (ranked, top)

    def check(self, outputs: List[PassOutput]) -> List[str]:
        mismatches = []
        with open_session(self.fresh(), self.config, workers=1) as oracle:
            for index in sorted(self.checked):
                pairs = self.requests[index]
                rank_reference = oracle.reference_ranking(pairs)
                topk_reference = oracle.reference_ranking(pairs, top_k=EXPLORE_TOPK)
                for number, output in enumerate(outputs):
                    ranked, top = output.answers[index]
                    if not same_records(ranked, rank_reference):
                        mismatches.append(f"explore pass {number} rank step {index}")
                    if not same_records(top, topk_reference):
                        mismatches.append(f"explore pass {number} topk step {index}")
        return mismatches


class _Served(Workload):
    """Shared plumbing of the two socket workloads."""

    wal = False

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        super().__init__(seed, seconds, workdir)
        self._started = 0

    def start(self, graph):
        wal_path = None
        if self.wal:
            self._started += 1
            wal_path = os.path.join(self.workdir, f"{self.name}-{self._started}.wal")
        server = CorrelationServer(graph, self.config, workers=1, wal=wal_path)
        server.start()
        client = CorrelationClient(*server.address)
        client.rank(self.first)
        return server, client, wal_path

    def stop(self, handle) -> None:
        server, client, _wal = handle
        client.close()
        server.close()

    def registry(self, handle):
        return handle[0].engine.metrics

    def wal_path(self, handle) -> Optional[str]:
        return handle[2]


class ChurnWal(_Served):
    name = "churn_wal"
    config = CHURN_CONFIG
    wal = True
    nominal_step_seconds = 0.2

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        super().__init__(seed, seconds, workdir)
        dataset = churn_dataset()
        self.base = dataset.attributed
        self.first = dataset.positive_pairs + dataset.negative_pairs
        generator = ChurnGenerator(
            dataset.graph.edges(), self.base.num_nodes, self.seed
        )
        self.batches = [generator.batch(CHURN_REWIRES) for _ in range(self.steps)]
        self.last = self.steps - 1
        self.checked = set(
            self.check_rng.sample(range(self.last), CHECKED_ANSWERS - 1)
        ) | {self.last}

    def step(self, handle, index: int, recorder: Recorder) -> None:
        client = handle[1]
        start = time.perf_counter()
        committed = recorder.call("commit", client.stream, self.batches[index])
        ranked = recorder.call("rank", client.rank, self.first)
        recorder.step(start, committed, ranked)
        if index in self.checked:
            self.answers[index] = (ranked,)

    def _matches(self, answer, epoch: int, reference) -> bool:
        return (answer is not None and answer["epoch"] == epoch
                and same_records(answer, reference))

    def check(self, outputs: List[PassOutput]) -> List[str]:
        mismatches = []
        # Answers sampled along the run, against the generated batches.
        with open_session(self.fresh(), self.config, workers=1) as oracle:
            for index, batch in enumerate(self.batches):
                oracle.commit(batch)
                if index not in self.checked:
                    continue
                reference = oracle.reference_ranking(self.first)
                for number, output in enumerate(outputs):
                    (ranked,) = output.answers[index]
                    if not self._matches(ranked, oracle.epoch, reference):
                        mismatches.append(f"churn_wal pass {number} rank step {index}")
        # Every acknowledged commit is durable: each pass's WAL alone rebuilds
        # the state its last answer was computed at.
        for number, output in enumerate(outputs):
            wal = WriteAheadLog(output.wal_path)
            try:
                logged = list(wal.batches)
            finally:
                wal.close()
            if len(logged) != len(self.batches):
                mismatches.append(
                    f"churn_wal pass {number} WAL holds {len(logged)} of "
                    f"{len(self.batches)} commits"
                )
            with open_session(self.fresh(), self.config, workers=1) as replayed:
                for batch in logged:
                    replayed.commit(batch)
                (final,) = output.answers[self.last]
                reference = replayed.reference_ranking(self.first)
                if not self._matches(final, replayed.epoch, reference):
                    mismatches.append(f"churn_wal pass {number} WAL replay")
        return mismatches


class ServedHits(_Served):
    name = "served_hits"
    config = EXPLORE_CONFIG
    nominal_step_seconds = 0.003
    requests_per_step = 1

    def __init__(self, seed: int, seconds: float, workdir: str) -> None:
        super().__init__(seed, seconds, workdir)
        dataset = explore_dataset()
        self.base = dataset.attributed
        background = dataset.background_events
        acceptance = (
            list(dataset.positive_pairs) + list(dataset.negative_pairs)
            + [(background[i], background[i + 1])
               for i in range(0, len(background), 2)]
        )
        rng = random.Random(self.seed)
        every_pair = list(itertools.combinations(sorted(self.base.event_names()), 2))
        self.request_set = [acceptance] + [
            rng.sample(every_pair, SERVED_PAIRS) for _ in range(SERVED_REQUESTS - 1)
        ]
        self.first = self.request_set[0]
        self.sequence = [rng.randrange(SERVED_REQUESTS) for _ in range(self.steps)]
        self.checked = set(self.check_rng.sample(range(self.steps), CHECKED_ANSWERS))

    def warm(self, handle) -> None:
        client = handle[1]
        for _ in range(2):
            for pairs in self.request_set:
                client.rank(pairs)

    def step(self, handle, index: int, recorder: Recorder) -> None:
        client = handle[1]
        pairs = self.request_set[self.sequence[index]]
        start = time.perf_counter()
        ranked = recorder.call("rank", client.rank, pairs)
        recorder.step(start, ranked)
        if index in self.checked:
            self.answers[index] = (ranked,)

    def check(self, outputs: List[PassOutput]) -> List[str]:
        mismatches = []
        with open_session(self.fresh(), self.config, workers=1) as oracle:
            for index in sorted(self.checked):
                reference = oracle.reference_ranking(
                    self.request_set[self.sequence[index]]
                )
                for number, output in enumerate(outputs):
                    (ranked,) = output.answers[index]
                    if not same_records(ranked, reference):
                        mismatches.append(f"served_hits pass {number} step {index}")
        return mismatches


WORKLOADS = {cls.name: cls for cls in (Explore, ChurnWal, ServedHits)}


def peak_rss_mb() -> float:
    """High-water resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Everything one benchmark run observed."""

    def __init__(self) -> None:
        self.setup_seconds: List[float] = []
        self.recorders: List[Recorder] = []
        self.pass_seconds: List[float] = []
        self.peak_rss_mb = 0.0
        self.counters: Dict[str, float] = {}
        self.wal_bytes = 0
        self.mismatches: List[str] = []

    @property
    def attempted(self) -> int:
        return sum(recorder.attempted for recorder in self.recorders)

    @property
    def failed(self) -> int:
        return sum(recorder.failed for recorder in self.recorders)


def _timed_start(workload: Workload, run: Run):
    graph = workload.fresh()
    start = time.perf_counter()
    handle = workload.start(graph)
    run.setup_seconds.append(time.perf_counter() - start)
    return handle


def measure(workload: Workload, passes: int, extra_setups: int = 0,
            tracer=None) -> Run:
    """Make ``passes`` timed passes, each on a freshly set-up system.

    ``extra_setups`` more set-ups (set up, first answer, stop) come first,
    so ``setup_s`` has a median over enough samples.  Counters, WAL growth
    and tracing cover the last pass only.  Answers are checked after every
    system is stopped.
    """
    run = Run()
    for _ in range(extra_setups):
        workload.stop(_timed_start(workload, run))
        gc.collect()
    outputs = []
    for number in range(passes):
        last = number == passes - 1
        handle = _timed_start(workload, run)
        workload.answers = {}
        try:
            workload.warm(handle)
            registry = workload.registry(handle)
            before = {name: _counter(registry, name) for name in COUNTERS}
            wal_path = workload.wal_path(handle)
            wal_before = os.path.getsize(wal_path) if wal_path else 0
            recorder = Recorder(tracer if last else None)
            gc.collect()
            if last and tracer is not None:
                tracer.install()
            start = time.perf_counter()
            try:
                for index in range(workload.steps):
                    workload.step(handle, index, recorder)
            finally:
                run.pass_seconds.append(time.perf_counter() - start)
                if last and tracer is not None:
                    tracer.uninstall()
            run.recorders.append(recorder)
            if last:
                run.counters = {
                    name: _counter(registry, name) - before[name]
                    for name in COUNTERS
                }
                run.wal_bytes = (os.path.getsize(wal_path) if wal_path else 0) - wal_before
        finally:
            workload.stop(handle)
        # Free this pass's system before the next one, so the peak RSS is
        # one system's, not however many the cycle collector left around.
        gc.collect()
        outputs.append(PassOutput(workload.answers, wal_path))
    run.peak_rss_mb = peak_rss_mb()
    run.mismatches = workload.check(outputs)
    return run
