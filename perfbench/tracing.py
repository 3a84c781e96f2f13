"""In-memory span tracing for the benchmark's traced run.

The program is not changed to be measured.  Instead :class:`Tracer` swaps
the public callables named in :data:`WRAPS` for thin wrappers (at the module
or class where the caller looks them up), records one :class:`Span` per call
and puts the originals back on :meth:`Tracer.uninstall`.  Spans live in a
list until the run ends; :meth:`Tracer.write` dumps them as JSON lines.

:func:`layer_report` turns the spans of one timed window into the per-layer
metrics of ``BENCHMARK.json`` (times per answered request, counts exact).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    """One traced call: name, interval, causing span and request id."""

    __slots__ = ("id", "name", "start", "end", "parent", "request_id")

    def __init__(self, span_id: int, name: str, parent: Optional[int],
                 request_id: Optional[int], start: float = 0.0,
                 end: float = 0.0) -> None:
        self.id = span_id
        self.name = name
        self.parent = parent
        self.request_id = request_id
        self.start = start
        self.end = end

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


def _density_columns(_computer, nodes, indicators, *_args, **_kwargs) -> int:
    return len(nodes) * len(indicators)


def _appended_columns(_computer, _matrix, new_nodes, indicators, *_args,
                      **_kwargs) -> int:
    return len(new_nodes) * len(indicators)


#: ``(owner, attribute, span name, weigh)``.  ``owner`` is ``"module"`` for a
#: module-level name or ``"module:Class"`` for a method; ``weigh`` maps the
#: call's arguments to the work count :attr:`Tracer.counts` adds up.
WRAPS: Tuple[Tuple[str, str, str, Optional[Callable[..., int]]], ...] = (
    ("repro.service.engine:ServiceEngine", "rank", "ServiceEngine.rank", None),
    ("repro.service.engine:ServiceEngine", "topk", "ServiceEngine.topk", None),
    ("repro.service.engine:ServiceEngine", "commit", "ServiceEngine.commit", None),
    ("repro.service.client:CorrelationClient", "request",
     "CorrelationClient.request", None),
    ("repro.service.server", "encode", "protocol.encode", None),
    ("repro.service.server", "decode_line", "protocol.decode_line", None),
    ("repro.service.client", "encode", "protocol.encode", None),
    ("repro.service.client", "decode_line", "protocol.decode_line", None),
    ("repro.service.admission:AdmissionController", "admit",
     "AdmissionController.admit", None),
    ("repro.service.engine", "event_universe", "event_universe", None),
    ("repro.core.topk", "event_universe", "event_universe", None),
    ("repro.events.attributed_graph:AttributedGraph", "indicator_matrix",
     "AttributedGraph.indicator_matrix", None),
    ("repro.streaming.dynamic_graph:DynamicAttributedGraph", "pin",
     "DynamicAttributedGraph.pin", None),
    ("repro.streaming.dynamic_graph:DynamicAttributedGraph", "apply",
     "DynamicAttributedGraph.apply", None),
    ("repro.streaming.delta:WriteAheadLog", "append_batch",
     "WriteAheadLog.append_batch", None),
    ("os", "fsync", "os.fsync", None),
    ("repro.sampling.cache:SampleMemo", "sample", "SampleMemo.sample", None),
    ("repro.sampling.cache:CachingSampler", "growable",
     "CachingSampler.growable", None),
    ("repro.core.density:DensityComputer", "density_matrix",
     "DensityComputer.density_matrix", _density_columns),
    ("repro.core.density:DensityComputer", "append_columns",
     "DensityComputer.append_columns", _appended_columns),
    ("repro.service.engine", "estimate_pair_list", "estimate_pair_list", None),
    ("repro.core.topk", "estimate_pair_list", "estimate_pair_list", None),
    ("repro.core.topk:ProgressiveTopKEngine", "top_k",
     "ProgressiveTopKEngine.top_k", None),
    ("repro.service.engine", "finalise_ranking", "finalise_ranking", None),
    ("repro.core.topk", "finalise_ranking", "finalise_ranking", None),
    ("repro.graph.traversal:BFSEngine", "grouped_marked_counts",
     "BFSEngine.grouped_marked_counts", None),
    ("repro.graph.traversal:BFSEngine", "vicinity_sizes",
     "BFSEngine.vicinity_sizes", None),
    ("repro.core.estimators", "concordance_sum", "concordance_sum", None),
    ("repro.core.estimators", "pair_concordance_sum", "concordance_sum", None),
)


def resolve_owner(spec: str):
    """The module or class a :data:`WRAPS` owner string names."""
    module_name, _, class_name = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Installs call wrappers and keeps every span they record in memory.

    The benchmark's closed loop sets :attr:`request_id` before each request;
    spans opened on any thread (the server's connection thread included)
    carry it, and a span's parent is the innermost open span of its thread.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.request_id: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[object, str, object, bool]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attribute: str, name: str,
             weigh: Optional[Callable[..., int]] = None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        own = vars(owner)
        had_own = attribute in own
        saved = own[attribute] if had_own else None
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(next(tracer._ids), name,
                        stack[-1].id if stack else None, tracer.request_id)
            if weigh is not None:
                tracer.counts[name] += weigh(*args, **kwargs)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        setattr(owner, attribute, traced)
        self._installed.append((owner, attribute, saved, had_own))

    def install(self, wraps: Iterable[tuple] = WRAPS) -> None:
        for owner, attribute, name, weigh in wraps:
            self.wrap(resolve_owner(owner), attribute, name, weigh)

    def uninstall(self) -> None:
        """Put every wrapped callable back exactly as it was."""
        while self._installed:
            owner, attribute, saved, had_own = self._installed.pop()
            if had_own:
                setattr(owner, attribute, saved)
            else:
                delattr(owner, attribute)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def covered_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
        ]
        covered = covered_length((s, e) for s, e in clipped if e > s)
        result[span.id] = span.duration - covered
    return result


def layer_seconds(spans: Sequence[Span], names: Iterable[str]) -> float:
    """Total time inside any of ``names``, a nested call counted once."""
    names = frozenset(names)
    by_id = {span.id: span for span in spans}
    total = 0.0
    for span in spans:
        if span.name not in names:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent)
        if parent is None:
            total += span.duration
    return total


#: Per-layer time metrics: metric name -> span names whose time it sums.
LAYER_TIMES = {
    "service.protocol_ms": ("protocol.encode", "protocol.decode_line"),
    "service.admission_wait_ms": ("AdmissionController.admit",),
    "events.universe_ms": ("event_universe", "AttributedGraph.indicator_matrix"),
    "streaming.pin_ms": ("DynamicAttributedGraph.pin",),
    "streaming.apply_ms": ("DynamicAttributedGraph.apply",),
    "streaming.wal_append_ms": ("WriteAheadLog.append_batch",),
    "sampling.sample_ms": ("SampleMemo.sample", "CachingSampler.growable"),
    "core.density_ms": ("DensityComputer.density_matrix",
                        "DensityComputer.append_columns"),
    "core.estimate_ms": ("estimate_pair_list",),
    "core.topk_ms": ("ProgressiveTopKEngine.top_k",),
    "core.finalise_ms": ("finalise_ranking",),
    "graph.bfs_ms": ("BFSEngine.grouped_marked_counts",
                     "BFSEngine.vicinity_sizes"),
    "stats.kendall_ms": ("concordance_sum",),
}

_ENGINE_CALLS = frozenset(
    {"ServiceEngine.rank", "ServiceEngine.topk", "ServiceEngine.commit"}
)


def layer_report(spans: Sequence[Span], counts: Counter, requests: int,
                 commits: int) -> Dict[str, float]:
    """Span-derived per-layer metrics of one timed window.

    Times are milliseconds per answered request; ``requests`` and
    ``commits`` are the window's answered requests and stream commits.
    """
    per_request = 1e3 / max(requests, 1)
    report = {
        name: layer_seconds(spans, span_names) * per_request
        for name, span_names in LAYER_TIMES.items()
    }
    own = self_times(spans)
    report["service.rank_self_ms"] = per_request * sum(
        own[span.id] for span in spans if span.name == "ServiceEngine.rank"
    )
    client = [span for span in spans if span.name == "CorrelationClient.request"]
    client_ids = {span.request_id for span in client}
    served = sum(
        span.duration for span in spans
        if span.name in _ENGINE_CALLS and span.request_id in client_ids
    )
    report["service.wire_ms"] = per_request * (
        sum(span.duration for span in client) - served
    )
    report["core.density_columns_per_request"] = (
        counts["DensityComputer.density_matrix"]
        + counts["DensityComputer.append_columns"]
    ) / max(requests, 1)
    fsyncs = sum(1 for span in spans if span.name == "os.fsync")
    report["streaming.fsyncs_per_commit"] = fsyncs / commits if commits else 0.0
    return report
