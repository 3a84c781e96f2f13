"""Streaming updates: dynamic graphs with incremental correlation re-ranking.

The subsystem has four layers:

* :mod:`repro.streaming.delta` — the :class:`Delta` / :class:`DeltaBatch` /
  :class:`DeltaLog` update model (edge insert/delete, event attach/detach)
  and its JSONL wire format;
* :mod:`repro.streaming.dynamic_graph` —
  :class:`DynamicAttributedGraph`, which applies batches by patching CSR
  adjacency rows and bumping the event-layer version instead of rebuilding
  the world;
* :mod:`repro.streaming.dirty` — :class:`DirtyTracker`, mapping each applied
  batch to the invalidated reference rows (structural recomputes within
  ``h - 1`` hops of a touched endpoint, in-place ``± 1`` count patches for
  event toggles), journaled per epoch, and
  :func:`~repro.streaming.dirty.carry_columns`, which the
  :class:`~repro.service.engine.ServiceEngine` matrix layer uses to carry a
  cached density matrix's clean columns across commits;
* :mod:`repro.streaming.snapshots` — the copy-on-write epoch snapshots and
  lease table that let readers pin a frozen state while commits land.

Continuous re-ranking is ``open_session(dynamic).commit(...)`` followed by
``rank(...)``: every answer stays bit-identical to a fresh static
:class:`~repro.core.batch.BatchTescEngine` run with the same seed.
"""

from repro.streaming.delta import (
    Delta,
    DeltaBatch,
    DeltaError,
    DeltaLog,
)
from repro.streaming.dirty import DirtyRegion, DirtyTracker, EventPatch
from repro.streaming.dynamic_graph import AppliedBatch, DynamicAttributedGraph

__all__ = [
    "AppliedBatch",
    "Delta",
    "DeltaBatch",
    "DeltaError",
    "DeltaLog",
    "DirtyRegion",
    "DirtyTracker",
    "DynamicAttributedGraph",
    "EventPatch",
]
