"""Mapping applied deltas to the reference-node rows they invalidate.

The density column of a reference node ``r`` — the numerators
``|V_e ∩ V^h_r|`` for every monitored event ``e`` plus the denominator
``|V^h_r|`` — changes under a delta batch in exactly two ways:

* **structurally**, when an edge delta changes ``V^h_r`` itself.  That
  requires ``r`` to lie within ``h - 1`` hops of a touched endpoint (on the
  old graph for removals, the new graph for additions — see
  :func:`~repro.graph.traversal.dirty_vicinity`); those columns must be
  recomputed with a fresh BFS;
* **by occupancy**, when an event attach/detach at node ``x`` toggles a
  member of ``V^h_r``, i.e. when ``r ∈ V^h_x`` (hop distance is symmetric).
  Structurally *clean* columns need no BFS for this: the affected count is
  patched in place by ``± 1``.

:class:`DirtyTracker` computes both regions with Batch BFS and journals them
per epoch.  The :class:`~repro.service.engine.ServiceEngine` matrix layer
journals every commit and, on a density-matrix miss, hands the regions since
an older cached matrix to :func:`carry_columns`, which copies that matrix's
structurally clean columns and patches them; only the rest are recomputed.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.density import DensityMatrix
from repro.graph.traversal import BFSEngine, dirty_vicinity
from repro.streaming.dynamic_graph import AppliedBatch
from repro.utils.validation import check_vicinity_level


@dataclass(frozen=True)
class EventPatch:
    """One event occurrence toggle and the reference rows it reaches.

    ``sign`` is ``+1`` for an attach and ``-1`` for a detach; ``region`` is
    ``V^h_node`` on the post-batch graph — every reference node whose count
    for ``event`` shifts by ``sign``.
    """

    event: str
    node: int
    sign: int
    region: np.ndarray


@dataclass(frozen=True)
class DirtyRegion:
    """Everything a delta batch invalidates at one vicinity level."""

    level: int
    #: Nodes whose ``V^h`` may have changed — their density columns (and
    #: vicinity sizes) must be recomputed from scratch.
    structure: np.ndarray
    #: In-place count adjustments for structurally clean columns.
    event_patches: Tuple[EventPatch, ...]

    @property
    def is_empty(self) -> bool:
        """Whether the batch dirtied nothing at this level."""
        return self.structure.size == 0 and not self.event_patches

    @property
    def num_structural(self) -> int:
        """Number of structurally dirty nodes."""
        return int(self.structure.size)


class DirtyTracker:
    """Computes :class:`DirtyRegion` for committed batches at a fixed level.

    Parameters
    ----------
    level:
        The vicinity level ``h`` the downstream density columns use.
    journal_size:
        Regions computed with an ``epoch`` tag are kept in a bounded
        per-epoch journal so snapshot-pinned consumers (catching a cached
        density matrix up from an older epoch) can re-read what each commit
        invalidated without replaying its BFS.
    """

    def __init__(self, level: int, journal_size: int = 16) -> None:
        self.level = check_vicinity_level(level)
        self.journal_size = max(1, int(journal_size))
        self._journal: "OrderedDict[int, DirtyRegion]" = OrderedDict()

    def region_at(self, epoch: int) -> Optional[DirtyRegion]:
        """The journaled region of the commit that produced ``epoch``.

        Returns ``None`` when the epoch was never journaled (no ``epoch``
        passed to :meth:`region`) or has aged out of the bounded journal.
        """
        return self._journal.get(int(epoch))

    def journaled_epochs(self) -> Tuple[int, ...]:
        """Epochs currently held in the journal, oldest first."""
        return tuple(self._journal)

    def region(self, applied: AppliedBatch,
               epoch: Optional[int] = None) -> DirtyRegion:
        """The dirty region of one applied batch.

        ``epoch`` — normally ``applied.epoch`` — journals the region under
        that key; omit it to keep the tracker stateless as before.
        """
        if applied.structure_changed:
            # The vicinity-index rebase may have run the same endpoint BFS
            # already (same radius, same graphs) — reuse it rather than pay
            # the traversal twice per commit.
            cached = (applied.vicinity_dirty or {}).get(self.level)
            structure = (
                cached if cached is not None
                else dirty_vicinity(
                    applied.old_csr,
                    applied.new_csr,
                    applied.touched_endpoints(),
                    self.level - 1,
                )
            )
        else:
            structure = np.empty(0, dtype=np.int64)

        patches = []
        if applied.events_changed:
            engine = BFSEngine(applied.new_csr)
            for sign, toggles in ((+1, applied.attached), (-1, applied.detached)):
                for event, node in toggles:
                    patches.append(
                        EventPatch(
                            event=event,
                            node=node,
                            sign=sign,
                            region=engine.vicinity(node, self.level),
                        )
                    )
        region = DirtyRegion(
            level=self.level, structure=structure, event_patches=tuple(patches)
        )
        if epoch is not None:
            self._journal[int(epoch)] = region
            while len(self._journal) > self.journal_size:
                self._journal.popitem(last=False)
        return region


def carry_columns(
    source: DensityMatrix,
    regions: Sequence[DirtyRegion],
    events: Sequence[str],
    nodes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Carry a density matrix's clean columns across journaled commits.

    ``source`` is a density matrix over ``events`` at an older epoch and ``regions`` the dirty regions of every
    commit since, oldest first.  Returns ``(counts, sizes, clean)`` over
    ``nodes``: ``clean`` flags the nodes ``source`` has a column for that no
    region marks structurally dirty; their integer counts and vicinity sizes
    are copied and every event toggle that reaches them is applied by
    ``± 1`` (a clean ``V^h_r`` is the same at every epoch of the span, so
    ``r ∈ V^h_x`` exactly when ``x ∈ V^h_r``).  Other columns are left zero
    for the caller to count.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    known = source.reference_nodes
    counts = np.zeros((len(events), nodes.size), dtype=np.int64)
    sizes = np.zeros(nodes.size, dtype=np.int64)
    if known.size == 0:
        return counts, sizes, np.zeros(nodes.size, dtype=bool)
    order = np.argsort(known)
    column = order[
        np.minimum(np.searchsorted(known, nodes, sorter=order), known.size - 1)
    ]
    dirty = np.concatenate(
        [np.empty(0, dtype=np.int64)] + [region.structure for region in regions]
    )
    clean = (known[column] == nodes) & ~np.isin(nodes, dirty)
    counts[:, clean] = source.counts[:, column[clean]]
    sizes[clean] = source.vicinity_sizes[column[clean]]
    row_of = {event: row for row, event in enumerate(events)}
    for region in regions:
        for patch in region.event_patches:
            row = row_of.get(patch.event)
            if row is not None:
                counts[row, clean & np.isin(nodes, patch.region)] += patch.sign
    return counts, sizes, clean
