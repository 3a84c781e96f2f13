"""Sample-once/reuse plumbing for batch workloads.

Testing many event pairs on one graph re-draws a reference sample per pair
even when consecutive pairs share the same reference population (the same
``V^h_{a∪b}``, or the whole-universe population the batch engine uses).
:class:`CachingSampler` wraps any :class:`~repro.sampling.base.ReferenceSampler`
and memoises its samples keyed by ``(event-node fingerprint, level,
sample_size)``, so shared populations pay the sampling cost once.

The cache is *content-addressed*: two different callers asking for the same
node set at the same level get the same :class:`ReferenceSample` object back
(treat it as read-only).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Tuple

import numpy as np

from repro.obs.registry import NULL_REGISTRY
from repro.sampling.base import (
    EagerSampleGrowth,
    ReferenceSample,
    ReferenceSampler,
    SampleGrowth,
)


def event_nodes_fingerprint(event_nodes: np.ndarray) -> str:
    """Stable content hash of a node set (order-insensitive).

    Used as the cache key component identifying a reference population
    ``V^h_S`` by its source set ``S``.
    """
    canonical = np.unique(np.asarray(event_nodes, dtype=np.int64))
    return hashlib.sha1(canonical.tobytes()).hexdigest()


class CachingSampler(ReferenceSampler):
    """Memoising wrapper around another reference sampler.

    Parameters
    ----------
    inner:
        The sampler that actually draws samples on a cache miss.

    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; when given, hit/miss
        totals are mirrored into ``tesc_sampler_cache_{hits,misses}_total``
        so the service's hit ratios are scrapeable.

    Notes
    -----
    Reuse changes the statistics only in the sense that repeated queries see
    the *same* draw instead of independent draws — exactly the amortisation
    the batch engine wants (and what a fixed ``random_state`` already gives
    per call).  Call :meth:`clear` to force fresh draws.
    """

    name = "caching"

    def __init__(self, inner: ReferenceSampler, metrics=None) -> None:
        super().__init__(inner.graph, random_state=inner.rng)
        self.inner = inner
        self._cache: Dict[Tuple[str, int, int], ReferenceSample] = {}
        self.hits = 0
        self.misses = 0
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_hits = registry.counter(
            "tesc_sampler_cache_hits_total",
            "Reference samples served from the sampler memo.",
        )
        self._m_misses = registry.counter(
            "tesc_sampler_cache_misses_total",
            "Reference samples drawn fresh on sampler-memo misses.",
        )

    def sample(self, event_nodes: np.ndarray, level: int,
               sample_size: int) -> ReferenceSample:
        key = (event_nodes_fingerprint(event_nodes), int(level), int(sample_size))
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            self._m_hits.inc()
            return cached
        self.misses += 1
        self._m_misses.inc()
        sample = self.inner.sample(event_nodes, level, sample_size)
        self._cache[key] = sample
        return sample

    def growable(self, event_nodes: np.ndarray, level: int,
                 budget: int) -> SampleGrowth:
        """A prefix-extendable sample that shares this sampler's memo.

        A memoised full-budget sample is reused as an eager (already drawn)
        growth; otherwise the inner sampler's growth is wrapped so that the
        moment it reaches the full budget, the resulting sample is registered
        under the same ``(fingerprint, level, budget)`` key a one-shot
        :meth:`sample` call would use.  A progressive run therefore leaves
        behind exactly the cache entry a batch run needs — and vice versa —
        keeping the two engines' shared samples identical within one engine
        as well as across engines.
        """
        key = (event_nodes_fingerprint(event_nodes), int(level), int(budget))
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            self._m_hits.inc()
            return EagerSampleGrowth(cached)
        if not self.inner.incremental_growth:
            # One eager draw through sample() (memoising it as usual).
            return EagerSampleGrowth(self.sample(event_nodes, level, budget))
        self.misses += 1
        self._m_misses.inc()
        return _RegisteringGrowth(
            self.inner.growable(event_nodes, level, budget), self._cache, key
        )

    def clear(self) -> None:
        """Drop all memoised samples (e.g. after a graph mutation)."""
        self._cache.clear()

    @property
    def num_cached(self) -> int:
        """Number of distinct samples currently memoised."""
        return len(self._cache)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"CachingSampler({self.inner!r}, cached={self.num_cached})"


class _RegisteringGrowth(SampleGrowth):
    """Delegating growth that memoises the full-budget sample on completion."""

    def __init__(self, inner: SampleGrowth,
                 cache: Dict[Tuple[str, int, int], ReferenceSample],
                 key: Tuple[str, int, int]) -> None:
        super().__init__(inner.budget)
        self._inner = inner
        self._cache = cache
        self._key = key

    def grow_to(self, size: int) -> np.ndarray:
        order = self._inner.grow_to(size)
        self.grown_size = self._inner.grown_size
        return order

    def full_sample(self) -> ReferenceSample:
        sample = self._inner.full_sample()
        self.grown_size = self._inner.grown_size
        self._cache.setdefault(self._key, sample)
        return sample


class SampleMemo:
    """Epoch-aware sample memo drawing through *fresh* samplers.

    The streaming subsystem must reproduce, after every committed delta
    batch, exactly the sample a freshly constructed engine would draw: a new
    sampler seeded from the configured ``random_state``, applied to the
    current graph.  Unlike :class:`CachingSampler` — which wraps one
    long-lived sampler whose RNG stream advances across draws — this memo
    calls ``factory()`` on every miss, so each drawn sample is bit-identical
    to a from-scratch engine's.

    Keys combine the population identity (universe fingerprint, level,
    sample size) with the caller-supplied ``epoch``: bump the epoch whenever
    the graph structure changes and stale draws can never be returned, while
    commits that leave both the structure and the monitored universe
    untouched reuse the previous draw for free.

    Parameters
    ----------
    factory:
        Callable returning a ready-to-use
        :class:`~repro.sampling.base.ReferenceSampler` with a freshly seeded
        RNG.  Called with no arguments for live-graph draws; when a draw is
        requested at a pinned snapshot (``sample(..., graph=snapshot)``) the
        snapshot is passed as the single positional argument, so factories
        serving MVCC readers should accept an optional graph and default to
        the live one.
    max_entries:
        Older entries are evicted beyond this count (a commit stream
        normally needs one live entry per queried universe and epoch).
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; hit/miss totals are
        mirrored into ``tesc_sample_memo_{hits,misses}_total``.
    """

    def __init__(self, factory: Callable[..., ReferenceSampler],
                 max_entries: int = 8, metrics=None) -> None:
        self.factory = factory
        self.max_entries = max(1, int(max_entries))
        self._cache: Dict[Tuple[str, int, int, int], ReferenceSample] = {}
        self.hits = 0
        self.misses = 0
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._m_hits = registry.counter(
            "tesc_sample_memo_hits_total",
            "Epoch-keyed sample draws served from the memo.",
        )
        self._m_misses = registry.counter(
            "tesc_sample_memo_misses_total",
            "Epoch-keyed sample draws taken fresh through the factory.",
        )

    def sample(self, event_nodes: np.ndarray, level: int, sample_size: int,
               epoch: int = 0, graph=None) -> ReferenceSample:
        """The memoised sample for ``(population, epoch)``, drawing on miss.

        ``graph`` routes the miss-path draw to a pinned snapshot instead of
        whatever graph the factory would default to; the epoch in the key
        must identify that snapshot's state for the memo to be coherent.
        """
        key = (
            event_nodes_fingerprint(event_nodes), int(level), int(sample_size),
            int(epoch),
        )
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            self._m_hits.inc()
            return cached
        self.misses += 1
        self._m_misses.inc()
        sampler = self.factory() if graph is None else self.factory(graph)
        sample = sampler.sample(event_nodes, level, sample_size)
        while len(self._cache) >= self.max_entries:
            del self._cache[next(iter(self._cache))]
        self._cache[key] = sample
        return sample

    def growable(self, event_nodes: np.ndarray, level: int, sample_size: int,
                 epoch: int = 0) -> SampleGrowth:
        """A prefix-extendable view of the memoised sample for the epoch.

        Draws through :meth:`sample` (fresh-sampler semantics preserved:
        the memoised draw is bit-identical to a from-scratch engine's), so
        growth here is always eager — the memo's job is reproducibility
        across commits, not lazy suffix draws.
        """
        return EagerSampleGrowth(
            self.sample(event_nodes, level, sample_size, epoch=epoch)
        )

    def clear(self) -> None:
        """Drop every memoised draw."""
        self._cache.clear()

    @property
    def num_cached(self) -> int:
        """Number of distinct samples currently memoised."""
        return len(self._cache)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SampleMemo(cached={self.num_cached})"
