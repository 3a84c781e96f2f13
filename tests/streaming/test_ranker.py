"""Streaming re-ranking through ``Session.commit -> Session.rank``.

The centrepiece is the equivalence property suite: after *any* sequence of
delta batches, the session's ranking must be bit-identical — scores,
z-scores, p-values, verdicts, ranks — to a fresh
:class:`~repro.core.batch.BatchTescEngine` run on the graph at the answering
epoch with the same seed (``reference_ranking``), across samplers and worker
counts, while the engine carries clean density columns from epoch to epoch.
"""

import numpy as np
import pytest

from repro.api import Session
from repro.core.config import TescConfig
from repro.datasets.synthetic_dblp import make_dblp_like
from repro.datasets.synthetic_twitter import make_twitter_like
from repro.exceptions import ConfigurationError
from repro.service.protocol import BadRequestError
from repro.streaming import Delta, DynamicAttributedGraph

FIELDS = (
    "event_a", "event_b", "rank", "score", "z_score", "p_value", "verdict",
    "num_reference_nodes",
)


def _random_batch(rng, dynamic, events, num_edges=4, num_events=2):
    """A mixed batch of random structural and event deltas."""
    deltas = []
    edges = list(dynamic.csr.edges())
    num_nodes = dynamic.num_nodes
    for _ in range(num_edges):
        if rng.random() < 0.5 and edges:
            u, v = edges.pop(int(rng.integers(0, len(edges))))
            deltas.append(Delta.edge_remove(u, v))
        else:
            u, v = int(rng.integers(0, num_nodes)), int(rng.integers(0, num_nodes))
            if u != v:
                deltas.append(Delta.edge_add(u, v))
    for _ in range(num_events):
        event = events[int(rng.integers(0, len(events)))]
        node = int(rng.integers(0, num_nodes))
        if rng.random() < 0.5:
            deltas.append(Delta.event_attach(event, node))
        else:
            deltas.append(Delta.event_detach(event, node))
    return deltas


def columns(session):
    """``(carried, computed)`` density-column counters of the session."""
    value = session.metrics.value
    return (
        value("tesc_density_columns_total", source="carried"),
        value("tesc_density_columns_total", source="computed"),
    )


def _assert_matches_reference(session, response, pairs, sort_by="score",
                              top_k=None):
    reference = session.reference_ranking(
        pairs, top_k=top_k, sort_by=sort_by, at_epoch=response["epoch"]
    )
    expected = [
        (p.event_a, p.event_b, p.rank, p.score, p.z_score, p.p_value,
         p.verdict.value, p.num_reference_nodes)
        for p in reference
    ]
    got = [tuple(record[field] for field in FIELDS) for record in response["pairs"]]
    assert got == expected


def _dblp():
    return make_dblp_like(
        num_communities=10, community_size=40, num_positive_pairs=2,
        num_negative_pairs=2, num_background_keywords=4, random_state=31,
    )


class TestEquivalenceProperty:
    """Random delta sequences stay bit-identical to a from-scratch rank."""

    @pytest.mark.parametrize("sampler", ["batch_bfs", "whole_graph", "exhaustive"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_dblp_like_stream(self, sampler, workers):
        dataset = _dblp()
        dynamic = DynamicAttributedGraph(dataset.graph, dataset.attributed.events)
        pairs = (
            dataset.positive_pairs
            + dataset.negative_pairs
            + [("bg_0", "bg_1"), ("bg_2", "bg_3")]
        )
        events = sorted({event for pair in pairs for event in pair})
        config = TescConfig(
            vicinity_level=1, sample_size=120, sampler=sampler, random_state=7,
        )
        rng = np.random.default_rng(100 + workers)
        with Session(dynamic, config, workers=workers) as session:
            _assert_matches_reference(session, session.rank(pairs), pairs)
            for _ in range(4):
                session.commit(_random_batch(rng, dynamic, events))
                _assert_matches_reference(session, session.rank(pairs), pairs)
            carried, _computed = columns(session)
        assert carried > 0

    @pytest.mark.parametrize("sampler", ["batch_bfs", "whole_graph"])
    def test_twitter_like_stream(self, sampler):
        graph = make_twitter_like(num_nodes=600, edges_per_node=4, random_state=3)
        rng = np.random.default_rng(17)
        events = {
            name: rng.choice(600, size=60, replace=False)
            for name in ("a", "b", "c", "d")
        }
        dynamic = DynamicAttributedGraph(graph, events)
        config = TescConfig(
            vicinity_level=2, sample_size=100, sampler=sampler, random_state=23,
        )
        with Session(dynamic, config) as session:
            _assert_matches_reference(session, session.rank(), "all")
            for _ in range(3):
                session.commit(
                    _random_batch(rng, dynamic, list(events), num_edges=6)
                )
                _assert_matches_reference(session, session.rank(), "all")

    def test_worker_counts_agree_exactly(self):
        dataset = make_dblp_like(
            num_communities=8, community_size=30, num_positive_pairs=2,
            num_negative_pairs=1, num_background_keywords=2, random_state=5,
        )
        config = TescConfig(sample_size=90, random_state=11)
        batches = []
        rng = np.random.default_rng(55)
        probe = DynamicAttributedGraph(
            dataset.graph.copy(), dataset.attributed.events.copy()
        )
        events = probe.event_names()
        for _ in range(3):
            batches.append(_random_batch(rng, probe, events))
            probe.apply(batches[-1])

        rankings = {}
        for workers in (1, 2):
            dynamic = DynamicAttributedGraph(
                dataset.graph.copy(), dataset.attributed.events.copy()
            )
            with Session(dynamic, config, workers=workers) as session:
                session.rank()
                for batch in batches:
                    session.commit(batch)
                    final = session.rank()
                rankings[workers] = final["pairs"]
        assert rankings[1] == rankings[2]


class TestIncrementalBehaviour:
    @pytest.fixture
    def dataset(self):
        return _dblp()

    def test_first_commit_reports_every_pair_as_new(self, dataset):
        """The first rank computes every column and scores every pair."""
        dynamic = DynamicAttributedGraph(dataset.graph, dataset.attributed.events)
        config = TescConfig(sample_size=100, random_state=3)
        with Session(dynamic, config) as session:
            response = session.rank()
            carried, computed = columns(session)
        assert carried == 0 and computed > 0
        assert response["computed_pairs"] == len(response["pairs"])
        assert response["cached_pairs"] == 0

    def test_empty_commit_changes_nothing(self, dataset):
        dynamic = DynamicAttributedGraph(dataset.graph, dataset.attributed.events)
        config = TescConfig(sample_size=100, random_state=3)
        with Session(dynamic, config) as session:
            first = session.rank()
            before = columns(session)
            receipt = session.commit([])
            again = session.rank()
            assert columns(session) == before
        assert receipt["epoch"] == first["epoch"]
        assert not receipt["changed"]
        assert again["pairs"] == first["pairs"]
        assert again["computed_pairs"] == 0

    def test_localised_edit_carries_every_column(self, dataset):
        dynamic = DynamicAttributedGraph(dataset.graph, dataset.attributed.events)
        config = TescConfig(sample_size=150, random_state=3)
        pairs = dataset.positive_pairs + dataset.negative_pairs
        with Session(dynamic, config) as session:
            session.rank(pairs)
            _carried, computed = columns(session)
            # Toggle one occurrence of one monitored event: no structural
            # change, so no column needs a BFS — counts are patched in place.
            event = dataset.positive_pairs[0][0]
            node = int(dynamic.event_nodes(event)[0])
            session.commit([Delta.event_detach(event, node)])
            response = session.rank(pairs)
            assert columns(session)[1] == computed
            _assert_matches_reference(session, response, pairs)

    def test_unmonitored_event_toggle_keeps_sample(self, dataset):
        dynamic = DynamicAttributedGraph(dataset.graph, dataset.attributed.events)
        config = TescConfig(sample_size=100, random_state=3)
        pairs = dataset.positive_pairs
        with Session(dynamic, config) as session:
            first = session.rank(pairs)
            _carried, computed = columns(session)
            session.commit([Delta.event_attach("bg_0", 5)])
            after = session.rank(pairs)
            assert columns(session)[1] == computed
        assert after["epoch"] == first["epoch"] + 1
        assert after["pairs"] == first["pairs"]

    def test_out_of_band_mutation_is_detected(self, dataset):
        dynamic = DynamicAttributedGraph(dataset.graph, dataset.attributed.events)
        config = TescConfig(sample_size=100, random_state=3)
        pairs = dataset.positive_pairs + dataset.negative_pairs
        with Session(dynamic, config) as session:
            session.rank(pairs)
            # Mutate behind the session's back: the epoch moves without a
            # journaled region, so the next rank must not carry columns.
            u, v = next(iter(dynamic.csr.edges()))
            dynamic.apply([Delta.edge_remove(u, v)])
            _assert_matches_reference(session, session.rank(pairs), pairs)

    def test_watch_and_unwatch(self, dataset):
        """Growing and shrinking the requested pair set between commits."""
        dynamic = DynamicAttributedGraph(dataset.graph, dataset.attributed.events)
        config = TescConfig(sample_size=100, random_state=3)
        watched = dataset.positive_pairs + [("bg_0", "bg_1")]
        rng = np.random.default_rng(9)
        with Session(dynamic, config) as session:
            session.rank(dataset.positive_pairs)
            session.commit(_random_batch(rng, dynamic, ["bg_0", "bg_1"]))
            response = session.rank(watched)
            assert ("bg_0", "bg_1") in [
                (p["event_a"], p["event_b"]) for p in response["pairs"]
            ]
            _assert_matches_reference(session, response, watched)
            session.commit(_random_batch(rng, dynamic, ["bg_0", "bg_1"]))
            response = session.rank(dataset.positive_pairs)
            assert ("bg_0", "bg_1") not in [
                (p["event_a"], p["event_b"]) for p in response["pairs"]
            ]
            _assert_matches_reference(session, response, dataset.positive_pairs)

    def test_top_k_trims_public_ranking_only(self, dataset):
        dynamic = DynamicAttributedGraph(dataset.graph, dataset.attributed.events)
        config = TescConfig(sample_size=100, random_state=3)
        with Session(dynamic, config) as session:
            assert len(session.rank(top_k=2)["pairs"]) == 2
            event = dataset.positive_pairs[0][0]
            node = int(dynamic.event_nodes(event)[0])
            session.commit([Delta.event_detach(event, node)])
            response = session.rank(top_k=2)
            _assert_matches_reference(session, response, "all", top_k=2)

    def test_verdict_flip_surfaces_in_delta(self, dataset):
        dynamic = DynamicAttributedGraph(dataset.graph, dataset.attributed.events)
        config = TescConfig(sample_size=150, random_state=3)
        pair = dataset.positive_pairs[0]
        with Session(dynamic, config) as session:
            first = session.rank([pair])
            assert first["pairs"][0]["verdict"] == "positive"
            # Detaching every occurrence of one side forces the pair to
            # insufficient/independent — a verdict flip between the answers.
            nodes = [int(n) for n in dynamic.event_nodes(pair[0])]
            session.commit([Delta.event_detach(pair[0], n) for n in nodes])
            response = session.rank([pair])
            assert response["pairs"][0]["verdict"] != "positive"
            _assert_matches_reference(session, response, [pair])


class TestValidation:
    def test_requires_dynamic_graph(self):
        data = make_dblp_like(
            num_communities=8, community_size=20, num_positive_pairs=1,
            num_negative_pairs=1, num_background_keywords=0, random_state=1,
        )
        with Session(data.attributed) as session:
            with pytest.raises(BadRequestError):
                session.commit([Delta.edge_add(0, 1)])

    def test_rejects_weighted_samplers(self):
        data = make_dblp_like(
            num_communities=8, community_size=20, num_positive_pairs=1,
            num_negative_pairs=1, num_background_keywords=0, random_state=1,
        )
        dynamic = DynamicAttributedGraph(data.graph, data.attributed.events)
        with pytest.raises(ConfigurationError):
            Session(dynamic, TescConfig(sampler="importance"))

    def test_rejects_bad_sort_key(self):
        data = make_dblp_like(
            num_communities=8, community_size=20, num_positive_pairs=1,
            num_negative_pairs=1, num_background_keywords=0, random_state=1,
        )
        dynamic = DynamicAttributedGraph(data.graph, data.attributed.events)
        with Session(dynamic) as session:
            with pytest.raises(ConfigurationError):
                session.rank(sort_by="banana")
