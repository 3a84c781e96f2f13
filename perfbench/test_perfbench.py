"""Tests of the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

from percentiles import (  # noqa: E402
    MIN_BEYOND,
    best_of,
    percentile,
    required_percentile,
)
from tracing import (  # noqa: E402
    WRAPS,
    Span,
    Tracer,
    covered_length,
    layer_seconds,
    resolve_owner,
    self_times,
)
from workloads import ChurnGenerator  # noqa: E402

from repro.graph.generators import community_ring_graph  # noqa: E402
from repro.streaming.delta import Delta  # noqa: E402
from repro.streaming.dynamic_graph import DynamicAttributedGraph  # noqa: E402


def _live_graph():
    csr = community_ring_graph(8, 40, 5.0, 10, random_state=2).to_csr()
    return DynamicAttributedGraph(csr, {"a": range(0, 30)})


class TestChurnGenerator:
    def test_same_seed_same_batches(self):
        edges = list(_live_graph().csr.edges())
        first = ChurnGenerator(edges, 320, seed=5)
        second = ChurnGenerator(edges, 320, seed=5)
        assert [first.batch(20) for _ in range(5)] == [
            second.batch(20) for _ in range(5)
        ]

    def test_other_seed_other_batches(self):
        edges = list(_live_graph().csr.edges())
        assert ChurnGenerator(edges, 320, seed=5).batch(20) != ChurnGenerator(
            edges, 320, seed=6
        ).batch(20)

    def test_batches_are_valid_against_the_live_graph(self):
        graph = _live_graph()
        generator = ChurnGenerator(graph.csr.edges(), graph.num_nodes, seed=9)
        for _ in range(30):
            live = set(graph.csr.edges())
            records = generator.batch(20)
            removes = [(r["u"], r["v"]) for r in records if r["op"] == "edge_remove"]
            adds = [(r["u"], r["v"]) for r in records if r["op"] == "edge_add"]
            assert len(removes) == len(adds) == 20
            assert all(edge in live for edge in removes)
            assert len(set(removes)) == 20
            assert all(u < v for u, v in adds)  # no self-loops, canonical order
            assert len(set(adds)) == 20
            assert not set(adds) & (live | set(removes))
            applied = graph.apply([Delta.from_record(r) for r in records])
            assert len(applied.removed_edges) == len(applied.added_edges) == 20
            assert set(graph.csr.edges()) == generator.edges


class TestPercentile:
    @pytest.mark.parametrize("q, enough", [(50, 20), (90, 100), (99, 1000)])
    def test_needs_ten_samples_beyond(self, q, enough):
        assert percentile(list(range(enough - 1)), q) is None
        assert percentile(list(range(enough)), q) is not None
        with pytest.raises(RuntimeError):
            required_percentile(list(range(enough - 1)), q, "test")

    def test_nearest_rank(self):
        values = list(range(1, 101))  # reversed: input order must not matter
        values.reverse()
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert MIN_BEYOND == 10


class TestBestOf:
    def test_per_step_minimum_skips_failed_slots(self):
        class Pass:
            def __init__(self, **latency):
                self.latency = latency

        passes = [Pass(rank=[3.0, None, 5.0]), Pass(rank=[4.0, None, 1.0])]
        assert best_of(passes, "rank") == [3.0, 1.0]
        assert best_of(passes, "topk") == []


class TestSelfTime:
    def test_hand_built_tree(self):
        root = Span(1, "root", None, 7, 0.0, 10.0)
        a = Span(2, "a", 1, 7, 1.0, 4.0)
        b = Span(3, "b", 1, 7, 3.0, 6.0)  # overlaps a: covered once
        leaf = Span(4, "leaf", 2, 7, 2.0, 3.0)
        stray = Span(5, "b", None, 8, 20.0, 21.0)
        own = self_times([leaf, a, b, root, stray])
        assert own[1] == pytest.approx(10.0 - 5.0)
        assert own[2] == pytest.approx(3.0 - 1.0)
        assert own[3] == pytest.approx(3.0)
        assert own[4] == pytest.approx(1.0)
        assert own[5] == pytest.approx(1.0)

    def test_nested_spans_of_one_layer_count_once(self):
        outer = Span(1, "x", None, 1, 0.0, 4.0)
        inner = Span(2, "x", 1, 1, 1.0, 2.0)
        other = Span(3, "y", 1, 1, 2.0, 3.0)
        assert layer_seconds([outer, inner, other], ("x",)) == pytest.approx(4.0)
        assert layer_seconds([outer, inner, other], ("y",)) == pytest.approx(1.0)

    def test_covered_length_merges(self):
        assert covered_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
        assert covered_length([]) == 0.0


class TestWrappers:
    def test_uninstall_restores_every_callable(self):
        before = []
        for owner, attribute, _name, _weigh in WRAPS:
            target = resolve_owner(owner)
            own = vars(target)
            before.append((target, attribute, attribute in own, own.get(attribute)))
        tracer = Tracer()
        tracer.install()
        try:
            for target, attribute, _had, original in before:
                assert getattr(target, attribute) is not original
        finally:
            tracer.uninstall()
        for target, attribute, had, original in before:
            assert (attribute in vars(target)) == had
            if had:
                assert vars(target)[attribute] is original

    def test_inherited_method_is_removed_again(self):
        from repro.streaming.snapshots import GraphSnapshot

        assert "indicator_matrix" not in vars(GraphSnapshot)
        tracer = Tracer()
        tracer.wrap(GraphSnapshot, "indicator_matrix", "x")
        assert "indicator_matrix" in vars(GraphSnapshot)
        tracer.uninstall()
        assert "indicator_matrix" not in vars(GraphSnapshot)

    def test_spans_record_parent_and_request(self):
        class Owner:
            @staticmethod
            def outer():
                return Owner.inner() + 1

            @staticmethod
            def inner():
                return 1

        tracer = Tracer()
        tracer.wrap(Owner, "outer", "outer")
        tracer.wrap(Owner, "inner", "inner")
        tracer.request_id = 42
        try:
            assert Owner.outer() == 2
        finally:
            tracer.uninstall()
        inner, outer = tracer.spans
        assert (inner.name, outer.name) == ("inner", "outer")
        assert inner.parent == outer.id and outer.parent is None
        assert inner.request_id == outer.request_id == 42
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert isinstance(vars(Owner)["outer"], staticmethod)
