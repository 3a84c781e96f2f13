"""Tests for repro.graph.traversal (h-hop BFS, Batch BFS)."""

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import NodeNotFoundError
from repro.graph.convert import to_networkx
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi_graph
from repro.graph.traversal import (
    BFSEngine,
    batch_bfs_vicinity,
    bfs_vicinity,
    bfs_vicinity_subgraph,
    nodes_at_distance,
    shortest_path_lengths_from,
)


class TestBfsVicinity:
    def test_zero_hops_is_source_only(self, path_graph):
        csr = path_graph.to_csr()
        assert list(bfs_vicinity(csr, 2, 0)) == [2]

    def test_path_graph_levels(self, path_graph):
        csr = path_graph.to_csr()
        assert sorted(bfs_vicinity(csr, 2, 1)) == [1, 2, 3]
        assert sorted(bfs_vicinity(csr, 2, 2)) == [0, 1, 2, 3, 4]
        assert sorted(bfs_vicinity(csr, 0, 5)) == list(range(6))

    def test_star_graph(self, star_graph):
        csr = star_graph.to_csr()
        assert sorted(bfs_vicinity(csr, 3, 1)) == [0, 3]
        assert sorted(bfs_vicinity(csr, 3, 2)) == list(range(6))

    def test_unknown_source_raises(self, path_graph):
        with pytest.raises(NodeNotFoundError):
            bfs_vicinity(path_graph.to_csr(), 99, 1)

    def test_matches_networkx_ego_graph(self, random_graph):
        csr = random_graph.to_csr()
        nx_graph = to_networkx(random_graph)
        for source in (0, 17, 101):
            for hops in (1, 2, 3):
                expected = set(nx.ego_graph(nx_graph, source, radius=hops).nodes())
                actual = set(int(x) for x in bfs_vicinity(csr, source, hops))
                assert actual == expected


class TestBatchBfs:
    def test_union_of_single_source_vicinities(self, random_graph):
        csr = random_graph.to_csr()
        sources = [0, 5, 10]
        expected = set()
        for source in sources:
            expected |= set(int(x) for x in bfs_vicinity(csr, source, 2))
        actual = set(int(x) for x in batch_bfs_vicinity(csr, sources, 2))
        assert actual == expected

    def test_duplicate_sources_are_harmless(self, path_graph):
        csr = path_graph.to_csr()
        result = batch_bfs_vicinity(csr, [0, 0, 1], 1)
        assert sorted(result) == [0, 1, 2]

    def test_each_node_reported_once(self, random_graph):
        csr = random_graph.to_csr()
        result = batch_bfs_vicinity(csr, range(0, 50), 2)
        assert len(result) == len(set(int(x) for x in result))


class TestBFSEngine:
    def test_counters_increase(self, random_graph):
        engine = BFSEngine(random_graph.to_csr())
        engine.vicinity(0, 2)
        engine.vicinity(1, 2)
        assert engine.bfs_calls == 2
        assert engine.nodes_scanned > 0

    def test_reset_counters(self, random_graph):
        engine = BFSEngine(random_graph.to_csr())
        engine.vicinity(0, 1)
        engine.reset_counters()
        assert engine.bfs_calls == 0

    def test_repeated_calls_are_consistent(self, random_graph):
        engine = BFSEngine(random_graph.to_csr())
        first = sorted(engine.vicinity(3, 2))
        second = sorted(engine.vicinity(3, 2))
        assert first == second

    def test_count_marked(self, path_graph):
        engine = BFSEngine(path_graph.to_csr())
        marked = np.zeros(6, dtype=bool)
        marked[[0, 3]] = True
        count, size = engine.count_marked_in_vicinity(2, 1, marked)
        assert (count, size) == (1, 3)

    def test_vicinity_size(self, star_graph):
        engine = BFSEngine(star_graph.to_csr())
        assert engine.vicinity_size(0, 1) == 6


class TestSubgraphAndDistances:
    def test_vicinity_subgraph_edges_are_induced(self, two_triangles_graph):
        csr = two_triangles_graph.to_csr()
        nodes, edges = bfs_vicinity_subgraph(csr, 0, 1)
        assert sorted(nodes) == [0, 1, 2]
        assert set(edges) == {(0, 1), (0, 2), (1, 2)}

    def test_shortest_path_lengths_match_networkx(self, random_graph):
        csr = random_graph.to_csr()
        nx_graph = to_networkx(random_graph)
        expected = nx.single_source_shortest_path_length(nx_graph, 0)
        actual = shortest_path_lengths_from(csr, 0)
        for node in range(random_graph.num_nodes):
            assert actual[node] == expected.get(node, -1)

    def test_cutoff_limits_depth(self, path_graph):
        distances = shortest_path_lengths_from(path_graph.to_csr(), 0, cutoff=2)
        assert distances[2] == 2
        assert distances[3] == -1

    def test_nodes_at_distance(self, path_graph):
        csr = path_graph.to_csr()
        assert list(nodes_at_distance(csr, 0, 3)) == [3]
        assert list(nodes_at_distance(csr, 0, 0)) == [0]

    def test_disconnected_nodes_are_minus_one(self):
        graph = erdos_renyi_graph(10, 0.0, random_state=1)
        distances = shortest_path_lengths_from(graph.to_csr(), 0)
        assert distances[0] == 0
        assert np.all(distances[1:] == -1)


class TestGroupedBfs:
    """The grouped (per-source, block-vectorised) multi-source BFS must be an
    exact drop-in for running one Python-level BFS per source."""

    @pytest.mark.parametrize("hops", [0, 1, 2, 3])
    def test_blocks_match_per_node_bfs(self, random_graph, hops):
        csr = random_graph.to_csr()
        engine = BFSEngine(csr)
        sources = np.arange(csr.num_nodes, dtype=np.int64)
        seen = 0
        # A small block size forces several blocks so the offset logic is hit.
        for offset, offsets, members in engine.grouped_vicinity_blocks(
            sources, hops, block_size=37
        ):
            block = offsets.size - 1
            for row in range(block):
                source = int(sources[offset + row])
                expected = np.sort(BFSEngine(csr).vicinity(source, hops))
                np.testing.assert_array_equal(
                    members[offsets[row]:offsets[row + 1]], expected
                )
            seen += block
        assert seen == csr.num_nodes

    @pytest.mark.parametrize("hops", [0, 1, 2])
    def test_vicinity_sizes_match_per_node_bfs(self, random_graph, hops):
        csr = random_graph.to_csr()
        engine = BFSEngine(csr)
        rng = np.random.default_rng(11)
        sources = rng.choice(csr.num_nodes, size=60, replace=False)
        grouped = engine.vicinity_sizes(sources, hops)
        looped = np.array(
            [BFSEngine(csr).vicinity(int(s), hops).size for s in sources]
        )
        np.testing.assert_array_equal(grouped, looped)

    def test_grouped_marked_counts_match_per_node_bfs(self, random_graph):
        csr = random_graph.to_csr()
        engine = BFSEngine(csr)
        rng = np.random.default_rng(13)
        sources = rng.choice(csr.num_nodes, size=40, replace=False)
        indicators = rng.random((3, csr.num_nodes)) < 0.2
        counts, sizes = engine.grouped_marked_counts(sources, 2, indicators)
        assert counts.shape == (3, sources.size)
        reference = BFSEngine(csr)
        for column, source in enumerate(sources):
            for row in range(3):
                marked, size = reference.count_marked_in_vicinity(
                    int(source), 2, indicators[row]
                )
                assert counts[row, column] == marked
                assert sizes[column] == size

    def test_duplicate_and_unsorted_sources(self, path_graph):
        engine = BFSEngine(path_graph.to_csr())
        sizes = engine.vicinity_sizes([3, 0, 3], 1)
        assert list(sizes) == [3, 2, 3]

    def test_counters_count_one_bfs_per_source(self, random_graph):
        engine = BFSEngine(random_graph.to_csr())
        engine.vicinity_sizes(np.arange(50), 1, block_size=8)
        assert engine.bfs_calls == 50
        assert engine.nodes_scanned > 0
        assert engine.edges_scanned > 0

    def test_bad_source_raises(self, path_graph):
        engine = BFSEngine(path_graph.to_csr())
        with pytest.raises(NodeNotFoundError):
            engine.vicinity_sizes([0, 99], 1)
        with pytest.raises(NodeNotFoundError):
            engine.grouped_marked_counts(
                [-1], 1, np.zeros((1, 6), dtype=bool)
            )

    def test_bad_indicator_shape_raises(self, path_graph):
        engine = BFSEngine(path_graph.to_csr())
        with pytest.raises(ValueError):
            engine.grouped_marked_counts([0], 1, np.zeros(6, dtype=bool))

    def test_empty_sources(self, path_graph):
        engine = BFSEngine(path_graph.to_csr())
        assert engine.vicinity_sizes([], 2).size == 0
        counts, sizes = engine.grouped_marked_counts(
            [], 1, np.zeros((2, 6), dtype=bool)
        )
        assert counts.shape == (2, 0)
        assert sizes.size == 0


def _complete_bipartite_csr(side: int) -> CSRGraph:
    """``K_{side,side}``: nodes ``0..side-1`` each link to every node of
    ``side..2*side-1``."""
    left = np.arange(side, dtype=np.int64)
    right = left + side
    indices = np.concatenate([np.tile(right, side), np.tile(left, side)])
    indptr = np.arange(2 * side + 1, dtype=np.int64) * side
    return CSRGraph(indptr, indices)


class TestGroupedKernelEdgeCases:
    """Cases the sparse-product grouped kernel must get exactly right, each
    checked against the single-source BFS."""

    @staticmethod
    def _per_node(csr, sources, hops, indicators):
        reference = BFSEngine(csr)
        counts = np.zeros((indicators.shape[0], len(sources)), dtype=np.int64)
        sizes = np.zeros(len(sources), dtype=np.int64)
        for column, source in enumerate(sources):
            nodes = reference.vicinity(int(source), hops)
            sizes[column] = nodes.size
            counts[:, column] = indicators[:, nodes].sum(axis=1)
        return counts, sizes

    @pytest.mark.parametrize("hops", [3, 4])
    def test_path_multiplicities_beyond_int16_do_not_distort(self, hops):
        side = 300
        # Between two nodes on the same side there are at least side**2
        # walks of length 3: far more than 2**16, so an un-binarised reach
        # matrix would carry huge path counts instead of ones.
        assert side ** (hops - 1) > 2 ** 16
        csr = _complete_bipartite_csr(side)
        rng = np.random.default_rng(5)
        sources = rng.choice(csr.num_nodes, size=50, replace=False)
        indicators = rng.random((2, csr.num_nodes)) < 0.1
        counts, sizes = BFSEngine(csr).grouped_marked_counts(
            sources, hops, indicators, block_size=16
        )
        expected_counts, expected_sizes = self._per_node(
            csr, sources, hops, indicators
        )
        np.testing.assert_array_equal(sizes, expected_sizes)
        np.testing.assert_array_equal(counts, expected_counts)

    def test_duplicate_sources_across_a_block_boundary(self, random_graph):
        csr = random_graph.to_csr()
        # block_size=3 puts the copies of 7 and of 40 in different blocks.
        sources = np.array([5, 12, 7, 7, 40, 5, 40], dtype=np.int64)
        indicators = np.random.default_rng(3).random((3, csr.num_nodes)) < 0.3
        engine = BFSEngine(csr)
        counts, sizes = engine.grouped_marked_counts(
            sources, 2, indicators, block_size=3
        )
        expected_counts, expected_sizes = self._per_node(
            csr, sources, 2, indicators
        )
        np.testing.assert_array_equal(sizes, expected_sizes)
        np.testing.assert_array_equal(counts, expected_counts)
        np.testing.assert_array_equal(
            engine.vicinity_sizes(sources, 2, block_size=3), expected_sizes
        )

    @pytest.mark.parametrize("hops", [0, 2])
    def test_isolated_nodes_and_zero_hops(self, hops):
        # Nodes 0-2 form a path, 3-5 are isolated.
        csr = CSRGraph(
            np.array([0, 1, 3, 4, 4, 4, 4], dtype=np.int64),
            np.array([1, 0, 2, 1], dtype=np.int64),
        )
        sources = np.arange(6, dtype=np.int64)
        indicators = np.zeros((2, 6), dtype=bool)
        indicators[0, [0, 4]] = True
        indicators[1, [2, 3, 5]] = True
        counts, sizes = BFSEngine(csr).grouped_marked_counts(
            sources, hops, indicators
        )
        expected_counts, expected_sizes = self._per_node(
            csr, sources, hops, indicators
        )
        np.testing.assert_array_equal(sizes, expected_sizes)
        np.testing.assert_array_equal(counts, expected_counts)
        assert list(sizes[3:]) == [1, 1, 1]
        if hops == 0:
            np.testing.assert_array_equal(counts, indicators.astype(np.int64))

    def test_indicator_rows_without_marks(self, random_graph):
        csr = random_graph.to_csr()
        sources = np.arange(0, csr.num_nodes, 7, dtype=np.int64)
        engine = BFSEngine(csr)
        indicators = np.zeros((3, csr.num_nodes), dtype=bool)
        indicators[1, ::5] = True
        counts, sizes = engine.grouped_marked_counts(sources, 2, indicators)
        assert not counts[0].any() and not counts[2].any()
        expected_counts, expected_sizes = self._per_node(
            csr, sources, 2, indicators
        )
        np.testing.assert_array_equal(counts, expected_counts)
        np.testing.assert_array_equal(sizes, expected_sizes)
        no_markings, same_sizes = engine.grouped_marked_counts(
            sources, 2, np.zeros((0, csr.num_nodes), dtype=bool)
        )
        assert no_markings.shape == (0, sources.size)
        np.testing.assert_array_equal(same_sizes, expected_sizes)

    def test_counters_match_sources_and_sizes(self, random_graph):
        csr = random_graph.to_csr()
        sources = np.random.default_rng(9).choice(csr.num_nodes, size=45)
        engine = BFSEngine(csr)
        _counts, sizes = engine.grouped_marked_counts(
            sources, 2, np.ones((1, csr.num_nodes), dtype=bool), block_size=10
        )
        assert engine.bfs_calls == len(sources)
        assert engine.nodes_scanned == sizes.sum()
        engine.reset_counters()
        sizes = engine.vicinity_sizes(sources, 3, block_size=10)
        assert engine.bfs_calls == len(sources)
        assert engine.nodes_scanned == sizes.sum()
