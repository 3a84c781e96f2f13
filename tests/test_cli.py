"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.graph.generators import community_ring_graph
from repro.graph.io import write_edge_list, write_event_file


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()


class TestTestCommand:
    @pytest.fixture
    def files(self, tmp_path):
        graph = community_ring_graph(6, 30, 5.0, 8, random_state=2)
        edges_path = tmp_path / "graph.txt"
        events_path = tmp_path / "events.txt"
        write_edge_list(graph, str(edges_path))
        write_event_file(
            {"a": list(range(0, 30)), "b": list(range(30, 60))}, str(events_path)
        )
        return str(edges_path), str(events_path)

    def test_end_to_end(self, files, capsys):
        edges_path, events_path = files
        exit_code = main(
            [
                "test",
                "--edges", edges_path,
                "--events", events_path,
                "--event-a", "a",
                "--event-b", "b",
                "--level", "1",
                "--sample-size", "80",
                "--seed", "3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "z-score" in output
        assert "verdict" in output


class TestRankCommand:
    @pytest.fixture
    def files(self, tmp_path):
        graph = community_ring_graph(6, 30, 5.0, 8, random_state=2)
        edges_path = tmp_path / "graph.txt"
        events_path = tmp_path / "events.txt"
        write_edge_list(graph, str(edges_path))
        write_event_file(
            {
                "a": list(range(0, 30)),
                "b": list(range(10, 40)),
                "c": list(range(90, 120)),
            },
            str(events_path),
        )
        return str(edges_path), str(events_path)

    def test_all_pairs_ranked(self, files, capsys):
        edges_path, events_path = files
        exit_code = main(
            [
                "rank",
                "--edges", edges_path,
                "--events", events_path,
                "--level", "1",
                "--sample-size", "80",
                "--seed", "3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "rank" in output and "verdict" in output
        assert "sampling passes" in output
        # 3 events -> 3 unordered pairs in the table.
        assert output.count("positive") + output.count("negative") + output.count(
            "independent"
        ) >= 3

    def test_kendall_kernel_flag_is_result_invariant(self, files, capsys):
        """--kendall-kernel naive|fast|auto print the identical ranking table
        (the kernels compute the same exact integer S)."""
        edges_path, events_path = files
        outputs = {}
        for kernel in ("naive", "fast", "auto"):
            exit_code = main(
                [
                    "rank",
                    "--edges", edges_path,
                    "--events", events_path,
                    "--sample-size", "80",
                    "--seed", "3",
                    "--kendall-kernel", kernel,
                ]
            )
            assert exit_code == 0
            outputs[kernel] = capsys.readouterr().out
        assert outputs["naive"] == outputs["fast"] == outputs["auto"]

    def test_rejects_unknown_kernel(self, files, capsys):
        edges_path, events_path = files
        with pytest.raises(SystemExit):
            main(
                [
                    "rank",
                    "--edges", edges_path,
                    "--events", events_path,
                    "--kendall-kernel", "blas",
                ]
            )

    def test_explicit_pairs_and_top_k(self, files, capsys):
        edges_path, events_path = files
        exit_code = main(
            [
                "rank",
                "--edges", edges_path,
                "--events", events_path,
                "--pair", "a", "b",
                "--pair", "a", "c",
                "--top-k", "1",
                "--sort-by", "abs_z",
                "--sample-size", "80",
                "--seed", "3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "pairs tested" in output


class TestTopkCommand:
    @pytest.fixture
    def files(self, tmp_path):
        graph = community_ring_graph(6, 30, 5.0, 8, random_state=2)
        edges_path = tmp_path / "graph.txt"
        events_path = tmp_path / "events.txt"
        write_edge_list(graph, str(edges_path))
        write_event_file(
            {
                "a": list(range(0, 30)),
                "b": list(range(10, 40)),
                "c": list(range(90, 120)),
                "d": list(range(100, 130)),
            },
            str(events_path),
        )
        return str(edges_path), str(events_path)

    def test_topk_end_to_end(self, files, capsys):
        edges_path, events_path = files
        exit_code = main(
            [
                "topk",
                "--edges", edges_path,
                "--events", events_path,
                "--k", "2",
                "--sample-size", "150",
                "--initial-sample", "32",
                "--seed", "3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "progressive top-k engine" in output
        assert "k-th lower bound" in output
        assert "pairs pruned" in output
        # Exactly k result rows (rank column 1..2).
        assert "1    |" in output and "2    |" in output

    def test_rounds_flag_derives_schedule(self, files, capsys):
        edges_path, events_path = files
        exit_code = main(
            [
                "topk",
                "--edges", edges_path,
                "--events", events_path,
                "--k", "1",
                "--sample-size", "150",
                "--initial-sample", "16",
                "--rounds", "3",
                "--bound", "certified",
                "--seed", "3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        # 3 rounds requested: two screening rounds plus the full budget.
        assert output.count("\n1     |") + output.count("\n2     |") >= 1

    def test_rounds_and_growth_conflict(self, files, capsys):
        edges_path, events_path = files
        with pytest.raises(SystemExit):
            main(
                [
                    "topk",
                    "--edges", edges_path,
                    "--events", events_path,
                    "--k", "1",
                    "--rounds", "3",
                    "--growth", "2.0",
                ]
            )
        assert "not allowed with" in capsys.readouterr().err

    def test_rank_top_k_routes_through_progressive_engine(self, files, capsys):
        """rank --top-k --sort-by score must print the progressive engine's
        summary and the identical top-k table the batch engine would."""
        edges_path, events_path = files
        common = [
            "--edges", edges_path,
            "--events", events_path,
            "--top-k", "2",
            "--sample-size", "150",
            "--seed", "3",
        ]
        assert main(["rank"] + common) == 0
        progressive = capsys.readouterr().out
        assert "progressive top-k engine" in progressive
        assert main(["rank"] + common + ["--no-progressive"]) == 0
        batch = capsys.readouterr().out
        assert "batch engine" in batch
        # The ranked tables (first block up to the blank line) are identical.
        assert progressive.split("\n\n")[0] == batch.split("\n\n")[0]

    def test_rank_top_k_non_score_sort_stays_on_batch_engine(self, files, capsys):
        edges_path, events_path = files
        exit_code = main(
            [
                "rank",
                "--edges", edges_path,
                "--events", events_path,
                "--top-k", "2",
                "--sort-by", "abs_z",
                "--sample-size", "150",
                "--seed", "3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "batch engine" in output
        assert "progressive" not in output


class TestDatasetCommand:
    def test_dblp_summary(self, capsys):
        exit_code = main(["dataset", "dblp", "--scale", "0.2", "--seed", "1"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "nodes" in output
        assert "event" in output

    def test_twitter_summary(self, capsys):
        exit_code = main(["dataset", "twitter", "--scale", "0.05", "--seed", "1"])
        assert exit_code == 0
        assert "nodes" in capsys.readouterr().out


class TestSimulateCommand:
    def test_positive_simulation(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--correlation", "positive",
                "--level", "1",
                "--num-pairs", "2",
                "--event-size", "80",
                "--sample-size", "80",
                "--seed", "4",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "recall" in output


class TestExperimentCommand:
    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "figure99"])


class TestStreamCommand:
    @pytest.fixture
    def files(self, tmp_path):
        from repro.streaming import DeltaLog

        graph = community_ring_graph(6, 30, 5.0, 8, random_state=2)
        edges_path = tmp_path / "graph.txt"
        events_path = tmp_path / "events.txt"
        deltas_path = tmp_path / "deltas.jsonl"
        write_edge_list(graph, str(edges_path))
        write_event_file(
            {
                "a": list(range(0, 30)),
                "b": list(range(10, 40)),
                "c": list(range(90, 120)),
            },
            str(events_path),
        )
        log = DeltaLog()
        log.add_edge(0, 100)
        log.remove_edge(0, 1)
        log.seal()
        log.attach_event("a", 95)
        log.detach_event("b", 12)
        log.seal()
        log.save(str(deltas_path))
        return str(edges_path), str(events_path), str(deltas_path)

    def test_replay_prints_ranking_deltas(self, files, capsys):
        edges_path, events_path, deltas_path = files
        exit_code = main(
            [
                "stream",
                "--edges", edges_path,
                "--events", events_path,
                "--deltas", deltas_path,
                "--level", "1",
                "--sample-size", "80",
                "--seed", "3",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "initial ranking" in output
        assert "commit 1" in output
        assert "commit 2" in output
        assert "final ranking" in output
        assert "re-scored" in output

    def test_stream_matches_static_rank_after_replay(self, files, capsys):
        """The final streamed ranking equals a static rank of the final graph."""
        from repro.core.batch import BatchTescEngine
        from repro.core.config import TescConfig
        from repro.graph.io import read_edge_list, read_event_file
        from repro.streaming import DeltaLog, DynamicAttributedGraph

        edges_path, events_path, deltas_path = files
        exit_code = main(
            [
                "stream",
                "--edges", edges_path,
                "--events", events_path,
                "--deltas", deltas_path,
                "--sample-size", "80",
                "--seed", "3",
            ]
        )
        assert exit_code == 0
        streamed = capsys.readouterr().out

        graph, labels = read_edge_list(edges_path)
        label_to_id = {label: index for index, label in enumerate(labels)}
        events = read_event_file(events_path, label_to_id=label_to_id)
        dynamic = DynamicAttributedGraph(graph, events, labels=labels)
        for batch in DeltaLog.load(deltas_path).replay():
            dynamic.apply(batch)
        config = TescConfig(sample_size=80, random_state=3)
        static = BatchTescEngine(dynamic.snapshot(), config).rank_pairs("all")
        final_block = streamed.split("final ranking:")[1]
        for pair in static:
            assert f"{pair.score:+.4f}" in final_block


class TestSharedEngineFlags:
    """rank/topk/stream/serve/experiment accept the same engine flags."""

    SHARED = ["--workers", "2", "--kendall-kernel", "fast",
              "--top-k", "3", "--seed", "9"]

    def _parse(self, argv):
        return build_parser().parse_args(argv)

    def test_every_engine_subcommand_accepts_shared_flags(self):
        parser_cases = {
            "rank": ["rank", "--edges", "e", "--events", "v"],
            "topk": ["topk", "--edges", "e", "--events", "v"],
            "stream": ["stream", "--edges", "e", "--events", "v",
                       "--deltas", "d"],
            "serve": ["serve", "--edges", "e", "--events", "v"],
            "experiment": ["experiment", "figure5"],
        }
        for command, argv in parser_cases.items():
            args = self._parse(argv + self.SHARED)
            assert args.command == command
            assert args.workers == 2
            assert args.kendall_kernel == "fast"
            assert args.top_k == 3
            assert args.seed == 9

    def test_shared_flag_defaults(self):
        args = self._parse(["serve", "--edges", "e", "--events", "v"])
        assert args.workers is None
        assert args.kendall_kernel == "auto"
        assert args.top_k is None
        assert args.seed is None

    def test_stream_concurrent_queries_flag(self):
        args = self._parse(
            ["stream", "--edges", "e", "--events", "v", "--deltas", "d",
             "--concurrent-queries", "4"]
        )
        assert args.concurrent_queries == 4

    def test_topk_without_k_or_top_k_errors(self, tmp_path, capsys):
        graph = community_ring_graph(6, 30, 5.0, 8, random_state=2)
        edges_path = tmp_path / "graph.txt"
        events_path = tmp_path / "events.txt"
        write_edge_list(graph, str(edges_path))
        write_event_file({"a": list(range(0, 30))}, str(events_path))
        exit_code = main(
            ["topk", "--edges", str(edges_path), "--events", str(events_path)]
        )
        assert exit_code == 2
        assert "--k / --top-k" in capsys.readouterr().err


class TestTopkAlias:
    @pytest.fixture
    def files(self, tmp_path):
        graph = community_ring_graph(6, 30, 5.0, 8, random_state=2)
        edges_path = tmp_path / "graph.txt"
        events_path = tmp_path / "events.txt"
        write_edge_list(graph, str(edges_path))
        write_event_file(
            {
                "a": list(range(0, 30)),
                "b": list(range(10, 40)),
                "c": list(range(90, 120)),
            },
            str(events_path),
        )
        return str(edges_path), str(events_path)

    def test_top_k_is_an_alias_for_k(self, files, capsys):
        edges_path, events_path = files
        base = ["topk", "--edges", edges_path, "--events", events_path,
                "--sample-size", "80", "--seed", "3"]
        assert main(base + ["--k", "2"]) == 0
        via_k = capsys.readouterr().out
        assert main(base + ["--top-k", "2"]) == 0
        via_alias = capsys.readouterr().out
        assert via_k == via_alias


class TestStreamConcurrentQueries:
    @pytest.fixture
    def files(self, tmp_path):
        from repro.streaming import DeltaLog

        graph = community_ring_graph(6, 30, 5.0, 8, random_state=2)
        edges_path = tmp_path / "graph.txt"
        events_path = tmp_path / "events.txt"
        deltas_path = tmp_path / "deltas.jsonl"
        write_edge_list(graph, str(edges_path))
        write_event_file(
            {"a": list(range(0, 30)), "b": list(range(10, 40))},
            str(events_path),
        )
        log = DeltaLog()
        log.attach_event("a", 95)
        log.seal()
        log.attach_event("b", 100)
        log.seal()
        log.save(str(deltas_path))
        return str(edges_path), str(events_path), str(deltas_path)

    def test_concurrent_queries_report_epoch_spread(self, files, capsys):
        edges_path, events_path, deltas_path = files
        exit_code = main(
            [
                "stream",
                "--edges", edges_path,
                "--events", events_path,
                "--deltas", deltas_path,
                "--sample-size", "80",
                "--seed", "3",
                "--concurrent-queries", "2",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "final ranking" in output
        assert "snapshot-isolated ranks from 2 thread(s)" in output
        assert "while 2 commit(s) replayed" in output
