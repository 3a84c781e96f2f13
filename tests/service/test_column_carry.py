"""Epoch-to-epoch density-column carry-over in the service engine.

A density-matrix miss after a commit copies the clean columns of an older
cached matrix over the same events and recomputes only the dirtied ones.
Each case below pins one rule of that carry: when it must fire, and every
situation in which it must fall back to a full recompute.  Whatever path
runs, the answer must equal ``reference_ranking`` at its epoch bit for bit.
"""

import sys
import threading
import time

import numpy as np

from repro.api import Session
from repro.service import CorrelationClient, CorrelationServer
from repro.service.engine import pair_record
from repro.streaming import Delta, DirtyTracker, DynamicAttributedGraph

from tests.streaming.test_ranker import columns

LEVEL_OVERRIDE = {"vicinity_level": 2}


def _pairs(graph):
    names = graph.event_names()
    return [(names[0], names[1]), (names[2], names[3]), (names[0], names[4])]


def _fresh(service_dataset):
    attributed = service_dataset[0].attributed
    return DynamicAttributedGraph(
        attributed.csr,
        {name: attributed.event_nodes(name) for name in attributed.event_names()},
    )


def _assert_reference(session, response, pairs, **overrides):
    expected = session.reference_ranking(
        pairs, at_epoch=response["epoch"], **overrides
    )
    assert response["pairs"] == [pair_record(pair) for pair in expected]


def _rewires(graph, seed, count=3):
    """``count`` edge removals plus ``count`` fresh edge additions."""
    rng = np.random.default_rng(seed)
    edges = list(graph.csr.edges())
    deltas = []
    for index in rng.choice(len(edges), size=count, replace=False):
        deltas.append(Delta.edge_remove(*edges[int(index)]))
    while len(deltas) < 2 * count:
        u, v = (int(x) for x in rng.integers(0, graph.num_nodes, size=2))
        if u != v and not graph.csr.has_edge(u, v):
            deltas.append(Delta.edge_add(u, v))
    return deltas


def test_one_rewire_recomputes_only_dirty_columns(dynamic_graph, service_dataset):
    _dataset, config = service_dataset
    pairs = _pairs(dynamic_graph)
    with Session(dynamic_graph, config) as session:
        session.rank(pairs)
        _carried, sample_columns = columns(session)
        session.commit(_rewires(dynamic_graph, seed=1, count=1))
        response = session.rank(pairs)
        carried, computed = columns(session)
        _assert_reference(session, response, pairs)
    assert carried > 0
    assert computed - sample_columns < sample_columns


def test_noop_commit_between_effective_commits(dynamic_graph, service_dataset):
    """A no-op batch reports the unchanged epoch; it must not overwrite
    that epoch's journaled region, or carried columns would go stale."""
    _dataset, config = service_dataset
    pairs = _pairs(dynamic_graph)
    with Session(dynamic_graph, config) as session:
        session.rank(pairs)
        first = session.commit(_rewires(dynamic_graph, seed=2, count=6))
        u, v = next(iter(dynamic_graph.csr.edges()))
        noop = session.commit([Delta.edge_add(u, v)])
        assert noop["epoch"] == first["epoch"] and not noop["changed"]
        session.commit(_rewires(dynamic_graph, seed=3, count=6))
        response = session.rank(pairs)
        _assert_reference(session, response, pairs)
        assert columns(session)[0] > 0


def test_out_of_band_apply_recomputes(dynamic_graph, service_dataset):
    _dataset, config = service_dataset
    pairs = _pairs(dynamic_graph)
    with Session(dynamic_graph, config) as session:
        session.rank(pairs)
        dynamic_graph.apply(_rewires(dynamic_graph, seed=4))
        response = session.rank(pairs)
        _assert_reference(session, response, pairs)
        assert columns(session)[0] == 0


def test_span_longer_than_journal_recomputes(dynamic_graph, service_dataset):
    _dataset, config = service_dataset
    pairs = _pairs(dynamic_graph)
    with Session(dynamic_graph, config) as session:
        session.rank(pairs)
        for seed in range(17):
            session.commit(_rewires(dynamic_graph, seed=100 + seed, count=1))
        response = session.rank(pairs)
        _assert_reference(session, response, pairs)
        assert columns(session)[0] == 0


def test_vicinity_level_override_recomputes(dynamic_graph, service_dataset):
    """The journal is kept at the default level only."""
    _dataset, config = service_dataset
    pairs = _pairs(dynamic_graph)
    with Session(dynamic_graph, config) as session:
        session.rank(pairs, **LEVEL_OVERRIDE)
        session.commit(_rewires(dynamic_graph, seed=5))
        response = session.rank(pairs, **LEVEL_OVERRIDE)
        _assert_reference(session, response, pairs, **LEVEL_OVERRIDE)
        assert columns(session)[0] == 0


def test_old_epoch_read_never_carries_from_newer(dynamic_graph, service_dataset):
    _dataset, config = service_dataset
    pairs = _pairs(dynamic_graph)
    with Session(dynamic_graph, config) as session:
        with session.at_epoch() as view:
            session.commit(_rewires(dynamic_graph, seed=6))
            session.rank(pairs)
            response = view.rank(pairs)
            assert response["epoch"] == view.epoch < session.epoch
            _assert_reference(session, response, pairs)
        assert columns(session)[0] == 0


def test_monitored_event_toggles_patch_clean_columns(
    dynamic_graph, service_dataset
):
    _dataset, config = service_dataset
    pairs = _pairs(dynamic_graph)
    event_a, event_b = pairs[0]
    with Session(dynamic_graph, config) as session:
        session.rank(pairs)
        _carried, computed = columns(session)
        target = int(dynamic_graph.event_nodes(event_b)[0])
        session.commit([
            Delta.event_attach(event_a, target),
            Delta.event_detach(event_b, target),
        ])
        response = session.rank(pairs)
        _assert_reference(session, response, pairs)
        assert columns(session)[1] == computed


def test_carried_answers_over_the_socket(dynamic_graph, service_dataset):
    _dataset, config = service_dataset
    pairs = _pairs(dynamic_graph)
    with CorrelationServer(dynamic_graph, config, workers=1) as server:
        engine = server.engine
        with CorrelationClient(*server.address) as client:
            client.rank(pairs)
            for seed in range(3):
                client.stream(
                    [delta.to_record() for delta in _rewires(dynamic_graph, seed)]
                )
                response = client.rank(pairs)
                expected = engine.reference_ranking(
                    pairs, at_epoch=response["epoch"]
                )
                assert response["pairs"] == [pair_record(p) for p in expected]
        assert engine.metrics.value(
            "tesc_density_columns_total", source="carried"
        ) > 0


def test_readers_racing_commits_stay_bit_identical(service_dataset):
    """Readers outnumbering the cores carry columns while commits journal
    regions under a tiny switch interval; every answer must match a serial
    replay at the epoch it reports."""
    _dataset, config = service_dataset
    probe = _fresh(service_dataset)
    pairs = _pairs(probe)
    schedule = []
    for seed in range(8):
        batch = _rewires(probe, seed=200 + seed) + [
            Delta.event_attach(pairs[0][0], 7 * seed + 1)
        ]
        assert probe.apply(batch).changed
        schedule.append(batch)

    responses, errors = [], []
    done = threading.Event()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    with Session(_fresh(service_dataset), config) as session:
        def reader():
            try:
                while not done.is_set():
                    responses.append(session.rank(pairs))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def await_answer(epoch):
            # Let the readers answer at every epoch, so each one builds
            # (and carries into) its own matrix.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and not any(
                response["epoch"] == epoch for response in responses
            ):
                time.sleep(0.001)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            await_answer(0)
            for batch in schedule:
                await_answer(session.commit(batch)["epoch"])
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=120.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert columns(session)[0] > 0

    expected = {}
    for response in responses:
        epoch = response["epoch"]
        if epoch not in expected:
            replayed = _fresh(service_dataset)
            for batch in schedule[:epoch]:
                replayed.apply(batch)
            with Session(replayed, config) as oracle:
                expected[epoch] = oracle.rank(pairs)["pairs"]
        assert response["pairs"] == expected[epoch]
    assert sorted(expected) == list(range(len(schedule) + 1))


def test_new_epoch_is_unpinnable_until_journaled(
    dynamic_graph, service_dataset, monkeypatch
):
    """A reader admitted while a commit is still journaling must wait for
    the region instead of finding none and recounting every column."""
    _dataset, config = service_dataset
    pairs = _pairs(dynamic_graph)
    journaling = threading.Event()
    region = DirtyTracker.region

    def slow_region(self, applied, epoch=None):
        journaling.set()
        time.sleep(0.2)
        return region(self, applied, epoch=epoch)

    monkeypatch.setattr(DirtyTracker, "region", slow_region)
    responses = []
    with Session(dynamic_graph, config) as session:
        session.rank(pairs)

        def read_once():
            if journaling.wait(30.0):
                responses.append(session.rank(pairs))

        reader = threading.Thread(target=read_once)
        reader.start()
        try:
            receipt = session.commit(_rewires(dynamic_graph, seed=7))
        finally:
            journaling.set()
            reader.join(timeout=60.0)
        assert not reader.is_alive()
        assert [response["epoch"] for response in responses] == [receipt["epoch"]]
        assert columns(session)[0] > 0
