"""HTAP property tests: concurrent commits and snapshot-isolated reads.

The contracts under test, from the snapshot-isolation design:

* every read is answered entirely at one epoch, and a seeded threaded
  interleaving of commits and rank/topk reads is **bit-identical**, per
  epoch, to a from-scratch serial reference over the replayed prefix;
* readers never block for a full commit and commits never wait for
  readers (pin-at-admission MVCC instead of a read/write lock);
* responses advertise their epoch, and pinned reads survive concurrent
  commits unchanged.
"""

import threading

from repro.core.batch import BatchTescEngine
from repro.service.engine import ServiceEngine, pair_record
from repro.streaming import Delta, DynamicAttributedGraph


def _fresh_dynamic(service_dataset):
    dataset, _config = service_dataset
    attributed = dataset.attributed
    return DynamicAttributedGraph(
        attributed.csr,
        {name: attributed.event_nodes(name) for name in attributed.event_names()},
    )


def _monitored_pairs(graph):
    names = sorted(graph.event_names())[:3]
    return [(names[0], names[1]), (names[0], names[2]), (names[1], names[2])]


def _commit_schedule(graph, count):
    """``count`` delta batches, each guaranteed to be effective (epoch+1)."""
    event = sorted(graph.event_names())[0]
    attached = set(int(n) for n in graph.event_nodes(event))
    fresh = [n for n in range(graph.num_nodes) if n not in attached]
    assert len(fresh) >= count
    return [[Delta.event_attach(event, fresh[i])] for i in range(count)]


def _reference_records(service_dataset, schedule, epoch, pairs, config):
    """Serial from-scratch ranking after replaying ``epoch`` commits."""
    replayed = _fresh_dynamic(service_dataset)
    for batch in schedule[:epoch]:
        applied = replayed.apply(batch)
        assert applied.changed
    ranking = BatchTescEngine(replayed.snapshot(), config).rank_pairs(pairs)
    return [pair_record(pair) for pair in ranking.pairs]


class TestThreadedInterleavings:
    def test_reads_bit_identical_to_reference_at_pinned_epoch(
        self, service_dataset
    ):
        _dataset, config = service_dataset
        dynamic = _fresh_dynamic(service_dataset)
        pairs = _monitored_pairs(dynamic)
        schedule = _commit_schedule(dynamic, 4)
        engine = ServiceEngine(dynamic, config)
        responses = []
        responses_lock = threading.Lock()
        done = threading.Event()
        errors = []

        def reader(use_topk):
            try:
                while not done.is_set():
                    if use_topk:
                        response = engine.topk(2, pairs)
                    else:
                        response = engine.rank(pairs)
                    with responses_lock:
                        responses.append((use_topk, response))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(False,)),
            threading.Thread(target=reader, args=(True,)),
        ]
        for thread in threads:
            thread.start()
        receipts = []
        try:
            for batch in schedule:
                receipts.append(engine.commit(
                    [delta.to_record() for delta in batch]
                ))
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=120.0)
        assert not errors
        assert [receipt["epoch"] for receipt in receipts] == [1, 2, 3, 4]

        # Every response must be bit-identical to the serial reference at
        # the epoch it reports.
        by_epoch = {}
        for use_topk, response in responses:
            epoch = response["epoch"]
            if epoch not in by_epoch:
                by_epoch[epoch] = _reference_records(
                    service_dataset, schedule, epoch, pairs, config
                )
            reference = by_epoch[epoch]
            if use_topk:
                expected = sorted(
                    reference, key=lambda r: (-r["score"], r["event_a"], r["event_b"])
                )[:2]
                got = [
                    {key: value for key, value in record.items() if key != "rank"}
                    for record in response["pairs"]
                ]
                want = [
                    {key: value for key, value in record.items() if key != "rank"}
                    for record in expected
                ]
                assert got == want
            else:
                assert response["pairs"] == reference
        assert responses  # the readers actually raced the commits
        engine.close()

    def test_pinned_read_unchanged_by_commits(self, service_dataset):
        _dataset, config = service_dataset
        dynamic = _fresh_dynamic(service_dataset)
        pairs = _monitored_pairs(dynamic)
        schedule = _commit_schedule(dynamic, 2)
        engine = ServiceEngine(dynamic, config)
        before = engine.rank(pairs)
        lease = dynamic.pin(before["epoch"])
        try:
            for batch in schedule:
                engine.commit([delta.to_record() for delta in batch])
            replay = engine.rank(pairs, at_epoch=before["epoch"])
        finally:
            lease.release()
        assert replay["epoch"] == before["epoch"]
        assert replay["pairs"] == before["pairs"]
        after = engine.rank(pairs)
        assert after["epoch"] == before["epoch"] + len(schedule)
        assert after["pairs"] != before["pairs"]
        engine.close()


class TestNonBlocking:
    def test_reader_completes_while_commit_lock_held(self, service_dataset):
        """A reader admitted mid-commit must not wait for the commit."""
        _dataset, config = service_dataset
        dynamic = _fresh_dynamic(service_dataset)
        pairs = _monitored_pairs(dynamic)
        engine = ServiceEngine(dynamic, config)
        engine.rank(pairs)  # warm the epoch-0 caches
        result = {}

        with engine._commit_lock:  # a commit is "in flight" indefinitely
            thread = threading.Thread(
                target=lambda: result.update(engine.rank(pairs))
            )
            thread.start()
            thread.join(timeout=60.0)
            assert not thread.is_alive(), "reader blocked behind a commit"
        assert result["epoch"] == 0
        engine.close()

    def test_commit_completes_while_readers_hold_leases(self, service_dataset):
        """Writers never wait for reader leases to drain."""
        _dataset, config = service_dataset
        dynamic = _fresh_dynamic(service_dataset)
        engine = ServiceEngine(dynamic, config)
        leases = [dynamic.pin() for _ in range(3)]  # long-running readers
        event = sorted(dynamic.event_names())[0]
        fresh = next(
            n for n in range(dynamic.num_nodes)
            if n not in set(int(x) for x in dynamic.event_nodes(event))
        )
        receipt = engine.commit(
            [{"op": "event_attach", "event": event, "node": fresh}]
        )
        assert receipt["epoch"] == 1
        assert receipt["changed"]
        for lease in leases:
            assert lease.graph.epoch == 0  # still reading the old world
            lease.release()
        engine.close()


class TestEpochSemantics:
    def test_every_response_carries_epoch(self, service_dataset):
        _dataset, config = service_dataset
        dynamic = _fresh_dynamic(service_dataset)
        pairs = _monitored_pairs(dynamic)
        engine = ServiceEngine(dynamic, config)
        assert engine.rank(pairs)["epoch"] == 0
        assert engine.topk(2, pairs)["epoch"] == 0
        receipt = engine.commit([])
        assert receipt["epoch"] == 0  # empty commit: no new epoch
        assert not receipt["changed"]
        describe = engine.describe()
        assert describe["mvcc"] is True
        assert describe["epoch"] == 0
        engine.close()

    def test_describe_reports_retention(self, service_dataset):
        _dataset, config = service_dataset
        dynamic = _fresh_dynamic(service_dataset)
        engine = ServiceEngine(dynamic, config)
        lease = dynamic.pin()
        event = sorted(dynamic.event_names())[0]
        fresh = next(
            n for n in range(dynamic.num_nodes)
            if n not in set(int(x) for x in dynamic.event_nodes(event))
        )
        engine.commit([{"op": "event_attach", "event": event, "node": fresh}])
        describe = engine.describe()
        assert describe["epoch"] == 1
        assert 0 in describe["retained_epochs"]
        assert describe["retained_bytes"] > 0
        lease.release()
        assert 0 not in engine.describe()["retained_epochs"]
        engine.close()
