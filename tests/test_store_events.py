"""The store's single event stream and its subscribers.

Tracer, ExplainRecorder and telemetry are plain subscribers of one
ordered stream (:class:`~repro.storage.pagestore.StoreSubscriber`).
These tests pin that every subscriber sees the same stream in the same
order, that subscriptions come and go without disturbing the others,
and that a store nobody listens to keeps its IO unwrapped.
"""

from __future__ import annotations

import pytest

from repro.core.comparison import build_pam
from repro.geometry.rect import Rect
from repro.obs.explain import ExplainRecorder
from repro.obs.telemetry import Telemetry
from repro.obs.tracer import Tracer
from repro.pam.buddytree import BuddyTree
from repro.storage.disk import DiskPageStore
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore, StoreSubscriber

from tests.conftest import make_points

QUERIES = [
    Rect((0.0, 0.0), (0.3, 0.3)),
    Rect((0.2, 0.1), (0.9, 0.6)),
    Rect((0.45, 0.45), (0.55, 0.55)),
    Rect((0.0, 0.0), (1.0, 1.0)),
]


class Probe(StoreSubscriber):
    """Records the page stream, operation brackets included."""

    def __init__(self):
        self.events = []

    def on_operation_begin(self, store):
        self.events.append("op")

    def on_access(self, store, pid, kind, rw, charged, reason):
        self.events.append((pid, kind, rw, charged, reason))

    def accesses(self):
        return [
            (pid, "data" if kind is PageKind.DATA else "dir", rw, charged)
            for pid, kind, rw, charged, _ in (e for e in self.events if e != "op")
        ]


def _touch(store, pids):
    """One operation reading and writing every page of ``pids``."""
    store.begin_operation()
    for pid in pids:
        store.read(pid)
        store.write(pid)


class TestOneStream:
    def test_tracer_explain_and_probe_see_the_identical_stream(self):
        tracer = Tracer(record_events=True)
        pam = build_pam(
            lambda s, dims=2: BuddyTree(s, dims), make_points(400, seed=3),
            tracer=tracer,
        )
        store = pam.store
        probe = Probe()
        store.subscribe(probe)
        recorder = ExplainRecorder("BUDDY")
        tracer.set_context(op="range")
        recorder.start_file(pam, "range")
        assert store.subscribers == (tracer, probe, recorder)
        for index, query in enumerate(QUERIES):
            before = store.stats.total
            result = pam.range_query(query)
            recorder.finish_query(index, query, store.stats.total - before, result)
        explained = [
            (e.pid, e.kind, e.rw, e.charged)
            for record in recorder._records
            for e in record.events
        ]
        recorder.end_file()
        assert store.subscribers == (tracer, probe)

        spans = [s for s in tracer.finish() if s.op == "range"]
        traced = [
            (e.pid, e.kind, e.rw, e.charged) for s in spans for e in s.events
        ]
        assert len(spans) == probe.events.count("op") == len(QUERIES)
        assert probe.accesses() == traced == explained
        assert traced  # the queries did touch pages
        reasons = [e[4] for e in probe.events if e != "op"]
        assert reasons == [e.reason for s in spans for e in s.events]

    def test_unsubscribing_mid_run_leaves_the_others_intact(self):
        store = PageStore()
        first, middle, last = Probe(), Probe(), Probe()
        for probe in (first, middle, last):
            store.subscribe(probe)
        pids = [store.allocate(PageKind.DATA, i) for i in range(4)]
        _touch(store, pids)
        seen_by_middle = list(middle.events)
        store.unsubscribe(middle)
        assert store.subscribers == (first, last)
        _touch(store, pids[::-1])
        _touch(store, pids)
        assert middle.events == seen_by_middle
        assert first.events == last.events
        assert first.events[: len(seen_by_middle)] == seen_by_middle
        assert first.events.count("op") == 3

    def test_duplicate_and_unknown_subscriptions_rejected(self):
        store = PageStore()
        probe = Probe()
        store.subscribe(probe)
        with pytest.raises(ValueError):
            store.subscribe(probe)
        store.unsubscribe(probe)
        with pytest.raises(ValueError):
            store.unsubscribe(probe)
        assert store.subscribers == ()

    def test_events_reach_only_the_subscribers_that_override_them(self):
        class IoOnly(StoreSubscriber):
            def on_io(self, store, op, seconds, nbytes):
                pass

        store = PageStore()
        probe, io_only = Probe(), IoOnly()
        store.subscribe(io_only)
        store.subscribe(probe)
        assert store._on_access == (probe.on_access,)
        assert store._on_operation_begin == (probe.on_operation_begin,)
        assert store._on_io == (io_only.on_io,)
        assert store._on_timed == ()


class TestDiskStoreIo:
    def test_io_is_wrapped_only_while_someone_listens(self, tmp_path):
        store = DiskPageStore(tmp_path / "s", pool_pages=8, fsync=False)
        base_io = store.io
        pagefile_fh, wal_fh = store._pagefile._fh, store._wal._fh
        tracer = Tracer()
        tracer.attach(store)  # listens to page events only
        assert store.io is base_io and store._pagefile._fh is pagefile_fh
        telem = Telemetry()
        store.subscribe(telem)
        assert store.io is not base_io
        assert store._pagefile._fh is not pagefile_fh
        store.allocate(PageKind.DATA, {"x": 1})
        store.commit()
        assert telem.io_counts()["pwrite"][0] >= 2  # WAL record + commit
        store.unsubscribe(telem)
        assert store.io is base_io
        assert store._pagefile._fh is pagefile_fh and store._wal._fh is wal_fh
        before = telem.io_counts()
        store.begin_operation()
        store.allocate(PageKind.DATA, {"x": 2})
        store.commit()
        assert telem.io_counts() == before
        store.close()

    def test_query_timings_reach_the_stores_subscribers(self):
        from repro.query.driver import run_query_file

        class Timings(StoreSubscriber):
            def __init__(self):
                self.events = []

            def on_timed(self, store, op, seconds, pages=None, io=None, detail=None):
                self.events.append((op, detail))

        pam = build_pam(lambda s, dims=2: BuddyTree(s, dims), make_points(200, seed=5))
        timings = Timings()
        pam.store.subscribe(timings)
        out = run_query_file(pam, "range", QUERIES, pam.range_query)
        assert [op for op, _ in timings.events] == ["query"] * len(QUERIES)
        assert [d["index"] for _, d in timings.events] == list(range(len(QUERIES)))
        assert [d["cost"] for _, d in timings.events] == [cost for cost, _ in out]
