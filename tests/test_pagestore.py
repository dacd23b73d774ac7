"""Tests for the counted page store and its buffering rules."""

import pytest

from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore, StoreSubscriber


class TestLifecycle:
    def test_allocate_is_free(self, store):
        store.allocate(PageKind.DATA, "a")
        assert store.stats.total == 0

    def test_ids_are_unique(self, store):
        ids = [store.allocate(PageKind.DATA, i) for i in range(10)]
        assert len(set(ids)) == 10

    def test_kind_and_counts(self, store):
        d = store.allocate(PageKind.DATA, "d")
        store.allocate(PageKind.DIRECTORY, "i")
        assert store.kind(d) is PageKind.DATA
        assert store.count_pages(PageKind.DATA) == 1
        assert store.count_pages(PageKind.DIRECTORY) == 1

    def test_free_removes(self, store):
        pid = store.allocate(PageKind.DATA, "x")
        store.free(pid)
        assert store.count_pages(PageKind.DATA) == 0
        with pytest.raises(KeyError):
            store.read(pid)


class TestCounting:
    def test_read_charges_once_per_operation(self, store):
        pid = store.allocate(PageKind.DATA, "x")
        store.begin_operation()
        store.read(pid)
        store.read(pid)
        assert store.stats.data_reads == 1

    def test_reads_classified_by_kind(self, store):
        d = store.allocate(PageKind.DATA, "d")
        i = store.allocate(PageKind.DIRECTORY, "i")
        store.begin_operation()
        store.read(d)
        store.read(i)
        assert store.stats.data_reads == 1
        assert store.stats.dir_reads == 1

    def test_write_charges_once_per_operation(self, store):
        pid = store.allocate(PageKind.DIRECTORY, "x")
        store.begin_operation()
        store.write(pid)
        store.write(pid)
        assert store.stats.dir_writes == 1
        store.begin_operation()
        store.write(pid)
        assert store.stats.dir_writes == 2

    def test_total(self, store):
        pid = store.allocate(PageKind.DATA, "x")
        store.begin_operation()
        store.read(pid)
        store.write(pid)
        assert store.stats.total == 2
        assert store.stats.reads == 1
        assert store.stats.writes == 1


class TestPinning:
    def test_pinned_reads_and_writes_are_free(self, store):
        pid = store.allocate(PageKind.DIRECTORY, "root")
        store.pin(pid)
        store.begin_operation()
        store.read(pid)
        store.write(pid)
        assert store.stats.total == 0
        assert store.pinned_count == 1

    def test_unpin_restores_charging(self, store):
        pid = store.allocate(PageKind.DIRECTORY, "root")
        store.pin(pid)
        store.unpin(pid)
        store.begin_operation()
        store.read(pid)
        assert store.stats.dir_reads == 1


class TestPathBuffer:
    def test_last_path_is_free(self, store):
        pids = [store.allocate(PageKind.DATA, i) for i in range(3)]
        store.begin_operation()
        for pid in pids:
            store.read(pid)
        assert store.stats.data_reads == 3
        store.begin_operation()
        for pid in pids:
            store.read(pid)
        assert store.stats.data_reads == 3  # all buffered

    def test_buffer_is_limited_to_path_tail(self):
        store = PageStore(path_buffer_limit=2)
        pids = [store.allocate(PageKind.DATA, i) for i in range(5)]
        store.begin_operation()
        for pid in pids:
            store.read(pid)
        store.begin_operation()
        for pid in pids:
            store.read(pid)
        # Only the final two pages of the previous operation were kept.
        assert store.stats.data_reads == 5 + 3

    def test_buffer_does_not_persist_two_operations_back(self, store):
        pid = store.allocate(PageKind.DATA, "x")
        store.begin_operation()
        store.read(pid)
        store.begin_operation()  # still buffered here
        store.begin_operation()  # ...but dropped here
        store.read(pid)
        assert store.stats.data_reads == 2

    def test_written_pages_enter_the_buffer(self, store):
        pid = store.allocate(PageKind.DATA, "x")
        store.begin_operation()
        store.write(pid)
        store.begin_operation()
        store.read(pid)
        assert store.stats.data_reads == 0


class TestPathBufferTailDeterminism:
    """Regression-pin the "last ``path_buffer_limit`` accessed pages" rule.

    Pages enter the buffer in first-touch order within one operation;
    re-reads, repeated (deduplicated) writes and writes-after-reads do
    not reorder it.  The tail kept by :meth:`begin_operation` is
    therefore the last *distinct* pages by first touch.
    """

    def test_tail_is_first_touch_order(self):
        store = PageStore(path_buffer_limit=2)
        a, b, c = (store.allocate(PageKind.DATA, i) for i in range(3))
        store.begin_operation()
        for pid in (a, b, c):
            store.read(pid)
        store.begin_operation()
        assert store._buffer_prev == {b, c}

    def test_reread_does_not_promote_to_tail(self):
        """Re-reading an early page must not push it back into the tail."""
        store = PageStore(path_buffer_limit=2)
        a, b, c = (store.allocate(PageKind.DATA, i) for i in range(3))
        store.begin_operation()
        store.read(a)
        store.read(b)
        store.read(c)
        store.read(a)  # free re-read; a was first-touched first
        store.begin_operation()
        assert store._buffer_prev == {b, c}
        # ...and the re-read was indeed free.
        assert store.stats.data_reads == 3

    def test_write_dedup_does_not_promote_to_tail(self):
        """A repeated write is deduplicated and must not reorder the tail."""
        store = PageStore(path_buffer_limit=2)
        a, b, c = (store.allocate(PageKind.DATA, i) for i in range(3))
        store.begin_operation()
        store.write(a)
        store.write(b)
        store.write(c)
        store.write(a)  # deduplicated
        store.begin_operation()
        assert store._buffer_prev == {b, c}
        assert store.stats.data_writes == 3

    def test_write_after_read_does_not_promote_to_tail(self):
        """Writing a page read earlier in the operation keeps its position."""
        store = PageStore(path_buffer_limit=2)
        a, b, c = (store.allocate(PageKind.DATA, i) for i in range(3))
        store.begin_operation()
        store.read(a)
        store.read(b)
        store.read(c)
        store.write(a)  # a keeps its first-touch position
        store.begin_operation()
        assert store._buffer_prev == {b, c}

    def test_mixed_reads_and_writes_interleave_by_first_touch(self):
        store = PageStore(path_buffer_limit=3)
        a, b, c, d = (store.allocate(PageKind.DATA, i) for i in range(4))
        store.begin_operation()
        store.write(a)
        store.read(b)
        store.write(c)
        store.read(b)  # no reorder
        store.read(d)
        store.begin_operation()
        assert store._buffer_prev == {b, c, d}

    def test_freed_page_leaves_current_buffer(self):
        store = PageStore(path_buffer_limit=2)
        a, b = (store.allocate(PageKind.DATA, i) for i in range(2))
        store.begin_operation()
        store.read(a)
        store.read(b)
        store.free(a)
        store.begin_operation()
        assert store._buffer_prev == {b}


class RecordingObserver(StoreSubscriber):
    """Minimal subscriber that logs every page-stream callback."""

    def __init__(self):
        self.operations = 0
        self.events = []

    def on_operation_begin(self, store):
        self.operations += 1

    def on_access(self, store, pid, kind, rw, charged, reason):
        self.events.append((pid, kind, rw, charged, reason))


class TestObserverHook:
    def test_default_is_uninstrumented(self, store):
        assert store.subscribers == ()
        assert store._on_access == () and store._on_operation_begin == ()

    def test_operation_begin_notified(self, store):
        observer = RecordingObserver()
        store.subscribe(observer)
        store.begin_operation()
        store.begin_operation()
        assert observer.operations == 2

    def test_every_touch_reported_with_charge_flag(self, store):
        observer = RecordingObserver()
        store.subscribe(observer)
        pinned = store.allocate(PageKind.DIRECTORY, "root")
        store.pin(pinned)
        pid = store.allocate(PageKind.DATA, "x")
        store.begin_operation()
        store.read(pinned)
        store.read(pid)
        store.read(pid)
        store.write(pid)
        store.write(pid)
        assert [(rw, charged, reason) for _, _, rw, charged, reason in observer.events] == [
            ("read", False, "pinned"),
            ("read", True, "charged"),
            ("read", False, "buffered"),
            ("write", True, "charged"),
            ("write", False, "dedup"),
        ]
        # Charged events agree exactly with the store's counters.
        charged = [e for e in observer.events if e[3]]
        assert len(charged) == store.stats.total

    def test_path_buffer_hit_reported_as_path(self, store):
        observer = RecordingObserver()
        store.subscribe(observer)
        pid = store.allocate(PageKind.DATA, "x")
        store.begin_operation()
        store.read(pid)
        store.begin_operation()
        store.read(pid)
        assert observer.events[-1][4] == "path"

    def test_observer_does_not_change_charging(self):
        plain, observed = PageStore(), PageStore()
        observed.subscribe(RecordingObserver())
        for store in (plain, observed):
            pids = [store.allocate(PageKind.DATA, i) for i in range(5)]
            store.begin_operation()
            for pid in pids:
                store.read(pid)
                store.write(pid)
            store.begin_operation()
            for pid in pids:
                store.read(pid)
        assert plain.stats == observed.stats
