"""The counted page store.

A :class:`PageStore` hands out page identifiers, keeps each page's
in-memory node object, and counts every read and write, classified by
:class:`~repro.storage.page.PageKind`.  Two buffering rules from §3 of
the paper are built in:

* **Pinned pages** — the root of a tree directory (or, for the 2-level
  grid file, the whole first-level directory) resides in main memory;
  reads and writes of pinned pages are free.  The number of pinned
  pages is reported so that the paper's remark about GRID's in-core
  directory ("up to 45 directory pages for 100 000 records") can be
  reproduced.
* **Search-path buffer** — the most recently accessed search path stays
  buffered; re-reading one of its pages costs nothing.  The buffer is
  re-populated by each operation, so it "dynamically grows and shrinks
  according to the height of the tree".

Access methods bracket every externally visible operation (insert,
delete, query) with :meth:`PageStore.begin_operation`; everything read
or written in between forms the new buffered path.

**Event stream** — the store publishes page touches, operation
brackets, timed operations and (durable store) physical IO calls, in
order, to its subscribers (:meth:`PageStore.subscribe`): instances of
:class:`StoreSubscriber` that override only the events they need.  The
tracer, the explain recorder and the telemetry layer are all plain
subscribers.  Observation is purely passive — it never changes which
accesses are charged — and an event reaches only the subscribers that
override it, so an unobserved touch costs one truthiness test.
"""

from __future__ import annotations

from typing import Any

from repro.core.stats import AccessStats
from repro.query.columnar import ColumnarCache
from repro.storage.page import PageKind

__all__ = ["PageStore", "StoreSubscriber"]


class StoreSubscriber:
    """No-op base of a :class:`PageStore` subscriber; override what you need."""

    def on_operation_begin(self, store: "PageStore") -> None:
        """A new insert/delete/query bracket, before the path buffer rotates."""

    def on_access(self, store, pid, kind: PageKind, rw, charged, reason) -> None:
        """One page touch, charged or free (``reason``: ``charged``,
        ``pinned``, ``buffered``, ``path`` or ``dedup``)."""

    def on_timed(self, store, op, seconds, pages=None, io=None, detail=None) -> None:
        """A finished ``commit``/``checkpoint`` (with the ``pages`` it
        wrote and the ``io`` beneath it), ``eviction``, ``wal_append`` or
        ``query`` (with its kind, index and cost as ``detail``)."""

    def on_io(self, store, op: str, seconds: float, nbytes: int) -> None:
        """One ``pread``/``pwrite``/``fsync``/``replace`` of a durable store."""

    def io_stats_fields(self, store) -> dict:
        """Fields this subscriber adds to a durable store's ``io_stats()``."""
        return {}


_EVENTS = ("on_operation_begin", "on_access", "on_timed", "on_io")


class PageStore:
    """Allocate, read, write and free simulated disk pages.

    Parameters
    ----------
    page_size:
        Page size in bytes; recorded for reporting.  Capacity decisions
        are taken by the access methods via :mod:`repro.storage.layout`.
    """

    def __init__(
        self,
        page_size: int = 512,
        path_buffer_limit: int = 6,
    ):
        self.page_size = page_size
        #: How many of the most recently accessed pages stay buffered
        #: across operations — the paper's "last accessed search path"
        #: (§3).  Six covers a root-to-leaf path of every structure here;
        #: the 2-level grid file sets it to 2 ("the last two accessed
        #: pages").
        self.path_buffer_limit = path_buffer_limit
        self.stats = AccessStats()
        #: Every event reaches the subscribers in this order.
        self.subscribers: tuple[StoreSubscriber, ...] = ()
        # Per event, the bound hooks of the subscribers overriding it.
        self._on_operation_begin = self._on_access = ()
        self._on_timed = self._on_io = ()
        self._objects: dict[int, Any] = {}
        self._kinds: dict[int, PageKind] = {}
        self._pinned: set[int] = set()
        self._buffer_prev: set[int] = set()
        self._buffer_cur: dict[int, None] = {}
        self._written_this_op: set[int] = set()
        self._next_id = 0
        #: Batched query workload and promotion hints of the traversal
        #: (:mod:`repro.query.columnar`).
        self.columnar = ColumnarCache()

    # -- the event stream -----------------------------------------------

    def subscribe(self, subscriber: StoreSubscriber) -> None:
        """Append ``subscriber`` to the event stream."""
        if subscriber in self.subscribers:
            raise ValueError("already subscribed to this store")
        self.subscribers += (subscriber,)
        self._rewire()

    def unsubscribe(self, subscriber: StoreSubscriber) -> None:
        """Remove ``subscriber``; the others keep their order."""
        if subscriber not in self.subscribers:
            raise ValueError("not subscribed to this store")
        self.subscribers = tuple(s for s in self.subscribers if s is not subscriber)
        self._rewire()

    def _rewire(self) -> None:
        for name in _EVENTS:
            noop = getattr(StoreSubscriber, name)
            hooks = tuple(
                getattr(s, name)
                for s in self.subscribers
                if getattr(type(s), name, noop) is not noop
            )
            setattr(self, "_" + name, hooks)

    def publish_timed(
        self,
        op: str,
        seconds: float,
        *,
        pages: list[int] | None = None,
        io: dict | None = None,
        detail: dict | None = None,
    ) -> None:
        """Deliver one timed-operation event.  Callers time the operation
        only when ``self._on_timed`` is non-empty."""
        for hook in self._on_timed:
            hook(self, op, seconds, pages, io, detail)

    # -- page lifecycle -------------------------------------------------

    def allocate(self, kind: PageKind, obj: Any) -> int:
        """Create a new page holding ``obj`` and return its identifier.

        Allocation itself is free; the page is charged when it is first
        written.
        """
        pid = self._next_id
        self._next_id += 1
        self._objects[pid] = obj
        self._kinds[pid] = kind
        return pid

    def free(self, pid: int) -> None:
        """Release a page (after a merge); freeing is not a disk access."""
        self.columnar.invalidate(pid)
        del self._objects[pid]
        del self._kinds[pid]
        self._pinned.discard(pid)
        self._buffer_prev.discard(pid)
        self._buffer_cur.pop(pid, None)
        self._written_this_op.discard(pid)

    def kind(self, pid: int) -> PageKind:
        """The :class:`PageKind` of page ``pid``."""
        return self._kinds[pid]

    # -- audit accessors ---------------------------------------------------
    #
    # Auditors (repro.verify) must walk the file without disturbing the
    # access counts or the path buffer, so they get uncharged, unobserved
    # read-only views of the store's state.

    def peek(self, pid: int) -> Any:
        """A page's object without charging a read (audits only)."""
        return self._objects[pid]

    def is_pinned(self, pid: int) -> bool:
        """Whether ``pid`` is pinned (uncharged; audits only)."""
        return pid in self._pinned

    def pinned_ids(self) -> set[int]:
        """The set of pinned page ids (a copy; audits only)."""
        return set(self._pinned)

    def page_ids(self) -> list[int]:
        """All live page identifiers (for audits and metrics)."""
        return list(self._objects)

    def count_pages(self, kind: PageKind) -> int:
        """Number of live pages of the given kind."""
        return sum(1 for k in self._kinds.values() if k is kind)

    # -- pinning ---------------------------------------------------------

    def pin(self, pid: int) -> None:
        """Keep ``pid`` permanently in main memory; its accesses become free."""
        self._pinned.add(pid)

    def unpin(self, pid: int) -> None:
        """Undo :meth:`pin`."""
        self._pinned.discard(pid)

    @property
    def pinned_count(self) -> int:
        """How many pages are pinned (reported as main-memory footprint)."""
        return len(self._pinned)

    # -- operations and the path buffer -----------------------------------

    def begin_operation(self) -> None:
        """Start a new insert/delete/query.

        The *tail* of the previous operation's accesses — at most
        :attr:`path_buffer_limit` pages, i.e. its final search path —
        stays buffered and can be re-read for free.

        The tail is deterministic: pages enter the buffer in the order
        of their *first* touch (read or write) within an operation, and
        later touches of the same page — re-reads, reads after writes,
        deduplicated repeat writes — never reorder it.  "Last
        ``path_buffer_limit`` accessed pages" therefore means the last
        ``path_buffer_limit`` *distinct* pages by first touch, which for
        a tree descent is exactly the final root-to-leaf search path.
        """
        for hook in self._on_operation_begin:
            hook(self)
        tail = list(self._buffer_cur)[-self.path_buffer_limit :]
        self._buffer_prev = set(tail)
        self._buffer_cur = {}
        self._written_this_op = set()

    def read(self, pid: int) -> Any:
        """Fetch a page's object, charging a read unless it is buffered."""
        obj = self._objects[pid]
        hooks = self._on_access
        if pid in self._pinned:
            if hooks:
                self._publish_access(pid, "read", False, "pinned")
            return obj
        buffer_cur = self._buffer_cur
        if pid in buffer_cur:
            if hooks:
                self._publish_access(pid, "read", False, "buffered")
            return obj
        buffer_cur[pid] = None
        if pid in self._buffer_prev:
            if hooks:
                self._publish_access(pid, "read", False, "path")
            return obj
        stats = self.stats
        if self._kinds[pid] is PageKind.DATA:
            stats.data_reads += 1
        else:
            stats.dir_reads += 1
        if hooks:
            self._publish_access(pid, "read", True, "charged")
        return obj

    def write(self, pid: int) -> None:
        """Charge a write for page ``pid`` and keep it on the buffered path.

        Repeated writes of the same page within one operation are charged
        once — a real system flushes each dirty page a single time.
        """
        # Invalidate before any charging decision: pinned and deduplicated
        # writes still mean the page object changed, so its batch verdicts
        # must never survive a write.
        self.columnar.invalidate(pid)
        hooks = self._on_access
        if pid in self._pinned:
            if hooks:
                self._publish_access(pid, "write", False, "pinned")
            return
        if pid in self._written_this_op:
            if hooks:
                self._publish_access(pid, "write", False, "dedup")
            return
        self._written_this_op.add(pid)
        self.stats.record_write(self._kinds[pid] is PageKind.DATA)
        self._buffer_cur[pid] = None
        if hooks:
            self._publish_access(pid, "write", True, "charged")

    def _publish_access(self, pid: int, rw: str, charged: bool, reason: str) -> None:
        kind = self._kinds[pid]
        for hook in self._on_access:
            hook(self, pid, kind, rw, charged, reason)
