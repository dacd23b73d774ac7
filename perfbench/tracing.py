"""Per-layer spans, recorded from outside the program.

:func:`install` replaces the program's public entry points with wrappers
at the names their callers look up (class attributes, module attributes
and every ``from ... import`` alias) and returns a :class:`Patches`
whose :meth:`~Patches.restore` puts the originals back.  Each wrapped
call records one span: name, start, end, parent span and request id.
Spans stay in memory in flat arrays and are written out when the run
ends (:meth:`Tracer.save`).

Self time is a span's duration minus its children's.  Every span name
maps to exactly one self-time metric (:data:`SELF_METRICS`), so the
per-layer self times plus ``trace.residual_s`` (time spent outside any
span: the benchmark's own loop, the interpreter between calls) add up to
the traced wall time exactly, in integer nanoseconds.

A call that re-enters a span of the same name (``super()`` chains,
recursion, a transformation SAM inserting into its inner PAM) is folded
into the outer span.  ``Rect`` methods are counted, not timed: they run
millions of times per build, and a span each would swamp the build.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from repro.storage.io import OsFileIO

#: Span name -> the self-time metric it is summed into.
SELF_METRICS = {
    "am.insert": "am.insert.self_s",
    "am.query": "am.query.self_s",
    "am.pack": "am.pack.s",
    "geometry.kernel": "geometry.kernel.self_s",
    "query.file": "query.driver.self_s",
    "query.flush": "query.flush.self_s",
    "soa.view": "soa.view.self_s",
    "pagestore.read": "pagestore.self_s",
    "pagestore.write": "pagestore.self_s",
    "pagestore.allocate": "pagestore.self_s",
    "pagestore.free": "pagestore.self_s",
    "pagestore.begin_operation": "pagestore.self_s",
    "pool.fault": "pool.fault.self_s",
    "pool.admit": "pool.admit.self_s",
    "disk.commit": "disk.commit.self_s",
    "disk.checkpoint": "disk.checkpoint.s",
    "disk.recover": "disk.recover.s",
    "wal.append": "wal.append.self_s",
    "wal.commit": "wal.commit.self_s",
    "wal.replay": "wal.replay.self_s",
    "io.pread": "io.pread.s",
    "io.pwrite": "io.pwrite.s",
    "io.fsync": "io.fsync.s",
}

#: Span name -> the metric counting its (outermost) calls.
CALL_METRICS = {
    "am.insert": "am.insert.calls",
    "am.query": "am.query.calls",
    "geometry.kernel": "geometry.kernel.calls",
    "query.file": "query.file.calls",
    "query.flush": "query.flush.calls",
    "pagestore.read": "pagestore.read.calls",
    "pagestore.write": "pagestore.write.calls",
    "disk.commit": "disk.commit.calls",
    "disk.checkpoint": "disk.checkpoint.calls",
    "wal.append": "wal.append.calls",
    "io.pread": "io.pread.calls",
    "io.pwrite": "io.pwrite.calls",
    "io.fsync": "io.fsync.calls",
}

#: Counters kept without spans.
COUNTERS = ("geometry.rect.calls", "soa.view.builds", "io.pread.bytes", "io.pwrite.bytes")


class Tracer:
    """Span recorder; one per traced run, single-threaded."""

    def __init__(self):
        #: Current request id; the benchmark bumps it per insert/query.
        self.request = 0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("q")
        self.span_start = array("q")
        self.span_end = array("q")
        self._self_ns: list[int] = []
        self._calls: list[int] = []
        self._counters: dict[str, list[int]] = {name: [0] for name in COUNTERS}
        # Open spans, innermost last: [name id, span index, children's ns].
        self._stack: list[list[int]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            if name not in SELF_METRICS:
                raise KeyError(f"span {name!r} has no self-time metric")
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._self_ns.append(0)
            self._calls.append(0)
        return nid

    def counter(self, name: str) -> list[int]:
        """The one-element cell behind counter ``name``."""
        return self._counters[name]

    def wrap(self, name: str, fn):
        """``fn`` recording one ``name`` span per outermost call."""
        nid = self._id(name)
        stack = self._stack
        self_ns = self._self_ns
        calls = self._calls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] == nid:
                return fn(*args, **kwargs)
            index = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][1] if stack else -1)
            self.span_request.append(self.request)
            self.span_end.append(0)
            frame = [nid, index, 0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.span_end[index] = end
                duration = end - start
                self_ns[nid] += duration - frame[2]
                calls[nid] += 1
                if stack:
                    stack[-1][2] += duration

        return traced

    def count(self, name: str, fn):
        """``fn`` bumping counter ``name`` per call, without a span."""
        cell = self._counters[name]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def self_ns_by_metric(self) -> dict[str, int]:
        """Integer-ns self time per self-time metric (all of them)."""
        out = dict.fromkeys(SELF_METRICS.values(), 0)
        for nid, name in enumerate(self.names):
            out[SELF_METRICS[name]] += self._self_ns[nid]
        return out

    def residual_ns(self, wall_ns: int) -> int:
        """Traced wall time that no span's self time covers."""
        return wall_ns - sum(self._self_ns)

    def layer_metrics(self, wall_ns: int) -> dict[str, float]:
        """Per-layer metrics of everything traced, against ``wall_ns``."""
        out = {metric: ns / 1e9 for metric, ns in self.self_ns_by_metric().items()}
        out["trace.residual_s"] = self.residual_ns(wall_ns) / 1e9
        calls = dict(zip(self.names, self._calls))
        for name, metric in CALL_METRICS.items():
            out[metric] = calls.get(name, 0)
        for name, cell in self._counters.items():
            out[name] = cell[0]
        return out

    def span_self_ns(self) -> np.ndarray:
        """Each recorded span's self time, recomputed from the span arrays."""
        duration = self._array(self.span_end) - self._array(self.span_start)
        parent = self._array(self.span_parent)
        children = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        return duration - children

    @staticmethod
    def _array(values: array) -> np.ndarray:
        return np.frombuffer(values, dtype=np.int32 if values.typecode == "i" else np.int64)

    def save(self, path: Path) -> Path:
        """Write every span (``.npz``: names table + one array per field)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=self._array(self.span_name),
            parent=self._array(self.span_parent),
            request=self._array(self.span_request),
            start_ns=self._array(self.span_start),
            end_ns=self._array(self.span_end),
        )
        return path


class Patches:
    """Attribute replacements that can be undone."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _patch_function(patches: Patches, module, attr: str, wrapped) -> None:
    """Replace ``module.attr`` and every alias of it in loaded modules."""
    original = getattr(module, attr)
    for name, mod in list(sys.modules.items()):
        if not name.startswith(("repro", "perfbench")):
            continue
        for alias, value in list(vars(mod).items()):
            if value is original:
                patches.set(mod, alias, wrapped)


def install(tracer: Tracer) -> Patches:
    """Wrap every traced entry point; restore with ``.restore()``."""
    from repro.core.interfaces import PointAccessMethod, SpatialAccessMethod
    from repro.geometry import kernels
    from repro.geometry.rect import Rect
    from repro.pam.buddytree import BuddyTree
    from repro.query import driver, traverse
    from repro.storage.disk import BufferPool, DiskPageStore
    from repro.storage.pagestore import PageStore
    from repro.storage.soa import SoAList
    from repro.storage.wal import WriteAheadLog

    patches = Patches()
    methods = [
        (PointAccessMethod, "insert", "am.insert"),
        (SpatialAccessMethod, "insert", "am.insert"),
        (BuddyTree, "pack", "am.pack"),
        (traverse.RowSource, "flush", "query.flush"),
        (DiskPageStore, "write", "pagestore.write"),
        (DiskPageStore, "begin_operation", "pagestore.begin_operation"),
        (DiskPageStore, "commit", "disk.commit"),
        (DiskPageStore, "checkpoint", "disk.checkpoint"),
        (WriteAheadLog, "append", "wal.append"),
        (WriteAheadLog, "commit", "wal.commit"),
        (WriteAheadLog, "replay", "wal.replay"),
    ]
    methods += [
        (PointAccessMethod, attr, "am.query")
        for attr in ("range_query", "exact_match", "partial_match")
    ]
    methods += [
        (SpatialAccessMethod, attr, "am.query")
        for attr in ("point_query", "intersection", "enclosure", "containment")
    ]
    methods += [
        (PageStore, attr, f"pagestore.{attr}")
        for attr in ("read", "write", "allocate", "free", "begin_operation")
    ]
    for owner, attr, name in methods:
        patches.set(owner, attr, tracer.wrap(name, vars(owner)[attr]))

    view = SoAList.view
    builds = tracer.counter("soa.view.builds")

    def counted_view(lst, tag, build):
        def counted_build(items):
            builds[0] += 1
            return build(items)

        return view(lst, tag, counted_build)

    patches.set(SoAList, "view", tracer.wrap("soa.view", counted_view))

    getitem = BufferPool.__getitem__
    fault = tracer.wrap("pool.fault", getitem)

    def pool_getitem(pool, pid):
        if pid in pool.frames:
            return getitem(pool, pid)
        return fault(pool, pid)

    patches.set(BufferPool, "__getitem__", pool_getitem)
    patches.set(
        BufferPool, "__setitem__", tracer.wrap("pool.admit", BufferPool.__setitem__)
    )

    for attr, raw in list(vars(Rect).items()):
        if attr != "__init__" and attr.startswith("_"):
            continue
        if isinstance(raw, classmethod):
            patches.set(
                Rect, attr, classmethod(tracer.count("geometry.rect.calls", raw.__func__))
            )
        elif inspect.isfunction(raw):
            patches.set(Rect, attr, tracer.count("geometry.rect.calls", raw))

    _patch_function(
        patches, driver, "run_query_file",
        tracer.wrap("query.file", driver.run_query_file),
    )
    _patch_function(
        patches, traverse, "data_hit_rows",
        tracer.wrap("query.flush", traverse.data_hit_rows),
    )
    for attr in kernels.__all__:
        _patch_function(
            patches, kernels, attr,
            tracer.wrap("geometry.kernel", getattr(kernels, attr)),
        )
    return patches


class _TracedHandle:
    """A file handle whose pread/pwrite/fsync record ``io.*`` spans."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._read_bytes = tracer.counter("io.pread.bytes")
        self._write_bytes = tracer.counter("io.pwrite.bytes")
        self._pread = tracer.wrap("io.pread", inner.pread)
        self._pwrite = tracer.wrap("io.pwrite", inner.pwrite)
        self.fsync = tracer.wrap("io.fsync", inner.fsync)

    @property
    def path(self) -> Path:
        return self._inner.path

    def pread(self, n: int, offset: int) -> bytes:
        data = self._pread(n, offset)
        self._read_bytes[0] += len(data)
        return data

    def pwrite(self, data: bytes, offset: int) -> int:
        self._write_bytes[0] += len(data)
        return self._pwrite(data, offset)

    def truncate(self, size: int) -> None:
        self._inner.truncate(size)

    def size(self) -> int:
        return self._inner.size()

    def close(self) -> None:
        self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed


class BenchIO(OsFileIO):
    """The IO provider the benchmark passes to a disk store as ``io=``.

    Plain OS file IO that remembers its handles, so a run can abandon a
    store the way a killed process does (:meth:`abandon`); with a tracer,
    every pread/pwrite/fsync is an ``io.*`` span.
    """

    def __init__(self, tracer: Tracer | None = None):
        self._tracer = tracer
        self._handles = []

    def open(self, path):
        handle = super().open(path)
        self._handles.append(handle)
        return handle if self._tracer is None else _TracedHandle(handle, self._tracer)

    def abandon(self) -> None:
        """Close every file without flushing or checkpointing anything."""
        for handle in self._handles:
            handle.close()
        self._handles.clear()
