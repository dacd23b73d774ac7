"""The batched query driver: run one query file in a single pass.

The driver registers a whole query file as a batched workload on the
method's store (:mod:`repro.query.columnar`), marks the current query
index before each call, and runs every query under the usual
per-operation disk-access measurement.  A page visited by many queries of the file is
then evaluated against *all* of them in one ``(Q, n)`` kernel call, and
each later query reuses its cached mask row.

Registration is an evaluation hint only: the queries still execute one
at a time through the method's public API, so the pages touched and the
per-query disk-access statistics are bit-identical to the scalar
reference descents.  The driver is duck-typed — any object with
``store``, ``register_query_workload`` and ``end_query_workload`` works —
so the same loop drives a reference view
(:func:`repro.verify.reference.as_reference`) for the identity checks.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Sequence

__all__ = ["run_query_file"]


def run_query_file(
    method,
    kind: str,
    queries: Sequence,
    operation: Callable[[Any], Any],
    explain=None,
) -> list[tuple[int, Any]]:
    """Execute every query of one file, returning ``[(cost, result), ...]``.

    ``kind`` is the query-type tag understood by the method's
    ``_workload_rects`` (``range``, ``pm``, ``point``, ``intersection``,
    ``containment``, ``enclosure``); ``operation(query)`` must run exactly
    one public query of ``method``.

    ``explain`` is an optional
    :class:`~repro.obs.explain.ExplainRecorder`; when given, every query
    of the file is traced (visited pages, candidates/hits, prunes).
    The recorder subscribes to the store's event stream, so measured
    costs and results are identical with or without it.

    Each query's wall time is published to the store's subscribers as a
    ``query`` timed event; with no one listening for timed events the
    loop never reads the clock, and the timing never feeds back into
    the charged cost accounting.
    """
    method.register_query_workload(kind, queries)
    store = method.store
    workload = store.columnar.workload
    if explain is not None:
        explain.start_file(method, kind)
    timed = bool(store._on_timed)
    out: list[tuple[int, Any]] = []
    stats = store.stats
    try:
        for index, query in enumerate(queries):
            workload.set_query(index)
            # AccessStats.total, inlined: the per-query accounting runs
            # tens of thousands of times per file.
            before = (
                stats.data_reads
                + stats.data_writes
                + stats.dir_reads
                + stats.dir_writes
            )
            if timed:
                started = time.perf_counter()
            result = operation(query)
            cost = (
                stats.data_reads
                + stats.data_writes
                + stats.dir_reads
                + stats.dir_writes
                - before
            )
            if timed:
                store.publish_timed(
                    "query",
                    time.perf_counter() - started,
                    detail={"kind": kind, "index": index, "cost": cost},
                )
            out.append((cost, result))
            if explain is not None:
                explain.finish_query(index, query, cost, result)
    finally:
        method.end_query_workload()
        if explain is not None:
            explain.end_file()
    return out
