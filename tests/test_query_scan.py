"""Batched workloads: verdict caching, invalidation, and reference identity.

Covers the contracts the batched execution layer rests on:

* promoted pages' batch verdict rows (and the current-query memo) are
  dropped on every ``write``/``free`` of the page, so mutation can never
  be answered from a stale verdict;
* promoted batch verdicts equal the single-query kernel rows;
* the production path and the scalar reference descents
  (:mod:`repro.verify.reference`) return bit-identical per-query costs,
  results, and store totals over the whole structure matrix; and
* the differential fuzzer (inserts, deletes, queries, invariant audits)
  stays green with batched workloads — invalidation under arbitrary
  mutation sequences, checked against the brute-force oracle.
"""

import numpy as np
import pytest

from repro.geometry.rect import Rect
from repro.query import traverse
from repro.query.bench import run_identity_matrix
from repro.query.columnar import QueryWorkload
from repro.query.driver import run_query_file
from repro.storage.page import PageKind
from repro.storage.pagestore import PageStore
from repro.storage.soa import SoAList
from repro.verify.fuzz import STRUCTURES, make_ops, run_ops, structure_seed


def data_page(store, records):
    pid = store.allocate(PageKind.DATA, records)
    store.write(pid)
    return pid


def rect_rows(store, pid, values, query):
    """Intersection verdict row of one ``(rect, rid)`` page for ``query``."""
    src = traverse.RowSource(store.columnar, query)
    tag, build = traverse.value_view("isect")
    row = src.row(pid, "vrects:isect", "isect", values, tag, build)
    return row if row is not None else src.flush()[(pid, "vrects:isect")]


class TestColumnarInvalidation:
    def test_match_records_caches_and_rebuilds_on_write(self):
        store = PageStore()
        records = SoAList([((0.1, 0.1), "a"), ((0.6, 0.6), "b")])
        pid = data_page(store, records)
        q = Rect((0.0, 0.0), (0.5, 0.5))
        workload = store.columnar.begin_workload([q, q])
        workload.promote_visits = 1  # promote on first visit
        workload.set_query(0)
        assert traverse.data_hit_rows(store, q, [(pid, records)]) == {pid: [0]}
        assert (pid, "pts") in workload._rows
        records.append(((0.2, 0.2), "c"))
        store.write(pid)
        assert (pid, "pts") not in workload._rows
        workload.set_query(1)
        assert traverse.data_hit_rows(store, q, [(pid, records)]) == {pid: [0, 2]}

    def test_free_drops_cached_arrays(self):
        store = PageStore()
        values = SoAList([(Rect((0.0, 0.0), (0.4, 0.4)), 1)])
        pid = data_page(store, values)
        q = Rect((0.1, 0.1), (0.9, 0.9))
        workload = store.columnar.begin_workload([q])
        workload.promote_visits = 1
        workload.set_query(0)
        assert rect_rows(store, pid, values, q) == [0]
        assert (pid, "vrects:isect") in workload._rows
        store.free(pid)
        assert not [k for k in workload._rows if k[0] == pid]
        assert not [k for k in workload._cur if k[0] == pid]

    def test_workload_rows_invalidate_with_the_page(self):
        store = PageStore()
        values = SoAList([
            (Rect((0.0, 0.0), (0.3, 0.3)), 1),
            (Rect((0.5, 0.5), (0.9, 0.9)), 2),
        ])
        pid = data_page(store, values)
        queries = [Rect((0.0, 0.0), (0.6, 0.6)), Rect((0.4, 0.4), (1.0, 1.0))]
        workload = store.columnar.begin_workload(queries)
        workload.promote_visits = 1  # promote on first visit
        workload.set_query(0)
        assert rect_rows(store, pid, values, queries[0]) == [0, 1]
        assert (pid, "vrects:isect") in workload._rows
        values.append((Rect((0.95, 0.95), (1.0, 1.0)), 3))
        store.write(pid)
        assert (pid, "vrects:isect") not in workload._rows
        workload.set_query(1)
        # The appended rect is visible immediately — stale rows are gone.
        assert rect_rows(store, pid, values, queries[1]) == [1, 2]

    def test_current_query_memo_resets_between_queries(self):
        store = PageStore()
        values = SoAList([(Rect((0.0, 0.0), (0.3, 0.3)), 1)])
        pid = data_page(store, values)
        queries = [Rect((0.0, 0.0), (0.6, 0.6)), Rect((0.7, 0.7), (1.0, 1.0))]
        workload = store.columnar.begin_workload(queries)
        workload.set_query(0)
        assert rect_rows(store, pid, values, queries[0]) == [0]
        assert workload._cur  # memoised for intra-query revisits
        assert rect_rows(store, pid, values, queries[0]) == [0]
        workload.set_query(1)
        assert not workload._cur
        assert rect_rows(store, pid, values, queries[1]) == []


class TestWorkloadPromotion:
    def test_promotion_answers_match_single_query_rows(self):
        rng = np.random.default_rng(7)
        values = SoAList([
            (Rect(tuple(lo), tuple(lo + 0.1)), i)
            for i, lo in enumerate(rng.uniform(0, 0.9, size=(15, 2)))
        ])
        queries = [
            Rect(tuple(lo), tuple(lo + 0.3))
            for lo in rng.uniform(0, 0.7, size=(9, 2))
        ]
        cold = PageStore()
        pid_c = data_page(cold, values)
        hot = PageStore()
        pid_h = data_page(hot, values)
        wl = hot.columnar.begin_workload(queries)
        wl.promote_visits = 1
        for i, q in enumerate(queries):
            wl.set_query(i)
            promoted = rect_rows(hot, pid_h, values, q)
            single = rect_rows(cold, pid_c, values, q)
            assert promoted == single, i

    def test_promotion_threshold_scales_with_batch_size(self):
        assert QueryWorkload([None] * 8).promote_visits == 4
        assert QueryWorkload([None] * 160).promote_visits == 20


class TestScalarVectorIdentity:
    def test_identity_matrix_smoke(self):
        timings, mismatches = run_identity_matrix(scale=60, page_size=512, seed=99)
        assert not mismatches
        assert len(timings) == len(STRUCTURES)

    def test_driver_batches_equal_unbatched_queries(self):
        spec = STRUCTURES["GRID"]
        rng = np.random.default_rng(3)
        points = [tuple(p) for p in rng.uniform(0, 1, size=(150, 2))]
        queries = [
            Rect(tuple(lo), tuple(np.minimum(lo + 0.2, 1.0)))
            for lo in rng.uniform(0, 1, size=(12, 2))
        ]
        store = PageStore()
        pam = spec["factory"](store)
        for rid, p in enumerate(points):
            pam.insert(p, rid)
        batched = run_query_file(pam, "range", queries, pam.range_query)
        assert store.columnar.workload is None  # deregistered afterwards
        for (cost, hits), q in zip(batched, queries):
            expected = sorted((p, i) for i, p in enumerate(points) if q.contains_point(p))
            assert sorted(hits) == expected


@pytest.mark.parametrize("name", ["GRID", "BANG", "R", "T-BANG"])
def test_fuzz_with_columnar_caches_and_audits(name):
    spec = STRUCTURES[name]
    ops = make_ops(spec, 80, structure_seed(name, 31))
    failure = run_ops(spec, ops, audit_every=10)
    assert failure is None, failure
