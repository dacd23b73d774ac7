"""The benchmark's workloads: inputs, timed rounds and correctness checks.

Each workload is set up (inputs generated; for ``paper-query`` also the
structures built), then runs *rounds* until the run's time is used.
Rounds of one run are identical in composition, so every metric is
normalised per round or per request and does not depend on how many
rounds fit.  Checks run between rounds, outside the timed window.

Seeds: ``--seed 0`` reproduces the seeds of the committed
``results/RUN-*.json`` files; every other seed shifts each committed
seed by ``SEED_STRIDE * seed``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.comparison import PAM_QUERY_TYPES
from repro.core.testbed import standard_pam_factories, standard_sam_factories
from repro.pam.twolevelgrid import TwoLevelGridFile
from repro.query import driver
from repro.sam.clipping import ClippingSAM
from repro.sam.rplustree import RPlusTree
from repro.sam.rtree import RTree
from repro.storage.disk import DiskPageStore, restore_method, snapshot_method
from repro.storage.factory import make_store
from repro.storage.layout import point_record_size, rect_record_size
from repro.workloads.distributions import generate_point_file
from repro.workloads.queries import (
    RANGE_QUERY_VOLUMES,
    generate_partial_match_queries,
    generate_range_queries,
    generate_rect_query_workload,
)
from repro.workloads.rect_distributions import generate_rect_file

from perfbench.tracing import BenchIO

PAGE_SIZE = 512
DEFAULT_SEED = 0
#: Larger than any offset the query generators add to a seed (10 000
#: for the 10 % range file), so two ``--seed`` values never share a file.
SEED_STRIDE = 10_007
#: ``paper-query`` file sets per ``--seed`` step.
SETS_PER_SEED = 1_000

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def derive(base: int, seed: int) -> int:
    """The committed seed ``base`` shifted to ``--seed seed``."""
    return base + SEED_STRIDE * seed


# -- query files and the brute-force oracle -----------------------------------


@dataclass(frozen=True)
class QueryFile:
    label: str  #: the paper's query-type label
    kind: str  #: ``run_query_file`` kind tag
    op: str  #: public method of the access method
    queries: list


def pam_files(seed: int) -> list[QueryFile]:
    """The §3 point query files, as ``repro.core.comparison`` runs them."""
    files = [
        QueryFile(label, "range", "range_query", generate_range_queries(volume, seed=seed))
        for label, volume in zip(PAM_QUERY_TYPES[:3], RANGE_QUERY_VOLUMES)
    ]
    files += [
        QueryFile(label, "pm", "partial_match", generate_partial_match_queries(axis, seed=seed + 2))
        for label, axis in (("pm_x", 0), ("pm_y", 1))
    ]
    return files


def sam_files(seed: int) -> list[QueryFile]:
    """The §7 rectangle query files, as ``repro.core.comparison`` runs them."""
    workload = generate_rect_query_workload(seed=seed)
    files = [QueryFile("point", "point", "point_query", workload["points"])]
    files += [
        QueryFile(op, op, op, workload["rectangles"])
        for op in ("intersection", "enclosure", "containment")
    ]
    return files


class Oracle:
    """Vectorised brute-force answers over one data file (record id = index).

    The predicates are the closed-box ones of :mod:`repro.verify.oracle`.
    """

    def __init__(self, data: list):
        if hasattr(data[0], "lo"):
            self.lo = np.array([r.lo for r in data])
            self.hi = np.array([r.hi for r in data])
        else:
            self.points = np.array(data)

    def answer(self, op: str, query, n: int | None = None) -> list[int]:
        """Sorted record ids among the first ``n`` records that match."""
        if op == "range_query":
            p = self.points[:n]
            mask = np.all((p >= query.lo) & (p <= query.hi), axis=1)
        elif op == "partial_match":
            p = self.points[:n]
            mask = np.ones(len(p), dtype=bool)
            for axis, value in query.items():
                mask &= p[:, axis] == value
        else:
            lo, hi = self.lo[:n], self.hi[:n]
            if op == "point_query":
                mask = np.all((lo <= query) & (hi >= query), axis=1)
            elif op == "intersection":
                mask = np.all((lo <= query.hi) & (hi >= query.lo), axis=1)
            elif op == "containment":
                mask = np.all((lo >= query.lo) & (hi <= query.hi), axis=1)
            else:  # enclosure
                mask = np.all((lo <= query.lo) & (hi >= query.hi), axis=1)
        return np.flatnonzero(mask).tolist()


def result_rids(op: str, result) -> list[int]:
    """A query result as sorted record ids (duplicates kept, so they show)."""
    if op in ("range_query", "partial_match"):
        return sorted(rid for _, rid in result)
    return sorted(result)


def run_files(method, files: list[QueryFile], rec) -> list[list]:
    """Run query files through the batched driver, one request per query."""
    return [
        driver.run_query_file(method, f.kind, f.queries, rec.timed(getattr(method, f.op)))
        for f in files
    ]


def oracle_answers(oracle: Oracle, files: list[QueryFile]) -> list[list[list[int]]]:
    """The oracle's answer to every query of every file."""
    return [[oracle.answer(f.op, q) for q in f.queries] for f in files]


def check_files(expected, files, outcomes, where: str) -> list[tuple[int, str]]:
    """``(wrong answers, message)`` per query file whose answers differ
    from ``expected`` (:func:`oracle_answers`)."""
    failures = []
    for qfile, answers, out in zip(files, expected, outcomes):
        bad = sum(
            result_rids(qfile.op, result) != answer
            for answer, (_, result) in zip(answers, out)
        )
        if bad:
            failures.append((bad, f"{where} {qfile.label}: {bad} answers differ from brute force"))
    return failures


def charged_averages(files: list[QueryFile], outcomes) -> dict[str, tuple[float, int]]:
    """Per query type: (mean charged accesses per query, total hits)."""
    return {
        f.label: (sum(c for c, _ in out) / len(f.queries), sum(len(r) for _, r in out))
        for f, out in zip(files, outcomes)
    }


def run_file_mismatches(doc: dict, averages: dict[str, dict]) -> list[str]:
    """Where ``averages`` (structure -> label -> (mean, hits)) differ from a
    committed RUN file's per-structure, per-query-type figures."""
    out = []
    for name, entry in doc["structures"].items():
        got = averages.get(name, {})
        for label, query in entry["queries"].items():
            expected = (query["mean"], query["results"])
            if got.get(label) != expected:
                out.append(f"{doc['label']} {name} {label}: {got.get(label)} != committed {expected}")
    return out


# -- rounds --------------------------------------------------------------------


@dataclass
class Round:
    """What one round of a workload's timed phase did."""

    #: Normalised and raw wall time of the round.
    wall_ns: float = 0.0
    raw_wall_ns: int = 0
    #: Raw (start, end) intervals, and their normalised total, spent
    #: making the round's structures answer queries from scratch (a
    #: rebuild on the sim store, reopen + replay + restore on disk).
    rebuild: list = field(default_factory=list)
    rebuild_ns: float = 0.0
    charged_reads: int = 0
    charged_writes: int = 0
    #: write_amp = written / live, space_amp = stored / user (bytes).
    written: int = 0
    live: int = 0
    stored: int = 0
    user: int = 0
    pool: dict = field(default_factory=dict)
    peak_resident_ratio: float = 0.0
    wal_bytes: int = 0
    outcomes: dict = field(default_factory=dict)

    def add_sim_store(self, store, records: int, record_size: int) -> None:
        self.charged_reads += store.stats.reads
        self.charged_writes += store.stats.writes
        self.written += store.stats.writes * PAGE_SIZE
        self.live += len(store.page_ids()) * PAGE_SIZE
        self.stored += len(store.page_ids()) * PAGE_SIZE
        self.user += records * record_size


def _median_s(values_ns) -> float:
    return statistics.median(values_ns) / 1e9


def _record_size(data) -> int:
    return rect_record_size(2) if hasattr(data[0], "lo") else point_record_size(2)


def sam_factories() -> dict:
    """The testbed SAMs plus the two redundant schemes, R+ and CLIP."""
    return {
        **standard_sam_factories(),
        "R+": lambda store, dims=2: RPlusTree(store, dims),
        "CLIP": lambda store, dims=2: ClippingSAM(store, dims),
    }


def build(factory, data, rec):
    """A fresh structure on the sim store, built by single inserts."""
    method = factory(make_store(PAGE_SIZE, backend="sim"))
    for rid, item in enumerate(data):
        rec.insert(method, item, rid)
    return method


def pack(method, rec) -> None:
    """Derive BUDDY+ from a built BUDDY file (one request)."""
    rec.begin_request()
    method.pack()


class Workload:
    name = ""
    #: Set-ups per run; set-up time is the median.
    setup_reps = 9
    #: Rounds of a traced run (fixed, so its counts repeat exactly).
    trace_rounds = 1

    def setup(self, seed: int, rec):
        raise NotImplementedError

    def inputs(self, state, k: int):
        return None

    def round(self, state, inputs, rec) -> Round:
        raise NotImplementedError

    def check(self, state, inputs, result: Round) -> list[tuple[int, str]]:
        """``(failed operations, message)`` per failed check."""
        raise NotImplementedError

    def end_to_end(self, state, rounds: list[Round], clock) -> dict:
        """``recovery_s``, ``write_amp`` and ``space_amp`` of the run."""
        last = rounds[-1]
        return {
            "recovery_s": _median_s([r.rebuild_ns for r in rounds]),
            "write_amp": last.written / last.live,
            "space_amp": last.stored / last.user,
        }


@dataclass
class _Files:
    """One data file with its query files and their brute-force answers."""

    data: list
    files: list[QueryFile]
    oracle: Oracle
    expected: list | None = None


class PaperBuild(Workload):
    """The paper's experiment at testbed scale on the sim store: builds
    dominate, exposing insert/split and ``Rect`` geometry."""

    name = "paper-build"
    records = 10_000

    def setup(self, seed, rec):
        points = generate_point_file("diagonal", self.records, seed=derive(1, seed))
        rects = generate_rect_file("uniform_small", self.records, seed=derive(11, seed))
        return {
            "seed": seed,
            "pam": _Files(points, pam_files(derive(101, seed)), Oracle(points)),
            "sam": _Files(rects, sam_files(derive(107, seed)), Oracle(rects)),
        }

    def round(self, state, inputs, rec):
        result = Round()
        for kind, factories in (("pam", standard_pam_factories()), ("sam", sam_factories())):
            f = state[kind]
            for name, factory in factories.items():
                start = time.perf_counter_ns()
                method = build(factory, f.data, rec)
                result.rebuild.append((start, time.perf_counter_ns()))
                result.outcomes[kind, name] = run_files(method, f.files, rec)
                if (kind, name) == ("pam", "BUDDY"):
                    start = time.perf_counter_ns()
                    pack(method, rec)
                    result.rebuild.append((start, time.perf_counter_ns()))
                    result.outcomes[kind, "BUDDY+"] = run_files(method, f.files, rec)
                result.add_sim_store(method.store, len(f.data), _record_size(f.data))
        return result

    def check(self, state, inputs, result):
        failures = []
        averages = {"pam": {}, "sam": {}}
        for (kind, name), outcomes in result.outcomes.items():
            f = state[kind]
            if f.expected is None:
                f.expected = oracle_answers(f.oracle, f.files)
            failures += check_files(f.expected, f.files, outcomes, f"{kind}/{name}")
            averages[kind][name] = charged_averages(f.files, outcomes)
        if state["seed"] == DEFAULT_SEED:
            for kind, doc_name in (("pam", "RUN-PAM-diagonal.json"), ("sam", "RUN-SAM-uniform_small.json")):
                doc = json.loads((ROOT / "results" / doc_name).read_text())
                failures += [(1, m) for m in run_file_mismatches(doc, averages[kind])]
        result.outcomes.clear()
        return failures


class PaperQuery(Workload):
    """Query files only, against structures built in set-up: isolates the
    batched query path, SoA views and CLIP/R+ duplicate elimination."""

    name = "paper-query"
    records = 2_000
    setup_reps = 3
    trace_rounds = 4

    def __init__(self):
        #: Raw (start, end) of the builds of every set-up of this run.
        self.rebuild: list[tuple[int, int]] = []

    def setup(self, seed, rec):
        points = generate_point_file("cluster", self.records, seed=derive(5, seed))
        rects = generate_rect_file("gaussian_square", self.records, seed=derive(13, seed))
        state = {
            "seed": seed,
            "pam": Oracle(points),
            "sam": Oracle(rects),
            "structures": [],
            "built": Round(),
        }
        built = state["built"]
        start = time.perf_counter_ns()
        for kind, data, factories in (
            ("pam", points, standard_pam_factories()),
            ("sam", rects, sam_factories()),
        ):
            for name, factory in factories.items():
                method = build(factory, data, rec)
                state["structures"].append((kind, name, method))
                if (kind, name) == ("pam", "BUDDY"):
                    packed = build(factory, data, rec)
                    pack(packed, rec)
                    state["structures"].append((kind, "BUDDY+", packed))
        self.rebuild.append((start, time.perf_counter_ns()))
        for kind, name, method in state["structures"]:
            records = len(points) if kind == "pam" else len(rects)
            built.add_sim_store(method.store, records, _record_size(points if kind == "pam" else rects))
        # Warm-up: file set 0 (untimed) fills every lazy SoA view.
        warm = self.inputs(state, 0)
        for kind, name, method in state["structures"]:
            run_files(method, warm[kind], rec)
        return state

    def inputs(self, state, k):
        set_seed = state["seed"] * SETS_PER_SEED + k
        return {"pam": pam_files(derive(101, set_seed)), "sam": sam_files(derive(107, set_seed))}

    def round(self, state, inputs, rec):
        result = Round()
        for kind, name, method in state["structures"]:
            before = method.store.stats.snapshot()
            result.outcomes[kind, name] = run_files(method, inputs[kind], rec)
            spent = method.store.stats - before
            result.charged_reads += spent.reads
            result.charged_writes += spent.writes
        return result

    def check(self, state, inputs, result):
        failures = []
        expected = {kind: oracle_answers(state[kind], inputs[kind]) for kind in ("pam", "sam")}
        for (kind, name), outcomes in result.outcomes.items():
            failures += check_files(expected[kind], inputs[kind], outcomes, f"{kind}/{name}")
        result.outcomes.clear()
        return failures

    def end_to_end(self, state, rounds, clock):
        # Structures live in memory and are built in set-up, so a restart
        # means a rebuild: recovery and the amplifications come from set-up.
        built = state["built"]
        return {
            "recovery_s": _median_s([clock.normalized_ns(a, b) for a, b in self.rebuild]),
            "write_amp": built.written / built.live,
            "space_amp": built.stored / built.user,
        }


#: Pool budgets in pages: about 10 % of each structure's final page count
#: at the default seed (R 390 pages, GRID 255), the fraction
#: ``repro.storage.bench`` uses.  Pinned, not sized per run: today's pool
#: overruns its budget (ROADMAP item 2) and that must stay visible.
POOL_PAGES = {"R": 39, "GRID": 25}


@dataclass
class _Stream:
    """One durable structure's inputs."""

    name: str
    factory: object
    data: list
    oracle: Oracle
    #: (op, query) issued after every 10th insert, rotating over types.
    probes: list
    #: ``make_files(derive(base, n))`` is query file set ``n``.
    make_files: object
    base: int


#: File sets the stream's probes are drawn from, so that nearly every
#: probe is a distinct query and one seed's query placement weighs less.
STREAM_SETS = 8


def _rotation(file_sets: list[list[QueryFile]], count: int) -> list[tuple[str, object]]:
    """``count`` (op, query) probes cycling through the query types; each
    type's queries come from every file set in turn."""
    types = list(zip(*file_sets))
    pools = [[q for qfile in same_type for q in qfile.queries] for same_type in types]
    probes = []
    for i in range(count):
        t = i % len(types)
        probes.append((types[t][0].op, pools[t][(i // len(types)) % len(pools[t])]))
    return probes


def run_stream(stream: _Stream, method, rec, store=None, peak=None) -> list:
    """Inserts with one unbatched public query after every 10th insert.

    With ``store``/``peak`` (a one-element list) the pool's resident
    frame count is sampled after every request.
    """
    answers = []
    probes = iter(stream.probes)
    for rid, item in enumerate(stream.data):
        rec.insert(method, item, rid)
        if (rid + 1) % 10 == 0:
            op, query = next(probes)
            answers.append(rec.query(getattr(method, op), query))
        if peak is not None:
            peak[0] = max(peak[0], len(store.pool.frames))
    return answers


class DurableMixed(Workload):
    """R-tree and GRID on the disk store with a pool of ~10 % of the file:
    inserts beside queries, then a crash and WAL recovery.  The only
    workload on which the pool, WAL and IO layers carry time."""

    name = "durable-mixed"
    records = 6_000

    def setup(self, seed, rec):
        rects = generate_rect_file("uniform_small", self.records, seed=derive(11, seed))
        points = generate_point_file("cluster", self.records, seed=derive(5, seed))
        streams = []
        for name, factory, data, make_files, base in (
            ("R", RTree, rects, sam_files, 107),
            ("GRID", TwoLevelGridFile, points, pam_files, 101),
        ):
            sets = [
                make_files(derive(base, seed * SETS_PER_SEED + j)) for j in range(1, STREAM_SETS + 1)
            ]
            probes = _rotation(sets, len(data) // 10)
            streams.append(_Stream(name, factory, data, Oracle(data), probes, make_files, base))
        return {"seed": seed, "streams": streams}

    def inputs(self, state, k):
        """``k`` and round ``k``'s query files: a fresh set per round, so a
        run's tail latencies rest on more than one seed's queries."""
        set_seed = state["seed"] * SETS_PER_SEED + STREAM_SETS + k
        return k, {s.name: s.make_files(derive(s.base, set_seed)) for s in state["streams"]}

    def round(self, state, inputs, rec):
        k, files = inputs
        result = Round()
        tracer = rec.tracer
        for s in state["streams"]:
            path = OUT / "stores" / f"{os.getpid()}-{s.name}-{k}"
            shutil.rmtree(path, ignore_errors=True)
            budget = POOL_PAGES[s.name]
            io = BenchIO(tracer)
            store = DiskPageStore(path, PAGE_SIZE, pool_pages=budget, fsync=False, io=io)
            method = s.factory(store)
            peak = [0]
            answers = run_stream(s, method, rec, store, peak)
            warm = run_files(method, files[s.name], rec)
            charged = store.stats.snapshot()
            before = store.io_stats()
            # Crash: commit the method's state as meta, then drop the
            # store without close(), as a killed process would.
            store.commit(meta=snapshot_method(method))
            io.abandon()

            def reopen():
                again = DiskPageStore(path, PAGE_SIZE, pool_pages=budget, fsync=False, io=BenchIO(tracer))
                return restore_method(again, again.meta_blob)

            start = time.perf_counter_ns()
            restored = reopen() if tracer is None else tracer.wrap("disk.recover", reopen)()
            result.rebuild.append((start, time.perf_counter_ns()))
            cold = run_files(restored, files[s.name], rec)
            after = restored.store.io_stats()

            result.charged_reads += charged.reads + restored.store.stats.reads
            result.charged_writes += charged.writes + restored.store.stats.writes
            physical = before["wal"]["bytes"] + before["pagefile"]["bytes_written"]
            result.written += physical
            result.live += physical / before["write_amplification"]
            result.user += len(s.data) * _record_size(s.data)
            for io_stats in (before, after):
                for key in ("hits", "misses", "evictions", "overflows", "silent_dirty"):
                    result.pool[key] = result.pool.get(key, 0) + io_stats["pool"][key]
                result.wal_bytes += io_stats["wal"]["bytes"]
            result.peak_resident_ratio = max(result.peak_resident_ratio, peak[0] / budget)
            result.outcomes[s.name] = (charged, answers, warm, cold, restored.store, path)
        return result

    @staticmethod
    def _reference(state, files) -> dict:
        """The round's inputs on the sim store: stats, answers, file outcomes."""
        from perfbench.measure import Clock, Recorder

        rec = Recorder(Clock(every_ns=math.inf))
        reference = {}
        for s in state["streams"]:
            method = s.factory(make_store(PAGE_SIZE, backend="sim"))
            answers = run_stream(s, method, rec)
            warm = run_files(method, files[s.name], rec)
            reference[s.name] = (method.store.stats.snapshot(), answers, warm)
        return reference

    def check(self, state, inputs, result):
        _, files = inputs
        failures = []
        reference = self._reference(state, files)
        for s in state["streams"]:
            charged, answers, warm, cold, store, path = result.outcomes.pop(s.name)
            store.close()
            result.stored += sum(p.stat().st_size for p in path.iterdir())
            shutil.rmtree(path, ignore_errors=True)
            sim_charged, sim_answers, sim_warm = reference[s.name]
            if charged != sim_charged:
                failures.append((1, f"{s.name}: disk AccessStats {charged.as_dict()} != sim {sim_charged.as_dict()}"))
            if answers != sim_answers or warm != sim_warm:
                failures.append((1, f"{s.name}: disk costs or answers differ from the sim store"))
            wrong = sum(
                result_rids(op, answer) != s.oracle.answer(op, query, 10 * (i + 1))
                for i, ((op, query), answer) in enumerate(zip(s.probes, answers))
            )
            if wrong:
                failures.append((wrong, f"{s.name}: {wrong} stream answers differ from brute force"))
            failures += check_files(
                oracle_answers(s.oracle, files[s.name]), files[s.name], warm, f"{s.name} before restart"
            )
            moved = sum(
                c[1] != w[1] for cold_out, warm_out in zip(cold, warm) for c, w in zip(cold_out, warm_out)
            )
            if moved:
                failures.append((moved, f"{s.name}: {moved} answers after restart differ from before"))
        return failures


WORKLOADS = {cls.name: cls for cls in (PaperBuild, PaperQuery, DurableMixed)}
