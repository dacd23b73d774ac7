"""The normalised clock, the tail-percentile rule and the closed-loop issuer."""

from __future__ import annotations

import gc
import math
import random
import resource
import time
from array import array
from bisect import bisect_right

import numpy as np

#: A tail percentile is reported only with at least this many samples
#: beyond it; fewer would make it the maximum of a handful of calls.
MIN_TAIL = 10

#: Between requests, a probe runs once this much time has passed.
PROBE_EVERY_NS = 250_000_000
#: Boxes one probe visits (a few ms), out of a pool of ``PROBE_POOL``.
PROBE_STEPS = 3_000
PROBE_POOL = 40_000
#: The probe time that defines the reference speed: a segment whose
#: probes took this long is reported unscaled.
REFERENCE_NS = 5_000_000


def percentile(samples, p: float) -> float:
    """Nearest-rank ``p``-quantile (``0 < p < 1``) of ``samples``.

    Refuses (``ValueError``) when fewer than :data:`MIN_TAIL` samples lie
    beyond the requested rank.
    """
    n = len(samples)
    rank = math.ceil(p * n - 1e-9)  # 1-based; the epsilon absorbs p*n float error
    beyond = n - rank
    if rank < 1 or beyond < MIN_TAIL:
        raise ValueError(
            f"p{100 * p:g} of {n} samples has {beyond} beyond it; "
            f"need at least {MIN_TAIL}"
        )
    return np.partition(np.asarray(samples), rank - 1)[rank - 1].item()


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Box:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi


class _Probe:
    """Fixed work in the access methods' operation mix, none of their code:
    attribute loads from boxes scattered over a pool of several MB (so it
    misses caches like a page walk does), float-tuple unions, areas and
    dict stores."""

    def __init__(self):
        rng = random.Random(0)
        self.boxes = [
            _Box((rng.random(), rng.random()), (1 + rng.random(), 1 + rng.random()))
            for _ in range(PROBE_POOL)
        ]
        self.order = list(range(PROBE_POOL))
        rng.shuffle(self.order)
        self.offset = 0

    def __call__(self) -> float:
        boxes, order = self.boxes, self.order
        first = self.offset
        self.offset = (first + PROBE_STEPS) % (PROBE_POOL - PROBE_STEPS - 1)
        table = {}
        acc = 0.0
        for j in range(first, first + PROBE_STEPS):
            a = boxes[order[j]]
            b = boxes[order[j + 1]]
            lo = (min(a.lo[0], b.lo[0]), min(a.lo[1], b.lo[1]))
            hi = (max(a.hi[0], b.hi[0]), max(a.hi[1], b.hi[1]))
            acc += (hi[0] - lo[0]) * (hi[1] - lo[1])
            table[j & 1023] = lo
        return acc


class Clock:
    """Wall time normalised to a reference speed of the machine.

    A shared machine changes speed by tens of percent for seconds to
    minutes at a time (other tenants on the same cores), and the program
    and any fixed code slow down together.  So, between requests, the
    clock runs a short fixed probe (:class:`_Probe`, best of two) every
    ``every_ns``.  The time between two probes is a *segment*; its
    length is scaled by ``REFERENCE_NS`` over the mean of the two probes.
    A change that makes the program faster leaves the probe alone, so it
    shows in full.  Probe time belongs to no segment, so it is excluded
    from every measured interval.
    """

    def __init__(self, every_ns: float = PROBE_EVERY_NS):
        self.every_ns = every_ns
        self.starts = array("q")
        self.ends = array("q")
        self.factors = array("d")
        self.probes = array("q")
        self._probe = _Probe()
        self._open = 0
        self.probe()

    @staticmethod
    def now() -> int:
        return time.perf_counter_ns()

    @property
    def segment(self) -> int:
        """Index the open segment gets when the next probe closes it."""
        return len(self.factors)

    def probe(self) -> None:
        """Close the open segment with a probe and open the next one."""
        start = time.perf_counter_ns()
        enabled = gc.isenabled()
        gc.disable()  # a collection of program garbage is not probe time
        try:
            best = None
            for _ in range(2):
                t0 = time.perf_counter_ns()
                self._probe()
                took = time.perf_counter_ns() - t0
                best = took if best is None else min(best, took)
        finally:
            if enabled:
                gc.enable()
        if self.probes:
            self.starts.append(self._open)
            self.ends.append(start)
            self.factors.append(2 * REFERENCE_NS / (self.probes[-1] + best))
        self.probes.append(best)
        self._open = time.perf_counter_ns()

    def tick(self) -> None:
        """Probe if the open segment is old enough (call between requests)."""
        if time.perf_counter_ns() - self._open >= self.every_ns:
            self.probe()

    def normalized_ns(self, start: int, end: int) -> float:
        """Normalised length of ``[start, end)``; probe the end first."""
        if end > self._open:
            self.probe()
        total = 0.0
        i = bisect_right(self.ends, start)
        while i < len(self.factors) and self.starts[i] < end:
            total += (min(end, self.ends[i]) - max(start, self.starts[i])) * self.factors[i]
            i += 1
        return total


class Recorder:
    """Issues every insert and query of a run and times each one.

    The load is a closed loop on one thread: a request is issued only
    after the previous one returned.  With a tracer attached, each
    request gets a fresh request id, so the spans it causes share it.
    """

    def __init__(self, clock: Clock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.attempted = 0
        self._reset()

    def _reset(self) -> None:
        self.insert_ns, self.insert_seg = array("q"), array("i")
        self.query_ns, self.query_seg = array("q"), array("i")

    def begin_request(self) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request += 1

    def insert(self, method, item, rid) -> None:
        self.begin_request()
        start = time.perf_counter_ns()
        method.insert(item, rid)
        self.insert_ns.append(time.perf_counter_ns() - start)
        self.insert_seg.append(self.clock.segment)
        self.clock.tick()

    def query(self, operation, query):
        self.begin_request()
        start = time.perf_counter_ns()
        result = operation(query)
        self.query_ns.append(time.perf_counter_ns() - start)
        self.query_seg.append(self.clock.segment)
        self.clock.tick()
        return result

    def timed(self, operation):
        """``operation`` as a one-argument callable that records each call."""
        return lambda query: self.query(operation, query)

    def take(self) -> dict:
        """Normalised throughput and latency of the requests since the last take."""
        self.clock.probe()
        factors = np.frombuffer(self.clock.factors, dtype=np.float64)
        out = {}
        for ns, seg, names, tail in (
            (self.insert_ns, self.insert_seg, ("inserts_per_s", "insert_p50_us", "insert_p999_us"), 0.999),
            (self.query_ns, self.query_seg, ("queries_per_s", "query_p50_us", "query_p99_us"), 0.99),
        ):
            if not ns:
                continue
            scaled = np.frombuffer(ns, dtype=np.int64) * factors[np.frombuffer(seg, dtype=np.int32)]
            rate, median, high = names
            out[rate] = len(scaled) * 1e9 / scaled.sum()
            out[median] = percentile(scaled, 0.5) / 1e3
            out[high] = percentile(scaled, tail) / 1e3
        self._reset()
        return out
