"""The traced run: patching, exact self-time accounting, request ids."""

import sys
import time

import numpy as np
import pytest

from perfbench import run, workloads
from perfbench.measure import Clock, Recorder
from perfbench.tracing import SELF_METRICS, Tracer, install


def _program_namespace() -> dict:
    """Every attribute of every loaded program module and of its classes."""
    seen = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro"):
            continue
        for attr, value in vars(mod).items():
            seen[name, attr] = value
            if isinstance(value, type):
                for cattr, cvalue in vars(value).items():
                    seen[name, attr, cattr] = cvalue
    return seen


class _SmallBuild(workloads.PaperBuild):
    records = 300


class _SmallDurable(workloads.DurableMixed):
    records = 300


@pytest.fixture(scope="module")
def traced_round():
    """One traced paper-build round plus one traced durable round."""
    tracer = Tracer()
    clock = Clock(every_ns=float("inf"))
    rec = Recorder(clock, tracer)
    wall = 0
    for workload in (_SmallBuild(), _SmallDurable()):
        state = workload.setup(1, Recorder(clock))
        inputs = workload.inputs(state, 1)
        patches = install(tracer)
        try:
            start = time.perf_counter_ns()
            result = workload.round(state, inputs, rec)
            wall += time.perf_counter_ns() - start
        finally:
            patches.restore()
        assert workload.check(state, inputs, result) == []
    return tracer, wall


def test_traced_run_restores_the_original_functions():
    before = _program_namespace()
    metrics, _, _, failures, _ = run.per_layer(_SmallBuild(), 1)
    assert failures == []
    assert metrics["am.insert.calls"] > 0 and metrics["geometry.rect.calls"] > 0
    after = _program_namespace()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert changed == []


def test_install_replaces_entry_points():
    from repro.core.interfaces import PointAccessMethod
    from repro.query import driver

    original = (PointAccessMethod.insert, driver.run_query_file)
    patches = install(Tracer())
    try:
        assert PointAccessMethod.insert is not original[0]
        assert driver.run_query_file is not original[1]
    finally:
        patches.restore()
    assert (PointAccessMethod.insert, driver.run_query_file) == original


def test_self_times_plus_residual_equal_the_traced_wall(traced_round):
    tracer, wall = traced_round
    by_metric = tracer.self_ns_by_metric()
    residual = tracer.residual_ns(wall)
    assert residual >= 0
    assert sum(by_metric.values()) + residual == wall
    # The online sums agree with self times recomputed from the stored spans.
    per_span = tracer.span_self_ns()
    names = np.frombuffer(tracer.span_name, dtype=np.int32)
    recomputed = dict.fromkeys(by_metric, 0)
    for nid, name in enumerate(tracer.names):
        recomputed[SELF_METRICS[name]] += int(per_span[names == nid].sum())
    assert recomputed == by_metric
    assert by_metric["io.pwrite.s"] > 0 and by_metric["am.insert.self_s"] > 0


def test_spans_of_one_request_share_its_id(traced_round):
    tracer, _ = traced_round
    names = np.frombuffer(tracer.span_name, dtype=np.int32)
    parents = np.frombuffer(tracer.span_parent, dtype=np.int32)
    requests = np.frombuffer(tracer.span_request, dtype=np.int64)
    request_spans = {tracer.names.index(n) for n in ("am.insert", "am.query") if n in tracer.names}
    owner = np.full(len(names), -1)
    for i in range(len(names)):  # parents precede children
        if names[i] in request_spans:
            owner[i] = i
        elif parents[i] >= 0:
            owner[i] = owner[parents[i]]
    inside = owner >= 0
    assert inside.sum() > len(request_spans)
    assert (requests[inside] == requests[owner[inside]]).all()
    roots = np.flatnonzero(owner == np.arange(len(names)))
    assert len(set(requests[roots].tolist())) == len(roots)
