"""The benchmark's own measurement helpers and correctness checks."""

import copy
import json

import pytest

from perfbench import run
from perfbench.measure import percentile
from perfbench.workloads import (
    ROOT,
    Oracle,
    pam_files,
    run_file_mismatches,
    sam_files,
)
from repro.verify.oracle import PamOracle, SamOracle
from repro.workloads.distributions import generate_point_file
from repro.workloads.rect_distributions import generate_rect_file


def test_percentile_refuses_a_tail_of_fewer_than_ten():
    samples = list(range(1, 1000))
    with pytest.raises(ValueError):
        percentile(samples, 0.99)  # 999 samples: 9 beyond p99
    assert percentile(samples + [1000], 0.99) == 990
    assert percentile(list(range(1, 10_000)) + [10_000], 0.999) == 9990
    with pytest.raises(ValueError):
        percentile(list(range(9_999)), 0.999)
    assert percentile([5, 1, 3] * 10, 0.5) == 3


def _averages(doc: dict) -> dict:
    return {
        name: {label: (q["mean"], q["results"]) for label, q in entry["queries"].items()}
        for name, entry in doc["structures"].items()
    }


@pytest.mark.parametrize("name", ["RUN-PAM-diagonal.json", "RUN-SAM-uniform_small.json"])
def test_run_file_check_fails_on_a_perturbed_count(name):
    doc = json.loads((ROOT / "results" / name).read_text())
    assert run_file_mismatches(doc, _averages(doc)) == []
    perturbed = copy.deepcopy(doc)
    structure = next(iter(perturbed["structures"].values()))
    query = next(iter(structure["queries"].values()))
    query["mean"] += 0.05
    assert len(run_file_mismatches(perturbed, _averages(doc))) == 1
    averages = _averages(doc)
    del averages[next(iter(averages))]
    assert run_file_mismatches(doc, averages)


def _sorted_rids(result) -> list:
    return sorted(r[1] if isinstance(r, tuple) else r for r in result)


def test_oracle_matches_the_reference_scan():
    points = generate_point_file("cluster", 400, seed=3)
    rects = generate_rect_file("gaussian_square", 400, seed=3)
    pam, sam = PamOracle(), SamOracle()
    for rid, (p, r) in enumerate(zip(points, rects)):
        pam.insert(p, rid)
        sam.insert(r, rid)
    cases = [(Oracle(points), pam, f.op, q) for f in pam_files(101) for q in f.queries]
    # Partial-match values taken from the data, so those queries have hits.
    cases += [(Oracle(points), pam, "partial_match", {1: points[i][1]}) for i in range(0, 400, 40)]
    cases += [(Oracle(rects), sam, f.op, q) for f in sam_files(107) for q in f.queries]
    hits = 0
    for oracle, reference, op, query in cases:
        expected = _sorted_rids(getattr(reference, op)(query))
        assert oracle.answer(op, query) == expected
        hits += len(expected)
    assert hits > 0
    window = sam_files(107)[1].queries[-1]
    assert Oracle(rects).answer("intersection", window, 50) == [
        rid for rid in range(50) if rects[rid].intersects(window)
    ]


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, run.layer_unit(name)) for name in run.PER_LAYER
    ]
