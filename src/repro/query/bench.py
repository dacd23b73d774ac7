"""``python -m repro.query.bench`` — the reference vs production A/B harness.

Runs the full §3/§7 query workload twice against every structure of the
fuzz matrix (:data:`repro.verify.fuzz.STRUCTURES`) — once through the
scalar reference descents (:func:`repro.verify.reference.as_reference`,
reported as ``scalar``) and once through the production batched path
(reported as ``vector``) — and verifies that every per-query disk-access
count and every per-query result list is **bit-identical** across the
two passes.  Each pass builds its structures from scratch, so path-buffer
state cannot leak between passes.

The identity matrix runs at two page sizes: the paper's 512-byte pages
(the canonical testbed configuration) and the larger bench page size.
Timing is reported from the bench page size, where a page holds a few
hundred records and in-page predicate work dominates; at 512 bytes a page
holds ~20 records and Python traversal overhead bounds the achievable
gain (those numbers are recorded too, as ``per_structure_paper``).  The
headline ``speedup`` is aggregated over the structures of the standard
comparison driver (:data:`DRIVER_STRUCTURES`).

It then repeats the standard testbed comparison under a tracer on both
paths, saves the two :class:`~repro.obs.export.RunReport` files, and
records wall-clock numbers in ``results/BENCH_QUERY.json``::

    PYTHONPATH=src python -m repro.query.bench --scale 2000

CI diffs the two reports with ``python -m repro.obs.report`` and a zero
fail-threshold: any access-count drift between the reference and the
production path fails the build.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.comparison import PAM_QUERY_TYPES
from repro.core.testbed import standard_pam_factories, standard_sam_factories
from repro.obs.runner import traced_pam_run, traced_sam_run
from repro.query.driver import run_query_file
from repro.storage.pagestore import PageStore
from repro.verify.fuzz import STRUCTURES, _point_pool, _rect_pool
from repro.verify.reference import as_reference, reference_factories
from repro.workloads.distributions import generate_point_file
from repro.workloads.rect_distributions import generate_rect_file
from repro.workloads.queries import (
    RANGE_QUERY_VOLUMES,
    generate_partial_match_queries,
    generate_range_queries,
    generate_rect_query_workload,
)

__all__ = [
    "BENCH_SCHEMA",
    "DRIVER_STRUCTURES",
    "PAPER_PAGE_SIZE",
    "query_pass",
    "run_identity_matrix",
    "main",
    "results_dir",
]

#: Schema identifier of results/BENCH_QUERY.json.
BENCH_SCHEMA = "repro.query/bench/v1"

#: Fuzz-matrix names of the structures the standard comparison driver runs
#: (testbed PAMs incl. the packed BUDDY+ derivation, and the four SAMs) —
#: the subset the headline speedup aggregates over.
DRIVER_STRUCTURES = (
    "HB",
    "BANG",
    "BANG*",
    "GRID",
    "BUDDY",
    "BUDDY+",
    "R",
    "T-BANG",
    "T-BUDDY",
    "PLOP-SAM",
)

#: The paper's page size — identity always runs here too.
PAPER_PAGE_SIZE = 512


def results_dir() -> Path:
    """The repo's ``results/`` directory (falls back to ``./results``)."""
    for parent in Path(__file__).resolve().parents:
        if (parent / "results").is_dir() or (parent / "pyproject.toml").is_file():
            return parent / "results"
    return Path.cwd() / "results"


def _run_workload(method, kind: str) -> list[tuple[str, list]]:
    """The full query workload of one structure as ``(label, outcomes)``.

    Outcomes are the driver's per-query ``(cost, result)`` pairs — the
    exact material the identity check compares across the two paths.
    """
    files: list[tuple[str, list]] = []
    if kind == "pam":
        for label, volume in zip(PAM_QUERY_TYPES[:3], RANGE_QUERY_VOLUMES):
            queries = generate_range_queries(volume, seed=101)
            files.append(
                (label, run_query_file(method, "range", queries, method.range_query))
            )
        for label, axis in (("pm_x", 0), ("pm_y", 1)):
            queries = generate_partial_match_queries(axis, seed=103)
            files.append(
                (label, run_query_file(method, "pm", queries, method.partial_match))
            )
        return files
    workload = generate_rect_query_workload(seed=107)
    files.append(
        ("point", run_query_file(method, "point", workload["points"], method.point_query))
    )
    for label, operation in (
        ("intersection", method.intersection),
        ("enclosure", method.enclosure),
        ("containment", method.containment),
    ):
        files.append(
            (label, run_query_file(method, label, workload["rectangles"], operation))
        )
    return files


def query_pass(
    name: str, spec: dict, data, page_size: int, reference: bool
) -> tuple[list[tuple[str, list]], float, str]:
    """Build one structure from scratch and run its query workload.

    ``reference`` runs the queries through the scalar reference descents
    instead of the production path.  Returns ``(outcomes, query_seconds,
    final store stats)``.  The build is inside the pass so the
    search-path buffer enters the query phase in the same state on both
    paths.
    """
    method = spec["factory"](PageStore(page_size))
    if reference:
        method = as_reference(method)
    store = method.store
    for rid, item in enumerate(data):
        method.insert(item, rid)
    if name == "BUDDY+":
        method.pack()
    start = time.perf_counter()
    outcomes = _run_workload(method, spec["kind"])
    seconds = time.perf_counter() - start
    return outcomes, seconds, repr(store.stats.snapshot())


def run_identity_matrix(
    scale: int, page_size: int = 512, seed: int = 4242, repeat: int = 1
) -> tuple[dict, list[str]]:
    """A/B the whole structure matrix; returns ``(timings, mismatches)``.

    ``repeat`` re-times each structure's query phase that many times per
    path and keeps the per-structure minimum — outcomes and statistics
    are compared on the first repetition only (they are deterministic;
    extra repetitions exist purely to shed scheduler noise from the
    wall-clock numbers, which matters when CI gates on a speedup floor).
    """
    points = _point_pool(scale, seed)
    rects = _rect_pool(scale, seed + 1)
    timings: dict[str, dict[str, float]] = {}
    mismatches: list[str] = []
    for name, spec in STRUCTURES.items():
        data = points if spec["kind"] == "pam" else rects
        scalar, scalar_s, scalar_stats = query_pass(name, spec, data, page_size, True)
        vector, vector_s, vector_stats = query_pass(name, spec, data, page_size, False)
        for _ in range(repeat - 1):
            _, s_again, _ = query_pass(name, spec, data, page_size, True)
            _, v_again, _ = query_pass(name, spec, data, page_size, False)
            scalar_s = min(scalar_s, s_again)
            vector_s = min(vector_s, v_again)
        timings[name] = {
            "scalar_seconds": scalar_s,
            "vector_seconds": vector_s,
            "speedup": scalar_s / vector_s if vector_s else float("inf"),
        }
        if scalar_stats != vector_stats:
            mismatches.append(f"{name}: store totals differ ({scalar_stats} vs {vector_stats})")
        for (label, a), (_, b) in zip(scalar, vector):
            for i, ((cost_a, hits_a), (cost_b, hits_b)) in enumerate(zip(a, b)):
                if cost_a != cost_b:
                    mismatches.append(
                        f"{name}/{label}[{i}]: cost {cost_a} (scalar) != {cost_b} (vector)"
                    )
                if hits_a != hits_b:
                    mismatches.append(
                        f"{name}/{label}[{i}]: results differ "
                        f"({len(hits_a)} scalar vs {len(hits_b)} vector hits)"
                    )
    return timings, mismatches


def _write_reports(scale: int, page_size: int, out_dir: Path) -> dict[str, str]:
    """Standard-testbed RunReports on both paths, for the CI diff gate.

    ``scalar`` is the reference run, ``vector`` the production run.
    """
    points = generate_point_file("uniform", scale, seed=1)
    rects = generate_rect_file("uniform_small", scale, seed=2)
    paths: dict[str, str] = {}
    for mode, wrap in (("scalar", reference_factories), ("vector", dict)):
        _, pam_report = traced_pam_run(
            wrap(standard_pam_factories()),
            points,
            label=f"query bench PAM ({mode})",
            page_size=page_size,
        )
        _, sam_report = traced_sam_run(
            wrap(standard_sam_factories()),
            rects,
            label=f"query bench SAM ({mode})",
            page_size=page_size,
        )
        pam_path = out_dir / f"BENCH_QUERY_pam_{mode}.json"
        sam_path = out_dir / f"BENCH_QUERY_sam_{mode}.json"
        pam_report.save(pam_path)
        sam_report.save(sam_path)
        paths[f"pam_{mode}"] = str(pam_path)
        paths[f"sam_{mode}"] = str(sam_path)
    return paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.query.bench",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--scale", type=int, default=2000, help="records per build")
    parser.add_argument(
        "--page-size",
        type=int,
        default=8192,
        help="bench page size for the timed matrix (identity also runs at 512)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="time each structure's query phase N times per path and keep "
        "the minimum (identity is checked on the first repetition)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail (exit 2) if the comparison-driver speedup over the "
        "reference is below this factor",
    )
    parser.add_argument(
        "--skip-paper-identity",
        action="store_true",
        help="skip the extra identity matrix at the paper's 512-byte pages",
    )
    parser.add_argument(
        "--skip-reports",
        action="store_true",
        help="skip the traced standard-testbed RunReport pair",
    )
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="record the run to the performance ledger (a path, or '1' for "
        "results/LEDGER.jsonl; default: off unless REPRO_LEDGER is set)",
    )
    args = parser.parse_args(argv)

    out_dir = args.out.parent if args.out else results_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = args.out or out_dir / "BENCH_QUERY.json"

    timings, mismatches = run_identity_matrix(
        args.scale, args.page_size, repeat=args.repeat
    )
    paper_timings: dict[str, dict[str, float]] = {}
    if not args.skip_paper_identity and args.page_size != PAPER_PAGE_SIZE:
        paper_timings, paper_mismatches = run_identity_matrix(
            args.scale, PAPER_PAGE_SIZE, repeat=args.repeat
        )
        mismatches += [f"[page {PAPER_PAGE_SIZE}] {m}" for m in paper_mismatches]

    scalar_total = sum(t["scalar_seconds"] for t in timings.values())
    vector_total = sum(t["vector_seconds"] for t in timings.values())
    matrix_speedup = scalar_total / vector_total if vector_total else float("inf")
    driver_scalar = sum(timings[k]["scalar_seconds"] for k in DRIVER_STRUCTURES)
    driver_vector = sum(timings[k]["vector_seconds"] for k in DRIVER_STRUCTURES)
    speedup = driver_scalar / driver_vector if driver_vector else float("inf")

    report_paths = {}
    if not args.skip_reports:
        report_paths = _write_reports(args.scale, PAPER_PAGE_SIZE, out_dir)

    payload = {
        "schema": BENCH_SCHEMA,
        "scale": args.scale,
        "page_size": args.page_size,
        "repeat": args.repeat,
        "paper_page_size": PAPER_PAGE_SIZE,
        "structures": len(timings),
        "driver_structures": list(DRIVER_STRUCTURES),
        "identical": not mismatches,
        "mismatches": mismatches,
        "scalar_seconds": driver_scalar,
        "vector_seconds": driver_vector,
        "speedup": speedup,
        "matrix_scalar_seconds": scalar_total,
        "matrix_vector_seconds": vector_total,
        "matrix_speedup": matrix_speedup,
        "per_structure": timings,
        "per_structure_paper": paper_timings,
        "reports": report_paths,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    out_path.write_text(json.dumps(payload, indent=1) + "\n")

    from repro.obs.ledger import entry_from_bench_document, resolve_ledger

    ledger = resolve_ledger(args.ledger)
    if ledger is not None:
        entry = ledger.record(
            entry_from_bench_document(payload, path=str(out_path))
        )
        print(f"  ledger: recorded {entry.run_id} -> {ledger.path}")

    print(
        f"query A/B (scalar = reference, vector = production) over "
        f"{len(timings)} structures at scale {args.scale}, "
        f"page size {args.page_size}:"
    )
    print(f"  matrix  scalar {scalar_total:8.3f}s  vector {vector_total:8.3f}s   "
          f"({matrix_speedup:.2f}x)")
    print(f"  driver  scalar {driver_scalar:8.3f}s  vector {driver_vector:8.3f}s   "
          f"({speedup:.2f}x)")
    print(f"  wrote {out_path}")
    if mismatches:
        print(
            f"FAIL: {len(mismatches)} reference/production mismatches",
            file=sys.stderr,
        )
        for line in mismatches[:20]:
            print(f"  {line}", file=sys.stderr)
        return 2
    print("  all per-query access counts and results bit-identical")
    if args.min_speedup is not None and speedup < args.min_speedup:
        print(
            f"FAIL: driver speedup {speedup:.2f}x below required "
            f"{args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
