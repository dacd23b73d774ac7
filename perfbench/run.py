"""The repository benchmark: one command, three workloads, every metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-build --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload, untraced
    python3 perfbench/run.py --workload durable-mixed --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is non-zero if any correctness check failed.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper-build", "paper-query", "durable-mixed")

#: End-to-end metrics: (name, unit, better).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("inserts_per_s", "1/s", "higher"),
    ("queries_per_s", "1/s", "higher"),
    ("insert_p50_us", "us", "lower"),
    ("insert_p999_us", "us", "lower"),
    ("query_p50_us", "us", "lower"),
    ("query_p99_us", "us", "lower"),
    ("recovery_s", "s", "lower"),
    ("write_amp", "ratio", "lower"),
    ("space_amp", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    "am.insert.calls", "am.insert.self_s", "am.query.calls", "am.query.self_s", "am.pack.s",
    "geometry.rect.calls", "geometry.kernel.calls", "geometry.kernel.self_s",
    "query.file.calls", "query.driver.self_s", "query.flush.calls", "query.flush.self_s",
    "soa.view.builds", "soa.view.self_s",
    "pagestore.read.calls", "pagestore.write.calls", "pagestore.self_s",
    "pagestore.charged_reads", "pagestore.charged_writes",
    "pool.hits", "pool.misses", "pool.hit_rate", "pool.evictions", "pool.overflows",
    "pool.peak_resident_ratio", "pool.silent_dirty", "pool.fault.self_s", "pool.admit.self_s",
    "disk.commit.calls", "disk.commit.self_s", "disk.checkpoint.calls", "disk.checkpoint.s",
    "disk.recover.s",
    "wal.append.calls", "wal.append.self_s", "wal.commit.self_s", "wal.replay.self_s", "wal.bytes",
    "io.pread.calls", "io.pread.bytes", "io.pread.s",
    "io.pwrite.calls", "io.pwrite.bytes", "io.pwrite.s",
    "io.fsync.calls", "io.fsync.s",
    "trace.residual_s", "trace.overhead_ratio",
)


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("ratio", "rate")):
        return "ratio"
    return "count"


def pin_environment() -> list[str]:
    """Run the default program: drop every ``REPRO_*`` knob."""
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    return cleared


def git_commit() -> str:
    """HEAD of the checkout, or ``unknown`` when it is not a git work tree
    of its own (a parent directory's repository does not count)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def run_rounds(workload, state, rec, *, seconds=None, rounds=None, tracer=None):
    """Timed rounds, with checks between them (untimed): ``rounds`` of
    them, or while the time used plus half the last round stays within
    ``seconds``, so the run ends within half a round of ``seconds``."""
    from perfbench.tracing import install

    clock = rec.clock
    done, failures = [], []
    k = 1
    while True:
        if rounds is not None:
            if k > rounds:
                break
        elif done and sum(r.raw_wall_ns for r in done) + done[-1].raw_wall_ns / 2 > seconds * 1e9:
            break
        inputs = workload.inputs(state, k)
        gc.collect()
        patches = install(tracer) if tracer is not None else None
        clock.probe()
        try:
            start = clock.now()
            result = workload.round(state, inputs, rec)
            end = clock.now()
        finally:
            if patches is not None:
                patches.restore()
        result.raw_wall_ns = end - start
        result.wall_ns = clock.normalized_ns(start, end)
        result.rebuild_ns = sum(clock.normalized_ns(a, b) for a, b in result.rebuild)
        failures += workload.check(state, inputs, result)
        done.append(result)
        k += 1
    return done, failures


def end_to_end(workload, seed: int, seconds: int):
    from perfbench.measure import Clock, Recorder, peak_rss_mb

    clock = Clock()
    setup_rec = Recorder(clock)
    setup_ns = []
    state = None
    for _ in range(workload.setup_reps):
        state = None  # free the previous set-up before building the next
        gc.collect()
        clock.probe()
        start = clock.now()
        state = workload.setup(seed, setup_rec)
        setup_ns.append(clock.normalized_ns(start, clock.now()))
    rec = Recorder(clock)
    rounds, failures = run_rounds(workload, state, rec, seconds=seconds)
    metrics = {
        "setup_s": statistics.median(setup_ns) / 1e9,
        "run_s": statistics.median(r.wall_ns for r in rounds) / 1e9,
    }
    # Latency and throughput pool every request of the timed rounds;
    # paper-query inserts only in set-up, so its insert figures pool the
    # requests of all its set-ups.
    metrics.update(setup_rec.take())
    metrics.update(rec.take())
    metrics.update(workload.end_to_end(state, rounds, clock))
    metrics["peak_rss_mb"] = peak_rss_mb()
    metrics = {name: float(metrics[name]) for name, _, _ in END_TO_END}
    units = {name: unit for name, unit, _ in END_TO_END}
    notes = {
        "rounds": len(rounds),
        "setups": len(setup_ns),
        "raw_run_s": statistics.median(r.raw_wall_ns for r in rounds) / 1e9,
        "probe_ms": statistics.median(clock.probes) / 1e6,
    }
    return metrics, units, setup_rec.attempted + rec.attempted, failures, notes


def per_layer(workload, seed: int):
    from perfbench.measure import Clock, Recorder
    from perfbench.tracing import Tracer
    from perfbench.workloads import OUT

    # Probes only between rounds: inside a traced round they would land
    # in the residual.
    clock = Clock(every_ns=math.inf)
    state = workload.setup(seed, Recorder(clock))
    rec = Recorder(clock)
    reference, failures = run_rounds(workload, state, rec, rounds=workload.trace_rounds)
    tracer = Tracer()
    traced_rec = Recorder(clock, tracer)
    traced, traced_failures = run_rounds(
        workload, state, traced_rec, rounds=workload.trace_rounds, tracer=tracer
    )
    metrics = tracer.layer_metrics(sum(r.raw_wall_ns for r in traced))
    metrics["trace.overhead_ratio"] = (
        sum(r.wall_ns for r in traced) / sum(r.wall_ns for r in reference) - 1
    )
    metrics["pagestore.charged_reads"] = sum(r.charged_reads for r in traced)
    metrics["pagestore.charged_writes"] = sum(r.charged_writes for r in traced)
    for key in ("hits", "misses", "evictions", "overflows", "silent_dirty"):
        metrics[f"pool.{key}"] = sum(r.pool.get(key, 0) for r in traced)
    probes = metrics["pool.hits"] + metrics["pool.misses"]
    metrics["pool.hit_rate"] = metrics["pool.hits"] / probes if probes else 0.0
    metrics["pool.peak_resident_ratio"] = max(r.peak_resident_ratio for r in traced)
    metrics["wal.bytes"] = sum(r.wal_bytes for r in traced)
    metrics = {name: metrics[name] for name in PER_LAYER}
    spans = tracer.save(OUT / f"spans-{workload.name}.npz")
    notes = {"rounds": len(traced), "spans": len(tracer.span_start), "spans_file": str(spans.relative_to(ROOT))}
    attempted = rec.attempted + traced_rec.attempted
    return metrics, {n: layer_unit(n) for n in PER_LAYER}, attempted, failures + traced_failures, notes


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    from perfbench.workloads import POOL_PAGES, WORKLOADS

    import numpy

    workload = WORKLOADS[name]()
    durable = name == "durable-mixed"
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "flush": "fsync=False (commit without fsync)" if durable else "none (sim store)",
        "pool_pages": POOL_PAGES if durable else None,
    }
    print("# " + json.dumps(record))
    measure = per_layer(workload, seed) if trace else end_to_end(workload, seed, seconds)
    metrics, units, attempted, failures, notes = measure
    failed = sum(count for count, _ in failures)
    for _, message in failures:
        print(f"FAIL {name}: {message}", file=sys.stderr)
    print(f"# {name}: {json.dumps(notes)}")
    for metric, value in metrics.items():
        print(f"{name:14s} {metric:26s} {value!r:>24} {units[metric]}")
    print(f"{name:14s} {'failed_ops_ratio':26s} {failed / attempted!r:>24} ratio")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
            }
        )
    )
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or child.returncode
        if not lines or not lines[-1].startswith("{"):
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0, help="0 reproduces the committed RUN files")
    parser.add_argument("--seconds", type=int, default=25, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program source {ROOT / 'src' / 'repro'} not found", file=sys.stderr)
        return 2
    cleared = pin_environment()
    if cleared:
        print(f"note: cleared {', '.join(cleared)}", file=sys.stderr)
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
