"""Serving-stack benchmark: one seeded workload per run, metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload trace-cold --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with the program unmodified.
``--trace 1`` alternates untraced and traced blocks (the layer wrappers of
``tracer.py`` installed), half the time each, and reports the per-layer
metrics; alternating keeps machine drift out of the tracing overhead.  Both check every outcome against the uncached serial
reference.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit and sample count, and the run's stamp.  The
full record (stamp, metrics, samples) is also written to ``perfbench/results``.
See README.md for the workloads and the metric glossary.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: Untraced/traced block pairs of a ``--trace 1`` run.
TRACE_BLOCKS = 4

#: End-to-end metrics and their units, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def quantile(samples: list[float], q: float) -> float:
    """Exact nearest-rank sample quantile: the smallest sample with at least a
    ``q`` share of the samples at or below it."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def git_sha() -> str:
    """HEAD's commit, read from ``.git`` without running git; ``unknown`` outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


async def measure(name: str, seed: int, seconds: float, traced: bool, size) -> dict:
    """Set up ``name`` several times, run its timed loop(s), check the outcomes."""
    import tracer as tracing
    from workloads import SCENARIOS, Phase, check

    scenario = SCENARIOS[name](seed, size, HERE / "_work" / f"{name}-{os.getpid()}")
    try:
        setups = []
        for _ in range(size.setup_repeats):
            started = perf_counter()
            await scenario.setup()
            setups.append(perf_counter() - started)
        report = {"params": scenario.params(), "setups": setups,
                  "databases": scenario.databases}
        if not traced:
            phase = await scenario.measure(seconds)
            served = phase.served
            report["peak_rss_mb"] = peak_rss_mb()
            report["phase"] = phase
        else:
            untraced, phase = Phase(), Phase()
            recorder = tracing.Tracer()
            block = seconds / (2 * TRACE_BLOCKS)
            floor = math.ceil(size.min_requests / TRACE_BLOCKS)
            for _ in range(TRACE_BLOCKS):
                untraced.merge(await scenario.measure(block, floor=floor))
                undo = tracing.install(recorder)
                try:
                    phase.merge(await scenario.measure(block, recorder, floor=floor))
                finally:
                    tracing.uninstall(undo)
            served = untraced.served + phase.served
            report["untraced"] = untraced
            report["phase"] = phase
            report["tracer"] = recorder
        report["attempted"], report["failed"], report["problems"] = check(
            served, scenario.databases
        )
        return report
    finally:
        scenario.close()


def end_to_end(report: dict) -> tuple[dict, list[str]]:
    phase = report["phase"]
    latencies = [seconds * 1e3 for seconds in phase.latencies]
    n = len(latencies)
    values = {
        "setup_s": statistics.median(report["setups"]),
        "throughput_qps": phase.throughput,
        "latency_p50_ms": quantile(latencies, 0.5),
        "latency_p90_ms": quantile(latencies, 0.9),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(report['setups'])} set-ups",
        "throughput_qps": f"{phase.queries} queries in {phase.seconds:.3f} s",
        "latency_p50_ms": f"n={n} requests, {n - math.ceil(0.5 * n)} above",
        "latency_p90_ms": f"n={n} requests, {n - math.ceil(0.9 * n)} above",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = [
        f"  {name:<16} {values[name]:>12.4f} {unit:<4} ({notes[name]})"
        for name, unit in END_TO_END
    ]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, lines


def per_layer(report: dict) -> tuple[dict, list[str]]:
    from tracer import PER_LAYER_METRICS

    phase, untraced = report["phase"], report["untraced"]
    values = report["tracer"].summary(phase.queries, phase.seconds, untraced.throughput)
    lines = [f"  {name:<36} {values[name]:>12.4f} {unit}" for name, unit in PER_LAYER_METRICS]
    lines.append(
        f"  (per traced query over {phase.queries} queries, {phase.seconds:.3f} s traced; "
        f"{untraced.queries} queries in {untraced.seconds:.3f} s untraced)"
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_METRICS}, lines


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    from workloads import FULL

    report = asyncio.run(measure(name, seed, seconds, traced, FULL))
    metrics, lines = per_layer(report) if traced else end_to_end(report)
    attempted, failed = report["attempted"], report["failed"]
    stamp = {
        "workload": report["params"],
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
    }
    print(f"perfbench {name} seed={seed} traced={int(traced)}")
    print("\n".join(lines))
    print(f"  error_rate {failed / attempted:.4f} ({failed} of {attempted} queries)")
    for problem in report["problems"]:
        print(f"  mismatch: {problem}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    RESULTS.mkdir(exist_ok=True)
    record = {"stamp": stamp, "metrics": metrics, "attempted": attempted, "failed": failed,
              "latencies_ms": [s * 1e3 for s in report["phase"].latencies]}
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, sort_keys=True) + "\n")
    if traced:
        report["tracer"].dump(RESULTS / f"{stem}-spans.tsv")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Run every workload in its own process, so peak RSS is per workload."""
    from workloads import SCENARIOS

    status = 0
    for name in SCENARIOS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            timeout=900,
        )
        status = status or completed.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["trace-cold", "trace-restart", "trace-hot", "scaled-db", "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if options.workload == "all":
        return run_all(options.seed, options.seconds, bool(options.trace))
    return run_one(options.workload, options.seed, options.seconds, bool(options.trace))


if __name__ == "__main__":
    raise SystemExit(main())
