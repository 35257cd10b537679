"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench/selftest.py``.

Kept out of the repository's default test collection (the file name does not
match ``test_*.py``) because every test here drives the whole serving stack.
"""

from __future__ import annotations

import asyncio
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name: str, traced: bool) -> dict:
    return asyncio.run(run.measure(name, 3, 0.05, traced, workloads.TINY))


def test_benchmark_json_names_every_reported_metric():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracer.PER_LAYER_METRICS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.SCENARIOS)


@pytest.mark.parametrize("name", list(workloads.SCENARIOS))
def test_tiny_run_emits_every_metric_and_checks_clean(name):
    report = tiny(name, traced=False)
    metrics, _ = run.end_to_end(report)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in metrics.values())
    assert report["attempted"] > 0 and report["failed"] == 0, report["problems"]

    report = tiny(name, traced=True)
    metrics, _ = run.per_layer(report)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert report["failed"] == 0, report["problems"]
    assert metrics["service.server.self_us"]["value"] > 0
    assert metrics["service.exchange.failovers"]["value"] == 0


def test_injected_wrong_outcome_raises_error_rate():
    report = tiny("trace-cold", traced=False)
    served, databases = report["phase"].served, report["databases"]
    assert workloads.check(served, databases)[1] == 0

    outcome, count = next(
        (outcome, count) for outcome, count in served.items()
        if outcome.status == workloads.OK and math.isfinite(outcome.value)
    )
    for wrong in (
        outcome._replace(value=outcome.value + 1),
        outcome._replace(method="exact" if outcome.method != "exact" else "local-flow"),
        outcome._replace(status=workloads.ERROR, error="injected"),
        outcome._replace(status=workloads.MISSING),
    ):
        tampered = served.copy()
        del tampered[outcome]
        tampered[wrong] += count
        attempted, failed, problems = workloads.check(tampered, databases)
        assert attempted == report["attempted"] and failed == count, (wrong, problems)


def test_quantiles_are_exact_sample_values():
    samples = [float(value) for value in range(100, 0, -1)]
    assert run.quantile(samples, 0.5) == 50.0
    assert run.quantile(samples, 0.9) == 90.0
    assert run.quantile([3.0], 0.9) == 3.0


def test_uninstall_restores_every_original():
    from repro.languages.core import Language
    from repro.resilience import engine
    from repro.service.exchange.threads import ThreadExchange

    before = (vars(Language)["from_regex"], engine.choose_method, "submit" in vars(ThreadExchange))
    undo = tracer.install(tracer.Tracer())
    assert engine.choose_method is not before[1]
    tracer.uninstall(undo)
    after = (vars(Language)["from_regex"], engine.choose_method, "submit" in vars(ThreadExchange))
    assert after == before


def test_self_time_subtracts_children_and_cross_thread_work():
    recorder = tracer.Tracer()
    # parent 0..10 with a child 2..5 on the same thread, and work on another
    # thread 6..9 while the parent waits.
    recorder.spans = [
        (2, "flow.min_cut", 2.0, 5.0, 1, None),
        (1, "service.exchange", 0.0, 10.0, 0, None),
        (3, "service.server", 6.0, 9.0, 0, None),
    ]
    totals = recorder.self_times()
    assert totals["service.exchange"] == pytest.approx(4.0)
    assert totals["flow.min_cut"] == pytest.approx(3.0)
    assert totals["service.server"] == pytest.approx(3.0)


def test_refuses_to_run_without_the_program(tmp_path):
    alone = tmp_path / "perfbench"
    alone.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, alone / path.name)
    completed = subprocess.run(
        [sys.executable, str(alone / "run.py"), "--workload", "trace-cold", "--seconds", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
