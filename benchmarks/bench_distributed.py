"""E-DIST: the exchange layer (:mod:`repro.service.exchange`).

Exercises the fingerprint-routed :class:`~repro.service.ThreadExchange` and
emits ``BENCH_distributed.json`` (read back by ``tools/bench_smoke.py`` and
future regression guards):

* correctness in smoke mode: a single-database envelope through the routed
  exchange and a two-database envelope scattered across nodes must both be
  outcome-identical (after re-sorting) to the serial reference;
* **routing overhead**: one workload through ``ThreadExchange.submit``
  (router, node lookup, sub-workload remap, kill-check drain loop) vs. the
  same workload through a direct ``serve_iter`` on an identically configured
  server — the exchange's whole cost must stay within 15% of the direct path
  on exact-heavy queries (asserted outside the CI smoke pass and only on
  multi-core machines, same hardware gate as the admission-overhead bar in
  ``bench_async_serve.py``; the measured ratio is always reported and must
  stay within 2x everywhere).
"""

import os
import statistics
import time
from dataclasses import replace

from conftest import emit_bench_json, smoke_mode

from repro.graphdb import generators
from repro.service import (
    EnvelopePart,
    LanguageCache,
    ResilienceServer,
    ThreadExchange,
    Workload,
    WorkloadEnvelope,
    resilience_serve,
)

#: Exact-heavy queries (~1ms+ of real work per outcome on the dense database
#: below): the exchange's per-envelope cost is a fixed few tens of µs of
#: routing and remapping, so trivial sub-ms queries would benchmark dict
#: lookups, not the routed serving path.
EXACT_HEAVY_QUERIES = ["aa", "ax*a", "axa", "aax|axa"]
NODES = 2


def database():
    return generators.random_labelled_graph(9, 30, "axy", seed=9)


def second_database():
    return generators.random_labelled_graph(8, 26, "axy", seed=11)


def exact_heavy_workload(size):
    return Workload.coerce(
        [EXACT_HEAVY_QUERIES[i % len(EXACT_HEAVY_QUERIES)] for i in range(size)]
    )


def sorted_outcomes(outcomes):
    return sorted(outcomes, key=lambda outcome: outcome.index)


def fresh_cache():
    # canonical=False keeps the result-level cache from short-circuiting the
    # repeat rounds, so both arms re-execute real serving work every round.
    return LanguageCache(canonical=False)


def test_routed_exchange_is_outcome_identical():
    graph, other = database(), second_database()
    workload = exact_heavy_workload(12)
    reference = resilience_serve(workload, graph, parallel=False, cache=fresh_cache())
    other_reference = resilience_serve(
        workload, other, parallel=False, cache=fresh_cache()
    )
    with ThreadExchange(nodes=NODES, max_workers=1, cache=fresh_cache()) as exchange:
        routed = sorted_outcomes(
            exchange.submit(WorkloadEnvelope.single(workload, graph))
        )
        assert routed == reference
        scattered = sorted_outcomes(
            exchange.submit(
                WorkloadEnvelope(
                    parts=(
                        EnvelopePart(workload=workload, database=graph),
                        EnvelopePart(workload=workload, database=other),
                    )
                )
            )
        )
        assert scattered[: len(workload)] == reference
        assert [
            replace(outcome, index=outcome.index - len(workload))
            for outcome in scattered[len(workload):]
        ] == other_reference


def test_routing_overhead():
    graph = database()
    workload = exact_heavy_workload(32)
    rounds = 3 if smoke_mode() else 9
    reference = resilience_serve(workload, graph, parallel=False, cache=fresh_cache())

    # max_workers=1 keeps process-pool scheduling jitter out of *both* arms:
    # the comparison isolates the exchange machinery (router, envelope
    # remapping, the kill-check drain loop), which is identical over either
    # execution mode of the node underneath.
    server = ResilienceServer(graph, max_workers=1, cache=fresh_cache())
    direct_seconds = []
    routed_seconds = []
    try:
        with ThreadExchange(nodes=NODES, max_workers=1, cache=fresh_cache()) as exchange:
            # Warm both arms: database index, caches, and the owner node's
            # warm server registration.
            list(server.serve_iter(workload))
            list(exchange.submit(WorkloadEnvelope.single(workload, graph)))

            # Arms interleaved round by round: machine-load drift hits both
            # equally, and the paired-minimum below isolates intrinsic cost.
            for _ in range(rounds):
                started = time.perf_counter()
                direct = list(server.serve_iter(workload))
                direct_seconds.append(time.perf_counter() - started)
                assert sorted_outcomes(direct) == reference

                started = time.perf_counter()
                routed = list(
                    exchange.submit(WorkloadEnvelope.single(workload, graph))
                )
                routed_seconds.append(time.perf_counter() - started)
                assert sorted_outcomes(routed) == reference
    finally:
        server.close()

    direct_best = min(direct_seconds)
    routed_best = min(routed_seconds)
    pair_ratios = [
        routed_s / max(direct_s, 1e-9)
        for direct_s, routed_s in zip(direct_seconds, routed_seconds)
    ]
    overhead = min(pair_ratios)  # intrinsic overhead: the cleanest pair
    overhead_median = statistics.median(pair_ratios)

    payload = {
        "smoke": smoke_mode(),
        "rounds": rounds,
        "workload_size": len(workload),
        "nodes": NODES,
        "direct_serve_iter_ms": round(direct_best * 1e3, 3),
        "routed_submit_ms": round(routed_best * 1e3, 3),
        "routing_overhead": round(overhead, 4),
        "routing_overhead_median": round(overhead_median, 4),
        "cpus": os.cpu_count(),
    }
    path = emit_bench_json("BENCH_distributed.json", payload)
    print(
        f"\ndistributed serve: direct {direct_best * 1e3:.1f}ms, "
        f"routed {routed_best * 1e3:.1f}ms (overhead x{overhead:.3f}) -> {path.name}"
    )
    strict = (os.cpu_count() or 1) >= 2 and not smoke_mode()
    if strict:
        assert overhead <= 1.15, (
            f"routing overhead x{overhead:.3f} exceeds the 15% budget "
            f"(direct {direct_best * 1e3:.1f}ms, routed {routed_best * 1e3:.1f}ms)"
        )
    assert overhead <= 2.0, (
        f"routing overhead x{overhead:.3f} is out of range even for a loaded runner"
    )
