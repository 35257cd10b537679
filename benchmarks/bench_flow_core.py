"""Flow-core benchmark: array-native compiled graphs vs the object layer.

Measures, on the standard layered-flow matrix, the two halves of the
flow-tractable hot path:

* **network build**: ``build_product_network`` (object layer: tuple nodes,
  ``FlowEdge`` dataclasses) vs ``compile_product_graph`` (CSR arrays over the
  cached per-database substrate);
* **min-cut**: the retained reference ``min_cut`` vs the array Dinic
  ``min_cut_compiled`` — the PR's acceptance bar: **≥ 3x** on this matrix;
* **serve p50**: per-query latency of a flow-heavy workload through a warm
  serial :class:`~repro.service.server.ResilienceServer`, fast solver vs the
  reference solver (:func:`~repro.flow.reference_min_cut` substituted for
  the reductions' ``solve_min_cut``).

Every run (smoke included) emits ``BENCH_flow.json`` with the before/after
numbers; ``tools/ci.sh`` reads it back as a regression guard.  The ≥ 3x
assertion only fires outside smoke mode — wall-clock bars must not turn a
loaded CI runner red — but the smoke guard in CI still requires the fast
solver to beat the reference.
"""

from __future__ import annotations

import statistics
import time

import pytest

from conftest import emit_bench_json, smoke_mode
from repro.flow import compile_product_graph, min_cut, min_cut_compiled, reference_min_cut
from repro.graphdb import generators
from repro.languages import Language, read_once
from repro.resilience import bcl_flow, local_flow, one_dangling
from repro.resilience.local_flow import build_product_network
from repro.service import LanguageCache, ResilienceServer

#: The standard matrix: (layers, width) of the layered-flow database family.
MATRIX = ((4, 4), (6, 6), (8, 8), (10, 12))

QUERY = "ax*b"

#: Queries of the flow-heavy serve workload (all flow-tractable classes).
SERVE_QUERIES = ("ax*b", "ax*b|ax*c", "ab|bc", "abe|be")


def _best(callable_, repeats: int, rounds: int) -> float:
    """Best-of-``rounds`` mean over ``repeats`` calls (noise-resistant)."""
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(repeats):
            callable_()
        samples.append((time.perf_counter() - start) / repeats)
    return min(samples)


def _measure_matrix() -> dict:
    smoke = smoke_mode()
    repeats = 2 if smoke else 15
    rounds = 1 if smoke else 4
    language = Language.from_regex(QUERY)
    automaton = read_once.read_once_automaton(language)
    rows = []
    for layers, width in MATRIX:
        bag = generators.layered_flow_database(layers, width, seed=3)
        index = bag.index()
        graph = compile_product_graph(automaton, index)
        network = build_product_network(automaton, bag)

        # Both paths must solve the same problem before being timed.
        fast_cut = min_cut_compiled(graph)
        reference_cut = min_cut(network)
        assert fast_cut.value == reference_cut.value
        assert frozenset(fast_cut.cut_keys) == frozenset(
            edge.key for edge in reference_cut.cut_edges if edge.key is not None
        )

        def compile_cold():
            # Clear the per-automaton compiled-graph cache so the timing is a
            # cold per-query compile over the (warm, shared) substrate.
            index.substrates["product"].graphs.clear()
            return compile_product_graph(automaton, index)

        rows.append(
            {
                "matrix": f"{layers}x{width}",
                "graph_nodes": graph.num_nodes,
                "graph_edges": graph.num_edges,
                "build_us": {
                    "reference": _best(lambda: build_product_network(automaton, bag), repeats, rounds) * 1e6,
                    "fast": _best(compile_cold, repeats, rounds) * 1e6,
                },
                "min_cut_us": {
                    "reference": _best(lambda: min_cut(network), repeats, rounds) * 1e6,
                    "fast": _best(lambda: min_cut_compiled(graph), repeats, rounds) * 1e6,
                },
            }
        )
    return {"rows": rows, "smoke": smoke}


def _serve_p50() -> float:
    """p50 per-query serve latency (µs) on a warm serial server."""
    smoke = smoke_mode()
    passes = 2 if smoke else 8
    database = generators.layered_flow_database(6, 6, seed=3)
    samples: list[float] = []
    # A string-keyed cache keeps the result-level layer out of the
    # measurement: every pass must genuinely run the flow reductions.
    with ResilienceServer(
        database, max_workers=1, cache=LanguageCache(canonical=False)
    ) as server:
        server.serve(SERVE_QUERIES)  # warm-up: indexes, substrates, plans
        for _ in range(passes):
            for query in SERVE_QUERIES:
                start = time.perf_counter()
                outcomes = server.serve([query])
                samples.append(time.perf_counter() - start)
                assert outcomes[0].ok, outcomes[0]
    return statistics.median(samples) * 1e6


def test_flow_core_speedup_and_emit_json():
    payload = _measure_matrix()
    with pytest.MonkeyPatch.context() as patch:
        for module in (local_flow, bcl_flow, one_dangling):
            patch.setattr(module, "solve_min_cut", reference_min_cut)
        reference_p50 = _serve_p50()
    payload["serve_p50_us"] = {"reference": reference_p50, "fast": _serve_p50()}

    def geomean(values):
        product = 1.0
        for value in values:
            product *= value
        return product ** (1 / len(values))

    payload["min_cut_speedup"] = geomean(
        [row["min_cut_us"]["reference"] / row["min_cut_us"]["fast"] for row in payload["rows"]]
    )
    payload["build_speedup"] = geomean(
        [row["build_us"]["reference"] / row["build_us"]["fast"] for row in payload["rows"]]
    )
    payload["serve_p50_speedup"] = (
        payload["serve_p50_us"]["reference"] / payload["serve_p50_us"]["fast"]
    )
    path = emit_bench_json("BENCH_flow.json", payload)
    assert path.exists()

    if not smoke_mode():
        # The PR's acceptance bar: ≥ 3x on product-network min-cut.
        assert payload["min_cut_speedup"] >= 3.0, payload
        assert payload["build_speedup"] >= 1.0, payload
        assert payload["serve_p50_speedup"] >= 1.0, payload


def test_warm_class_end_to_end_beats_reference_path():
    """A warm query class (substrate + compiled graph cached) must beat the
    full object path by a wide margin — this is the serving steady state."""
    language = Language.from_regex(QUERY)
    automaton = read_once.read_once_automaton(language)
    bag = generators.layered_flow_database(8, 8, seed=3)
    index = bag.index()
    compile_product_graph(automaton, index)  # warm the compiled-graph cache
    repeats = 2 if smoke_mode() else 20

    warm = _best(
        lambda: min_cut_compiled(compile_product_graph(automaton, index)), repeats, 3
    )
    reference = _best(
        lambda: min_cut(build_product_network(automaton, bag)), repeats, 3
    )
    assert min_cut_compiled(compile_product_graph(automaton, index)).value == min_cut(
        build_product_network(automaton, bag)
    ).value
    if not smoke_mode():
        assert reference / warm >= 3.0, (reference, warm)


def test_fast_mincut_benchmark(benchmark):
    """pytest-benchmark visibility for interactive runs (disabled in smoke)."""
    language = Language.from_regex(QUERY)
    automaton = read_once.read_once_automaton(language)
    bag = generators.layered_flow_database(8, 8, seed=3)
    graph = compile_product_graph(automaton, bag.index())
    value = benchmark(lambda: min_cut_compiled(graph).value)
    assert value > 0


@pytest.mark.parametrize("seed", range(3))
def test_compiled_path_matches_reference_on_random_graphs(seed):
    """Guard the benchmark's own premise: identical answers on random inputs."""
    language = Language.from_regex(QUERY)
    automaton = read_once.read_once_automaton(language)
    bag = generators.random_bag_database(6, 14, "axb", seed=seed, max_multiplicity=5)
    compiled = min_cut_compiled(compile_product_graph(automaton, bag.index()))
    reference = min_cut(build_product_network(automaton, bag))
    assert compiled.value == reference.value
