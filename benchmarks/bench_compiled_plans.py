"""E-PLAN: compiled query plans, cached database indexes, batched serving.

Measures the three layers introduced by the compiled-plan subsystem:

* plan-based RPQ evaluation (``find_l_walk`` with the shared plan cache) on a
  warm database index;
* the copy-free overlay exact search against the seed's materializing
  reference implementation (``resilience_exact_reference``), including an
  end-to-end speedup assertion on the exact branch-and-bound workload;
* the batched serving API ``resilience_many``, which compiles the database
  index once and reuses it across a fleet of queries.
"""

import time

import pytest

from conftest import smoke_mode
from repro.graphdb import generators
from repro.languages import Language, compile_automaton
from repro.resilience import resilience_exact, resilience_exact_reference, resilience_many
from repro.rpq.evaluation import find_l_walk

QUERY_FLEET = ["ax*b", "ab|bc", "abc|be", "ab", "aa", "ab|ad|cd", "axb|byc"]


def test_compile_automaton_is_cached(benchmark):
    language = Language.from_regex("a(b|c)*d|ax*b")
    compile_automaton(language.automaton)  # warm the plan cache
    plan = benchmark(lambda: compile_automaton(language.automaton))
    assert plan.trimmed.final


def test_find_l_walk_on_warm_index(benchmark):
    language = Language.from_regex("ax*b")
    database = generators.random_labelled_graph(60, 240, "axb", seed=11)
    database.index()  # warm the database index
    walk = benchmark(lambda: find_l_walk(language.automaton, database))
    assert walk is not None


def test_batched_fleet_against_shared_database(benchmark):
    database = generators.random_labelled_graph(12, 36, "abcdexy", seed=7)
    results = benchmark(lambda: resilience_many(QUERY_FLEET, database))
    assert len(results) == len(QUERY_FLEET)
    assert all(result.value >= 0 for result in results)


def test_exact_overlay_speedup_over_reference():
    # The acceptance bar for this subsystem: >= 3x on the exact
    # branch-and-bound workload, with identical values and node counts.
    # (The retained reference already uses the compiled evaluator; the seed's
    # original per-node automaton recompilation was slower still.)
    # Each arm is timed best-of-N, alternating arms round by round, so one
    # noisy round on a loaded runner cannot decide the ratio.
    language = Language.from_regex("aa")
    database = generators.random_labelled_graph(10, 30, "a", seed=3)
    rounds = 3 if smoke_mode() else 5
    overlay_seconds = reference_seconds = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fast = resilience_exact(language, database)
        overlay_seconds = min(overlay_seconds, time.perf_counter() - start)

        start = time.perf_counter()
        reference = resilience_exact_reference(language, database)
        reference_seconds = min(reference_seconds, time.perf_counter() - start)

    assert fast.value == reference.value
    assert fast.details["nodes_explored"] == reference.details["nodes_explored"]
    speedup = reference_seconds / max(overlay_seconds, 1e-9)
    assert speedup >= 3.0, f"overlay search only {speedup:.1f}x faster than materializing reference"
