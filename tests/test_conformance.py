"""Differential conformance suite for the serving runtime.

One fixed query × database matrix runs through every cache variant
{uncached, string-cache, canonical-cache, disk-cache, bounded-cache} (the
last a thrashing one-entry cache, so every variant also serves through
eviction) crossed with every registered execution variant {serial,
warm-pool, streaming, async-single-workload, async-3-concurrent-workloads-merged,
distributed-2-nodes, distributed-4-nodes, distributed-2-nodes-node-kill},
and every combination must produce outcomes *identical* to the uncached
serial reference — values, contingency sets, methods, statuses, node counts,
everything.  Caches, pools, the async front-end and the routed node fleet
(including mid-stream node death and failover) are execution strategies; the
serial uncached path is the semantics.

The matrix, variant registry, comparator and per-variant session plumbing
live in :mod:`conformance_harness` so new execution modes register once and
are pinned everywhere.  Each session runs the workload twice back to back
with shared state (cache, warm pool, async admission queue), so the second
pass exercises exactly the warm paths the variants exist for.  The matrix
deliberately contains equivalent-but-unequal query pairs (``(ab)*a`` /
``a(ba)*`` and ``ab|ba`` / ``ba|ab``), a parse error, an inapplicable forced
method, and a node-budget overrun, so the parity claim covers the error
paths too.

The disk-store variant writes to a per-test temporary directory unless
``REPRO_ANALYSIS_STORE`` points somewhere (tools/ci.sh sets it and runs the
suite twice, cold then warm, against one directory to cover the
cross-process path).
"""

import os
from pathlib import Path

import pytest

from conformance_harness import (
    CACHE_VARIANTS,
    EXECUTION_VARIANTS,
    MATRIX_QUERIES,
    PASSES,
    assert_outcomes_identical,
    databases,
    reference_outcomes,
    variant_session,
)
from repro.graphdb import generators
from repro.languages import core, operations
from repro.service import (
    AnalysisStore,
    LanguageCache,
    ResilienceServer,
    Workload,
    resilience_serve,
)


@pytest.fixture(scope="module", params=["set", "bag"])
def database(request):
    return databases()[request.param]


@pytest.fixture(scope="module")
def reference(database):
    """The uncached serial reference: fresh string-keyed cache, no pool."""
    return reference_outcomes(database)


@pytest.fixture
def store_directory(tmp_path):
    env = os.environ.get("REPRO_ANALYSIS_STORE")
    return Path(env) if env else tmp_path / "analysis-store"


@pytest.mark.parametrize("execution", EXECUTION_VARIANTS)
@pytest.mark.parametrize("cache_kind", CACHE_VARIANTS)
def test_variant_is_outcome_identical_to_uncached_serial(
    cache_kind, execution, database, reference, store_directory
):
    with variant_session(execution, database, cache_kind, store_directory) as session:
        pids = None
        for pass_number in range(PASSES):
            for outcomes in session.run_pass():
                assert_outcomes_identical(
                    outcomes, reference, f"{execution}/{cache_kind} pass {pass_number}"
                )
            if session.shares_pool:
                if pids:
                    assert session.worker_pids() == pids, (
                        "pool must stay warm across passes"
                    )
                pids = session.worker_pids()


def test_disk_store_cold_then_warm_pass_hits(database, store_directory, tmp_path, monkeypatch):
    """A second process-like pass over the same store directory must *hit*.

    Two independent ``AnalysisStore`` instances (as two processes would build)
    share one directory: the cold pass writes every analysis, the warm pass
    reads them all back — zero classifications, and no string parsed or
    canonicalized again but the unparsable one — and the outcomes agree
    exactly.
    """
    directory = store_directory if os.environ.get("REPRO_ANALYSIS_STORE") else tmp_path / "s"
    workload = Workload.coerce(MATRIX_QUERIES)

    cold_store = AnalysisStore(directory)
    cold = resilience_serve(
        workload, database, parallel=False, cache=LanguageCache(store=cold_store)
    )
    assert cold_store.stats().writes + cold_store.stats().hits > 0

    warm_store = AnalysisStore(directory)
    warm_cache = LanguageCache(store=warm_store)
    parsed, canonicalized = [], []
    parse, canonicalize = core.regex_to_automaton, operations.canonical_fingerprint
    monkeypatch.setattr(core, "regex_to_automaton", lambda *a: parsed.append(a[0]) or parse(*a))
    monkeypatch.setattr(
        operations, "canonical_fingerprint", lambda *a: canonicalized.append(a) or canonicalize(*a)
    )
    warm = resilience_serve(workload, database, parallel=False, cache=warm_cache)
    monkeypatch.undo()
    assert parsed == ["(("]  # an unparsable string never gets an entry
    assert canonicalized == []
    assert warm == cold
    assert warm == resilience_serve(workload, database, parallel=False)
    assert warm_store.stats().hits > 0
    assert warm_store.stats().writes == 0
    assert warm_cache.stats.classifications == 0


def test_reference_flow_solver_is_outcome_identical(
    database, substitute_reference_solver
):
    """The min-cut solver is an execution strategy, never a semantic.

    The whole matrix runs once with the array-native solver and once with the
    retained object-layer reference solver substituted into the reductions;
    the outcome streams must be byte-identical — same values, same contingency
    sets, same details — because both solvers run on the identical compiled
    network and exact max flows have canonical cuts.
    """
    workload = Workload.coerce(MATRIX_QUERIES)
    fast = resilience_serve(
        workload, database, parallel=False, cache=LanguageCache(canonical=False)
    )
    substitute_reference_solver()
    reference = resilience_serve(
        workload, database, parallel=False, cache=LanguageCache(canonical=False)
    )
    assert fast == reference
    assert [repr(outcome) for outcome in fast] == [repr(outcome) for outcome in reference]


def test_reference_flow_solver_matches_through_the_warm_pool(
    database, substitute_reference_solver
):
    """Same claim through a 2-worker pool: the substitution happens before
    the pool forks, so the workers inherit the reference solver."""
    workload = Workload.coerce(MATRIX_QUERIES)
    fast = resilience_serve(
        workload, database, parallel=False, cache=LanguageCache(canonical=False)
    )
    substitute_reference_solver()
    with ResilienceServer(
        database, max_workers=2, cache=LanguageCache(canonical=False)
    ) as server:
        pooled = server.serve(workload)
        assert server.worker_pids(), "the matrix must have run on the pool"
    assert pooled == fast
    assert [repr(outcome) for outcome in pooled] == [repr(outcome) for outcome in fast]


def test_equivalent_queries_classify_once_with_identical_results(database):
    """The acceptance observable: one classification per equivalence class."""
    from dataclasses import replace

    cache = LanguageCache()
    outcomes = resilience_serve(
        ["(ab)*a", "a(ba)*", "ab|ba", "ba|ab"], database, parallel=False, cache=cache
    )
    assert cache.stats.classifications == 2
    assert cache.stats.canonical_hits == 2
    assert cache.stats.canonical_misses == 2
    first, second, third, fourth = (outcome.result for outcome in outcomes)
    assert replace(first, query="") == replace(second, query="")
    assert replace(third, query="") == replace(fourth, query="")
    assert first.query == "(ab)*a" and second.query == "a(ba)*"
