"""Tests for the parallel resilience serving layer (:mod:`repro.service`)."""

import pytest

from repro.exceptions import SearchBudgetExceeded
from repro.graphdb import BagGraphDatabase, GraphDatabase, generators
from repro.languages import Language
from repro.resilience import resilience, resilience_exact, resilience_many
from repro.rpq import RPQ
from repro.service import (
    BUDGET_EXCEEDED,
    ERROR,
    OK,
    LanguageCache,
    QuerySpec,
    Workload,
    plan_workload,
    resilience_serve,
)

MIXED_QUERIES = ["ax*b", "ab|bc", "abc|be", "aa", "ab", "ε|a", "axb|cxd", "ab|ad|cd"]


def mixed_workload(size=50):
    """A mixed 50-query workload with many duplicates over all method classes."""
    return Workload.coerce([MIXED_QUERIES[i % len(MIXED_QUERIES)] for i in range(size)])


@pytest.fixture(scope="module")
def database():
    return generators.random_labelled_graph(5, 14, "abcdexy", seed=3)


class TestWorkloadModel:
    def test_coerce_mixes_specs_and_bare_queries(self):
        workload = Workload.coerce(["ab", QuerySpec("aa", max_nodes=10), RPQ.from_regex("ab|bc")])
        assert len(workload) == 3
        assert all(isinstance(spec, QuerySpec) for spec in workload)
        assert workload.specs[1].max_nodes == 10

    def test_coerce_is_idempotent(self):
        workload = mixed_workload(5)
        assert Workload.coerce(workload) is workload

    def test_coerce_treats_bare_string_as_one_query(self):
        # Regression: a bare string must become a single-query workload, not be
        # iterated character by character.
        workload = Workload.coerce("ax*b")
        assert len(workload) == 1
        assert workload.specs[0].query == "ax*b"
        assert len(Workload.coerce(Language.from_regex("ab"))) == 1
        assert len(Workload.coerce(QuerySpec("ab"))) == 1

    def test_serve_accepts_bare_string_query(self, database):
        outcomes = resilience_serve("ax*b", database, parallel=False)
        assert len(outcomes) == 1
        assert outcomes[0].ok
        assert outcomes[0].result == resilience("ax*b", database)

    def test_from_queries_applies_uniform_policy(self):
        workload = Workload.from_queries(["aa", "ab"], max_nodes=7, semantics="set")
        assert all(spec.max_nodes == 7 and spec.semantics == "set" for spec in workload)

    def test_display_name(self):
        assert QuerySpec("ab|bc").display_name() == "ab|bc"
        assert QuerySpec(RPQ.from_regex("aa")).display_name() == "aa"
        assert QuerySpec(Language.from_regex("ax*b")).display_name() == "ax*b"


class TestLanguageCache:
    def test_duplicate_strings_share_one_language(self):
        cache = LanguageCache()
        assert cache.language("ab|bc") is cache.language("ab|bc")
        assert len(cache) == 1

    def test_plan_is_memoized(self):
        cache = LanguageCache()
        language = cache.language("ab|bc")
        plan = cache.plan(language)
        assert plan.method == "bcl-flow"
        calls = []
        original = Language.infix_free

        def counting(self):
            calls.append(self)
            return original(self)

        Language.infix_free = counting
        try:
            assert cache.plan(language) is plan
        finally:
            Language.infix_free = original
        assert calls == []

    def test_infix_free_is_memoized_on_the_instance(self):
        language = Language.from_regex("ab|bc")
        assert language.infix_free() is language.infix_free()


class TestScheduler:
    def test_flow_queries_run_before_exact(self):
        scheduled, failed = plan_workload(Workload.coerce(["aa", "ax*b", "axb|cxd", "ab|bc"]))
        assert failed == []
        assert [item.planned_method for item in scheduled] == [
            "local-flow", "bcl-flow", "exact", "exact",
        ]
        # Stable by workload position within the same class.
        assert [item.index for item in scheduled] == [1, 3, 0, 2]

    def test_planning_failure_becomes_error_outcome(self):
        scheduled, failed = plan_workload(Workload.coerce(["((", "ab"]))
        assert len(scheduled) == 1
        assert len(failed) == 1
        assert failed[0].status == ERROR
        assert failed[0].index == 0
        assert "RegexSyntaxError" in failed[0].error

    def test_unsupported_query_type_becomes_error_outcome(self, database):
        # Regression: a non-query item must not crash the fleet (the error
        # handler's display_name used to raise its own AttributeError).
        outcomes = resilience_serve(["ab", 42], database, parallel=False)
        assert [outcome.status for outcome in outcomes] == [OK, ERROR]
        assert outcomes[1].query == "42"
        assert "AttributeError" in outcomes[1].error

    def test_forced_method_specs_ship_warm_infix_free(self):
        # Regression: forced-method specs skipped classification, so workers
        # received the language cold and recomputed infix_free() per task.
        scheduled, failed = plan_workload(
            Workload.coerce([QuerySpec("abc|bcd", method="exact")])
        )
        assert failed == []
        assert scheduled[0].language._infix_free is not None

    def test_duplicate_queries_plan_one_language(self):
        cache = LanguageCache()
        scheduled, _ = plan_workload(Workload.coerce(["aa", "aa", "aa"]), cache)
        assert scheduled[0].language is scheduled[1].language is scheduled[2].language


class TestServeParity:
    def test_parallel_identical_to_serial_on_mixed_50_query_workload(self, database):
        workload = mixed_workload(50)
        serial = resilience_serve(workload, database, parallel=False)
        parallel = resilience_serve(workload, database, max_workers=4)
        assert serial == parallel
        assert [outcome.index for outcome in parallel] == list(range(50))

    def test_outcomes_match_resilience_many(self, database):
        workload = mixed_workload(50)
        outcomes = resilience_serve(workload, database, max_workers=4)
        expected = resilience_many([spec.query for spec in workload], database)
        for outcome, result in zip(outcomes, expected):
            assert outcome.status == OK
            assert outcome.result == result
            assert outcome.method == result.method

    def test_parity_on_bag_database(self):
        database = generators.random_labelled_graph(4, 10, "abx", seed=5).to_bag(2)
        workload = Workload.coerce(["ax*b", "aa", "ab", "aa"])
        serial = resilience_serve(workload, database, parallel=False)
        parallel = resilience_serve(workload, database, max_workers=2)
        assert serial == parallel
        assert all(outcome.result.semantics == "bag" for outcome in serial)

    def test_single_worker_equals_serial(self, database):
        workload = mixed_workload(8)
        assert resilience_serve(workload, database, max_workers=1) == resilience_serve(
            workload, database, parallel=False
        )


class TestServeBudgets:
    def test_node_budget_overrun_is_structured_and_fleet_completes(self):
        # An "a"-heavy database so the exact searches genuinely branch.
        database = generators.random_labelled_graph(5, 14, "axb", seed=0)
        workload = Workload.coerce(
            ["ax*b", QuerySpec("aa", max_nodes=1), "ab", QuerySpec("aba", max_nodes=1)]
        )
        for outcomes in (
            resilience_serve(workload, database, parallel=False),
            resilience_serve(workload, database, max_workers=2),
        ):
            assert [outcome.status for outcome in outcomes] == [
                OK, BUDGET_EXCEEDED, OK, BUDGET_EXCEEDED,
            ]
            for overrun in (outcomes[1], outcomes[3]):
                assert overrun.result is None
                assert overrun.nodes_explored is not None
                assert overrun.nodes_explored > 1
                assert "SearchBudgetExceeded" in overrun.error

    def test_time_budget_overrun_is_structured(self):
        database = generators.random_labelled_graph(8, 30, "a", seed=0)
        outcomes = resilience_serve(
            [QuerySpec("aa", max_seconds=0.0), "ab"], database, parallel=False
        )
        assert outcomes[0].status == BUDGET_EXCEEDED
        assert "time budget" in outcomes[0].error
        assert outcomes[1].status == OK

    def test_generous_budget_answers_normally(self, database):
        outcomes = resilience_serve(
            [QuerySpec("aa", max_nodes=10_000_000)], database, parallel=False
        )
        assert outcomes[0].status == OK
        assert outcomes[0].result == resilience("aa", database)


class TestServeErrors:
    def test_errors_are_captured_not_raised(self, database):
        workload = Workload.coerce(
            ["((", QuerySpec("aa", method="local-flow"), "ab"]
        )
        for outcomes in (
            resilience_serve(workload, database, parallel=False),
            resilience_serve(workload, database, max_workers=2),
        ):
            assert [outcome.status for outcome in outcomes] == [ERROR, ERROR, OK]
            assert "RegexSyntaxError" in outcomes[0].error
            assert "ReproError" in outcomes[1].error

    def test_forced_method_with_unsafe_runs(self, database):
        outcomes = resilience_serve(
            [QuerySpec("aa", method="local-flow", unsafe=True)], database, parallel=False
        )
        assert outcomes[0].status == OK
        assert outcomes[0].method == "local-flow"

    def test_invalid_max_workers_raises(self, database):
        with pytest.raises(ValueError):
            resilience_serve(["ab"], database, max_workers=0)

    def test_empty_workload(self, database):
        assert resilience_serve([], database) == []


class TestResilienceManyCache:
    def test_duplicate_queries_compute_infix_free_once(self, database):
        calls = []
        original = Language.infix_free

        def counting(self):
            calls.append(self)
            return original(self)

        Language.infix_free = counting
        try:
            results = resilience_many(["ab|bc", "ab|bc", "ab|bc"], database)
        finally:
            Language.infix_free = original
        assert len(results) == 3
        assert results[0] == results[1] == results[2]
        # One shared Language instance -> infix_free body ran at most once per
        # call site, and the expensive computation itself exactly once.
        assert len({id(language) for language in calls}) == 1

    def test_duplicate_queries_classify_once(self, database):
        from repro.resilience import engine

        calls = []
        original = engine.choose_method

        def counting(language, **kwargs):
            calls.append(language)
            return original(language, **kwargs)

        engine.choose_method = counting
        try:
            resilience_many(["ab|bc"] * 5, database)
        finally:
            engine.choose_method = original
        assert len(calls) == 1

    def test_shared_cache_across_batches(self, database):
        cache = LanguageCache()
        resilience_many(["ab|bc"], database, cache=cache)
        language = cache.language("ab|bc")
        resilience_many(["ab|bc"], database, cache=cache)
        assert cache.language("ab|bc") is language


class TestBudgetExceptionDirectly:
    def test_exact_raises_dedicated_exception(self):
        database = generators.random_labelled_graph(4, 8, "a", seed=0)
        with pytest.raises(SearchBudgetExceeded) as excinfo:
            resilience_exact(Language.from_regex("aa"), database, max_nodes=1)
        assert excinfo.value.nodes_explored > 1
        assert excinfo.value.max_nodes == 1

    def test_database_pickles_without_derived_caches(self):
        # The pool initializer ships the database to every worker; a warmed
        # database must pickle as lean as a cold one (the index and adjacency
        # caches are derived and rebuilt by the worker's warm-up).
        import pickle

        cold = generators.random_labelled_graph(6, 20, "ab", seed=1)
        cold_size = len(pickle.dumps(cold))
        cold.index()
        cold.outgoing()
        cold.incoming()
        assert len(pickle.dumps(cold)) == cold_size
        restored = pickle.loads(pickle.dumps(cold))
        assert restored == cold
        assert restored.nodes == cold.nodes  # caches rebuild lazily

        bag = cold.to_bag(2)
        bag_size = len(pickle.dumps(bag))
        bag.index()
        _ = bag.database
        assert len(pickle.dumps(bag)) == bag_size
        assert pickle.loads(pickle.dumps(bag)).multiplicities() == bag.multiplicities()

    def test_budget_exception_pickles_with_diagnostics(self):
        # The exception must survive the process boundaries the serving layer
        # introduces (a worker's raise crossing a caller's own pool).
        import pickle

        error = SearchBudgetExceeded("over budget", nodes_explored=7, max_nodes=3, max_seconds=0.5)
        restored = pickle.loads(pickle.dumps(error))
        assert isinstance(restored, SearchBudgetExceeded)
        assert str(restored) == "over budget"
        assert restored.nodes_explored == 7
        assert restored.max_nodes == 3
        assert restored.max_seconds == 0.5
