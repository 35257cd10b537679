"""Tests for the result-level cache (ROADMAP: results keyed by language
fingerprint × database content fingerprint).

The cache memoizes whole :class:`~repro.resilience.result.ResilienceResult`
objects per ``(query class, database, semantics, forced method, unsafe)``
tuple.  Results are deterministic functions of that key, so a hit is
indistinguishable from recomputing — except that it costs nothing and, in the
serving layer, never touches the worker pool.
"""

import pytest

from repro.graphdb import generators
from repro.resilience import LanguageCache, resilience, resilience_many
from repro.service import (
    ERROR,
    OK,
    CancellationToken,
    ResilienceServer,
    resilience_serve,
)


@pytest.fixture
def database():
    return generators.random_labelled_graph(5, 14, "abxy", seed=3)


QUERIES = ["ax*b", "ab|bc", "(ab)*a", "aa", "ab"]


class TestLanguageCacheResultLayer:
    def test_lookup_miss_then_hit(self, database):
        cache = LanguageCache()
        language = cache.language("ax*b")
        assert cache.lookup_result(language, database) is None
        result = resilience(language, database)
        cache.store_result(language, database, result)
        hit = cache.lookup_result(language, database)
        assert hit == result
        assert cache.stats.result_hits == 1
        assert cache.stats.result_misses == 1

    def test_hit_is_relabelled_to_the_querys_own_name(self, database):
        cache = LanguageCache()
        first = cache.language("(ab)*a")
        cache.store_result(first, database, resilience(first, database))
        equivalent = cache.language("a(ba)*")  # same class, different syntax
        hit = cache.lookup_result(equivalent, database)
        assert hit is not None
        assert hit.query == "a(ba)*"
        assert hit.value == resilience("a(ba)*", database).value

    def test_key_distinguishes_semantics_method_and_database(self, database):
        cache = LanguageCache()
        language = cache.language("ab")
        result = resilience(language, database)
        cache.store_result(language, database, result)
        assert cache.lookup_result(language, database, semantics="bag") is None
        assert cache.lookup_result(language, database, method="exact") is None
        other = generators.random_labelled_graph(5, 14, "abxy", seed=9)
        assert cache.lookup_result(language, other) is None
        assert cache.lookup_result(language, database) is not None

    def test_string_keyed_cache_has_no_result_layer(self, database):
        cache = LanguageCache(canonical=False)
        language = cache.language("ab")
        result = resilience(language, database)
        cache.store_result(language, database, result)
        assert cache.lookup_result(language, database) is None
        assert cache.stats.result_hits == 0
        assert cache.stats.result_misses == 0


class TestResilienceManyResultCache:
    def test_duplicates_hit_within_one_batch(self, database):
        cache = LanguageCache()
        results = resilience_many(QUERIES + QUERIES, database, cache=cache)
        assert results[: len(QUERIES)] == results[len(QUERIES) :]
        assert cache.stats.result_hits == len(QUERIES)
        # Cached results replay exactly what a cold computation returns.
        fresh = resilience_many(QUERIES, database)
        assert results[: len(QUERIES)] == fresh

    def test_shared_cache_hits_across_batches(self, database):
        cache = LanguageCache()
        first = resilience_many(QUERIES, database, cache=cache)
        assert cache.stats.result_hits == 0
        second = resilience_many(QUERIES, database, cache=cache)
        assert second == first
        assert cache.stats.result_hits == len(QUERIES)

    def test_equivalent_queries_share_results(self, database):
        cache = LanguageCache()
        first, second = resilience_many(["(ab)*a", "a(ba)*"], database, cache=cache)
        assert cache.stats.result_hits == 1
        assert first.value == second.value
        assert first.query == "(ab)*a" and second.query == "a(ba)*"


class TestServerResultCache:
    def test_second_serve_is_answered_from_the_cache(self, database):
        cache = LanguageCache()
        with ResilienceServer(database, max_workers=2, cache=cache) as server:
            first = server.serve(QUERIES)
            assert cache.stats.result_hits == 0
            second = server.serve(QUERIES)
            assert second == first
        assert cache.stats.result_hits == len(QUERIES)

    def test_full_hit_never_touches_the_pool(self, database):
        cache = LanguageCache()
        with ResilienceServer(database, max_workers=2, cache=cache) as warm:
            first = warm.serve(QUERIES)
        # A brand-new server sharing the session cache: every query hits, so
        # the pool is never even created.
        with ResilienceServer(database, max_workers=2, cache=cache) as server:
            outcomes = server.serve(QUERIES)
            assert outcomes == first
            assert server.worker_pids() == frozenset()

    def test_streaming_hits_match_batch(self, database):
        cache = LanguageCache()
        with ResilienceServer(database, max_workers=2, cache=cache) as server:
            batch = server.serve(QUERIES)
            streamed = sorted(
                server.serve_iter(QUERIES), key=lambda outcome: outcome.index
            )
            assert streamed == batch

    def test_hits_happen_at_planning_time_only(self, database):
        # Within one serve call, a duplicate query never observes the result
        # produced earlier in the same call — that keeps the serial and
        # parallel paths outcome-identical by construction.
        cache = LanguageCache()
        with ResilienceServer(database, max_workers=2, cache=cache) as server:
            outcomes = server.serve(QUERIES + QUERIES)
            assert cache.stats.result_hits == 0
            assert [outcome.status for outcome in outcomes] == [OK] * len(outcomes)

    def test_serial_and_parallel_agree_with_warm_result_cache(self, database):
        serial_cache = LanguageCache()
        parallel_cache = LanguageCache()
        workload = QUERIES + QUERIES
        serial_first = resilience_serve(
            workload, database, parallel=False, cache=serial_cache
        )
        parallel_first = resilience_serve(
            workload, database, max_workers=2, cache=parallel_cache
        )
        assert serial_first == parallel_first
        serial_second = resilience_serve(
            workload, database, parallel=False, cache=serial_cache
        )
        parallel_second = resilience_serve(
            workload, database, max_workers=2, cache=parallel_cache
        )
        assert serial_second == parallel_second == serial_first
        assert serial_cache.stats.result_hits == parallel_cache.stats.result_hits > 0

    def test_budgeted_specs_never_replay_a_cached_result(self, database):
        # Regression: a budgeted spec's observable is whether *its own*
        # execution fits the budget — replaying an earlier unbudgeted "ok"
        # would report success where the uncached serial reference reports
        # "budget-exceeded" (and make the outcome scheduling-dependent under
        # concurrent serving).  Completed budgeted runs still feed the cache.
        from repro.service import QuerySpec

        cache = LanguageCache()
        with ResilienceServer(database, max_workers=1, cache=cache) as server:
            [unbudgeted] = server.serve([QuerySpec("aba", method="exact")])
            assert unbudgeted.status == "ok"
            [budgeted] = server.serve([QuerySpec("aba", method="exact", max_nodes=1)])
            reference = resilience_serve(
                [QuerySpec("aba", method="exact", max_nodes=1)],
                database,
                parallel=False,
                cache=LanguageCache(canonical=False),
            )[0]
            assert budgeted.status == reference.status
            assert cache.stats.result_hits == 0
            # A budgeted run that *completed* is identical to an unbounded
            # one, so it feeds the cache for later unbudgeted duplicates.
            generous = LanguageCache()
            with ResilienceServer(database, max_workers=1, cache=generous) as inner:
                [first] = inner.serve([QuerySpec("aba", max_nodes=10_000)])
                assert first.status == "ok"
                [replayed] = inner.serve(["aba"])
                assert replayed.status == "ok"
                assert generous.stats.result_hits == 1

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_a_cancelled_workload_is_cancelled_whatever_the_cache_temperature(
        self, database, max_workers
    ):
        # A fired token skips a query whether or not the result cache could
        # answer it: a cancelled workload's outcomes never depend on cache
        # temperature.
        workload = ["ax*b", "ab|bc", "(ab)*a"]

        def cancelled():
            token = CancellationToken()
            token.cancel("WorkloadCancelled: the client went away")
            return {index: token for index in range(len(workload))}

        def serve(server):
            outcomes = server.serve_iter(workload, cancel=cancelled())
            return sorted(outcomes, key=lambda outcome: outcome.index)

        with ResilienceServer(database, max_workers=max_workers) as cold:
            cold_outcomes = serve(cold)
        cache = LanguageCache()
        with ResilienceServer(database, max_workers=max_workers, cache=cache) as warm:
            assert [outcome.status for outcome in warm.serve(workload)] == [OK] * 3
            warm_outcomes = serve(warm)
        assert cache.stats.result_hits == len(workload)
        assert [outcome.status for outcome in cold_outcomes] == [ERROR] * 3
        assert warm_outcomes == cold_outcomes

    def test_failures_are_never_cached(self, database):
        from repro.service import QuerySpec

        cache = LanguageCache()
        workload = [
            "((",                                 # parse error
            QuerySpec("aa", max_nodes=1),         # exact search, overruns
            QuerySpec("aa", method="local-flow"), # inapplicable forced method
        ]
        with ResilienceServer(database, max_workers=2, cache=cache) as server:
            first = server.serve(workload)
            second = server.serve(workload)
        assert first == second
        assert {outcome.status for outcome in first} == {"error", "budget-exceeded"}
        assert cache.stats.result_hits == 0


class TestHitRateAccounting:
    """The satellite bugfix: non-cacheable completions must not skew the rate.

    ``result_misses`` counts *cacheable* computations only (at completion
    time), error/budget completions land in ``result_uncacheable``, so
    ``hits / (hits + misses)`` is the hit rate over cacheable traffic exactly
    — error-heavy chaos traffic leaves it untouched.
    """

    WORKLOAD_STATUSES = ["ok", "error", "budget-exceeded", "error", "ok"]

    def chaos_workload(self):
        from repro.service import QuerySpec

        return [
            "ax*b",                                # ok, cacheable
            "((",                                  # parse error (planning)
            QuerySpec("aa", max_nodes=1),          # budget-exceeded
            QuerySpec("aa", method="local-flow"),  # inapplicable forced method
            "ab",                                  # ok, cacheable
        ]

    def test_uncacheable_completions_are_counted_separately(self, database):
        cache = LanguageCache()
        with ResilienceServer(database, max_workers=2, cache=cache) as server:
            outcomes = server.serve(self.chaos_workload())
        assert [outcome.status for outcome in outcomes] == self.WORKLOAD_STATUSES
        stats = cache.stats
        # The two ok completions are cacheable misses; the budget overrun and
        # the inapplicable method are executed-but-uncacheable; the parse
        # error never reaches execution and is counted nowhere.
        assert stats.result_misses == 2
        assert stats.result_uncacheable == 2
        assert stats.result_hits == 0

    def test_hit_rate_is_over_cacheable_traffic_only(self, database):
        cache = LanguageCache()
        with ResilienceServer(database, max_workers=2, cache=cache) as server:
            server.serve(self.chaos_workload())
            server.serve(self.chaos_workload())
        stats = cache.stats
        # Second serve: both ok queries hit; the failures fail again.
        assert stats.result_hits == 2
        assert stats.result_misses == 2
        assert stats.result_uncacheable == 4
        rate = stats.result_hits / (stats.result_hits + stats.result_misses)
        assert rate == 0.5  # errors did not drag the cacheable rate down

    def test_lookup_of_a_failing_computation_is_not_a_miss(self, database):
        # Misses count at completion time, so a lookup whose computation then
        # errors contributes nothing to the miss column.
        from repro.service import QuerySpec

        cache = LanguageCache()
        with ResilienceServer(database, max_workers=1, cache=cache) as server:
            server.serve([QuerySpec("aa", method="local-flow")])
        assert cache.stats.result_misses == 0
        assert cache.stats.result_uncacheable == 1

    def test_string_keyed_cache_counts_nothing(self, database):
        cache = LanguageCache(canonical=False)
        with ResilienceServer(database, max_workers=1, cache=cache) as server:
            server.serve(self.chaos_workload())
        stats = cache.stats
        assert (stats.result_hits, stats.result_misses, stats.result_uncacheable) == (0, 0, 0)
