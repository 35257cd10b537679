"""Tests for the bounded cache tier (ISSUE 10 tentpole).

``LanguageCache`` with ``max_entries`` / ``max_age_seconds`` must keep every
layer bounded with LRU eviction, count evictions, and surface its live
footprint through the ``entries`` / ``bytes_estimate`` gauges — and a bounded
server's cache footprint must stay flat over a long soak instead of growing
with every distinct query ever seen (the unbounded-growth leak class).
"""

import pytest

from repro.graphdb import generators
from repro.resilience import CacheStats, LanguageCache, resilience_many
from repro.service import ResilienceServer
from repro.traffic.generator import TrafficProfile, generate_traffic
from repro.traffic.soak import SoakRunner


@pytest.fixture
def database():
    return generators.random_labelled_graph(5, 14, "abxy", seed=3)


# Distinct, non-equivalent query classes (each its own fingerprint).
DISTINCT = ["ab", "ba", "aa", "bb", "ax*b", "ab|ba", "xy", "yx"]


class TestBoundedLru:
    def test_size_bound_holds_per_layer(self, database):
        cache = LanguageCache(max_entries=3)
        resilience_many(DISTINCT, database, cache=cache)
        # Three layers (expression, class, result), each capped; the plan
        # memo is used only by canonical=False caches.
        assert len(cache._by_expression) <= 3
        assert len(cache._classes) <= 3
        assert len(cache._plans) == 0
        assert len(cache._results) <= 3
        assert cache.stats.entries <= 9
        assert cache.stats.evictions > 0

    def test_unbounded_cache_never_evicts(self, database):
        cache = LanguageCache()
        resilience_many(DISTINCT + DISTINCT, database, cache=cache)
        assert cache.stats.evictions == 0
        assert cache.stats.entries == (
            len(cache._by_expression) + len(cache._classes) + len(cache._results)
        )

    def test_lru_order_keeps_the_recently_used(self, database):
        cache = LanguageCache(max_entries=2)
        cache.language("ab")
        cache.language("ba")
        cache.language("ab")  # touch: "ab" is now the most recent
        cache.language("aa")  # evicts "ba", not "ab"
        assert "ab" in cache._by_expression
        assert "ba" not in cache._by_expression
        assert "aa" in cache._by_expression

    def test_eviction_is_a_cost_never_a_correctness_event(self, database):
        bounded = LanguageCache(max_entries=1)
        unbounded = LanguageCache()
        queries = DISTINCT + list(reversed(DISTINCT)) + DISTINCT
        thrashed = resilience_many(queries, database, cache=bounded)
        reference = resilience_many(queries, database, cache=unbounded)
        assert thrashed == reference
        assert bounded.stats.evictions > 0

    def test_age_bound_expires_idle_entries(self, database):
        clock = [0.0]
        cache = LanguageCache(max_age_seconds=10.0, clock=lambda: clock[0])
        resilience_many(["ab"], database, cache=cache)
        held = cache.stats.entries
        assert held > 0
        clock[0] = 5.0
        resilience_many(["ab"], database, cache=cache)  # touch refreshes stamps
        clock[0] = 12.0  # < 5.0 + 10, so the touched entries survive
        assert cache.lookup_result(cache.language("ab"), database) is not None
        clock[0] = 100.0
        resilience_many(["ba"], database, cache=cache)
        assert cache.stats.evictions >= held
        assert "ab" not in cache._by_expression

    def test_rejects_degenerate_bounds(self):
        with pytest.raises(ValueError):
            LanguageCache(max_entries=0)
        with pytest.raises(ValueError):
            LanguageCache(max_age_seconds=0)

    def test_bytes_estimate_gauge_is_nonnegative_under_thrash(self, database):
        # Regression: languages grow after insertion (memoized infix-free
        # sublanguage), so eviction must subtract the size recorded at
        # insertion, not re-measure — re-measuring drove the gauge negative.
        cache = LanguageCache(max_entries=1)
        resilience_many(DISTINCT + DISTINCT, database, cache=cache)
        assert cache.stats.bytes_estimate >= 0
        assert cache.stats.entries == 3  # one entry per layer

    def test_gauges_round_trip_through_stats_surfaces(self, database):
        cache = LanguageCache(max_entries=2)
        resilience_many(DISTINCT, database, cache=cache)
        snapshot = cache.stats.snapshot()
        payload = snapshot.as_dict()
        for gauge in CacheStats.GAUGE_FIELDS:
            assert gauge in payload
        aggregated = CacheStats.aggregate([snapshot, CacheStats()])
        assert aggregated.entries == snapshot.entries
        assert aggregated.evictions == snapshot.evictions


class TestServerMetricsSurface:
    def test_prometheus_renders_gauges_without_total_suffix(self, database):
        from repro.service import AsyncResilienceServer, ThreadExchange

        cache = LanguageCache(max_entries=2)
        with ResilienceServer(database, max_workers=1, cache=cache) as server:
            server.serve(DISTINCT)
        async_server = AsyncResilienceServer(
            ThreadExchange(nodes=1, max_workers=1, cache=cache), database=database
        )
        try:
            text = async_server.metrics().to_prometheus()
        finally:
            async_server.close()
        assert "# TYPE repro_cache_entries gauge" in text
        assert "# TYPE repro_cache_bytes_estimate gauge" in text
        assert "repro_cache_entries_total" not in text
        assert "# TYPE repro_cache_evictions_total counter" in text
        assert "# TYPE repro_cache_result_uncacheable_total counter" in text

    def test_shared_exchange_cache_is_counted_exactly_once(self, database):
        # Nodes serving from a fleet-shared cache report empty per-node
        # CacheStats; the exchange reports the shared cache itself, so the
        # front-end roll-up sees it exactly once.
        from repro.service import AsyncResilienceServer, ThreadExchange

        cache = LanguageCache(max_entries=2)
        exchange = ThreadExchange(nodes=2, max_workers=1, cache=cache)
        server = AsyncResilienceServer(exchange)
        try:
            import asyncio

            async def drive():
                outcomes = []
                stream = await server.submit(DISTINCT, database=database)
                async for outcome in stream:
                    outcomes.append(outcome)
                return outcomes

            asyncio.run(drive())
            metrics = server.metrics()
        finally:
            server.close()
        assert metrics.cache.evictions == cache.stats.evictions
        assert metrics.cache.entries == cache.stats.entries
        assert metrics.cache.classifications == cache.stats.classifications > 0


class _FootprintTracker:
    """A ``tests/leak_sanitizer.LeakTracker``-style tracker for cache growth.

    Duck-typed to the soak runner's ``leak_tracker`` hook (``start`` /
    ``stop`` / ``leaks``): records the bounded cache's ``entries`` gauge at
    start and reports a leak if the footprint at stop exceeds the hard bound
    the cache's ``max_entries`` implies (3 layers × max_entries).
    """

    def __init__(self, cache: LanguageCache, max_entries: int) -> None:
        self._cache = cache
        self._bound = 3 * max_entries
        self.started_at = None
        self.stopped_at = None

    def start(self) -> None:
        self.started_at = self._cache.stats.entries

    def stop(self) -> None:
        self.stopped_at = self._cache.stats.entries

    def leaks(self) -> list[str]:
        if self.stopped_at is not None and self.stopped_at > self._bound:
            return [
                f"cache footprint grew past its bound: {self.stopped_at} entries "
                f"> {self._bound} (max_entries × layers)"
            ]
        return []


class TestSoakFootprintStaysFlat:
    MAX_ENTRIES = 4

    def test_bounded_cache_footprint_is_flat_across_soak_rounds(self):
        # The satellite bugfix: a server's LanguageCache used to grow with
        # every distinct query for the server's whole lifetime.  With bounds
        # set, repeated soak runs over one shared cache must plateau — the
        # footprint after run N equals the footprint after run 1, while the
        # eviction counter keeps rising (proof the bound is doing the work).
        trace = generate_traffic(TrafficProfile(requests=12, seed=11))
        cache = LanguageCache(max_entries=self.MAX_ENTRIES)
        tracker = _FootprintTracker(cache, self.MAX_ENTRIES)
        footprints, evictions = [], []
        for _ in range(3):
            report = SoakRunner(
                trace, nodes=2, max_workers=1, cache=cache, leak_tracker=tracker
            ).run()
            footprints.append(report.cache["entries"])
            evictions.append(report.cache["evictions"])
        assert all(count <= 4 * self.MAX_ENTRIES for count in footprints)
        # Flat: steady-state footprint, not monotone growth run over run.
        assert footprints[1] == footprints[2]
        assert evictions[0] > 0
        assert evictions[2] > evictions[1] > evictions[0]
        assert tracker.leaks() == []

    def test_soak_report_carries_the_cache_surface(self):
        trace = generate_traffic(TrafficProfile(requests=6, seed=5))
        cache = LanguageCache(max_entries=self.MAX_ENTRIES)
        report = SoakRunner(trace, nodes=2, max_workers=1, cache=cache).run()
        payload = report.as_dict()
        assert payload["cache"]["evictions"] == cache.stats.evictions
        assert payload["cache"]["entries"] == cache.stats.entries <= 4 * self.MAX_ENTRIES
