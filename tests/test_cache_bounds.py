"""Tests for the bounded in-process caches.

Every in-process memo is one :class:`~repro.lru.BoundedLru`: it must hold
its bounds, count its evictions and keep its accounting exact while threads
share it.  ``LanguageCache`` with ``max_entries`` keeps every layer bounded,
surfaces its live footprint through the ``entries`` / ``bytes_estimate``
gauges, and a bounded server's cache footprint must stay flat over a long
soak instead of growing with every distinct query ever seen (the
unbounded-growth leak class).  The compiled flow graphs of each database's
substrates are bounded by ``GRAPH_CACHE_ARCS`` total arcs: their footprint
plateaus over many query classes, the Figure 1 PTIME queries on a
10,000-edge database stay fully cached, and evicting every graph never
changes an outcome.
"""

import itertools
import random
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

import repro.flow.substrate as substrate_module
from repro.flow.substrate import bcl_substrate, product_substrate
from repro.graphdb import generators
from repro.languages import Language
from repro.languages.examples import FIGURE_1_LANGUAGES, PTIME
from repro.lru import BoundedLru
from repro.resilience import (
    CacheStats,
    LanguageCache,
    execute,
    plan_query,
    resilience,
    resilience_many,
)
from repro.service import ResilienceServer
from repro.traffic.generator import DatabaseSpec, TrafficProfile, generate_traffic
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

    def test_rejects_degenerate_bounds(self):
        with pytest.raises(ValueError):
            LanguageCache(max_entries=0)
        with pytest.raises(ValueError):
            BoundedLru(max_size=0)

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
        snapshot = cache.stats
        payload = snapshot.as_dict()
        for gauge in CacheStats.GAUGE_FIELDS:
            assert gauge in payload
        aggregated = CacheStats.aggregate([snapshot, CacheStats()])
        assert aggregated.entries == snapshot.entries
        assert aggregated.evictions == snapshot.evictions


class TestSharedLru:
    def test_threads_sharing_one_map_keep_it_consistent(self):
        # Fleet nodes share one LanguageCache, so its maps see interleaved
        # sets and gets from several threads.  Every set inserts a new key,
        # so all but the last two are evicted.
        lru = BoundedLru(max_entries=2)
        workers, rounds = 4, 2000
        errors = []
        start = threading.Barrier(workers)

        def hammer(worker: int) -> None:
            try:
                start.wait(timeout=60)
                for step in range(rounds):
                    lru.set((worker, step), step)
                    lru.get((worker, step - 1))
                    lru.get(((worker + 1) % workers, step))
            except Exception as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(worker,)) for worker in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert lru.size == len(lru) == 2
        assert lru.evictions == workers * rounds - 2
        assert lru.hits + lru.misses == 2 * workers * rounds

    def test_size_bound_evicts_least_recent_and_never_keeps_an_oversized_value(self):
        evicted = []
        lru = BoundedLru(max_size=10, sizer=len, on_evict=lambda key, value: evicted.append(key))
        lru.set("a", "xxxx")
        lru.set("b", "xxxx")
        assert lru.get("a") == "xxxx"  # touch: "b" is now the least recent
        lru.set("c", "xxxx")
        assert evicted == ["b"]
        assert ("a" in lru, "c" in lru, lru.size) == (True, True, 8)
        oversized = "x" * 11
        lru.set("d", oversized)
        assert lru.setdefault("d", oversized) is oversized
        assert "d" not in lru
        assert (evicted, lru.size, lru.evictions) == (["b"], 8, 1)

    def test_on_evict_runs_after_the_lock_is_released(self):
        # A node's callback closes an evicted warm server; it may touch the
        # map, which would deadlock under a held lock.
        lru = BoundedLru(max_entries=1, on_evict=lambda key, value: lru.get(key))
        lru.set("a", 1)
        lru.set("b", 2)
        assert (len(lru), "b" in lru, lru.evictions) == (1, True, 1)

    def test_clear_empties_without_counting_evictions(self):
        lru = BoundedLru(max_entries=4)
        lru.set("a", 1)
        lru.set("b", 2)
        lru.get("a")
        assert lru.values() == [2, 1], "a snapshot, least recently used first"
        lru.clear()
        assert (len(lru), lru.size, lru.evictions, lru.values()) == (0, 0, 0, [])


#: The PTIME queries of Figure 1: 3 local, 2 BCL and 4 one-dangling.
PTIME_QUERIES = tuple(example.regex for example in FIGURE_1_LANGUAGES if example.complexity == PTIME)

#: ``PTIME_QUERIES`` plus a one-dangling pair whose plans mirror the database.
IDENTITY_QUERIES = PTIME_QUERIES + ("eb|abc", "cba|eb")


def _soak_plans(count: int) -> list:
    """Plans of ``count`` distinct classes, three local to one one-dangling."""
    letters = "abcdefxy"
    words = ["".join(word) for word in itertools.permutations(letters, 3)]
    random.Random(0).shuffle(words)
    candidates = [f"{a}{b}{c}|{b}{e}" for a, b, c, e in itertools.permutations(letters, 4)]
    random.Random(1).shuffle(candidates)
    dangling = (
        plan
        for plan in (plan_query(Language.from_regex(query)) for query in candidates)
        if plan.method == "one-dangling-flow"
    )
    plans = []
    for position, word in enumerate(words[: count * 3 // 4]):
        plans.append(plan_query(Language.from_regex(word)))
        if position % 3 == 2:
            plans.append(next(dangling))
    return plans


def _flow_mib() -> float:
    """MiB held by blocks allocated in ``repro/flow`` since tracing began."""
    pattern = str(Path(substrate_module.__file__).parent / "*")
    snapshot = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, pattern)])
    return sum(stat.size for stat in snapshot.statistics("filename")) / 2**20


class TestGraphCache:
    def test_footprint_plateaus_at_the_arc_budget(self, monkeypatch):
        monkeypatch.setattr(substrate_module, "GRAPH_CACHE_ARCS", 1024)
        plans = _soak_plans(120)
        assert {plan.method for plan in plans} == {"local-flow", "one-dangling-flow"}
        database = generators.random_labelled_graph(100, 600, "abcdefxy", seed=7)
        footprint = {}
        tracemalloc.start()
        try:
            for count, plan in enumerate(plans, 1):
                execute(plan, database)
                if count in (30, 120):
                    footprint[count] = _flow_mib()
        finally:
            tracemalloc.stop()
        graphs = product_substrate(database.index()).graphs
        assert graphs.size <= 1024
        assert graphs.evictions > 0
        # Unbounded, each of the last 90 classes keeps its graph: about
        # 2.3 MiB more on this database.
        assert footprint[120] - footprint[30] < 0.5

    def test_edge_less_graphs_count_against_the_budget(self, monkeypatch):
        # A query over letters the database lacks compiles a graph with no
        # edges that still holds an offset per node id; counted as free, any
        # number of them would stay resident.
        monkeypatch.setattr(substrate_module, "GRAPH_CACHE_ARCS", 200)
        database = generators.random_labelled_graph(50, 120, "ab", seed=1)
        for word in itertools.permutations("pqrstu", 3):
            resilience("".join(word), database)
        graphs = product_substrate(database.index()).graphs
        assert graphs.size <= 200
        assert graphs.evictions == graphs.misses - len(graphs) > 0

    def test_default_budget_keeps_every_ptime_graph_of_a_large_database(self):
        spec = DatabaseSpec(num_nodes=1000, num_edges=10_000)
        database = spec.build(seed=random.Random(7).randrange(2**31))
        for query in PTIME_QUERIES:
            resilience(query, database)
        index = database.index()
        product, bcl = product_substrate(index), bcl_substrate(index)
        hits = product.graph_hits + bcl.graph_hits
        for query in PTIME_QUERIES:
            resilience(query, database)
        assert (len(product.graphs), product.graphs.size) == (7, 55_039)
        assert (len(bcl.graphs), bcl.graphs.size) == (2, 29_923)
        assert product.graphs.evictions == bcl.graphs.evictions == 0
        assert product.graph_hits + bcl.graph_hits == hits + len(PTIME_QUERIES)
        assert product.graphs_compiled + bcl.graphs_compiled == len(PTIME_QUERIES)

    def test_evicting_every_graph_never_changes_an_outcome(self, monkeypatch):
        # A graph is a pure function of its key, so a recompile after an
        # eviction must reproduce values, contingency sets and methods.  Each
        # database serves every query twice: the second pass hits under the
        # default budget and recompiles under a one-arc budget.
        plans = [plan_query(Language.from_regex(query)) for query in IDENTITY_QUERIES]

        def outcomes() -> tuple[list, int]:
            records, hits = [], 0
            for seed in range(12):
                database = generators.random_labelled_graph(6, 16, "abcdexy", seed=seed)
                for target in (database, database.to_bag(3)):
                    for _ in range(2):
                        for plan in plans:
                            result = execute(plan, target)
                            records.append((result.value, result.contingency_set, result.method))
                    index = target.index()
                    hits += product_substrate(index).graph_hits + bcl_substrate(index).graph_hits
            return records, hits

        reference, reference_hits = outcomes()
        monkeypatch.setattr(substrate_module, "GRAPH_CACHE_ARCS", 1)
        thrashed, thrashed_hits = outcomes()
        assert len(reference) == 2 * 2 * 12 * len(IDENTITY_QUERIES)
        assert thrashed == reference
        assert reference_hits > 0
        assert thrashed_hits == 0


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
