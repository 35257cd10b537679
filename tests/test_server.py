"""Warm-pool lifecycle tests for :class:`repro.service.server.ResilienceServer`.

The server's contract has three parts the serving tests don't cover:

* **warmth** — the worker pool (and the workers' database copy) survives
  across :meth:`serve` calls: same pool object, same worker PIDs, no re-fork;
* **lifecycle** — context-manager/:meth:`close` semantics, and a closed
  server refuses work instead of silently forking a new pool;
* **fault tolerance** — a worker process dying breaks one call's in-flight
  queries (structured ``"error"`` outcomes), never the server: the next call
  runs on a fresh pool with correct results.
"""

import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.exceptions import ReproError
from repro.graphdb import generators
from repro.service import ERROR, OK, LanguageCache, QuerySpec, ResilienceServer, Workload
from repro.service.scheduler import plan_workload
from repro.service.serve import _execute, resilience_serve

MIXED = ["ax*b", "ab|bc", "aa", "ab", "ε|a", "abc|be"]


@pytest.fixture(scope="module")
def database():
    return generators.random_labelled_graph(5, 14, "abcdexy", seed=3)


@pytest.fixture()
def server(database):
    with ResilienceServer(database, max_workers=2) as server:
        yield server


class TestWarmth:
    def test_pool_and_workers_survive_across_serve_calls(self, server, database):
        expected = resilience_serve(MIXED, database, parallel=False)
        assert server.worker_pids() == frozenset()  # cold until the first call
        first = server.serve(MIXED)
        pool = server._pool
        pids = server.worker_pids()
        assert pids, "the first parallel call must create workers"
        for _ in range(3):
            assert server.serve(MIXED) == first == expected
            assert server._pool is pool, "pool object must be reused, not rebuilt"
            assert server.worker_pids() == pids, "serve() must not re-fork workers"

    def test_streaming_and_batch_share_the_same_warm_pool(self, server):
        batch = server.serve(MIXED)
        pids = server.worker_pids()
        streamed = sorted(server.serve_iter(MIXED), key=lambda outcome: outcome.index)
        assert streamed == batch
        assert server.worker_pids() == pids

    def test_session_cache_is_shared_across_calls(self, database):
        with ResilienceServer(database, max_workers=2) as server:
            server.serve(MIXED)
            classifications = server.cache.stats.classifications
            assert classifications > 0
            server.serve(MIXED)
            assert server.cache.stats.classifications == classifications

    def test_serial_server_never_forks(self, database):
        with ResilienceServer(database, parallel=False) as server:
            outcomes = server.serve(MIXED)
            assert server.worker_pids() == frozenset()
        assert outcomes == resilience_serve(MIXED, database, parallel=False)

    def test_single_worker_runs_serially(self, database):
        with ResilienceServer(database, max_workers=1) as server:
            assert all(outcome.ok for outcome in server.serve(MIXED))
            assert server.worker_pids() == frozenset()


class TestWidth:
    def test_pool_grows_when_a_larger_workload_arrives(self, database):
        # A small warm-up call must not cap throughput for the session: the
        # pool is rebuilt wider (one extra fork round) when a bigger workload
        # needs it, and never shrinks back.
        with ResilienceServer(database, max_workers=3) as server:
            small = server.serve(MIXED[:2])
            assert all(outcome.ok for outcome in small)
            assert server._pool_width == 2
            large = server.serve(MIXED * 4)
            assert server._pool_width == 3
            assert large == resilience_serve(MIXED * 4, database, parallel=False)
            server.serve(MIXED[:2])  # smaller again: keep the wide pool
            assert server._pool_width == 3

    def test_abandoned_serve_iter_does_not_wedge_the_server(self, database):
        with ResilienceServer(database, max_workers=2) as server:
            iterator = server.serve_iter(MIXED * 4)
            first = next(iterator)
            assert first.status == OK
            iterator.close()  # abandon mid-stream; queued tasks are cancelled
            assert server.serve(MIXED) == resilience_serve(MIXED, database, parallel=False)

    def test_resuming_serve_iter_after_close_never_forks_a_new_pool(self, database):
        # Regression: a generator suspended *before* dispatching (first yield
        # is a planning failure) and resumed after close() used to fork a
        # fresh pool that nothing would ever shut down.
        server = ResilienceServer(database, max_workers=2)
        iterator = server.serve_iter(["((", *MIXED])  # parse error yields first
        first = next(iterator)
        assert first.status == ERROR
        server.close()
        remainder = list(iterator)
        assert server._pool is None
        assert server.worker_pids() == frozenset()
        assert len(remainder) == len(MIXED)
        assert all(outcome.status == ERROR for outcome in remainder)
        assert all("PoolShutDown" in outcome.error for outcome in remainder)

    def test_close_racing_a_stream_on_another_thread_never_leaves_a_pool(self, database):
        # Regression: a node kill closes its servers from another thread.
        # close() used to mark the server closed only after the old pool had
        # shut down, so a stream forking meanwhile got a pool nothing would
        # ever shut down.  Hold close() inside that shutdown and fork then.
        server = ResilienceServer(database, max_workers=2)
        in_shutdown, release = threading.Event(), threading.Event()

        class PoolShuttingDown:
            def shutdown(self, wait, cancel_futures):
                in_shutdown.set()
                release.wait(30)

        server._pool = PoolShuttingDown()
        closer = threading.Thread(target=server.close)
        closer.start()
        try:
            assert in_shutdown.wait(30)
            with pytest.raises(ReproError):
                server._ensure_pool(2)
        finally:
            release.set()
            closer.join(30)
            leaked = server._pool
            if isinstance(leaked, ProcessPoolExecutor):
                leaked.shutdown(wait=True)
        assert not closer.is_alive()
        assert leaked is None
        assert server.pool_stats().pools_created == 0

    def test_resuming_serve_iter_after_close_drains_instead_of_hanging(self, database):
        # Regression: close() between resumptions used to leave the generator
        # blocked forever in wait() on futures of the discarded pool.
        server = ResilienceServer(database, max_workers=2)
        iterator = server.serve_iter(MIXED * 4)
        first = next(iterator)
        assert first.status == OK
        server.close()
        remainder = list(iterator)  # must terminate, not deadlock
        assert len(remainder) == len(MIXED) * 4 - 1
        for outcome in remainder:
            assert outcome.status in (OK, ERROR)
            if outcome.status == ERROR:
                assert "PoolShutDown" in outcome.error or "BrokenProcessPool" in outcome.error


class TestLifecycle:
    def test_close_shuts_the_pool_and_refuses_further_work(self, database):
        server = ResilienceServer(database, max_workers=2)
        server.serve(MIXED)
        assert server.worker_pids()
        server.close()
        assert server.worker_pids() == frozenset()
        with pytest.raises(ReproError):
            server.serve(MIXED)
        with pytest.raises(ReproError):
            server.serve_iter(MIXED)
        server.close()  # idempotent

    def test_context_manager_closes_on_exit(self, database):
        with ResilienceServer(database, max_workers=2) as server:
            server.serve(MIXED)
        with pytest.raises(ReproError):
            server.serve(MIXED)

    def test_invalid_max_workers(self, database):
        with pytest.raises(ValueError):
            ResilienceServer(database, max_workers=0)

    def test_store_is_configured_through_the_cache_only(self, database, tmp_path):
        """``LanguageCache(store=...)`` is the one place to set the store: the
        serving entry points take no ``store=``, and a warm pool built on such
        a cache persists analyses that a second server reads back."""
        from repro.resilience import resilience_many
        from repro.service import AnalysisStore

        store = AnalysisStore(tmp_path)
        with pytest.raises(TypeError):
            ResilienceServer(database, store=store)
        with pytest.raises(TypeError):
            resilience_serve(MIXED, database, parallel=False, store=store)
        with pytest.raises(TypeError):
            resilience_many(MIXED, database, store=store)

        with ResilienceServer(
            database, max_workers=2, cache=LanguageCache(store=store)
        ) as server:
            cold = server.serve(MIXED)
        assert store.stats().writes > 0

        warm_store = AnalysisStore(tmp_path)
        warm_cache = LanguageCache(store=warm_store)
        with ResilienceServer(database, max_workers=2, cache=warm_cache) as server:
            assert server.serve(MIXED) == cold
        assert warm_store.stats().hits > 0
        assert warm_store.stats().writes == 0
        assert warm_cache.stats.classifications == 0

    def test_explicit_database_must_match_the_warm_one(self, server, database):
        other = generators.random_labelled_graph(6, 16, "ab", seed=7)
        with pytest.raises(ReproError):
            server.serve(MIXED, database=other)
        # Same content in a different instance is fine (the guard is semantic).
        twin = generators.random_labelled_graph(5, 14, "abcdexy", seed=3)
        assert twin is not database
        assert server.serve(MIXED, database=twin) == server.serve(MIXED)

    def test_database_fingerprints_distinguish_semantics(self, database):
        bag = database.to_bag(1)
        assert database.content_fingerprint() != bag.content_fingerprint()
        clone = generators.random_labelled_graph(5, 14, "abcdexy", seed=3)
        assert clone.content_fingerprint() == database.content_fingerprint()


class TestCrashRecovery:
    def test_crashed_worker_does_not_poison_subsequent_calls(self, database):
        # A string-keyed cache keeps the result-level layer out of the way:
        # with it on, the repeat serve would be answered from the cache and
        # (correctly) never rebuild the pool this test is about.
        with ResilienceServer(
            database, max_workers=2, cache=LanguageCache(canonical=False)
        ) as server:
            reference = server.serve(MIXED)
            pids_before = server.worker_pids()
            crash = server._pool.submit(os._exit, 1)
            with pytest.raises(Exception):
                crash.result()
            # The next call must transparently rebuild the pool and answer
            # correctly — fresh workers, same outcomes.
            recovered = server.serve(MIXED)
            assert recovered == reference
            assert server.worker_pids()
            assert server.worker_pids().isdisjoint(pids_before)

    def test_mid_serve_crash_retries_chunks_and_completes_correctly(self, database):
        # A single worker crash breaks the pool mid-call; every affected chunk
        # must be re-run once on a fresh pool, so the call still returns the
        # full, correct outcome list (errors only appear on a *second*
        # failure, which a one-off crash cannot produce).
        expected = resilience_serve(MIXED * 4, database, parallel=False)
        with ResilienceServer(database, max_workers=2) as server:
            assert {outcome.status for outcome in server.serve(MIXED)} == {OK}
            server._pool.submit(os._exit, 1)
            assert server.serve(MIXED * 4) == expected
            assert server.serve(MIXED * 4) == expected

    def test_mid_stream_crash_retries_pending_chunks(self, database):
        expected = resilience_serve(MIXED * 8, database, parallel=False)
        with ResilienceServer(database, max_workers=2) as server:
            iterator = server.serve_iter(MIXED * 8)
            first = next(iterator)
            server._pool.submit(os._exit, 1)
            outcomes = sorted([first, *iterator], key=lambda outcome: outcome.index)
            assert outcomes == expected

    def test_lost_wakeup_nudge_is_harmless_in_every_pool_state(self, database):
        # _stream re-pokes the pool's management thread whenever a wait times
        # out (the CPython < 3.12 lost-wakeup workaround); the poke must be a
        # no-op on a healthy pool, a shut-down pool, and no pool at all.
        from repro.service.server import _nudge_pool

        _nudge_pool(None)
        with ResilienceServer(database, max_workers=2) as server:
            reference = server.serve(MIXED)
            _nudge_pool(server._pool)
            assert server.serve(MIXED) == reference
            pool = server._pool
        _nudge_pool(pool)  # closed server: pool already shut down


class TestSharedPlans:
    def test_equivalent_queries_share_one_plan(self):
        workload = Workload.coerce(
            ["(ab)*a", "a(ba)*", "(ab)*a", QuerySpec("ab", method="exact"), QuerySpec(42)]
        )
        scheduled, failed = plan_workload(workload, LanguageCache())
        assert [outcome.index for outcome in failed] == [4]
        by_index = {item.index: item for item in scheduled}
        assert by_index[0].plan is by_index[1].plan is by_index[2].plan
        assert by_index[1].language.name == "a(ba)*"  # display names survive
        # A forced method is planned (and validated) when it executes.
        assert by_index[3].plan is None
        assert by_index[3].planned_method == "exact"

    def test_shipped_plans_execute_like_the_session_plans(self, database):
        # A pool task pickles its chunk; the worker runs the unpickled plans
        # as they are, with no intern table, and must answer identically.
        workload = Workload.coerce(MIXED + ["a(ba)*", "(ab)*a", QuerySpec("aa", method="exact")])
        scheduled, _ = plan_workload(workload, LanguageCache())
        shipped = pickle.loads(pickle.dumps(scheduled))
        by_index = {item.index: item for item in shipped}
        assert by_index[len(MIXED)].plan is by_index[len(MIXED) + 1].plan
        assert [_execute(item, database) for item in shipped] == [
            _execute(item, database) for item in scheduled
        ]
