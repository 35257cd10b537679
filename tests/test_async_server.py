"""Async front-end tests: admission control, fault injection, metrics.

Concerns the conformance suite doesn't cover:

* **admission control** — priority classes drain in order, FIFO within a
  class, depth-bounded rejection and deadline expiry produce structured
  ``admission-rejected`` outcomes, and (hypothesis) random interleavings of
  workloads lose nothing and leak nothing across iterators;
* **weighted fair shares** — a workload's round cap scales with its weight
  (``max(1, round(round_share * weight))``), per-class defaults apply, and
  (hypothesis) no positive weight can starve: every workload progresses in
  a predictable, bounded number of rounds;
* **cancellation** — a consumer cancel or an expired deadline cuts the
  unserved tail cooperatively at every check point (serial loop, chunk
  dispatch, and inside an in-flight worker chunk) with structured outcomes;
* **fault injection** — a worker crash mid-stream surfaces ``error``
  outcomes to exactly the affected workload's iterator while
  concurrently-admitted workloads are served correctly, and a closed server
  rejects ``submit`` cleanly;
* **abandonment** — a consumer that drops its outcome iterator mid-stream
  (async ``break`` or a GC'd sync generator) neither wedges later serving
  nor keeps burning pool chunks on the abandoned tail;
* **metrics** — the programmatic :class:`~repro.service.ServerMetrics`
  snapshot and the HTTP endpoint's JSON agree, the admission/cache/pool
  counters actually move, and the content-negotiated Prometheus text
  exposition parses with coherent per-node and histogram series.
"""

import asyncio
import gc
import json
import math
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faults import GatedExchange, poison_language
from repro.exceptions import ReproError
from repro.graphdb import generators
from repro.service import (
    ADMISSION_REJECTED,
    BUDGET_EXCEEDED,
    ERROR,
    OK,
    AsyncResilienceServer,
    CacheStats,
    CancellationToken,
    LanguageCache,
    QuerySpec,
    ResilienceServer,
    ThreadExchange,
    Workload,
    WorkloadEnvelope,
    resilience_serve,
)

MIXED = ["ax*b", "ab|bc", "aa", "ab", "ε|a", "abc|be"]


@pytest.fixture(scope="module")
def database():
    return generators.random_labelled_graph(5, 14, "abcdexy", seed=3)


@pytest.fixture(scope="module")
def reference(database):
    return resilience_serve(MIXED, database, parallel=False)


def sorted_outcomes(outcomes):
    return sorted(outcomes, key=lambda outcome: outcome.index)


async def collect(iterator):
    return [outcome async for outcome in iterator]


def run(coroutine):
    return asyncio.run(coroutine)


# --------------------------------------------------------------------- admission


class TestAdmission:
    def test_concurrent_workloads_share_one_warm_pool(self, database, reference):
        async def scenario():
            async with AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=2, cache=LanguageCache(canonical=False)),
                database=database,
            ) as server:
                iterators = [await server.submit(MIXED) for _ in range(3)]
                results = await asyncio.gather(*(collect(it) for it in iterators))
                pids = server.worker_pids()
                assert pids, "serving must have created the shared pool"
                # Round two on the same warm pool: identical answers, no re-fork.
                again = await collect(await server.submit(MIXED))
                assert server.worker_pids() == pids
                assert server.metrics().pool.pools_created == 1
                return results + [again]

        for outcomes in run(scenario()):
            assert sorted_outcomes(outcomes) == reference

    def test_priority_classes_drain_in_order_with_fifo_within_class(self, database):
        async def scenario():
            server = AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=1),
                database=database,
                autostart=False,
            )
            with server:
                order = [2, 0, 1, 0, 2, 1]
                iterators = [
                    await server.submit(MIXED[:2], priority=priority) for priority in order
                ]
                server.start()
                await asyncio.gather(*(collect(it) for it in iterators))
                return server.drain_log()

        log = run(scenario())
        priorities = [priority for priority, _ in log]
        assert priorities == sorted(priorities), "priority classes must drain in order"
        for cls in set(priorities):
            seqs = [seq for priority, seq in log if priority == cls]
            assert seqs == sorted(seqs), f"class {cls} must drain FIFO"

    def test_queue_depth_bound_rejects_structurally(self, database, reference):
        async def scenario():
            server = AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=1),
                database=database,
                max_queue_depth=2,
                autostart=False,
            )
            with server:
                admitted = [await server.submit(MIXED) for _ in range(2)]
                turned_away = await server.submit(MIXED, priority=5)
                rejected = await collect(turned_away)  # yields without serving
                server.start()
                served = await asyncio.gather(*(collect(it) for it in admitted))
                metrics = server.metrics()
                return rejected, served, metrics

        rejected, served, metrics = run(scenario())
        assert len(rejected) == len(MIXED)
        assert all(outcome.status == ADMISSION_REJECTED for outcome in rejected)
        assert all("AdmissionRejected" in outcome.error for outcome in rejected)
        assert [outcome.index for outcome in rejected] == list(range(len(MIXED)))
        for outcomes in served:
            assert sorted_outcomes(outcomes) == reference
        assert metrics.admission.rejected == {5: 1}
        assert sum(metrics.admission.admitted.values()) == 2

    def test_deadline_expiry_rejects_instead_of_serving_stale(self, database):
        async def scenario():
            server = AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=1),
                database=database,
                autostart=False,
            )
            with server:
                expired = await server.submit(MIXED, deadline=0.0)
                fresh = await server.submit(MIXED)
                await asyncio.sleep(0.01)
                server.start()
                return (
                    await collect(expired),
                    await collect(fresh),
                    server.metrics().admission.deadline_expired,
                )

        expired, fresh, deadline_expired = run(scenario())
        assert all(outcome.status == ADMISSION_REJECTED for outcome in expired)
        assert all("deadline" in outcome.error for outcome in expired)
        assert all(outcome.ok for outcome in fresh)
        assert deadline_expired == 1

    def test_expiry_is_prompt_even_behind_higher_priority_traffic(self, database):
        # Regression: an expired low-priority workload must not wait for the
        # drain to reach its class — submit-time sweeping rejects it and
        # frees its queue-depth slot for the incoming workload.
        async def scenario():
            server = AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=1),
                database=database,
                max_queue_depth=1,
                autostart=False,
            )
            with server:
                stale = await server.submit(MIXED, priority=9, deadline=0.0)
                await asyncio.sleep(0.01)
                # At the depth bound — but the expired waiter must be swept,
                # admitting this one instead of rejecting it.
                fresh = await server.submit(MIXED, priority=0)
                stale_outcomes = await collect(stale)  # rejected without start()
                server.start()
                fresh_outcomes = await collect(fresh)
                return stale_outcomes, fresh_outcomes, server.metrics().admission

        stale_outcomes, fresh_outcomes, admission = run(scenario())
        assert all(
            outcome.status == ADMISSION_REJECTED and "deadline" in outcome.error
            for outcome in stale_outcomes
        )
        assert all(outcome.ok for outcome in fresh_outcomes)
        assert admission.deadline_expired == 1
        assert admission.admitted == {9: 1, 0: 1}
        assert admission.rejected == {9: 1}

    def test_round_share_interleaves_a_large_workload_with_its_peers(self, database):
        async def scenario():
            server = AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=1),
                database=database,
                round_share=2,
                autostart=False,
            )
            with server:
                big = await server.submit(MIXED * 3)
                small = await server.submit(MIXED[:2])
                server.start()
                big_outcomes, small_outcomes = await asyncio.gather(
                    collect(big), collect(small)
                )
                return big_outcomes, small_outcomes, server.drain_log()

        big_outcomes, small_outcomes, log = run(scenario())
        assert len(big_outcomes) == len(MIXED) * 3 and len(small_outcomes) == 2
        assert all(outcome.ok for outcome in big_outcomes + small_outcomes)
        # The small workload must not wait for the big one to finish: its seq
        # appears in the log before the big workload's last round.
        seqs = [seq for _, seq in log]
        assert seqs.index(2) < len(seqs) - 1 - seqs[::-1].index(1)

    def test_empty_workload_completes_immediately(self, database):
        async def scenario():
            async with AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=1),
                database=database,
            ) as server:
                iterator = await server.submit([])
                outcomes = await collect(iterator)
                # Sticky end-of-stream: iterating again raises instead of
                # blocking on the drained queue.
                with pytest.raises(StopAsyncIteration):
                    await iterator.__anext__()
                return outcomes

        assert run(scenario()) == []

    def test_empty_workload_is_admitted_even_at_a_saturated_queue(self, database):
        async def scenario():
            server = AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=1),
                database=database,
                max_queue_depth=1,
                autostart=False,
            )
            with server:
                await server.submit(MIXED)  # fills the only slot
                empty = await collect(await server.submit([]))  # needs no slot
                return empty, server.metrics().admission

        empty, admission = run(scenario())
        assert empty == []
        assert admission.rejected == {}
        assert sum(admission.admitted.values()) == 2

    def test_aclose_wakes_a_blocked_consumer(self, database):
        async def scenario():
            server = AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=1),
                database=database,
                autostart=False,
            )
            with server:
                # Nothing will ever be delivered (drain not started), so the
                # consumer blocks inside __anext__; aclose() must wake it.
                stream = await server.submit(MIXED)
                consumer = asyncio.ensure_future(collect(stream))
                await asyncio.sleep(0.01)  # let it block in queue.get()
                await stream.aclose()
                return await asyncio.wait_for(consumer, timeout=5)

        assert run(scenario()) == []

    def test_abandoned_waiters_free_their_depth_slots(self, database, reference):
        # Regression: a waiting workload whose consumer gave up (the normal
        # asyncio-timeout cancellation pattern) must not keep occupying an
        # admission slot and phantom-reject live traffic.
        async def scenario():
            server = AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=1),
                database=database,
                max_queue_depth=1,
                autostart=False,
            )
            with server:
                dead = await server.submit(MIXED)
                await dead.aclose()  # cancelled before serving ever started
                live = await server.submit(MIXED)  # must be admitted, not rejected
                server.start()
                return await collect(live)

        assert sorted_outcomes(run(scenario())) == reference

    def test_invalid_parameters(self, database):
        with pytest.raises(ValueError):
            AsyncResilienceServer(ThreadExchange(nodes=1), database=database, max_queue_depth=0)
        with pytest.raises(ValueError):
            AsyncResilienceServer(ThreadExchange(nodes=1), database=database, round_share=0)
        # The front-end serves through an Exchange only: a database or a bare
        # server is refused instead of being wrapped.
        with pytest.raises(TypeError):
            AsyncResilienceServer(database)
        with pytest.raises(TypeError), ResilienceServer(database, max_workers=1) as server:
            AsyncResilienceServer(server)

        async def bad_deadline():
            async with AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=1),
                database=database,
            ) as server:
                await server.submit(MIXED, deadline=-1.0)

        with pytest.raises(ValueError):
            run(bad_deadline())


QUERY_POOL = ("ax*b", "ab|bc", "aa", "ab", "ε|a", "(ab)*a")


@st.composite
def admission_scenarios(draw):
    workloads = draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(QUERY_POOL), min_size=1, max_size=5),
                st.integers(0, 2),  # priority
                st.booleans(),  # budget the first query?
            ),
            min_size=1,
            max_size=5,
        )
    )
    bound = draw(st.integers(1, 5))
    share = draw(st.sampled_from([None, 1, 2]))
    return workloads, bound, share


class TestAdmissionProperties:
    @settings(max_examples=12, deadline=None)
    @given(scenario=admission_scenarios())
    def test_random_interleavings_lose_and_leak_nothing(self, scenario):
        workloads, bound, share = scenario
        database = generators.random_labelled_graph(4, 9, "abxy", seed=7)

        def to_specs(queries, budgeted):
            specs = [QuerySpec(query) for query in queries]
            if budgeted:
                specs[0] = QuerySpec(queries[0], max_nodes=1)
            return tuple(specs)

        submissions = [
            (to_specs(queries, budgeted), priority)
            for queries, priority, budgeted in workloads
        ]

        async def scenario_run():
            # canonical=False: equivalent queries keep their own syntax's
            # contingency sets, so each workload equals its fresh serial run.
            server = AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=1, cache=LanguageCache(canonical=False)),
                database=database,
                max_queue_depth=bound,
                round_share=share,
                autostart=False,
            )
            with server:
                iterators = [
                    await server.submit(Workload(specs), priority=priority)
                    for specs, priority in submissions
                ]
                server.start()
                results = await asyncio.gather(*(collect(it) for it in iterators))
                return results, server.drain_log(), server.metrics()

        results, log, metrics = run(scenario_run())

        admitted = min(bound, len(submissions))
        for position, ((specs, _), outcomes) in enumerate(zip(submissions, results)):
            # Exactly one outcome per query, indices exactly 0..n-1: nothing
            # lost, nothing duplicated.
            assert sorted(outcome.index for outcome in outcomes) == list(range(len(specs)))
            # No cross-workload leakage: every outcome labels its own spec.
            for outcome in sorted_outcomes(outcomes):
                assert outcome.query == specs[outcome.index].display_name()
            if position < admitted:
                expected = resilience_serve(
                    Workload(specs), database, parallel=False,
                    cache=LanguageCache(canonical=False),
                )
                assert sorted_outcomes(outcomes) == expected
                assert {outcome.status for outcome in outcomes} <= {OK, BUDGET_EXCEEDED}
            else:
                assert all(outcome.status == ADMISSION_REJECTED for outcome in outcomes)

        # Saturated queue (everything submitted before start): priority
        # classes drain in order, FIFO within each class.
        priorities = [priority for priority, _ in log]
        assert priorities == sorted(priorities)
        for cls in set(priorities):
            first_seen = []
            for priority, seq in log:
                if priority == cls and seq not in first_seen:
                    first_seen.append(seq)
            assert first_seen == sorted(first_seen)

        assert sum(metrics.admission.admitted.values()) == admitted
        assert sum(metrics.admission.rejected.values()) == len(submissions) - admitted
        delivered = sum(metrics.outcome_counts().values())
        assert delivered == sum(len(specs) for specs, _ in submissions)


# --------------------------------------------------------------- weighted shares


class TestWeightedShares:
    @staticmethod
    def _rounds_per_seq(log):
        rounds = {}
        for _, seq in log:
            rounds[seq] = rounds.get(seq, 0) + 1
        return rounds

    def test_weight_scales_the_round_cap(self, database):
        # round_share=2: the heavy workload (weight 2.0, cap 4) crosses its 8
        # specs in 2 rounds; its default-weight peer (cap 2) needs 4.
        async def scenario():
            server = AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=1),
                database=database,
                round_share=2,
                autostart=False,
            )
            with server:
                heavy = await server.submit(["aa"] * 8, weight=2.0)
                light = await server.submit(["aa"] * 8)
                server.start()
                await asyncio.gather(collect(heavy), collect(light))
                return server.drain_log()

        rounds = self._rounds_per_seq(run(scenario()))
        assert rounds == {1: 2, 2: 4}

    def test_share_weights_set_the_class_default(self, database):
        async def scenario():
            server = AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=1),
                database=database,
                round_share=2,
                share_weights={7: 3.0},
                autostart=False,
            )
            with server:
                boosted = await server.submit(["aa"] * 6, priority=7)
                plain = await server.submit(["aa"] * 6, priority=8)
                server.start()
                await asyncio.gather(collect(boosted), collect(plain))
                return server.drain_log()

        rounds = self._rounds_per_seq(run(scenario()))
        assert rounds == {1: 1, 2: 3}  # cap 6 in one round vs cap 2 in three

    def test_tiny_weight_floors_at_one_spec_per_round(self, database):
        async def scenario():
            server = AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=1),
                database=database,
                round_share=4,
                autostart=False,
            )
            with server:
                trickle = await server.submit(["aa"] * 5, weight=0.01)
                server.start()
                outcomes = await collect(trickle)
                return outcomes, server.drain_log()

        outcomes, log = run(scenario())
        assert all(outcome.ok for outcome in outcomes) and len(outcomes) == 5
        assert self._rounds_per_seq(log) == {1: 5}, "floor of one spec per round"

    def test_invalid_weights_raise(self, database):
        with pytest.raises(ValueError):
            AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=1),
                database=database,
                share_weights={0: 0.0},
            )

        async def bad_weight():
            async with AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=1),
                database=database,
            ) as server:
                await server.submit(MIXED, weight=-1.0)

        with pytest.raises(ValueError):
            run(bad_weight())

    @settings(max_examples=10, deadline=None)
    @given(
        configs=st.lists(
            st.tuples(
                st.integers(1, 6),
                st.floats(0.01, 4.0, allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=4,
        ),
        round_share=st.integers(1, 3),
    )
    def test_no_positive_weight_starves(self, configs, round_share):
        """Every workload completes, and in exactly the bounded number of
        rounds the weighted cap (with its floor of 1) predicts — the
        no-starvation guarantee as an exact drain-log property."""
        database = generators.random_labelled_graph(4, 9, "abxy", seed=7)

        async def scenario_run():
            server = AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=1),
                database=database,
                round_share=round_share,
                max_queue_depth=16,
                autostart=False,
            )
            with server:
                iterators = [
                    await server.submit(["aa"] * size, weight=weight)
                    for size, weight in configs
                ]
                server.start()
                results = await asyncio.gather(*(collect(it) for it in iterators))
                return results, server.drain_log()

        results, log = run(scenario_run())
        for (size, _), outcomes in zip(configs, results):
            assert sorted(outcome.index for outcome in outcomes) == list(range(size))
            assert all(outcome.ok for outcome in outcomes)
        rounds = TestWeightedShares._rounds_per_seq(log)
        for seq, (size, weight) in enumerate(configs, start=1):
            cap = max(1, round(round_share * weight))
            assert rounds[seq] == math.ceil(size / cap)


# ----------------------------------------------------------------- cancellation


class TestCancellation:
    def test_stream_cancel_cuts_every_unserved_query(self, database):
        # Cancel before the drain starts: deterministically, every query is
        # still unserved, so the token turns the whole workload into
        # structured "error" outcomes instead of serving stale work.
        async def scenario():
            server = AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=1),
                database=database,
                autostart=False,
            )
            with server:
                stream = await server.submit(MIXED)
                stream.cancel()
                server.start()
                return await collect(stream)

        outcomes = run(scenario())
        assert sorted(outcome.index for outcome in outcomes) == list(range(len(MIXED)))
        assert all(outcome.status == ERROR for outcome in outcomes)
        assert all("WorkloadCancelled" in outcome.error for outcome in outcomes)

    def test_stream_cancel_threads_through_a_routed_exchange(self, database):
        # Same contract when the round crosses the exchange layer: the token
        # map is remapped into each node's sub-workload.
        async def scenario():
            server = AsyncResilienceServer(
                ThreadExchange(nodes=2, max_workers=1),
                database=database,
                autostart=False,
            )
            with server:
                stream = await server.submit(MIXED)
                stream.cancel()
                server.start()
                return await collect(stream)

        outcomes = run(scenario())
        assert sorted(outcome.index for outcome in outcomes) == list(range(len(MIXED)))
        assert all("WorkloadCancelled" in outcome.error for outcome in outcomes)

    def test_token_cancels_the_serial_stream_mid_iteration(self, database):
        # The serial path is pull-based, so cancelling between next() calls is
        # a deterministic mid-execution cancellation.
        token = CancellationToken()
        with ResilienceServer(database, max_workers=1) as server:
            iterator = server.serve_iter(MIXED, cancel=dict.fromkeys(range(len(MIXED)), token))
            served = [next(iterator), next(iterator)]
            token.cancel("WorkloadCancelled: enough")
            tail = list(iterator)
        assert all(outcome.ok for outcome in served)
        assert len(tail) == len(MIXED) - 2
        assert all(
            outcome.status == ERROR and "WorkloadCancelled: enough" in outcome.error
            for outcome in tail
        )
        indices = sorted(outcome.index for outcome in served + tail)
        assert indices == list(range(len(MIXED)))

    def test_deadline_token_rejects_the_tail_mid_stream(self, database):
        # The deadline passes between next() calls, however long planning and
        # the first execution took.
        token = CancellationToken()
        with ResilienceServer(database, max_workers=1) as server:
            iterator = server.serve_iter(MIXED, cancel=dict.fromkeys(range(len(MIXED)), token))
            first = next(iterator)
            token.deadline_at = time.monotonic() - 1.0
            tail = list(iterator)
        assert first.ok
        assert all(outcome.status == ADMISSION_REJECTED for outcome in tail)
        assert all("DeadlineExceeded" in outcome.error for outcome in tail)

    def test_parallel_dispatch_skips_cancelled_items(self, database):
        # Chunk dispatch is the second check point: a token cancelled before
        # the generator first runs means nothing reaches the pool.
        token = CancellationToken()
        with ResilienceServer(database, max_workers=2) as server:
            iterator = server.serve_iter(MIXED, cancel=dict.fromkeys(range(len(MIXED)), token))
            token.cancel("WorkloadCancelled: before dispatch")
            outcomes = sorted_outcomes(iterator)
        assert [outcome.index for outcome in outcomes] == list(range(len(MIXED)))
        assert all(
            outcome.status == ERROR and "WorkloadCancelled" in outcome.error
            for outcome in outcomes
        )
        assert server.pool_stats().chunks_dispatched == 0

    def test_worker_chunk_checks_cancellation_between_queries(self, database):
        # The third check point, exercised in-process: a chunk already "on a
        # worker" re-reads the shared flag byte (and the deadline) between
        # queries and finishes the tail as structured skipped outcomes.
        from repro.service import plan_workload
        from repro.service.cancellation import FLAG_CANCELLED, make_cancel_flags
        from repro.service.serve import _worker_init, _worker_run_many

        scheduled, failed = plan_workload(Workload.coerce(["aa", "ab", "ax*b"]))
        assert not failed
        flags = make_cancel_flags(4)
        assert flags is not None, "fork platform expected in CI"
        _worker_init(database, flags)
        try:
            flags[2] = FLAG_CANCELLED
            control = {
                item.index: ((2, None) if item.index >= 1 else (3, None))
                for item in scheduled
            }
            flagged = _worker_run_many(scheduled, control)
            by_index = {outcome.index: outcome for outcome in flagged}
            assert by_index[0].ok
            for index in (1, 2):
                assert by_index[index].status == ERROR
                assert "WorkloadCancelled" in by_index[index].error
            # Deadline entries trip the same loop with the rejection status.
            expired = _worker_run_many(
                scheduled,
                {item.index: (None, time.monotonic() - 1.0) for item in scheduled},
            )
            assert all(outcome.status == ADMISSION_REJECTED for outcome in expired)
            assert all("DeadlineExceeded" in outcome.error for outcome in expired)
        finally:
            _worker_init(database, None)

    def test_explicit_cancel_beats_a_passed_deadline(self):
        token = CancellationToken(deadline_at=time.monotonic() - 1.0)
        token.cancel("WorkloadCancelled: explicit")
        status, reason = token.state()
        assert status == ERROR and "explicit" in reason


# --------------------------------------------------------------- fault injection


class TestFaultInjection:
    def test_worker_crash_hits_only_the_affected_workload(self, database, reference):
        # Workload A is pure poison: both queries crash any worker that
        # unpickles them, first dispatch and retry alike, so A must come back
        # all-"error".  Workload B sits in a lower-priority class (its own
        # serving round) and must be answered completely and correctly on a
        # replacement pool.
        async def scenario():
            server = AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=2),
                database=database,
                autostart=False,
            )
            with server:
                poisoned = await server.submit(
                    [QuerySpec(poison_language("ab|ba")), QuerySpec(poison_language("aab"))],
                    priority=0,
                )
                healthy = await server.submit(MIXED, priority=1)
                server.start()
                poisoned_outcomes, healthy_outcomes = await asyncio.gather(
                    collect(poisoned), collect(healthy)
                )
                return poisoned_outcomes, healthy_outcomes, server.metrics()

        poisoned_outcomes, healthy_outcomes, metrics = run(scenario())
        assert len(poisoned_outcomes) == 2
        for outcome in poisoned_outcomes:
            assert outcome.status == ERROR
            assert "BrokenProcessPool" in outcome.error
        assert sorted_outcomes(healthy_outcomes) == reference
        assert metrics.pool.crashes >= 2, "first dispatch and retry must both crash"
        assert metrics.pool.pools_created >= 2, "a replacement pool must have been forked"
        assert metrics.outcome_counts()[ERROR] == 2

    def test_closed_server_rejects_submit_cleanly(self, database):
        server = AsyncResilienceServer(ThreadExchange(nodes=1, max_workers=1), database=database)
        server.close()

        async def try_submit():
            await server.submit(MIXED)

        with pytest.raises(ReproError):
            run(try_submit())
        with pytest.raises(ReproError):
            server.metrics_endpoint()
        server.close()  # idempotent

    def test_close_fails_waiting_workloads_structurally(self, database):
        async def scenario():
            server = AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=1),
                database=database,
                autostart=False,
            )
            waiting = await server.submit(MIXED)
            await asyncio.get_running_loop().run_in_executor(None, server.close)
            return await collect(waiting)

        outcomes = run(scenario())
        assert len(outcomes) == len(MIXED)
        assert all(outcome.status == ERROR for outcome in outcomes)
        assert all("ServerClosed" in outcome.error for outcome in outcomes)

    def test_closing_the_async_server_closes_the_wrapped_server(self, database):
        exchange = ThreadExchange(nodes=1, max_workers=1)
        AsyncResilienceServer(exchange, database=database).close()
        assert not any(snapshot.alive for snapshot in exchange.stats())
        with pytest.raises(ReproError):
            exchange.submit(WorkloadEnvelope.single(Workload.coerce(MIXED), database))


# ----------------------------------------------------------------- abandonment


class TestAbandonment:
    def test_abandoned_async_iterator_neither_wedges_nor_burns_the_tail(
        self, database, reference
    ):
        # The gate holds the drain after round one until the consumer has
        # abandoned; unheld, the drain can serve all 48 one-query rounds
        # before the event loop runs the consumer's break.
        exchange = GatedExchange(ThreadExchange(nodes=1, max_workers=1))

        async def scenario():
            server = AsyncResilienceServer(
                exchange,
                database=database,
                round_share=1,
                autostart=False,
            )
            with server:
                big = await server.submit(MIXED * 8)
                server.start()
                async for outcome in big:
                    assert outcome.ok
                    break  # abandon mid-stream after the first outcome
                # Breaking leaves the generator suspended until GC; aclose()
                # is the deterministic version of that finalization.
                await big.aclose()
                exchange.open()
                # The next workload must be served with full parity.
                follow_up = await collect(await server.submit(MIXED))
                # Give the drain a moment to observe the abandonment, then
                # check the tail was dropped rather than served to nobody.
                delivered = sum(server.metrics().outcome_counts().values())
                return follow_up, delivered

        follow_up, delivered = run(scenario())
        assert sorted_outcomes(follow_up) == reference
        # The gate lets exactly one round of the abandoned workload through.
        assert delivered == 1 + len(MIXED), (
            "the abandoned workload's tail must not keep being served"
        )

    def test_gcd_sync_generator_neither_leaks_chunks_nor_wedges_serve(
        self, database, reference
    ):
        # The satellite regression: a serve_iter() generator abandoned by
        # garbage collection (no explicit close()) after its first outcome
        # must cancel its pending pool chunks, and the next serve() call must
        # return full, correct results on the same server.
        with ResilienceServer(database, max_workers=2) as server:
            iterator = server.serve_iter(MIXED * 8)
            first = next(iterator)
            assert first.status == OK
            del iterator
            gc.collect()
            assert server.serve(MIXED) == reference

    def test_gcd_unstarted_sync_generator_is_harmless(self, database, reference):
        with ResilienceServer(database, max_workers=2) as server:
            iterator = server.serve_iter(MIXED * 4)
            del iterator  # planned but never started: nothing dispatched
            gc.collect()
            assert server.serve(MIXED) == reference


# --------------------------------------------------------------------- metrics


class TestMetrics:
    def test_snapshot_and_endpoint_agree(self, database):
        async def scenario():
            async with AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=2),
                database=database,
            ) as server:
                for _ in range(2):
                    await collect(await server.submit(MIXED))
                programmatic = server.metrics()
                endpoint = server.metrics_endpoint(port=0)
                with urllib.request.urlopen(endpoint.url, timeout=10) as response:
                    assert response.headers["Content-Type"] == "application/json"
                    scraped = json.loads(response.read())
                with pytest.raises(urllib.error.HTTPError):
                    urllib.request.urlopen(
                        f"http://{endpoint.host}:{endpoint.port}/nope", timeout=10
                    )
                endpoint.close()
                return programmatic, scraped

        programmatic, scraped = run(scenario())
        assert scraped == json.loads(programmatic.to_json())
        assert scraped == programmatic.as_dict()
        # The counters genuinely moved: pass 2 was answered by the result
        # cache, outcomes were delivered, the pool dispatched chunks.
        assert programmatic.cache.result_hits > 0
        assert programmatic.outcome_counts()[OK] == 2 * len(MIXED)
        assert programmatic.pool.chunks_dispatched > 0
        assert programmatic.pool.worker_pids == tuple(sorted(programmatic.pool.worker_pids))
        assert programmatic.admission.depth == 0
        assert scraped["admission"]["admitted"] == {"0": 2}

    def test_latency_histograms_count_every_delivered_outcome(self, database):
        # Forcing "exact" on a query with positive resilience makes the
        # 1-node budget trip deterministically on this database.
        budgeted = QuerySpec("ab|ad|cd", method="exact", max_nodes=1)

        async def scenario():
            async with AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=1),
                database=database,
            ) as server:
                await collect(await server.submit(MIXED))
                await collect(await server.submit([budgeted, "ab"]))
                return server.metrics()

        metrics = run(scenario())
        counts = metrics.outcome_counts()
        assert counts[OK] == len(MIXED) + 1
        assert counts[BUDGET_EXCEEDED] == 1
        histogram = metrics.latency[OK]
        assert sum(histogram["buckets"].values()) == histogram["count"]
        assert histogram["sum_seconds"] >= 0.0

    def test_cache_stats_aggregation_hook(self):
        parts = [
            CacheStats(canonical_hits=1, classifications=2, result_hits=3),
            CacheStats(canonical_hits=4, canonical_misses=5, result_misses=6),
        ]
        total = CacheStats.aggregate(parts)
        assert total == CacheStats(
            canonical_hits=5,
            canonical_misses=5,
            classifications=2,
            result_hits=3,
            result_misses=6,
        )
        assert total.as_dict()["canonical_hits"] == 5
        cache = LanguageCache()
        snapshot = cache.stats
        cache.plan(cache.language("ab"))
        assert snapshot.classifications == 0, "stats must be frozen in time"
        assert cache.stats.classifications == 1

    def test_latency_histogram_quantiles(self):
        from repro.service import LatencyHistogram

        histogram = LatencyHistogram()
        assert histogram.quantile(0.5) == 0.0
        for seconds in (0.0005, 0.002, 0.002, 0.3, 20.0):
            histogram.record(seconds)
        assert histogram.count == 5
        assert histogram.quantile(0.5) == 0.0025
        assert histogram.quantile(1.0) == 10.0  # overflow reports the top bound
        with pytest.raises(ValueError):
            histogram.quantile(1.5)


def parse_prometheus(text):
    """Parse a text exposition into ``{series: value}`` + declared types.

    Raises (failing the test) on any line that is neither a comment nor a
    well-formed ``name{labels} value`` sample — the scrape-parses guarantee.
    """
    samples, types = {}, {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        series, value = line.rsplit(" ", 1)
        assert series not in samples, f"duplicate series {series}"
        samples[series] = float(value)
    return samples, types


class TestPrometheusExposition:
    def test_scrape_parses_with_coherent_series(self, database):
        async def scenario():
            async with AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=2),
                database=database,
            ) as server:
                for _ in range(2):
                    await collect(await server.submit(MIXED))
                endpoint = server.metrics_endpoint(port=0)
                request = urllib.request.Request(f"{endpoint.url}?format=prometheus")
                with urllib.request.urlopen(request, timeout=10) as response:
                    param_type = response.headers["Content-Type"]
                    text = response.read().decode("utf-8")
                # The Accept header negotiates the same representation.
                request = urllib.request.Request(
                    endpoint.url, headers={"Accept": "text/plain"}
                )
                with urllib.request.urlopen(request, timeout=10) as response:
                    accept_type = response.headers["Content-Type"]
                # And the default stays JSON.
                with urllib.request.urlopen(endpoint.url, timeout=10) as response:
                    default_type = response.headers["Content-Type"]
                endpoint.close()
                return text, param_type, accept_type, default_type, server.metrics()

        text, param_type, accept_type, default_type, metrics = run(scenario())
        assert param_type == "text/plain; version=0.0.4; charset=utf-8"
        assert accept_type == param_type
        assert default_type == "application/json"

        samples, types = parse_prometheus(text)
        # Every sample belongs to a declared family (histogram children map
        # back to their base name).
        for series in samples:
            name = series.split("{", 1)[0]
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name.removesuffix(suffix) in types:
                    base = name.removesuffix(suffix)
            assert base in types, f"undeclared family for {series}"
        assert types["repro_latency_seconds"] == "histogram"

        assert samples['repro_outcomes_total{status="ok"}'] == 2 * len(MIXED)
        assert samples['repro_admission_admitted_total{priority="0"}'] == 2
        assert samples["repro_admission_depth"] == 0
        assert samples["repro_cache_result_hits_total"] == metrics.cache.result_hits
        assert samples["repro_pool_pool_width"] == 2

        # Histogram coherence: cumulative buckets are monotone, +Inf equals
        # the count sample, the sum is present.
        buckets = [
            (series, value)
            for series, value in samples.items()
            if series.startswith('repro_latency_seconds_bucket{status="ok",')
        ]
        values = [value for _, value in buckets]
        assert values == sorted(values), "cumulative le buckets must be monotone"
        assert buckets[-1][0].endswith('le="+Inf"}')
        assert values[-1] == samples['repro_latency_seconds_count{status="ok"}']
        assert values[-1] == 2 * len(MIXED)
        assert 'repro_latency_seconds_sum{status="ok"}' in samples

    def test_per_node_series_carry_node_labels(self, database):
        async def scenario():
            async with AsyncResilienceServer(
                ThreadExchange(nodes=2, max_workers=1),
                database=database,
            ) as server:
                await collect(await server.submit(MIXED))
                return server.metrics().to_prometheus()

        samples, _ = parse_prometheus(run(scenario()))
        assert samples['repro_node_alive{node="node-0"}'] == 1
        assert samples['repro_node_alive{node="node-1"}'] == 1
        served = [
            samples[f'repro_node_envelopes_served_total{{node="node-{i}"}}']
            for i in range(2)
        ]
        assert sum(served) == 1, "one merged round, routed to one node"

    def test_degraded_serves_counter_is_exported(self, database, reference):
        """A dead launcher-less fleet degrades to the in-process serial
        fallback; the front-end's metrics surface counts it and the
        Prometheus rendering carries the counter."""
        from repro.service import NodeManager
        from repro.service.exchange import RoutedExchange, ThreadNode

        manager = NodeManager()
        manager.register(ThreadNode("only", max_workers=1))

        async def scenario():
            async with AsyncResilienceServer(
                RoutedExchange(manager), database=database
            ) as server:
                server.exchange.manager.kill("only")
                outcomes = await collect(await server.submit(MIXED))
                metrics = server.metrics()
                return outcomes, metrics

        outcomes, metrics = run(scenario())
        assert sorted_outcomes(outcomes) == reference
        assert metrics.degraded_serves == 1
        assert metrics.as_dict()["degraded_serves"] == 1
        samples, _ = parse_prometheus(metrics.to_prometheus())
        assert samples["repro_degraded_serves_total"] == 1
