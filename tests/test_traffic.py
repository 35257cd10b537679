"""Traffic generator and chaos soak harness tests.

What this file pins, beyond the conformance matrix's ``soak-replay`` cell:

* **determinism** — (hypothesis) equal profiles generate identical traces,
  databases included; different seeds generate different traffic;
* **traffic shape** — monotone bursty arrival offsets, zipf-skewed query
  popularity, and the budget/deadline/priority knobs doing what they say;
* **chaos soak end-to-end** — a seeded soak with a mid-round node kill, a
  poison workload, a slow workload and an admission burst completes with
  zero invariant violations, recovers within bound, logs replayable JSONL,
  and the whole run is replayable from its seed (same collected outcomes,
  same status counts);
* **invariant monitor teeth** — misconfigured chaos (a kill that can never
  fire, a schedule beyond the trace) fails loudly instead of passing
  vacuously;
* **metrics under sustained load** — histogram quantiles stay conservative
  (never underestimate), snapshots round-trip through ``from_dict``, and
  ``in_flight`` returns to zero once a soak round drains;
* **fault helpers** — the shared ``tests/faults.py`` poison/slow languages
  behave as advertised (poison reduces to ``os._exit``; slow pickles into a
  delayed but equivalent language).
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faults import (
    ChaosHttpNodeLauncher,
    drain_with_kill,
    poison_workload,
    slow_language,
    slow_workload,
)
from leak_sanitizer import LeakTracker
from repro.exceptions import ReproError
from repro.languages import Language
from repro.service import (
    ADMISSION_REJECTED,
    ERROR,
    OK,
    AsyncResilienceServer,
    Exchange,
    HttpExchange,
    LanguageCache,
    LatencyHistogram,
    NodeManager,
    RetryPolicy,
    ThreadExchange,
    resilience_serve,
)
from repro.traffic import (
    BURST,
    CORRUPT,
    DISCONNECT,
    KILL,
    POISON,
    REFUSED,
    SLOW,
    STALL,
    ChaosEvent,
    ChaosSchedule,
    DatabaseSpec,
    HARD_QUERIES,
    InvariantViolation,
    SoakRunner,
    TrafficProfile,
    generate_traffic,
)


def small_profile(seed: int = 7, requests: int = 8, **overrides) -> TrafficProfile:
    """A fast profile: small databases, short trace, no deadlines."""
    overrides.setdefault(
        "databases",
        (
            DatabaseSpec(num_nodes=5, num_edges=12, alphabet="abxy"),
            DatabaseSpec(num_nodes=4, num_edges=9, alphabet="abx", bag_copies=2),
        ),
    )
    return TrafficProfile(seed=seed, requests=requests, **overrides)


def by_index(outcomes):
    return sorted(outcomes, key=lambda outcome: outcome.index)


# ------------------------------------------------------------------ generator


class TestGenerator:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_same_seed_identical_trace_different_seed_differs(self, seed):
        trace = generate_traffic(small_profile(seed=seed, requests=6))
        again = generate_traffic(small_profile(seed=seed, requests=6))
        assert trace.requests == again.requests
        assert trace.database_fingerprints() == again.database_fingerprints()
        other = generate_traffic(small_profile(seed=seed + 1, requests=6))
        assert trace.requests != other.requests

    def test_offsets_are_monotone_open_loop_arrivals(self):
        trace = generate_traffic(small_profile(seed=3, requests=40))
        offsets = [request.offset for request in trace.requests]
        assert offsets == sorted(offsets)
        assert all(offset >= 0 for offset in offsets)
        assert [request.seq for request in trace.requests] == list(range(40))

    def test_query_popularity_is_zipf_skewed(self):
        trace = generate_traffic(small_profile(seed=5, requests=200))
        counts = sorted(trace.query_counts().values(), reverse=True)
        mean = sum(counts) / len(counts)
        assert counts[0] >= 2 * mean, (
            f"hottest query ({counts[0]}) should dominate the mean ({mean:.1f})"
        )

    def test_budget_knobs_mark_every_spec(self):
        profile = small_profile(
            seed=11, requests=30, tight_budget_fraction=1.0, budget_fraction=0.0
        )
        trace = generate_traffic(profile)
        for request in trace.requests:
            for spec in request.workload:
                if spec.query in HARD_QUERIES:
                    assert spec.max_nodes == 1
                else:
                    assert spec.max_nodes == profile.budget_nodes
        assert any(
            spec.max_nodes == 1
            for request in trace.requests
            for spec in request.workload
        ), "a 30-request trace should sample at least one NP-hard query"

    def test_deadline_fraction_one_stamps_every_request(self):
        trace = generate_traffic(
            small_profile(seed=2, requests=10, deadline_fraction=1.0)
        )
        assert all(request.deadline == 30.0 for request in trace.requests)

    def test_priorities_and_weights_come_from_the_profile(self):
        profile = small_profile(seed=4, requests=50)
        trace = generate_traffic(profile)
        assert {request.priority for request in trace.requests} <= set(
            profile.priorities
        )
        assert {request.weight for request in trace.requests} <= set(profile.weights)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"requests": 0},
            {"catalogue": ()},
            {"workload_size": (0, 3)},
            {"burst_size": (4, 2)},
            {"burst_rate": 0.0},
            {"deadline_fraction": 1.5},
        ],
    )
    def test_profile_validation(self, overrides):
        with pytest.raises(ValueError):
            small_profile(**overrides)


# ---------------------------------------------------------------------- chaos


class TestChaosSchedule:
    def test_event_validation(self):
        with pytest.raises(ReproError):
            ChaosEvent(round=0, kind="meteor")
        with pytest.raises(ReproError):
            ChaosEvent(round=-1, kind=KILL)
        with pytest.raises(ReproError):
            ChaosEvent(round=0, kind=KILL, after_outcomes=0)
        with pytest.raises(ReproError):
            ChaosEvent(round=0, kind=BURST, count=0)
        with pytest.raises(ReproError):
            ChaosEvent(round=0, kind=POISON)  # payload kinds need a workload

    def test_schedule_round_lookup(self):
        schedule = ChaosSchedule(
            (
                ChaosEvent(round=1, kind=KILL),
                ChaosEvent(round=0, kind=BURST, count=2),
                ChaosEvent(round=1, kind=SLOW, workload=slow_workload(["aa"])),
            )
        )
        assert len(schedule) == 3
        assert schedule.last_round() == 1
        assert [event.kind for event in schedule.for_round(1)] == [KILL, SLOW]
        assert schedule.kinds() == {KILL: 1, BURST: 1, SLOW: 1}


# ----------------------------------------------------------------------- soak


class TestSoak:
    def test_chaos_soak_completes_and_replays_from_seed(self, tmp_path):
        """The flagship: bursty zipf traffic over a 2-node fleet survives a
        mid-round node kill, a poison workload, a slow workload and an
        admission burst with zero invariant violations — and the whole run
        is replayable from the seed."""
        profile = small_profile(seed=11, requests=12)

        # Payload expressions must not be equivalent to any catalogue query
        # (node caches key languages by equivalence, so an equivalent poison
        # would be substituted by an already-cached clean plan) and payloads
        # need >= 2 queries (single-query workloads serve serially in the
        # node's parent process and never cross a pickle boundary).
        def chaos():
            return ChaosSchedule(
                (
                    ChaosEvent(
                        round=0,
                        kind=POISON,
                        workload=poison_workload(["xxayy", "yybxx"]),
                    ),
                    ChaosEvent(round=1, kind=KILL, after_outcomes=2),
                    ChaosEvent(
                        round=1,
                        kind=SLOW,
                        workload=slow_workload(["yxayx", "xybyx"], seconds=0.02),
                    ),
                    ChaosEvent(round=2, kind=BURST, count=3),
                )
            )

        log_path = tmp_path / "soak.jsonl"

        def soak():
            runner = SoakRunner(
                generate_traffic(profile),
                nodes=2,
                max_workers=2,
                chaos=chaos(),
                requests_per_round=4,
                keep_outcomes=True,
                log_path=log_path,
            )
            report = runner.run()
            return report, [by_index(outcomes) for outcomes in runner.collected]

        report, collected = soak()
        assert report.violations == () and report.leaks == ()
        assert report.requests == 12 and report.rounds == 3
        assert report.chaos == {
            "kills": 1,
            "heals": 1,
            "poison_workloads": 1,
            "slow_workloads": 1,
            "burst_workloads": 3,
            "network_faults": 0,
            "degraded_serves": 0,
        }
        assert report.by_status.get(ERROR, 0) >= 1, "poison must surface as error"
        assert report.recovery["max_rounds"] <= report.recovery["bound"]
        assert report.admission["final_in_flight"] == 0
        assert report.parity_checked == 12, "every traffic request held parity"
        assert report.throughput_rps > 0

        records = [
            json.loads(line) for line in log_path.read_text().splitlines()
        ]
        kinds = {record["type"] for record in records}
        assert {"chaos", "kill-fired", "outcome", "round", "heal"} <= kinds
        poison_records = [
            record
            for record in records
            if record["type"] == "outcome" and record["kind"] == POISON
        ]
        assert poison_records and all(
            record["status"] == ERROR for record in poison_records
        )

        replay_report, replay_collected = soak()
        assert replay_collected == collected, "collected outcomes must replay"
        assert replay_report.by_status == report.by_status
        assert replay_report.seed == report.seed == 11

    def test_http_soak_with_network_chaos_is_replayable(self, tmp_path):
        """The HTTP fleet under network chaos: a refused window, a mid-stream
        disconnect, a stall, a corrupt payload and a node kill — zero
        invariant violations, full parity, bounded recovery, and the whole
        run replay-identical across two same-seed runs."""
        profile = small_profile(seed=13, requests=12)

        def chaos():
            return ChaosSchedule(
                (
                    ChaosEvent(round=0, kind=REFUSED, count=2),
                    ChaosEvent(round=1, kind=DISCONNECT, after_outcomes=1),
                    ChaosEvent(round=1, kind=KILL, after_outcomes=2),
                    ChaosEvent(round=2, kind=STALL),
                    ChaosEvent(round=2, kind=CORRUPT, after_outcomes=0),
                )
            )

        def build_exchange():
            launcher = ChaosHttpNodeLauncher(
                max_workers=2,
                request_timeout=10.0,
                retry=RetryPolicy(attempts=3, base_delay=0.0),
            )
            return HttpExchange(nodes=2, manager=NodeManager(launcher))

        log_path = tmp_path / "http-soak.jsonl"

        def soak(tracker=None):
            runner = SoakRunner(
                generate_traffic(profile),
                exchange=build_exchange(),
                chaos=chaos(),
                requests_per_round=4,
                keep_outcomes=True,
                log_path=log_path,
                leak_tracker=tracker,
            )
            report = runner.run()
            return report, [by_index(outcomes) for outcomes in runner.collected]

        report, collected = soak(LeakTracker())
        assert report.violations == () and report.leaks == ()
        assert report.chaos["network_faults"] == 4
        assert report.chaos["kills"] == 1
        assert report.parity_checked == 12, (
            "every traffic request held parity through the network chaos"
        )
        assert report.recovery["max_rounds"] <= report.recovery["bound"]
        assert report.admission["final_in_flight"] == 0
        assert "degraded_serves" in report.chaos

        records = [json.loads(line) for line in log_path.read_text().splitlines()]
        fault_records = [r for r in records if r["type"] == "network-fault"]
        assert {r["kind"] for r in fault_records} == {
            REFUSED,
            DISCONNECT,
            STALL,
            CORRUPT,
        }

        replay_report, replay_collected = soak()
        assert replay_collected == collected, "collected outcomes must replay"
        assert replay_report.by_status == report.by_status

    def test_http_transport_builds_its_own_fleet(self):
        trace = generate_traffic(small_profile(seed=3, requests=4))
        runner = SoakRunner(
            trace, transport="http", nodes=2, requests_per_round=4
        )
        report = runner.run()
        assert report.parity_checked == 4
        assert report.admission["final_in_flight"] == 0

    def test_http_transport_rejects_a_shared_cache(self):
        trace = generate_traffic(small_profile(seed=3, requests=2))
        with pytest.raises(ReproError, match="cache"):
            SoakRunner(trace, transport="http", cache=LanguageCache())

    def test_unknown_transport_is_rejected(self):
        trace = generate_traffic(small_profile(seed=3, requests=2))
        with pytest.raises(ReproError, match="transport"):
            SoakRunner(trace, transport="carrier-pigeon")

    def test_network_chaos_needs_a_fault_capable_handle(self):
        """Plain HTTP handles have no fault hook; the soak fails loudly
        instead of silently skipping the scheduled fault."""
        trace = generate_traffic(small_profile(seed=3, requests=2))
        chaos = ChaosSchedule((ChaosEvent(round=0, kind=REFUSED, count=1),))
        runner = SoakRunner(
            trace, transport="http", requests_per_round=2, chaos=chaos
        )
        with pytest.raises(ReproError, match="fault-capable"):
            runner.run()

    def test_soak_matches_explicit_serial_reference(self):
        trace = generate_traffic(small_profile(seed=3, requests=4))
        runner = SoakRunner(trace, nodes=2, requests_per_round=4, keep_outcomes=True)
        report = runner.run()
        assert report.parity_checked == 4
        for request, outcomes in zip(trace.requests, runner.collected):
            reference = resilience_serve(
                request.workload,
                trace.databases[request.database_key],
                parallel=False,
                cache=LanguageCache(canonical=False),
            )
            assert by_index(outcomes) == reference

    def test_burst_past_queue_depth_rejects_structurally(self):
        trace = generate_traffic(small_profile(seed=9, requests=2))
        chaos = ChaosSchedule((ChaosEvent(round=0, kind=BURST, count=12),))
        runner = SoakRunner(
            trace,
            nodes=2,
            chaos=chaos,
            requests_per_round=2,
            max_queue_depth=2,
            verify_parity=False,
        )
        report = runner.run()
        assert report.by_status.get(ADMISSION_REJECTED, 0) > 0
        assert report.admission["rejected"] > 0
        assert report.admission["final_in_flight"] == 0

    def test_soak_with_leak_tracker_reports_clean(self):
        trace = generate_traffic(small_profile(seed=1, requests=2))
        tracker = LeakTracker(settle=10.0)
        report = SoakRunner(
            trace, nodes=2, requests_per_round=2, leak_tracker=tracker
        ).run()
        assert report.leaks == ()

    def test_kill_that_can_never_fire_is_a_violation(self):
        trace = generate_traffic(small_profile(seed=2, requests=2))
        chaos = ChaosSchedule(
            (ChaosEvent(round=0, kind=KILL, after_outcomes=10**6),)
        )
        runner = SoakRunner(trace, nodes=2, requests_per_round=2, chaos=chaos)
        with pytest.raises(InvariantViolation, match="never fired"):
            runner.run()

    def test_chaos_beyond_the_trace_is_rejected(self):
        trace = generate_traffic(small_profile(seed=2, requests=2))
        chaos = ChaosSchedule((ChaosEvent(round=5, kind=KILL),))
        with pytest.raises(ReproError, match="round 5"):
            SoakRunner(trace, requests_per_round=2, chaos=chaos).run()

    def test_kill_needs_a_routed_exchange(self):
        class UnroutedExchange(Exchange):
            """Serves serially, with no ``route_for`` or ``manager`` to aim a
            kill at."""

            def submit(self, envelope, *, cancel=None):
                for offset, part in zip(envelope.offsets(), envelope.parts):
                    for outcome in resilience_serve(
                        part.workload, part.database, parallel=False
                    ):
                        yield replace(outcome, index=offset + outcome.index)

            def stats(self):
                return ()

            def close(self):
                pass

        trace = generate_traffic(small_profile(seed=2, requests=2))
        chaos = ChaosSchedule((ChaosEvent(round=0, kind=KILL, after_outcomes=1),))
        runner = SoakRunner(
            trace,
            exchange=UnroutedExchange(),
            chaos=chaos,
            requests_per_round=2,
            verify_parity=False,
        )
        with pytest.raises(ReproError, match="routed exchange"):
            runner.run()

    def test_runner_validation(self):
        trace = generate_traffic(small_profile(seed=2, requests=2))
        with pytest.raises(ValueError):
            SoakRunner(trace, requests_per_round=0)
        with pytest.raises(ValueError):
            SoakRunner(trace, recovery_rounds=0)


# -------------------------------------------------------- metrics under load


class TestMetricsUnderLoad:
    def test_histogram_quantiles_stay_conservative(self):
        histogram = LatencyHistogram()
        samples = [0.0004, 0.002, 0.002, 0.008, 0.03, 0.03, 0.11, 0.4, 1.7, 9.0]
        for sample in samples:
            histogram.record(sample)
        ordered = sorted(samples)
        for q in (0.5, 0.9, 0.99):
            # The histogram's rank convention: the ceil(q * n)-th smallest
            # sample (1-based); conservative means >= that sample's value.
            rank = max(1, -(-q * len(ordered) // 1))
            true_quantile = ordered[int(rank) - 1]
            assert histogram.quantile(q) >= true_quantile, (
                f"q={q}: histogram must never underestimate"
            )

    def test_histogram_snapshot_roundtrip(self):
        histogram = LatencyHistogram()
        for sample in (0.001, 0.05, 0.05, 2.0, 50.0):
            histogram.record(sample)
        rebuilt = LatencyHistogram.from_dict(histogram.as_dict())
        assert rebuilt.counts == histogram.counts
        assert rebuilt.count == histogram.count
        assert rebuilt.sum_seconds == histogram.sum_seconds
        for q in (0.5, 0.99):
            assert rebuilt.quantile(q) == histogram.quantile(q)

    def test_soak_metrics_quantiles_and_in_flight_drain(self):
        """Sustained load: the report's per-status quantiles cover every
        delivered outcome and ``in_flight`` is zero once the soak drains."""
        trace = generate_traffic(small_profile(seed=6, requests=8))
        runner = SoakRunner(trace, nodes=2, requests_per_round=4)
        report = runner.run()
        assert report.admission["final_in_flight"] == 0
        assert OK in report.latency
        for status, entry in report.latency.items():
            assert entry["count"] == report.by_status[status]
            assert entry["p99"] >= entry["p50"] >= 0

    def test_front_end_in_flight_returns_to_zero(self):
        from repro.graphdb import generators

        database = generators.random_labelled_graph(5, 12, "abxy", seed=3)
        server = AsyncResilienceServer(
            ThreadExchange(nodes=1, max_workers=1, cache=LanguageCache(canonical=False)),
            database=database,
        )

        async def stream_collect(stream):
            return [outcome async for outcome in stream]

        async def scenario():
            streams = [
                await server.submit(["ax*b", "ab|bc", "aa"]) for _ in range(4)
            ]
            return await asyncio.gather(
                *(stream_collect(stream) for stream in streams)
            )

        with server:
            collected = asyncio.run(scenario())
        assert all(len(outcomes) == 3 for outcomes in collected)
        metrics = server.metrics()
        assert metrics.admission.in_flight == 0
        quantiles = metrics.latency_quantiles((0.5, 0.99), scale=1e3)
        assert quantiles[OK]["count"] == 12
        assert quantiles[OK]["p99"] >= quantiles[OK]["p50"]


# ---------------------------------------------------------------- fault helpers


class TestFaultHelpers:
    def test_poison_language_reduces_to_exit(self):
        workload = poison_workload(["ab"])
        language = workload.specs[0].query
        assert language.__reduce__() == (os._exit, (1,))
        assert isinstance(language, Language)

    def test_slow_language_pickles_into_a_delayed_equivalent(self):
        language = slow_language("ab|bc", seconds=0.05)
        payload = pickle.dumps(language)
        started = time.perf_counter()
        rebuilt = pickle.loads(payload)
        assert time.perf_counter() - started >= 0.05
        assert type(rebuilt) is Language
        assert rebuilt.equivalent_to(Language.from_regex("ab|bc"))

    def test_drain_with_kill_insists_the_kill_fired(self):
        with pytest.raises(AssertionError, match="never fired"):
            drain_with_kill(iter(()), lambda: None, after=1)
