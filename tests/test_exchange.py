"""Edge-case suite for the exchange layer (router, fleet, failover, HTTP).

The conformance suite pins the big claim — distributed serving is
outcome-identical to the uncached serial reference.  This file pins the
sharp edges around that claim: rendezvous routing stability under fleet
membership changes, scatter/gather index remapping for multi-database
envelopes, mid-stream node death (no outcome lost, duplicated, or leaked
into another envelope's stream), strict registration, drain vs kill
semantics, identity-preserving replacement, and the HTTP transport's wire
behavior (including its stats round-trip).
"""

from __future__ import annotations

import multiprocessing
import sys
import threading

import pytest

from faults import ChaosHttpNodeLauncher, drain_with_kill
from repro.exceptions import ReproError
from repro.graphdb import GraphDatabase, generators
from repro.lru import BoundedLru
from repro.service import (
    CircuitBreaker,
    EnvelopePart,
    HealthMonitor,
    LanguageCache,
    NodeManager,
    QuerySpec,
    ResilienceServer,
    RetryPolicy,
    Router,
    ThreadExchange,
    Workload,
    WorkloadEnvelope,
    resilience_serve,
)
from repro.service.exchange import (
    HttpExchange,
    HttpNode,
    HttpNodeLauncher,
    HttpNodeServer,
    NodeStats,
    RoutedExchange,
    ThreadNode,
    ThreadNodeLauncher,
)
from repro.service.exchange import nodes as node_module
from repro.traffic import CORRUPT, DISCONNECT, REFUSED, STALL

QUERIES = ("ax*b", "ab|bc", "aa", "(ab)*a", "ε|a", "((")


@pytest.fixture(scope="module")
def set_db():
    return generators.random_labelled_graph(5, 14, "abxy", seed=3)


@pytest.fixture(scope="module")
def bag_db():
    return generators.random_labelled_graph(4, 10, "abx", seed=5).to_bag(2)


def reference(database):
    return resilience_serve(
        Workload.coerce(QUERIES),
        database,
        parallel=False,
        cache=LanguageCache(canonical=False),
    )


def sorted_outcomes(outcomes):
    return sorted(outcomes, key=lambda outcome: outcome.index)


# --------------------------------------------------------------------- router


def test_router_is_deterministic_and_total():
    router = Router()
    nodes = [f"node-{i}" for i in range(5)]
    keys = [f"fingerprint-{i}" for i in range(100)]
    first = {key: router.route(key, nodes) for key in keys}
    second = {key: router.route(key, list(reversed(nodes))) for key in keys}
    assert first == second, "routing must not depend on candidate order"
    assert set(first.values()) == set(nodes), (
        "100 keys over 5 nodes should touch every node"
    )


def test_router_leave_moves_only_the_dead_nodes_keys():
    router = Router()
    nodes = [f"node-{i}" for i in range(4)]
    keys = [f"db-{i}" for i in range(200)]
    before = {key: router.route(key, nodes) for key in keys}
    survivors = [node for node in nodes if node != "node-2"]
    after = {key: router.route(key, survivors) for key in keys}
    for key in keys:
        if before[key] != "node-2":
            assert after[key] == before[key], (
                f"{key} moved off a surviving node when node-2 left"
            )
    assert any(before[key] == "node-2" for key in keys)


def test_router_join_moves_keys_only_to_the_new_node():
    router = Router()
    nodes = [f"node-{i}" for i in range(3)]
    keys = [f"db-{i}" for i in range(200)]
    before = {key: router.route(key, nodes) for key in keys}
    after = {key: router.route(key, nodes + ["node-3"]) for key in keys}
    moved = {key for key in keys if after[key] != before[key]}
    assert moved, "a join must take over some keys"
    assert all(after[key] == "node-3" for key in moved), (
        "keys may only move to the joining node"
    )


def test_router_rejects_an_empty_fleet():
    with pytest.raises(ReproError):
        Router().route("fingerprint", [])


# ------------------------------------------------------------ fleet lifecycle


def test_duplicate_registration_of_a_live_id_raises(set_db):
    manager = NodeManager(ThreadNodeLauncher(max_workers=2))
    manager.spawn(1)
    with pytest.raises(ReproError, match="duplicate node registration"):
        manager.register(ThreadNode("node-0", max_workers=2))
    manager.close()


def test_dead_node_id_can_be_reregistered():
    manager = NodeManager()
    first = ThreadNode("node-0", max_workers=2)
    manager.register(first)
    first.kill()
    replacement = ThreadNode("node-0", max_workers=2)
    manager.register(replacement)
    assert manager.node("node-0") is replacement
    manager.close()


def test_drain_excludes_a_node_from_routing_but_keeps_it_alive(set_db):
    with ThreadExchange(nodes=2, max_workers=1) as exchange:
        owner = exchange.route_for(set_db)
        exchange.manager.drain(owner)
        assert owner not in exchange.manager.live_ids()
        assert exchange.manager.node(owner).alive, "drain is not kill"
        # New work routes to the remaining node and still serves correctly.
        outcomes = sorted_outcomes(
            exchange.submit(WorkloadEnvelope.single(Workload.coerce(QUERIES), set_db))
        )
        assert outcomes == reference(set_db)
        other = next(
            node_id for node_id in exchange.nodes() if node_id != owner
        )
        assert exchange.manager.node(other).stats().envelopes_served == 1
        assert exchange.manager.node(owner).stats().envelopes_served == 0


def test_replace_keeps_the_node_id_and_routing(set_db):
    with ThreadExchange(nodes=3, max_workers=1) as exchange:
        owner = exchange.route_for(set_db)
        old = exchange.manager.node(owner)
        replacement = exchange.manager.replace(owner)
        assert replacement.node_id == owner
        assert old.killed and not old.alive
        assert exchange.route_for(set_db) == owner, (
            "identity-preserving replacement keeps the rendezvous keys"
        )
        outcomes = sorted_outcomes(
            exchange.submit(WorkloadEnvelope.single(Workload.coerce(QUERIES), set_db))
        )
        assert outcomes == reference(set_db)


# -------------------------------------------------------------- thread fleet


def test_multi_database_envelope_scatters_with_correct_index_remapping(
    set_db, bag_db
):
    workload = Workload.coerce(QUERIES)
    envelope = WorkloadEnvelope(
        parts=(
            EnvelopePart(workload=workload, database=set_db),
            EnvelopePart(workload=workload, database=bag_db),
        )
    )
    with ThreadExchange(nodes=2, max_workers=1) as exchange:
        outcomes = sorted_outcomes(exchange.submit(envelope))
    assert [outcome.index for outcome in outcomes] == list(range(2 * len(QUERIES)))
    from dataclasses import replace

    first = outcomes[: len(QUERIES)]
    second = [
        replace(outcome, index=outcome.index - len(QUERIES))
        for outcome in outcomes[len(QUERIES):]
    ]
    assert first == reference(set_db)
    assert second == reference(bag_db)


class _GatedNode(ThreadNode):
    """A serial thread node whose streams wait on ``gate`` before every
    outcome after their first; ``streams`` holds each stream's outcomes."""

    def __init__(self, node_id: str, gate: threading.Event) -> None:
        super().__init__(node_id, max_workers=1)
        self._gate = gate
        self.streams: list[list] = []

    def serve_iter(self, workload, database, *, cancel=None):
        return self._gated(super().serve_iter(workload, database, cancel=cancel))

    def _gated(self, stream):
        produced: list = []
        self.streams.append(produced)
        for outcome in stream:
            if produced:
                self._gate.wait(timeout=30)
            produced.append(outcome)
            yield outcome


def test_closing_a_scattered_stream_stops_every_part_thread(set_db, bag_db):
    """Abandoning a two-part stream after its first outcome stops both part
    threads: once the gates open, each part serves at most one outcome more
    than it had when the stream closed, and no scatter thread survives."""
    gate = threading.Event()
    nodes = [_GatedNode(f"gated-{i}", gate) for i in range(2)]
    manager = NodeManager()
    for node in nodes:
        manager.register(node)
    envelope = WorkloadEnvelope(
        parts=(
            EnvelopePart(workload=Workload.coerce(QUERIES), database=set_db),
            EnvelopePart(workload=Workload.coerce(QUERIES), database=bag_db),
        )
    )
    before = set(threading.enumerate())
    with RoutedExchange(manager) as exchange:
        stream = exchange.submit(envelope)
        try:
            next(stream)
            # Every part thread is now alive: each either computes its first
            # outcome or waits at the gate before its second.
            scatter = [
                thread
                for thread in threading.enumerate()
                if thread not in before and thread.name.startswith("exchange-scatter-")
            ]
            stream.close()
            at_close = [[len(produced) for produced in node.streams] for node in nodes]
        finally:
            gate.set()
        for thread in scatter:
            thread.join(timeout=30)
    assert len(scatter) == 2
    assert not [thread.name for thread in scatter if thread.is_alive()]
    served = [[len(produced) for produced in node.streams] for node in nodes]
    assert sum(map(len, served)) == 2, "one stream per part"
    for counts, closed in zip(served, at_close):
        # A stream that had not started when the stream closed counts from 0.
        closed += [0] * (len(counts) - len(closed))
        for count, closed_at in zip(counts, closed):
            assert count <= closed_at + 1, (served, at_close)


def test_node_crash_mid_stream_loses_and_leaks_nothing(set_db):
    """Kill the owner mid-stream: every index arrives exactly once, correct,
    and a subsequent envelope's stream is untouched by the corpse."""
    with ThreadExchange(nodes=2, max_workers=1) as exchange:
        owner = exchange.route_for(set_db)
        iterator = exchange.submit(
            WorkloadEnvelope.single(Workload.coerce(QUERIES), set_db)
        )
        outcomes = drain_with_kill(
            iterator, lambda: exchange.manager.kill(owner), after=2
        )
        indices = sorted(outcome.index for outcome in outcomes)
        assert indices == list(range(len(QUERIES))), "no outcome lost or duplicated"
        assert sorted_outcomes(outcomes) == reference(set_db)
        # The next envelope serves on the survivor, uncontaminated.
        again = sorted_outcomes(
            exchange.submit(WorkloadEnvelope.single(Workload.coerce(QUERIES), set_db))
        )
        assert again == reference(set_db)
        assert exchange.heartbeat()[owner] is False


def test_whole_fleet_death_degrades_to_serial_with_parity(set_db):
    """An exhausted failover chain degrades to the in-process serial
    fallback — full parity with the reference, counted once."""
    manager = NodeManager()
    manager.register(ThreadNode("only", max_workers=1))
    from repro.service.exchange import RoutedExchange

    with RoutedExchange(manager) as exchange:
        exchange.manager.kill("only")
        outcomes = sorted_outcomes(
            exchange.submit(WorkloadEnvelope.single(Workload.coerce(QUERIES), set_db))
        )
        assert outcomes == reference(set_db)
        assert exchange.degraded_serves == 1


def test_a_failed_degraded_serve_is_not_counted(set_db, monkeypatch):
    """A fallback that raises answers DegradedServeFailed for every query
    and leaves degraded_serves at zero: the counter counts rescues."""
    from repro.service.exchange import threads

    class FailingNode(ThreadNode):
        def serve_iter(self, workload, database, *, cancel=None):
            raise RuntimeError("fallback broke")

    manager = NodeManager()
    manager.register(ThreadNode("only", max_workers=1))
    with RoutedExchange(manager) as exchange:
        exchange.manager.kill("only")
        monkeypatch.setattr(threads, "ThreadNode", FailingNode)
        outcomes = sorted_outcomes(
            exchange.submit(WorkloadEnvelope.single(Workload.coerce(QUERIES), set_db))
        )
        assert [outcome.index for outcome in outcomes] == list(range(len(QUERIES)))
        assert all(outcome.status == "error" for outcome in outcomes)
        assert all(
            outcome.error == "DegradedServeFailed: RuntimeError: fallback broke"
            for outcome in outcomes
        )
        assert exchange.degraded_serves == 0


def test_whole_fleet_death_with_launcher_auto_replaces(set_db):
    with ThreadExchange(nodes=2, max_workers=1) as exchange:
        for node_id in exchange.nodes():
            exchange.manager.kill(node_id)
        outcomes = sorted_outcomes(
            exchange.submit(WorkloadEnvelope.single(Workload.coerce(QUERIES), set_db))
        )
        assert outcomes == reference(set_db)
        assert exchange.route_for(set_db) in exchange.manager.live_ids()


def test_closed_exchange_refuses_submissions(set_db):
    exchange = ThreadExchange(nodes=1, max_workers=1)
    exchange.close()
    with pytest.raises(ReproError):
        exchange.submit(WorkloadEnvelope.single(Workload.coerce(["aa"]), set_db))


def test_single_node_exchange_multi_part_remaps_indices(set_db):
    """One node serves every part of a same-database envelope; each part's
    outcomes come back at their envelope-global indices."""
    from dataclasses import replace

    workload = Workload.coerce(QUERIES)
    envelope = WorkloadEnvelope(
        parts=(
            EnvelopePart(workload=workload, database=set_db),
            EnvelopePart(workload=Workload.coerce(["aa"]), database=set_db),
        )
    )
    with ThreadExchange(nodes=1, max_workers=1) as exchange:
        outcomes = sorted_outcomes(exchange.submit(envelope))
    assert [outcome.index for outcome in outcomes] == list(range(len(QUERIES) + 1))
    assert outcomes[: len(QUERIES)] == reference(set_db)
    (tail,) = resilience_serve(
        ["aa"], set_db, parallel=False, cache=LanguageCache(canonical=False)
    )
    assert outcomes[-1] == replace(tail, index=len(QUERIES))


# ---------------------------------------------------------------- HTTP fleet


def test_http_exchange_end_to_end_and_stats_roundtrip(set_db):
    with HttpExchange(nodes=2, max_workers=1) as exchange:
        outcomes = sorted_outcomes(
            exchange.submit(WorkloadEnvelope.single(Workload.coerce(QUERIES), set_db))
        )
        assert outcomes == reference(set_db)
        snapshots = exchange.stats()
        assert {snapshot.node_id for snapshot in snapshots} == {"node-0", "node-1"}
        assert all(snapshot.alive for snapshot in snapshots)
        assert sum(snapshot.envelopes_served for snapshot in snapshots) == 1
        assert sum(snapshot.databases for snapshot in snapshots) == 1
        for snapshot in snapshots:
            rebuilt = NodeStats.from_dict(snapshot.as_dict())
            assert rebuilt == snapshot


def test_http_budgeted_spec_bypasses_the_result_cache(set_db):
    # A budgeted spec reports whether its own execution fits the budget, so
    # the node runs it even though its session cache holds the result.
    def serve(exchange, spec):
        [outcome] = exchange.submit(WorkloadEnvelope.single(Workload.coerce([spec]), set_db))
        return outcome

    with HttpExchange(nodes=1, max_workers=1) as exchange:
        assert serve(exchange, "aa").status == "ok"
        assert serve(exchange, "aa").status == "ok"
        [before] = exchange.stats()
        assert before.cache.result_hits == 1
        assert serve(exchange, QuerySpec("aa", max_nodes=1)).status == "budget-exceeded"
        [after] = exchange.stats()
        assert after.cache.result_hits == 1
        assert after.cache.result_uncacheable == before.cache.result_uncacheable + 1


def test_http_node_kill_fails_over_to_the_survivor(set_db):
    manager = NodeManager(HttpNodeLauncher(max_workers=1))
    from repro.service.exchange import RoutedExchange

    with RoutedExchange(manager) as exchange:
        manager.spawn(2)
        owner = exchange.route_for(set_db)
        iterator = exchange.submit(
            WorkloadEnvelope.single(Workload.coerce(QUERIES), set_db)
        )
        outcomes = drain_with_kill(
            iterator, lambda: exchange.manager.kill(owner), after=1
        )
        indices = sorted(outcome.index for outcome in outcomes)
        assert indices == list(range(len(QUERIES)))
        assert sorted_outcomes(outcomes) == reference(set_db)
        assert exchange.heartbeat()[owner] is False


# ------------------------------------------------------- retry / circuit policy


def test_retry_policy_schedule_is_deterministic_and_bounded():
    policy = RetryPolicy(attempts=4, base_delay=0.1, multiplier=2.0, jitter=0.5, seed=9)
    first = policy.sleep_schedule()
    second = policy.sleep_schedule()
    assert first == second, "same seed, same jittered schedule"
    assert len(first) == 3, "attempts - 1 sleeps"
    for position, delay in enumerate(first):
        base = 0.1 * 2.0**position
        assert base <= delay <= base * 1.5
    assert RetryPolicy(attempts=4, seed=10).sleep_schedule() != first


def test_retry_policy_retries_retriable_faults_only():
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise ConnectionResetError("transient")
        return "served"

    policy = RetryPolicy(attempts=3, base_delay=0.0)
    assert policy.run(flaky, sleep=lambda _: None) == "served"
    assert calls["n"] == 3

    def broken():
        raise ReproError("semantic, never retried")

    with pytest.raises(ReproError, match="never retried"):
        policy.run(broken, sleep=lambda _: None)


def test_circuit_breaker_opens_half_opens_and_recloses():
    breaker = CircuitBreaker(failure_threshold=2, cooldown_ticks=1)
    assert breaker.state == "closed"
    breaker.record_failure()
    assert breaker.state == "closed"
    breaker.record_failure()
    assert breaker.state == "open" and breaker.opens == 1
    assert breaker.allow_probe() is False, "cooldown tick skips the probe"
    assert breaker.allow_probe() is True
    assert breaker.state == "half-open"
    breaker.record_failure()
    assert breaker.state == "open" and breaker.opens == 2, (
        "a failed half-open probe reopens immediately"
    )
    assert breaker.allow_probe() is False
    assert breaker.allow_probe() is True
    assert breaker.record_success() is True, "reclose reported exactly once"
    assert breaker.state == "closed"
    assert breaker.record_success() is False


# --------------------------------------------------------- self-healing fabric


def chaos_fleet(nodes: int = 2, *, retry: RetryPolicy | None = None):
    """A routed exchange over chaos-capable HTTP nodes."""
    launcher = ChaosHttpNodeLauncher(
        max_workers=1, request_timeout=10.0, retry=retry
    )
    manager = NodeManager(launcher)
    return HttpExchange(nodes=nodes, manager=manager)


def serve_all(exchange, database):
    return sorted_outcomes(
        exchange.submit(WorkloadEnvelope.single(Workload.coerce(QUERIES), database))
    )


def test_refused_window_shorter_than_retry_budget_is_absorbed(set_db):
    with chaos_fleet(retry=RetryPolicy(attempts=3, base_delay=0.0)) as exchange:
        owner = exchange.route_for(set_db)
        node = exchange.manager.node(owner)
        node.inject_fault(REFUSED, count=2)
        assert serve_all(exchange, set_db) == reference(set_db)
        assert node.faults_fired[REFUSED] == 2
        assert node.alive, "an absorbed window never marks the node dead"


def test_disconnect_before_first_outcome_redispatches_on_same_node(set_db):
    with chaos_fleet(retry=RetryPolicy(attempts=3, base_delay=0.0)) as exchange:
        owner = exchange.route_for(set_db)
        node = exchange.manager.node(owner)
        node.inject_fault(DISCONNECT, after_outcomes=0)
        assert serve_all(exchange, set_db) == reference(set_db)
        assert node.faults_fired[DISCONNECT] == 1
        assert node.alive
        survivor = next(n for n in exchange.nodes() if n != owner)
        assert exchange.manager.node(survivor).stats().envelopes_served == 0, (
            "a pre-first-outcome cut re-dispatches on the same node, "
            "not on the failover target"
        )


def test_disconnect_mid_stream_fails_over_with_parity(set_db):
    with chaos_fleet(retry=RetryPolicy(attempts=3, base_delay=0.0)) as exchange:
        owner = exchange.route_for(set_db)
        node = exchange.manager.node(owner)
        node.inject_fault(DISCONNECT, after_outcomes=2)
        assert serve_all(exchange, set_db) == reference(set_db)
        assert node.faults_fired[DISCONNECT] == 1
        assert not node.alive, "a mid-stream cut is node loss for the exchange"
        survivor = next(n for n in exchange.nodes() if n != owner)
        assert exchange.manager.node(survivor).stats().envelopes_served == 1


def test_stalled_stream_times_out_and_redispatches(set_db):
    with chaos_fleet(retry=RetryPolicy(attempts=2, base_delay=0.0)) as exchange:
        owner = exchange.route_for(set_db)
        node = exchange.manager.node(owner)
        node.inject_fault(STALL)
        assert serve_all(exchange, set_db) == reference(set_db)
        assert node.faults_fired[STALL] == 1


def test_corrupt_stream_is_refused_wholesale_and_fails_over(set_db):
    with chaos_fleet() as exchange:
        owner = exchange.route_for(set_db)
        node = exchange.manager.node(owner)
        node.inject_fault(CORRUPT, after_outcomes=1)
        outcomes = serve_all(exchange, set_db)
        assert outcomes == reference(set_db), (
            "a corrupt line must never surface as a mangled outcome"
        )
        assert node.faults_fired[CORRUPT] == 1
        assert not node.alive


def _unwrap_database(real):
    return real


class _LyingFingerprintDatabase:
    """Claims a bogus fingerprint locally but ships the real database, so
    the node's recomputed digest disagrees with the client's."""

    def __init__(self, real) -> None:
        self._real = real

    def content_fingerprint(self) -> str:
        return "bogus-local-fingerprint"

    def __reduce__(self):
        return (_unwrap_database, (self._real,))


def test_fingerprint_mismatch_on_ship_raises_with_both_values(set_db):
    launcher = HttpNodeLauncher(max_workers=1)
    manager = NodeManager(launcher)
    manager.spawn(1)
    try:
        node = manager.node("node-0")
        with pytest.raises(ReproError, match="fingerprint mismatch") as excinfo:
            node.ensure_database(_LyingFingerprintDatabase(set_db))
        message = str(excinfo.value)
        assert "bogus-local-fingerprint" in message
        assert set_db.content_fingerprint() in message
        assert not node._shipped, "a mismatched ship must not be cached"
    finally:
        manager.close()


def test_node_restart_on_same_port_reships_transparently(set_db):
    """A restarted node lost its databases; the client's stale shipped-set
    gets a 409 on /serve and transparently re-ships exactly once."""
    server = HttpNodeServer("node-r", max_workers=1)
    host, port = server.address
    node = HttpNode("node-r", host, port)
    try:
        workload = Workload.coerce(QUERIES)
        first = sorted_outcomes(node.serve_iter(workload, set_db))
        assert first == reference(set_db)
        assert set_db.content_fingerprint() in node._shipped
        server.close()
        server = HttpNodeServer("node-r", host=host, port=port, max_workers=1)
        again = sorted_outcomes(node.serve_iter(workload, set_db))
        assert again == reference(set_db)
        assert node.alive
    finally:
        node.close()
        server.close()


def record_requests(node: HttpNode, monkeypatch) -> list[str]:
    """The path of every control request ``node`` sends from now on."""
    sent: list[str] = []
    request = node._request_json

    def recording(method, path, payload=None):
        sent.append(path)
        return request(method, path, payload)

    monkeypatch.setattr(node, "_request_json", recording)
    return sent


def test_database_lru_evicts_and_reships_under_cap(set_db, bag_db, monkeypatch):
    """With a one-database bound, alternating databases forces an eviction per
    switch; every serve still answers with full parity through the 409
    re-ship path."""
    monkeypatch.setattr(node_module, "MAX_DATABASES", 1)
    launcher = HttpNodeLauncher(max_workers=1)
    manager = NodeManager(launcher)
    manager.spawn(1)
    try:
        node = manager.node("node-0")
        sent = record_requests(node, monkeypatch)
        workload = Workload.coerce(QUERIES)
        assert sorted_outcomes(node.serve_iter(workload, set_db)) == reference(set_db)
        assert sorted_outcomes(node.serve_iter(workload, bag_db)) == reference(bag_db)
        assert sent.count("/databases") == 2
        # set_db was evicted by bag_db under the bound; serving it again re-ships.
        assert sorted_outcomes(node.serve_iter(workload, set_db)) == reference(set_db)
        assert sent.count("/databases") == 3
        assert launcher._servers[0].runtime.stats().databases == 1
    finally:
        manager.close()


def test_thread_node_keeps_at_most_max_databases_warm(set_db, bag_db, monkeypatch):
    """Alternating two databases through one pooled node under a one-database
    bound evicts a warm server per switch: answers stay the serial
    reference's, the node holds one database, and each evicted server's pool
    is shut down."""
    monkeypatch.setattr(node_module, "MAX_DATABASES", 1)
    workload = Workload.coerce(QUERIES)
    forked: list[frozenset[int]] = []
    with ThreadExchange(nodes=1, max_workers=2) as exchange:
        for database in (set_db, bag_db, set_db):
            envelope = WorkloadEnvelope.single(workload, database)
            assert sorted_outcomes(exchange.submit(envelope)) == reference(database)
            (snapshot,) = exchange.stats()
            assert snapshot.databases == 1
            live = {child.pid for child in multiprocessing.active_children()}
            for pids in forked:
                assert not pids & live, "an evicted server's workers must be gone"
            forked.append(exchange.worker_pids())
    # The first two serves fork a pool each; the third is all result-cache
    # hits (the cache outlives the evicted server) and forks nothing.
    assert forked[0] and forked[1] and not forked[2]


class _HoldingNode(ThreadNode):
    """A pooled node whose stream on ``held`` pauses after its first outcome
    until a stream on another database has run to its end."""

    def __init__(self, held) -> None:
        super().__init__("node-0", max_workers=2)
        self._held = held.content_fingerprint()
        self._holding = threading.Event()
        self._other_done = threading.Event()

    def serve_iter(self, workload, database, *, cancel=None):
        stream = super().serve_iter(workload, database, cancel=cancel)
        if database.content_fingerprint() == self._held:
            return self._hold(stream)
        return self._after_hold(stream)

    def _hold(self, stream):
        first = next(stream)  # the stream holds its server from here on
        (self.held_server,) = self._servers.values()
        self._holding.set()
        self._other_done.wait(timeout=30)
        yield first
        yield from stream

    def _after_hold(self, stream):
        self._holding.wait(timeout=30)
        try:
            yield from stream
        finally:
            self._other_done.set()


def test_a_server_evicted_mid_stream_finishes_the_stream_then_closes(
    set_db, bag_db, monkeypatch
):
    """Under a one-database bound, an envelope with two databases on one
    pooled node evicts the first part's server while its stream runs (its
    parse failure streams first, before any pool work).  Every query still
    answers like the serial reference, and the evicted server's pool is shut
    down once its stream ends."""
    from dataclasses import replace

    monkeypatch.setattr(node_module, "MAX_DATABASES", 1)
    before = {child.pid for child in multiprocessing.active_children()}
    node = _HoldingNode(set_db)
    manager = NodeManager()
    manager.register(node)
    workload = Workload.coerce(QUERIES)
    envelope = WorkloadEnvelope(
        parts=(
            EnvelopePart(workload=workload, database=set_db),
            EnvelopePart(workload=workload, database=bag_db),
        )
    )
    with RoutedExchange(manager) as exchange:
        outcomes = sorted_outcomes(exchange.submit(envelope))
        (snapshot,) = exchange.stats()
        assert snapshot.databases == 1
        forked = {child.pid for child in multiprocessing.active_children()} - before
        assert forked == set(snapshot.pool.worker_pids), "the evicted pool must be gone"
    with pytest.raises(ReproError, match="closed"):
        node.held_server.serve(workload)
    assert [outcome.status for outcome in outcomes] == [
        outcome.status for outcome in reference(set_db) + reference(bag_db)
    ]
    assert outcomes[: len(QUERIES)] == reference(set_db)
    assert [
        replace(outcome, index=outcome.index - len(QUERIES))
        for outcome in outcomes[len(QUERIES):]
    ] == reference(bag_db)


def test_an_eviction_right_after_registration_leaves_the_serve_a_server(
    set_db, bag_db, monkeypatch
):
    """Under a one-database bound, a registration on another thread may evict
    a server between the serve's lookup and its lease; the serve then finds
    the server closed, rebuilds it and still answers."""
    monkeypatch.setattr(node_module, "MAX_DATABASES", 1)
    node = ThreadNode("node-0", max_workers=1)
    insert = BoundedLru.setdefault
    hooked: list[str] = []

    def insert_then_evict(lru, key, value):
        held = insert(lru, key, value)
        if lru is node._servers and not hooked:
            hooked.append(key)
            node.ensure_database(bag_db)
        return held

    monkeypatch.setattr(BoundedLru, "setdefault", insert_then_evict)
    try:
        outcomes = sorted_outcomes(node.serve_iter(Workload.coerce(QUERIES), set_db))
        assert outcomes == reference(set_db)
        assert hooked == [set_db.content_fingerprint()]
        # set_db's first server was evicted by bag_db's, and bag_db's by the rebuild.
        assert node._servers.evictions == 2
        assert node.database(set_db.content_fingerprint()) is set_db
    finally:
        node.close()


def test_a_server_created_while_the_node_closes_is_closed_not_leaked(
    set_db, bag_db, monkeypatch
):
    """close() lists the servers it closes; a server a serve creates after
    that listing must be closed by the serve itself, which then refuses.  A
    registration on the closed node refuses before it builds a server."""
    node = ThreadNode("node-0", max_workers=2)
    created: list[ResilienceServer] = []

    def create_while_closing(*args, **kwargs):
        node.close()
        created.append(ResilienceServer(*args, **kwargs))
        return created[-1]

    monkeypatch.setattr(node_module, "ResilienceServer", create_while_closing)
    with pytest.raises(ReproError, match="not serving"):
        list(node.serve_iter(Workload.coerce(QUERIES), set_db))
    (server,) = created
    with pytest.raises(ReproError, match="closed"):
        server.serve(Workload.coerce(QUERIES))
    with pytest.raises(ReproError, match="not serving"):
        node.ensure_database(bag_db)
    assert len(created) == 1 and node.stats().databases == 1


def test_thread_node_server_map_survives_concurrent_serves_evictions_and_stats(monkeypatch):
    """Under a bound below the databases in play, registrations evict warm
    servers while other threads serve or read stats.  A serve must always
    find a server (it used to register, then look up in a second step a
    racing eviction could empty), and stats must never trip over a
    registration."""
    monkeypatch.setattr(node_module, "MAX_DATABASES", 2)
    databases = [
        GraphDatabase.from_edges([("u", "a", f"v{position}")]) for position in range(6)
    ]
    workload = Workload.coerce(["ab"])
    node = ThreadNode("node-0", max_workers=1)
    stop = threading.Event()
    errors: list[BaseException] = []
    served = [0, 0]

    def serve(worker: int) -> None:
        for step in range(1500):
            try:
                node.serve_iter(workload, databases[(worker + step) % len(databases)])
                served[worker] += 1
            except ReproError:
                pass  # the server was evicted and closed after the lookup
            except Exception as error:
                errors.append(error)
                return

    def register() -> None:
        while not stop.is_set():
            for database in databases:
                node.ensure_database(database)

    def read_stats() -> None:
        while not stop.is_set():
            try:
                node.stats()
            except Exception as error:
                errors.append(error)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        servers = [threading.Thread(target=serve, args=(worker,)) for worker in range(2)]
        observers = [threading.Thread(target=register), threading.Thread(target=read_stats)]
        for thread in servers + observers:
            thread.start()
        for thread in servers:
            thread.join(timeout=60)
    finally:
        stop.set()
        for thread in observers:
            thread.join(timeout=60)
        sys.setswitchinterval(interval)
        node.close()
    assert not any(thread.is_alive() for thread in servers + observers)
    assert errors == []
    assert sum(served) > 0
    assert node.stats().databases == 2


def test_health_monitor_recloses_and_the_next_serve_reships_once(set_db, monkeypatch):
    """The full circuit: probes fail -> breaker opens -> cooldown -> half-open
    probe against the restarted node -> reclose.  The restarted node holds
    no database, so the next serve meets a 409 and uploads it exactly once."""
    launcher = HttpNodeLauncher(max_workers=1)
    manager = NodeManager(launcher)
    manager.spawn(1)
    try:
        node = manager.node("node-0")
        sent = record_requests(node, monkeypatch)
        list(node.serve_iter(Workload.coerce(["aa"]), set_db))
        assert sent.count("/databases") == 1, "precondition: a database was shipped"
        monitor = HealthMonitor(manager, failure_threshold=2, cooldown_ticks=1)
        server = launcher._servers[0]
        host, port = server.address
        server.close()

        monitor.tick()
        assert monitor.states() == {"node-0": "closed"}
        monitor.tick()
        assert monitor.states() == {"node-0": "open"}
        monitor.tick()  # cooldown: no probe spent on a known-dead node
        assert monitor.states() == {"node-0": "open"}

        restarted = HttpNodeServer(
            "node-0", host=host, port=port, max_workers=1
        )
        launcher._servers.append(restarted)
        monitor.tick()  # half-open probe succeeds -> reclose
        assert monitor.states() == {"node-0": "closed"}
        assert monitor.recloses == 1
        assert restarted.runtime.stats().databases == 0
        outcomes = sorted_outcomes(node.serve_iter(Workload.coerce(QUERIES), set_db))
        assert outcomes == reference(set_db)
        assert sent.count("/databases") == 2, "the 409 re-ships exactly once"
        assert restarted.runtime.stats().databases == 1
    finally:
        manager.close()


def test_health_monitor_replaces_a_node_dead_past_grace(set_db):
    launcher = HttpNodeLauncher(max_workers=1)
    manager = NodeManager(launcher)
    manager.spawn(1)
    try:
        corpse = manager.node("node-0")
        monitor = HealthMonitor(manager, failure_threshold=1, replace_after=2)
        launcher._servers[0].close()
        monitor.tick()
        monitor.tick()
        assert monitor.replacements == 1
        replacement = manager.node("node-0")
        assert replacement is not corpse
        assert replacement.heartbeat()
        outcomes = sorted_outcomes(
            replacement.serve_iter(Workload.coerce(QUERIES), set_db)
        )
        assert outcomes == reference(set_db)
    finally:
        manager.close()


def test_manager_start_monitor_runs_and_stops_with_close(set_db):
    import time as _time

    with ThreadExchange(nodes=1, max_workers=1) as exchange:
        monitor = exchange.manager.start_monitor(interval=0.01)
        deadline = _time.monotonic() + 5.0
        while monitor.ticks == 0 and _time.monotonic() < deadline:
            _time.sleep(0.01)
        assert monitor.ticks > 0, "the supervision thread must be ticking"
        assert exchange.manager.monitor is monitor
    assert exchange.manager.monitor is None, "close() stops and clears it"
