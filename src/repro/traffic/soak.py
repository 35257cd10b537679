"""Chaos soak harness: drive the full serving stack under generated traffic.

:class:`SoakRunner` replays a :class:`~repro.traffic.generator.TrafficTrace`
through an :class:`~repro.service.async_server.AsyncResilienceServer` over a
chosen exchange in *rounds* of ``requests_per_round`` submissions, while a
:class:`~repro.traffic.chaos.ChaosSchedule` injects faults mid-stream.  The
runner builds its exchange itself — in-process (``transport="thread"``, the
default) or over real sockets (``transport="http"``) — or serves over a
ready-made one; network chaos kinds (refused / disconnect / stall / corrupt)
arm the owning node's fault hook at round start, so the soak exercises the
HTTP fabric's retry, failover and degraded-fallback paths under the same
invariants.  After every round an invariant monitor asserts the contracts
the serving stack claims, raising :class:`InvariantViolation` on the first
breach:

* **exactly one outcome per admitted query** — per request, the delivered
  indices are exactly ``0..n-1``, kills and crashes included;
* **no cross-workload leakage** — every outcome labels the spec at its own
  index of its own workload;
* **structured failure only** — every status is one of the four declared
  outcome statuses, every non-``ok`` outcome carries an error string, and no
  exception ever escapes ``submit`` or stream iteration;
* **outcome parity** (``verify_parity``) — every deadline-free,
  non-rejected traffic request reproduces the uncached serial reference
  (``max_workers=1``, fresh string-keyed cache) outcome-for-outcome after
  re-sorting, node kills included: failover must not change answers;
* **poison stays contained** — a poison workload comes back all-``error``
  while the same round's traffic keeps full parity;
* **drained means drained** — ``in_flight`` returns to zero after every
  round (the decrement-on-last-outcome contract);
* **recovery** — after a kill, the fleet is healed (dead nodes are replaced
  through the manager at round end) and serving is back to full parity
  within ``recovery_rounds`` rounds;
* **no leaked resources** — an optional ``leak_tracker`` (duck-typed to
  ``tests/leak_sanitizer.LeakTracker``: ``start()`` / ``stop()`` /
  ``leaks()``) brackets the whole soak; surviving threads, child processes,
  sockets or temp dirs are violations.

Every outcome (and every chaos event) can be appended to a JSONL log for
post-mortem; together with the trace seed that makes any failed soak
replayable bit-for-bit.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..exceptions import ReproError
from ..service import (
    ADMISSION_REJECTED,
    BUDGET_EXCEEDED,
    ERROR,
    OK,
    AsyncResilienceServer,
    Exchange,
    HttpExchange,
    LanguageCache,
    QueryOutcome,
    ThreadExchange,
    Workload,
    resilience_serve,
)
from .chaos import (
    BURST,
    KILL,
    NETWORK_KINDS,
    POISON,
    REFUSED,
    SLOW,
    ChaosEvent,
    ChaosSchedule,
)
from .generator import TrafficRequest, TrafficTrace

#: Exchange transports the runner can build itself.
TRANSPORTS = ("thread", "http")

KNOWN_STATUSES = frozenset({OK, BUDGET_EXCEEDED, ERROR, ADMISSION_REJECTED})

#: What each injected-workload kind must come back as.
_EXPECTED_CHAOS_STATUSES = {
    POISON: frozenset({ERROR}),
    SLOW: frozenset({OK, BUDGET_EXCEEDED}),
    BURST: frozenset({OK, ADMISSION_REJECTED}),
}


class InvariantViolation(ReproError):
    """A soak invariant failed; the message carries round and detail."""


@dataclass(frozen=True)
class SoakReport:
    """The structured result of one completed soak run.

    ``latency`` maps outcome status to conservative histogram quantiles
    (milliseconds) from the front-end's metrics surface; ``by_status`` counts
    the outcomes actually collected, chaos traffic included.  ``violations``
    is always empty on a report — the runner raises on the first breach —
    but stays a field so artefact consumers can assert on it explicitly.
    """

    seed: int | None
    requests: int
    rounds: int
    outcomes: int
    by_status: dict[str, int]
    latency: dict[str, dict]
    admission: dict[str, int]
    chaos: dict[str, int]
    recovery: dict[str, object]
    throughput_rps: float
    wall_seconds: float
    parity_checked: int
    violations: tuple[str, ...] = ()
    leaks: tuple[str, ...] = ()
    #: Final fleet-wide cache counters (``CacheStats.as_dict()``): hit/miss/
    #: eviction counters plus the ``entries`` / ``bytes_estimate`` footprint
    #: gauges — the observable that bounded soaks assert stays flat.
    cache: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "requests": self.requests,
            "rounds": self.rounds,
            "outcomes": self.outcomes,
            "by_status": dict(sorted(self.by_status.items())),
            "latency": self.latency,
            "admission": self.admission,
            "chaos": self.chaos,
            "recovery": self.recovery,
            "throughput_rps": self.throughput_rps,
            "wall_seconds": self.wall_seconds,
            "parity_checked": self.parity_checked,
            "violations": list(self.violations),
            "leaks": list(self.leaks),
            "cache": dict(sorted(self.cache.items())),
        }


@dataclass
class _Submission:
    """One in-flight submission of a round (traffic or injected chaos)."""

    kind: str  # "traffic" or a chaos kind
    workload: Workload
    database_key: str
    request: TrafficRequest | None = None
    outcomes: list[QueryOutcome] = field(default_factory=list)


class SoakRunner:
    """Drive one trace (plus chaos) through the serving stack and monitor it.

    Args:
        trace: the (seeded) traffic to replay.
        nodes / max_workers / cache: fleet configuration when the runner
            builds its own exchange (``max_workers=1`` serves each node
            serially); ``exchange`` supplies a ready-made exchange instead
            (the runner's front-end owns and closes it either way).
        transport: which exchange the runner builds when ``exchange`` is
            ``None`` — ``"thread"`` (default,
            :class:`~repro.service.ThreadExchange`) or ``"http"``
            (:class:`~repro.service.HttpExchange`: the same soak over real
            sockets; node processes ship their own caches, so a shared
            ``cache`` is rejected).
        chaos: the fault schedule; events must fit within the trace's rounds.
        requests_per_round: trace requests submitted per soak round.
        max_queue_depth / round_share: front-end admission configuration.
        verify_parity: compare every deadline-free, non-rejected traffic
            request against the uncached serial reference (memoized per
            workload/database pair).
        recovery_rounds: bound on rounds from a kill to a healed, full-parity
            fleet; dead nodes are replaced through the manager at round end
            (healing needs a launcher-backed exchange, as ``ThreadExchange``
            is).
        pace: optional open-loop pacing factor — sleep ``pace *`` the trace's
            inter-arrival gap before each submission (0: submit immediately).
        log_path: append JSONL records (chaos events, outcomes, round
            summaries) here.
        leak_tracker: optional duck-typed leak tracker bracketing the soak.
        keep_outcomes: retain per-request outcome lists on
            :attr:`collected` (ordered by trace ``seq``) for replay
            comparisons.
    """

    def __init__(
        self,
        trace: TrafficTrace,
        *,
        nodes: int = 2,
        max_workers: int | None = 2,
        cache: LanguageCache | None = None,
        transport: str = "thread",
        exchange: Exchange | None = None,
        chaos: ChaosSchedule | None = None,
        requests_per_round: int = 4,
        max_queue_depth: int = 64,
        round_share: int | None = None,
        verify_parity: bool = True,
        recovery_rounds: int = 2,
        pace: float = 0.0,
        log_path: str | Path | None = None,
        leak_tracker=None,
        keep_outcomes: bool = False,
    ) -> None:
        if requests_per_round < 1:
            raise ValueError(
                f"requests_per_round must be >= 1 (got {requests_per_round})"
            )
        if recovery_rounds < 1:
            raise ValueError(f"recovery_rounds must be >= 1 (got {recovery_rounds})")
        if not trace.requests:
            raise ValueError("cannot soak an empty trace")
        if transport not in TRANSPORTS:
            raise ReproError(
                f"unknown soak transport {transport!r}; expected one of "
                f"{list(TRANSPORTS)}"
            )
        if transport == "http" and cache is not None:
            raise ReproError(
                "http transport serves from node processes with their own "
                "caches; a shared front-end cache cannot apply"
            )
        self._trace = trace
        self._transport = transport
        self._nodes = nodes
        self._max_workers = max_workers
        self._cache = cache
        self._exchange = exchange
        self._chaos = chaos or ChaosSchedule()
        self._requests_per_round = requests_per_round
        self._max_queue_depth = max_queue_depth
        self._round_share = round_share
        self._verify_parity = verify_parity
        self._recovery_rounds = recovery_rounds
        self._pace = pace
        self._log_path = None if log_path is None else Path(log_path)
        self._leak_tracker = leak_tracker
        self._keep_outcomes = keep_outcomes

        self._default_database_key = next(iter(trace.databases))
        self._chaos_priority = (
            max((request.priority for request in trace.requests), default=0) + 1
        )
        self._references: list[tuple[str, Workload, list[QueryOutcome]]] = []
        self._log_handle = None
        self._server_exchange: Exchange | None = None

        #: Per-trace-request outcome lists (``keep_outcomes`` only).
        self.collected: list[list[QueryOutcome]] = []

    # ------------------------------------------------------------------- run

    def run(self) -> SoakReport:
        """Replay the trace round by round; raise on the first violation."""
        rounds = [
            self._trace.requests[start : start + self._requests_per_round]
            for start in range(0, len(self._trace.requests), self._requests_per_round)
        ]
        if self._chaos.last_round() >= len(rounds):
            raise ReproError(
                f"chaos schedule reaches round {self._chaos.last_round()} but the "
                f"trace only has {len(rounds)} rounds of {self._requests_per_round}"
            )
        if self._leak_tracker is not None:
            self._leak_tracker.start()
        if self._log_path is not None:
            self._log_handle = self._log_path.open("a", encoding="utf-8")
        try:
            return self._run_rounds(rounds)
        finally:
            if self._log_handle is not None:
                self._log_handle.close()
                self._log_handle = None

    def _run_rounds(self, rounds) -> SoakReport:
        exchange = self._exchange
        if exchange is None and self._transport == "http":
            exchange = HttpExchange(nodes=self._nodes, max_workers=self._max_workers)
        elif exchange is None:
            exchange = ThreadExchange(
                nodes=self._nodes, max_workers=self._max_workers, cache=self._cache
            )
        self._server_exchange = exchange
        server = AsyncResilienceServer(
            exchange,
            max_queue_depth=self._max_queue_depth,
            round_share=self._round_share,
        )
        state = _SoakState()
        started = time.perf_counter()
        try:
            asyncio.run(self._soak(server, rounds, state))
            state.final_metrics = server.metrics()
        finally:
            server.close()
        wall = time.perf_counter() - started

        leaks: tuple[str, ...] = ()
        if self._leak_tracker is not None:
            self._leak_tracker.stop()
            leaks = tuple(self._leak_tracker.leaks())
            if leaks:
                raise InvariantViolation(
                    "soak leaked resources:\n  " + "\n  ".join(leaks)
                )
        return self._build_report(rounds, state, wall, leaks)

    # ------------------------------------------------------------ round loop

    async def _soak(self, server, rounds, state: "_SoakState") -> None:
        for round_index, batch in enumerate(rounds):
            state.round_cursor = round_index
            events = self._chaos.for_round(round_index)
            for event in events:
                self._log({"type": "chaos", **event.as_dict()})
            # Network faults arm before any submission: the round's first
            # connection attempts / serve streams are the ones that misbehave.
            for event in events:
                if event.kind in NETWORK_KINDS:
                    self._fire_network(event, state)
            round_started = time.perf_counter()
            submissions = await self._submit_round(server, batch, events, state)
            await self._collect_round(submissions, events, state)
            wall_ms = (time.perf_counter() - round_started) * 1e3
            self._check_round(round_index, submissions, server, state)
            self._heal(round_index, server, state)
            delivered = sum(len(sub.outcomes) for sub in submissions)
            state.outcome_total += delivered
            self._log(
                {
                    "type": "round",
                    "round": round_index,
                    "requests": len(submissions),
                    "outcomes": delivered,
                    "wall_ms": round(wall_ms, 3),
                }
            )

    async def _submit_round(self, server, batch, events, state) -> list[_Submission]:
        submissions: list[_Submission] = []
        # Burst traffic goes first: its whole point is contending with the
        # round's real submissions for admission-queue depth.
        for event in events:
            if event.kind != BURST:
                continue
            state.burst_workloads += event.count
            key = event.database_key or self._default_database_key
            for _ in range(event.count):
                workload = Workload.coerce(["a"])
                stream = await server.submit(
                    workload,
                    priority=self._chaos_priority,
                    database=self._trace.databases[key],
                )
                submissions.append(
                    _Submission(BURST, workload, key, outcomes=[])
                )
                state.streams.append((submissions[-1], stream))
        previous_offset = None
        for request in batch:
            if self._pace and previous_offset is not None:
                await asyncio.sleep(
                    max(0.0, (request.offset - previous_offset) * self._pace)
                )
            previous_offset = request.offset
            stream = await server.submit(
                request.workload,
                priority=request.priority,
                deadline=request.deadline,
                database=self._trace.databases[request.database_key],
                weight=request.weight,
            )
            submissions.append(
                _Submission(
                    "traffic", request.workload, request.database_key, request=request
                )
            )
            state.streams.append((submissions[-1], stream))
        for event in events:
            if event.kind not in (POISON, SLOW):
                continue
            if event.kind == POISON:
                state.poison_workloads += 1
            else:
                state.slow_workloads += 1
            key = event.database_key or self._default_database_key
            stream = await server.submit(
                event.workload,
                priority=self._chaos_priority,
                database=self._trace.databases[key],
            )
            submissions.append(_Submission(event.kind, event.workload, key))
            state.streams.append((submissions[-1], stream))
        return submissions

    async def _collect_round(self, submissions, events, state) -> None:
        kills = [event for event in events if event.kind == KILL]
        counter = {"outcomes": 0}
        fired: set[ChaosEvent] = set()

        def on_outcome() -> None:
            counter["outcomes"] += 1
            for event in kills:
                if event in fired or counter["outcomes"] < event.after_outcomes:
                    continue
                fired.add(event)
                self._fire_kill(event, state)

        async def drain(submission: _Submission, stream) -> None:
            async for outcome in stream:
                submission.outcomes.append(outcome)
                on_outcome()

        streams, state.streams = state.streams, []
        await asyncio.gather(
            *(drain(submission, stream) for submission, stream in streams)
        )
        unfired = [event for event in kills if event not in fired]
        if unfired:
            raise InvariantViolation(
                f"kill event(s) never fired (round delivered {counter['outcomes']} "
                f"outcomes, first kill waits for {unfired[0].after_outcomes}); "
                "lower after_outcomes or enlarge the round"
            )

    def _fire_kill(self, event: ChaosEvent, state: "_SoakState") -> None:
        exchange = self._live_exchange
        if not hasattr(exchange, "route_for") or not hasattr(exchange, "manager"):
            raise ReproError(
                "kill events need a routed exchange with a node manager "
                f"(got {type(exchange).__name__})"
            )
        key = event.database_key or self._default_database_key
        owner = exchange.route_for(self._trace.databases[key])
        exchange.manager.kill(owner)
        state.kills.append(owner)
        state.pending_kills.append(state.round_cursor)
        self._log({"type": "kill-fired", "node": owner, "database_key": key})

    def _fire_network(self, event: ChaosEvent, state: "_SoakState") -> None:
        exchange = self._live_exchange
        if not hasattr(exchange, "route_for") or not hasattr(exchange, "manager"):
            raise ReproError(
                "network chaos needs a routed exchange with a node manager "
                f"(got {type(exchange).__name__})"
            )
        key = event.database_key or self._default_database_key
        owner = exchange.route_for(self._trace.databases[key])
        node = exchange.manager.node(owner)
        inject = getattr(node, "inject_fault", None)
        if inject is None:
            raise ReproError(
                f"{event.kind!r} chaos needs a fault-capable node handle "
                f"(got {type(node).__name__}); build the exchange over "
                "ChaosHttpNodeLauncher from tests/faults.py"
            )
        if event.kind == REFUSED:
            inject(event.kind, count=event.count)
        else:
            inject(event.kind, after_outcomes=event.after_outcomes)
        state.network_faults += 1
        self._log(
            {
                "type": "network-fault",
                "kind": event.kind,
                "node": owner,
                "database_key": key,
            }
        )

    # -------------------------------------------------------------- checking

    def _check_round(self, round_index, submissions, server, state) -> None:
        def violation(detail: str) -> InvariantViolation:
            return InvariantViolation(f"round {round_index}: {detail}")

        for submission in submissions:
            specs = submission.workload.specs
            outcomes = submission.outcomes
            label = (
                f"request #{submission.request.seq}"
                if submission.request is not None
                else f"{submission.kind} workload"
            )
            indices = sorted(outcome.index for outcome in outcomes)
            if indices != list(range(len(specs))):
                raise violation(
                    f"{label}: expected exactly one outcome per query "
                    f"(0..{len(specs) - 1}), got indices {indices}"
                )
            for outcome in outcomes:
                if outcome.query != specs[outcome.index].display_name():
                    raise violation(
                        f"{label}: outcome #{outcome.index} labels "
                        f"{outcome.query!r}, spec is "
                        f"{specs[outcome.index].display_name()!r} — cross-workload leak"
                    )
                if outcome.status not in KNOWN_STATUSES:
                    raise violation(
                        f"{label}: unstructured status {outcome.status!r}"
                    )
                if outcome.status != OK and not outcome.error:
                    raise violation(
                        f"{label}: non-ok outcome #{outcome.index} carries no error"
                    )
                state.by_status[outcome.status] = (
                    state.by_status.get(outcome.status, 0) + 1
                )
                self._log_outcome(round_index, submission, outcome)
            expected = _EXPECTED_CHAOS_STATUSES.get(submission.kind)
            if expected is not None:
                stray = {o.status for o in outcomes} - expected
                if stray:
                    raise violation(
                        f"{label}: statuses {sorted(stray)} outside the expected "
                        f"{sorted(expected)} for injected {submission.kind} traffic"
                    )
                if submission.kind == BURST:
                    state.burst_rejected += sum(
                        1 for o in outcomes if o.status == ADMISSION_REJECTED
                    )
            if submission.kind == "traffic":
                self._check_parity(submission, violation, state)
            if self._keep_outcomes and submission.request is not None:
                state.kept[submission.request.seq] = list(outcomes)

        in_flight = server.metrics().admission.in_flight
        if in_flight != 0:
            raise violation(
                f"in_flight is {in_flight} after the round drained (must be 0)"
            )

    def _check_parity(self, submission, violation, state) -> None:
        request = submission.request
        rejected = [
            o for o in submission.outcomes if o.status == ADMISSION_REJECTED
        ]
        if rejected:
            state.rejected_requests += 1
        if not self._verify_parity or request.deadline is not None or rejected:
            # Deadlines and depth-bound rejections are timing-dependent by
            # design; the structural invariants above still hold for them.
            return
        reference = self._reference(submission.database_key, submission.workload)
        ours = sorted(submission.outcomes, key=lambda outcome: outcome.index)
        if ours != reference:
            diverged = next(
                (theirs.index for mine, theirs in zip(ours, reference) if mine != theirs),
                "length",
            )
            raise violation(
                f"request #{request.seq} diverged from the serial reference "
                f"at index {diverged}"
            )
        state.parity_checked += 1

    def _reference(self, database_key: str, workload: Workload):
        for key, cached_workload, outcomes in self._references:
            if key == database_key and cached_workload == workload:
                return outcomes
        outcomes = resilience_serve(
            workload,
            self._trace.databases[database_key],
            max_workers=1,
            cache=LanguageCache(canonical=False),
        )
        self._references.append((database_key, workload, outcomes))
        return outcomes

    # -------------------------------------------------------------- recovery

    def _heal(self, round_index, server, state) -> None:
        exchange = self._live_exchange
        heartbeat = getattr(exchange, "heartbeat", None)
        if heartbeat is None:
            return
        dead = [node_id for node_id, alive in heartbeat().items() if not alive]
        if dead:
            for node_id in dead:
                exchange.manager.replace(node_id)
                state.heals += 1
                self._log({"type": "heal", "round": round_index, "node": node_id})
            dead = [
                node_id for node_id, alive in heartbeat().items() if not alive
            ]
        if not dead and state.pending_kills:
            # This round ended with every invariant held and a fully live
            # fleet: every outstanding kill is recovered as of now.
            for kill_round in state.pending_kills:
                state.recoveries.append(round_index - kill_round + 1)
            state.pending_kills.clear()
        overdue = [
            kill_round
            for kill_round in state.pending_kills
            if round_index - kill_round + 1 > self._recovery_rounds
        ]
        if overdue:
            raise InvariantViolation(
                f"round {round_index}: fleet not recovered within "
                f"{self._recovery_rounds} rounds of the kill in round {overdue[0]} "
                f"(dead nodes: {dead})"
            )

    @property
    def _live_exchange(self):
        return self._server_exchange

    # --------------------------------------------------------------- logging

    def _log(self, record: dict) -> None:
        if self._log_handle is not None:
            self._log_handle.write(json.dumps(record, sort_keys=True) + "\n")

    def _log_outcome(self, round_index, submission, outcome) -> None:
        if self._log_handle is None:
            return
        self._log(
            {
                "type": "outcome",
                "round": round_index,
                "kind": submission.kind,
                "request": None
                if submission.request is None
                else submission.request.seq,
                "index": outcome.index,
                "query": outcome.query,
                "status": outcome.status,
                "method": outcome.method,
                "error": outcome.error,
                "database_key": submission.database_key,
            }
        )

    # ---------------------------------------------------------------- report

    def _build_report(self, rounds, state: "_SoakState", wall, leaks) -> SoakReport:
        metrics = state.final_metrics
        latency = {}
        if metrics is not None:
            latency = metrics.latency_quantiles((0.5, 0.99), scale=1e3)
        admission = {"admitted": 0, "rejected": 0, "deadline_expired": 0}
        if metrics is not None:
            admission = {
                "admitted": sum(metrics.admission.admitted.values()),
                "rejected": sum(metrics.admission.rejected.values()),
                "deadline_expired": metrics.admission.deadline_expired,
                "final_in_flight": metrics.admission.in_flight,
            }
        admission["burst_rejected_outcomes"] = state.burst_rejected
        admission["rejected_traffic_requests"] = state.rejected_requests
        if self._keep_outcomes:
            self.collected = [
                state.kept[request.seq]
                for request in self._trace.requests
                if request.seq in state.kept
            ]
        profile = self._trace.profile
        return SoakReport(
            seed=None if profile is None else profile.seed,
            requests=len(self._trace.requests),
            rounds=len(rounds),
            outcomes=state.outcome_total,
            by_status=dict(sorted(state.by_status.items())),
            latency=latency,
            admission=admission,
            chaos={
                "kills": len(state.kills),
                "heals": state.heals,
                "poison_workloads": state.poison_workloads,
                "slow_workloads": state.slow_workloads,
                "burst_workloads": state.burst_workloads,
                "network_faults": state.network_faults,
                "degraded_serves": getattr(metrics, "degraded_serves", 0),
            },
            recovery={
                "per_kill_rounds": list(state.recoveries),
                "max_rounds": max(state.recoveries, default=0),
                "bound": self._recovery_rounds,
            },
            throughput_rps=round(state.outcome_total / wall, 3) if wall > 0 else 0.0,
            wall_seconds=round(wall, 6),
            parity_checked=state.parity_checked,
            violations=(),
            leaks=leaks,
            cache={} if metrics is None else metrics.cache.as_dict(),
        )


@dataclass
class _SoakState:
    """Mutable bookkeeping for one run (kept off the runner for re-runs)."""

    streams: list = field(default_factory=list)
    by_status: dict = field(default_factory=dict)
    kept: dict = field(default_factory=dict)
    kills: list = field(default_factory=list)
    pending_kills: list = field(default_factory=list)
    recoveries: list = field(default_factory=list)
    heals: int = 0
    poison_workloads: int = 0
    slow_workloads: int = 0
    burst_workloads: int = 0
    network_faults: int = 0
    burst_rejected: int = 0
    rejected_requests: int = 0
    parity_checked: int = 0
    outcome_total: int = 0
    round_cursor: int = 0
    final_metrics: object = None
