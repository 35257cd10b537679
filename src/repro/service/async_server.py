"""Async serving front-end: admission control over an exchange of warm nodes.

:class:`AsyncResilienceServer` is the top layer of the three-layer serving
stack (front-end → exchange → nodes).  It multiplexes *concurrent* workloads
onto an :class:`~repro.service.exchange.base.Exchange` — a fingerprint-routed
fleet of warm nodes
(:class:`~repro.service.exchange.threads.ThreadExchange` with one or more
in-process nodes, or :class:`~repro.service.exchange.http.HttpExchange`) —
behind an ``asyncio`` API:

* :meth:`~AsyncResilienceServer.submit` admits a workload into an internal
  admission queue and returns an async iterator of its
  :class:`~repro.service.outcome.QueryOutcome` objects;
* a dedicated drain thread pops admitted workloads, packs them into a
  :class:`~repro.service.exchange.base.WorkloadEnvelope` (one part per
  distinct database) and streams the exchange's merged outcomes back into
  each submitting workload's :class:`asyncio.Queue` (via
  ``loop.call_soon_threadsafe``) as they complete;
* :meth:`~AsyncResilienceServer.metrics` snapshots the whole runtime —
  fleet-aggregated cache counters and pool state, per-node
  :class:`~repro.metrics.NodeStats`, admission counters, per-status latency
  histograms — as a :class:`~repro.metrics.ServerMetrics`, and
  :meth:`~AsyncResilienceServer.metrics_endpoint` serves that snapshot as
  JSON (or Prometheus text exposition, content-negotiated) over a tiny
  stdlib HTTP endpoint for ops tooling to scrape.  The snapshot types, their
  wire formats and the endpoint live in :mod:`repro.metrics`.

Admission semantics
-------------------

Workloads are admitted into priority classes: **lower ``priority`` values are
served first**, and within one class workloads drain FIFO (by submission
order).  The drain thread serves *rounds*: each round merges the waiting
workloads of the single best (lowest) nonempty priority class into one
combined envelope and streams it through the exchange, so concurrent
same-class workloads genuinely share the serving capacity within a round
while a higher class never yields it to a lower one.  ``round_share`` caps
how many queries one workload may contribute to a round (its *concurrency
share*): a workload larger than its share is served across consecutive
rounds, keeping one huge submission from monopolizing a round against its
peers.  Shares are *weighted*: a workload's cap is
``max(1, round(round_share * weight))``, with per-class default weights via
``share_weights`` and a per-submission override — heavier clients get
proportionally more of each round, and the floor of one spec per round
guarantees no positive-weight workload starves.

Admission is bounded: when ``max_queue_depth`` workloads are already waiting,
:meth:`~AsyncResilienceServer.submit` does not block and does not raise — it
returns an iterator of structured :data:`~repro.service.outcome.ADMISSION_REJECTED`
outcomes (one per query), so back-pressure is data the caller can retry on.  A
``deadline`` (seconds) bounds the workload end to end: still unserved when it
passes, the workload is rejected outright; already executing, the deadline
travels with the workload as a cooperative
:class:`~repro.service.cancellation.CancellationToken` checked between
queries — down to the in-flight worker chunk — so the unserved tail surfaces
as ``admission-rejected`` outcomes instead of running stale to completion.

Outcome-stream contract
-----------------------

Per workload, the same contract as ``serve_iter``: the multiset of outcomes
equals the blocking :meth:`~repro.service.server.ResilienceServer.serve`
list for that workload (indices are workload-local), with no ordering
guarantee beyond it — re-sorting by ``outcome.index`` reproduces the serial
reference exactly, which the conformance harness pins for the async variants.
Outcomes are never shared or duplicated across workloads: every admitted query
yields exactly one outcome on exactly its own iterator.

A consumer that abandons its iterator mid-stream (``break``, task
cancellation, GC) marks the workload abandoned: already-queued outcomes are
dropped, its unserved queries are never dispatched (the abandonment cancels
the workload's token, stopping even an in-flight chunk between queries), and
later workloads are unaffected — pinned by the abandonment regression tests.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from collections.abc import AsyncIterator, Iterable, Mapping
from dataclasses import replace

from ..exceptions import ReproError
from ..graphdb.database import BagGraphDatabase, GraphDatabase
from ..metrics import AdmissionStats, LatencyHistogram, MetricsEndpoint, ServerMetrics
from .cancellation import CancellationToken
from .exchange.base import EnvelopePart, Exchange, WorkloadEnvelope
from .outcome import ADMISSION_REJECTED, ERROR, QueryOutcome
from .workload import QueryLike, QuerySpec, Workload

AnyDatabase = GraphDatabase | BagGraphDatabase

#: End-of-stream sentinel on a workload's outcome queue.
_DONE = object()

#: Token reason recorded when a consumer lets go of its outcome stream.
_ABANDON_REASON = "WorkloadAbandoned: consumer dropped the outcome stream"


def _synthetic_outcomes(
    specs: tuple[QuerySpec, ...], status: str, reason: str, *, start: int = 0
) -> list[QueryOutcome]:
    """Fabricate one structured outcome per spec from ``start`` on — the shared
    shape of every never-executed path (rejection, expiry, failure)."""
    return [
        QueryOutcome.unserved(index, specs[index], status, reason, method=specs[index].method)
        for index in range(start, len(specs))
    ]


class _Admission:
    """One admitted (or rejected) workload and its delivery state.

    ``next_offset`` is how many specs have been contributed to serving rounds;
    ``remaining`` how many outcomes are still undelivered.  ``next_offset``
    and ``remaining`` are only touched under the server lock or on the drain
    thread, never concurrently.  ``abandoned`` flips (from the consumer side)
    when the outcome iterator is dropped mid-stream: the router then discards
    outcomes and the admission queue skips the unserved tail.  ``token`` is
    the workload's cooperative cancellation handle, shipped with every round
    it participates in; ``weight`` scales its round share.
    """

    __slots__ = (
        "seq", "priority", "deadline_at", "specs", "queue", "loop",
        "submitted_at", "next_offset", "remaining", "abandoned", "in_round",
        "database", "weight", "token",
    )

    def __init__(
        self,
        priority: int,
        deadline_at: float | None,
        specs: tuple[QuerySpec, ...],
        queue: "asyncio.Queue",
        loop: "asyncio.AbstractEventLoop",
        submitted_at: float,
        database: AnyDatabase,
        weight: float,
    ) -> None:
        self.seq = 0
        self.priority = priority
        self.deadline_at = deadline_at
        self.specs = specs
        self.queue = queue
        self.loop = loop
        self.submitted_at = submitted_at
        self.next_offset = 0
        self.remaining = len(specs)
        self.abandoned = False
        self.in_round = False
        self.database = database
        self.weight = weight
        self.token = CancellationToken(deadline_at=deadline_at)


class _OutcomeStream:
    """The async iterator :meth:`AsyncResilienceServer.submit` returns.

    A plain class rather than an async generator so that *abandonment* is
    observable no matter how the consumer lets go: ``aclose()`` (including on
    a stream that was never iterated — a generator's ``finally`` would never
    run there) and garbage collection both mark the workload abandoned, which
    stops outcome routing and keeps its unserved tail out of the pool.
    """

    __slots__ = ("_entry", "_finished")

    def __init__(self, entry: _Admission) -> None:
        self._entry = entry
        self._finished = False

    def __aiter__(self) -> "_OutcomeStream":
        return self

    async def __anext__(self) -> QueryOutcome:
        # Sticky end-of-stream: once finished (or abandoned), every later
        # __anext__ raises again instead of blocking on the drained queue.
        if self._finished or self._entry.abandoned:
            self._finished = True
            raise StopAsyncIteration
        item = await self._entry.queue.get()
        if item is _DONE:
            self._finished = True
            raise StopAsyncIteration
        return item

    def cancel(
        self, reason: str = "WorkloadCancelled: cancelled by the consumer"
    ) -> None:
        """Cooperatively cancel the workload while keeping the stream alive.

        Unlike abandonment, the consumer stays subscribed: every not-yet-run
        query — including the tail of a chunk already on a worker — surfaces
        as a structured ``error`` outcome carrying ``reason``, so the stream
        still completes with exactly one outcome per query.
        """
        self._entry.token.cancel(reason)

    async def aclose(self) -> None:
        self._entry.abandoned = True
        self._finished = True
        self._entry.token.cancel(_ABANDON_REASON)
        # Wake a consumer already blocked in __anext__'s queue.get() — the
        # abandonment flag alone can never reach it (deliveries stop).
        self._entry.queue.put_nowait(_DONE)

    def __del__(self) -> None:
        # GC can only collect an un-awaited stream (a blocked __anext__ holds
        # a reference), so flagging without a wake-up is enough here — and
        # put_nowait would not be safe from an arbitrary GC thread.  The token
        # cancel is a plain attribute write plus (at worst) one shared-memory
        # byte store, both safe from a GC context.
        self._entry.abandoned = True
        self._entry.token.cancel(_ABANDON_REASON)


class AsyncResilienceServer:
    """An asyncio front-end multiplexing workloads onto an exchange.

    Args:
        exchange: the :class:`~repro.service.exchange.base.Exchange` every
            round is served through — ``ThreadExchange(nodes=1)`` for one
            in-process node.  The async server *owns* it: closing the
            front-end closes the exchange, its nodes and their pools.  Any
            other type raises :class:`TypeError`.
        database: the default database submissions run against (each
            :meth:`submit` may pass its own instead).
        max_queue_depth: bound on *waiting* workloads; a submission arriving
            at the bound is rejected with structured
            :data:`~repro.service.outcome.ADMISSION_REJECTED` outcomes
            instead of queueing without limit.
        round_share: base per-workload concurrency share — the maximum number
            of queries a weight-1.0 workload may contribute to a single
            serving round (``None``: a workload always contributes all of its
            remaining queries).
        share_weights: default share weight per priority class (1.0 where
            unset).  A workload's round cap is ``max(1, round(round_share *
            weight))`` — the floor of one guarantees every waiting workload
            progresses every round of its class, so no positive weight can
            starve.
        autostart: start the drain thread lazily on the first submission
            (default).  ``autostart=False`` keeps every submission queued
            until :meth:`start` is called — the seam the admission-order
            tests (and pre-loading ops tooling) use.

    Use as an async context manager, or call :meth:`close` /
    :meth:`aclose`.  All methods are safe to call from one event loop;
    workloads may also be submitted from several event loops in different
    threads (each iterator is bound to its submitting loop).
    """

    def __init__(
        self,
        exchange: Exchange,
        *,
        database: AnyDatabase | None = None,
        max_queue_depth: int = 64,
        round_share: int | None = None,
        share_weights: Mapping[int, float] | None = None,
        autostart: bool = True,
    ) -> None:
        if not isinstance(exchange, Exchange):
            raise TypeError(
                "AsyncResilienceServer serves through an Exchange, got "
                f"{type(exchange).__name__}; for one in-process node use "
                "AsyncResilienceServer(ThreadExchange(nodes=1), database=...)"
            )
        if max_queue_depth < 1:
            raise ValueError(f"max_queue_depth must be >= 1 (got {max_queue_depth})")
        if round_share is not None and round_share < 1:
            raise ValueError(f"round_share must be >= 1 or None (got {round_share})")
        if share_weights:
            for priority, weight in share_weights.items():
                if weight <= 0:
                    raise ValueError(
                        f"share weights must be > 0 (priority {priority} got {weight})"
                    )
        self._exchange = exchange
        self._default_database = database
        self._max_queue_depth = max_queue_depth
        self._round_share = round_share
        self._share_weights = dict(share_weights) if share_weights else {}
        self._autostart = autostart

        # Reentrant: expiry runs under the lock and delivers outcomes, whose
        # latency recording takes the lock again.
        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._waiting: dict[int, deque[_Admission]] = {}
        self._seq = 0
        self._drain_log: deque[tuple[int, int]] = deque(maxlen=4096)
        self._drain_thread: threading.Thread | None = None
        self._closing = False
        self._closed = False
        self._admitted: dict[int, int] = {}
        self._rejected: dict[int, int] = {}
        self._deadline_expired = 0
        self._in_flight = 0
        self._latency: dict[str, LatencyHistogram] = {}
        self._endpoints: list[MetricsEndpoint] = []

    # ------------------------------------------------------------------ accessors

    @property
    def exchange(self) -> Exchange:
        """The owned exchange every round is served through."""
        return self._exchange

    @property
    def database(self) -> AnyDatabase | None:
        """The default database submissions run against (``None`` when every
        submission passes its own)."""
        return self._default_database

    def worker_pids(self) -> frozenset[int]:
        """PIDs of the fleet's pool workers — stable PIDs across concurrent
        workloads prove they share warm pools (the acceptance observable)."""
        return self._exchange.worker_pids()

    def drain_log(self) -> tuple[tuple[int, int], ...]:
        """Diagnostic: ``(priority, submission_seq)`` per workload per round,
        in serving order (bounded: the most recent 4096 entries).  The
        admission-order tests assert on this — with every workload queued
        before :meth:`start`, priorities must be non-decreasing and
        same-class workloads must first appear in submission order."""
        with self._lock:
            return tuple(self._drain_log)

    # ------------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Start the drain thread (idempotent; implicit when ``autostart``)."""
        with self._lock:
            if self._closing or self._closed:
                raise ReproError("this AsyncResilienceServer is closed")
            self._start_locked()

    def _start_locked(self) -> None:
        if self._drain_thread is None:
            self._drain_thread = threading.Thread(
                target=self._drain_loop, name="async-resilience-drain", daemon=True
            )
            self._drain_thread.start()

    def close(self) -> None:
        """Drain down and close (idempotent): stop admissions, finish the
        in-flight round, fail still-waiting workloads with structured
        ``"error"`` outcomes, shut metrics endpoints and the exchange (and
        with it every node).  Blocking — from async code, use :meth:`aclose`."""
        with self._lock:
            already = self._closed
            self._closing = True
            self._wake.notify_all()
            thread = self._drain_thread
        if thread is not None:
            thread.join()
        with self._lock:
            leftovers = [entry for queue in self._waiting.values() for entry in queue]
            self._waiting.clear()
            self._closed = True
        for entry in leftovers:
            self._fail_entry(entry, "ServerClosed: async server closed before serving")
        if not already:
            endpoints, self._endpoints = self._endpoints, []
            for endpoint in endpoints:
                endpoint.close()
            self._exchange.close()

    async def aclose(self) -> None:
        """Async-friendly :meth:`close` (runs it on the default executor)."""
        await asyncio.get_running_loop().run_in_executor(None, self.close)

    async def __aenter__(self) -> "AsyncResilienceServer":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    def __enter__(self) -> "AsyncResilienceServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ admission

    async def submit(
        self,
        workload: Workload | Iterable[QuerySpec | QueryLike],
        *,
        priority: int = 0,
        deadline: float | None = None,
        database: AnyDatabase | None = None,
        weight: float | None = None,
    ) -> AsyncIterator[QueryOutcome]:
        """Admit a workload; iterate its outcomes as they complete.

        Args:
            workload: anything :meth:`~repro.service.workload.Workload.coerce`
                accepts.
            priority: admission class — **lower is served first**; FIFO
                within a class.
            deadline: maximum seconds until the workload's outcomes must be
                done.  Expiring unserved rejects it with
                ``admission-rejected`` outcomes; expiring *mid-execution*
                cancels the unserved tail cooperatively, yielding
                ``admission-rejected`` outcomes for the queries the deadline
                cut off (served queries keep their real outcomes).
            database: the database to run against, overriding the server's
                default; different submissions may target different databases
                and a routed exchange scatters them to their owning nodes.
            weight: share weight for this workload, overriding the
                ``share_weights`` default of its priority class.  The round
                cap is ``max(1, round(round_share * weight))``; must be > 0.

        Returns:
            an async iterator yielding exactly one
            :class:`~repro.service.outcome.QueryOutcome` per query, with
            workload-local ``index`` — re-sort by it to reproduce the
            blocking :meth:`~repro.service.server.ResilienceServer.serve`
            list.  A rejected submission yields one
            :data:`~repro.service.outcome.ADMISSION_REJECTED` outcome per
            query instead of raising.  The iterator's ``cancel()`` requests
            cooperative cancellation of whatever has not been served yet.

        Raises:
            ReproError: on a closed server (the one non-graceful refusal: the
                pool is gone, so no later capacity can serve a retry), or
                when no database is known (no default and no ``database=``).
        """
        if deadline is not None and deadline < 0:
            raise ValueError(f"deadline must be >= 0 seconds (got {deadline})")
        if weight is None:
            weight = self._share_weights.get(priority, 1.0)
        elif weight <= 0:
            raise ValueError(f"weight must be > 0 (got {weight})")
        db = database if database is not None else self._default_database
        if db is None:
            raise ReproError(
                "no database to serve against: this front-end has no default; "
                "pass database= to submit()"
            )
        fleet = Workload.coerce(workload)
        loop = asyncio.get_running_loop()
        now = time.monotonic()
        entry = _Admission(
            priority=priority,
            deadline_at=None if deadline is None else now + deadline,
            specs=fleet.specs,
            queue=asyncio.Queue(),
            loop=loop,
            submitted_at=now,
            database=db,
            weight=weight,
        )
        with self._lock:
            if self._closing or self._closed:
                raise ReproError("this AsyncResilienceServer is closed")
            self._seq += 1
            entry.seq = self._seq
            if entry.remaining == 0:
                # An empty workload needs no queue slot: complete it at once,
                # admitted whatever the queue depth.
                self._admitted[priority] = self._admitted.get(priority, 0) + 1
                entry.queue.put_nowait(_DONE)
                return self._outcomes(entry)
            # Expire overdue waiters first: a dead workload must neither
            # occupy a depth slot nor keep its consumer waiting for the
            # drain to reach its priority class.
            self._sweep_expired_locked()
            depth = sum(len(queue) for queue in self._waiting.values())
            if depth >= self._max_queue_depth:
                self._rejected[priority] = self._rejected.get(priority, 0) + 1
                self._reject_locked(
                    entry,
                    f"AdmissionRejected: queue depth {depth} at bound "
                    f"{self._max_queue_depth}",
                )
                return self._outcomes(entry)
            self._admitted[priority] = self._admitted.get(priority, 0) + 1
            self._waiting.setdefault(priority, deque()).append(entry)
            if self._autostart:
                self._start_locked()
            self._wake.notify_all()
        return self._outcomes(entry)

    def _reject_locked(self, entry: _Admission, reason: str) -> None:
        """Fill a never-queued entry with ``admission-rejected`` outcomes.

        Runs on the submitting thread (entry queue untouched by the drain),
        so outcomes go straight onto the asyncio queue.
        """
        elapsed = time.monotonic() - entry.submitted_at
        histogram = self._latency.setdefault(ADMISSION_REJECTED, LatencyHistogram())
        for outcome in _synthetic_outcomes(entry.specs, ADMISSION_REJECTED, reason):
            histogram.record(elapsed)
            entry.queue.put_nowait(outcome)
        entry.queue.put_nowait(_DONE)
        entry.remaining = 0

    def _outcomes(self, entry: _Admission) -> "_OutcomeStream":
        return _OutcomeStream(entry)

    # ------------------------------------------------------------------ draining

    def _drain_loop(self) -> None:
        while True:
            with self._lock:
                while not self._closing and not any(self._waiting.values()):
                    self._wake.wait()
                if self._closing:
                    return  # close() fails whatever is still waiting
                round_slices = self._pop_round_locked()
                self._in_flight = len(round_slices)
            try:
                if round_slices:
                    self._serve_round(round_slices)
            finally:
                with self._lock:
                    self._in_flight = 0

    def _pop_round_locked(self) -> list[tuple[_Admission, int, int]]:
        """Pop the next round: the best priority class's waiting workloads.

        Returns ``(entry, start, stop)`` spec slices, each capped at the
        entry's weighted round share.  Abandoned entries are dropped; expired
        waiters are
        rejected *across every class* first (an expired low-priority
        workload behind sustained high-priority traffic must not wait for
        its class's turn to learn it was rejected).  Partially contributed
        entries are re-queued by :meth:`_serve_round` after the round
        completes.
        """
        self._sweep_expired_locked()
        while True:
            classes = sorted(priority for priority, queue in self._waiting.items() if queue)
            if not classes:
                return []
            queue = self._waiting[classes[0]]
            slices: list[tuple[_Admission, int, int]] = []
            while queue:
                entry = queue.popleft()
                if entry.abandoned:
                    continue
                start = entry.next_offset
                share = self._entry_share(entry)
                stop = (
                    len(entry.specs)
                    if share is None
                    else min(len(entry.specs), start + share)
                )
                entry.next_offset = stop
                entry.in_round = True
                slices.append((entry, start, stop))
                self._drain_log.append((entry.priority, entry.seq))
            if slices:
                return slices
            # the class emptied out (abandons/expiries): try the next one

    def _entry_share(self, entry: "_Admission") -> int | None:
        """The weighted round cap: ``max(1, round(round_share * weight))``.

        The floor of one query per round is the no-starvation guarantee —
        however small a positive weight, a waiting workload progresses on
        every round of its class.
        """
        if self._round_share is None:
            return None
        return max(1, round(self._round_share * entry.weight))

    def _sweep_expired_locked(self) -> None:
        """Drop dead waiters: expired deadlines (rejected) and abandoned
        iterators (discarded — nobody is listening).

        Runs on both admission (submit) and drain (round pop), so a dead
        workload stops occupying a queue-depth slot promptly even while the
        drain is busy with other priority classes.  Only never-started
        workloads expire *here* — a workload whose first round ran completes
        through the serving path, where its cancellation token turns the
        deadline into cooperative mid-execution cancellation instead.
        """
        now = time.monotonic()
        for queue in self._waiting.values():
            for entry in [entry for entry in queue if entry.abandoned]:
                queue.remove(entry)
            expired = [
                entry
                for entry in queue
                if entry.deadline_at is not None
                and entry.next_offset == 0
                and now > entry.deadline_at
            ]
            for entry in expired:
                queue.remove(entry)
                self._expire_locked(entry)

    def _expire_locked(self, entry: _Admission) -> None:
        self._rejected[entry.priority] = self._rejected.get(entry.priority, 0) + 1
        self._deadline_expired += 1
        waited = time.monotonic() - entry.submitted_at
        reason = f"AdmissionRejected: deadline expired after {waited:.3f}s in queue"
        for outcome in _synthetic_outcomes(entry.specs, ADMISSION_REJECTED, reason):
            self._deliver(entry, outcome)

    def _serve_round(self, slices: list[tuple[_Admission, int, int]]) -> None:
        """Serve one merged round through the exchange and route outcomes.

        Slices are grouped by database (identity, first-appearance order)
        into one :class:`WorkloadEnvelope` part per database; a
        single-database round is therefore a one-part envelope.  Outcome
        indices come back envelope-global and are rewritten to workload-local
        before delivery.  Each entry's cancellation token rides along keyed
        by envelope index, so deadlines and consumer cancels cut execution
        cooperatively mid-round.  Any raise out of ``submit`` itself (closed
        exchange, broken beyond failover) fails every undelivered query of
        the round structurally — per-query failures are already outcomes.
        """
        groups: dict[int, tuple[AnyDatabase, list[QuerySpec], list[tuple[_Admission, int]]]] = {}
        order: list[int] = []
        for entry, start, stop in slices:
            key = id(entry.database)
            if key not in groups:
                groups[key] = (entry.database, [], [])
                order.append(key)
            _, merged, routed = groups[key]
            for local in range(start, stop):
                routed.append((entry, local))
                merged.append(entry.specs[local])
        parts: list[EnvelopePart] = []
        routing: list[tuple[_Admission, int]] = []
        for key in order:
            db, merged, routed = groups[key]
            parts.append(EnvelopePart(workload=Workload(tuple(merged)), database=db))
            routing.extend(routed)
        tokens = {
            global_index: entry.token
            for global_index, (entry, _) in enumerate(routing)
        }
        delivered = [False] * len(routing)
        try:
            iterator = self._exchange.submit(
                WorkloadEnvelope(tuple(parts)), cancel=tokens
            )
            try:
                for outcome in iterator:
                    entry, local = routing[outcome.index]
                    delivered[outcome.index] = True
                    self._deliver(entry, replace(outcome, index=local))
            finally:
                close = getattr(iterator, "close", None)
                if close is not None:
                    close()
        except Exception as error:
            reason = f"{type(error).__name__}: {error}"
            for position, (entry, local) in enumerate(routing):
                if not delivered[position]:
                    spec = entry.specs[local]
                    self._deliver(
                        entry,
                        QueryOutcome.unserved(local, spec, ERROR, reason, method=spec.method),
                    )
            # Nothing about later specs can work either: fail the tails too,
            # completing every entry of the round instead of re-queueing.
            for entry, _, _ in slices:
                self._fail_entry(entry, reason)
            return
        # Re-queue entries that still have unserved specs (round share hit):
        # they keep their seq, so extendleft preserves FIFO within the class.
        with self._lock:
            partials = [
                entry
                for entry, _, stop in slices
                if stop < len(entry.specs) and not entry.abandoned
            ]
            for entry in reversed(partials):
                entry.in_round = False
                self._waiting.setdefault(entry.priority, deque()).appendleft(entry)

    def _fail_entry(self, entry: _Admission, reason: str) -> None:
        """Deliver ``"error"`` outcomes for every not-yet-served spec."""
        for outcome in _synthetic_outcomes(entry.specs, ERROR, reason, start=entry.next_offset):
            self._deliver(entry, outcome)
        entry.next_offset = len(entry.specs)

    def _deliver(self, entry: _Admission, outcome: QueryOutcome) -> None:
        """Bridge one outcome from the drain thread into the entry's loop."""
        entry.remaining -= 1
        done = entry.remaining <= 0
        with self._lock:
            if done and entry.in_round:
                # Completed workloads leave ``in_flight`` *before* their last
                # outcome reaches the consumer, so a snapshot taken after
                # draining an iterator never still counts it.
                entry.in_round = False
                self._in_flight = max(0, self._in_flight - 1)
            if entry.abandoned:
                return
            histogram = self._latency.setdefault(outcome.status, LatencyHistogram())
            histogram.record(time.monotonic() - entry.submitted_at)
        try:
            entry.loop.call_soon_threadsafe(entry.queue.put_nowait, outcome)
            if done:
                entry.loop.call_soon_threadsafe(entry.queue.put_nowait, _DONE)
        except RuntimeError:
            # The submitting event loop is gone: nobody can consume this
            # stream anymore, so treat the workload as abandoned and stop
            # spending pool time on its unserved tail.
            entry.abandoned = True
            entry.token.cancel(_ABANDON_REASON)

    # -------------------------------------------------------------------- metrics

    def metrics(self) -> ServerMetrics:
        """Snapshot the runtime (cache + pool + admission + latency) coherently."""
        with self._lock:
            queued = {
                priority: len(queue) for priority, queue in self._waiting.items() if queue
            }
            admission = AdmissionStats(
                queued=queued,
                admitted=dict(self._admitted),
                rejected=dict(self._rejected),
                deadline_expired=self._deadline_expired,
                depth=sum(queued.values()),
                in_flight=self._in_flight,
            )
            latency = {
                status: histogram.as_dict()
                for status, histogram in sorted(self._latency.items())
            }
        return ServerMetrics.roll_up(self._exchange, admission, latency)

    def metrics_endpoint(self, port: int = 0, *, host: str = "127.0.0.1") -> MetricsEndpoint:
        """Serve :meth:`metrics` as JSON over HTTP for ops tooling to scrape.

        ``port=0`` binds a free port (see the returned endpoint's ``url``).
        Endpoints are closed with the server; call the endpoint's ``close``
        to stop one earlier.
        """
        with self._lock:
            if self._closing or self._closed:
                raise ReproError("this AsyncResilienceServer is closed")
            endpoint = MetricsEndpoint(self.metrics, host=host, port=port)
            self._endpoints.append(endpoint)
            return endpoint

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("draining" if self._drain_thread else "idle")
        with self._lock:
            depth = sum(len(queue) for queue in self._waiting.values())
        return (
            f"AsyncResilienceServer({self._exchange!r}, {state}, depth={depth}, "
            f"bound={self._max_queue_depth})"
        )
