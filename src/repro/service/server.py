"""A persistent serving runtime: warm worker pool + streamed outcomes.

:class:`ResilienceServer` owns one database and (lazily) one
:class:`~concurrent.futures.ProcessPoolExecutor`.  The pool outlives
individual :meth:`serve` calls: the database is shipped to each worker exactly
once — through the pool initializer, when the pool is created — and every
subsequent workload reuses the already-forked, already-warmed workers.  This
amortizes the dominant fixed costs of :func:`~repro.service.serve.resilience_serve`
(fork + database pickle + index warm-up) across a session.

Two consumption styles:

* :meth:`serve` returns the full outcome list in workload order — identical
  to :func:`~repro.service.serve.resilience_serve` for the same inputs;
* :meth:`serve_iter` yields each :class:`~repro.service.outcome.QueryOutcome`
  as it completes (planning failures first, then execution results in
  completion order), so callers see flow-tractable answers while exact
  stragglers are still searching.  Re-sorting the streamed outcomes by
  ``index`` reproduces :meth:`serve` exactly — pinned by the conformance
  suite.

Fault tolerance: a worker process dying (OOM kill, hard crash) breaks a
:class:`ProcessPoolExecutor` permanently.  The server discards the broken
pool, transparently re-runs each affected chunk once on a fresh pool, and
only reports ``"error"`` outcomes for queries that fail a second time — a
single crash usually costs latency, not answers, and never the server.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Iterable, Iterator, Mapping
from concurrent.futures import FIRST_COMPLETED, CancelledError, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from ..exceptions import ReproError
from ..graphdb.database import BagGraphDatabase, GraphDatabase
from ..metrics import PoolStats
from ..resilience.engine import warm_database
from .cache import LanguageCache
from .cancellation import CancellationToken, make_cancel_flags
from .outcome import ERROR, OK, QueryOutcome
from .scheduler import ScheduledQuery, plan_workload, runs_exact_class
from .serve import _execute, _worker_init, _worker_run_many, cancelled_outcome
from .workload import QueryLike, QuerySpec, Workload

AnyDatabase = GraphDatabase | BagGraphDatabase

#: Width of the shared cancel-flag array each server allocates: the number of
#: distinct workload tokens one serve call can bind for worker-side checks.
#: Tokens beyond it (or on non-fork platforms) still get parent-side and
#: deadline checks — binding is an optimization, never a correctness need.
CANCEL_SLOTS = 128

#: ``cancel=`` argument shape of every serving layer: workload (or envelope)
#: index -> the token covering that query.
CancelArg = Mapping[int, CancellationToken] | None

#: How long :meth:`ResilienceServer._stream` waits on in-flight futures
#: before re-poking the pool's management thread (see :func:`_nudge_pool`).
WAKEUP_NUDGE_SECONDS = 0.25


def _nudge_pool(pool: ProcessPoolExecutor | None) -> None:
    """Poke a pool's management thread awake (CPython < 3.12 lost wakeup).

    Before 3.12 (python/cpython#105829), ``_ThreadWakeup.wakeup`` and
    ``clear`` race: the management thread can drain the wake byte of a
    submit it has not yet seen, then block in select with the work item
    still sitting in ``_pending_work_items`` — a permanent hang unless a
    later submit or result arrives, which the last chunk of a round never
    gets.  Re-writing one byte into the (private, hence the defensive
    ``except``) wakeup pipe makes the management thread re-run its
    pending-work scan; sent under ``_shutdown_lock`` exactly like
    ``submit`` does, and harmless when the race never happened.

    The nudge stays on for every Python version.  On an interpreter with
    the fix it costs one extra pending-work scan, and only after
    :data:`WAKEUP_NUDGE_SECONDS` without progress; a version gate that named
    the first fixed release wrongly (fixes are backported to maintenance
    branches) would leave a stalled stream with no way to recover.
    """
    if pool is None:
        return
    try:
        wakeup = pool._executor_manager_thread_wakeup
        with pool._shutdown_lock:
            if not pool._broken and not wakeup._closed:
                wakeup.wakeup()
    except (AttributeError, OSError, RuntimeError):  # pragma: no cover
        pass  # internals moved or the pool is tearing down: nothing to nudge


class ResilienceServer:
    """Serve resilience workloads against one database with a warm worker pool.

    Args:
        database: the set or bag database every workload runs against.  One
            server, one database: the workers' copy is shipped once and kept
            warm, so serving a different database requires a different server
            (:meth:`serve` raises on a mismatched explicit ``database=``).
        max_workers: pool width cap; defaults to ``os.cpu_count()``.  The pool
            is created on the first parallel call, sized to
            ``min(max_workers, that call's query count)``.  ``1`` pins the
            server to the serial in-process path (identical outcomes, no
            pool) — the reference configuration of differential tests.
        cache: optional session :class:`LanguageCache` (a fresh canonical
            cache by default).  The cache lives in the *parent* process:
            planning dedupes equal and equivalent queries before anything is
            shipped to a worker.  Build it with ``LanguageCache(store=...)``
            to persist analyses across processes.

    Use as a context manager (or call :meth:`close`) to release the pool.
    """

    def __init__(
        self,
        database: AnyDatabase,
        *,
        max_workers: int | None = None,
        cache: LanguageCache | None = None,
    ) -> None:
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1 (got {max_workers})")
        self._database = database
        self._max_workers = max_workers
        self._cache = cache if cache is not None else LanguageCache()
        self._pool: ProcessPoolExecutor | None = None
        self._pool_width = 0
        self._closed = False
        # One hold for the owner (a node's map), one per leased stream.
        self._holds = 1
        # Orders close() against a stream forking a pool on another thread
        # (a node kill closes servers while their streams run).  Reentrant:
        # _ensure_pool discards a stale pool while holding it.
        self._pool_lock = threading.RLock()
        self._pools_created = 0
        self._chunks_dispatched = 0
        self._chunks_retried = 0
        self._crashes = 0
        # Shared cancel-flag bytes, inherited by workers at pool fork (fork
        # start method only — ``None`` elsewhere).  Allocated up front so
        # every pool this server ever forks shares the same mapping.
        self._cancel_flags = make_cancel_flags(CANCEL_SLOTS)
        self._free_slots = list(range(CANCEL_SLOTS - 1, -1, -1))

    # ------------------------------------------------------------------ accessors

    @property
    def database(self) -> AnyDatabase:
        return self._database

    @property
    def cache(self) -> LanguageCache:
        """The session language cache shared by every call on this server."""
        return self._cache

    def worker_pids(self) -> frozenset[int]:
        """PIDs of the live pool workers (empty before the first parallel call).

        Diagnostic surface for tests and operators: unchanged PIDs across
        :meth:`serve` calls prove the pool stayed warm (no re-fork).
        """
        if self._pool is None:
            return frozenset()
        return frozenset(self._pool._processes or ())

    def pool_stats(self) -> PoolStats:
        """Snapshot the pool's lifetime activity counters (see :class:`PoolStats`)."""
        return PoolStats(
            pools_created=self._pools_created,
            pool_width=self._pool_width,
            worker_pids=tuple(sorted(self.worker_pids())),
            chunks_dispatched=self._chunks_dispatched,
            chunks_retried=self._chunks_retried,
            crashes=self._crashes,
        )

    # ------------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Shut down the worker pool (idempotent); the server refuses further calls."""
        # Closed before the pool goes: a stream that forks after this point
        # raises instead of leaving a pool nothing would shut down.
        with self._pool_lock:
            self._closed = True
        self._discard_pool(wait=True)

    def lease(self) -> bool:
        """Hold the server open for one stream; ``False`` once it closed."""
        with self._pool_lock:
            if self._closed or not self._holds:
                return False
            self._holds += 1
            return True

    def release(self) -> None:
        """Drop a stream's hold, or the owner's (a node evicting the server);
        the last hold dropped closes it, so an eviction fails no stream."""
        with self._pool_lock:
            self._holds -= 1
            idle = not self._holds
        if idle:
            self.close()

    def __enter__(self) -> "ResilienceServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _discard_pool(self, *, wait: bool) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._pool_width = 0
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=True)

    def _ensure_pool(self, task_count: int) -> ProcessPoolExecutor:
        """Return the warm pool, creating (or replacing) one on demand.

        The pool is replaced when it is known-broken (best-effort check here;
        a broken pool that slips through is caught by the submit-time retry in
        :meth:`_stream`) and when a larger workload arrives than the pool was
        sized for — growth re-forks once, but a small warm-up call must not
        cap throughput for the rest of the session.  The pool never shrinks.

        Raises :class:`~repro.exceptions.ReproError` on a closed server: a
        generator resumed after :meth:`close`, or a stream racing a
        :meth:`close` on another thread (a node kill), must never fork a pool
        nothing would shut down.  The ``_closed`` guards in :meth:`_stream`
        cover the first case; the pool lock makes the check and the fork one
        step for the second, whose exception the exchange turns into a
        re-route.
        """
        with self._pool_lock:
            if self._closed:
                raise ReproError("this ResilienceServer is closed")
            width = max(1, min(self._max_workers, task_count))
            if self._pool is not None and (
                getattr(self._pool, "_broken", False) or self._pool_width < width
            ):
                self._discard_pool(wait=False)
            if self._pool is None:
                self._pool_width = width
                self._pools_created += 1
                self._pool = ProcessPoolExecutor(
                    max_workers=width,
                    initializer=_worker_init,
                    initargs=(self._database, self._cancel_flags),
                )
            return self._pool

    def _check_serveable(self, database: AnyDatabase | None) -> None:
        if self._closed:
            raise ReproError("this ResilienceServer is closed")
        if database is None or database is self._database:
            return
        if database.content_fingerprint() != self._database.content_fingerprint():
            raise ReproError(
                "this ResilienceServer's warm workers hold a different database; "
                "create a new server to serve another database"
            )

    # ------------------------------------------------------------------ serving

    def serve(
        self,
        workload: Workload | Iterable[QuerySpec | QueryLike],
        *,
        database: AnyDatabase | None = None,
        cancel: CancelArg = None,
    ) -> list[QueryOutcome]:
        """Serve one workload; outcomes in workload order.

        Outcome-identical to :func:`~repro.service.serve.resilience_serve`
        with the same arguments — the warm pool changes cost, never results.
        ``database`` is an optional cross-check: serving is always against the
        server's own database, and a different one raises instead of silently
        answering from the warm copy.
        """
        outcomes = list(self.serve_iter(workload, database=database, cancel=cancel))
        outcomes.sort(key=lambda outcome: outcome.index)
        return outcomes

    def serve_iter(
        self,
        workload: Workload | Iterable[QuerySpec | QueryLike],
        *,
        database: AnyDatabase | None = None,
        cancel: CancelArg = None,
    ) -> Iterator[QueryOutcome]:
        """Yield outcomes as they complete (planning failures first).

        The multiset of yielded outcomes is exactly :meth:`serve`'s list;
        only the order differs, and only on the parallel path (serially,
        execution order is the scheduler's flow-first order).  Flow-tractable
        queries are batched several to a task, so their outcomes stream at
        chunk granularity; exact queries stream one by one.

        ``cancel`` threads cooperative cancellation through execution: a
        mapping of workload index to
        :class:`~repro.service.cancellation.CancellationToken` (the merged
        async round keeps a token per admission).  A tripped token's
        not-yet-executed queries — including the tail of a chunk already on a
        worker — surface as structured skipped outcomes instead of running;
        already-completed outcomes of the call are unaffected, so the
        one-outcome-per-query contract survives cancellation.
        """
        self._check_serveable(database)
        fleet = Workload.coerce(workload)
        scheduled, failed = plan_workload(fleet, self._cache)
        failed.sort(key=lambda outcome: outcome.index)
        # Result-level cache: queries whose (class, database, semantics,
        # method) tuple was answered by an earlier serve on this session's
        # cache replay the memoized result without touching the pool.  The
        # lookup happens here — at planning time, before anything executes —
        # so a query never observes results produced later in its own call,
        # keeping serial and parallel serving outcome-identical.
        hits: list[tuple[ScheduledQuery, QueryOutcome]] = []
        to_run: list[ScheduledQuery] = []
        for item in scheduled:
            cached = self._cache.lookup_result(
                item.language,
                self._database,
                semantics=item.spec.semantics,
                method=item.spec.method,
                unsafe=item.spec.unsafe,
                max_nodes=item.spec.max_nodes,
                max_seconds=item.spec.max_seconds,
            )
            if cached is None:
                to_run.append(item)
            else:
                hits.append((item, QueryOutcome.answered(item.index, item.spec, cached)))
        return self._stream(to_run, failed, hits, cancel)

    def _tokens_for(
        self, scheduled: list[ScheduledQuery], cancel: CancelArg
    ) -> dict[int, CancellationToken]:
        """Map each scheduled item's workload index to its cancel token."""
        if not cancel:
            return {}
        return {
            item.index: token
            for item in scheduled
            if (token := cancel.get(item.index)) is not None
        }

    def _stream(
        self,
        scheduled: list[ScheduledQuery],
        failed: list[QueryOutcome],
        hits: list[tuple[ScheduledQuery, QueryOutcome]],
        cancel: CancelArg = None,
    ) -> Iterator[QueryOutcome]:
        yield from failed
        # A result-cache hit answers only while its token has not fired, as
        # an executed query would: cache temperature never changes outcomes.
        for item, outcome in hits:
            token = cancel.get(item.index) if cancel else None
            state = token.state() if token is not None else None
            yield outcome if state is None else cancelled_outcome(item, *state)
        if not scheduled:
            return
        tokens = self._tokens_for(scheduled, cancel)
        if self._max_workers == 1 or len(scheduled) == 1:
            warm_database(self._database)
            for item in scheduled:
                token = tokens.get(item.index)
                state = token.state() if token is not None else None
                if state is not None:
                    yield cancelled_outcome(item, *state)
                    continue
                outcome = _execute(item, self._database)
                self._record_outcome(item, outcome)
                yield outcome
            return

        if self._closed:
            # The generator was resumed after close(): never fork a new pool
            # on a closed server, fail the remaining work structurally.
            yield from self._crash_outcomes(
                scheduled, "PoolShutDown: server closed before execution"
            )
            return
        self._ensure_pool(len(scheduled))
        # Bind each distinct token to a shared flag byte so the in-flight
        # chunk loop on the workers sees explicit cancellations; the control
        # map ships (slot, deadline) per query with every chunk.
        control, bound_tokens = self._bind_tokens(tokens)
        # Batch the cheap flow queries so they don't pay one IPC round-trip
        # (plus a Language pickle) each, but hand the potentially exponential
        # exact queries out one at a time — chunking them would pack the tail
        # of the schedule onto one or two workers.
        flow_items = [item for item in scheduled if not runs_exact_class(item.planned_method)]
        exact_items = [item for item in scheduled if runs_exact_class(item.planned_method)]
        chunksize = max(1, len(flow_items) // (self._pool_width * 4))
        tasks = [
            flow_items[start : start + chunksize]
            for start in range(0, len(flow_items), chunksize)
        ] + [[item] for item in exact_items]

        # Each future remembers the pool it was submitted to (when a worker
        # crash breaks a pool mid-stream, only that pool is discarded — a
        # replacement pool created by a retry must survive) and its attempt
        # number: a chunk that fell victim to a crash is retried once on a
        # fresh pool before its queries are failed structurally, so a single
        # worker death usually costs latency, not answers.
        pending: dict[Future, tuple[list[ScheduledQuery], ProcessPoolExecutor, int]] = {}

        def dispatch(chunk: list[ScheduledQuery], attempt: int) -> Future | None:
            future = self._submit(chunk, len(scheduled), control)
            if future is not None:
                pending[future] = (chunk, self._pool, attempt)
            return future

        def retry_or_fail(
            chunk: list[ScheduledQuery], attempt: int, reason: str
        ) -> Iterator[QueryOutcome]:
            if not self._closed and attempt < 1 and dispatch(chunk, attempt + 1) is not None:
                self._chunks_retried += 1
                return iter(())  # resubmitted on the replacement pool
            return self._crash_outcomes(chunk, reason)

        try:
            for chunk in tasks:
                if tokens:
                    # Dispatch-time check point: a token tripped after
                    # planning stops its queries from ever reaching the pool.
                    live: list[ScheduledQuery] = []
                    now = time.monotonic()
                    for item in chunk:
                        token = tokens.get(item.index)
                        state = token.state(now) if token is not None else None
                        if state is not None:
                            yield cancelled_outcome(item, *state)
                        else:
                            live.append(item)
                    if not live:
                        continue
                    chunk = live
                if self._closed:
                    # The generator was resumed after close(): never fork a
                    # new pool on a closed server, fail the work structurally.
                    yield from self._crash_outcomes(
                        chunk, "PoolShutDown: server closed before execution"
                    )
                elif dispatch(chunk, 0) is None:
                    # The pool broke twice in a row (fresh replacement
                    # included); fail the chunk's queries structurally.
                    yield from self._crash_outcomes(
                        chunk, "BrokenProcessPool: worker pool broke before execution"
                    )
            while pending:
                # Futures whose pool was discarded under us (close() between
                # resumptions of this generator, or a crash replacement) may
                # never complete — and the ones shutdown() cancelled linger in
                # CANCELLED state without the notification wait() blocks on
                # (only the executor's own machinery promotes a future to
                # CANCELLED_AND_NOTIFIED).  Retry or fail them structurally
                # instead of blocking in wait() forever.
                orphaned = [
                    future
                    for future, (_, pool, _) in pending.items()
                    if pool is not self._pool and (future.cancelled() or not future.done())
                ]
                for future in orphaned:
                    chunk, _, attempt = pending.pop(future)
                    future.cancel()
                    yield from retry_or_fail(
                        chunk, attempt, "PoolShutDown: worker pool was shut down mid-stream"
                    )
                if not pending:
                    break
                done, _ = wait(
                    pending, timeout=WAKEUP_NUDGE_SECONDS, return_when=FIRST_COMPLETED
                )
                if not done:
                    # Nothing finished within the nudge window: either the
                    # chunks are genuinely slow (the nudge is a no-op then)
                    # or the management thread missed a wakeup and the work
                    # never reached the call queue.  The orphan sweep above
                    # guarantees every pending future belongs to the live
                    # pool, so that is the one to poke.
                    _nudge_pool(self._pool)
                    continue
                for future in done:
                    chunk, pool, attempt = pending.pop(future)
                    try:
                        outcomes = future.result()
                        self._record_chunk(chunk, outcomes)
                        yield from outcomes
                    except BrokenProcessPool:
                        self._crashes += 1
                        if self._pool is pool:
                            self._discard_pool(wait=False)
                        yield from retry_or_fail(
                            chunk, attempt, "BrokenProcessPool: worker process died mid-query"
                        )
                    except CancelledError:
                        yield from retry_or_fail(
                            chunk, attempt, "PoolShutDown: task cancelled by pool shutdown"
                        )
                    except Exception as error:  # pragma: no cover - defensive
                        yield from self._crash_outcomes(chunk, f"{type(error).__name__}: {error}")
        finally:
            # Reached on exhaustion, on an abandoned generator (GeneratorExit)
            # and on errors alike: never leave orphaned tasks burning workers.
            for future in pending:
                future.cancel()
            self._unbind_tokens(bound_tokens)

    def _bind_tokens(
        self, tokens: dict[int, CancellationToken]
    ) -> tuple[dict[int, tuple[int | None, float | None]], list[tuple[CancellationToken, int]]]:
        """Bind distinct tokens to flag slots; build the per-query control map.

        Returns ``(control, bound)`` where ``control`` maps workload index to
        ``(slot, deadline_at)`` for every query that needs a worker-side check
        and ``bound`` records the slot leases to release afterwards.  Slot
        exhaustion (or a missing flag array) degrades gracefully: those tokens
        keep parent-side checks and any deadline still ships with the chunk.
        """
        control: dict[int, tuple[int | None, float | None]] = {}
        bound: list[tuple[CancellationToken, int]] = []
        if not tokens:
            return control, bound
        slots_by_token: dict[int, int | None] = {}
        for index, token in tokens.items():
            key = id(token)
            if key not in slots_by_token:
                slot: int | None = None
                if self._cancel_flags is not None and self._free_slots:
                    slot = self._free_slots.pop()
                    token.bind_flag(self._cancel_flags, slot)
                    bound.append((token, slot))
                slots_by_token[key] = slot
            control[index] = (slots_by_token[key], token.deadline_at)
        return control, bound

    def _unbind_tokens(self, bound: list[tuple[CancellationToken, int]]) -> None:
        for token, slot in bound:
            token.unbind_flag()
            if self._cancel_flags is not None:
                self._cancel_flags[slot] = 0
            self._free_slots.append(slot)

    def _submit(
        self,
        chunk: list[ScheduledQuery],
        task_count: int,
        control: dict[int, tuple[int | None, float | None]] | None = None,
    ) -> Future | None:
        """Submit one task, replacing the pool and retrying once if it broke.

        A worker crash breaks a :class:`ProcessPoolExecutor` permanently and
        is only reliably observable at submit time (the ``_broken`` check in
        :meth:`_ensure_pool` is a best-effort fast path over a private flag).
        Returns ``None`` only if even a freshly created pool cannot accept
        work.
        """
        chunk_control = None
        if control:
            chunk_control = {
                item.index: control[item.index] for item in chunk if item.index in control
            } or None
        for _ in range(2):
            pool = self._ensure_pool(task_count)
            try:
                future = pool.submit(_worker_run_many, chunk, chunk_control)
            except (BrokenProcessPool, RuntimeError) as error:
                if isinstance(error, BrokenProcessPool):
                    self._crashes += 1
                self._discard_pool(wait=False)
            else:
                self._chunks_dispatched += 1
                return future
        return None

    def _record_outcome(self, item: ScheduledQuery, outcome: QueryOutcome) -> None:
        """Feed a completed outcome into the session's result-level cache.

        Successful results are memoized; error and budget-exceeded outcomes
        are counted as ``result_uncacheable`` instead, so the cacheable hit
        rate stays honest under error-heavy traffic.
        """
        if outcome.status == OK and outcome.result is not None:
            self._cache.store_result(
                item.language,
                self._database,
                outcome.result,
                semantics=item.spec.semantics,
                method=item.spec.method,
                unsafe=item.spec.unsafe,
            )
        else:
            self._cache.note_uncacheable_result()

    def _record_chunk(
        self, chunk: list[ScheduledQuery], outcomes: list[QueryOutcome]
    ) -> None:
        by_index = {item.index: item for item in chunk}
        for outcome in outcomes:
            item = by_index.get(outcome.index)
            if item is not None:
                self._record_outcome(item, outcome)

    @staticmethod
    def _crash_outcomes(chunk: list[ScheduledQuery], error: str) -> Iterator[QueryOutcome]:
        for item in chunk:
            yield QueryOutcome.unserved(
                item.index, item.spec, ERROR, error, method=item.planned_method
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("warm" if self._pool is not None else "cold")
        return (
            f"ResilienceServer({self._database!r}, max_workers={self._max_workers}, "
            f"{state}, db={self._database.content_fingerprint()[:12]})"
        )
