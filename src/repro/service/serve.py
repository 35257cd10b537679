"""Parallel resilience serving: process-pool fan-out over a planned workload.

:func:`resilience_serve` is the one-shot entry point: it spins up a
:class:`~repro.service.server.ResilienceServer` for a single workload and
tears it down again.  Callers serving several workloads against the same
database should hold a server instead — its process pool stays warm across
calls, so only the first serve pays fork and database-warmup cost.

Both execution paths run the exact same per-query function
(:func:`_execute`) on deterministic compiled plans, so serial and parallel
serving produce identical outcomes for any workload without ``max_seconds``
budgets (wall clocks are the one nondeterministic input; see the package
docstring) — the serial mode is the semantics, the pool is purely an
execution strategy.

Each worker process receives the database once (through the pool initializer)
and warms its fact index a single time; individual tasks then only ship the
scheduled query, whose :class:`~repro.resilience.engine.QueryPlan` carries
every query-only derivation, so a worker does database work only.  A plan
unpickled per task needs no interning: its automata compare equal to the
last task's, so the database's compiled-graph cache still hits.
"""

from __future__ import annotations

import time
from collections.abc import Iterable

from ..exceptions import SearchBudgetExceeded
from ..graphdb.database import BagGraphDatabase, GraphDatabase
from ..resilience.engine import execute, plan_query, warm_database
from .cache import LanguageCache
from .cancellation import DEADLINE_STATE, FLAG_LIVE, FLAG_STATES
from .outcome import BUDGET_EXCEEDED, ERROR, OK, QueryOutcome
from .scheduler import ScheduledQuery
from .workload import QueryLike, QuerySpec, Workload

AnyDatabase = GraphDatabase | BagGraphDatabase


def _execute(item: ScheduledQuery, database: AnyDatabase) -> QueryOutcome:
    """Run one scheduled query, converting failures into structured outcomes."""
    spec = item.spec
    try:
        plan = item.plan
        if plan is None:
            plan = plan_query(item.language, method=spec.method, unsafe=spec.unsafe)
        result = execute(
            plan,
            database,
            semantics=spec.semantics,
            exact_max_nodes=spec.max_nodes,
            exact_max_seconds=spec.max_seconds,
            name=item.language.name or "",
        )
    except SearchBudgetExceeded as error:
        return QueryOutcome(
            index=item.index,
            query=spec.display_name(),
            status=BUDGET_EXCEEDED,
            method=item.planned_method,
            error=f"{type(error).__name__}: {error}",
            nodes_explored=error.nodes_explored,
        )
    except Exception as error:
        return QueryOutcome(
            index=item.index,
            query=spec.display_name(),
            status=ERROR,
            method=item.planned_method,
            error=f"{type(error).__name__}: {error}",
        )
    return QueryOutcome(
        index=item.index,
        query=spec.display_name(),
        status=OK,
        method=result.method,
        result=result,
        nodes_explored=result.details.get("nodes_explored"),
    )


def cancelled_outcome(item: ScheduledQuery, status: str, reason: str) -> QueryOutcome:
    """The structured outcome of a query skipped by a tripped cancel token."""
    return QueryOutcome(
        index=item.index,
        query=item.spec.display_name(),
        status=status,
        method=item.planned_method,
        error=reason,
    )


# ---------------------------------------------------------------------- workers

_WORKER_DATABASE: AnyDatabase | None = None
_WORKER_CANCEL_FLAGS = None


# repro: allow[dead-symbol] -- worker-protocol entry point: imported by
# service.server (and the exchange nodes) to initialize their warm pools
def _worker_init(database: AnyDatabase, cancel_flags=None) -> None:
    global _WORKER_DATABASE, _WORKER_CANCEL_FLAGS
    _WORKER_DATABASE = database
    _WORKER_CANCEL_FLAGS = cancel_flags
    warm_database(database)


def _worker_run(item: ScheduledQuery) -> QueryOutcome:
    assert _WORKER_DATABASE is not None, "worker used before initialization"
    return _execute(item, _WORKER_DATABASE)


def _worker_cancel_state(entry: tuple[int | None, float | None], now: float):
    """Decode one control entry into a fired ``(status, reason)`` or ``None``.

    ``entry`` is ``(flag_slot, deadline_at)``: the slot indexes the shared
    cancel-flag array inherited at pool fork (``None`` when unbound or on
    non-fork platforms); the deadline is a parent ``time.monotonic()`` instant,
    comparable here because ``CLOCK_MONOTONIC`` is system-wide on Linux.
    """
    slot, deadline_at = entry
    if slot is not None and _WORKER_CANCEL_FLAGS is not None:
        code = _WORKER_CANCEL_FLAGS[slot]
        if code != FLAG_LIVE:
            return FLAG_STATES.get(code, FLAG_STATES[1])
    if deadline_at is not None and now > deadline_at:
        return DEADLINE_STATE
    return None


# repro: allow[dead-symbol] -- worker-protocol entry point: imported by
# service.server as the chunk task its pools execute
def _worker_run_many(
    items: list[ScheduledQuery],
    control: dict[int, tuple[int | None, float | None]] | None = None,
) -> list[QueryOutcome]:
    """Run a chunk of scheduled queries in one IPC round-trip.

    ``control`` (workload index -> cancel-control entry) makes the chunk loop
    a cancellation check point: the token state is re-read *between queries*,
    so a workload cancelled or expired while its chunk is already on a worker
    stops mid-chunk, finishing the tail as structured skipped outcomes.
    """
    if not control:
        return [_worker_run(item) for item in items]
    outcomes = []
    for item in items:
        entry = control.get(item.index)
        state = _worker_cancel_state(entry, time.monotonic()) if entry else None
        if state is not None:
            outcomes.append(cancelled_outcome(item, *state))
        else:
            outcomes.append(_worker_run(item))
    return outcomes


# ------------------------------------------------------------------ entry point

def resilience_serve(
    workload: Workload | Iterable[QuerySpec | QueryLike],
    database: AnyDatabase,
    *,
    max_workers: int | None = None,
    parallel: bool = True,
    cache: LanguageCache | None = None,
) -> list[QueryOutcome]:
    """Serve a resilience workload against one database, optionally in parallel.

    Args:
        workload: a :class:`Workload`, or any iterable mixing
            :class:`QuerySpec` items and bare queries (strings, languages,
            RPQs).
        database: the shared set or bag database.
        max_workers: process-pool width; defaults to ``os.cpu_count()``.  A
            width of 1 runs serially (a single-worker pool would only add IPC
            overhead for identical results).
        parallel: ``False`` forces the serial in-process path; its outcomes
            are identical to the parallel path's by construction (same
            per-query function, deterministic compiled plans, outcomes carry
            no timing) for every workload without ``max_seconds`` budgets —
            time budgets consult the wall clock and may trip differently under
            pool contention.
        cache: optional session :class:`LanguageCache` to share planning work
            across multiple serve calls; ``LanguageCache(store=...)``
            persists query plans across processes.

    Returns:
        one :class:`QueryOutcome` per workload entry, in workload order.
        Failures never abort the fleet: budget overruns of the exact fallback
        surface as ``"budget-exceeded"`` outcomes and any other per-query
        error as an ``"error"`` outcome.
    """
    from .server import ResilienceServer

    with ResilienceServer(
        database,
        max_workers=max_workers,
        parallel=parallel,
        cache=cache,
    ) as server:
        return server.serve(workload)
