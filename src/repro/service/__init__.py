"""Parallel resilience serving with shared language caches.

This package turns the single-query dispatcher of :mod:`repro.resilience` into
a serving subsystem for query fleets:

* **Workload model** (:mod:`~repro.service.workload`): a
  :class:`~repro.service.workload.Workload` is an ordered fleet of
  :class:`~repro.service.workload.QuerySpec` items — query plus optional
  forced method, forced semantics, and per-query ``max_nodes`` /
  ``max_seconds`` budgets for the exact fallback.
* **Session language cache** (:mod:`~repro.service.cache`): duplicate *and
  equivalent* queries resolve to one shared
  :class:`~repro.resilience.engine.QueryPlan` — the canonical layer
  fingerprints every query by its minimal DFA, so ``(ab)*a`` and ``a(ba)*``
  share one infix-free sublanguage, one classification and one artefact; an
  optional :class:`~repro.service.cache.AnalysisStore` persists plans on disk
  across processes (see ``src/repro/service/README.md`` for the full cache
  hierarchy).
* **Scheduler** (:mod:`~repro.service.scheduler`): every query is planned
  first and flow-tractable queries run before exact fallbacks; workers
  receive the plans and do database work only.
* **Serving** (:mod:`~repro.service.serve`, :mod:`~repro.service.server`):
  :func:`~repro.service.serve.resilience_serve` executes one planned workload
  serially or over a process pool and returns structured
  :class:`~repro.service.outcome.QueryOutcome` objects in workload order;
  :class:`~repro.service.server.ResilienceServer` keeps the pool (and the
  workers' database copy) warm across calls and adds
  :meth:`~repro.service.server.ResilienceServer.serve_iter`, which streams
  outcomes as they complete.
* **Exchange layer** (:mod:`~repro.service.exchange`): transport-agnostic
  routing between front-end and nodes.  A
  :class:`~repro.service.exchange.base.WorkloadEnvelope` travels through an
  :class:`~repro.service.exchange.base.Exchange` —
  :class:`~repro.service.exchange.threads.ThreadExchange` (an in-process
  fleet of one or more nodes routed by database fingerprint, with failover)
  or :class:`~repro.service.exchange.http.HttpExchange` (the same fleet over
  stdlib HTTP) — managed by a
  :class:`~repro.service.exchange.manager.NodeManager` (spawn / drain /
  kill / replace).
* **Async front-end** (:mod:`~repro.service.async_server`):
  :class:`~repro.service.async_server.AsyncResilienceServer` multiplexes
  concurrent workloads onto an exchange through an admission queue
  (priority classes, FIFO within class, bounded depth with structured
  ``admission-rejected`` outcomes, end-to-end deadlines with cooperative
  mid-execution cancellation, weighted per-workload round shares) and
  exposes the runtime as a
  :class:`~repro.service.async_server.ServerMetrics` snapshot — scrapeable
  as JSON or Prometheus text via
  :meth:`~repro.service.async_server.AsyncResilienceServer.metrics_endpoint`.

Budget semantics
----------------

Budgets apply to the exact branch-and-bound fallback only — the flow
reductions are polynomial and never consult them.  ``max_nodes`` caps
branch-and-bound nodes and is fully deterministic: the same query, database
and budget either succeed identically or trip at the same node count on every
machine.  ``max_seconds`` is a wall-clock cap checked at every search node; it
is machine-dependent, so use it as an operational guard, not in reproducible
experiments.  A tripped budget never raises out of the serve: it yields an
outcome with ``status == "budget-exceeded"`` carrying ``nodes_explored``,
and the rest of the fleet completes.  Any other per-query failure (malformed
regex, inapplicable forced method, ...) yields ``status == "error"`` with the
exception type and message preserved; genuinely unexpected errors are thereby
never mislabelled as budget overruns.

Parallel equivalence
--------------------

For workloads whose specs use no ``max_seconds`` budget,
``resilience_serve(..., parallel=False)`` and any ``max_workers`` produce
identical outcome lists: both paths run the same per-query function on
deterministic compiled plans and outcomes carry no timing.  The process pool
is an execution strategy, never a semantic.  A ``max_seconds`` budget is the
one escape from this guarantee — it consults the wall clock, so a query near
its deadline may succeed serially yet trip under pool contention (or vice
versa); keep time budgets out of reproducibility pipelines.

Quickstart::

    from repro.service import QuerySpec, Workload, resilience_serve

    workload = Workload.coerce([
        "ax*b",                                 # flow-tractable, default policy
        QuerySpec("aa", max_nodes=10_000),      # exact, node-budgeted
    ])
    outcomes = resilience_serve(workload, database, max_workers=4)
    for outcome in outcomes:
        print(outcome.query, outcome.status, outcome.result)
"""

from .async_server import (
    AdmissionStats,
    AsyncResilienceServer,
    LatencyHistogram,
    MetricsEndpoint,
    ServerMetrics,
)
from .cache import AnalysisStore, CacheStats, LanguageCache, ResultStore, StoreStats
from .cancellation import CancellationToken
from .exchange import (
    CircuitBreaker,
    EnvelopePart,
    Exchange,
    HealthMonitor,
    HttpExchange,
    NodeManager,
    NodeStats,
    RetryPolicy,
    Router,
    ThreadExchange,
    WorkloadEnvelope,
)
from .outcome import ADMISSION_REJECTED, BUDGET_EXCEEDED, ERROR, OK, QueryOutcome
from .scheduler import ScheduledQuery, plan_workload
from .serve import resilience_serve
from .server import PoolStats, ResilienceServer
from .workload import QuerySpec, Workload

__all__ = [
    "ADMISSION_REJECTED",
    "BUDGET_EXCEEDED",
    "ERROR",
    "OK",
    "AdmissionStats",
    "AnalysisStore",
    "AsyncResilienceServer",
    "CacheStats",
    "CancellationToken",
    "CircuitBreaker",
    "EnvelopePart",
    "Exchange",
    "HealthMonitor",
    "HttpExchange",
    "LanguageCache",
    "LatencyHistogram",
    "MetricsEndpoint",
    "NodeManager",
    "NodeStats",
    "PoolStats",
    "RetryPolicy",
    "QueryOutcome",
    "QuerySpec",
    "ResilienceServer",
    "ResultStore",
    "Router",
    "ScheduledQuery",
    "ServerMetrics",
    "StoreStats",
    "ThreadExchange",
    "Workload",
    "WorkloadEnvelope",
    "plan_workload",
    "resilience_serve",
]


def __getattr__(name: str):
    # The warming pass lives in its own module so ``python -m
    # repro.service.warm`` does not re-execute it through this package
    # import; attribute access still resolves for discoverability.
    if name in ("WarmReport", "warm_queries", "warm_trace"):
        from . import warm

        return getattr(warm, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
