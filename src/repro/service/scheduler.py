"""Workload scheduling: plan first, run cheap flow queries before exact.

Planning a workload resolves every query through the session
:class:`~repro.service.cache.LanguageCache` to its
:class:`~repro.resilience.engine.QueryPlan` (one parse + one plan per
*distinct* query class) and orders execution so that all flow-tractable
queries run before any exact fallback.  Exact queries have unbounded
worst-case cost, so flow-first guarantees a pathological exact
query can never head-block the polynomial ones: every tractable query is
dispatched (and, serially, answered) before the first potentially-exponential
search starts.  The trade-off is makespan under a pool — a longest-job-first
order could overlap the exact stragglers with the flow batch — but predictable
latency for the tractable majority is the serving priority, and streaming
outcomes as they complete (ROADMAP) is what would surface the early answers to
callers.

Queries that fail planning itself (e.g. a malformed regex) become
``"error"`` outcomes immediately and are excluded from execution.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..languages.core import Language
from ..resilience.engine import QueryPlan
from .cache import LanguageCache
from .outcome import ERROR, QueryOutcome
from .workload import QuerySpec, Workload

#: Dispatch methods in scheduling order: cheap flow algorithms first, the
#: (potentially exponential) exact fallback last.
_METHOD_PRIORITY = {
    "trivial-epsilon": 0,
    "local-flow": 1,
    "bcl-flow": 2,
    "one-dangling-flow": 3,
    "exact": 4,
}


def runs_exact_class(method: str) -> bool:
    """Whether a planned method sorts with the (potentially exponential) exact
    fallback.  Unknown methods do too: they fail validation at execution, so
    they belong with the unbounded tail, not the cheap flow prefix.  Single
    source of truth for the scheduler's ordering and the pool's batching split.
    """
    return _METHOD_PRIORITY.get(method, len(_METHOD_PRIORITY)) >= _METHOD_PRIORITY["exact"]


@dataclass(frozen=True)
class ScheduledQuery:
    """One planned query: its workload position, resolved language and plan.

    The ``plan`` is the session cache's shared plan for the query's class, so
    shipping a scheduled query to a worker process ships every query-only
    derivation with it.  A spec that forces a method keeps ``plan=None``: its
    plan is built and validated when it executes, so an inapplicable forced
    method fails as that query's outcome.
    """

    index: int
    spec: QuerySpec
    language: Language
    plan: QueryPlan | None

    @property
    def planned_method(self) -> str:
        """The method the query will run (the forced one, if any)."""
        return self.plan.method if self.plan is not None else self.spec.method


def plan_workload(
    workload: Workload, cache: LanguageCache | None = None
) -> tuple[list[ScheduledQuery], list[QueryOutcome]]:
    """Plan a workload: resolve, classify and order every query.

    Returns the executable queries in scheduling order (flow-tractable first,
    exact last, stable by workload position within each class) plus the
    outcomes of queries that already failed during planning.
    """
    if cache is None:
        cache = LanguageCache()
    scheduled: list[ScheduledQuery] = []
    failed: list[QueryOutcome] = []
    for index, spec in enumerate(workload):
        try:
            language = cache.language(spec.query)
            plan = cache.plan(language) if spec.method is None else None
            # Forced methods are planned at execution; warm the infix-free
            # sublanguage they start from so workers receive it precomputed —
            # except for epsilon languages, whose plan never needs it.
            if plan is None and not language.contains(""):
                language.infix_free()
        except Exception as error:
            failed.append(
                QueryOutcome(
                    index=index,
                    query=spec.display_name(),
                    status=ERROR,
                    method=spec.method,
                    error=f"{type(error).__name__}: {error}",
                )
            )
            continue
        scheduled.append(ScheduledQuery(index, spec, language, plan))
    scheduled.sort(
        key=lambda item: (
            _METHOD_PRIORITY.get(item.planned_method, len(_METHOD_PRIORITY)),
            item.index,
        )
    )
    return scheduled, failed
