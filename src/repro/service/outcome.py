"""Structured per-query outcomes of the resilience serving layer.

The service never lets one pathological query kill a fleet: budget overruns
and per-query errors are captured as data on the :class:`QueryOutcome` instead
of raised mid-serve.  Outcomes deliberately carry no timing information, so a
parallel serve is value-identical to a serial one (the parity the tests pin
down); wall-clock measurements belong to the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..resilience.result import ResilienceResult
from .workload import QuerySpec

#: The query was answered; :attr:`QueryOutcome.result` holds the result.
OK = "ok"
#: The exact fallback exceeded its per-query node or time budget.
BUDGET_EXCEEDED = "budget-exceeded"
#: The query failed (parse error, inapplicable forced method, ...).
ERROR = "error"
#: The async front-end refused the query before execution: its workload was
#: turned away at admission (queue depth over the bound, or a submit deadline
#: that expired while waiting).  Nothing ran — resubmitting later may succeed.
ADMISSION_REJECTED = "admission-rejected"


@dataclass(frozen=True)
class QueryOutcome:
    """The outcome of serving one query of a workload.

    Attributes:
        index: position of the query in the submitted workload (outcomes are
            always returned in workload order, whatever order they ran in).
        query: human-readable query label.
        status: :data:`OK`, :data:`BUDGET_EXCEEDED`, :data:`ERROR` or
            :data:`ADMISSION_REJECTED`.
        method: the algorithm that ran (for :data:`OK`) or was planned when the
            query failed; ``None`` when the query never got past planning.
        result: the resilience result for :data:`OK` outcomes, else ``None``.
        error: ``"ExceptionType: message"`` for non-:data:`OK` outcomes.
        nodes_explored: search nodes expanded before a budget overrun (also
            mirrored from the result's details for exact :data:`OK` outcomes).
    """

    index: int
    query: str
    status: str
    method: str | None = None
    result: ResilienceResult | None = None
    error: str | None = None
    nodes_explored: int | None = None

    @classmethod
    def answered(cls, index: int, spec: QuerySpec, result: ResilienceResult) -> "QueryOutcome":
        """The outcome of a query answered with ``result``, whether it just
        ran or came from a result cache: the cache changes cost, never
        outcomes."""
        return cls(
            index=index,
            query=spec.display_name(),
            status=OK,
            method=result.method,
            result=result,
            nodes_explored=result.details.get("nodes_explored"),
        )

    @classmethod
    def unserved(
        cls,
        index: int,
        spec: QuerySpec,
        status: str,
        error: str,
        *,
        method: str | None,
        nodes_explored: int | None = None,
    ) -> "QueryOutcome":
        """The outcome of a query that produced no result: a planning or
        execution failure, a budget overrun, a skipped cancelled query, or
        a query the serving stack could not run at all."""
        return cls(
            index=index,
            query=spec.display_name(),
            status=status,
            method=method,
            error=error,
            nodes_explored=nodes_explored,
        )

    @property
    def ok(self) -> bool:
        return self.status == OK

    def __repr__(self) -> str:
        value = self.result.value if self.result is not None else None
        return (
            f"QueryOutcome(#{self.index} {self.query!r} {self.status}"
            f" method={self.method!r} value={value})"
        )
