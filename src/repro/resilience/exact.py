"""Exact resilience by branch-and-bound over witness walks.

This is the ground-truth baseline used throughout the test suite and the
benchmarks: it is correct for *every* language (the NP upper bound of Section 2)
but takes exponential time in the worst case.  The algorithm repeatedly finds a
shortest witnessing walk in the remaining database and branches on which of its
facts to remove, pruning with the best solution found so far.

The production implementation (:func:`resilience_exact`) is a *copy-free
overlay search*: the query automaton is compiled once
(:class:`~repro.languages.automata.CompiledAutomaton`), the database is indexed
once (:class:`~repro.graphdb.index.DatabaseIndex`), and each branch-and-bound
node is represented by a mutable removed-fact mask over the shared index
instead of a freshly materialized sub-database.  The branching rule is
unchanged from the seed implementation, and walk selection is deterministic, so
the search explores exactly the same tree (same values, same ``nodes_explored``)
as the materializing reference implementation
:func:`resilience_exact_reference`, which is retained for benchmarking and
cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

from ..exceptions import SearchBudgetExceeded
from ..graphdb.database import BagGraphDatabase, Fact, GraphDatabase, as_set
from ..languages.automata import compile_automaton
from ..languages.core import Language
from ..rpq.evaluation import find_l_walk, find_l_walk_ids
from .result import INFINITE, ResilienceResult


@dataclass
class _SearchState:
    best_value: float
    best_set: frozenset[Fact] | None
    nodes_explored: int = 0


def resilience_exact(
    language: Language,
    database: GraphDatabase | BagGraphDatabase,
    *,
    semantics: str | None = None,
    max_nodes: int | None = None,
    max_seconds: float | None = None,
) -> ResilienceResult:
    """Compute the exact resilience of ``Q_L`` on a database.

    Args:
        language: the query language ``L``.
        database: a set or bag database.  The search reads fact ids and
            multiplicities off the database's one index, where a set
            database's facts have multiplicity 1, so the returned value is
            the set-semantics resilience for it.
        semantics: force ``"set"`` or ``"bag"`` reporting; the database's
            ``semantics`` when omitted.
        max_nodes: optional cap on the number of branch-and-bound nodes; the
            search raises :class:`~repro.exceptions.SearchBudgetExceeded` if
            exceeded (protection for callers that use the exact baseline on
            large instances by mistake).
        max_seconds: optional wall-clock budget for the search, enforced at
            every branch-and-bound node; raises
            :class:`~repro.exceptions.SearchBudgetExceeded` when exceeded.
            Unlike ``max_nodes``, a time budget is machine-dependent, so it
            makes results reproducible only in the success case.
    """
    if semantics is None:
        semantics = database.semantics

    if language.contains(""):
        return ResilienceResult(INFINITE, None, semantics, "exact", language.name or "")

    plan = compile_automaton(language.automaton)
    index = database.index()
    multiplicity = index.multiplicities

    num_facts = len(index.facts)
    removed = bytearray(num_facts)
    forbidden = bytearray(num_facts)
    removal_stack: list[int] = []

    state = _SearchState(best_value=math.inf, best_set=None)
    # repro: allow[det-wallclock] -- max_seconds is an explicit wall-clock
    # budget in the public API; it aborts the search, never shapes a result
    deadline = None if max_seconds is None else perf_counter() + max_seconds

    def branch(cost: float) -> None:
        state.nodes_explored += 1
        if max_nodes is not None and state.nodes_explored > max_nodes:
            raise SearchBudgetExceeded(
                f"exact resilience exceeded {max_nodes} search nodes",
                nodes_explored=state.nodes_explored,
                max_nodes=max_nodes,
            )
        if deadline is not None and perf_counter() > deadline:  # repro: allow[det-wallclock] -- explicit max_seconds budget check
            raise SearchBudgetExceeded(
                f"exact resilience exceeded its {max_seconds:g}s time budget",
                nodes_explored=state.nodes_explored,
                max_seconds=max_seconds,
            )
        if cost >= state.best_value:
            return
        walk = find_l_walk_ids(plan, index, removed)
        if walk is None:
            state.best_value = cost
            state.best_set = frozenset(index.facts[fact_id] for fact_id in removal_stack)
            return
        # Branch on the distinct facts of the witness walk, cheapest first.  The
        # i-th branch additionally forbids removing the facts of the earlier
        # branches (a standard hitting-set decomposition of the solution space);
        # a witness made entirely of forbidden facts can never be hit, so the
        # branch is pruned.  Fact ids are assigned in repr order, so sorting by
        # (multiplicity, id) matches the reference's (multiplicity, repr) order.
        branch_ids = sorted(set(walk), key=lambda fact_id: (multiplicity[fact_id], fact_id))
        if all(forbidden[fact_id] for fact_id in branch_ids):
            return
        locally_forbidden: list[int] = []
        for fact_id in branch_ids:
            if forbidden[fact_id]:
                continue
            removed[fact_id] = 1
            removal_stack.append(fact_id)
            branch(cost + multiplicity[fact_id])
            removal_stack.pop()
            removed[fact_id] = 0
            forbidden[fact_id] = 1
            locally_forbidden.append(fact_id)
        for fact_id in locally_forbidden:
            forbidden[fact_id] = 0

    branch(0.0)

    value = state.best_value
    if value == math.inf:  # pragma: no cover - only when epsilon in L, handled above
        return ResilienceResult(INFINITE, None, semantics, "exact", language.name or "")
    return ResilienceResult(
        float(int(value)) if float(value).is_integer() else value,
        state.best_set,
        semantics,
        "exact",
        language.name or "",
        details={"nodes_explored": state.nodes_explored},
    )


def resilience_exact_reference(
    language: Language,
    database: GraphDatabase | BagGraphDatabase,
    *,
    semantics: str | None = None,
    max_nodes: int | None = None,
) -> ResilienceResult:
    """The seed branch-and-bound implementation, kept as a reference baseline.

    This variant materializes a fresh :class:`GraphDatabase` at every
    branch-and-bound node (``current.remove([fact])``) and re-evaluates the
    query on it.  It explores exactly the same search tree as
    :func:`resilience_exact` — the ablation benchmark and the regression tests
    assert identical values *and* identical ``nodes_explored`` — but pays a
    full copy and re-index per node, which is what the overlay search removes.
    """
    if semantics is None:
        semantics = database.semantics

    if language.contains(""):
        return ResilienceResult(INFINITE, None, semantics, "exact-reference", language.name or "")

    automaton = language.automaton
    index = database.index()
    multiplicities = dict(zip(index.facts, index.multiplicities))

    state = _SearchState(best_value=math.inf, best_set=None)

    def branch(
        current: GraphDatabase, removed: frozenset[Fact], cost: float, forbidden: frozenset[Fact]
    ) -> None:
        state.nodes_explored += 1
        if max_nodes is not None and state.nodes_explored > max_nodes:
            raise SearchBudgetExceeded(
                f"exact resilience exceeded {max_nodes} search nodes",
                nodes_explored=state.nodes_explored,
                max_nodes=max_nodes,
            )
        if cost >= state.best_value:
            return
        walk = find_l_walk(automaton, current)
        if walk is None:
            state.best_value = cost
            state.best_set = removed
            return
        facts = sorted(set(walk), key=lambda fact: (multiplicities[fact], repr(fact)))
        if all(fact in forbidden for fact in facts):
            return
        newly_forbidden: set[Fact] = set()
        for fact in facts:
            if fact in forbidden:
                newly_forbidden.add(fact)
                continue
            branch(
                current.remove([fact]),
                removed | {fact},
                cost + multiplicities[fact],
                forbidden | newly_forbidden,
            )
            newly_forbidden.add(fact)

    branch(as_set(database), frozenset(), 0.0, frozenset())

    value = state.best_value
    if value == math.inf:  # pragma: no cover - only when epsilon in L, handled above
        return ResilienceResult(INFINITE, None, semantics, "exact-reference", language.name or "")
    return ResilienceResult(
        float(int(value)) if float(value).is_integer() else value,
        state.best_set,
        semantics,
        "exact-reference",
        language.name or "",
        details={"nodes_explored": state.nodes_explored},
    )


def resilience_brute_force(
    language: Language,
    database: GraphDatabase | BagGraphDatabase,
    *,
    semantics: str | None = None,
) -> ResilienceResult:
    """Compute resilience by enumerating all subsets of facts (tiny instances only).

    This is deliberately the most naive possible algorithm; it exists as an
    independent cross-check of :func:`resilience_exact` in the test suite.
    """
    from itertools import combinations

    if semantics is None:
        semantics = database.semantics
    if language.contains(""):
        return ResilienceResult(INFINITE, None, semantics, "brute-force", language.name or "")
    plan = compile_automaton(language.automaton)
    index = database.index()
    facts = index.facts
    multiplicities = index.multiplicities
    unit_costs = all(multiplicity == 1 for multiplicity in multiplicities)

    best_value: float = math.inf
    best_set: frozenset[Fact] | None = None
    removed = bytearray(len(facts))
    for size in range(len(facts) + 1):
        for subset in combinations(range(len(facts)), size):
            cost = sum(multiplicities[fact_id] for fact_id in subset)
            if cost >= best_value:
                continue
            for fact_id in subset:
                removed[fact_id] = 1
            if find_l_walk_ids(plan, index, removed) is None:
                best_value = cost
                best_set = frozenset(facts[fact_id] for fact_id in subset)
            for fact_id in subset:
                removed[fact_id] = 0
        # With unit costs the first size with a contingency set is optimal.
        # Ask the index, not ``semantics``: that only names the reporting.
        if unit_costs and best_set is not None:
            break
    return ResilienceResult(
        float(int(best_value)) if best_value != math.inf else INFINITE,
        best_set,
        semantics,
        "brute-force",
        language.name or "",
    )
