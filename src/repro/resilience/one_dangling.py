"""Resilience of one-dangling languages (Proposition 7.9).

A one-dangling language is ``L ∪ {xy}`` with ``L`` local and at least one of
``x, y`` absent from the alphabet of ``L``.  The reduction (for the case
``y`` fresh; the other case is handled by mirroring, Proposition 6.3):

1. introduce a fresh letter ``z`` and replace the unique ``x``-transition of an
   RO-epsilon-NFA for ``L`` by ``x`` then ``z``, giving a local language ``L'``;
2. rewrite the bag database: for every node ``v`` add a node ``(v, in)``,
   redirect all ``x``-facts entering ``v`` to ``(v, in)``, add a ``z``-fact
   ``(v, in) -> v`` of multiplicity ``sum(in-x) - sum(out-y)`` (possibly
   non-positive: *extended bag semantics*), and delete all ``y``-facts;
3. then ``RES_bag(L ∪ {xy}, D) = RES_ext_bag(L', D') + kappa`` where ``kappa`` is
   the total multiplicity of ``y``-facts; extended-bag resilience reduces to
   ordinary bag resilience by unconditionally removing the non-positive facts.

Neither ``L'`` nor the rewritten database ``D'`` is ever built.  In the
product of ``L'`` with the positive part of ``D'``, the only useful node of a
``(v, in)`` column is the one at the split state, so the network is compiled
straight from the database's shared index
(:func:`~repro.flow.substrate.compile_product_graph` with its one-dangling
wiring): ``x``-arcs end at a vertex ``in(v)``, and each positive ``z``-fact
becomes an arc ``in(v) -> (v, t)``.  When mirrored, the compile reads every
fact backwards instead of reversing the database.  The graph is cached on the
database's substrate like every other product graph.  The witnessing
contingency set of ``D`` is reconstructed from the cut following the proof of
Claim 7.10(ii).

Everything that depends only on the query — the decomposition, the mirror
when ``x`` is the fresh letter, the RO-epsilon-NFA of the local part — is
computed once by :func:`plan_one_dangling`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import NotApplicableError
from ..flow.compiled import solve_min_cut
from ..flow.substrate import compile_product_graph
from ..graphdb.database import BagGraphDatabase, Fact, GraphDatabase
from ..languages.automata import EpsilonNFA
from ..languages.core import Language
from ..languages.dangling import one_dangling_decomposition
from ..languages import read_once
from .result import INFINITE, ResilienceResult, finite_value


@dataclass(frozen=True)
class DanglingPlan:
    """The query-only half of Proposition 7.9, oriented so that ``y`` is fresh.

    Attributes:
        x, y: the letters of the dangling word ``xy``.
        local_automaton: the RO-epsilon-NFA of the local part.
        mirrored: whether ``x``, ``y`` and the local part are those of the
            planned language's mirror (Proposition 6.3), so that execution
            reads every fact backwards.
    """

    x: str
    y: str
    local_automaton: EpsilonNFA
    mirrored: bool


def plan_one_dangling(language: Language) -> DanglingPlan:
    """Decompose a one-dangling language and orient it so that ``y`` is fresh.

    Raises:
        NotApplicableError: if the language is not one-dangling.
    """
    decomposition = one_dangling_decomposition(language)
    if decomposition is None:
        raise NotApplicableError(f"{language.name or ''} is not a one-dangling language")
    mirrored = decomposition.y in decomposition.local_alphabet
    if mirrored:
        # x is the fresh letter: solve the mirror instead (Proposition 6.3).
        decomposition = one_dangling_decomposition(language.mirror())
        if decomposition is None:  # pragma: no cover - mirror of one-dangling is one-dangling
            raise NotApplicableError("mirror of a one-dangling language should be one-dangling")
    # The decomposition already checked that the local part is local.
    local_automaton = read_once.read_once_automaton_unchecked(decomposition.local_part)
    return DanglingPlan(decomposition.x, decomposition.y, local_automaton, mirrored)


def resilience_one_dangling(
    language: Language,
    database: GraphDatabase | BagGraphDatabase,
    *,
    semantics: str | None = None,
    plan: DanglingPlan | None = None,
) -> ResilienceResult:
    """Compute the resilience of a one-dangling language (Proposition 7.9).

    ``plan`` is the language's :func:`plan_one_dangling`, built by the caller
    (the engine's query plan); without it, it is computed here.

    Raises:
        NotApplicableError: if the language is not one-dangling.
    """
    if semantics is None:
        semantics = database.semantics
    name = language.name or ""
    if language.contains(""):
        return ResilienceResult(INFINITE, None, semantics, "one-dangling-flow", name)
    if plan is None:
        plan = plan_one_dangling(language)
    index = database.index()
    facts, multiplicities, mirrored = index.facts, index.multiplicities, plan.mirrored

    # The rewrite, read off the index (of the mirrored database when
    # mirrored): the x-facts entering and the y-facts leaving each node, and
    # each such node's z multiplicity sum(in-x) - sum(out-y).  Every dict is
    # filled in fact-id order, so no hash order reaches the graph or the cut.
    incoming_x: dict[object, list[Fact]] = {}
    outgoing_y: dict[object, list[Fact]] = {}
    z_multiplicity: dict[object, int] = {}
    for fact_id in index.facts_by_label.get(plan.x, ()):
        fact = facts[fact_id]
        node = fact.source if mirrored else fact.target
        incoming_x.setdefault(node, []).append(fact)
        z_multiplicity[node] = z_multiplicity.get(node, 0) + multiplicities[fact_id]
    kappa = 0
    for fact_id in index.facts_by_label.get(plan.y, ()):
        fact = facts[fact_id]
        node = fact.target if mirrored else fact.source
        outgoing_y.setdefault(node, []).append(fact)
        z_multiplicity[node] = z_multiplicity.get(node, 0) - multiplicities[fact_id]
        kappa += multiplicities[fact_id]

    # Extended bag semantics: z-facts with non-positive multiplicity can
    # always be put in the contingency set, so they are removed up front at
    # their cost.
    base_cost = sum(value for value in z_multiplicity.values() if value <= 0)
    z_capacities = tuple((node, value) for node, value in z_multiplicity.items() if value > 0)
    graph = compile_product_graph(plan.local_automaton, index, (plan.x, z_capacities, mirrored))
    cut = solve_min_cut(graph)
    if cut.value == INFINITE:  # pragma: no cover - epsilon not in L'
        return ResilienceResult(INFINITE, None, semantics, "one-dangling-flow", name)

    # Claim 7.10(ii): keep the cut's facts; at a node whose z-fact is removed
    # (case a) remove every x-fact entering it, otherwise (case b) every
    # y-fact leaving it.
    cut_keys = set(cut.cut_keys)
    contingency = {key for key in cut_keys if isinstance(key, Fact)}
    for node, value in z_multiplicity.items():
        if value <= 0 or ("z", node) in cut_keys:
            contingency.update(incoming_x.get(node, ()))
        else:
            contingency.update(outgoing_y.get(node, ()))
    details = {
        "kappa": kappa,
        "base_cost": base_cost,
        "network_nodes": graph.num_nodes,
        "network_edges": graph.num_edges,
        "mirrored": mirrored,
    }
    return ResilienceResult(
        finite_value(cut.value + base_cost + kappa),
        frozenset(contingency),
        semantics,
        "one-dangling-flow",
        name,
        details=details,
    )
