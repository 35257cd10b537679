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

The witnessing contingency set of ``D`` is reconstructed from the cut of ``D'``
following the proof of Claim 7.10(ii).

Everything that depends only on the query — the decomposition, the mirror
when ``x`` is the fresh letter, the RO-epsilon-NFA of the local part — is
computed once by :func:`plan_one_dangling`.  The fresh letter ``z`` must
avoid the database's alphabet, so the ``x -> xz`` split happens per database.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import NotApplicableError
from ..flow.compiled import solve_min_cut
from ..flow.substrate import compile_product_graph
from ..graphdb.database import BagGraphDatabase, Fact, GraphDatabase, as_bag
from ..languages.automata import EpsilonNFA
from ..languages.core import Language
from ..languages.dangling import OneDanglingDecomposition, one_dangling_decomposition
from ..languages.operations import fresh_letter
from ..languages import read_once
from .result import INFINITE, ResilienceResult, finite_value


@dataclass(frozen=True)
class DanglingPlan:
    """The query-only half of Proposition 7.9, oriented so that ``y`` is fresh.

    Attributes:
        language: the one-dangling language, or its mirror when ``x`` is the
            fresh letter (Proposition 6.3).
        decomposition: ``language``'s one-dangling decomposition.
        local_automaton: the RO-epsilon-NFA of the decomposition's local part.
        mirrored: whether ``language`` is the mirror of the planned language.
    """

    language: Language
    decomposition: OneDanglingDecomposition
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
        language = language.mirror()
        decomposition = one_dangling_decomposition(language)
        if decomposition is None:  # pragma: no cover - mirror of one-dangling is one-dangling
            raise NotApplicableError("mirror of a one-dangling language should be one-dangling")
    # The decomposition already checked that the local part is local.
    local_automaton = read_once.read_once_automaton_unchecked(decomposition.local_part)
    return DanglingPlan(language, decomposition, local_automaton, mirrored)


@dataclass
class _RewriteResult:
    """The rewritten database and bookkeeping needed to map cuts back."""

    rewritten: BagGraphDatabase
    kappa: int
    z_letter: str
    incoming_x: dict[object, list[Fact]]
    outgoing_y: dict[object, list[Fact]]
    z_fact_of_node: dict[object, Fact]
    x_fact_mapping: dict[Fact, Fact]


def _split_x_transition(automaton: EpsilonNFA, x_letter: str, z_letter: str) -> EpsilonNFA:
    """Replace the unique ``x`` transition of an RO-epsilon-NFA by ``x`` followed by ``z``."""
    x_transitions = [t for t in automaton.letter_transitions if t[1] == x_letter]
    if not x_transitions:
        # The local part does not use x at all; nothing to split.
        return automaton.with_alphabet(automaton.alphabet | {z_letter})
    if len(x_transitions) != 1:  # pragma: no cover - impossible for an RO automaton
        raise NotApplicableError("expected a read-once automaton")
    (source, _, target) = x_transitions[0]
    middle = ("split", x_letter)
    states = set(automaton.states) | {middle}
    transitions = set(automaton.transitions) - {x_transitions[0]}
    transitions.add((source, x_letter, middle))
    transitions.add((middle, z_letter, target))
    return EpsilonNFA.build(
        states, automaton.initial, automaton.final, transitions, automaton.alphabet | {z_letter}
    )


def _rewrite_database(
    bag: BagGraphDatabase, x_letter: str, y_letter: str, z_letter: str
) -> _RewriteResult:
    """Apply the database rewriting of Proposition 7.9 (see module docstring)."""
    multiplicities = bag.multiplicity_map()
    incoming_x: dict[object, list[Fact]] = {}
    outgoing_y: dict[object, list[Fact]] = {}
    for fact in multiplicities:
        if fact.label == x_letter:
            incoming_x.setdefault(fact.target, []).append(fact)
        if fact.label == y_letter:
            outgoing_y.setdefault(fact.source, []).append(fact)

    new_multiplicities: dict[Fact, int] = {}
    x_fact_mapping: dict[Fact, Fact] = {}
    z_fact_of_node: dict[object, Fact] = {}
    kappa = 0
    touched_nodes = set(incoming_x) | set(outgoing_y)
    for fact, multiplicity in multiplicities.items():
        if fact.label == y_letter:
            kappa += multiplicity
            continue
        if fact.label == x_letter:
            redirected = Fact(fact.source, x_letter, (fact.target, "in"))
            new_multiplicities[redirected] = multiplicity
            x_fact_mapping[fact] = redirected
            continue
        new_multiplicities[fact] = multiplicity
    for node in touched_nodes:
        in_sum = sum(multiplicities[fact] for fact in incoming_x.get(node, ()))
        out_sum = sum(multiplicities[fact] for fact in outgoing_y.get(node, ()))
        z_fact = Fact((node, "in"), z_letter, node)
        new_multiplicities[z_fact] = in_sum - out_sum
        z_fact_of_node[node] = z_fact
    rewritten = BagGraphDatabase(new_multiplicities, allow_non_positive=True)
    return _RewriteResult(
        rewritten, kappa, z_letter, incoming_x, outgoing_y, z_fact_of_node, x_fact_mapping
    )


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
    bag = as_bag(database)
    if semantics is None:
        semantics = "bag" if isinstance(database, BagGraphDatabase) else "set"
    name = language.name or ""
    if language.contains(""):
        return ResilienceResult(INFINITE, None, semantics, "one-dangling-flow", name)
    if plan is None:
        plan = plan_one_dangling(language)
    if not plan.mirrored:
        return _solve_forward(plan, bag, semantics, name)
    # Solve on the mirrored database and mirror the contingency set back.
    result = _solve_forward(plan, bag.reverse(), semantics, name)
    contingency = None
    if result.contingency_set is not None:
        contingency = frozenset(
            Fact(fact.target, fact.label, fact.source) for fact in result.contingency_set
        )
    return ResilienceResult(
        result.value, contingency, semantics, result.method, name, details=result.details
    )


def _solve_forward(
    plan: DanglingPlan, bag: BagGraphDatabase, semantics: str, name: str
) -> ResilienceResult:
    """Solve the planned language, whose second dangling letter ``y`` is fresh."""
    decomposition = plan.decomposition
    x_letter, y_letter = decomposition.x, decomposition.y
    local_part = decomposition.local_part

    z_letter = fresh_letter(plan.language.alphabet, avoid=bag.alphabet)
    primed_automaton = _split_x_transition(plan.local_automaton, x_letter, z_letter)
    primed_language = Language(primed_automaton, name=f"{local_part.name or 'L'}[x->xz]")

    rewrite = _rewrite_database(bag, x_letter, y_letter, z_letter)

    # Extended bag semantics: facts with non-positive multiplicity can always be
    # put in the contingency set, so they are removed up front at their cost.
    rewritten_multiplicities = rewrite.rewritten.multiplicity_map()
    non_positive = {
        fact: mult for fact, mult in rewritten_multiplicities.items() if mult <= 0
    }
    positive_part = BagGraphDatabase(
        {fact: mult for fact, mult in rewritten_multiplicities.items() if mult > 0}
    )
    base_cost = sum(non_positive.values())

    # The rewritten positive part is a per-query database, but the compiled
    # path still skips the whole object-network layer (its index carries its
    # own product substrate).
    graph = compile_product_graph(primed_automaton, positive_part.index())
    cut = solve_min_cut(graph)
    if cut.value == INFINITE:  # pragma: no cover - epsilon not in L'
        return ResilienceResult(INFINITE, None, semantics, "one-dangling-flow", name)

    primed_contingency = set(non_positive) | {
        key for key in cut.cut_keys if isinstance(key, Fact)
    }
    value = cut.value + base_cost + rewrite.kappa

    contingency = _map_back_contingency(bag, rewrite, primed_contingency, x_letter, y_letter)
    details = {
        "kappa": rewrite.kappa,
        "base_cost": base_cost,
        "network_nodes": graph.num_nodes,
        "network_edges": graph.num_edges,
        "mirrored": plan.mirrored,
        "primed_language": primed_language.name,
    }
    return ResilienceResult(
        finite_value(value), frozenset(contingency), semantics, "one-dangling-flow", name, details=details
    )


def _map_back_contingency(
    bag: BagGraphDatabase,
    rewrite: _RewriteResult,
    primed_contingency: set[Fact],
    x_letter: str,
    y_letter: str,
) -> set[Fact]:
    """Reconstruct a contingency set of the original database (proof of Claim 7.10(ii))."""
    contingency: set[Fact] = set()
    touched_nodes = set(rewrite.incoming_x) | set(rewrite.outgoing_y)
    for node in touched_nodes:
        z_fact = rewrite.z_fact_of_node.get(node)
        if z_fact is not None and z_fact in primed_contingency:
            # Case (a): remove every x-fact entering the node.
            contingency.update(rewrite.incoming_x.get(node, ()))
        else:
            # Case (b): remove every y-fact leaving the node, plus the x-facts
            # whose redirected copies are in the primed contingency set.
            contingency.update(rewrite.outgoing_y.get(node, ()))
            for original in rewrite.incoming_x.get(node, ()):
                if rewrite.x_fact_mapping[original] in primed_contingency:
                    contingency.add(original)
    for fact in primed_contingency:
        if fact.label not in (x_letter, rewrite.z_letter) and fact in bag:
            contingency.add(fact)
    return contingency
