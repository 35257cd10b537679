"""Resilience of local languages by reduction to MinCut (Theorem 3.13).

Given an RO-epsilon-NFA ``A`` for a local language ``L`` and a bag database
``D``, the network ``N_{D,A}`` has one vertex per (database node, automaton
state) pair plus a fresh source and target:

* every fact ``v --a--> v'`` together with the unique ``a``-transition
  ``(s, a, s')`` of ``A`` gives an edge ``(v, s) -> (v', s')`` of capacity
  ``mult(fact)`` (this is the *only* finite-capacity edge of the fact, because
  ``A`` is read-once);
* every epsilon transition ``(s, eps, s')`` gives infinite-capacity edges
  ``(v, s) -> (v, s')`` for every node ``v``;
* the source has infinite-capacity edges to every ``(v, s)`` with ``s`` initial,
  and every ``(v, s)`` with ``s`` final has an infinite-capacity edge to the target.

Finite-cost cuts of ``N_{D,A}`` are exactly the contingency sets of ``D`` for
``Q_L``, with matching costs, so the resilience is the MinCut value.
"""

from __future__ import annotations

from ..exceptions import NotLocalError
from ..flow.compiled import solve_min_cut
from ..flow.mincut import min_cut
from ..flow.network import FlowNetwork
from ..flow.substrate import compile_product_graph
from ..graphdb.database import BagGraphDatabase, Fact, GraphDatabase, as_bag
from ..languages.automata import EpsilonNFA, compile_automaton
from ..languages.core import Language
from ..languages import local as local_module
from ..languages import read_once
from .result import INFINITE, ResilienceResult, finite_value

_SOURCE = "__source__"
_TARGET = "__target__"


def build_product_network(read_once_automaton: EpsilonNFA, database: BagGraphDatabase) -> FlowNetwork:
    """Build the flow network ``N_{D,A}`` of Theorem 3.13.

    The automaton must be read-once; each fact of the database is the key of its
    unique finite-capacity edge so that cuts map back to contingency sets.
    """
    if not read_once_automaton.is_read_once():
        raise NotLocalError("the automaton passed to the Theorem 3.13 reduction must be read-once")
    network = FlowNetwork(source=_SOURCE, target=_TARGET)
    automaton = read_once_automaton
    nodes = database.nodes

    # The compiled plan indexes the letter transitions of the *untrimmed*
    # automaton by label; read-once automata have exactly one per label.
    plan = compile_automaton(automaton)
    transition_of_letter: dict[str, tuple] = {
        label: pairs[0] for label, pairs in plan.transitions_by_label.items()
    }

    multiplicities = database.multiplicity_map()
    for fact, multiplicity in multiplicities.items():
        transition = transition_of_letter.get(fact.label)
        if transition is None:
            continue
        q_source, q_target = transition
        network.add_edge(
            (fact.source, q_source), (fact.target, q_target), float(multiplicity), key=fact
        )
    for q_source, label, q_target in automaton.epsilon_transitions:
        assert label is None
        for node in nodes:
            network.add_edge((node, q_source), (node, q_target), INFINITE)
    for node in nodes:
        for state in automaton.initial:
            network.add_edge(_SOURCE, (node, state), INFINITE)
        for state in automaton.final:
            network.add_edge((node, state), _TARGET, INFINITE)
    return network


def resilience_local(
    language: Language,
    database: GraphDatabase | BagGraphDatabase,
    *,
    automaton: EpsilonNFA | None = None,
    semantics: str | None = None,
) -> ResilienceResult:
    """Compute the resilience of a local language via the MinCut reduction of Theorem 3.13.

    Args:
        language: a local language.
        database: the input database (set databases get unit multiplicities).
        automaton: an RO-epsilon-NFA for the language, built by the caller
            (the engine's query plan).  Without it, locality is verified first
            (:class:`NotLocalError` if it fails) and the automaton is built
            here.  Passing
            :func:`~repro.languages.read_once.read_once_automaton_unchecked`
            of a non-local language runs the reduction on its local
            overapproximation, matching the combined-complexity statement of
            the theorem.
        semantics: force the reported semantics; inferred from the database type otherwise.

    Returns:
        the resilience value, a witnessing contingency set, and the compiled
        product-graph size in ``details``.
    """
    bag = as_bag(database)
    if semantics is None:
        semantics = "bag" if isinstance(database, BagGraphDatabase) else "set"

    if language.contains(""):
        return ResilienceResult(INFINITE, None, semantics, "local-flow", language.name or "")

    if automaton is None:
        automaton = read_once.read_once_automaton(language)

    # Compile the product graph over the database's cached flow substrate —
    # facts with labels that the language never uses are simply ignored by the
    # construction.  (The object-network builder above is retained as the
    # differential reference; see the flow README.)
    graph = compile_product_graph(automaton, bag.index())
    cut = solve_min_cut(graph)
    if cut.value == INFINITE:
        return ResilienceResult(INFINITE, None, semantics, "local-flow", language.name or "")
    contingency = frozenset(key for key in cut.cut_keys if isinstance(key, Fact))
    return ResilienceResult(
        finite_value(cut.value),
        contingency,
        semantics,
        "local-flow",
        language.name or "",
        details={
            "network_nodes": graph.num_nodes,
            "network_edges": graph.num_edges,
            "automaton_size": automaton.size,
        },
    )


def resilience_local_via_profile(
    language: Language, database: GraphDatabase | BagGraphDatabase
) -> ResilienceResult:
    """Variant of :func:`resilience_local` that rebuilds the RO automaton from the local profile.

    This mirrors the combined-complexity pipeline of the paper (Lemma 3.17): the
    input automaton is converted to the local overapproximation and then to an
    RO-epsilon-NFA; it is exposed separately for the ablation benchmark.
    """
    overapproximation = local_module.local_overapproximation(language)
    ro_automaton = read_once.local_dfa_to_read_once(overapproximation)
    bag = as_bag(database)
    semantics = "bag" if isinstance(database, BagGraphDatabase) else "set"
    if language.contains(""):
        return ResilienceResult(INFINITE, None, semantics, "local-flow-profile", language.name or "")
    network = build_product_network(ro_automaton, bag)
    cut = min_cut(network)
    if cut.value == INFINITE:
        return ResilienceResult(INFINITE, None, semantics, "local-flow-profile", language.name or "")
    contingency = frozenset(key for key in cut.cut_keys if isinstance(key, Fact))
    return ResilienceResult(
        finite_value(cut.value), contingency, semantics, "local-flow-profile", language.name or ""
    )
