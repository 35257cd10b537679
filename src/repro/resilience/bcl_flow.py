"""Resilience of bipartite chain languages by reduction to MinCut (Proposition 7.6).

The construction orients every word of the BCL according to a bipartition of the
endpoint graph: *forward* words go from the source partition to the target
partition, *reversed* words the other way.  Every fact becomes a single
finite-capacity edge ``start_fact -> end_fact``; consecutive letters of a word
connect these per-fact edges with infinite-capacity edges (in word order for
forward words and in reverse order for reversed words), and the source/target
attach to the endpoint letters of the appropriate partitions.  Finite-cost cuts
then correspond exactly to contingency sets.

Preprocessing (from the proof): the empty word makes resilience infinite, and
every fact whose label is a one-letter word of the language must be removed
unconditionally.
"""

from __future__ import annotations

from ..flow.compiled import solve_min_cut
from ..flow.network import FlowNetwork
from ..flow.substrate import compile_bcl_graph
from ..graphdb.database import BagGraphDatabase, Fact, GraphDatabase
from ..languages import chain
from ..languages.core import Language
from .result import INFINITE, ResilienceResult, finite_value

_SOURCE = "__source__"
_TARGET = "__target__"


def build_bcl_network(
    structure: chain.BclStructure, database: GraphDatabase | BagGraphDatabase
) -> FlowNetwork:
    """Build the Proposition 7.6 flow network for a BCL structure and a database."""
    network = FlowNetwork(source=_SOURCE, target=_TARGET)
    index = database.index()

    def start_vertex(fact: Fact) -> tuple:
        return ("start", fact)

    def end_vertex(fact: Fact) -> tuple:
        return ("end", fact)

    # One finite-capacity edge per fact.
    for fact_id, fact in enumerate(index.facts):
        network.add_edge(
            start_vertex(fact), end_vertex(fact), float(index.multiplicities[fact_id]), key=fact
        )

    # The per-label and per-(node, label) adjacency comes straight from the
    # database's cached index (shared with every other query on this database).
    def facts_with_label(label: str) -> list[Fact]:
        return index.facts_of_ids(index.facts_by_label.get(label, ()))

    def outgoing_with_label(node: object, label: str) -> list[Fact]:
        return index.facts_of_ids(index.outgoing_by_label.get((node, label), ()))

    # Infinite edges between consecutive letters of each word.
    for word in structure.forward_words:
        for position in range(len(word) - 1):
            first, second = word[position], word[position + 1]
            for fact in facts_with_label(first):
                for next_fact in outgoing_with_label(fact.target, second):
                    network.add_edge(end_vertex(fact), start_vertex(next_fact), INFINITE)
    for word in structure.reversed_words:
        for position in range(len(word) - 1):
            first, second = word[position], word[position + 1]
            for fact in facts_with_label(first):
                for next_fact in outgoing_with_label(fact.target, second):
                    network.add_edge(end_vertex(next_fact), start_vertex(fact), INFINITE)

    # Source / target attachments on endpoint letters.
    for letter in structure.source_letters:
        for fact in facts_with_label(letter):
            network.add_edge(_SOURCE, start_vertex(fact), INFINITE)
    for letter in structure.target_letters:
        for fact in facts_with_label(letter):
            network.add_edge(end_vertex(fact), _TARGET, INFINITE)
    return network


def resilience_bcl(
    language: Language,
    database: GraphDatabase | BagGraphDatabase,
    *,
    semantics: str | None = None,
    structure: chain.BclStructure | None = None,
) -> ResilienceResult:
    """Compute the resilience of a bipartite chain language (Proposition 7.6).

    ``structure`` is the language's :func:`~repro.languages.chain.bcl_structure`,
    built by the caller (the engine's query plan); without it, it is computed
    here.

    Raises:
        NotApplicableError: if the language is not a bipartite chain language.
    """
    if semantics is None:
        semantics = database.semantics
    name = language.name or ""

    if structure is None:
        structure = chain.bcl_structure(language)
    if language.contains(""):
        return ResilienceResult(INFINITE, None, semantics, "bcl-flow", name)

    # Preprocessing: facts labelled by a one-letter word must always be
    # removed.  Instead of materializing a copy of the database without them,
    # the compiler below skips their arcs over the shared per-database
    # substrate — the resulting network is identical.
    index = database.index()
    forced_ids: set[int] = set()
    for letter in structure.single_letter_words:
        forced_ids.update(index.facts_by_label.get(letter, ()))
    forced = frozenset(index.facts_of_ids(forced_ids))
    base_cost = sum(index.multiplicities[fact_id] for fact_id in forced_ids)

    graph = compile_bcl_graph(structure, index, frozenset(forced_ids))
    cut = solve_min_cut(graph)
    if cut.value == INFINITE:  # pragma: no cover - cannot happen once epsilon/one-letter words are gone
        return ResilienceResult(INFINITE, None, semantics, "bcl-flow", name)
    contingency = forced | frozenset(key for key in cut.cut_keys if isinstance(key, Fact))
    return ResilienceResult(
        finite_value(cut.value + base_cost),
        contingency,
        semantics,
        "bcl-flow",
        name,
        details={
            "network_nodes": graph.num_nodes,
            "network_edges": graph.num_edges,
            "forced_facts": len(forced),
        },
    )
