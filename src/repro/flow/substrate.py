"""Per-database flow substrates: the database-only halves of product networks.

Every flow-tractable resilience algorithm builds a product of the database
with a query structure (an RO-epsilon-NFA for Theorem 3.13, a BCL word
structure for Proposition 7.6).  The database half of that product — dense
node ids, per-label fact arcs with multiplicities, per-letter-pair fact
adjacency — does not depend on the query at all, so it is compiled **once per
database** and cached on the :class:`~repro.graphdb.index.DatabaseIndex`
(``index.substrates``), where `resilience_many`, the
:class:`~repro.service.server.ResilienceServer` workers and the benchmark
drivers all share it.  Per-query compilation then only wires automaton states
(or word positions) on top of the substrate's int arrays and emits a
:class:`~repro.flow.compiled.CompiledFlowGraph` directly — no
:class:`~repro.flow.network.FlowNetwork`, no tuple nodes, no ``repr``
sorting.

Node-id layout of the compiled product graphs (both shapes):

* id ``0`` is the source, id ``1`` the target;
* Theorem 3.13 product: database node ``i`` × automaton state ``j`` (states
  densely numbered in sorted-by-repr order) is id ``2 + j * num_db_nodes + i``
  — state-major, so wiring a whole state costs one addition per database node
  and no multiplication; with the Proposition 7.9 wiring, database node
  ``i``'s vertex ``in(i)`` follows the product block, at
  ``2 + num_states * num_db_nodes + i``;
* Proposition 7.6 product: fact ``f``'s start vertex is ``2 + 2f`` and its
  end vertex ``2 + 2f + 1``.

The compiled graphs are value- and cut-identical to the object networks the
retained builders (:func:`~repro.resilience.local_flow.build_product_network`,
:func:`~repro.resilience.bcl_flow.build_bcl_network`) produce — pinned by the
differential tests and the conformance CI.
"""

from __future__ import annotations

from ..exceptions import NotLocalError
from ..graphdb.index import DatabaseIndex
from ..lru import BoundedLru
from .compiled import CompiledFlowGraph, FlowGraphBuilder

_SOURCE_ID = 0
_TARGET_ID = 1

#: Bound on the total arcs of the compiled graphs one substrate keeps, about
#: 10 MiB.  The nine PTIME Figure 1 queries on a 10,000-edge database take
#: 55,039 product and 29,923 BCL arcs (39,789 and 19,923 edges).
GRAPH_CACHE_ARCS = 2**16


def _arcs(graph: CompiledFlowGraph) -> int:
    # A graph holds about 163 bytes per edge and 43 per node (its CSR offset,
    # kept for every node id even when trimming drops all of its arcs), so
    # four nodes count as one arc and an edge-less graph is not free.
    return graph.num_edges + graph.num_nodes // 4


class _GraphCache:
    """A substrate's compiled graphs (``graphs``), keyed by query and wiring.

    A graph is a pure function of its key and the database, so a repeat is
    solve-only and an eviction costs a recompile, never an outcome.
    """

    __slots__ = ("graphs",)

    def __init__(self) -> None:
        self.graphs = BoundedLru(max_size=GRAPH_CACHE_ARCS, sizer=_arcs)

    @property
    def graphs_compiled(self) -> int:
        return self.graphs.misses

    @property
    def graph_hits(self) -> int:
        return self.graphs.hits


class ProductSubstrate(_GraphCache):
    """Database half of the Theorem 3.13 product network, in columnar form.

    Attributes:
        num_db_nodes: number of dense database node ids.
        label_arcs: label -> ``(sources, targets, caps_interleaved, facts)``
            columns, one entry per fact with that label: ``sources`` /
            ``targets`` are dense node ids, ``caps_interleaved`` alternates
            the fact's multiplicity with the backward arc's 0 (ready for
            :meth:`~repro.flow.compiled.FlowGraphBuilder.extend_raw`), and
            ``facts`` are the key objects.
    """

    __slots__ = ("num_db_nodes", "label_arcs")

    def __init__(self, index: DatabaseIndex) -> None:
        super().__init__()
        node_ids = index.node_ids
        facts = index.facts
        multiplicities = index.multiplicities
        self.num_db_nodes = len(index.nodes)
        self.label_arcs: dict[str, tuple[tuple, tuple, tuple, tuple]] = {}
        for label, fact_ids in index.facts_by_label.items():
            label_facts = tuple(facts[fact_id] for fact_id in fact_ids)
            sources = tuple(node_ids[fact.source] for fact in label_facts)
            targets = tuple(node_ids[fact.target] for fact in label_facts)
            caps_interleaved = tuple(
                value for fact_id in fact_ids for value in (multiplicities[fact_id], 0)
            )
            self.label_arcs[label] = (sources, targets, caps_interleaved, label_facts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProductSubstrate({self.num_db_nodes} nodes, "
            f"{len(self.label_arcs)} labels, {self.graphs_compiled} compiles)"
        )


class BclSubstrate(_GraphCache):
    """Database half of the Proposition 7.6 BCL network.

    The per-fact finite arcs come straight from the index; the ∞ wiring
    between consecutive word letters depends only on the *letter pair*, so
    :meth:`pair_arcs` memoizes each pair's fact-adjacency — two BCL queries on
    one database whose words share a letter pair share the computed arcs.
    """

    __slots__ = ("_index", "_pairs")

    def __init__(self, index: DatabaseIndex) -> None:
        super().__init__()
        self._index = index
        self._pairs: dict[tuple[str, str], tuple[tuple[int, int], ...]] = {}

    def pair_arcs(self, first: str, second: str) -> tuple[tuple[int, int], ...]:
        """``(fact_id, next_fact_id)`` pairs for consecutive letters, memoized.

        A pair ``(f, g)`` means fact ``f`` carries ``first`` and fact ``g``
        leaves ``f``'s target carrying ``second``.
        """
        key = (first, second)
        cached = self._pairs.get(key)
        if cached is None:
            index = self._index
            facts = index.facts
            outgoing = index.outgoing_by_label
            rows = []
            for fact_id in index.facts_by_label.get(first, ()):
                successors = outgoing.get((facts[fact_id].target, second))
                if successors:
                    rows.extend((fact_id, next_id) for next_id in successors)
            cached = tuple(rows)
            self._pairs[key] = cached
        return cached

    @property
    def memoized_pairs(self) -> int:
        """Number of distinct letter pairs whose adjacency has been computed."""
        return len(self._pairs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BclSubstrate({len(self._index)} facts, {len(self._pairs)} pairs, "
            f"{self.graphs_compiled} compiles)"
        )


def product_substrate(index: DatabaseIndex) -> ProductSubstrate:
    """Return the (cached) Theorem 3.13 substrate of a database index."""
    substrate = index.substrates.get("product")
    if substrate is None:
        substrate = ProductSubstrate(index)
        index.substrates["product"] = substrate
    return substrate


def bcl_substrate(index: DatabaseIndex) -> BclSubstrate:
    """Return the (cached) Proposition 7.6 substrate of a database index."""
    substrate = index.substrates.get("bcl")
    if substrate is None:
        substrate = BclSubstrate(index)
        index.substrates["bcl"] = substrate
    return substrate


def compile_product_graph(
    read_once_automaton, index: DatabaseIndex, dangling: tuple | None = None
) -> CompiledFlowGraph:
    """Compile the Theorem 3.13 product network ``N_{D,A}`` straight to arrays.

    Mirrors :func:`~repro.resilience.local_flow.build_product_network` exactly
    — same finite arcs (one per fact whose label the automaton reads, keyed by
    the fact), same ∞ wiring (epsilon transitions per database node, source
    to every initial pair, every final pair to target) — but emits a
    :class:`CompiledFlowGraph` over the cached substrate instead of an object
    network.

    ``dangling`` is the wiring of Proposition 7.9, ``(x, z_capacities,
    mirrored)``.  Every ``x``-arc ends at the vertex ``in(v)`` of the fact's
    head ``v`` instead of at ``(v, t)``, where ``t`` is the target state of
    the ``x``-transition; each ``(node, capacity)`` pair of ``z_capacities``
    adds the arc ``in(node) -> (node, t)``, keyed ``("z", node)``; and
    ``mirrored`` reads every fact backwards.  After trimming this is the
    product of the ``x``-then-``z`` split automaton with the rewritten
    database (see :mod:`repro.resilience.one_dangling`).
    """
    from ..languages.automata import compile_automaton

    substrate = product_substrate(index)
    # Automata are small frozen dataclasses, so hashing one costs microseconds.
    cache_key = read_once_automaton if dangling is None else (read_once_automaton, dangling)
    cached = substrate.graphs.get(cache_key)
    if cached is not None:
        return cached
    # Checked on a miss only: a cached graph was compiled from an automaton
    # that passed this check.
    if not read_once_automaton.is_read_once():
        raise NotLocalError("the automaton passed to the Theorem 3.13 reduction must be read-once")
    x_letter, z_capacities, mirrored = dangling or (None, (), False)
    plan = compile_automaton(read_once_automaton)
    # repro: allow[det-repr-sort] -- canonical state numbering: automaton
    # states are frozen value types whose reprs are address-free
    states = sorted(read_once_automaton.states, key=repr)
    num_db_nodes = substrate.num_db_nodes
    # State-major product ids: state j occupies the contiguous id block
    # ``2 + j * num_db_nodes .. 2 + (j + 1) * num_db_nodes - 1``.
    state_offset = {
        state: 2 + position * num_db_nodes for position, state in enumerate(states)
    }
    in_offset = 2 + num_db_nodes * len(states)
    builder = FlowGraphBuilder(
        in_offset + (num_db_nodes if dangling else 0), integral_hint=True
    )

    extend_raw = builder.extend_raw
    for label, pairs in plan.transitions_by_label.items():
        columns = substrate.label_arcs.get(label)
        if columns is None:
            continue
        (q_source, q_target) = pairs[0]  # read-once: exactly one per label
        source_offset = state_offset[q_source]
        target_offset = in_offset if label == x_letter else state_offset[q_target]
        sources, targets, caps_interleaved, label_facts = columns
        if mirrored:
            sources, targets = targets, sources
        extend_raw(
            [
                node
                for source, target in zip(sources, targets)
                for node in (target_offset + target, source_offset + source)
            ],
            caps_interleaved,
            label_facts,
        )
        if label == x_letter:
            node_ids = index.node_ids
            target_offset = state_offset[q_target]
            for node, capacity in z_capacities:
                node_id = node_ids[node]
                builder.add(in_offset + node_id, target_offset + node_id, capacity, ("z", node))
    extend_infinite = builder.extend_infinite
    # repro: allow[det-repr-sort] -- canonical edge order over frozen value types
    for q_source, _, q_target in sorted(read_once_automaton.epsilon_transitions, key=repr):
        source_offset = state_offset[q_source]
        target_offset = state_offset[q_target]
        extend_infinite(
            (source_offset + node, target_offset + node) for node in range(num_db_nodes)
        )
    # repro: allow[det-repr-sort] -- canonical edge order over frozen value types
    for state in sorted(read_once_automaton.initial, key=repr):
        offset = state_offset[state]
        extend_infinite((_SOURCE_ID, offset + node) for node in range(num_db_nodes))
    # repro: allow[det-repr-sort] -- canonical edge order over frozen value types
    for state in sorted(read_once_automaton.final, key=repr):
        offset = state_offset[state]
        extend_infinite((offset + node, _TARGET_ID) for node in range(num_db_nodes))
    graph = builder.build(_SOURCE_ID, _TARGET_ID, trim=True)
    substrate.graphs.set(cache_key, graph)
    return graph


def compile_bcl_graph(
    structure, index: DatabaseIndex, removed_fact_ids: frozenset[int] = frozenset()
) -> CompiledFlowGraph:
    """Compile the Proposition 7.6 network straight to arrays.

    ``removed_fact_ids`` holds the facts the preprocessing step removes
    unconditionally (one-letter words of the language): instead of building a
    copy of the database without them — which would defeat the per-database
    substrate — their arcs and attachments are simply skipped, which yields
    the identical network.
    """
    substrate = bcl_substrate(index)
    cache_key = (structure, removed_fact_ids)
    cached = substrate.graphs.get(cache_key)
    if cached is not None:
        return cached
    multiplicities = index.multiplicities
    facts = index.facts
    num_facts = len(facts)
    builder = FlowGraphBuilder(2 + 2 * num_facts, integral_hint=True)
    removed = removed_fact_ids

    add = builder.add
    add_infinite = builder.add_infinite
    # One finite-capacity edge start(f) -> end(f) per surviving fact.
    for fact_id in range(num_facts):
        if fact_id not in removed:
            base = 2 + 2 * fact_id
            add(base, base + 1, multiplicities[fact_id], facts[fact_id])

    # ∞ wiring between consecutive letters of each word (forward words in
    # word order, reversed words the other way).
    for word in sorted(structure.forward_words):
        for position in range(len(word) - 1):
            for fact_id, next_id in substrate.pair_arcs(word[position], word[position + 1]):
                if fact_id not in removed and next_id not in removed:
                    add_infinite(2 + 2 * fact_id + 1, 2 + 2 * next_id)
    for word in sorted(structure.reversed_words):
        for position in range(len(word) - 1):
            for fact_id, next_id in substrate.pair_arcs(word[position], word[position + 1]):
                if fact_id not in removed and next_id not in removed:
                    add_infinite(2 + 2 * next_id + 1, 2 + 2 * fact_id)

    # Source / target attachments on endpoint letters.
    for letter in sorted(structure.source_letters):
        for fact_id in index.facts_by_label.get(letter, ()):
            if fact_id not in removed:
                add_infinite(_SOURCE_ID, 2 + 2 * fact_id)
    for letter in sorted(structure.target_letters):
        for fact_id in index.facts_by_label.get(letter, ()):
            if fact_id not in removed:
                add_infinite(2 + 2 * fact_id + 1, _TARGET_ID)
    graph = builder.build(_SOURCE_ID, _TARGET_ID, trim=True)
    substrate.graphs.set(cache_key, graph)
    return graph
