"""Copy-free fact indexes for graph databases.

The resilience engine's hot path (the exact branch-and-bound search) explores
thousands of sub-databases of one input database.  Materializing each
sub-database as a fresh :class:`~repro.graphdb.database.GraphDatabase` — and
re-deriving its node set and adjacency lists — dominates the running time.

A :class:`DatabaseIndex` is built once per database (and cached on it): it
assigns every fact a dense integer id, sorts facts and nodes deterministically
(by ``repr``), and precomputes adjacency lists keyed by node and by
``(node, label)``.  Search algorithms can then represent any sub-database as a
*removed-fact mask* (one byte per fact id) over the shared index instead of
copying facts around.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from typing import Hashable

Node = Hashable


# repro: allow[ipc-cache-pickle] -- never pickled directly: GraphDatabase's
# __getstate__ drops its index and workers rebuild it on first use
class DatabaseIndex:
    """An immutable index over the facts of one database.

    Attributes:
        facts: every fact, sorted by ``repr``; the position of a fact in this
            tuple is its *fact id*.
        fact_ids: the inverse mapping, fact -> fact id.
        nodes: the active domain, sorted by ``repr``.
        node_ids: the inverse mapping, node -> dense node id (its position in
            ``nodes``).  The flow compilers address nodes by these ids.
        outgoing_ids: node -> tuple of ids of the facts leaving it (in id order).
        incoming_ids: node -> tuple of ids of the facts entering it (in id order).
        facts_by_label: label -> tuple of ids of the facts carrying it.
        outgoing_by_label: ``(node, label)`` -> tuple of ids of the facts
            leaving ``node`` with label ``label``.
        multiplicities: per-fact-id multiplicity; ``1`` for every fact of a
            set database, which is a bag with unit multiplicities (Section 2
            of the paper).
        substrates: per-reduction-shape cache of compiled flow substrates (the
            database-only halves of the product networks; see
            :mod:`repro.flow.substrate`).  Built lazily, shared by every query
            answered against this index.
    """

    __slots__ = (
        "facts",
        "fact_ids",
        "nodes",
        "node_ids",
        "outgoing_ids",
        "incoming_ids",
        "facts_by_label",
        "outgoing_by_label",
        "multiplicities",
        "substrates",
    )

    def __init__(
        self,
        facts: Iterable,
        multiplicities: Mapping | None = None,
    ) -> None:
        self.facts = tuple(sorted(facts, key=repr))
        self.fact_ids = {fact: index for index, fact in enumerate(self.facts)}
        nodes: set[Node] = set()
        outgoing: dict[Node, list[int]] = {}
        incoming: dict[Node, list[int]] = {}
        by_label: dict[str, list[int]] = {}
        out_by_label: dict[tuple[Node, str], list[int]] = {}
        for index, fact in enumerate(self.facts):
            nodes.add(fact.source)
            nodes.add(fact.target)
            outgoing.setdefault(fact.source, []).append(index)
            incoming.setdefault(fact.target, []).append(index)
            by_label.setdefault(fact.label, []).append(index)
            out_by_label.setdefault((fact.source, fact.label), []).append(index)
        self.nodes = tuple(sorted(nodes, key=repr))
        self.node_ids = {node: index for index, node in enumerate(self.nodes)}
        self.substrates: dict = {}
        self.outgoing_ids = {node: tuple(ids) for node, ids in outgoing.items()}
        self.incoming_ids = {node: tuple(ids) for node, ids in incoming.items()}
        self.facts_by_label = {label: tuple(ids) for label, ids in by_label.items()}
        self.outgoing_by_label = {key: tuple(ids) for key, ids in out_by_label.items()}
        if multiplicities is None:
            self.multiplicities = (1,) * len(self.facts)
        else:
            self.multiplicities = tuple(multiplicities[fact] for fact in self.facts)

    def __len__(self) -> int:
        return len(self.facts)

    def facts_of_ids(self, ids: Iterable[int]) -> list:
        """Return the facts with the given ids, in the given order."""
        return [self.facts[index] for index in ids]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DatabaseIndex({len(self.facts)} facts, {len(self.nodes)} nodes)"
