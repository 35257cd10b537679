"""Graph databases in set and bag semantics (Section 2 of the paper).

A graph database over an alphabet ``Sigma`` is a set of labelled edges (called
*facts*) ``v --a--> v'``.  A bag graph database additionally carries a positive
multiplicity for each fact; multiplicities act as removal costs in the
resilience problem.  A set database is the bag whose every multiplicity is
``1``, so both classes index their facts the same way: each database has one
:class:`~repro.graphdb.index.DatabaseIndex`, which every algorithm reads (with
unit multiplicities for a set database), and each class names its
``semantics`` once.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass
from typing import Hashable

from ..exceptions import ReproError
from .index import DatabaseIndex

Node = Hashable


@dataclass(frozen=True, order=True)
class Fact:
    """A labelled edge ``source --label--> target`` of a graph database."""

    source: Node
    label: str
    target: Node

    def __str__(self) -> str:
        return f"{self.source}-{self.label}->{self.target}"


def _as_fact(edge: Fact | tuple[Node, str, Node]) -> Fact:
    if isinstance(edge, Fact):
        return edge
    source, label, target = edge
    return Fact(source, label, target)


def _fingerprint_facts(tag: str, weighted_facts: Iterable[tuple[Fact, int]]) -> str:
    """SHA-256 digest of a semantics tag plus sorted ``(fact, weight)`` pairs."""
    digest = hashlib.sha256(tag.encode("utf-8"))
    for fact, weight in sorted(weighted_facts, key=lambda pair: repr(pair[0])):
        digest.update(
            repr((fact.source, fact.label, fact.target, weight)).encode("utf-8")
        )
    return digest.hexdigest()


class GraphDatabase:
    """A set-semantics graph database: a finite set of :class:`Fact` objects.

    Databases are immutable, so the derived node set, adjacency maps and the
    :class:`~repro.graphdb.index.DatabaseIndex` are computed lazily once and
    cached on the instance.
    """

    semantics = "set"

    def __init__(self, facts: Iterable[Fact | tuple[Node, str, Node]] = ()) -> None:
        self._facts: frozenset[Fact] = frozenset(_as_fact(edge) for edge in facts)
        self._index: DatabaseIndex | None = None
        self._outgoing: dict[Node, tuple[Fact, ...]] | None = None
        self._incoming: dict[Node, tuple[Fact, ...]] | None = None
        self._content_fingerprint: str | None = None

    # ------------------------------------------------------------------ constructors

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[Node, str, Node]]) -> "GraphDatabase":
        """Build a database from ``(source, label, target)`` triples."""
        return cls(edges)

    # ------------------------------------------------------------------ basic accessors

    @property
    def facts(self) -> frozenset[Fact]:
        return self._facts

    @property
    def nodes(self) -> frozenset[Node]:
        """The active domain ``Adom(D)``: every node occurring in some fact."""
        return frozenset(self.index().nodes)

    def index(self) -> DatabaseIndex:
        """Return the cached :class:`DatabaseIndex` of the database."""
        if self._index is None:
            self._index = DatabaseIndex(self._facts)
        return self._index

    @property
    def alphabet(self) -> frozenset[str]:
        return frozenset(fact.label for fact in self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(sorted(self._facts, key=repr))

    def __contains__(self, edge: Fact | tuple[Node, str, Node]) -> bool:
        return _as_fact(edge) in self._facts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GraphDatabase):
            return NotImplemented
        return self._facts == other._facts

    def __hash__(self) -> int:
        return hash(self._facts)

    def __repr__(self) -> str:
        return f"GraphDatabase({len(self._facts)} facts, {len(self.nodes)} nodes)"

    def content_fingerprint(self) -> str:
        """Return a content digest of the database, stable across processes.

        Two set databases share a fingerprint iff they hold the same facts
        (``repr``-identical nodes and labels); the digest is tagged with the
        semantics so a set database and its unit bag never collide.  Used by
        the serving layer to guard a warm worker pool against being asked to
        answer for a different database.
        """
        if self._content_fingerprint is None:
            self._content_fingerprint = _fingerprint_facts(
                "set", ((fact, 1) for fact in self._facts)
            )
        return self._content_fingerprint

    # ------------------------------------------------------------------ adjacency

    def outgoing(self) -> Mapping[Node, tuple[Fact, ...]]:
        """Return a (cached, read-only) mapping from node to the facts leaving it."""
        if self._outgoing is None:
            index = self.index()
            self._outgoing = {
                node: tuple(index.facts[i] for i in ids)
                for node, ids in index.outgoing_ids.items()
            }
        return self._outgoing

    def incoming(self) -> Mapping[Node, tuple[Fact, ...]]:
        """Return a (cached, read-only) mapping from node to the facts entering it."""
        if self._incoming is None:
            index = self.index()
            self._incoming = {
                node: tuple(index.facts[i] for i in ids)
                for node, ids in index.incoming_ids.items()
            }
        return self._incoming

    def facts_with_label(self, label: str) -> frozenset[Fact]:
        return frozenset(fact for fact in self._facts if fact.label == label)

    def is_acyclic(self) -> bool:
        """Return whether the database, viewed as a directed graph, has no cycle."""
        adjacency = self.outgoing()
        colours: dict[Node, int] = {}

        def visit(start: Node) -> bool:
            stack: list[tuple[Node, Iterator[Fact]]] = [(start, iter(adjacency.get(start, ())))]
            colours[start] = 1
            while stack:
                node, iterator = stack[-1]
                advanced = False
                for fact in iterator:
                    status = colours.get(fact.target, 0)
                    if status == 1:
                        return False
                    if status == 0:
                        colours[fact.target] = 1
                        stack.append((fact.target, iter(adjacency.get(fact.target, ()))))
                        advanced = True
                        break
                if not advanced:
                    colours[node] = 2
                    stack.pop()
            return True

        for node in self.nodes:
            if colours.get(node, 0) == 0 and not visit(node):
                return False
        return True

    # ------------------------------------------------------------------ pickling

    def __getstate__(self) -> dict:
        # The index and adjacency maps are derived caches: shipping them (e.g.
        # to the serving layer's worker processes) more than doubles the pickle
        # for nothing, because the receiver rebuilds them lazily anyway.
        state = self.__dict__.copy()
        state["_index"] = None
        state["_outgoing"] = None
        state["_incoming"] = None
        state["_content_fingerprint"] = None
        return state

    # ------------------------------------------------------------------ modifications (functional)

    def remove(self, facts: Iterable[Fact | tuple[Node, str, Node]]) -> "GraphDatabase":
        """Return a new database with the given facts removed."""
        removed = {_as_fact(edge) for edge in facts}
        return GraphDatabase(self._facts - removed)

    def add(self, facts: Iterable[Fact | tuple[Node, str, Node]]) -> "GraphDatabase":
        """Return a new database with the given facts added."""
        added = {_as_fact(edge) for edge in facts}
        return GraphDatabase(self._facts | added)

    def union(self, other: "GraphDatabase") -> "GraphDatabase":
        return GraphDatabase(self._facts | other._facts)

    def rename_nodes(self, mapping: Mapping[Node, Node]) -> "GraphDatabase":
        """Return an isomorphic copy with nodes renamed through ``mapping``.

        Nodes absent from ``mapping`` keep their name.
        """
        return GraphDatabase(
            Fact(mapping.get(fact.source, fact.source), fact.label, mapping.get(fact.target, fact.target))
            for fact in self._facts
        )

    def reverse(self) -> "GraphDatabase":
        """Return the database with every edge reversed (used for mirror languages)."""
        return GraphDatabase(Fact(fact.target, fact.label, fact.source) for fact in self._facts)

    def to_bag(self, multiplicity: int = 1) -> "BagGraphDatabase":
        """Return a bag database giving every fact the same multiplicity."""
        return BagGraphDatabase({fact: multiplicity for fact in self._facts})


class BagGraphDatabase:
    """A bag-semantics graph database: facts with positive integer multiplicities."""

    semantics = "bag"

    def __init__(self, multiplicities: Mapping[Fact | tuple[Node, str, Node], int]) -> None:
        cleaned: dict[Fact, int] = {}
        for edge, multiplicity in multiplicities.items():
            fact = _as_fact(edge)
            # bool is an int subclass, but True would fingerprint differently
            # from the equal multiplicity 1.
            if not isinstance(multiplicity, int) or isinstance(multiplicity, bool):
                raise ReproError(f"multiplicity of {fact} must be an integer")
            if multiplicity <= 0:
                raise ReproError(f"multiplicity of {fact} must be positive (got {multiplicity})")
            cleaned[fact] = multiplicity
        self._multiplicities = cleaned
        self._database: GraphDatabase | None = None
        self._index: DatabaseIndex | None = None
        self._content_fingerprint: str | None = None

    # ------------------------------------------------------------------ constructors

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[Node, str, Node, int]]) -> "BagGraphDatabase":
        """Build a bag database from ``(source, label, target, multiplicity)`` tuples."""
        return cls(
            {Fact(source, label, target): multiplicity for source, label, target, multiplicity in edges}
        )

    @classmethod
    def uniform(cls, database: GraphDatabase, multiplicity: int = 1) -> "BagGraphDatabase":
        return database.to_bag(multiplicity)

    # ------------------------------------------------------------------ accessors

    @property
    def database(self) -> GraphDatabase:
        """The (cached) underlying set database (facts only, multiplicities dropped)."""
        if self._database is None:
            self._database = GraphDatabase(self._multiplicities)
        return self._database

    def index(self) -> DatabaseIndex:
        """Return the cached :class:`DatabaseIndex` of the bag (with multiplicities)."""
        if self._index is None:
            self._index = DatabaseIndex(self._multiplicities, self._multiplicities)
        return self._index

    @property
    def facts(self) -> frozenset[Fact]:
        return frozenset(self._multiplicities)

    @property
    def nodes(self) -> frozenset[Node]:
        return frozenset(self.index().nodes)

    @property
    def alphabet(self) -> frozenset[str]:
        return frozenset(fact.label for fact in self._multiplicities)

    def multiplicity(self, fact: Fact | tuple[Node, str, Node]) -> int:
        return self._multiplicities[_as_fact(fact)]

    def multiplicities(self) -> dict[Fact, int]:
        return dict(self._multiplicities)

    def total_cost(self, facts: Iterable[Fact | tuple[Node, str, Node]]) -> int:
        """Return the sum of multiplicities of the given facts."""
        return sum(self._multiplicities[_as_fact(edge)] for edge in facts)

    def __len__(self) -> int:
        return len(self._multiplicities)

    def __iter__(self) -> Iterator[Fact]:
        return iter(sorted(self._multiplicities, key=repr))

    def __contains__(self, edge: Fact | tuple[Node, str, Node]) -> bool:
        return _as_fact(edge) in self._multiplicities

    def __repr__(self) -> str:
        return f"BagGraphDatabase({len(self._multiplicities)} facts)"

    def content_fingerprint(self) -> str:
        """Return a content digest of the bag (facts and multiplicities).

        See :meth:`GraphDatabase.content_fingerprint`; bag fingerprints are
        tagged with the semantics, so no set/bag pair ever collides.
        """
        if self._content_fingerprint is None:
            self._content_fingerprint = _fingerprint_facts("bag", self._multiplicities.items())
        return self._content_fingerprint

    # ------------------------------------------------------------------ pickling

    def __getstate__(self) -> dict:
        # Same as GraphDatabase: derived caches are rebuilt lazily, don't ship.
        state = self.__dict__.copy()
        state["_database"] = None
        state["_index"] = None
        state["_content_fingerprint"] = None
        return state

    # ------------------------------------------------------------------ modifications

    def remove(self, facts: Iterable[Fact | tuple[Node, str, Node]]) -> "BagGraphDatabase":
        removed = {_as_fact(edge) for edge in facts}
        return BagGraphDatabase(
            {fact: mult for fact, mult in self._multiplicities.items() if fact not in removed}
        )

    def reverse(self) -> "BagGraphDatabase":
        return BagGraphDatabase(
            {Fact(fact.target, fact.label, fact.source): mult for fact, mult in self._multiplicities.items()}
        )


def as_set(database: GraphDatabase | BagGraphDatabase) -> GraphDatabase:
    """Return the set-semantics view of a database (drop multiplicities)."""
    if isinstance(database, BagGraphDatabase):
        return database.database
    return database
