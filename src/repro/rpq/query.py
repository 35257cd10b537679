"""Boolean regular path queries (RPQs).

An RPQ ``Q_L`` is satisfied by a database ``D`` when ``D`` contains a walk
labelled by a word of ``L`` (walk semantics, Section 2 of the paper).
"""

from __future__ import annotations

from ..graphdb.database import BagGraphDatabase, Fact, GraphDatabase, as_set
from ..languages.core import Language
from . import evaluation, matching


class RPQ:
    """A Boolean regular path query defined by a regular language."""

    def __init__(self, language: Language) -> None:
        self.language = language

    @classmethod
    def from_regex(cls, expression: str) -> "RPQ":
        return cls(Language.from_regex(expression))

    @property
    def name(self) -> str:
        return self.language.name or "<RPQ>"

    def holds(self, database: GraphDatabase | BagGraphDatabase) -> bool:
        """Return whether the query is satisfied by the database.

        Evaluation reads the database's index; multiplicities are invisible
        to queries.
        """
        return evaluation.has_l_walk(self.language.automaton, database)

    def __call__(self, database: GraphDatabase | BagGraphDatabase) -> bool:
        return self.holds(database)

    def witness_walk(self, database: GraphDatabase | BagGraphDatabase) -> list[Fact] | None:
        """Return a shortest witnessing walk (list of facts), or ``None``."""
        return evaluation.find_l_walk(self.language.automaton, database)

    def matches(
        self, database: GraphDatabase | BagGraphDatabase, max_walk_length: int | None = None
    ) -> set[frozenset[Fact]]:
        """Return all matches (fact sets of ``L``-walks) of the query on the database."""
        return matching.enumerate_matches(self.language, as_set(database), max_walk_length)

    def is_contingency_set(
        self, database: GraphDatabase | BagGraphDatabase, facts: frozenset[Fact] | set[Fact]
    ) -> bool:
        """Return whether removing ``facts`` from the database falsifies the query."""
        return not self.holds(database.remove(facts))

    def __repr__(self) -> str:
        return f"RPQ({self.name!r})"
