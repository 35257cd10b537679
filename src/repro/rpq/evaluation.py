"""RPQ evaluation by product construction (Section 2 of the paper).

``Q_L(D) = 1`` iff the database contains a walk labelled by a word of ``L``.
Evaluation builds the product of the database (viewed as an automaton whose
states are nodes and whose transitions are facts) with an epsilon-NFA for ``L``
and checks reachability; a witness walk can be extracted from the BFS tree.

The evaluator runs on *compiled query plans*: the automaton is trimmed and its
epsilon closures and ``(state, label)`` transition indexes are computed once
(:class:`~repro.languages.automata.CompiledAutomaton`), and the database's node
set and adjacency lists come from its cached
:class:`~repro.graphdb.index.DatabaseIndex`.  Callers that evaluate many
sub-databases of one database (the exact resilience search) use
:func:`find_l_walk_ids` with a removed-fact mask, which avoids materializing
sub-databases entirely.  All orders are deterministic (sorted by ``repr``), so
the returned walk — and anything derived from it, such as branch-and-bound
node counts — is reproducible across runs.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from ..graphdb.database import BagGraphDatabase, Fact, GraphDatabase, Node
from ..graphdb.index import DatabaseIndex
from ..languages.automata import CompiledAutomaton, EpsilonNFA, State, compile_automaton


def has_l_walk(
    automaton: EpsilonNFA | CompiledAutomaton, database: GraphDatabase | BagGraphDatabase
) -> bool:
    """Return whether the database contains an ``L``-walk for ``L = L(automaton)``."""
    return find_l_walk(automaton, database) is not None


def find_l_walk(
    automaton: EpsilonNFA | CompiledAutomaton, database: GraphDatabase | BagGraphDatabase
) -> list[Fact] | None:
    """Return a shortest ``L``-walk of the database as a list of facts, or ``None``.

    The empty walk (when the empty word belongs to ``L``) is returned as ``[]``.
    The walk is shortest in number of edges, which makes it a convenient
    branching witness for the exact resilience algorithm.  Accepts either a raw
    :class:`EpsilonNFA` (compiled through the shared plan cache) or an already
    compiled plan.
    """
    plan = automaton if isinstance(automaton, CompiledAutomaton) else compile_automaton(automaton)
    index = database.index()
    ids = find_l_walk_ids(plan, index)
    if ids is None:
        return None
    return index.facts_of_ids(ids)


def find_l_walk_ids(
    plan: CompiledAutomaton,
    index: DatabaseIndex,
    removed: Sequence[int] | None = None,
) -> list[int] | None:
    """Product-BFS for a shortest ``L``-walk over an indexed (sub-)database.

    Args:
        plan: the compiled query plan.
        index: the shared database index.
        removed: optional removed-fact mask — any sequence indexed by fact id
            whose truthy entries mark facts excluded from the sub-database
            (typically a ``bytearray``).  ``None`` evaluates the full database.

    Returns:
        the fact ids of a shortest walk (``[]`` for the empty walk), or ``None``
        when no ``L``-walk exists.
    """
    if plan.is_empty:
        return None
    if plan.accepts_empty:
        return []
    if not index.facts:
        return None

    facts = index.facts
    outgoing = index.outgoing_ids
    steps = plan.steps
    final_states = plan.final

    # Product BFS over pairs (database node, automaton state); automaton states
    # are always taken epsilon-closed.  Nodes whose facts are all removed only
    # contribute dead start pairs, which cost nothing to skip.
    parents: dict[tuple[Node, State], tuple[tuple[Node, State], int] | None] = {}
    queue: deque[tuple[Node, State]] = deque()
    for node in index.nodes:
        for state in plan.initial_closure:
            pair = (node, state)
            parents[pair] = None
            queue.append(pair)

    while queue:
        pair = queue.popleft()
        node, state = pair
        for fact_id in outgoing.get(node, ()):
            if removed is not None and removed[fact_id]:
                continue
            fact = facts[fact_id]
            targets = steps.get((state, fact.label))
            if not targets:
                continue
            for closed in targets:
                next_pair = (fact.target, closed)
                if next_pair in parents:
                    continue
                parents[next_pair] = (pair, fact_id)
                if closed in final_states:
                    return _reconstruct_walk_ids(parents, next_pair)
                queue.append(next_pair)
    return None


def _reconstruct_walk_ids(
    parents: dict[tuple[Node, State], tuple[tuple[Node, State], int] | None],
    end: tuple[Node, State],
) -> list[int]:
    walk: list[int] = []
    current = end
    while True:
        entry = parents[current]
        if entry is None:
            break
        previous, fact_id = entry
        walk.append(fact_id)
        current = previous
    walk.reverse()
    return walk


def walk_label(walk: list[Fact]) -> str:
    """Return the word labelling a walk."""
    return "".join(fact.label for fact in walk)


def is_walk(walk: list[Fact]) -> bool:
    """Return whether a list of facts forms a walk (consecutive facts share endpoints)."""
    return all(walk[index].target == walk[index + 1].source for index in range(len(walk) - 1))
