"""Synthetic workload generators for graph databases.

The paper evaluates its algorithms on arbitrary graph databases; these
generators produce the instance families used by the test suite and the
benchmark harness:

* labelled random graphs (Erdős–Rényi style),
* word walks and word chains (databases made of concatenated walks),
* layered flow networks encoded as ``a x* b`` databases (the MinCut connection
  of the introduction),
* random undirected graphs (inputs to the vertex-cover reduction).
"""

from __future__ import annotations

import random
from collections.abc import Iterable, Sequence

from .database import BagGraphDatabase, Fact, GraphDatabase


def random_labelled_graph(
    num_nodes: int,
    num_edges: int,
    alphabet: Sequence[str],
    seed: int = 0,
    *,
    allow_self_loops: bool = False,
) -> GraphDatabase:
    """Return a random graph database with ``num_edges`` distinct labelled edges."""
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(num_nodes)]
    facts: set[Fact] = set()
    attempts = 0
    max_attempts = 50 * max(num_edges, 1) + 100
    while len(facts) < num_edges and attempts < max_attempts:
        attempts += 1
        source = rng.choice(nodes)
        target = rng.choice(nodes)
        if source == target and not allow_self_loops:
            continue
        label = rng.choice(list(alphabet))
        facts.add(Fact(source, label, target))
    return GraphDatabase(facts)


def random_bag_database(
    num_nodes: int,
    num_edges: int,
    alphabet: Sequence[str],
    seed: int = 0,
    max_multiplicity: int = 10,
) -> BagGraphDatabase:
    """Return a random bag database with multiplicities in ``1..max_multiplicity``.

    Multiplicities are drawn in the database's sorted fact order (its
    iteration order), so one seed gives one bag whatever the hash seed.
    """
    rng = random.Random(seed)
    base = random_labelled_graph(num_nodes, num_edges, alphabet, seed)
    return BagGraphDatabase({fact: rng.randint(1, max_multiplicity) for fact in base})


def word_walk(word: str, prefix: str = "w", start: object | None = None, end: object | None = None) -> GraphDatabase:
    """Return a database consisting of one walk labelled by ``word``.

    The intermediate nodes are named ``{prefix}0, {prefix}1, ...``; the first and
    last nodes can be overridden to glue walks together.
    """
    if not word:
        return GraphDatabase()
    nodes: list[object] = [f"{prefix}{index}" for index in range(len(word) + 1)]
    if start is not None:
        nodes[0] = start
    if end is not None:
        nodes[-1] = end
    facts = [Fact(nodes[index], letter, nodes[index + 1]) for index, letter in enumerate(word)]
    return GraphDatabase(facts)


def word_chain(words: Iterable[str], prefix: str = "c") -> GraphDatabase:
    """Return a database made of disjoint walks, one per word."""
    result = GraphDatabase()
    for index, word in enumerate(words):
        result = result.union(word_walk(word, prefix=f"{prefix}{index}_"))
    return result


def layered_flow_database(
    num_layers: int,
    layer_width: int,
    seed: int = 0,
    *,
    source_label: str = "a",
    edge_label: str = "x",
    sink_label: str = "b",
    edge_probability: float = 0.5,
    max_multiplicity: int = 5,
) -> BagGraphDatabase:
    """Return a layered flow network encoded as a database for the RPQ ``a x* b``.

    The database has a single source node with ``source_label`` edges into the
    first layer, ``edge_label`` edges between consecutive layers, and
    ``sink_label`` edges from the last layer to a sink node.  The resilience of
    ``a x* b`` on this database equals the minimum cut of the corresponding flow
    network (Section 1 of the paper).
    """
    rng = random.Random(seed)
    multiplicities: dict[Fact, int] = {}
    source = "SRC"
    sink = "SNK"
    layers = [[f"L{layer}_{slot}" for slot in range(layer_width)] for layer in range(num_layers)]
    for node in layers[0]:
        multiplicities[Fact(source, source_label, node)] = rng.randint(1, max_multiplicity)
    for layer_index in range(num_layers - 1):
        for left in layers[layer_index]:
            for right in layers[layer_index + 1]:
                if rng.random() < edge_probability:
                    multiplicities[Fact(left, edge_label, right)] = rng.randint(1, max_multiplicity)
    for node in layers[-1]:
        multiplicities[Fact(node, sink_label, sink)] = rng.randint(1, max_multiplicity)
    return BagGraphDatabase(multiplicities)


def random_word_database(
    language_words: Sequence[str],
    num_walks: int,
    num_shared_nodes: int,
    seed: int = 0,
    alphabet: Sequence[str] = (),
) -> GraphDatabase:
    """Return a database built from random walks of language words over a shared node pool.

    Walks reuse nodes from a common pool, so that they overlap and create
    interesting resilience instances (shared facts, crossing matches).
    """
    rng = random.Random(seed)
    pool = [f"p{i}" for i in range(max(num_shared_nodes, 2))]
    facts: set[Fact] = set()
    for _ in range(num_walks):
        word = rng.choice(list(language_words))
        if not word:
            continue
        nodes = [rng.choice(pool) for _ in range(len(word) + 1)]
        for index, letter in enumerate(word):
            facts.add(Fact(nodes[index], letter, nodes[index + 1]))
    extra_letters = list(alphabet)
    if extra_letters:
        for _ in range(num_walks // 2):
            facts.add(Fact(rng.choice(pool), rng.choice(extra_letters), rng.choice(pool)))
    return GraphDatabase(facts)


def random_undirected_graph(num_vertices: int, edge_probability: float, seed: int = 0) -> list[tuple[int, int]]:
    """Return a random undirected graph as a list of edges over ``0..num_vertices-1``."""
    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    for left in range(num_vertices):
        for right in range(left + 1, num_vertices):
            if rng.random() < edge_probability:
                edges.append((left, right))
    return edges


def cycle_graph(num_vertices: int) -> list[tuple[int, int]]:
    """Return the undirected cycle on ``num_vertices`` vertices."""
    return [(index, (index + 1) % num_vertices) for index in range(num_vertices)]


def complete_graph(num_vertices: int) -> list[tuple[int, int]]:
    """Return the complete undirected graph on ``num_vertices`` vertices."""
    return [
        (left, right) for left in range(num_vertices) for right in range(left + 1, num_vertices)
    ]
