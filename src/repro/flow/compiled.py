"""Array-native flow core: compiled residual graphs and a fast Dinic solver.

The object layer (:class:`~repro.flow.network.FlowNetwork` of tuple-keyed nodes
and frozen :class:`~repro.flow.network.FlowEdge` dataclasses, solved by the
pure-Python :func:`~repro.flow.mincut.min_cut`) is the semantics of this
package; it is kept as the differential reference.  This module is the hot
path: a :class:`CompiledFlowGraph` stores the residual graph as flat ``int``
arrays in CSR form — dense node ids, per-node contiguous arc ranges, explicit
reverse-arc indices — and :func:`min_cut_compiled` runs Dinic with a true
blocking-flow DFS directly over those arrays.

Representation invariants:

* **Dense node ids.**  Nodes are ``0 .. num_nodes-1``; callers (the reduction
  compilers in :mod:`repro.flow.substrate`) assign ids arithmetically, so no
  tuples are ever hashed or sorted while solving.
* **CSR arcs.**  Residual arcs are numbered by *position*: node ``v``'s arcs
  occupy ``adj_start[v] .. adj_start[v+1] - 1`` of the flat ``arc_head`` /
  ``arc_capacity`` / ``arc_rev`` arrays, so the solver's cursors are plain
  array indices and an arc id needs no indirection to find its capacity.
  ``arc_rev[p]`` is the position of arc ``p``'s reverse arc; edge ``e``'s
  forward arc sits at ``forward_pos[e]``.
* **Exact arithmetic.**  When every positive finite capacity is integral (the
  resilience reductions only produce integer multiplicities), capacities are
  stored as Python ints and the whole computation is exact; the final value is
  snapped to ``float`` exactly as the reference solver does.  Fractional
  capacities are kept as given — no rounding is ever applied.
* **∞ sentinel.**  Infinite capacities are stored as the explicit sentinel
  ``math.inf``; an augmenting path whose bottleneck is the sentinel proves no
  finite cut exists, and the solver returns infinity without ever doing
  ``inf - inf`` arithmetic.
* **Canonical cuts.**  After any exact maximum flow, the set of nodes
  reachable from the source in the residual graph is the unique
  inclusion-minimal min-cut source side — it does not depend on augmentation
  order.  Both solvers therefore return the *same* cut edges on the same
  network, which is what lets the tests substitute the reference solver and
  get byte-identical outcomes (pinned by the conformance suite).

:func:`fast_min_cut` is a drop-in replacement for
:func:`~repro.flow.mincut.min_cut` on a :class:`FlowNetwork`;
:func:`solve_min_cut` is the reductions' entry point on an already-compiled
graph, and :func:`reference_min_cut` its object-layer test oracle.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .mincut import MinCutResult, min_cut
from .network import FlowNetwork, Node

INFINITY = math.inf


class CompiledFlowGraph:
    """An immutable residual flow graph compiled to flat CSR arrays.

    Attributes:
        num_nodes: number of dense node ids (``0 .. num_nodes-1``).
        source, target: dense ids of the source and target.
        num_edges: number of *edges* (each edge owns a forward and a backward
            residual arc).
        adj_start: CSR offsets (length ``num_nodes + 1``): node ``v``'s arcs
            are positions ``adj_start[v] .. adj_start[v+1] - 1``.
        arc_head: head node of the arc at each position (length ``2 * num_edges``).
        arc_capacity: capacity at each position — exact ints (or raw floats
            for fractional networks) for finite forward arcs, the ``math.inf``
            sentinel for infinite ones, ``0`` for backward arcs.
        arc_rev: position of each arc's reverse arc.
        forward_pos: position of each edge's forward arc (length ``num_edges``).
        arc_key: per-edge key (length ``num_edges``): the
            :class:`~repro.graphdb.database.Fact` a finite product arc encodes,
            ``None`` for structural (infinite) arcs.
        integral: whether every positive finite capacity is integral (the
            solver then runs in exact integer arithmetic).
    """

    __slots__ = (
        "num_nodes",
        "source",
        "target",
        "num_edges",
        "adj_start",
        "arc_head",
        "arc_capacity",
        "arc_rev",
        "forward_pos",
        "arc_key",
        "integral",
    )

    def __init__(
        self,
        num_nodes: int,
        source: int,
        target: int,
        adj_start: list[int],
        arc_head: list[int],
        arc_capacity: list,
        arc_rev: list[int],
        forward_pos: list[int],
        arc_key: list,
        integral: bool,
    ) -> None:
        self.num_nodes = num_nodes
        self.source = source
        self.target = target
        self.num_edges = len(arc_key)
        self.adj_start = adj_start
        self.arc_head = arc_head
        self.arc_capacity = arc_capacity
        self.arc_rev = arc_rev
        self.forward_pos = forward_pos
        self.arc_key = arc_key
        self.integral = integral

    def edge_endpoints(self, edge: int) -> tuple[int, int]:
        """Return ``(tail, head)`` node ids of edge ``edge``."""
        position = self.forward_pos[edge]
        return self.arc_head[self.arc_rev[position]], self.arc_head[position]

    def edge_capacity(self, edge: int):
        """Return the (original) capacity of edge ``edge``."""
        return self.arc_capacity[self.forward_pos[edge]]

    def to_network(self) -> FlowNetwork:
        """Materialize the object-layer :class:`FlowNetwork` of this graph.

        Used by :func:`reference_min_cut`: the retained
        :func:`~repro.flow.mincut.min_cut` then runs on exactly the network
        this graph encodes, so the two solvers are differential twins.
        """
        network = FlowNetwork(source=self.source, target=self.target)
        arc_head = self.arc_head
        arc_rev = self.arc_rev
        capacities = self.arc_capacity
        for edge, position in enumerate(self.forward_pos):
            network.add_edge(
                arc_head[arc_rev[position]],
                arc_head[position],
                capacities[position],
                key=self.arc_key[edge],
            )
        return network

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "int" if self.integral else "float"
        return (
            f"CompiledFlowGraph({self.num_nodes} nodes, {self.num_edges} edges, "
            f"{kind} capacities)"
        )


class FlowGraphBuilder:
    """Accumulates edges into the flat arrays of a :class:`CompiledFlowGraph`.

    Callers address nodes by dense int ids (``0 .. num_nodes-1``).  Zero (and
    negative) capacity edges are dropped on the spot: they can never carry
    flow nor appear in a cut, and skipping them keeps the solver's arrays free
    of dead weight — mirroring the reference solver, which never hands them to
    Dinic either.

    During accumulation the edge at index ``e`` is stored interleaved:
    ``_raw_target[2e]`` is its head, ``_raw_target[2e + 1]`` its tail, and
    ``_raw_capacity[2e]`` / ``_raw_capacity[2e + 1]`` its forward / backward
    (always 0) capacity; :meth:`build` rearranges the arcs into CSR order.
    """

    __slots__ = ("num_nodes", "integral_hint", "_raw_target", "_raw_capacity", "_raw_key")

    def __init__(self, num_nodes: int, *, integral_hint: bool = False) -> None:
        self.num_nodes = num_nodes
        # Compilers whose capacities are integer multiplicities by construction
        # (the resilience reductions) set the hint so build() skips the per-arc
        # integrality scan and conversion.
        self.integral_hint = integral_hint
        self._raw_target: list[int] = []
        self._raw_capacity: list = []
        self._raw_key: list = []

    def add(self, source: int, target: int, capacity, key=None) -> None:
        """Add one finite-capacity edge (zero-capacity edges are dropped)."""
        if capacity <= 0:
            return
        self._raw_target.append(target)
        self._raw_target.append(source)
        self._raw_capacity.append(capacity)
        self._raw_capacity.append(0)
        self._raw_key.append(key)

    def add_infinite(self, source: int, target: int, key=None) -> None:
        """Add one ∞-capacity (structural) edge."""
        self._raw_target.append(target)
        self._raw_target.append(source)
        self._raw_capacity.append(INFINITY)
        self._raw_capacity.append(0)
        self._raw_key.append(key)

    def extend_infinite(self, pairs) -> None:
        """Bulk-add ∞-capacity edges from ``(source, target)`` pairs.

        The compilers' structural wiring (epsilon transitions, source/target
        attachments) is thousands of edges per graph; three C-level extends
        beat one Python call per edge.
        """
        interleaved = [node for source, target in pairs for node in (target, source)]
        count = len(interleaved) // 2
        self._raw_target.extend(interleaved)
        self._raw_capacity.extend((INFINITY, 0) * count)
        self._raw_key.extend((None,) * count)

    def extend_raw(self, targets_interleaved, capacities_interleaved, keys) -> None:
        """Bulk-add pre-interleaved arc columns (the substrate compilers' path).

        ``targets_interleaved`` alternates forward-arc head and tail (i.e.
        ``[head_0, tail_0, head_1, tail_1, ...]``), ``capacities_interleaved``
        alternates forward capacity and the backward 0, and ``keys`` holds one
        key per edge.  The caller guarantees positive capacities.
        """
        self._raw_target.extend(targets_interleaved)
        self._raw_capacity.extend(capacities_interleaved)
        self._raw_key.extend(keys)

    def build(self, source: int, target: int, *, trim: bool = False) -> CompiledFlowGraph:
        """Freeze the accumulated edges into a CSR :class:`CompiledFlowGraph`.

        With ``trim=True`` the graph is restricted to its *useful* core first:
        nodes reachable from the source and co-reachable to the target along
        forward edges (the flow-network analogue of automaton trimming,
        Definition C.3).  Trimming never changes the max-flow value nor the
        canonical cut edges — flow decomposes into source→target paths, which
        live entirely inside the useful core, and a dropped edge is never
        saturated, hence never crosses the residual-reachability cut — it only
        shrinks the arrays the solver sweeps each phase.  The reduction
        compilers trim; :func:`compile_network` does not (its drop-in contract
        includes the reference's full ``source_side``).
        """
        raw_target = self._raw_target
        raw_capacity = self._raw_capacity
        raw_key = self._raw_key
        num_nodes = self.num_nodes
        if self.integral_hint:
            integral = True
        else:
            integral = all(
                # repro: allow[exact-float-cast] -- integrality scan only: it
                # classifies capacities; no result value flows from this float
                capacity == INFINITY or float(capacity).is_integer()
                for capacity in raw_capacity[::2]
            )
            if integral:
                raw_capacity = [
                    INFINITY if capacity == INFINITY else int(capacity)
                    for capacity in raw_capacity
                ]
        if trim:
            raw_target, raw_capacity, raw_key = self._trim(
                source, target, raw_target, raw_capacity, raw_key
            )
        num_arcs = len(raw_target)
        # Tail of arc ``a`` is the head of its pair partner: swap the
        # interleaved halves with C-level slice assignments.
        raw_tail = raw_target[:]
        raw_tail[0::2] = raw_target[1::2]
        raw_tail[1::2] = raw_target[0::2]
        # Counting sort into CSR position order.
        counts = [0] * (num_nodes + 1)
        for tail in raw_tail:
            counts[tail + 1] += 1
        adj_start = counts
        for node in range(1, num_nodes + 1):
            adj_start[node] += adj_start[node - 1]
        cursor = adj_start[:-1]
        arc_head = [0] * num_arcs
        arc_capacity: list = [0] * num_arcs
        arc_rev = [0] * num_arcs
        forward_pos = [0] * (num_arcs // 2)
        for edge in range(num_arcs // 2):
            forward = 2 * edge
            backward = forward + 1
            tail = raw_tail[forward]
            head = raw_target[forward]
            forward_at = cursor[tail]
            cursor[tail] = forward_at + 1
            backward_at = cursor[head]
            cursor[head] = backward_at + 1
            arc_head[forward_at] = head
            arc_head[backward_at] = tail
            arc_capacity[forward_at] = raw_capacity[forward]
            arc_rev[forward_at] = backward_at
            arc_rev[backward_at] = forward_at
            forward_pos[edge] = forward_at
        return CompiledFlowGraph(
            num_nodes,
            source,
            target,
            adj_start,
            arc_head,
            arc_capacity,
            arc_rev,
            forward_pos,
            raw_key,
            integral,
        )

    @staticmethod
    def _trim(
        source: int, target: int, raw_target: list[int], raw_capacity: list, raw_key: list
    ) -> tuple[list[int], list, list]:
        """Drop every edge with a useless endpoint (see :meth:`build`)."""
        heads = raw_target[0::2]
        tails = raw_target[1::2]
        successors: dict[int, list[int]] = {}
        predecessors: dict[int, list[int]] = {}
        for tail, head in zip(tails, heads):
            successors.setdefault(tail, []).append(head)
            predecessors.setdefault(head, []).append(tail)

        def closure(start: int, adjacency: dict[int, list[int]]) -> set[int]:
            seen = {start}
            stack = [start]
            while stack:
                node = stack.pop()
                for neighbour in adjacency.get(node, ()):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        stack.append(neighbour)
            return seen

        useful = closure(source, successors) & closure(target, predecessors)
        kept = [
            edge
            for edge, (tail, head) in enumerate(zip(tails, heads))
            if tail in useful and head in useful
        ]
        if len(kept) == len(raw_key):
            return raw_target, raw_capacity, raw_key
        new_target: list[int] = []
        new_capacity: list = []
        for edge in kept:
            forward = 2 * edge
            new_target.append(raw_target[forward])
            new_target.append(raw_target[forward + 1])
            new_capacity.append(raw_capacity[forward])
            new_capacity.append(0)
        return new_target, new_capacity, [raw_key[edge] for edge in kept]


@dataclass(frozen=True)
class CompiledCut:
    """A min-cut of a :class:`CompiledFlowGraph`.

    Attributes:
        value: minimum cut cost (``math.inf`` when no finite cut exists;
            a float of an exact int for integral graphs).
        cut_edges: edge ids of one minimum cut, ascending (empty when the
            value is 0 or infinite).
        cut_keys: the keys of those edges, aligned with ``cut_edges``.
        source_side: dense ids of the nodes reachable from the source in the
            final residual graph (empty for infinite cuts).
    """

    value: float
    cut_edges: tuple[int, ...]
    cut_keys: tuple
    source_side: frozenset[int]

    @property
    def is_infinite(self) -> bool:
        return self.value == INFINITY


_INFINITE_CUT = CompiledCut(INFINITY, (), (), frozenset())


def min_cut_compiled(graph: CompiledFlowGraph) -> CompiledCut:
    """Solve MinCut on a compiled graph with an array-native Dinic.

    Value-identical to running the reference :func:`~repro.flow.mincut.min_cut`
    on :meth:`CompiledFlowGraph.to_network`, and cut-identical too whenever the
    arithmetic is exact (integral capacities, or floats without rounding): the
    residual-reachable source side of an exact max flow is canonical.
    """
    source, target = graph.source, graph.target
    if source == target:
        return CompiledCut(INFINITY, (), (), frozenset({source}))
    num_nodes = graph.num_nodes
    adj_start = graph.adj_start
    arc_head = graph.arc_head
    arc_rev = graph.arc_rev
    caps = list(graph.arc_capacity)

    total = 0
    while True:
        # BFS phase: level graph over positive-residual arcs.  Expansion stops
        # at the target's level — deeper nodes cannot lie on a shortest
        # augmenting path, so leaving them at level -1 only prunes the DFS.
        level = [-1] * num_nodes
        level[source] = 0
        queue = deque((source,))
        target_level = -1
        while queue:
            node = queue.popleft()
            next_level = level[node] + 1
            if next_level == target_level:
                break
            for position in range(adj_start[node], adj_start[node + 1]):
                if caps[position] > 0:
                    head = arc_head[position]
                    if level[head] < 0:
                        level[head] = next_level
                        if head == target:
                            target_level = next_level
                        else:
                            queue.append(head)
        if target_level < 0:
            break

        # Blocking-flow phase: one iterative DFS whose per-node cursors are
        # absolute positions into the CSR arrays.
        cursor = adj_start[:-1]
        path: list[int] = []
        node = source
        while True:
            if node == target:
                bottleneck = INFINITY
                first_min = -1
                for index, position in enumerate(path):
                    capacity = caps[position]
                    if capacity < bottleneck:
                        bottleneck = capacity
                        first_min = index
                if bottleneck == INFINITY:
                    # An all-∞ augmenting path: no finite cut exists.  Return
                    # before touching capacities (inf - inf is undefined).
                    return _INFINITE_CUT
                for position in path:
                    caps[position] -= bottleneck
                    caps[arc_rev[position]] += bottleneck
                total += bottleneck
                # Retreat to the first saturated arc (its capacity equalled
                # the bottleneck, so the subtraction zeroed it exactly) and
                # keep extending from its tail.
                node = arc_head[arc_rev[path[first_min]]]
                del path[first_min:]
                continue
            tail = node
            position = cursor[tail]
            end = adj_start[tail + 1]
            advanced = False
            next_level = level[tail] + 1
            while position < end:
                if caps[position] > 0:
                    head = arc_head[position]
                    if level[head] == next_level:
                        path.append(position)
                        node = head
                        advanced = True
                        break
                position += 1
            cursor[tail] = position
            if advanced:
                continue
            # Dead end: prune the node from the level graph and retreat.
            if not path:
                break
            level[node] = -1
            position = path.pop()
            node = arc_head[arc_rev[position]]
            cursor[node] += 1

    # Cut recovery: residual reachability from the source (canonical).
    seen = bytearray(num_nodes)
    seen[source] = 1
    stack = [source]
    while stack:
        node = stack.pop()
        for position in range(adj_start[node], adj_start[node + 1]):
            if caps[position] > 0:
                head = arc_head[position]
                if not seen[head]:
                    seen[head] = 1
                    stack.append(head)
    original = graph.arc_capacity
    cut_edges = []
    for edge, position in enumerate(graph.forward_pos):
        if seen[arc_head[arc_rev[position]]] and not seen[arc_head[position]]:
            if original[position] > 0:
                cut_edges.append(edge)
    # repro: allow[exact-float-cast] -- sanctioned result snap: integral optima
    # are reported as floats exactly as the reference solver formats them
    value = float(total) if graph.integral else total
    return CompiledCut(
        value,
        tuple(cut_edges),
        tuple(graph.arc_key[edge] for edge in cut_edges),
        frozenset(node for node in range(num_nodes) if seen[node]),
    )


def solve_min_cut(graph: CompiledFlowGraph) -> CompiledCut:
    """Solve a compiled graph: the resilience reductions' min-cut entry point.

    Runs the array Dinic (:func:`min_cut_compiled`).  The reductions call it
    through their module globals, so tests can substitute
    :func:`reference_min_cut` for it.
    """
    return min_cut_compiled(graph)


def reference_min_cut(graph: CompiledFlowGraph) -> CompiledCut:
    """Solve a compiled graph with the object-layer solver (the test oracle).

    Materializes the graph back into a :class:`FlowNetwork` and runs the
    retained :func:`~repro.flow.mincut.min_cut`.  On exact-arithmetic graphs
    it returns the same value *and* the same cut edges as
    :func:`solve_min_cut` (canonical cuts), which the conformance suite
    asserts byte for byte.
    """
    # Map the cut back by edge identity: FlowEdge equality is by value, and
    # parallel edges of a product network can be value-equal.
    network = graph.to_network()
    result = min_cut(network)
    if result.value == INFINITY:
        return _INFINITE_CUT
    edge_ids = {id(edge): index for index, edge in enumerate(network.edges)}  # repro: allow[det-id] -- identity map from edge objects to their positions; ids are keys, never ordered or emitted
    cut_edges = tuple(edge_ids[id(edge)] for edge in result.cut_edges)
    return CompiledCut(
        result.value,
        cut_edges,
        tuple(edge.key for edge in result.cut_edges),
        frozenset(result.source_side),
    )


def compile_network(network: FlowNetwork) -> tuple[CompiledFlowGraph, list[Node]]:
    """Compile an object-layer :class:`FlowNetwork` into a flat graph.

    Nodes get dense ids by first appearance (source, target, then edge
    endpoints in edge order) — never by sorting reprs.  Edge keys are the
    original :class:`~repro.flow.network.FlowEdge` objects so results can be
    mapped back losslessly.  Returns the graph and the id → node table.
    """
    index_of: dict[Node, int] = {}
    order: list[Node] = []

    def node_id(node: Node) -> int:
        identifier = index_of.get(node)
        if identifier is None:
            identifier = len(order)
            index_of[node] = identifier
            order.append(node)
        return identifier

    node_id(network.source)
    node_id(network.target)
    edges = network.edges
    endpoints = [(node_id(edge.source), node_id(edge.target)) for edge in edges]
    builder = FlowGraphBuilder(len(order))
    for (source, target), edge in zip(endpoints, edges):
        if edge.capacity == INFINITY:
            builder.add_infinite(source, target, key=edge)
        else:
            builder.add(source, target, edge.capacity, key=edge)
    graph = builder.build(index_of[network.source], index_of[network.target])
    return graph, order


def fast_min_cut(network: FlowNetwork) -> MinCutResult:
    """Array-native drop-in replacement for :func:`~repro.flow.mincut.min_cut`.

    Compiles the network once and solves it with :func:`min_cut_compiled`.
    On exact-arithmetic networks (integral capacities, or floats that add and
    subtract without rounding) the returned :class:`MinCutResult` is equal to
    the reference solver's field for field — same value, same cut edges in
    the same order, same source side — because the residual-reachable min cut
    is canonical.  Pinned by the hypothesis differential suite.
    """
    if network.source == network.target:
        return MinCutResult(INFINITY, (), frozenset({network.source}), INFINITY)
    graph, nodes = compile_network(network)
    cut = min_cut_compiled(graph)
    if cut.value == INFINITY:
        return MinCutResult(INFINITY, (), frozenset(), INFINITY)
    return MinCutResult(
        cut.value,
        cut.cut_keys,  # keys are the FlowEdge objects themselves
        frozenset(nodes[identifier] for identifier in cut.source_side),
        cut.value,
    )
