"""Routed exchanges: fingerprint routing, scatter/gather, node failover.

:class:`RoutedExchange` is the shared engine of every multi-node exchange:
it routes each envelope part to the node that rendezvous-owns the part's
database fingerprint, scatters a multi-database envelope over one thread per
part (gathering their outcomes through one queue), and re-routes the
unserved tail of a part when its node dies mid-stream — falling back to an
in-process serial node, then to structured ``error`` outcomes, only when no
node (or replacement) can serve, so an envelope index is never lost.

:class:`ThreadExchange` is its in-process instantiation: N
:class:`~repro.service.exchange.nodes.ThreadNode`\\ s in this process, each
with its own warm worker pools — the first rung of the thread → HTTP
exchange ladder, where all routing/failover machinery is exercised without
any network in the loop.

Failover never loses or duplicates an outcome: outcomes already delivered
for a part stay delivered (their part-local indices are removed from the
``remaining`` set); the kill check runs *before* each yield, so an outcome
produced by a dying node's teardown path (e.g. a pool-shutdown error) is
discarded and its query recomputed on the next node — deterministic
execution makes the recomputed outcome identical to what the dead node
would have answered, which is exactly the property the distributed
conformance variants pin.
"""

from __future__ import annotations

import queue
import threading
from collections.abc import Iterator
from dataclasses import replace

from ...exceptions import ReproError
from ...metrics import CacheStats, NodeStats
from ..cache import LanguageCache
from ..outcome import ERROR, QueryOutcome
from ..server import CancelArg
from ..workload import Workload
from .base import EnvelopePart, Exchange, Node, WorkloadEnvelope
from .manager import NodeManager, ThreadNodeLauncher
from .nodes import ThreadNode
from .router import Router

#: Node failures tolerated per envelope part before its unserved queries
#: degrade (or fail structurally).
MAX_FAILOVERS = 3

#: End-of-part sentinel each scatter thread puts on the gather queue.
_PART_DONE = object()


class RoutedExchange(Exchange):
    """Envelope serving over a :class:`NodeManager` fleet.

    Args:
        manager: the node fleet (with or without a launcher; without one,
            failed nodes cannot be auto-replaced).  A part survives up to
            :data:`MAX_FAILOVERS` node failures.

    When a part's failover chain is exhausted (``NodeLost``), its unserved
    tail is served on a throwaway in-process serial node instead of failing
    structurally.  The serial path is the reference semantics every node is
    pinned against, so the fallback is outcome-identical by construction;
    each fallback that finishes increments :attr:`degraded_serves` (one that
    fails answers ``DegradedServeFailed`` and counts nothing).  Protocol
    breaches (a node ending its stream early) never degrade — replaying a
    broken contract in-process would mask the bug.
    """

    def __init__(self, manager: NodeManager) -> None:
        self._manager = manager
        self._router = Router()
        self._degraded_serves = 0
        self._lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ fleet

    @property
    def manager(self) -> NodeManager:
        return self._manager

    def register(self, node: Node) -> None:
        self._manager.register(node)

    def route_for(self, database) -> str:
        """The node id currently owning a database (testing/ops surface)."""
        return self._router.route(
            database.content_fingerprint(), self._manager.live_ids()
        )

    @property
    def degraded_serves(self) -> int:
        """Envelope parts answered by the in-process serial fallback."""
        with self._lock:
            return self._degraded_serves

    def stats(self) -> tuple[NodeStats, ...]:
        return self._manager.stats()

    def heartbeat(self) -> dict[str, bool]:
        return self._manager.heartbeat()

    def close(self) -> None:
        self._closed = True
        self._manager.close()

    # ---------------------------------------------------------------- serving

    def submit(
        self, envelope: WorkloadEnvelope, *, cancel: CancelArg = None
    ) -> Iterator[QueryOutcome]:
        if self._closed:
            raise ReproError(f"this {type(self).__name__} is closed")
        if len(envelope.parts) == 1:
            return self._serve_part(envelope.parts[0], 0, cancel)
        return self._scatter(envelope, cancel)

    def _scatter(
        self, envelope: WorkloadEnvelope, cancel: CancelArg
    ) -> Iterator[QueryOutcome]:
        """Serve each part on its own thread, gather through one queue.

        Each part thread puts its outcomes and then, in its ``finally``, one
        end-of-part sentinel; the stream ends at the last sentinel.  Closing
        the stream sets ``abandoned``, which every part thread checks before
        each put, so it stops serving after at most one further outcome.
        """
        gathered: queue.SimpleQueue = queue.SimpleQueue()
        abandoned = threading.Event()

        def serve_part(part: EnvelopePart, offset: int) -> None:
            try:
                for outcome in self._serve_part(part, offset, cancel):
                    if abandoned.is_set():
                        break
                    gathered.put(outcome)
            finally:
                gathered.put(_PART_DONE)

        for offset, part in zip(envelope.offsets(), envelope.parts):
            threading.Thread(
                target=serve_part,
                args=(part, offset),
                name=f"exchange-scatter-{offset}",
                daemon=True,
            ).start()
        try:
            for _ in envelope.parts:
                while (outcome := gathered.get()) is not _PART_DONE:
                    yield outcome
        finally:
            abandoned.set()

    def _serve_part(
        self, part: EnvelopePart, offset: int, cancel: CancelArg
    ) -> Iterator[QueryOutcome]:
        """Serve one part with re-route-on-death, yielding global indices."""
        fingerprint = part.fingerprint()
        specs = part.workload.specs
        remaining = dict(enumerate(specs))
        tried: set[int] = set()  # id() of node objects that already failed
        failures = 0
        reason = "NodeLost: no live node available to serve this workload"
        while remaining:
            node = self._pick_node(fingerprint, tried)
            if node is None:
                break
            clean_pass = True
            try:
                yield from self._drain_node(node, part, offset, remaining, cancel)
            except Exception as error:
                clean_pass = False
                reason = f"{type(error).__name__}: {error}"
            if not remaining:
                return
            if clean_pass and not node.killed:
                # The node's stream ended while queries were still unserved —
                # a broken serving contract, not a crash.  Re-routing would
                # just replay the bug elsewhere; fail what's left.
                reason = "NodeProtocolError: node ended its stream with unserved queries"
                break
            tried.add(id(node))
            failures += 1
            if failures > MAX_FAILOVERS:
                reason = f"NodeLost: gave up after {failures} node failures ({reason})"
                break
        if remaining and reason.startswith("NodeLost"):
            # The whole chain is gone, not misbehaving: serve the tail on a
            # throwaway serial node with a fresh string-keyed cache — the
            # uncached serial reference every node is pinned against — rather
            # than fail queries we can answer.
            node = ThreadNode("degraded", max_workers=1, cache=LanguageCache(canonical=False))
            drain = self._drain_node(node, part, offset, remaining, cancel)
            try:
                for outcome in drain:
                    if not remaining:
                        # The fallback answered the whole tail: count the
                        # rescue before its last outcome can be observed.
                        with self._lock:
                            self._degraded_serves += 1
                    yield outcome
            except Exception as error:
                reason = f"DegradedServeFailed: {type(error).__name__}: {error}"
            finally:
                drain.close()
                node.close()
        for local in sorted(remaining):
            spec = remaining[local]
            yield QueryOutcome.unserved(offset + local, spec, ERROR, reason, method=spec.method)

    def _drain_node(
        self,
        node: Node,
        part: EnvelopePart,
        offset: int,
        remaining: dict,
        cancel: CancelArg,
    ) -> Iterator[QueryOutcome]:
        """One node's attempt at a part's remaining queries.

        Delivered queries are removed from ``remaining`` as their outcomes
        are yielded; the kill check precedes every yield, so a node dying
        mid-stream leaves ``remaining`` exactly the unserved tail (teardown
        artifacts from the dying node are discarded, then recomputed by the
        next node).
        """
        locals_in_order = sorted(remaining)
        sub_workload = Workload(tuple(remaining[local] for local in locals_in_order))
        sub_cancel = self._sub_cancel(locals_in_order, offset, cancel)
        iterator = node.serve_iter(sub_workload, part.database, cancel=sub_cancel)
        try:
            for outcome in iterator:
                if node.killed:
                    return
                local = locals_in_order[outcome.index]
                if local in remaining:
                    del remaining[local]
                    yield replace(outcome, index=offset + local)
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    @staticmethod
    def _sub_cancel(
        locals_in_order: list[int], offset: int, cancel: CancelArg
    ) -> CancelArg:
        """Remap envelope-global cancel tokens onto a sub-workload's indices."""
        if cancel is None:
            return None
        return {
            sub_index: token
            for sub_index, local in enumerate(locals_in_order)
            if (token := cancel.get(offset + local)) is not None
        }

    def _pick_node(self, fingerprint: str, tried: set[int]) -> Node | None:
        """The best untried live node for a key, auto-replacing a dead fleet.

        When every registered node is dead or already failed this part and
        the manager has a launcher, one dead node is replaced (under its own
        id, preserving everyone else's routing) and serving continues there.
        """
        for _ in range(2):
            live = [
                node_id
                for node_id in self._manager.live_ids()
                if id(self._manager.node(node_id)) not in tried
            ]
            if live:
                return self._manager.node(self._router.route(fingerprint, live))
            if self._manager.launcher is None:
                return None
            dead = [
                node_id
                for node_id in self._manager.node_ids()
                if not self._manager.node(node_id).alive
            ]
            if not dead:
                return None
            # Replace the node that rendezvous-owns this key among the dead,
            # so the replacement is also the natural owner going forward.
            try:
                self._manager.replace(self._router.route(fingerprint, dead))
            # repro: allow[err-swallowed-except] -- replacement is opportunistic:
            # a failed launch means "no node", which the caller turns into
            # structured error outcomes for the unserved queries
            except Exception:
                return None
        return None


class ThreadExchange(RoutedExchange):
    """N in-process nodes, each with its own warm pools, routed by fingerprint.

    Args:
        nodes: fleet size to spawn.
        max_workers / cache: per-node server configuration (see
            :class:`~repro.service.exchange.nodes.ThreadNode`).

    A caller with its own fleet serves it through ``RoutedExchange(manager)``.
    """

    def __init__(
        self,
        nodes: int = 2,
        *,
        max_workers: int | None = None,
        cache: LanguageCache | None = None,
    ) -> None:
        if nodes < 1:
            raise ValueError(f"a ThreadExchange needs >= 1 node (got {nodes})")
        manager = NodeManager(ThreadNodeLauncher(max_workers=max_workers, cache=cache))
        manager.spawn(nodes)
        # Nodes sharing a cache report empty per-node CacheStats (see
        # ThreadNode.stats); the exchange reports the shared cache once.
        self._shared_cache = cache
        super().__init__(manager)

    def shared_cache_stats(self) -> "CacheStats | None":
        if self._shared_cache is None:
            return None
        return self._shared_cache.stats
