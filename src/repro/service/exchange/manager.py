"""Node lifecycle: launchers make nodes, the manager tracks the fleet.

The :class:`NodeManager`/:class:`NodeLauncher` split separates *what the
fleet is* from *how a node comes to exist*: the manager owns the registry
(spawn, drain, kill, replace, heartbeat) and is transport-blind; a launcher
knows how to construct one concrete node — in-process
(:class:`ThreadNodeLauncher`) or behind a socket
(:class:`~repro.service.exchange.http.HttpNodeLauncher`).

Replacement preserves identity: :meth:`NodeManager.replace` registers the
new node under the dead node's id, so rendezvous routing hands it exactly
the dead node's keys and every other node keeps its warm databases (see
:mod:`~repro.service.exchange.router`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ...exceptions import ReproError
from ..cache import LanguageCache
from .base import Node
from .health import HealthMonitor
from .nodes import ThreadNode


class NodeLauncher(ABC):
    """Constructs one node per :meth:`launch` call; owns launch-time config."""

    @abstractmethod
    def launch(self, node_id: str) -> Node:
        ...

    def close(self) -> None:
        """Release launcher-held resources (idempotent)."""


class ThreadNodeLauncher(NodeLauncher):
    """Launches :class:`~repro.service.exchange.nodes.ThreadNode` instances.

    ``cache`` (optional) is shared by *every* node this launcher makes —
    the fleet-wide session cache of the conformance harness.  Omit it and
    each node owns a private cache instead.
    """

    def __init__(
        self, *, max_workers: int | None = None, cache: LanguageCache | None = None
    ) -> None:
        self._max_workers = max_workers
        self._cache = cache

    def launch(self, node_id: str) -> ThreadNode:
        return ThreadNode(node_id, max_workers=self._max_workers, cache=self._cache)


class NodeManager:
    """The fleet registry: who exists, who serves, who gets replaced.

    Registration is strict: a second node under a *live* id is a
    configuration error and raises — silently shadowing a serving node would
    strand its in-flight streams.  Re-registering over a dead node is how
    replacement works.
    """

    def __init__(self, launcher: NodeLauncher | None = None) -> None:
        self._launcher = launcher
        self._nodes: dict[str, Node] = {}
        self._draining: set[str] = set()
        self._spawned = 0
        self._monitor: HealthMonitor | None = None

    # ---------------------------------------------------------------- registry

    @property
    def launcher(self) -> NodeLauncher | None:
        return self._launcher

    def register(self, node: Node) -> None:
        existing = self._nodes.get(node.node_id)
        if existing is not None and existing.alive:
            raise ReproError(
                f"duplicate node registration: {node.node_id!r} is already live"
            )
        self._nodes[node.node_id] = node
        self._draining.discard(node.node_id)

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise ReproError(f"unknown node {node_id!r}") from None

    def node_ids(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    def live_ids(self) -> list[str]:
        """Routable nodes: believed alive and not draining.

        Uses each node's cached :attr:`~repro.service.exchange.base.Node.alive`
        belief — active probing is :meth:`heartbeat`'s job, so routing a
        submission never blocks on N network round-trips.
        """
        return [
            node_id
            for node_id, node in self._nodes.items()
            if node.alive and node_id not in self._draining
        ]

    # --------------------------------------------------------------- lifecycle

    def spawn(self, count: int = 1) -> list[Node]:
        """Launch and register ``count`` fresh nodes (``node-0``, ``node-1``…)."""
        if self._launcher is None:
            raise ReproError("this NodeManager has no launcher; register nodes yourself")
        spawned = []
        for _ in range(count):
            node = self._launcher.launch(f"node-{self._spawned}")
            self._spawned += 1
            self.register(node)
            spawned.append(node)
        return spawned

    def drain(self, node_id: str) -> None:
        """Stop routing new work to the node; in-flight streams finish."""
        self.node(node_id)
        self._draining.add(node_id)

    def kill(self, node_id: str) -> None:
        """Abruptly tear a node down (it stays registered, marked dead)."""
        self.node(node_id).kill()

    def replace(self, node_id: str) -> Node:
        """Launch a fresh node under an existing id (killing the old if live).

        Identity reuse is deliberate: the replacement inherits exactly the
        dead node's rendezvous keys, leaving every other node's warm
        databases untouched.
        """
        if self._launcher is None:
            raise ReproError("this NodeManager has no launcher; cannot replace nodes")
        old = self.node(node_id)
        if old.alive:
            old.kill()
        replacement = self._launcher.launch(node_id)
        self.register(replacement)
        return replacement

    def heartbeat(self) -> dict[str, bool]:
        """Actively probe every registered node; ``node_id -> alive``."""
        return {node_id: node.heartbeat() for node_id, node in self._nodes.items()}

    def stats(self):
        return tuple(node.stats() for node in self._nodes.values())

    # ------------------------------------------------------------- supervision

    @property
    def monitor(self) -> HealthMonitor | None:
        """The running health supervisor, if :meth:`start_monitor` was called."""
        return self._monitor

    def start_monitor(self, **kwargs) -> HealthMonitor:
        """Attach and start a :class:`HealthMonitor` over this fleet.

        Keyword arguments go to the monitor (``interval``,
        ``failure_threshold``, ``cooldown_ticks``, ``replace_after``).  One
        monitor per manager; :meth:`close` stops it.
        """
        if self._monitor is not None:
            raise ReproError("this NodeManager already has a health monitor")
        self._monitor = HealthMonitor(self, **kwargs)
        return self._monitor.start()

    def close(self) -> None:
        if self._monitor is not None:
            self._monitor.stop()
            self._monitor = None
        for node in self._nodes.values():
            node.close()
        if self._launcher is not None:
            self._launcher.close()
