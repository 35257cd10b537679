"""In-process serving nodes: one warm :class:`ResilienceServer` per database.

A :class:`ThreadNode` is the node-layer runtime every exchange ultimately
serves through: it lazily builds one
:class:`~repro.service.server.ResilienceServer` per registered database
fingerprint (each with its own warm worker pool) and streams outcomes for
sub-workloads routed to it.  :class:`ThreadExchange` holds several of these
directly; the HTTP transport wraps one behind a socket — the runtime is the
same either way, so in-process and over-the-wire serving cannot drift.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator

from ...exceptions import ReproError
from ...metrics import CacheStats, NodeStats, PoolStats
from ..cache import LanguageCache
from ..outcome import QueryOutcome
from ..server import CancelArg, ResilienceServer
from ..workload import Workload
from .base import AnyDatabase, Node


class ThreadNode(Node):
    """One in-process serving node.

    Args:
        node_id: stable routing identity.
        max_workers: per-server pool width cap (see
            :class:`~repro.service.server.ResilienceServer`); ``1`` pins the
            node's servers to the serial path.
        cache: optional session :class:`LanguageCache` *shared* across this
            node's servers — and possibly across nodes (the conformance
            harness shares one cache fleet-wide so canonical representatives
            agree everywhere).  When omitted the node owns a fresh cache;
            only an owned cache is reported in :meth:`stats`, so fleet
            aggregation never double-counts a shared object.
    """

    def __init__(
        self,
        node_id: str,
        *,
        max_workers: int | None = None,
        cache: LanguageCache | None = None,
    ) -> None:
        self.node_id = node_id
        self._max_workers = max_workers
        self._owns_cache = cache is None
        self._cache = cache if cache is not None else LanguageCache()
        # HTTP handler threads register and evict databases concurrently.
        self._servers: dict[str, ResilienceServer] = {}
        self._servers_lock = threading.Lock()
        self._envelopes_served = 0
        self._killed = False
        self._closed = False

    # ------------------------------------------------------------------ state

    @property
    def alive(self) -> bool:
        return not self._killed and not self._closed

    @property
    def killed(self) -> bool:
        return self._killed

    @property
    def cache(self) -> LanguageCache:
        return self._cache

    def heartbeat(self) -> bool:
        return self.alive

    # ---------------------------------------------------------------- serving

    def ensure_database(self, database: AnyDatabase) -> str:
        self._server_for(database)
        return database.content_fingerprint()

    def _server_for(self, database: AnyDatabase) -> ResilienceServer:
        """Get or create the database's server in one step, so a concurrent
        :meth:`evict_database` cannot leave a caller without one (and a
        concurrent :meth:`close` sees every server this creates)."""
        fingerprint = database.content_fingerprint()
        with self._servers_lock:
            if not self.alive:
                raise ReproError(f"node {self.node_id!r} is not serving")
            server = self._servers.get(fingerprint)
            if server is None:
                server = self._servers[fingerprint] = ResilienceServer(
                    database, max_workers=self._max_workers, cache=self._cache
                )
        return server

    def _server_list(self) -> list[ResilienceServer]:
        with self._servers_lock:
            return list(self._servers.values())

    def evict_database(self, fingerprint: str) -> None:
        """Drop the warm server for one fingerprint (bounded-cache eviction).

        A later :meth:`ensure_database` for the same content rebuilds it;
        eviction trades warmth for memory, never correctness.  Unknown
        fingerprints are a no-op.
        """
        with self._servers_lock:
            server = self._servers.pop(fingerprint, None)
        if server is not None:
            server.close()

    def serve_iter(
        self,
        workload: Workload,
        database: AnyDatabase,
        *,
        cancel: CancelArg = None,
    ) -> Iterator[QueryOutcome]:
        server = self._server_for(database)
        self._envelopes_served += 1
        return server.serve_iter(workload, database=database, cancel=cancel)

    # -------------------------------------------------------------- lifecycle

    def stats(self) -> NodeStats:
        servers = self._server_list()
        return NodeStats(
            node_id=self.node_id,
            alive=self.alive,
            databases=len(servers),
            envelopes_served=self._envelopes_served,
            cache=self._cache.stats if self._owns_cache else CacheStats(),
            pool=PoolStats.aggregate(server.pool_stats() for server in servers),
        )

    def kill(self) -> None:
        """Abrupt teardown (fault injection): in-flight streams on this node
        will observe :attr:`killed` and hand their unserved tail back to the
        exchange for re-routing."""
        self._killed = True
        for server in self._server_list():
            server.close()

    def close(self) -> None:
        self._closed = True
        for server in self._server_list():
            server.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "killed" if self._killed else ("closed" if self._closed else "alive")
        return f"ThreadNode({self.node_id!r}, {state}, databases={len(self._servers)})"
