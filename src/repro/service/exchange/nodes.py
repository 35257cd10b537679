"""In-process serving nodes: one warm :class:`ResilienceServer` per database.

A :class:`ThreadNode` is the node-layer runtime every exchange ultimately
serves through: it lazily builds one
:class:`~repro.service.server.ResilienceServer` per database fingerprint
(each with its own warm worker pool), keeps at most :data:`MAX_DATABASES` of
them warm, and streams outcomes for sub-workloads routed to it.
:class:`ThreadExchange` holds several of these directly; the HTTP transport
wraps one behind a socket — the runtime is the same either way, so
in-process and over-the-wire serving cannot drift.
"""

from __future__ import annotations

from collections.abc import Iterator

from ...exceptions import ReproError
from ...lru import BoundedLru
from ...metrics import CacheStats, NodeStats, PoolStats
from ..cache import LanguageCache
from ..outcome import QueryOutcome
from ..server import CancelArg, ResilienceServer
from ..workload import Workload
from .base import AnyDatabase, Node

#: Warm servers a node keeps, least recently used evicted first.  An evicted
#: server closes (its pool shut down) once the streams leasing it end, and
#: the next serve of its database rebuilds it; the result cache lives in the
#: language cache and the index and compiled graphs on the database object,
#: so eviction costs warmth, never an outcome.  Read when a node is built.
MAX_DATABASES = 32


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
        # Keyed by content fingerprint; HTTP handler threads share the map.
        self._servers = BoundedLru(
            max_entries=MAX_DATABASES, on_evict=lambda _key, server: server.release()
        )
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

    def database(self, fingerprint: str) -> AnyDatabase | None:
        """The warm database under ``fingerprint``; ``None`` when the node
        does not hold it (never registered, or evicted)."""
        server = self._servers.get(fingerprint)
        return None if server is None else server.database

    def _server_for(self, database: AnyDatabase) -> ResilienceServer:
        """Get or create the database's server; refuses on a dead node."""
        if not self.alive:
            raise ReproError(f"node {self.node_id!r} is not serving")
        fingerprint = database.content_fingerprint()
        server = self._servers.get(fingerprint)
        if server is None:
            server = self._servers.setdefault(
                fingerprint,
                ResilienceServer(database, max_workers=self._max_workers, cache=self._cache),
            )
        if not self.alive:
            # close()/kill() may have listed the servers before this one
            # was inserted: close it here rather than leak it.
            server.close()
            raise ReproError(f"node {self.node_id!r} is not serving")
        return server

    def serve_iter(
        self,
        workload: Workload,
        database: AnyDatabase,
        *,
        cancel: CancelArg = None,
    ) -> Iterator[QueryOutcome]:
        # Leased when the stream starts; a server that closed between lookup
        # and lease refuses, and the next lookup rebuilds it.
        server = self._server_for(database)
        while not server.lease():
            server = self._server_for(database)
        self._envelopes_served += 1
        try:
            yield from server.serve_iter(workload, database=database, cancel=cancel)
        finally:
            server.release()

    # -------------------------------------------------------------- lifecycle

    def stats(self) -> NodeStats:
        servers = self._servers.values()
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
        exchange for re-routing (an evicted server still running a stream
        closes when the exchange drops that stream)."""
        self._killed = True
        for server in self._servers.values():
            server.close()

    def close(self) -> None:
        self._closed = True
        for server in self._servers.values():
            server.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "killed" if self._killed else ("closed" if self._closed else "alive")
        return f"ThreadNode({self.node_id!r}, {state}, databases={len(self._servers)})"
