"""The exchange protocol: envelopes in, outcome streams out, nodes underneath.

This module defines the transport-agnostic vocabulary of the middle layer of
the serving stack (front-end → **exchange** → nodes):

* :class:`WorkloadEnvelope` — what a front-end submits: one or more
  :class:`EnvelopePart`\\ s, each a :class:`~repro.service.workload.Workload`
  bound to the database it runs against.  Envelope-global outcome indices are
  the concatenation of the parts, in order, so a multi-database round stays
  one stream with one index space.
* :class:`Node` — the serving side: something that holds databases warm,
  registering each on the first serve that needs it, and streams
  :class:`~repro.service.outcome.QueryOutcome`\\ s for a workload against
  one of them (a :class:`~repro.service.exchange.nodes.ThreadNode`
  in-process, an :class:`~repro.service.exchange.http.HttpNode` over the
  wire).
* :class:`~repro.metrics.NodeStats` — one node's observability snapshot,
  rolled up by the front-end's
  :meth:`~repro.service.async_server.AsyncResilienceServer.metrics`.
* :class:`Exchange` — the contract the front-end codes against: submit an
  envelope, iterate outcomes (envelope-global indices, completion order),
  plus node registration/heartbeat for the routed implementations.

Cancellation crosses every layer in one shape,
:data:`~repro.service.server.CancelArg`: a mapping from (envelope-global or
workload) index to the :class:`~repro.service.cancellation.CancellationToken`
covering that query.

Every implementation must uphold the serving contract the conformance suite
pins: exactly one outcome per envelope query (no loss, no duplication, no
cross-workload leaks), outcome-identical to the uncached serial reference
once re-sorted by index.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator
from dataclasses import dataclass

from ...exceptions import ReproError
from ...graphdb.database import BagGraphDatabase, GraphDatabase
from ...metrics import CacheStats, NodeStats, PoolStats
from ..outcome import QueryOutcome
from ..server import CancelArg
from ..workload import Workload

AnyDatabase = GraphDatabase | BagGraphDatabase


@dataclass(frozen=True)
class EnvelopePart:
    """One workload bound to the database it runs against."""

    workload: Workload
    database: AnyDatabase

    def fingerprint(self) -> str:
        """Routing key: the database's content digest (stable across hosts)."""
        return self.database.content_fingerprint()

    def __len__(self) -> int:
        return len(self.workload)


@dataclass(frozen=True)
class WorkloadEnvelope:
    """A front-end submission: parts concatenated into one index space.

    Outcome index ``g`` belongs to part ``k`` at part-local index
    ``g - offset(k)`` where ``offset(k)`` is the total length of parts
    ``0..k-1``.  The common case — everything in a merged round against one
    database — is a single part, which routed exchanges serve without any
    scatter machinery.
    """

    parts: tuple[EnvelopePart, ...]

    @classmethod
    def single(cls, workload: Workload, database: AnyDatabase) -> "WorkloadEnvelope":
        return cls(parts=(EnvelopePart(workload=workload, database=database),))

    def __len__(self) -> int:
        return sum(len(part) for part in self.parts)

    def offsets(self) -> list[int]:
        """The envelope-global index where each part starts."""
        offsets, total = [], 0
        for part in self.parts:
            offsets.append(total)
            total += len(part)
        return offsets


class Node(ABC):
    """A serving node: warm servers for its databases, streamed outcomes."""

    node_id: str

    @property
    @abstractmethod
    def alive(self) -> bool:
        """Current belief, without probing (see :meth:`heartbeat`)."""

    @property
    @abstractmethod
    def killed(self) -> bool:
        """Whether the node was torn down abruptly (crash or kill)."""

    @abstractmethod
    def ensure_database(self, database: AnyDatabase) -> str:
        """Make the node able to serve ``database``; returns its fingerprint.

        Idempotent — registering the same content twice is free.
        """

    @abstractmethod
    def serve_iter(
        self,
        workload: Workload,
        database: AnyDatabase,
        *,
        cancel: CancelArg = None,
    ) -> Iterator[QueryOutcome]:
        """Stream outcomes for one workload against one database.

        Registers the database on demand, so callers need not call
        :meth:`ensure_database` first; a node that evicted or lost the
        database (a restart) gets it again the same way.
        """

    @abstractmethod
    def heartbeat(self) -> bool:
        """Actively probe the node, updating and returning :attr:`alive`."""

    @abstractmethod
    def stats(self) -> NodeStats:
        ...

    @abstractmethod
    def kill(self) -> None:
        """Tear the node down abruptly (fault injection / forced eviction)."""

    @abstractmethod
    def close(self) -> None:
        """Graceful shutdown; idempotent."""


class Exchange(ABC):
    """What the async front-end owns: envelope in, outcome stream out.

    Implementations are routed exchanges over a node fleet
    (:class:`~repro.service.exchange.threads.ThreadExchange` — one in-process
    node or several — and :class:`~repro.service.exchange.http.HttpExchange`).
    """

    @abstractmethod
    def submit(
        self, envelope: WorkloadEnvelope, *, cancel: CancelArg = None
    ) -> Iterator[QueryOutcome]:
        """Serve one envelope, yielding outcomes with envelope-global indices.

        Exactly one outcome per envelope query, in completion order.  Node
        failures surface as re-routed results or structured ``error``
        outcomes — never as lost indices.
        """

    @abstractmethod
    def stats(self) -> tuple[NodeStats, ...]:
        """Per-node observability snapshots, one per registered node."""

    @abstractmethod
    def close(self) -> None:
        ...

    # --------------------------------------------------------- fleet surface

    @property
    def degraded_serves(self) -> int:
        """Envelope parts answered by the in-process serial fallback.

        Non-zero only on routed exchanges whose failover chain ran out; the
        front-end surfaces it in :class:`~repro.metrics.ServerMetrics`.
        """
        return 0

    def shared_cache_stats(self) -> "CacheStats | None":
        """Counters of a fleet-shared :class:`LanguageCache`, if one exists.

        Nodes serving from a shared cache deliberately report empty per-node
        :class:`CacheStats` (a shared cache counted once per node would be
        counted N times in the fleet roll-up); this hook lets the exchange
        report the shared cache exactly once instead, so the front-end's
        :class:`~repro.metrics.ServerMetrics` aggregate includes
        it.  ``None`` when the exchange holds no shared cache.
        """
        return None

    def nodes(self) -> tuple[str, ...]:
        """Registered node ids (dead nodes included, until replaced)."""
        return tuple(snapshot.node_id for snapshot in self.stats())

    def heartbeat(self) -> dict[str, bool]:
        """Probe every registered node; ``node_id -> alive``."""
        return {snapshot.node_id: snapshot.alive for snapshot in self.stats()}

    def register(self, node: Node) -> None:
        """Attach an externally launched node (routed exchanges only)."""
        raise ReproError(f"{type(self).__name__} does not accept external nodes")

    def worker_pids(self) -> frozenset[int]:
        """Union of worker PIDs across nodes (remote nodes report their own
        hosts' PIDs — meaningful for diagnostics, not for local signalling)."""
        return frozenset(PoolStats.aggregate(node.pool for node in self.stats()).worker_pids)

    def __enter__(self) -> "Exchange":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

