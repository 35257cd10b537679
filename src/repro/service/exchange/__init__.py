"""The exchange layer: transport-agnostic routing between front-end and nodes.

The serving stack is three layers — front-end
(:class:`~repro.service.async_server.AsyncResilienceServer`: admission,
merging, streaming), **exchange** (this package: routing, scatter/gather,
failover), nodes (warm :class:`~repro.service.server.ResilienceServer`
pools).  The front-end codes against the :class:`Exchange` contract only, so
the same admission-controlled surface serves over an in-process fleet
(:class:`ThreadExchange`, one node or several) or over HTTP
(:class:`HttpExchange`) — the thread → HTTP ladder, each rung pinned
outcome-identical to the uncached serial reference by the conformance
suite.
"""

from ...metrics import NodeStats
from .base import EnvelopePart, Exchange, Node, WorkloadEnvelope
from .health import CircuitBreaker, HealthMonitor, RetryPolicy
from .http import HttpExchange, HttpNode, HttpNodeLauncher, HttpNodeServer
from .manager import NodeLauncher, NodeManager, ThreadNodeLauncher
from .nodes import ThreadNode
from .router import Router
from .threads import RoutedExchange, ThreadExchange

__all__ = [
    "CircuitBreaker",
    "EnvelopePart",
    "Exchange",
    "HealthMonitor",
    "HttpExchange",
    "HttpNode",
    "HttpNodeLauncher",
    "HttpNodeServer",
    "Node",
    "NodeLauncher",
    "NodeManager",
    "NodeStats",
    "RetryPolicy",
    "RoutedExchange",
    "Router",
    "ThreadExchange",
    "ThreadNode",
    "ThreadNodeLauncher",
    "WorkloadEnvelope",
]
