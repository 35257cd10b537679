"""Pin the serving stack's option surface.

The table below lists every parameter of the serving entry points.  A change
that adds a knob (or a second spelling of an existing one) must edit this
table in the same diff, so the addition is a reviewed decision instead of a
side effect.  Removed keywords are pinned to raise ``TypeError``.
"""

from __future__ import annotations

import inspect

import pytest

from repro.graphdb import generators
from repro.service import (
    AsyncResilienceServer,
    LanguageCache,
    NodeManager,
    ResilienceServer,
    resilience_serve,
)
from repro.service.exchange import (
    HttpExchange,
    HttpNodeLauncher,
    HttpNodeServer,
    RoutedExchange,
    ThreadExchange,
    ThreadNode,
    ThreadNodeLauncher,
)
from repro.traffic import SoakRunner, TrafficProfile, generate_traffic

#: Entry point -> its parameter names, in signature order (``self`` omitted).
OPTION_SURFACE = {
    ResilienceServer: ("database", "max_workers", "cache"),
    ThreadNode: ("node_id", "max_workers", "cache"),
    ThreadNodeLauncher: ("max_workers", "cache"),
    RoutedExchange: ("manager",),
    ThreadExchange: ("nodes", "max_workers", "cache"),
    HttpNodeServer: ("node_id", "host", "port", "max_workers"),
    HttpNodeLauncher: ("host", "max_workers", "request_timeout", "retry"),
    HttpExchange: ("nodes", "manager", "host", "max_workers", "request_timeout", "retry"),
    AsyncResilienceServer: (
        "exchange", "database", "max_queue_depth", "round_share", "share_weights",
        "autostart",
    ),
    AsyncResilienceServer.submit: ("workload", "priority", "deadline", "database", "weight"),
    # ``parallel=False`` stays here only, as another spelling of max_workers=1.
    resilience_serve: ("workload", "database", "max_workers", "parallel", "cache"),
    SoakRunner: (
        "trace", "nodes", "max_workers", "cache", "transport", "exchange", "chaos",
        "requests_per_round", "max_queue_depth", "round_share", "verify_parity",
        "recovery_rounds", "pace", "log_path", "leak_tracker", "keep_outcomes",
    ),
    LanguageCache: ("canonical", "store", "result_store", "max_entries"),
}

#: Keywords the entry points no longer accept: serial execution is
#: ``max_workers=1``, the router and failover bound are fixed, a caller
#: with its own fleet uses ``RoutedExchange(manager)``, an exhausted
#: failover chain always degrades to the serial fallback, a soak always
#: heals its fleet, a cache is bounded by entries only, and a node's warm
#: databases are bounded by ``nodes.MAX_DATABASES``.
REMOVED_KEYWORDS = {
    ResilienceServer: ("parallel",),
    ThreadNode: ("parallel",),
    ThreadNodeLauncher: ("parallel",),
    RoutedExchange: ("router", "max_failovers", "degraded_fallback"),
    ThreadExchange: ("manager", "router", "max_failovers", "degraded_fallback", "parallel"),
    HttpNodeServer: ("parallel", "max_databases"),
    HttpNodeLauncher: ("parallel", "max_databases"),
    HttpExchange: ("router", "max_failovers", "degraded_fallback", "parallel", "max_databases"),
    SoakRunner: ("parallel", "auto_heal"),
    LanguageCache: ("max_age_seconds", "clock"),
}


def test_serving_option_surface_is_pinned():
    surface = {
        entry.__qualname__: tuple(
            name for name in inspect.signature(entry).parameters if name != "self"
        )
        for entry in OPTION_SURFACE
    }
    assert surface == {entry.__qualname__: names for entry, names in OPTION_SURFACE.items()}
    assert sum(len(names) for names in OPTION_SURFACE.values()) == 62

    positional = {
        ResilienceServer: (generators.random_labelled_graph(3, 4, "ab", seed=1),),
        ThreadNode: ("node",),
        RoutedExchange: (NodeManager(),),
        HttpNodeServer: ("node",),
        SoakRunner: (generate_traffic(TrafficProfile(requests=2)),),
    }
    for entry, keywords in REMOVED_KEYWORDS.items():
        for keyword in keywords:
            with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
                entry(*positional.get(entry, ()), **{keyword: None})
