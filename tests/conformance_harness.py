"""Reusable differential conformance harness for the serving runtime.

The conformance claim: caches, pools, streaming and the async front-end are
*execution strategies* — the uncached serial path is the semantics, and every
variant must reproduce its outcomes exactly (after re-sorting streamed
outcomes by ``index``).  This module makes that claim a first-class, reusable
subsystem instead of one test file's private plumbing:

* :data:`MATRIX_QUERIES` — the fixed query matrix covering every dispatch
  method, duplicate and equivalent-but-unequal pairs, and every failure mode;
* :func:`make_cache` / :data:`CACHE_VARIANTS` — the cache configurations;
* :func:`reference_outcomes` — the uncached serial reference for a database;
* :data:`EXECUTION_VARIANTS` and :func:`variant_session` — the registry of
  execution strategies.  A session is opened once per (variant, cache) pair
  and runs the matrix ``PASSES`` times with shared state (cache, warm pool,
  async admission queue), so the second pass exercises exactly the warm paths
  the variants exist for;
* :func:`assert_outcomes_identical` — the comparator, with a per-index diff
  on mismatch.

Registering a new execution mode (how PR 3's streaming, PR 5's async and this
PR's distributed variants were added) means one entry in
``EXECUTION_VARIANTS`` plus one branch in :class:`VariantSession`; the
parametrized conformance test picks it up for every cache variant
automatically.  The ``distributed-*`` variants run the async front-end over a
fingerprint-routed :class:`~repro.service.ThreadExchange` fleet — the
``node-kill`` one kills the owning node two outcomes into the stream, so the
identity assertion doubles as a no-loss/no-duplication failover proof.  The
``distributed-2-http-nodes`` variant runs the same front-end over an
:class:`~repro.service.HttpExchange` — real sockets, pickled payloads and
ndjson streaming in the conformance loop, pinning the wire transport to the
serial semantics.  The ``soak-replay`` variant drives the matrix through the
chaos soak harness
(:class:`~repro.traffic.SoakRunner`, mid-round node kill included): the
outcome set of a seeded chaos run must equal the uncached serial reference.
"""

from __future__ import annotations

import asyncio

from faults import adrain_with_kill
from repro.graphdb import generators
from repro.service import (
    AnalysisStore,
    AsyncResilienceServer,
    HttpExchange,
    LanguageCache,
    QueryOutcome,
    QuerySpec,
    ResilienceServer,
    ThreadExchange,
    Workload,
    resilience_serve,
)
from repro.traffic import (
    ChaosEvent,
    ChaosSchedule,
    SoakRunner,
    TrafficRequest,
    TrafficTrace,
)

#: The fixed query matrix: every dispatch method, duplicate queries,
#: equivalent-but-unequal pairs, and every failure mode.
MATRIX_QUERIES = (
    "ax*b",                                  # local-flow
    "ab|bc",                                 # bcl-flow
    "(ab)*a",                                # infinite; equivalent pair with the next
    "a(ba)*",                                # ... same minimal DFA, different syntax
    "ab|ba",                                 # exact; equivalent pair with the next
    "ba|ab",
    "aa",                                    # exact, duplicated below
    "aa",
    "ε|a",                                   # trivial-epsilon
    "((",                                    # parse error -> "error" outcome
    QuerySpec("aa", method="local-flow"),    # inapplicable forced method -> "error"
    "aba",                                   # unbudgeted duplicate of the next:
    QuerySpec("aba", max_nodes=1),           # ... its cached "ok" must never be
                                             # replayed for the budgeted spec
    QuerySpec("ab", semantics="set"),        # forced semantics
)

CACHE_VARIANTS = ("uncached", "string-cache", "canonical-cache", "disk-cache", "bounded-cache")
EXECUTION_VARIANTS = (
    "serial",
    "warm-pool",
    "streaming",
    "async-single-workload",
    "async-3-concurrent-workloads-merged",
    "distributed-2-nodes",
    "distributed-4-nodes",
    "distributed-2-nodes-node-kill",
    "distributed-2-http-nodes",
    "soak-replay",
)
PASSES = 2

#: How many copies of the matrix the merged async variant submits concurrently.
CONCURRENT_WORKLOADS = 3


def databases():
    return {
        "set": generators.random_labelled_graph(5, 14, "abxy", seed=3),
        "bag": generators.random_labelled_graph(4, 10, "abx", seed=5).to_bag(2),
    }


def make_cache(kind: str, store_directory) -> LanguageCache | None:
    """Build the shared cache of a variant run (``None``: fresh per pass)."""
    if kind == "uncached":
        return None
    if kind == "string-cache":
        return LanguageCache(canonical=False)
    if kind == "canonical-cache":
        return LanguageCache()
    if kind == "disk-cache":
        return LanguageCache(store=AnalysisStore(store_directory))
    if kind == "bounded-cache":
        # One entry per layer: every variant serves through a thrashing cache.
        return LanguageCache(max_entries=1)
    raise AssertionError(kind)


def fresh_reference_cache() -> LanguageCache:
    """The reference configuration's cache: string-keyed, session-fresh."""
    return LanguageCache(canonical=False)


def reference_outcomes(database) -> list[QueryOutcome]:
    """The uncached serial reference: fresh string-keyed cache, no pool."""
    workload = Workload.coerce(MATRIX_QUERIES)
    return resilience_serve(
        workload, database, parallel=False, cache=fresh_reference_cache()
    )


def assert_outcomes_identical(
    actual: list[QueryOutcome], reference: list[QueryOutcome], label: str = ""
) -> None:
    """Assert outcome-identity, reporting the first diverging index."""
    prefix = f"{label}: " if label else ""
    assert len(actual) == len(reference), (
        f"{prefix}{len(actual)} outcomes, reference has {len(reference)}"
    )
    for ours, theirs in zip(actual, reference):
        assert ours == theirs, f"{prefix}diverged at #{theirs.index}: {ours!r} != {theirs!r}"


def _sorted(outcomes) -> list[QueryOutcome]:
    return sorted(outcomes, key=lambda outcome: outcome.index)


class VariantSession:
    """One execution variant bound to one database and cache configuration.

    :meth:`run_pass` serves the matrix once and returns one re-sorted outcome
    list *per workload served that pass* (most variants serve one; the merged
    async variant serves :data:`CONCURRENT_WORKLOADS`).  ``shares_pool`` says
    whether worker PIDs are expected to stay stable across passes (only
    meaningful with a shared cache, where the server itself persists).
    """

    def __init__(self, execution: str, database, shared_cache: LanguageCache | None):
        if execution not in EXECUTION_VARIANTS:
            raise AssertionError(f"unregistered execution variant: {execution}")
        self.execution = execution
        self.database = database
        self.shared_cache = shared_cache
        self.workload = Workload.coerce(MATRIX_QUERIES)
        # The kill variant destroys a node (and its pool) every pass, so warm
        # pids cannot be stable across passes; it still shares the cache.  The
        # soak-replay variant likewise builds (and kills into) a fresh fleet
        # per pass through the SoakRunner.
        self.kill_mid_pass = execution.endswith("node-kill")
        self.soak = execution == "soak-replay"
        # HTTP nodes ship their databases over the wire and hold their own
        # caches, so the cell's shared cache cannot apply and worker pids
        # belong to per-pass fleets: rebuild fresh every pass, like the kill
        # and soak variants.
        self.http = "http" in execution
        self.shares_pool = (
            execution != "serial"
            and shared_cache is not None
            and not self.kill_mid_pass
            and not self.soak
            and not self.http
        )
        self._server: ResilienceServer | None = None
        self._async_server: AsyncResilienceServer | None = None
        self._exchange: ThreadExchange | None = None
        if self.shares_pool:
            self._open_servers(shared_cache)

    # ------------------------------------------------------------------ lifecycle

    def _node_count(self) -> int:
        return int(self.execution.split("-")[1])

    def _open_servers(self, cache: LanguageCache | None) -> None:
        if self.execution in ("warm-pool", "streaming"):
            self._server = ResilienceServer(self.database, max_workers=2, cache=cache)
        elif self.execution.startswith("async"):
            self._async_server = AsyncResilienceServer(
                ThreadExchange(nodes=1, max_workers=2, cache=cache),
                database=self.database,
            )
        elif self.execution.startswith("distributed"):
            # A fingerprint-routed fleet behind the same async front-end —
            # in-process nodes sharing the variant's cache, or real HTTP
            # nodes (own caches) when the variant says so.
            if self.http:
                self._exchange = HttpExchange(
                    nodes=self._node_count(), max_workers=2
                )
            else:
                self._exchange = ThreadExchange(
                    nodes=self._node_count(), max_workers=2, cache=cache
                )
            self._async_server = AsyncResilienceServer(
                self._exchange, database=self.database
            )

    def _close_servers(self) -> None:
        if self._server is not None:
            self._server.close()
            self._server = None
        if self._async_server is not None:
            self._async_server.close()  # owns (and closes) any exchange
            self._async_server = None
        self._exchange = None

    def close(self) -> None:
        self._close_servers()

    def __enter__(self) -> "VariantSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def worker_pids(self) -> frozenset[int]:
        if self._server is not None:
            return self._server.worker_pids()
        if self._async_server is not None:
            return self._async_server.worker_pids()
        return frozenset()

    # ------------------------------------------------------------------ one pass

    def run_pass(self) -> list[list[QueryOutcome]]:
        if self.soak:
            return self._run_soak_pass()
        if not self.shares_pool and self.execution != "serial":
            # The uncached configuration proves the *execution strategy alone*
            # never changes results: fresh cache, fresh server, every pass.
            # (The kill variant also lands here with a shared cache — its
            # fleet is rebuilt per pass, but the cache persists across them.)
            self._open_servers(
                self.shared_cache if self.shared_cache is not None
                else fresh_reference_cache()
            )
            try:
                return self._run_pass_on_open_servers(cache=None)
            finally:
                self._close_servers()
        cache = (
            self.shared_cache if self.shared_cache is not None else fresh_reference_cache()
        )
        return self._run_pass_on_open_servers(cache=cache)

    def _run_pass_on_open_servers(self, cache: LanguageCache | None) -> list[list[QueryOutcome]]:
        if self.execution == "serial":
            return [
                resilience_serve(
                    self.workload, self.database, parallel=False, cache=cache
                )
            ]
        if self.execution == "warm-pool":
            return [self._server.serve(self.workload)]
        if self.execution == "streaming":
            return [_sorted(self._server.serve_iter(self.workload))]
        if self.execution == "async-single-workload":
            return asyncio.run(self._submit_and_collect(1))
        if self.execution == "async-3-concurrent-workloads-merged":
            return asyncio.run(self._submit_and_collect(CONCURRENT_WORKLOADS))
        if self.kill_mid_pass:
            return asyncio.run(self._submit_and_collect_with_kill())
        if self.execution.startswith("distributed"):
            return asyncio.run(self._submit_and_collect(CONCURRENT_WORKLOADS))
        raise AssertionError(self.execution)

    async def _submit_and_collect(self, count: int) -> list[list[QueryOutcome]]:
        """Submit ``count`` copies of the matrix concurrently, gather them all.

        All submissions land in the admission queue before any is awaited, so
        the drain merges concurrent workloads onto the one warm pool; each
        workload's outcomes come back on its own iterator and are re-sorted
        independently.
        """

        async def collect(iterator) -> list[QueryOutcome]:
            return _sorted([outcome async for outcome in iterator])

        iterators = [
            await self._async_server.submit(self.workload) for _ in range(count)
        ]
        return list(await asyncio.gather(*(collect(iterator) for iterator in iterators)))

    async def _submit_and_collect_with_kill(self) -> list[list[QueryOutcome]]:
        """Serve the matrix, killing the owning node after two outcomes land.

        The router re-routes the unserved tail to a surviving (or launcher-
        replaced) node; the conformance assertion then proves the failover
        lost nothing, duplicated nothing, and changed no outcome.
        """
        iterator = await self._async_server.submit(self.workload)

        def kill() -> None:
            self._exchange.manager.kill(self._exchange.route_for(self.database))

        outcomes = await adrain_with_kill(iterator, kill, after=2)
        return [_sorted(outcomes)]

    def _run_soak_pass(self) -> list[list[QueryOutcome]]:
        """Chaos soak as a conformance cell: the outcome set of a seeded soak
        round (mid-stream node kill included) must equal the serial reference.

        Two copies of the matrix travel as one soak round over a fresh
        2-node fleet (sharing this cell's cache across passes); the chaos
        schedule kills the owning node two outcomes in, and the SoakRunner's
        own invariant monitor runs alongside the identity assertion.
        """
        requests = tuple(
            TrafficRequest(
                seq=seq,
                offset=0.0,
                priority=0,
                weight=1.0,
                deadline=None,
                database_key="db",
                workload=self.workload,
            )
            for seq in range(2)
        )
        trace = TrafficTrace(requests=requests, databases={"db": self.database})
        runner = SoakRunner(
            trace,
            nodes=2,
            max_workers=2,
            cache=self.shared_cache
            if self.shared_cache is not None
            else fresh_reference_cache(),
            chaos=ChaosSchedule(
                (ChaosEvent(round=0, kind="kill", after_outcomes=2),)
            ),
            requests_per_round=2,
            verify_parity=False,
            keep_outcomes=True,
        )
        runner.run()
        return [_sorted(outcomes) for outcomes in runner.collected]


def variant_session(
    execution: str, database, cache_kind: str, store_directory
) -> VariantSession:
    """Open a session for one (execution, cache) conformance cell."""
    return VariantSession(execution, database, make_cache(cache_kind, store_directory))
