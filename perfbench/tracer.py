"""Layer spans for the traced benchmark run, recorded from outside ``src/``.

:func:`install` replaces the public function at each layer boundary of the
serving stack with a wrapper that records a span — name, start, end, parent
span and request id — and the counts that belong to that boundary (cache hits,
arcs, search nodes).  :func:`uninstall` puts every original back, so the
untraced measurement runs the unmodified program.

Spans live in memory until :meth:`Tracer.summary` turns them into per-layer
self times.  A layer's self time is the time during which its span was the most
recently opened span still open, across all threads: within one thread that is
"duration minus the children", and when a span waits for work on another thread
(the exchange waiting on a scatter thread) the waiting time goes to the span
doing the work.  The sum of all self times is therefore the wall time some layer
span covers, which :meth:`Tracer.summary` reports as the span coverage.
"""

from __future__ import annotations

import heapq
import importlib
import itertools
import threading
from collections import Counter
from time import perf_counter

#: Per-layer time metrics, in report order.
LAYERS = (
    "languages.parse",
    "languages.fingerprint",
    "languages.infix_free",
    "languages.read_once",
    "resilience.classify",
    "resilience.local_flow",
    "resilience.bcl_flow",
    "resilience.one_dangling",
    "resilience.exact",
    "resilience.store.get",
    "graphdb.build",
    "graphdb.index",
    "flow.compile",
    "flow.min_cut",
    "service.plan",
    "service.cache.lookup",
    "service.server",
    "service.exchange",
)

#: Every per-layer metric the traced run reports, with its unit, in report
#: order.  Times and counts are per traced query; ratios carry their base.
PER_LAYER_METRICS = (
    ("languages.parse.self_us", "us"),
    ("languages.fingerprint.self_us", "us"),
    ("languages.infix_free.self_us", "us"),
    ("languages.read_once.self_us", "us"),
    ("resilience.classify.self_us", "us"),
    ("resilience.local_flow.self_us", "us"),
    ("resilience.bcl_flow.self_us", "us"),
    ("resilience.one_dangling.self_us", "us"),
    ("resilience.exact.self_us", "us"),
    ("resilience.exact.nodes_explored", "count"),
    ("resilience.store.get.self_us", "us"),
    ("resilience.store.gets", "count"),
    ("resilience.store.hit_ratio", "ratio"),
    ("graphdb.build.self_us", "us"),
    ("graphdb.build.calls", "count"),
    ("graphdb.index.self_us", "us"),
    ("flow.compile.self_us", "us"),
    ("flow.compile.calls", "count"),
    ("flow.graph_hit_ratio", "ratio"),
    ("flow.min_cut.self_us", "us"),
    ("flow.arcs", "count"),
    ("service.plan.self_us", "us"),
    ("service.cache.classifications", "count"),
    ("service.cache.lookup.self_us", "us"),
    ("service.cache.result_lookups", "count"),
    ("service.cache.result_hit_ratio", "ratio"),
    ("service.server.self_us", "us"),
    ("service.exchange.self_us", "us"),
    ("service.admission.wait_us", "us"),
    ("service.exchange.failovers", "count"),
    ("service.errors", "count"),
    ("trace.span_coverage", "ratio"),
    ("trace.untraced_throughput_qps", "1/s"),
    ("trace.traced_throughput_qps", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """In-memory span and counter recorder shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int | None]] = []
        self.requests: list[tuple[int, float, float]] = []
        self.counts: Counter = Counter()
        self.admission_waits: list[float] = []
        self._ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self._local = threading.local()
        self._request_of_spec: dict[int, int] = {}
        self._submitted_at: dict[int, float] = {}

    # ------------------------------------------------------------ spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> None:
        self._stack().append((next(self._ids), name, perf_counter()))

    def end(self) -> None:
        now = perf_counter()
        stack = self._stack()
        sid, name, start = stack.pop()
        parent = stack[-1][0] if stack else 0
        self.spans.append((sid, name, start, now, parent, getattr(self._local, "rid", None)))

    def set_request(self, rid: int | None) -> None:
        self._local.rid = rid

    # --------------------------------------------------------- requests

    def submitted(self, specs, at: float) -> int:
        """A client submitted a request holding ``specs`` at ``at``; returns its id."""
        rid = next(self._request_ids)
        self._submitted_at[rid] = at
        for spec in specs:
            self._request_of_spec[id(spec)] = rid
        return rid

    def completed(self, rid: int, start: float, end: float) -> None:
        self.requests.append((rid, start, end))

    def request_of(self, spec) -> int | None:
        return self._request_of_spec.get(id(spec))

    def round_started(self, envelope) -> int | None:
        """Record the admission wait of every request first served by this
        exchange round; returns the round's first request id."""
        now = perf_counter()
        first = None
        for part in envelope.parts:
            for spec in part.workload.specs:
                rid = self._request_of_spec.get(id(spec))
                if rid is None:
                    continue
                if first is None:
                    first = rid
                submitted = self._submitted_at.pop(rid, None)
                if submitted is not None:
                    self.admission_waits.append(now - submitted)
        return first

    # ----------------------------------------------------------- report

    def self_times(self) -> dict[str, float]:
        """Seconds each layer was the innermost open span (see module doc)."""
        events = []
        for sid, name, start, end, _, _ in self.spans:
            events.append((start, 1, sid, name))
            events.append((end, 0, sid, name))
        events.sort()
        totals: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        active: list[tuple[float, int, str]] = []
        closed: set[int] = set()
        previous = None
        for time, opening, sid, name in events:
            while active and -active[0][1] in closed:
                heapq.heappop(active)
            if active and previous is not None:
                top = active[0][2]
                totals[top] = totals.get(top, 0.0) + (time - previous)
            previous = time
            if opening:
                heapq.heappush(active, (-time, -sid, name))
            else:
                closed.add(sid)
        return totals

    def summary(self, queries: int, wall_seconds: float, untraced_qps: float) -> dict[str, float]:
        """Every :data:`PER_LAYER_METRICS` value of a traced phase that served
        ``queries`` in ``wall_seconds``; ``untraced_qps`` is the same
        workload's throughput without the wrappers."""
        per_query = 1.0 / max(queries, 1)
        traced_qps = queries / wall_seconds if wall_seconds > 0 else 0.0
        counts = self.counts
        totals = self.self_times()
        metrics = {
            f"{name}.self_us": seconds * 1e6 * per_query for name, seconds in totals.items()
        }

        def ratio(hits: str, base: str) -> float:
            return counts[hits] / counts[base] if counts[base] else 0.0

        metrics.update({
            "resilience.exact.nodes_explored": counts["exact.nodes_explored"] * per_query,
            "resilience.store.gets": counts["store.gets"] * per_query,
            "resilience.store.hit_ratio": ratio("store.hits", "store.gets"),
            "graphdb.build.calls": counts["graphdb.builds"] * per_query,
            "flow.arcs": counts["flow.arcs"] * per_query,
            "flow.compile.calls": counts["flow.compiles"] * per_query,
            "flow.graph_hit_ratio": ratio("flow.graph_hits", "flow.compiles"),
            "service.cache.classifications": counts["cache.classifications"] * per_query,
            "service.cache.result_lookups": counts["cache.lookups"] * per_query,
            "service.cache.result_hit_ratio": ratio("cache.hits", "cache.lookups"),
            "service.admission.wait_us": (
                sum(self.admission_waits) / len(self.admission_waits) * 1e6
                if self.admission_waits else 0.0
            ),
            "service.exchange.failovers": float(
                counts["node.envelopes"] - counts["exchange.parts"] + counts["exchange.degraded"]
            ),
            "service.errors": float(counts["errors"]),
            "trace.span_coverage": (
                min(1.0, sum(totals.values()) / wall_seconds) if wall_seconds > 0 else 0.0
            ),
            "trace.untraced_throughput_qps": untraced_qps,
            "trace.traced_throughput_qps": traced_qps,
            "trace.overhead_ratio": untraced_qps / traced_qps if traced_qps > 0 else 0.0,
        })
        return metrics

    def dump(self, path) -> None:
        """Write every span and request, one tab-separated line each."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("kind\tid\tname\tstart\tend\tparent\trequest\n")
            for sid, name, start, end, parent, rid in self.spans:
                handle.write(f"span\t{sid}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{rid}\n")
            for rid, start, end in self.requests:
                handle.write(f"request\t{rid}\trequest\t{start:.9f}\t{end:.9f}\t0\t{rid}\n")


# ------------------------------------------------------------------ wrappers


def _call(tracer: Tracer, name: str, func, observe=None):
    def traced(*args, **kwargs):
        tracer.begin(name)
        try:
            result = func(*args, **kwargs)
        except BaseException as error:
            tracer.end()
            if observe is not None:
                observe(args, None, error)
            raise
        tracer.end()
        if observe is not None:
            observe(args, result, None)
        return result

    return traced


class _TracedStream:
    """An iterator whose every resume is one span of ``name``."""

    __slots__ = ("_tracer", "_name", "_iterator")

    def __init__(self, tracer: Tracer, name: str, iterator) -> None:
        self._tracer = tracer
        self._name = name
        self._iterator = iterator

    def __iter__(self):
        return self

    def __next__(self):
        self._tracer.begin(self._name)
        try:
            return next(self._iterator)
        finally:
            self._tracer.end()

    def close(self) -> None:
        close = getattr(self._iterator, "close", None)
        if close is not None:
            close()


def _stream(tracer: Tracer, name: str, func, before=None):
    """Wrap a function returning an iterator: the call and each resume are spans."""

    def traced(*args, **kwargs):
        if before is not None:
            before(args)
        tracer.begin(name)
        try:
            iterator = func(*args, **kwargs)
        finally:
            tracer.end()
        return _TracedStream(tracer, name, iterator)

    return traced


def install(tracer: Tracer) -> list[tuple[object, str, bool, object]]:
    """Wrap every layer boundary; returns the undo list for :func:`uninstall`."""
    modules = {
        name: importlib.import_module(f"repro.{name}")
        for name in (
            "languages.core", "languages.operations", "languages.infix",
            "languages.read_once", "resilience.engine", "resilience.local_flow",
            "resilience.bcl_flow", "resilience.one_dangling", "resilience.store",
            "graphdb.database", "graphdb.index", "service.server",
            "service.exchange.threads",
        )
    }
    from repro.exceptions import SearchBudgetExceeded

    counts = tracer.counts
    undo: list[tuple[object, str, bool, object]] = []

    def patch(owner, attr: str, make) -> None:
        had = attr in vars(owner)
        original = vars(owner)[attr] if had else getattr(owner, attr)
        undo.append((owner, attr, had, original))
        setattr(owner, attr, make(original))

    def built(args, result, error) -> None:
        counts["graphdb.builds"] += 1

    def exact_nodes(args, result, error) -> None:
        if isinstance(error, SearchBudgetExceeded):
            counts["exact.nodes_explored"] += error.nodes_explored or 0
        elif result is not None:
            counts["exact.nodes_explored"] += result.details.get("nodes_explored", 0)

    def store_get(args, result, error) -> None:
        counts["store.gets"] += 1
        counts["store.hits"] += result is not None

    def cache_lookup(args, result, error) -> None:
        counts["cache.lookups"] += 1
        counts["cache.hits"] += result is not None

    def min_cut(args, result, error) -> None:
        counts["flow.arcs"] += args[0].num_edges

    def compiled(shape: str):
        def wrap(func):
            def traced(automaton_or_structure, index, *rest, **kwargs):
                substrate = index.substrates.get(shape)
                hits_before = substrate.graph_hits if substrate is not None else 0
                tracer.begin("flow.compile")
                try:
                    return func(automaton_or_structure, index, *rest, **kwargs)
                finally:
                    tracer.end()
                    counts["flow.compiles"] += 1
                    substrate = index.substrates.get(shape)
                    if substrate is not None:
                        counts["flow.graph_hits"] += substrate.graph_hits - hits_before

            return traced
        return wrap

    def execute(func):
        def traced(item, database):
            tracer.set_request(tracer.request_of(item.spec))
            return func(item, database)

        return traced

    def exchange_round(args) -> None:
        envelope = args[1]
        counts["exchange.parts"] += len(envelope.parts)
        tracer.set_request(tracer.round_started(envelope))

    patch(modules["languages.core"].Language, "from_regex",
          lambda f: classmethod(_call(tracer, "languages.parse", f.__func__)))
    patch(modules["languages.operations"], "canonical_fingerprint",
          lambda f: _call(tracer, "languages.fingerprint", f))
    patch(modules["languages.infix"], "infix_free_sublanguage",
          lambda f: _call(tracer, "languages.infix_free", f))
    for attr in ("read_once_automaton", "read_once_automaton_unchecked"):
        patch(modules["languages.read_once"], attr,
              lambda f: _call(tracer, "languages.read_once", f))

    engine = modules["resilience.engine"]
    patch(engine, "choose_method", lambda f: _call(tracer, "resilience.classify", f))
    patch(engine, "resilience_local", lambda f: _call(tracer, "resilience.local_flow", f))
    patch(engine, "resilience_bcl", lambda f: _call(tracer, "resilience.bcl_flow", f))
    patch(engine, "resilience_one_dangling",
          lambda f: _call(tracer, "resilience.one_dangling", f))
    patch(engine, "resilience_exact",
          lambda f: _call(tracer, "resilience.exact", f, exact_nodes))
    patch(engine.LanguageCache, "lookup_result",
          lambda f: _call(tracer, "service.cache.lookup", f, cache_lookup))

    store = modules["resilience.store"]
    for cls in (store.AnalysisStore, store.ResultStore):
        patch(cls, "get", lambda f: _call(tracer, "resilience.store.get", f, store_get))

    database = modules["graphdb.database"]
    for cls in (database.GraphDatabase, database.BagGraphDatabase):
        patch(cls, "__init__",
              lambda f: _call(tracer, "graphdb.build", f, built))
    patch(modules["graphdb.index"].DatabaseIndex, "__init__",
          lambda f: _call(tracer, "graphdb.index", f))

    for module in ("resilience.local_flow", "resilience.one_dangling"):
        patch(modules[module], "compile_product_graph", compiled("product"))
    patch(modules["resilience.bcl_flow"], "compile_bcl_graph", compiled("bcl"))
    for module in ("resilience.local_flow", "resilience.bcl_flow", "resilience.one_dangling"):
        patch(modules[module], "solve_min_cut",
              lambda f: _call(tracer, "flow.min_cut", f, min_cut))

    server = modules["service.server"]
    patch(server, "plan_workload", lambda f: _call(tracer, "service.plan", f))
    patch(server, "_execute", execute)
    patch(server.ResilienceServer, "serve_iter",
          lambda f: _stream(tracer, "service.server", f))
    patch(modules["service.exchange.threads"].ThreadExchange, "submit",
          lambda f: _stream(tracer, "service.exchange", f, exchange_round))
    return undo


def uninstall(undo: list[tuple[object, str, bool, object]]) -> None:
    """Restore every original :func:`install` replaced, newest first."""
    for owner, attr, had, original in reversed(undo):
        if had:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)
