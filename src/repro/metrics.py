"""The serving stack's metrics vocabulary: every stats snapshot, its wire
format and the Prometheus text exposition.

The counter snapshots share one serializer, :class:`Snapshot`, whose wire
format is the plain field map; :class:`LatencyHistogram` keeps its bucket map,
and :class:`ServerMetrics` adds the per-node map, the derived outcome counts,
the Prometheus text and the fleet roll-up.  This module imports nothing from
the package, so every layer can use it.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from collections.abc import Iterable
from dataclasses import dataclass, field, fields
from functools import cache
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Self, get_args, get_origin, get_type_hints

#: Upper bucket bounds (seconds) of the latency histograms; the implicit last
#: bucket is +inf.  Roughly log-spaced from 1 ms to 10 s — per-query serving
#: cost spans flow lookups (sub-ms, cache hits) to exact searches (seconds).
LATENCY_BUCKET_BOUNDS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


@cache
def _field_types(cls: type) -> dict[str, object]:
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _encode(value):
    if isinstance(value, Snapshot):
        return value.as_dict()
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if isinstance(value, dict):
        return {str(key): item for key, item in sorted(value.items())}
    return value


def _decode(kind, value):
    origin = get_origin(kind)
    if origin is tuple:
        return tuple(_decode(get_args(kind)[0], item) for item in value)
    if origin is dict:
        key_type = get_args(kind)[0]
        return {key_type(key): item for key, item in value.items()}
    if isinstance(kind, type) and issubclass(kind, Snapshot):
        return kind.from_dict(value)
    return value


class Snapshot:
    """The shared wire format of the dataclass snapshots: the plain field map.

    :meth:`as_dict` maps every field, in declaration order, to its value; a
    nested snapshot becomes its own map, a tuple a list, and a dict is keyed
    by strings in key order.  :meth:`from_dict` inverts it by the declared
    field types (a field missing from the payload takes its default), and
    :meth:`aggregate` rolls snapshots up: numbers add, tuples merge sorted.
    """

    def as_dict(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> Self:
        return cls(**{
            name: _decode(kind, payload[name])
            for name, kind in _field_types(cls).items()
            if name in payload
        })

    @classmethod
    def aggregate(cls, parts: Iterable[Self]) -> Self:
        parts = list(parts)
        totals = {}
        for name, kind in _field_types(cls).items():
            values = [getattr(part, name) for part in parts]
            if get_origin(kind) is tuple:
                totals[name] = tuple(sorted(item for value in values for item in value))
            else:
                totals[name] = sum(values)
        return cls(**totals)


@dataclass
class CacheStats(Snapshot):
    """Observability counters of one :class:`~repro.resilience.engine.LanguageCache`.

    Attributes:
        canonical_hits: queries resolved to an already-analysed equivalent
            language via the canonical-fingerprint layer.
        canonical_misses: queries that became the representative of a new
            equivalence class.
        classifications: how many query plans were actually built — the
            acceptance observable: equivalent queries share one plan.
        result_hits: queries answered from the result-level cache — an
            identical ``(query class, database, semantics, method)`` tuple was
            already computed (this session, or by any process sharing a
            :class:`~repro.resilience.store.ResultStore`), so the memoized
            :class:`~repro.resilience.result.ResilienceResult` is returned
            without touching the engine (or, in the serving layer, the worker
            pool).
        result_misses: *cacheable* computations the result layer could not
            serve — counted at completion time (:meth:`LanguageCache.store_result`),
            so the hit rate ``hits / (hits + misses)`` reflects cacheable
            traffic only.
        result_uncacheable: completions the result layer can never serve or
            memoize — error and budget-exceeded outcomes.  Counted separately
            so error-heavy chaos traffic cannot skew the hit rate.
        evictions: entries dropped by the ``max_entries`` bound (all layers).
        entries: **gauge** — entries currently held across the cache's maps
            (expression, canonical class and result layers, plus the plan
            memo when the canonical layer is off).
        bytes_estimate: **gauge** — rough in-memory footprint of the held
            languages and results (automaton- and contingency-set-sized
            estimates, not exact byte counts).
    """

    canonical_hits: int = 0
    canonical_misses: int = 0
    classifications: int = 0
    result_hits: int = 0
    result_misses: int = 0
    result_uncacheable: int = 0
    evictions: int = 0
    entries: int = 0
    bytes_estimate: int = 0

    #: Fields that are point-in-time gauges, not monotone counters — the
    #: Prometheus exposition must not render these with a ``_total`` suffix.
    GAUGE_FIELDS = ("entries", "bytes_estimate")


@dataclass(frozen=True)
class PoolStats(Snapshot):
    """A point-in-time snapshot of one server's worker-pool activity.

    Counters are cumulative over the server's lifetime (pool replacements
    included), so deltas between snapshots are meaningful.  The fleet
    roll-up sums them, and ``pool_width`` too (total live workers across
    nodes); rolling up one snapshot is the identity.

    Attributes:
        pools_created: process pools forked so far (1 on a healthy warm
            server; each crash replacement or width growth adds one).
        pool_width: worker count of the live pool (0 while cold/closed).
        worker_pids: PIDs of the live workers, sorted (empty while cold).
        chunks_dispatched: tasks submitted to a pool, retries included.
        chunks_retried: crashed chunks re-dispatched onto a fresh pool.
        crashes: ``BrokenProcessPool`` events observed (worker deaths).
    """

    pools_created: int = 0
    pool_width: int = 0
    worker_pids: tuple[int, ...] = ()
    chunks_dispatched: int = 0
    chunks_retried: int = 0
    crashes: int = 0


@dataclass(frozen=True)
class NodeStats(Snapshot):
    """One node's observability snapshot (the per-node metrics unit).

    ``cache`` counts only a cache the node *owns*: nodes sharing one session
    cache (the conformance harness's shared-cache variants) report empty
    cache stats so fleet aggregation never double-counts one object.

    Attributes:
        node_id: stable routing identity (survives replacement).
        alive: whether the node is believed serveable right now.
        databases: databases the node holds warm servers for.
        envelopes_served: sub-workloads this node has accepted.
        cache: the node-owned language cache counters.
        pool: worker-pool counters summed over the node's servers.
    """

    node_id: str
    alive: bool
    databases: int = 0
    envelopes_served: int = 0
    cache: CacheStats = field(default_factory=CacheStats)
    pool: PoolStats = field(default_factory=PoolStats)


@dataclass(frozen=True)
class AdmissionStats(Snapshot):
    """A snapshot of the admission queue's counters.

    ``queued`` is instantaneous (waiting workloads per priority class right
    now); ``admitted`` and ``rejected`` are cumulative per class over the
    server's lifetime.  ``rejected`` counts both depth-bound refusals and
    deadline expiries; ``deadline_expired`` separates out the latter.
    ``in_flight`` is the number of workloads in the round being served this
    instant.
    """

    queued: dict[int, int]
    admitted: dict[int, int]
    rejected: dict[int, int]
    deadline_expired: int
    depth: int
    in_flight: int


class LatencyHistogram:
    """A fixed-bucket latency histogram (submit-to-delivery, seconds).

    Mutable and cheap to record into; :meth:`as_dict` snapshots it for the
    metrics surface.  Buckets are *non-cumulative* counts per
    :data:`LATENCY_BUCKET_BOUNDS` band (the last band is everything above the
    largest bound).
    """

    __slots__ = ("counts", "count", "sum_seconds")

    def __init__(self) -> None:
        self.counts = [0] * (len(LATENCY_BUCKET_BOUNDS) + 1)
        self.count = 0
        self.sum_seconds = 0.0

    def record(self, seconds: float) -> None:
        self.counts[bisect_left(LATENCY_BUCKET_BOUNDS, seconds)] += 1
        self.count += 1
        self.sum_seconds += seconds

    def quantile(self, q: float) -> float:
        """Upper-bound estimate of the ``q``-quantile (0 for an empty histogram).

        Returns the upper bucket bound containing the quantile rank — a
        conservative (never underestimating) histogram quantile; the overflow
        bucket reports the largest finite bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1] (got {q})")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket in enumerate(self.counts):
            seen += bucket
            if seen >= rank and bucket:
                return LATENCY_BUCKET_BOUNDS[min(index, len(LATENCY_BUCKET_BOUNDS) - 1)]
        return LATENCY_BUCKET_BOUNDS[-1]

    def as_dict(self) -> dict:
        buckets = {str(bound): count for bound, count in zip(LATENCY_BUCKET_BOUNDS, self.counts)}
        buckets["inf"] = self.counts[-1]
        return {"buckets": buckets, "count": self.count, "sum_seconds": self.sum_seconds}

    @classmethod
    def from_dict(cls, payload: dict) -> "LatencyHistogram":
        """Rebuild a histogram from an :meth:`as_dict` snapshot (round-trip
        exact), so consumers of a :class:`ServerMetrics` snapshot can compute
        quantiles without reaching into the live server."""
        histogram = cls()
        buckets = payload["buckets"]
        for index, bound in enumerate(LATENCY_BUCKET_BOUNDS):
            histogram.counts[index] = int(buckets.get(str(bound), 0))
        histogram.counts[-1] = int(buckets.get("inf", 0))
        histogram.count = int(payload["count"])
        histogram.sum_seconds = float(payload["sum_seconds"])
        return histogram


@dataclass(frozen=True)
class ServerMetrics(Snapshot):
    """One coherent snapshot of an async front-end's state.

    Aggregates the full serving runtime: fleet-wide :class:`CacheStats` and
    :class:`PoolStats` roll-ups (over a single node the roll-up equals the
    node's own counters), the per-node :class:`NodeStats` snapshots behind
    them, the admission queue's :class:`AdmissionStats`, and per-outcome-status
    latency histograms (submit-to-delivery seconds).  :meth:`to_json` is the
    JSON wire format the metrics endpoint serves, :meth:`to_prometheus` the
    text exposition — scraping and the programmatic snapshot agree by
    construction (pinned in CI).
    """

    cache: CacheStats
    pool: PoolStats
    admission: AdmissionStats
    latency: dict[str, dict]
    nodes: tuple[NodeStats, ...] = ()
    #: Envelope parts the exchange answered via its in-process serial
    #: fallback after exhausting failover (see ``RoutedExchange``).
    degraded_serves: int = 0

    @classmethod
    def roll_up(
        cls, exchange, admission: AdmissionStats, latency: dict[str, dict]
    ) -> "ServerMetrics":
        """Snapshot an exchange's fleet under the front-end's own counters.

        The fleet cache counts every node-owned cache plus, exactly once, any
        cache the exchange shares between its nodes — nodes serving from a
        shared cache report empty per-node :class:`CacheStats` to keep this
        roll-up double-count-free.
        """
        nodes = exchange.stats()
        caches = [node.cache for node in nodes]
        shared = exchange.shared_cache_stats()
        if shared is not None:
            caches.append(shared)
        return cls(
            cache=CacheStats.aggregate(caches),
            pool=PoolStats.aggregate(node.pool for node in nodes),
            admission=admission,
            latency=latency,
            nodes=nodes,
            degraded_serves=exchange.degraded_serves,
        )

    def outcome_counts(self) -> dict[str, int]:
        """Delivered outcomes per status (derived from the latency histograms)."""
        return {status: histogram["count"] for status, histogram in self.latency.items()}

    def latency_quantiles(
        self, qs: tuple[float, ...] = (0.5, 0.99), *, scale: float = 1.0
    ) -> dict[str, dict]:
        """Conservative latency quantiles per outcome status.

        Returns ``{status: {"p50": ..., "p99": ..., "count": n}}`` (keys
        follow ``qs``) computed from the snapshot's histograms via
        :meth:`LatencyHistogram.quantile`, so every value is an upper bucket
        bound — never an underestimate.  ``scale`` multiplies the quantile
        values (``1e3`` for milliseconds); counts are unscaled.
        """
        summary: dict[str, dict] = {}
        for status, payload in sorted(self.latency.items()):
            histogram = LatencyHistogram.from_dict(payload)
            entry: dict[str, float | int] = {
                f"p{q * 100:g}": histogram.quantile(q) * scale for q in qs
            }
            entry["count"] = histogram.count
            summary[status] = entry
        return summary

    def as_dict(self) -> dict:
        """The field map, ``nodes`` keyed by node id, plus derived ``outcomes``."""
        payload = super().as_dict()
        payload["nodes"] = {node["node_id"]: node for node in payload["nodes"]}
        payload["outcomes"] = self.outcome_counts()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ServerMetrics":
        return super().from_dict({**payload, "nodes": list(payload["nodes"].values())})

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition (format version 0.0.4) of the snapshot.

        Fleet roll-ups are unlabelled; per-node series carry a ``node`` label;
        latency renders as native histograms (cumulative ``le`` buckets) with
        a ``status`` label per outcome status.
        """
        lines: list[str] = []

        def escape(value: str) -> str:
            return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")

        def emit(name: str, kind: str, help_text: str, samples) -> None:
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")
            for labels, value in samples:
                rendered = ""
                if labels:
                    inner = ",".join(f'{key}="{escape(str(val))}"' for key, val in labels.items())
                    rendered = "{" + inner + "}"
                lines.append(f"{name}{rendered} {value}")

        def per_class(counter: dict[int, int]):
            return [
                ({"priority": priority}, count)
                for priority, count in sorted(counter.items())
            ]

        admission = self.admission
        emit("repro_admission_queued", "gauge",
             "Waiting workloads per priority class.", per_class(admission.queued))
        emit("repro_admission_admitted_total", "counter",
             "Workloads admitted per priority class.", per_class(admission.admitted))
        emit("repro_admission_rejected_total", "counter",
             "Workloads rejected per priority class.", per_class(admission.rejected))
        emit("repro_admission_deadline_expired_total", "counter",
             "Workloads rejected because their deadline expired.",
             [({}, admission.deadline_expired)])
        emit("repro_admission_depth", "gauge",
             "Waiting workloads right now.", [({}, admission.depth)])
        emit("repro_admission_in_flight", "gauge",
             "Workloads in the round being served right now.",
             [({}, admission.in_flight)])
        for name, value in sorted(self.cache.as_dict().items()):
            if name in CacheStats.GAUGE_FIELDS:
                # Point-in-time footprint gauges (entries, bytes_estimate):
                # a ``_total`` suffix would mark them as monotone counters
                # and break rate() queries the moment eviction shrinks them.
                emit(f"repro_cache_{name}", "gauge",
                     f"Fleet-wide language-cache gauge: {name}.", [({}, value)])
            else:
                emit(f"repro_cache_{name}_total", "counter",
                     f"Fleet-wide language-cache counter: {name}.", [({}, value)])
        pool = self.pool.as_dict()
        for name, kind in (
            ("pools_created", "counter"), ("chunks_dispatched", "counter"),
            ("chunks_retried", "counter"), ("crashes", "counter"),
            ("pool_width", "gauge"),
        ):
            emit(f"repro_pool_{name}" + ("_total" if kind == "counter" else ""), kind,
                 f"Fleet-wide worker-pool counter: {name}.", [({}, pool[name])])
        emit("repro_degraded_serves_total", "counter",
             "Envelope parts served by the in-process serial fallback after "
             "exhausted failover.", [({}, self.degraded_serves)])
        emit("repro_node_alive", "gauge", "Whether the node is serving.",
             [({"node": s.node_id}, int(s.alive)) for s in self.nodes])
        emit("repro_node_databases", "gauge", "Databases held warm per node.",
             [({"node": s.node_id}, s.databases) for s in self.nodes])
        emit("repro_node_envelopes_served_total", "counter",
             "Sub-workloads accepted per node.",
             [({"node": s.node_id}, s.envelopes_served) for s in self.nodes])
        emit("repro_node_pool_crashes_total", "counter",
             "Worker crashes observed per node.",
             [({"node": s.node_id}, s.pool.crashes) for s in self.nodes])
        emit("repro_node_pool_chunks_dispatched_total", "counter",
             "Chunks dispatched per node.",
             [({"node": s.node_id}, s.pool.chunks_dispatched) for s in self.nodes])
        emit("repro_node_cache_result_hits_total", "counter",
             "Result-level cache hits per node (node-owned caches only).",
             [({"node": s.node_id}, s.cache.result_hits) for s in self.nodes])
        emit("repro_outcomes_total", "counter", "Outcomes delivered per status.",
             [({"status": status}, count)
              for status, count in sorted(self.outcome_counts().items())])
        lines.append(
            "# HELP repro_latency_seconds Submit-to-delivery latency per outcome status."
        )
        lines.append("# TYPE repro_latency_seconds histogram")
        for status, histogram in sorted(self.latency.items()):
            label = escape(status)
            cumulative = 0
            for bound in LATENCY_BUCKET_BOUNDS:
                cumulative += histogram["buckets"][str(bound)]
                lines.append(
                    f'repro_latency_seconds_bucket{{status="{label}",le="{bound}"}} {cumulative}'
                )
            lines.append(
                f'repro_latency_seconds_bucket{{status="{label}",le="+Inf"}} {histogram["count"]}'
            )
            lines.append(
                f'repro_latency_seconds_sum{{status="{label}"}} {histogram["sum_seconds"]}'
            )
            lines.append(
                f'repro_latency_seconds_count{{status="{label}"}} {histogram["count"]}'
            )
        return "\n".join(lines) + "\n"


class MetricsEndpoint:
    """A minimal stdlib HTTP endpoint serving a metrics snapshot.

    ``GET /metrics`` (or ``/``) returns ``ServerMetrics.to_json()`` evaluated
    at scrape time; other paths 404.  Prometheus scrapers get the text
    exposition instead via content negotiation: ``?format=prometheus`` or an
    ``Accept`` header asking for ``text/plain`` selects
    ``ServerMetrics.to_prometheus()``.  Runs a daemonic
    :class:`~http.server.ThreadingHTTPServer` bound to ``host:port`` —
    ``port=0`` picks a free port, exposed as :attr:`port` / :attr:`url`.
    """

    def __init__(self, snapshot, *, host: str = "127.0.0.1", port: int = 0) -> None:
        # repro: allow[ipc-local-class] -- request handler closing over this
        # endpoint's snapshot; http.server instantiates it per connection in
        # this process and it never crosses a pickle boundary
        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                path, _, query = self.path.partition("?")
                path = path.rstrip("/")
                if path not in ("", "/metrics"):
                    self.send_error(404)
                    return
                accept = self.headers.get("Accept", "")
                prometheus = (
                    "format=prometheus" in query.split("&") if query else False
                ) or "text/plain" in accept
                if prometheus:
                    body = snapshot().to_prometheus().encode("utf-8")
                    content_type = "text/plain; version=0.0.4; charset=utf-8"
                else:
                    body = snapshot().to_json().encode("utf-8")
                    content_type = "application/json"
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # pragma: no cover - silence
                pass

        self._http = ThreadingHTTPServer((host, port), Handler)
        self.host, self.port = self._http.server_address[0], self._http.server_address[1]
        self._thread = threading.Thread(
            target=self._http.serve_forever, name="resilience-metrics", daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def close(self) -> None:
        self._http.shutdown()
        self._http.server_close()
        self._thread.join()
