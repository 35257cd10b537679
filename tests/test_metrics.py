"""The metrics wire formats, pinned byte for byte, and the dead-node report.

One fixed :class:`~repro.service.ServerMetrics` snapshot -- two nodes (the
second serving from the exchange's shared cache, so it reports empty cache
counters), admission priorities 0, 2 and 10 (whose integer and string orders
differ) and one latency sample in every histogram band -- renders to exactly
the JSON, Prometheus text and per-node ``/stats`` JSON below.  A change to
any serializer that moves a byte fails here before any scraper notices.
"""

import asyncio
import json
import urllib.request

import pytest

from repro.graphdb import generators
from repro.service import (
    AdmissionStats,
    AsyncResilienceServer,
    CacheStats,
    HttpExchange,
    LatencyHistogram,
    NodeStats,
    PoolStats,
    ServerMetrics,
)

#: One sample per band: each finite upper bound (bands include their upper
#: bound) and one sample above the largest.
BAND_SAMPLES = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 20.0,
)


def fixed_metrics() -> ServerMetrics:
    owned = CacheStats(
        canonical_hits=7, canonical_misses=3, classifications=3, result_hits=11,
        result_misses=5, result_uncacheable=2, evictions=1, entries=9, bytes_estimate=4096,
    )
    shared = CacheStats(
        canonical_hits=2, canonical_misses=1, classifications=1, result_hits=4,
        result_misses=1, result_uncacheable=0, evictions=0, entries=3, bytes_estimate=1024,
    )
    nodes = (
        NodeStats("node-0", True, 2, 5, owned, PoolStats(1, 2, (4242, 4241), 6, 1, 1)),
        NodeStats("node-1", False, 1, 3, CacheStats(), PoolStats(2, 1, (5150,), 4, 0, 0)),
    )
    ok = LatencyHistogram()
    for seconds in BAND_SAMPLES:
        ok.record(seconds)
    rejected = LatencyHistogram()
    rejected.record(0.0003)
    return ServerMetrics(
        cache=CacheStats.aggregate([node.cache for node in nodes] + [shared]),
        pool=PoolStats.aggregate(node.pool for node in nodes),
        admission=AdmissionStats(
            queued={10: 1, 2: 3},
            admitted={0: 12, 2: 4, 10: 2},
            rejected={10: 1, 0: 2},
            deadline_expired=1,
            depth=4,
            in_flight=2,
        ),
        latency={"admission-rejected": rejected.as_dict(), "ok": ok.as_dict()},
        nodes=nodes,
        degraded_serves=1,
    )


#: ``ServerMetrics.to_json()``: what the metrics endpoint serves by default.
GOLDEN_JSON = (
    '{"admission": {"admitted": {"0": 12, "10": 2, "2": 4}, "deadline_expired": 1, '
    '"depth": 4, "in_flight": 2, "queued": {"10": 1, "2": 3}, "rejected": {"0": 2, '
    '"10": 1}}, "cache": {"bytes_estimate": 5120, "canonical_hits": 9, '
    '"canonical_misses": 4, "classifications": 4, "entries": 12, "evictions": 1, '
    '"result_hits": 15, "result_misses": 6, "result_uncacheable": 2}, '
    '"degraded_serves": 1, "latency": {"admission-rejected": {"buckets": {"0.001": 1, '
    '"0.0025": 0, "0.005": 0, "0.01": 0, "0.025": 0, "0.05": 0, "0.1": 0, "0.25": 0, '
    '"0.5": 0, "1.0": 0, "10.0": 0, "2.5": 0, "5.0": 0, "inf": 0}, "count": 1, '
    '"sum_seconds": 0.0003}, "ok": {"buckets": {"0.001": 1, "0.0025": 1, "0.005": 1, '
    '"0.01": 1, "0.025": 1, "0.05": 1, "0.1": 1, "0.25": 1, "0.5": 1, "1.0": 1, '
    '"10.0": 1, "2.5": 1, "5.0": 1, "inf": 1}, "count": 14, "sum_seconds": 39.4435}}, '
    '"nodes": {"node-0": {"alive": true, "cache": {"bytes_estimate": 4096, '
    '"canonical_hits": 7, "canonical_misses": 3, "classifications": 3, "entries": 9, '
    '"evictions": 1, "result_hits": 11, "result_misses": 5, "result_uncacheable": 2}, '
    '"databases": 2, "envelopes_served": 5, "node_id": "node-0", '
    '"pool": {"chunks_dispatched": 6, "chunks_retried": 1, "crashes": 1, '
    '"pool_width": 2, "pools_created": 1, "worker_pids": [4242, 4241]}}, '
    '"node-1": {"alive": false, "cache": {"bytes_estimate": 0, "canonical_hits": 0, '
    '"canonical_misses": 0, "classifications": 0, "entries": 0, "evictions": 0, '
    '"result_hits": 0, "result_misses": 0, "result_uncacheable": 0}, "databases": 1, '
    '"envelopes_served": 3, "node_id": "node-1", "pool": {"chunks_dispatched": 4, '
    '"chunks_retried": 0, "crashes": 0, "pool_width": 1, "pools_created": 2, '
    '"worker_pids": [5150]}}}, "outcomes": {"admission-rejected": 1, "ok": 14}, '
    '"pool": {"chunks_dispatched": 10, "chunks_retried": 1, "crashes": 1, '
    '"pool_width": 3, "pools_created": 3, "worker_pids": [4241, 4242, 5150]}}'
)

#: ``GET /stats`` of node-0: its snapshot as the node server encodes it.
GOLDEN_NODE_JSON = (
    '{"node_id": "node-0", "alive": true, "databases": 2, "envelopes_served": 5, '
    '"cache": {"canonical_hits": 7, "canonical_misses": 3, "classifications": 3, '
    '"result_hits": 11, "result_misses": 5, "result_uncacheable": 2, "evictions": 1, '
    '"entries": 9, "bytes_estimate": 4096}, "pool": {"pools_created": 1, '
    '"pool_width": 2, "worker_pids": [4242, 4241], "chunks_dispatched": 6, '
    '"chunks_retried": 1, "crashes": 1}}'
)

#: ``ServerMetrics.to_prometheus()``.
GOLDEN_PROMETHEUS = """\
# HELP repro_admission_queued Waiting workloads per priority class.
# TYPE repro_admission_queued gauge
repro_admission_queued{priority="2"} 3
repro_admission_queued{priority="10"} 1
# HELP repro_admission_admitted_total Workloads admitted per priority class.
# TYPE repro_admission_admitted_total counter
repro_admission_admitted_total{priority="0"} 12
repro_admission_admitted_total{priority="2"} 4
repro_admission_admitted_total{priority="10"} 2
# HELP repro_admission_rejected_total Workloads rejected per priority class.
# TYPE repro_admission_rejected_total counter
repro_admission_rejected_total{priority="0"} 2
repro_admission_rejected_total{priority="10"} 1
# HELP repro_admission_deadline_expired_total Workloads rejected because their deadline expired.
# TYPE repro_admission_deadline_expired_total counter
repro_admission_deadline_expired_total 1
# HELP repro_admission_depth Waiting workloads right now.
# TYPE repro_admission_depth gauge
repro_admission_depth 4
# HELP repro_admission_in_flight Workloads in the round being served right now.
# TYPE repro_admission_in_flight gauge
repro_admission_in_flight 2
# HELP repro_cache_bytes_estimate Fleet-wide language-cache gauge: bytes_estimate.
# TYPE repro_cache_bytes_estimate gauge
repro_cache_bytes_estimate 5120
# HELP repro_cache_canonical_hits_total Fleet-wide language-cache counter: canonical_hits.
# TYPE repro_cache_canonical_hits_total counter
repro_cache_canonical_hits_total 9
# HELP repro_cache_canonical_misses_total Fleet-wide language-cache counter: canonical_misses.
# TYPE repro_cache_canonical_misses_total counter
repro_cache_canonical_misses_total 4
# HELP repro_cache_classifications_total Fleet-wide language-cache counter: classifications.
# TYPE repro_cache_classifications_total counter
repro_cache_classifications_total 4
# HELP repro_cache_entries Fleet-wide language-cache gauge: entries.
# TYPE repro_cache_entries gauge
repro_cache_entries 12
# HELP repro_cache_evictions_total Fleet-wide language-cache counter: evictions.
# TYPE repro_cache_evictions_total counter
repro_cache_evictions_total 1
# HELP repro_cache_result_hits_total Fleet-wide language-cache counter: result_hits.
# TYPE repro_cache_result_hits_total counter
repro_cache_result_hits_total 15
# HELP repro_cache_result_misses_total Fleet-wide language-cache counter: result_misses.
# TYPE repro_cache_result_misses_total counter
repro_cache_result_misses_total 6
# HELP repro_cache_result_uncacheable_total Fleet-wide language-cache counter: result_uncacheable.
# TYPE repro_cache_result_uncacheable_total counter
repro_cache_result_uncacheable_total 2
# HELP repro_pool_pools_created_total Fleet-wide worker-pool counter: pools_created.
# TYPE repro_pool_pools_created_total counter
repro_pool_pools_created_total 3
# HELP repro_pool_chunks_dispatched_total Fleet-wide worker-pool counter: chunks_dispatched.
# TYPE repro_pool_chunks_dispatched_total counter
repro_pool_chunks_dispatched_total 10
# HELP repro_pool_chunks_retried_total Fleet-wide worker-pool counter: chunks_retried.
# TYPE repro_pool_chunks_retried_total counter
repro_pool_chunks_retried_total 1
# HELP repro_pool_crashes_total Fleet-wide worker-pool counter: crashes.
# TYPE repro_pool_crashes_total counter
repro_pool_crashes_total 1
# HELP repro_pool_pool_width Fleet-wide worker-pool counter: pool_width.
# TYPE repro_pool_pool_width gauge
repro_pool_pool_width 3
# HELP repro_degraded_serves_total Envelope parts served by the in-process serial fallback after exhausted failover.
# TYPE repro_degraded_serves_total counter
repro_degraded_serves_total 1
# HELP repro_node_alive Whether the node is serving.
# TYPE repro_node_alive gauge
repro_node_alive{node="node-0"} 1
repro_node_alive{node="node-1"} 0
# HELP repro_node_databases Databases held warm per node.
# TYPE repro_node_databases gauge
repro_node_databases{node="node-0"} 2
repro_node_databases{node="node-1"} 1
# HELP repro_node_envelopes_served_total Sub-workloads accepted per node.
# TYPE repro_node_envelopes_served_total counter
repro_node_envelopes_served_total{node="node-0"} 5
repro_node_envelopes_served_total{node="node-1"} 3
# HELP repro_node_pool_crashes_total Worker crashes observed per node.
# TYPE repro_node_pool_crashes_total counter
repro_node_pool_crashes_total{node="node-0"} 1
repro_node_pool_crashes_total{node="node-1"} 0
# HELP repro_node_pool_chunks_dispatched_total Chunks dispatched per node.
# TYPE repro_node_pool_chunks_dispatched_total counter
repro_node_pool_chunks_dispatched_total{node="node-0"} 6
repro_node_pool_chunks_dispatched_total{node="node-1"} 4
# HELP repro_node_cache_result_hits_total Result-level cache hits per node (node-owned caches only).
# TYPE repro_node_cache_result_hits_total counter
repro_node_cache_result_hits_total{node="node-0"} 11
repro_node_cache_result_hits_total{node="node-1"} 0
# HELP repro_outcomes_total Outcomes delivered per status.
# TYPE repro_outcomes_total counter
repro_outcomes_total{status="admission-rejected"} 1
repro_outcomes_total{status="ok"} 14
# HELP repro_latency_seconds Submit-to-delivery latency per outcome status.
# TYPE repro_latency_seconds histogram
repro_latency_seconds_bucket{status="admission-rejected",le="0.001"} 1
repro_latency_seconds_bucket{status="admission-rejected",le="0.0025"} 1
repro_latency_seconds_bucket{status="admission-rejected",le="0.005"} 1
repro_latency_seconds_bucket{status="admission-rejected",le="0.01"} 1
repro_latency_seconds_bucket{status="admission-rejected",le="0.025"} 1
repro_latency_seconds_bucket{status="admission-rejected",le="0.05"} 1
repro_latency_seconds_bucket{status="admission-rejected",le="0.1"} 1
repro_latency_seconds_bucket{status="admission-rejected",le="0.25"} 1
repro_latency_seconds_bucket{status="admission-rejected",le="0.5"} 1
repro_latency_seconds_bucket{status="admission-rejected",le="1.0"} 1
repro_latency_seconds_bucket{status="admission-rejected",le="2.5"} 1
repro_latency_seconds_bucket{status="admission-rejected",le="5.0"} 1
repro_latency_seconds_bucket{status="admission-rejected",le="10.0"} 1
repro_latency_seconds_bucket{status="admission-rejected",le="+Inf"} 1
repro_latency_seconds_sum{status="admission-rejected"} 0.0003
repro_latency_seconds_count{status="admission-rejected"} 1
repro_latency_seconds_bucket{status="ok",le="0.001"} 1
repro_latency_seconds_bucket{status="ok",le="0.0025"} 2
repro_latency_seconds_bucket{status="ok",le="0.005"} 3
repro_latency_seconds_bucket{status="ok",le="0.01"} 4
repro_latency_seconds_bucket{status="ok",le="0.025"} 5
repro_latency_seconds_bucket{status="ok",le="0.05"} 6
repro_latency_seconds_bucket{status="ok",le="0.1"} 7
repro_latency_seconds_bucket{status="ok",le="0.25"} 8
repro_latency_seconds_bucket{status="ok",le="0.5"} 9
repro_latency_seconds_bucket{status="ok",le="1.0"} 10
repro_latency_seconds_bucket{status="ok",le="2.5"} 11
repro_latency_seconds_bucket{status="ok",le="5.0"} 12
repro_latency_seconds_bucket{status="ok",le="10.0"} 13
repro_latency_seconds_bucket{status="ok",le="+Inf"} 14
repro_latency_seconds_sum{status="ok"} 39.4435
repro_latency_seconds_count{status="ok"} 14
"""


def test_json_wire_format_is_pinned():
    assert fixed_metrics().to_json() == GOLDEN_JSON


def test_prometheus_exposition_is_pinned():
    assert fixed_metrics().to_prometheus() == GOLDEN_PROMETHEUS


def test_node_stats_wire_format_is_pinned():
    assert json.dumps(fixed_metrics().nodes[0].as_dict()) == GOLDEN_NODE_JSON


def _snapshots():
    metrics = fixed_metrics()
    return {
        "CacheStats": metrics.cache,
        "PoolStats": metrics.pool,
        "NodeStats": metrics.nodes[0],
        "AdmissionStats": metrics.admission,
        "ServerMetrics": metrics,
    }


@pytest.mark.parametrize("name", sorted(_snapshots()))
def test_every_snapshot_round_trips(name):
    snapshot = _snapshots()[name]
    rebuilt = type(snapshot).from_dict(json.loads(json.dumps(snapshot.as_dict())))
    assert rebuilt == snapshot
    assert rebuilt.as_dict() == snapshot.as_dict()


def test_latency_histogram_round_trips():
    histogram = LatencyHistogram()
    for seconds in BAND_SAMPLES:
        histogram.record(seconds)
    rebuilt = LatencyHistogram.from_dict(json.loads(json.dumps(histogram.as_dict())))
    assert (rebuilt.counts, rebuilt.count, rebuilt.sum_seconds) == (
        histogram.counts, histogram.count, histogram.sum_seconds,
    )


def test_an_unreachable_http_node_reports_dead_with_zero_counters():
    """Closing one HTTP node's server leaves the metrics surface standing:
    the node reads as dead with zero counters, the live node reads as before,
    and a scrape of the endpoint answers."""
    database = generators.random_labelled_graph(5, 14, "abxy", seed=3)
    server = AsyncResilienceServer(HttpExchange(nodes=2, max_workers=1), database=database)
    try:
        async def serve():
            return [outcome async for outcome in await server.submit(["ab", "ax*b", "aa"])]

        assert len(asyncio.run(serve())) == 3
        before = {node.node_id: node for node in server.metrics().nodes}
        node_server = server.exchange.manager.launcher._servers[0]
        dead = node_server.runtime.node_id
        node_server.close()

        metrics = server.metrics()
        nodes = {node.node_id: node for node in metrics.nodes}
        zero_pool = PoolStats(0, 0, (), 0, 0, 0)
        assert nodes[dead] == NodeStats(dead, False, 0, 0, CacheStats(), zero_pool)
        (live,) = set(nodes) - {dead}
        assert nodes[live] == before[live]
        assert server.exchange.heartbeat() == {dead: False, live: True}
        assert server.worker_pids() == frozenset(before[live].pool.worker_pids)
        assert f'repro_node_alive{{node="{dead}"}} 0\n' in metrics.to_prometheus()

        endpoint = server.metrics_endpoint(port=0)
        with urllib.request.urlopen(endpoint.url, timeout=10) as response:
            scraped = json.loads(response.read())
        assert scraped["nodes"][dead] == nodes[dead].as_dict()
        assert scraped["nodes"][live]["alive"] is True
    finally:
        server.close()
