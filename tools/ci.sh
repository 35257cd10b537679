#!/usr/bin/env bash
# Single CI entry point: the analysis gate, tier-1 tests, the serving
# benchmark's self-tests, the leak-sanitized serving suites, the on-disk store
# runs, the warm CLI, an install from a clean copy, and the benchmark smoke
# pass with its artefact guards.
# What the serving stack must answer (serve parity, solver differential,
# soaks, kill recovery, metrics scrape, warm stores) is asserted by tier-1;
# this script only sequences invocations.
#
#   tools/ci.sh            # run everything
#   tools/ci.sh -k mincut  # extra args are forwarded to bench_smoke.py
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="$PWD/src${PYTHONPATH:+:$PYTHONPATH}"

# Everything this script writes lands here (benchmark artefacts included:
# the guards below read them from $REPRO_BENCH_DIR), so a run leaves the
# checkout untouched.
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

echo "ci: static analysis gate (repro.analysis, strict, empty baseline)"
python -m repro.analysis src --strict

echo "ci: static analysis negative check (a seeded violation must fail the gate)"
mkdir "$SCRATCH/seeded"
cat > "$SCRATCH/seeded/seeded.py" <<'PY'
def f():
    try:
        return 1
    except:
        pass
PY
if python -m repro.analysis "$SCRATCH/seeded" --no-baseline --strict > /dev/null; then
  echo "ci: analysis gate FAILED to flag a seeded bare-except violation" >&2
  exit 1
fi
echo "ci: analysis negative check ok (seeded violation rejected)"

echo "ci: tier-1 test suite"
python -m pytest -x -q

# Store keys must agree across processes (a warming process writes them, a
# serving one reads them), and canonicalization numbers NFA states in
# frozenset order internally: fixed hash seeds make this check reproducible.
# The one-dangling compile and map-back iterate dicts built from the index,
# generated bags must be one bag per seed, a graph recompiled after an
# eviction must equal the evicted one, fact ids and the exact search tree
# over a database's one index must match the pinned outcomes, and a warmed
# expression entry must read back as a fresh parse: hash order must reach
# none of them.
echo "ci: regex compilation, canonical fingerprints, one-dangling, generated bags, graph eviction, the one index per database and warmed expression entries under PYTHONHASHSEED=0 and 123"
for seed in 0 123; do
  PYTHONHASHSEED="$seed" python -m pytest -q --hypothesis-seed=0 \
    tests/test_automaton_kernel.py -k "TestPinnedFingerprints or TestOnePassCompilation or TestCanonicalTables"
  PYTHONHASHSEED="$seed" python -m pytest -q --hypothesis-seed=0 \
    tests/test_resilience_one_dangling.py \
    tests/test_graphdb.py::TestGenerators::test_random_bag_database_is_one_bag_under_every_hash_seed \
    tests/test_cache_bounds.py::TestGraphCache::test_evicting_every_graph_never_changes_an_outcome \
    tests/test_resilience_engine.py::TestOneIndexPerDatabase \
    tests/test_canonical_cache.py::TestExpressionEntries::test_a_warmed_store_resolves_strings_without_parsing
done

echo "ci: serving benchmark self-tests (the layer names the tracer wraps)"
python -m pytest -q perfbench/selftest.py

echo "ci: leak-sanitized service/exchange/traffic/metrics/cache-bound suites (threads, processes, sockets, temp dirs)"
REPRO_LEAK_SANITIZER=on python -m pytest -q tests/test_server.py tests/test_async_server.py tests/test_exchange.py tests/test_traffic.py \
  tests/test_metrics.py tests/test_cache_bounds.py

# A warming process and a serving process never share a hash seed, and
# stored plans and expression entries pickle frozenset-based automata: the
# warm half must read back under a different seed than the cold half wrote
# with (and, reading, parse and canonicalize nothing).
echo "ci: conformance suite, on-disk analysis store cold (PYTHONHASHSEED=0) then warm (=123)"
mkdir "$SCRATCH/analysis-store"
PYTHONHASHSEED=0 REPRO_ANALYSIS_STORE="$SCRATCH/analysis-store" python -m pytest -q tests/test_conformance.py
PYTHONHASHSEED=123 REPRO_ANALYSIS_STORE="$SCRATCH/analysis-store" python -m pytest -q tests/test_conformance.py

echo "ci: warm CLI (the python -m repro.service.warm entry point)"
python -m repro.service.warm \
  --analysis-store "$SCRATCH/warm/analysis" \
  --result-store "$SCRATCH/warm/result" \
  --trace-seed 7 --trace-requests 16 > "$SCRATCH/warm.json"

echo "ci: install from a clean copy (fresh venv without system site-packages, offline)"
mkdir "$SCRATCH/install"
cp -r setup.py src examples "$SCRATCH/install/"
python -m venv "$SCRATCH/install/venv"
(cd "$SCRATCH/install" && env -u PYTHONPATH venv/bin/python -W ignore setup.py -q develop > /dev/null)
# Run from outside the copy with PYTHONPATH unset: only the install can
# provide the package.
(cd "$SCRATCH" && env -u PYTHONPATH install/venv/bin/python install/examples/quickstart.py > /dev/null)
echo "ci: installed package runs examples/quickstart.py"

echo "ci: benchmark smoke pass (includes bench_resilience_serve + bench_flow_core)"
export REPRO_BENCH_DIR="$SCRATCH/bench"
python tools/bench_smoke.py "$@"
FILTERED=$#

# guard NAME: check the smoke pass's $REPRO_BENCH_DIR/NAME with the Python
# script on stdin (which gets the artefact's path as argv[1]).
guard() {
  local path="$REPRO_BENCH_DIR/$1"
  if [ ! -f "$path" ] && [ "$FILTERED" -gt 0 ]; then
    echo "ci: $1 not produced by this filtered smoke pass, skipped"
    return
  fi
  if [ ! -f "$path" ]; then
    echo "ci: $1 missing (its benchmark did not run?)" >&2
    exit 1
  fi
  echo "ci: benchmark artefact check ($1)"
  python - "$path"
}

guard BENCH_flow.json <<'PY'
import json
import sys
from pathlib import Path

data = json.loads(Path(sys.argv[1]).read_text())
for key in ("rows", "min_cut_speedup", "build_speedup", "serve_p50_us", "serve_p50_speedup"):
    assert key in data, f"BENCH_flow.json missing {key!r}"
for row in data["rows"]:
    assert row["min_cut_us"]["fast"] > 0 and row["min_cut_us"]["reference"] > 0, row
# Loose smoke-safe floor: the array solver must clearly beat the reference
# even on a loaded runner (steady-state measurements put it >= 3x; the strict
# bar is asserted by bench_flow_core.py itself outside smoke mode).
assert data["min_cut_speedup"] >= 1.5, data["min_cut_speedup"]
assert data["serve_p50_speedup"] >= 1.0, data["serve_p50_speedup"]
mode = "smoke" if data.get("smoke") else "full"
print(
    f"ci: flow bench ok ({mode}: min-cut x{data['min_cut_speedup']:.2f}, "
    f"build x{data['build_speedup']:.2f}, serve p50 x{data['serve_p50_speedup']:.2f})"
)
PY

guard BENCH_async.json <<'PY'
import json
import sys
from pathlib import Path

data = json.loads(Path(sys.argv[1]).read_text())
for key in ("admission_overhead", "merged_stream_p50_ms", "direct_exchange_submit_ms", "async_submit_ms"):
    assert key in data, f"BENCH_async.json missing {key!r}"
    assert data[key] > 0, f"BENCH_async.json {key!r} not positive: {data[key]}"
# Loose smoke-safe ceiling; the strict 10% bar is asserted by
# bench_async_serve.py itself outside smoke mode.
assert data["admission_overhead"] <= 2.0, data["admission_overhead"]
mode = "smoke" if data.get("smoke") else "full"
print(
    f"ci: async bench ok ({mode}: overhead x{data['admission_overhead']:.3f}, "
    f"merged p50 {data['merged_stream_p50_ms']:.1f}ms)"
)
PY

guard BENCH_distributed.json <<'PY'
import json
import sys
from pathlib import Path

data = json.loads(Path(sys.argv[1]).read_text())
for key in ("routing_overhead", "direct_serve_iter_ms", "routed_submit_ms", "nodes"):
    assert key in data, f"BENCH_distributed.json missing {key!r}"
    assert data[key] > 0, f"BENCH_distributed.json {key!r} not positive: {data[key]}"
# Loose smoke-safe ceiling; the strict 15% bar is asserted by
# bench_distributed.py itself outside smoke mode.
assert data["routing_overhead"] <= 2.0, data["routing_overhead"]
mode = "smoke" if data.get("smoke") else "full"
print(
    f"ci: distributed bench ok ({mode}: {data['nodes']} nodes, "
    f"routing overhead x{data['routing_overhead']:.3f})"
)
PY

guard BENCH_soak.json <<'PY'
import json
import sys
from pathlib import Path

data = json.loads(Path(sys.argv[1]).read_text())
for key in (
    "by_status", "latency_ms", "admission_rejects", "kills",
    "recovery_rounds_max", "throughput_rps", "violations", "leaks",
):
    assert key in data, f"BENCH_soak.json missing {key!r}"
assert data["violations"] == 0, f"soak ran with violations: {data['violations']}"
assert data["leaks"] == 0, f"soak leaked resources: {data['leaks']}"
assert data["kills"] >= 1, "the soak must include a scheduled node kill"
assert data["recovery_rounds_max"] <= data["recovery_rounds_bound"], data
assert data["throughput_rps"] > 0, data["throughput_rps"]
assert data["replay_by_status_identical"] is True, "soak replay diverged"
ok = data["latency_ms"].get("ok", {})
assert ok.get("count", 0) > 0 and ok.get("p99", 0) >= ok.get("p50", 0), ok

http = data.get("http")
assert http is not None, "BENCH_soak.json missing the paced HTTP trajectory"
for key in (
    "pace", "by_status", "network_faults", "degraded_serves", "kills",
    "recovery_rounds_max", "throughput_rps", "violations", "leaks",
):
    assert key in http, f"BENCH_soak.json http section missing {key!r}"
assert http["pace"] > 0, "the HTTP trajectory must replay paced (open-loop)"
assert http["violations"] == 0, f"http soak ran with violations: {http['violations']}"
assert http["leaks"] == 0, f"http soak leaked resources: {http['leaks']}"
assert http["network_faults"] >= 4, "all four network chaos kinds must fire"
assert http["kills"] >= 1, "the http soak must include a scheduled node kill"
assert http["recovery_rounds_max"] <= http["recovery_rounds_bound"], http
assert http["parity_checked"] == http["requests"], http
assert http["replay_by_status_identical"] is True, "http soak replay diverged"

mode = "smoke" if data.get("smoke") else "full"
print(
    f"ci: soak bench ok ({mode}: {data['requests']} requests, "
    f"{data['throughput_rps']:.0f} outcomes/s, ok p50 {ok['p50']:.0f}ms "
    f"p99 {ok['p99']:.0f}ms, recovery {data['recovery_rounds_max']} round(s); "
    f"http: {http['network_faults']} network faults, pace {http['pace']})"
)
PY

guard BENCH_cache.json <<'PY'
import json
import sys
from pathlib import Path

data = json.loads(Path(sys.argv[1]).read_text())
for key in ("warm_pass", "cold", "warmed_store", "in_session", "eviction"):
    assert key in data, f"BENCH_cache.json missing {key!r}"
cold, warmed, session = data["cold"], data["warmed_store"], data["in_session"]
# The acceptance observable: a fresh process serving from warmed stores never
# classifies and reports store hits.
assert cold["classifications"] > 0, cold
assert warmed["classifications"] == 0, "warmed serve re-classified"
assert warmed["analysis_store_hits"] > 0 and warmed["result_store_hits"] > 0, warmed
assert session["classifications"] == 0, session
assert session["hit_rate"] >= warmed["hit_rate"] >= cold["hit_rate"], (
    cold["hit_rate"], warmed["hit_rate"], session["hit_rate"],
)
eviction = data["eviction"]
assert eviction["evictions"] > 0, eviction
assert eviction["final_entries"] <= 4 * eviction["max_entries"], eviction
assert eviction["by_status_identical"] is True, "bounded serve diverged"
mode = "smoke" if data.get("smoke") else "full"
print(
    f"ci: cache bench ok ({mode}: warmed hit rate {warmed['hit_rate']:.2f} "
    f"with 0 classifications, {warmed['analysis_store_hits']} analysis + "
    f"{warmed['result_store_hits']} result store hits, "
    f"{eviction['evictions']} evictions bounded at {eviction['final_entries']} entries)"
)
PY

echo "ci: all green"
