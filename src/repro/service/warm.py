"""Store-warming pass: pre-analyse a query corpus before traffic arrives.

Cold starts pay the full planning price for every first-seen query class —
parsing, the infix-free construction, classification, the method's artefact —
and, for repeated query × database pairs, the resilience computation itself.
This module moves that cost to a deploy-time pass: :func:`warm_queries` plans
a corpus of queries into an :class:`~repro.service.cache.AnalysisStore`, and
:func:`warm_trace` additionally pre-computes the results of a
:class:`~repro.traffic.generator.TrafficTrace`'s query mix into a
:class:`~repro.service.cache.ResultStore`, so a fresh process's first serve
reports store hits and **zero** classifications (pinned by
``benchmarks/bench_cache_tier.py``).

The pass is a plain cache client: everything it writes goes through the same
:class:`~repro.service.cache.LanguageCache` code paths a live server uses, so
a warmed store can never diverge from what serving itself would have written.
Run it from the command line as ``python -m repro.service.warm`` (see
``--help``; documented in ``src/repro/service/README.md``).

This module deliberately never imports :mod:`repro.traffic` at module level
(the traffic package imports the service package); :func:`warm_trace`
duck-types the trace — anything with ``.requests`` (each carrying a
``workload`` and a ``database_key``) and ``.databases`` works.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from collections.abc import Iterable, Mapping

from ..resilience.engine import resilience_many, warm_database
from .cache import AnalysisStore, LanguageCache, ResultStore
from .workload import QuerySpec


@dataclass(frozen=True)
class WarmReport:
    """What one warming pass did (returned by the warm functions and the CLI).

    Attributes:
        queries: corpus entries processed (specs, strings or languages).
        classes: distinct canonical language classes seen.
        classifications: classifications actually run — entries already
            present in the analysis store resolve without one.
        analyses_written: entries written to the analysis store.
        results_computed: resilience computations executed for the result
            store (already-stored keys are skipped).
        results_written: entries written to the result store.
        skipped: corpus entries that failed to analyse (parse errors,
            inapplicable forced methods, ...) — warming is best-effort, a bad
            corpus entry never aborts the pass.
        compacted: store entries evicted by the post-pass compaction.
    """

    queries: int = 0
    classes: int = 0
    classifications: int = 0
    analyses_written: int = 0
    results_computed: int = 0
    results_written: int = 0
    skipped: tuple[str, ...] = ()
    compacted: int = 0

    def as_dict(self) -> dict:
        payload = asdict(self)
        payload["skipped"] = list(self.skipped)
        return payload


def _as_spec(entry) -> QuerySpec:
    return entry if isinstance(entry, QuerySpec) else QuerySpec(entry)


def warm_queries(
    corpus: Iterable,
    *,
    store: AnalysisStore,
    result_store: ResultStore | None = None,
    databases: "Mapping[str, object] | Iterable | None" = None,
    cache: LanguageCache | None = None,
) -> WarmReport:
    """Pre-plan a query corpus into an analysis store.

    ``corpus`` holds queries (strings, languages, RPQs) or full
    :class:`QuerySpec` items.  With ``result_store`` and ``databases``, the
    pass additionally computes and persists each query's resilience on every
    database — budget fields on specs are ignored (results are budget-blind;
    see :meth:`LanguageCache.lookup_result`).  Pass ``cache`` to reuse a
    pre-configured cache (it must carry the same stores).
    """
    if cache is None:
        cache = LanguageCache(store=store, result_store=result_store)
    specs = [_as_spec(entry) for entry in corpus]
    skipped: list[str] = []
    writes_before = store.stats().writes
    result_writes_before = 0 if result_store is None else result_store.stats().writes
    analysed: list[QuerySpec] = []
    for spec in specs:
        try:
            language = cache.language(spec.query)
            cache.plan(language)
        except Exception as error:
            skipped.append(f"{spec.display_name()!r}: {error}")
            continue
        analysed.append(spec)
    computed = 0
    if result_store is not None and databases:
        if isinstance(databases, Mapping):
            database_list = [databases[key] for key in sorted(databases)]
        else:
            database_list = list(databases)
        for database in database_list:
            warm_database(database)
            for spec in analysed:
                computed += _warm_result(cache, spec, database, skipped)
    return WarmReport(
        queries=len(specs),
        classes=cache.stats.canonical_misses,
        classifications=cache.stats.classifications,
        analyses_written=store.stats().writes - writes_before,
        results_computed=computed,
        results_written=(
            0 if result_store is None else result_store.stats().writes - result_writes_before
        ),
        skipped=tuple(skipped),
    )


def _warm_result(cache: LanguageCache, spec: QuerySpec, database, skipped: list[str]) -> int:
    """Compute and store one query × database result; returns computations run.

    Deliberately budget-less: a stored result serves only un-budgeted
    lookups, and a completed computation is budget-independent.
    """
    hits = cache.stats.result_hits
    try:
        resilience_many(
            [spec.query],
            database,
            method=spec.method,
            unsafe=spec.unsafe,
            semantics=spec.semantics,
            cache=cache,
        )
    except Exception as error:
        skipped.append(f"{spec.display_name()!r}: {error}")
        return 0
    return int(cache.stats.result_hits == hits)


def warm_trace(
    trace,
    *,
    store: AnalysisStore,
    result_store: ResultStore | None = None,
    results: bool = True,
) -> WarmReport:
    """Warm the stores with a traffic trace's exact query mix.

    ``trace`` is duck-typed to :class:`~repro.traffic.generator.TrafficTrace`:
    ``.requests`` (each with ``.workload`` iterating specs and a
    ``.database_key``) and ``.databases`` (key → database).  Every distinct
    spec is analysed once; with ``results=True`` (and a ``result_store``),
    each spec's resilience is computed against exactly the databases its
    requests target — the warm set matches what serving the trace would
    compute, no more.
    """
    cache = LanguageCache(store=store, result_store=result_store)
    by_database: dict[str, list[QuerySpec]] = {}
    seen: set[tuple[str, tuple]] = set()
    corpus: list[QuerySpec] = []
    for request in trace.requests:
        for spec in request.workload:
            dedup_key = (
                request.database_key,
                (spec.display_name(), spec.method, spec.semantics, spec.unsafe),
            )
            if dedup_key in seen:
                continue
            seen.add(dedup_key)
            corpus.append(spec)
            by_database.setdefault(request.database_key, []).append(spec)
    report = warm_queries(corpus, store=store, result_store=None, cache=cache)
    computed = 0
    skipped = list(report.skipped)
    if results and result_store is not None:
        for key in sorted(by_database):
            database = trace.databases[key]
            warm_database(database)
            for spec in by_database[key]:
                computed += _warm_result(cache, spec, database, skipped)
    return WarmReport(
        queries=report.queries,
        classes=report.classes,
        classifications=report.classifications,
        analyses_written=report.analyses_written,
        results_computed=computed,
        results_written=0 if result_store is None else result_store.stats().writes,
        skipped=tuple(skipped),
    )


def main(argv: "list[str] | None" = None) -> int:
    """``python -m repro.service.warm`` — warm stores from a corpus.

    The corpus is either ad-hoc queries (``--query``, repeatable) or a
    generated :class:`~repro.traffic.generator.TrafficTrace`
    (``--trace-seed`` / ``--trace-requests``, using the default traffic
    profile — the same corpus ``BENCH_soak`` serves).  Prints a JSON
    :class:`WarmReport` to stdout.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.warm",
        description="Pre-classify a query corpus into shared analysis/result stores.",
    )
    parser.add_argument(
        "--analysis-store", required=True, metavar="DIR",
        help="directory of the AnalysisStore to warm",
    )
    parser.add_argument(
        "--result-store", metavar="DIR",
        help="directory of the ResultStore to warm (optional)",
    )
    parser.add_argument(
        "--query", action="append", default=[], metavar="REGEX",
        help="ad-hoc corpus query (repeatable)",
    )
    parser.add_argument(
        "--trace-seed", type=int, metavar="N",
        help="warm from a generated TrafficTrace with this seed",
    )
    parser.add_argument(
        "--trace-requests", type=int, default=32, metavar="N",
        help="requests in the generated trace (default 32)",
    )
    parser.add_argument(
        "--compact-entries", type=int, metavar="N",
        help="after warming, bound each store to N entries (oldest evicted)",
    )
    parser.add_argument(
        "--compact-age", type=float, metavar="SECONDS",
        help="after warming, drop store entries older than SECONDS",
    )
    options = parser.parse_args(argv)
    if not options.query and options.trace_seed is None:
        parser.error("nothing to warm: pass --query and/or --trace-seed")

    store = AnalysisStore(options.analysis_store)
    result_store = None if options.result_store is None else ResultStore(options.result_store)

    reports: list[WarmReport] = []
    if options.trace_seed is not None:
        # Imported here, not at module level: repro.traffic imports the
        # service package, so a module-level import would be circular.
        from ..traffic.generator import TrafficProfile, generate_traffic

        trace = generate_traffic(
            TrafficProfile(seed=options.trace_seed, requests=options.trace_requests)
        )
        reports.append(warm_trace(trace, store=store, result_store=result_store))
    if options.query:
        reports.append(
            warm_queries(options.query, store=store, result_store=result_store)
        )

    compacted = 0
    if options.compact_entries is not None or options.compact_age is not None:
        for target in (store, result_store):
            if target is not None:
                compacted += target.compact(
                    max_entries=options.compact_entries,
                    max_age_seconds=options.compact_age,
                )

    merged = WarmReport(
        queries=sum(r.queries for r in reports),
        classes=sum(r.classes for r in reports),
        classifications=sum(r.classifications for r in reports),
        analyses_written=sum(r.analyses_written for r in reports),
        results_computed=sum(r.results_computed for r in reports),
        results_written=sum(r.results_written for r in reports),
        skipped=tuple(line for r in reports for line in r.skipped),
        compacted=compacted,
    )
    json.dump(merged.as_dict(), sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised as a subprocess
    raise SystemExit(main())
