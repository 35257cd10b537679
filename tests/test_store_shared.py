"""Tests for the shared on-disk store tier: ``ResultStore``, compaction, and
multi-process torture over one shared directory.

The stores are the cross-process layer of the cache tier: atomic writes,
validate-on-read with evict-on-detection, and size/age-bounded compaction must
hold up when several processes warm, read and compact the same directory at
once — no torn reads, no invalid entries served, stats consistent.
"""

import os
import pickle
import random
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.graphdb import generators
from repro.languages.core import Language
from repro.resilience import (
    AnalysisStore,
    LanguageCache,
    ResultStore,
    plan_query,
    resilience,
)
from repro.service import ResilienceServer
from repro.service.warm import warm_queries, warm_trace
from repro.service.workload import QuerySpec
from repro.traffic.generator import TrafficProfile, generate_traffic

EXPRESSIONS = ["ab", "ba", "aa", "ax*b", "ab|ba", "xy", "(ab)*a", "bb"]


@pytest.fixture
def database():
    return generators.random_labelled_graph(5, 14, "abxy", seed=3)


class TestResultStore:
    def result_key(self, cache, language, database):
        return (
            language.fingerprint(),
            database.content_fingerprint(),
            "set",
            None,
            False,
        )

    def test_round_trip_preserves_the_result_exactly(self, tmp_path, database):
        cache = LanguageCache()
        language = cache.language("ax*b")
        result = resilience(language, database)
        store = ResultStore(tmp_path)
        key = self.result_key(cache, language, database)
        store.put(key, result)
        loaded = ResultStore(tmp_path).get(key)
        assert loaded == result
        assert loaded.contingency_set == result.contingency_set

    def test_corrupt_entry_is_ignored_and_evicted(self, tmp_path, database):
        cache = LanguageCache()
        language = cache.language("ab")
        store = ResultStore(tmp_path)
        key = self.result_key(cache, language, database)
        store.put(key, resilience(language, database))
        [path] = list(tmp_path.glob("*.result"))
        path.write_bytes(b"\x00poison")
        reader = ResultStore(tmp_path)
        assert reader.get(key) is None
        assert reader.stats().ignored == 1
        assert reader.stats().evictions == 1
        assert not path.exists()

    def test_stale_salt_is_ignored_and_evicted(self, tmp_path, database):
        cache = LanguageCache()
        language = cache.language("ab")
        key = self.result_key(cache, language, database)
        stale = ResultStore(tmp_path, salt="0123456789abcdef")
        stale.put(key, resilience(language, database))
        current = ResultStore(tmp_path)
        assert current.get(key) is None
        assert current.stats().ignored == 1
        assert len(current) == 0

    def test_the_salt_covers_the_flow_core(self, monkeypatch):
        # Every flow result's value and contingency set come from the flow
        # package, so its sources must salt stored results.
        from repro.resilience import store

        hashed = []
        monkeypatch.setattr(store, "_digest_files", lambda paths: hashed.extend(paths) or "")
        store.result_code_salt.cache_clear()
        try:
            store.result_code_salt()
        finally:
            store.result_code_salt.cache_clear()
        names = {(path.parent.name, path.name) for path in hashed}
        assert {("flow", "compiled.py"), ("flow", "substrate.py")} <= names
        assert {("resilience", "one_dangling.py"), ("graphdb", "index.py")} <= names

    def test_mismatched_key_inside_envelope_is_a_miss(self, tmp_path, database):
        cache = LanguageCache()
        language = cache.language("ab")
        store = ResultStore(tmp_path)
        key = self.result_key(cache, language, database)
        store.put(key, resilience(language, database))
        [path] = list(tmp_path.glob("*.result"))
        envelope = pickle.loads(path.read_bytes())
        envelope["key"] = ("someone", "else", "set", None, False)
        path.write_bytes(pickle.dumps(envelope))
        reader = ResultStore(tmp_path)
        assert reader.get(key) is None
        assert reader.stats().ignored == 1

    def test_cache_writes_through_and_reads_back(self, tmp_path, database):
        writer = LanguageCache(result_store=ResultStore(tmp_path))
        language = writer.language("ax*b")
        result = resilience(language, database)
        writer.store_result(language, database, result)
        # A different process (fresh cache, fresh store instance) serves the
        # memoized result without computing anything.
        reader_store = ResultStore(tmp_path)
        reader = LanguageCache(result_store=reader_store)
        hit = reader.lookup_result(reader.language("ax*b"), database)
        assert hit == result.with_query("ax*b")
        assert reader_store.stats().hits == 1
        assert reader.stats.result_hits == 1

    def test_put_keeps_the_first_entry_and_a_stale_one_is_rewritten_after_its_read(
        self, tmp_path, database
    ):
        cache = LanguageCache()
        language = cache.language("ab")
        key = self.result_key(cache, language, database)
        result = resilience(language, database)
        ResultStore(tmp_path, salt="0123456789abcdef").put(key, result)
        [path] = list(tmp_path.glob("*.result"))
        stale = path.read_bytes()
        current = ResultStore(tmp_path)
        current.put(key, result)
        assert current.stats().writes == 0 and path.read_bytes() == stale
        # The read evicts the stale entry; the next put writes the result.
        assert current.get(key) is None
        assert current.stats().evictions == 1
        current.put(key, result)
        assert current.stats().writes == 1
        assert ResultStore(tmp_path).get(key) == result

    def test_result_store_requires_canonical_layer(self, tmp_path):
        with pytest.raises(ValueError):
            LanguageCache(canonical=False, result_store=ResultStore(tmp_path))


class TestWriteBack:
    """The result store is written only for results new to the session."""

    BUDGETED = QuerySpec("aba", method="exact", max_nodes=10_000)

    def test_a_key_new_to_the_session_writes_once(self, tmp_path, database):
        store = ResultStore(tmp_path)
        cache = LanguageCache(result_store=store)
        with ResilienceServer(database, max_workers=1, cache=cache) as server:
            [plain] = server.serve([QuerySpec("aba", method="exact")])
            assert plain.status == "ok"
            assert store.stats().writes == 1
            # Budgeted specs never hit, so this one executes and completes;
            # its key is already held, and the disk holds an equal result.
            [budgeted] = server.serve([self.BUDGETED])
            assert (budgeted.status, budgeted.result) == ("ok", plain.result)
            assert cache.stats.result_misses == 2 and cache.stats.result_hits == 0
            assert store.stats().writes == 1
            [other] = server.serve(["ab"])
            assert other.status == "ok"
            assert store.stats().writes == 2
        assert len(ResultStore(tmp_path)) == 2

    def test_a_store_hit_is_never_written_back(self, tmp_path, database):
        with ResilienceServer(
            database, max_workers=1, cache=LanguageCache(result_store=ResultStore(tmp_path))
        ) as warming:
            [warmed] = warming.serve([QuerySpec("aba", method="exact")])
        store = ResultStore(tmp_path)
        cache = LanguageCache(result_store=store)
        with ResilienceServer(database, max_workers=1, cache=cache) as server:
            [hit] = server.serve([QuerySpec("aba", method="exact")])
            [budgeted] = server.serve([self.BUDGETED])
        assert hit.result == budgeted.result == warmed.result
        assert store.stats().hits == 1
        assert store.stats().writes == 0

    def test_fresh_sessions_write_a_budgeted_result_once(self, tmp_path, database):
        # A budgeted spec never hits, so it re-runs in every session; the
        # disk already holds its result after the first, and is not rewritten.
        writes = 0
        for _ in range(2):
            store = ResultStore(tmp_path)
            with ResilienceServer(
                database, max_workers=1, cache=LanguageCache(result_store=store)
            ) as server:
                [budgeted] = server.serve([self.BUDGETED])
            assert budgeted.status == "ok"
            writes += store.stats().writes
        assert writes == 1
        assert len(ResultStore(tmp_path)) == 1


class TestCompaction:
    def test_max_entries_drops_oldest_first(self, tmp_path):
        store = AnalysisStore(tmp_path)
        languages = [Language.from_regex(expression) for expression in EXPRESSIONS]
        for index, language in enumerate(languages):
            store.put(language.fingerprint(), plan_query(language))
            # Distinct mtimes so age order is unambiguous on coarse clocks.
            path = tmp_path / f"{language.fingerprint()}.analysis"
            os.utime(path, (index, index))
        evicted = store.compact(max_entries=3)
        assert evicted == len(EXPRESSIONS) - 3
        assert len(store) == 3
        survivors = {path.stem for path in tmp_path.glob("*.analysis")}
        newest = {language.fingerprint() for language in languages[-3:]}
        assert survivors == newest
        assert store.stats().evictions == evicted

    def test_max_age_drops_stale_entries(self, tmp_path):
        store = AnalysisStore(tmp_path)
        language = Language.from_regex("ab")
        store.put(language.fingerprint(), plan_query(language))
        path = tmp_path / f"{language.fingerprint()}.analysis"
        os.utime(path, (1, 1))  # 1970: ancient
        fresh = Language.from_regex("ba")
        store.put(fresh.fingerprint(), plan_query(fresh))
        evicted = store.compact(max_age_seconds=3600.0)
        assert evicted == 1
        assert store.get(fresh.fingerprint()) is not None
        assert store.get(language.fingerprint()) is None

    def test_max_entries_bounds_plans_and_expression_entries_apart(self, tmp_path):
        store = AnalysisStore(tmp_path)
        warm_queries(EXPRESSIONS, store=store)
        classes = len({Language.from_regex(e).fingerprint() for e in EXPRESSIONS})
        assert (len(store), len(list(tmp_path.glob("*.expression")))) == (
            classes, len(EXPRESSIONS)
        )
        evicted = store.compact(max_entries=3)
        assert evicted == classes - 3 + len(EXPRESSIONS) - 3
        assert len(store) == 3
        assert len(list(tmp_path.glob("*.expression"))) == 3

    def test_compact_without_bounds_is_a_no_op(self, tmp_path):
        store = AnalysisStore(tmp_path)
        language = Language.from_regex("ab")
        store.put(language.fingerprint(), plan_query(language))
        assert store.compact() == 0
        assert len(store) == 1


# ----------------------------------------------------------- torture harness

ROUNDS = 12
WORKERS = 4


def _torture_worker(args):
    """One process of the torture: warm, read and compact a shared directory.

    Returns ``(anomalies, stats_dicts)`` — an anomaly is an invalid value
    *served* (torn read, wrong method, wrong result), never a plain miss:
    misses are legal at any time (a sibling's compaction may have evicted
    anything).
    """
    directory, worker_id, corpus = args
    rng = random.Random(worker_id)
    analyses = AnalysisStore(os.path.join(directory, "analysis"))
    results = ResultStore(os.path.join(directory, "result"))
    anomalies = []
    for round_index in range(ROUNDS):
        entries = list(corpus)
        rng.shuffle(entries)
        for fingerprint, plan, key, result in entries:
            method = plan.method
            action = rng.random()
            if action < 0.45:
                analyses.put(fingerprint, plan)
                results.put(key, result)
            elif action < 0.9:
                loaded = analyses.get(fingerprint)
                if loaded is not None and loaded.method != method:
                    anomalies.append(
                        f"worker {worker_id} round {round_index}: analysis served "
                        f"{loaded.method!r}, expected {method!r}"
                    )
                replayed = results.get(key)
                if replayed is not None and replayed != result:
                    anomalies.append(
                        f"worker {worker_id} round {round_index}: result mismatch"
                    )
            else:
                analyses.compact(max_entries=len(corpus) // 2)
                results.compact(max_entries=len(corpus) // 2)
    return anomalies, (analyses.stats(), results.stats())


class TestMultiProcessTorture:
    def test_concurrent_warm_read_compact_is_safe(self, tmp_path, database):
        # Precompute the corpus once in the parent (forked workers inherit it):
        # per expression, the analysis entry and the full result entry.
        corpus = []
        for expression in EXPRESSIONS:
            language = Language.from_regex(expression)
            key = (
                language.fingerprint(),
                database.content_fingerprint(),
                "set",
                None,
                False,
            )
            corpus.append(
                (language.fingerprint(), plan_query(language), key, resilience(language, database))
            )
        jobs = [(str(tmp_path), worker_id, corpus) for worker_id in range(WORKERS)]
        with ProcessPoolExecutor(max_workers=WORKERS) as pool:
            outputs = list(pool.map(_torture_worker, jobs))

        all_anomalies = [line for anomalies, _ in outputs for line in anomalies]
        assert all_anomalies == [], "\n".join(all_anomalies)
        # Writes are atomic and nothing injected corruption, so validation
        # never ignored (or evicted-on-read) a single entry in any process.
        for _, (analysis_stats, result_stats) in outputs:
            assert analysis_stats.ignored == 0
            assert result_stats.ignored == 0
            assert analysis_stats.hits + analysis_stats.misses > 0

        # Quiescence: re-warm everything, then every key must hit — nothing
        # the torture left behind is torn or unreadable (lost entries would
        # surface as validation failures or persistent misses here).
        analyses = AnalysisStore(tmp_path / "analysis")
        results = ResultStore(tmp_path / "result")
        for fingerprint, plan, key, result in corpus:
            analyses.put(fingerprint, plan)
            results.put(key, result)
        for fingerprint, plan, key, result in corpus:
            loaded = analyses.get(fingerprint)
            assert loaded is not None and loaded.method == plan.method
            assert results.get(key) == result
        assert analyses.stats().ignored == 0
        assert results.stats().ignored == 0


# ----------------------------------------------------------------- warm pass


class TestWarmPass:
    def test_warm_queries_populates_both_stores(self, tmp_path, database):
        store = AnalysisStore(tmp_path / "analysis")
        result_store = ResultStore(tmp_path / "result")
        report = warm_queries(
            EXPRESSIONS,
            store=store,
            result_store=result_store,
            databases=[database],
        )
        assert report.queries == len(EXPRESSIONS)
        assert report.classifications > 0
        assert report.analyses_written == report.classifications
        assert report.results_computed == len(EXPRESSIONS)
        assert report.results_written == report.results_computed
        assert report.skipped == ()

    def test_counts_are_per_pass_on_reused_handles(self, tmp_path):
        # The restart benchmark warms every trace through one result-store
        # handle, and a caller may reuse one cache across corpora: each
        # report counts its own pass, never the handle's lifetime.
        store = AnalysisStore(tmp_path / "analysis")
        result_store = ResultStore(tmp_path / "result")
        for seed in (13, 14):
            held = len(result_store)
            trace = generate_traffic(TrafficProfile(seed=seed, requests=10))
            report = warm_trace(trace, store=store, result_store=result_store)
            assert report.results_written == len(result_store) - held > 0

        query_store = AnalysisStore(tmp_path / "queries")
        cache = LanguageCache(store=query_store)
        warm_queries(["ab", "ba"], store=query_store, cache=cache)
        report = warm_queries(["ab", "xy", "yx"], store=query_store, cache=cache)
        assert (report.classes, report.classifications, report.analyses_written) == (2, 2, 2)

    def test_warm_is_best_effort_about_bad_corpus_entries(self, tmp_path):
        store = AnalysisStore(tmp_path)
        report = warm_queries(["ab", "((", "ba"], store=store)
        assert report.queries == 3
        assert len(report.skipped) == 1
        assert "((" in report.skipped[0]

    def test_warmed_trace_serves_with_zero_classifications(self, tmp_path):
        # The acceptance observable, in-process: warm a trace's corpus, then a
        # *fresh* cache backed by the same stores serves the trace's queries
        # with zero classifications and nonzero store hits.
        from repro.traffic.soak import SoakRunner

        trace = generate_traffic(TrafficProfile(seed=13, requests=10))
        store_dir, result_dir = tmp_path / "analysis", tmp_path / "result"
        report = warm_trace(
            trace,
            store=AnalysisStore(store_dir),
            result_store=ResultStore(result_dir),
        )
        assert report.classifications > 0
        assert report.results_written > 0

        warm_store = AnalysisStore(store_dir)
        cache = LanguageCache(store=warm_store, result_store=ResultStore(result_dir))
        soak = SoakRunner(trace, nodes=2, max_workers=1, cache=cache).run()
        assert soak.cache["classifications"] == 0
        assert warm_store.stats().hits > 0
        assert cache.stats.result_hits > 0

    def test_warmed_serve_is_outcome_identical_to_cold(self, tmp_path, database):
        from repro.service import resilience_serve

        specs = [QuerySpec(expression) for expression in EXPRESSIONS]
        warm_queries(
            EXPRESSIONS,
            store=AnalysisStore(tmp_path / "a"),
            result_store=ResultStore(tmp_path / "r"),
            databases=[database],
        )
        warmed_cache = LanguageCache(
            store=AnalysisStore(tmp_path / "a"), result_store=ResultStore(tmp_path / "r")
        )
        warmed = resilience_serve(specs, database, parallel=False, cache=warmed_cache)
        reference = resilience_serve(
            specs, database, parallel=False, cache=LanguageCache(canonical=False)
        )
        assert warmed == reference
        assert warmed_cache.stats.classifications == 0

    def test_cli_main_warms_and_reports(self, tmp_path, capsys):
        import json

        from repro.service.warm import main

        code = main(
            [
                "--analysis-store", str(tmp_path / "a"),
                "--result-store", str(tmp_path / "r"),
                "--trace-seed", "3",
                "--trace-requests", "6",
                "--compact-entries", "64",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classifications"] > 0
        assert payload["results_written"] > 0
        assert payload["skipped"] == []
        assert len(AnalysisStore(tmp_path / "a")) > 0
