"""Property tests for the canonical-DFA fingerprint and the on-disk store.

Three pinned guarantees:

* the fingerprint is a *perfect* proxy for language equivalence on the test
  corpus: random regex pairs share a fingerprint iff their minimal DFAs are
  equal (languages over one fixed alphabet, so the alphabet component of the
  fingerprint never masks a disagreement);
* an :class:`AnalysisStore` round-trip is indistinguishable from a fresh
  computation — same plan, byte-identical infix-free automaton, identical
  resilience results;
* the store never trusts what it cannot validate: corrupted bytes, a stale
  code-version salt and a mis-keyed entry are all ignored and recomputed.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphdb import generators
from repro.languages import Language, canonical_dfa, canonical_fingerprint
from repro.languages.operations import equivalent
from repro.resilience import (
    AnalysisStore,
    LanguageCache,
    execute,
    plan_query,
    resilience,
    resilience_many,
)

ALPHABET = "ab"


def regexes():
    """Random regexes over ``{a, b}`` built from |, concatenation and star."""
    letters = st.sampled_from(["a", "b"])
    return st.recursive(
        letters,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda pair: f"({pair[0]}{pair[1]})"),
            st.tuples(inner, inner).map(lambda pair: f"({pair[0]}|{pair[1]})"),
            inner.map(lambda expression: f"({expression})*"),
        ),
        max_leaves=6,
    )


def language(expression):
    return Language.from_regex(expression, alphabet=ALPHABET)


class TestFingerprint:
    @settings(max_examples=60, deadline=None)
    @given(regexes(), regexes())
    def test_fingerprints_agree_exactly_with_equivalence(self, left, right):
        left_language, right_language = language(left), language(right)
        same_fingerprint = left_language.fingerprint() == right_language.fingerprint()
        assert same_fingerprint == equivalent(
            left_language.automaton, right_language.automaton
        )

    @settings(max_examples=40, deadline=None)
    @given(regexes())
    def test_fingerprint_is_stable_and_canonical(self, expression):
        first = language(expression)
        second = language(expression)
        assert first.fingerprint() == second.fingerprint()
        assert first.fingerprint() == canonical_fingerprint(first.automaton)
        # The canonical DFA is a *normal form*: canonicalizing it again is a
        # fixed point, and it recognizes the same language.
        dfa = canonical_dfa(first.automaton)
        assert canonical_dfa(dfa) == dfa
        assert equivalent(dfa, first.automaton)

    def test_alphabet_is_part_of_the_fingerprint(self):
        narrow = Language.from_regex("a")
        wide = Language.from_regex("a", alphabet="ab")
        assert narrow.fingerprint() != wide.fingerprint()

    def test_relabelled_copy_shares_the_memoized_fingerprint(self):
        original = language("(ab)*a")
        fingerprint = original.fingerprint()
        assert original.relabelled("other")._fingerprint == fingerprint


class TestStoreRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(regexes())
    def test_round_trip_equals_fresh_computation(self, tmp_path_factory, expression):
        store = AnalysisStore(tmp_path_factory.mktemp("store"))
        fresh = language(expression)
        plan = plan_query(fresh)
        fingerprint = fresh.fingerprint()
        store.put(fingerprint, plan)

        loaded = store.get(fingerprint)
        assert loaded is not None
        assert loaded.method == plan.method
        assert loaded.artefact == plan.artefact
        if fresh._infix_free is None:
            assert loaded.infix_free is None
        else:
            # Byte-identical automaton: a store hit runs the exact same search
            # a fresh computation would, node for node.
            assert loaded.infix_free.automaton == fresh._infix_free.automaton
            if fresh._infix_free.is_finite():
                assert loaded.infix_free.words() == fresh._infix_free.words()

    @settings(max_examples=15, deadline=None)
    @given(st.lists(regexes(), min_size=1, max_size=5))
    def test_warm_store_results_equal_cold_results(self, tmp_path_factory, expressions):
        directory = tmp_path_factory.mktemp("store")
        database = generators.random_labelled_graph(4, 9, ALPHABET, seed=1)
        queries = [language(expression) for expression in expressions]
        cold = resilience_many(
            queries, database, cache=LanguageCache(store=AnalysisStore(directory))
        )
        warm_store = AnalysisStore(directory)
        warm_cache = LanguageCache(store=warm_store)
        warm = resilience_many(
            [language(expression) for expression in expressions], database, cache=warm_cache
        )
        assert warm == cold
        assert warm_cache.stats.classifications == 0
        assert warm_store.stats().writes == 0


class TestPlanRoundTrip:
    """``execute(plan, db)`` equals ``resilience(query, db)`` for the plan as
    built, after a pickle, and as read back by a second store instance."""

    @settings(max_examples=40, deadline=None)
    @given(regexes(), st.booleans())
    def test_every_copy_of_a_plan_executes_like_resilience(self, tmp_path_factory, expression, bag):
        database = generators.random_labelled_graph(4, 9, ALPHABET, seed=1)
        if bag:
            database = generators.random_bag_database(4, 9, ALPHABET, seed=2, max_multiplicity=3)
        reference = resilience(expression, database)
        fresh = language(expression)
        plan = plan_query(fresh)
        directory = tmp_path_factory.mktemp("plans")
        AnalysisStore(directory).put(fresh.fingerprint(), plan)
        stored = AnalysisStore(directory).get(fresh.fingerprint())
        for copy in (plan, pickle.loads(pickle.dumps(plan)), stored):
            result = execute(copy, database, name=expression)
            assert (result.value, result.method) == (reference.value, reference.method)
            assert result.contingency_set == reference.contingency_set
            assert result.details == reference.details
            assert result.details.get("nodes_explored") == reference.details.get("nodes_explored")


class TestStoreValidation:
    QUERY = "ab|ba"

    def populate(self, directory):
        store = AnalysisStore(directory)
        fresh = language(self.QUERY)
        plan = plan_query(fresh)
        store.put(fresh.fingerprint(), plan)
        return fresh.fingerprint(), plan.method

    def test_corrupted_entry_is_ignored_not_trusted(self, tmp_path):
        fingerprint, _ = self.populate(tmp_path)
        path = tmp_path / f"{fingerprint}.analysis"
        path.write_bytes(b"\x00garbage, not a pickle")
        store = AnalysisStore(tmp_path)
        assert store.get(fingerprint) is None
        assert store.stats().ignored == 1

    def test_truncated_entry_is_ignored(self, tmp_path):
        fingerprint, _ = self.populate(tmp_path)
        path = tmp_path / f"{fingerprint}.analysis"
        path.write_bytes(path.read_bytes()[:10])
        store = AnalysisStore(tmp_path)
        assert store.get(fingerprint) is None
        assert store.stats().ignored == 1

    def test_stale_code_version_salt_is_ignored_and_evicted(self, tmp_path):
        fresh = language(self.QUERY)
        stale = AnalysisStore(tmp_path, salt="0123456789abcdef")
        stale.put(fresh.fingerprint(), plan_query(fresh))
        current = AnalysisStore(tmp_path)
        assert current.get(fresh.fingerprint()) is None
        assert current.stats().ignored == 1
        # Detection evicts: the stale file is gone, so the next miss is a
        # plain miss (no re-read, no re-ignore) and the directory stays clean.
        assert current.stats().evictions == 1
        assert len(current) == 0
        assert current.get(fresh.fingerprint()) is None
        assert current.stats().ignored == 1

    def test_format_1_entry_is_ignored_and_evicted(self, tmp_path):
        # A valid entry of the layout before query plans (a method and an
        # infix-free language) under format version 1 and the current salt.
        fresh = language(self.QUERY)
        automaton = fresh.infix_free().automaton
        store = AnalysisStore(tmp_path)
        path = tmp_path / f"{fresh.fingerprint()}.analysis"
        path.write_bytes(pickle.dumps({
            "format": 1,
            "salt": store.salt,
            "fingerprint": fresh.fingerprint(),
            "method": "bcl-flow",
            "infix_free": fresh.infix_free(),
            "plan_meta": {"states": len(automaton.states), "transitions": len(automaton.transitions)},
        }))
        assert store.get(fresh.fingerprint()) is None
        assert store.stats().ignored == 1
        assert store.stats().evictions == 1
        assert not path.exists()

    def test_ignored_entries_are_not_revalidated_forever(self, tmp_path):
        """The satellite bug: a poisoned file used to be re-read and
        re-ignored on every miss; now the first detection unlinks it."""
        fingerprint, _ = self.populate(tmp_path)
        path = tmp_path / f"{fingerprint}.analysis"
        path.write_bytes(b"\x00poison")
        store = AnalysisStore(tmp_path)
        assert store.get(fingerprint) is None
        assert not path.exists()
        assert store.get(fingerprint) is None
        stats = store.stats()
        assert stats.ignored == 1  # second miss never re-validated anything
        assert stats.misses == 2
        assert stats.evictions == 1

    def test_mis_keyed_entry_is_ignored(self, tmp_path):
        fingerprint, _ = self.populate(tmp_path)
        other = language("aa").fingerprint()
        source = tmp_path / f"{fingerprint}.analysis"
        (tmp_path / f"{other}.analysis").write_bytes(source.read_bytes())
        store = AnalysisStore(tmp_path)
        assert store.get(other) is None
        assert store.stats().ignored == 1

    def test_tampered_payload_fails_plan_meta_check(self, tmp_path):
        fingerprint, method = self.populate(tmp_path)
        path = tmp_path / f"{fingerprint}.analysis"
        envelope = pickle.loads(path.read_bytes())
        envelope["plan_meta"] = {"states": 999, "transitions": 999}
        path.write_bytes(pickle.dumps(envelope))
        store = AnalysisStore(tmp_path)
        assert store.get(fingerprint) is None
        assert store.stats().ignored == 1

    def test_ignored_entry_is_recomputed_with_correct_results(self, tmp_path):
        fingerprint, _ = self.populate(tmp_path)
        (tmp_path / f"{fingerprint}.analysis").write_bytes(b"junk")
        database = generators.random_labelled_graph(4, 9, ALPHABET, seed=1)
        cache = LanguageCache(store=AnalysisStore(tmp_path))
        damaged = resilience_many([self.QUERY], database, cache=cache)
        pristine = resilience_many([self.QUERY], database)
        assert damaged == pristine
        assert cache.stats.classifications == 1
