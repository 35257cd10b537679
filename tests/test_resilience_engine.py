"""Tests for the resilience dispatcher."""

import pytest

from repro.exceptions import ReproError
from repro.graphdb import DatabaseIndex, GraphDatabase, generators
from repro.languages import Language
from repro.languages.examples import FIGURE_1_LANGUAGES, PTIME
from repro.resilience import (
    choose_method,
    resilience,
    resilience_exact,
    resilience_many,
    verify_contingency_set,
)
from repro.resilience.engine import warm_database
from repro.rpq import RPQ

#: The nine PTIME Figure 1 queries and one exact query, with their value and
#: contingency set on the set database of :class:`TestOneIndexPerDatabase`.
ONE_INDEX_OUTCOMES = {
    "abc|abd": (3, "n1-a->n6 n2-d->n1 n3-b->n4"),
    "ab|ad|cd": (9, "n1-a->n5 n1-a->n6 n1-d->n7 n2-a->n7 n3-a->n4 n3-b->n4 n3-d->n4 n6-a->n2 n7-a->n0"),
    "ax*b": (4, "n1-a->n6 n2-a->n7 n3-b->n4 n7-a->n0"),
    "ab|bc": (4, "n2-a->n7 n3-b->n4 n6-b->n7 n7-a->n0"),
    "axb|byc": (1, "n7-a->n0"),
    "ax*b|xd": (10, "n0-x->n3 n0-x->n7 n1-a->n6 n1-x->n1 n2-a->n7 n2-d->n1 n3-b->n4 n5-d->n1 n5-x->n4 n7-a->n0"),
    "abc|be": (3, "n1-a->n6 n2-e->n7 n3-b->n4"),
    "abcd|ce": (2, "n0-c->n6 n7-c->n3"),
    "abcd|be": (3, "n1-a->n6 n2-e->n7 n3-b->n4"),
    "aa": (5, "n3-a->n1 n3-a->n4 n4-a->n1 n6-a->n2 n7-a->n0"),
}


class TestMethodSelection:
    @pytest.mark.parametrize(
        "expression, expected",
        [
            ("ax*b", "local-flow"),
            ("ab|ad|cd", "local-flow"),
            ("a|aa", "local-flow"),
            ("ab|bc", "bcl-flow"),
            ("axb|byc", "bcl-flow"),
            ("abc|be", "one-dangling-flow"),
            ("ax*b|xd", "one-dangling-flow"),
            ("aa", "exact"),
            ("axb|cxd", "exact"),
            ("abc|bcd", "exact"),
            ("ε|a", "trivial-epsilon"),
        ],
    )
    def test_choose_method(self, expression, expected):
        assert choose_method(Language.from_regex(expression)) == expected


class TestDispatch:
    def test_accepts_string_language_and_rpq(self):
        database = GraphDatabase.from_edges([("s", "a", "u"), ("u", "b", "t")])
        for query in ["ab", Language.from_regex("ab"), RPQ.from_regex("ab")]:
            assert resilience(query, database).value == 1

    def test_flow_methods_match_exact_on_mixed_suite(self):
        suite = ["ax*b", "ab|bc", "abc|be", "ab|ad|cd"]
        for expression in suite:
            language = Language.from_regex(expression)
            alphabet = "".join(sorted(language.alphabet))
            for seed in range(3):
                database = generators.random_labelled_graph(5, 10, alphabet, seed=seed)
                result = resilience(language, database)
                exact = resilience_exact(language, database)
                assert result.value == exact.value, (expression, seed)
                assert result.method != "exact", expression
                assert verify_contingency_set(language, database, result)

    def test_method_override(self):
        database = GraphDatabase.from_edges([("s", "a", "u"), ("u", "b", "t")])
        forced = resilience("ab", database, method="exact")
        assert forced.method == "exact"
        assert forced.value == 1

    def test_hard_language_falls_back_to_exact(self):
        database = generators.random_labelled_graph(4, 8, "a", seed=0)
        result = resilience("aa", database)
        assert result.method == "exact"
        assert verify_contingency_set("aa", database, result)

    def test_epsilon_query(self):
        database = GraphDatabase.from_edges([("s", "a", "u")])
        result = resilience("ε|a", database)
        assert result.is_infinite
        assert result.method == "trivial-epsilon"

    def test_semantics_reporting(self):
        database = GraphDatabase.from_edges([("s", "a", "u"), ("u", "b", "t")])
        assert resilience("ab", database).semantics == "set"
        assert resilience("ab", database.to_bag(3)).semantics == "bag"
        assert resilience("ab", database.to_bag(3)).value == 3

    def test_infix_free_computed_exactly_once(self):
        # Regression: the seed computed language.infix_free() twice per call
        # (once in choose_method, once in resilience).
        database = GraphDatabase.from_edges([("s", "a", "u"), ("u", "b", "t")])
        language = Language.from_regex("ab|bc")
        calls = []
        original = Language.infix_free

        def counting_infix_free(self):
            calls.append(self)
            return original(self)

        Language.infix_free = counting_infix_free
        try:
            result = resilience(language, database)
        finally:
            Language.infix_free = original
        assert result.value == 1
        assert len(calls) == 1

    def test_query_name_preserved_without_mutation(self):
        # Regression: the seed renamed the infix-free language in place; the
        # engine must report under the original name without any mutation.
        database = GraphDatabase.from_edges([("s", "a", "u"), ("u", "b", "t")])
        language = Language.from_regex("ab|bc")
        infix_free = language.infix_free()
        original_name = infix_free.name
        result = resilience(language, database)
        assert result.query == "ab|bc"
        assert language.infix_free().name == original_name


class TestOneIndexPerDatabase:
    """A set database is the bag with unit multiplicities, so warming it and
    answering every method read the database's own index, built once.  Fact
    ids and the exact search tree follow ``repr`` order, never hash order
    (CI runs this class under two hash seeds against the pinned outcomes)."""

    @pytest.mark.parametrize("multiplicity", [None, 1, 3])
    def test_warming_and_answering_build_one_index(self, monkeypatch, multiplicity):
        ptime = [example.regex for example in FIGURE_1_LANGUAGES if example.complexity == PTIME]
        assert list(ONE_INDEX_OUTCOMES) == ptime + ["aa"]
        database = generators.random_labelled_graph(8, 40, "abcdex", seed=23, allow_self_loops=True)
        if multiplicity is not None:
            database = database.to_bag(multiplicity)
        built = []
        original = DatabaseIndex.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(DatabaseIndex, "__init__", counting)
        warm_database(database)
        results = {query: resilience(query, database) for query in ONE_INDEX_OUTCOMES}
        monkeypatch.undo()

        assert built == [database.index()]
        scale = multiplicity or 1
        assert {
            query: (result.value, " ".join(sorted(map(str, result.contingency_set))))
            for query, result in results.items()
        } == {query: (scale * value, facts) for query, (value, facts) in ONE_INDEX_OUTCOMES.items()}
        assert results["aa"].details["nodes_explored"] == 71


class TestVerifyContingencySet:
    def test_foreign_fact_returns_false_in_set_semantics(self):
        # Regression: a contingency set containing a fact absent from the
        # database must be rejected, not crash.
        from repro.graphdb import Fact
        from repro.resilience import ResilienceResult

        database = GraphDatabase.from_edges([("s", "a", "u"), ("u", "b", "t")])
        foreign = frozenset({Fact("nowhere", "a", "else")})
        result = ResilienceResult(1.0, foreign, "set", "exact", "ab")
        assert verify_contingency_set("ab", database, result) is False

    def test_foreign_fact_returns_false_in_bag_semantics(self):
        # Regression: the bag-semantics total_cost lookup raised KeyError here.
        from repro.graphdb import Fact
        from repro.resilience import ResilienceResult

        database = GraphDatabase.from_edges([("s", "a", "u"), ("u", "b", "t")]).to_bag(2)
        foreign = frozenset({Fact("s", "a", "u"), Fact("nowhere", "a", "else")})
        result = ResilienceResult(2.0, foreign, "bag", "exact", "ab")
        assert verify_contingency_set("ab", database, result) is False

    def test_genuine_contingency_set_still_verifies(self):
        database = GraphDatabase.from_edges([("s", "a", "u"), ("u", "b", "t")])
        result = resilience("ab", database)
        assert verify_contingency_set("ab", database, result) is True


class TestForcedMethodValidation:
    def test_forced_inapplicable_method_raises(self):
        database = generators.random_labelled_graph(4, 8, "a", seed=0)
        with pytest.raises(ReproError):
            resilience("aa", database, method="local-flow")

    def test_forced_inapplicable_bcl_raises(self):
        database = generators.random_labelled_graph(4, 8, "a", seed=0)
        with pytest.raises(ReproError):
            resilience("aa", database, method="bcl-flow")

    def test_unknown_method_raises_value_error(self):
        database = GraphDatabase.from_edges([("s", "a", "u")])
        with pytest.raises(ValueError):
            resilience("ab", database, method="no-such-method")

    def test_unknown_method_rejected_even_for_epsilon_languages(self):
        # Regression: the epsilon short-circuit must not swallow a method typo.
        database = GraphDatabase.from_edges([("s", "a", "u")])
        with pytest.raises(ValueError):
            resilience("a*", database, method="no-such-method")

    def test_forced_method_on_epsilon_language_reports_infinite(self):
        # A known forced method on an epsilon language short-circuits to the
        # (correct whatever the algorithm) infinite result.
        database = GraphDatabase.from_edges([("s", "a", "u")])
        result = resilience("a*", database, method="exact")
        assert result.is_infinite
        assert result.method == "trivial-epsilon"

    def test_unsafe_escape_hatch_runs_unchecked(self):
        # "aa" is not local; unsafe=True runs the reduction on the local
        # overapproximation anyway (combined-complexity semantics) instead of
        # raising.  The returned value is an underapproximation-of-soundness
        # trade the caller explicitly opted into.
        database = generators.random_labelled_graph(4, 8, "a", seed=0)
        result = resilience("aa", database, method="local-flow", unsafe=True)
        assert result.method == "local-flow"
        assert result.value >= 0

    def test_forced_applicable_method_still_works(self):
        database = GraphDatabase.from_edges([("s", "a", "u"), ("u", "b", "t")])
        forced = resilience("ab", database, method="local-flow")
        assert forced.method == "local-flow"
        assert forced.value == 1


class TestResilienceMany:
    def test_matches_individual_calls(self):
        database = generators.random_labelled_graph(5, 10, "abcex", seed=1)
        queries = ["ax*b", "ab|bc", "abc|be", "aa", "ab"]
        batched = resilience_many(queries, database)
        assert len(batched) == len(queries)
        for query, result in zip(queries, batched):
            single = resilience(query, database)
            assert result.value == single.value, query
            assert result.method == single.method, query
            assert result.query == query

    def test_shares_one_database_index(self):
        database = generators.random_labelled_graph(5, 10, "ab", seed=2)
        resilience_many(["ab", "aa"], database)
        # The index was built once and cached on the database instance.
        assert database.index() is database.index()

    def test_empty_query_list(self):
        database = GraphDatabase.from_edges([("s", "a", "u")])
        assert resilience_many([], database) == []
