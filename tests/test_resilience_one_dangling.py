"""Tests for the Proposition 7.9 reduction (one-dangling languages)."""

import pytest

from repro.exceptions import NotApplicableError
from repro.flow.substrate import product_substrate
from repro.graphdb import BagGraphDatabase, GraphDatabase, generators
from repro.graphdb.index import DatabaseIndex
from repro.languages import Language
from repro.resilience import (
    execute,
    plan_query,
    resilience_exact,
    resilience_one_dangling,
    verify_contingency_set,
)


class TestCorrectness:
    @pytest.mark.parametrize("expression", ["abc|be", "abcd|be", "abcd|ce"])
    def test_agrees_with_exact_on_random_set_databases(self, expression):
        language = Language.from_regex(expression)
        alphabet = "".join(sorted(language.alphabet))
        for seed in range(5):
            database = generators.random_labelled_graph(5, 12, alphabet, seed=seed)
            dangling_result = resilience_one_dangling(language, database)
            exact_result = resilience_exact(language, database)
            assert dangling_result.value == exact_result.value, (expression, seed)
            assert verify_contingency_set(language, database, dangling_result), (expression, seed)

    def test_infinite_one_dangling_language(self):
        # ax*b|xd (newly classified tractable in the journal version).
        language = Language.from_regex("ax*b|xd")
        for seed in range(5):
            database = generators.random_labelled_graph(5, 12, "axbd", seed=seed)
            dangling_result = resilience_one_dangling(language, database)
            exact_result = resilience_exact(language, database)
            assert dangling_result.value == exact_result.value, seed
            assert verify_contingency_set(language, database, dangling_result), seed

    def test_mirrored_case_x_fresh(self):
        # eb|abc: the dangling word is eb with e fresh as the *first* letter, so
        # the algorithm mirrors the instance (Proposition 6.3).
        language = Language.from_words(["abc", "eb"])
        for seed in range(5):
            database = generators.random_labelled_graph(5, 12, "abce", seed=seed)
            dangling_result = resilience_one_dangling(language, database)
            exact_result = resilience_exact(language, database)
            assert dangling_result.value == exact_result.value, seed
            assert verify_contingency_set(language, database, dangling_result), seed

    def test_agrees_with_exact_on_bag_databases(self):
        language = Language.from_regex("abc|be")
        for seed in range(5):
            bag = generators.random_bag_database(5, 12, "abce", seed=seed, max_multiplicity=5)
            dangling_result = resilience_one_dangling(language, bag)
            exact_result = resilience_exact(language, bag)
            assert dangling_result.value == exact_result.value, seed

    def test_rejects_non_one_dangling(self):
        database = GraphDatabase.from_edges([("u", "a", "v")])
        with pytest.raises(NotApplicableError):
            resilience_one_dangling(Language.from_regex("aa"), database)

    def test_kappa_accounting(self):
        # A single xy walk: resilience 1, removing either fact.
        language = Language.from_regex("abc|be")
        database = GraphDatabase.from_edges([("u", "b", "v"), ("v", "e", "w")])
        result = resilience_one_dangling(language, database)
        assert result.value == 1
        assert verify_contingency_set(language, database, result)

    def test_dangling_word_only_database(self):
        # Many be-walks through a single b-fact.
        language = Language.from_regex("abc|be")
        database = GraphDatabase.from_edges(
            [("u", "b", "v"), ("v", "e", "w1"), ("v", "e", "w2"), ("v", "e", "w3")]
        )
        result = resilience_one_dangling(language, database)
        assert result.value == 1

    def test_query_false_gives_zero(self):
        language = Language.from_regex("abc|be")
        database = GraphDatabase.from_edges([("u", "a", "v"), ("w", "e", "z")])
        result = resilience_one_dangling(language, database)
        assert result.value == 0


class TestCompiledOverTheSharedIndex:
    """The rewritten database of the proof is never built: the product graph
    is compiled from the database's own index and cached on its substrate."""

    @pytest.mark.parametrize("query, mirrored", [("abc|be", False), ("cba|eb", True)])
    @pytest.mark.parametrize("semantics", ["set", "bag"])
    def test_execution_builds_no_database_and_reuses_the_graph(
        self, monkeypatch, query, mirrored, semantics
    ):
        plan = plan_query(Language.from_regex(query))
        assert plan.artefact.mirrored is mirrored
        database = generators.random_labelled_graph(6, 18, "abce", seed=4)
        if semantics == "bag":
            database = database.to_bag(2)
        index = database.index()  # the database's one index, built once

        built = []
        for cls in (GraphDatabase, BagGraphDatabase, DatabaseIndex):
            original = cls.__init__

            def counting(self, *args, _original=original, **kwargs):
                built.append(type(self).__name__)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        first = execute(plan, database)
        substrate = product_substrate(index)
        hits = substrate.graph_hits
        second = execute(plan, database)
        monkeypatch.undo()

        assert built == []
        assert substrate.graph_hits == hits + 1
        assert second == first
        assert first.details["mirrored"] is mirrored
        assert first.value == resilience_exact(Language.from_regex(query), database).value
        assert verify_contingency_set(Language.from_regex(query), database, first)
