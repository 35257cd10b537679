"""Tests for the Theorem 3.13 MinCut reduction (local languages)."""

import pytest

from repro.exceptions import NotLocalError
from repro.graphdb import BagGraphDatabase, GraphDatabase, generators
from repro.languages import Language
from repro.resilience import (
    resilience_exact,
    resilience_local,
    verify_contingency_set,
)
from repro.resilience.local_flow import build_product_network, resilience_local_via_profile
from repro.languages import read_once


class TestProductNetwork:
    def test_one_finite_edge_per_fact(self):
        language = Language.from_regex("ab|ad|cd")
        automaton = read_once.read_once_automaton(language)
        database = generators.random_labelled_graph(4, 8, "abcd", seed=0).to_bag(1)
        network = build_product_network(automaton, database)
        finite_edges = [edge for edge in network.edges if edge.capacity != float("inf")]
        covered_facts = {edge.key for edge in finite_edges}
        expected = {fact for fact in database.facts if fact.label in language.alphabet}
        assert covered_facts == expected
        assert len(finite_edges) == len(expected)

    def test_rejects_non_read_once_automaton(self):
        language = Language.from_regex("ab|ad|cd")
        database = GraphDatabase.from_edges([("u", "a", "v")]).to_bag(1)
        with pytest.raises(NotLocalError):
            build_product_network(language.automaton, database)


class TestCorrectness:
    @pytest.mark.parametrize("expression", ["ax*b", "ab|ad|cd", "abc|abd", "a|b", "axb|axc"])
    def test_agrees_with_exact_on_random_set_databases(self, expression):
        language = Language.from_regex(expression)
        alphabet = "".join(sorted(language.alphabet))
        for seed in range(5):
            database = generators.random_labelled_graph(5, 10, alphabet, seed=seed)
            flow_result = resilience_local(language, database)
            exact_result = resilience_exact(language, database)
            assert flow_result.value == exact_result.value, (expression, seed)
            assert verify_contingency_set(language, database, flow_result), (expression, seed)

    def test_agrees_with_exact_on_bag_databases(self):
        language = Language.from_regex("ab|ad|cd")
        for seed in range(5):
            bag = generators.random_bag_database(5, 10, "abcd", seed=seed, max_multiplicity=6)
            flow_result = resilience_local(language, bag)
            exact_result = resilience_exact(language, bag)
            assert flow_result.value == exact_result.value, seed
            assert verify_contingency_set(language, bag, flow_result), seed

    def test_mincut_connection_on_layered_flow(self):
        # Section 1: RES_bag(a x* b) on a flow-network database equals MinCut.
        from repro.flow import FlowNetwork, min_cut_value

        bag = generators.layered_flow_database(3, 3, seed=4)
        result = resilience_local(Language.from_regex("ax*b"), bag)
        network = FlowNetwork(source="SRC", target="SNK")
        for fact, multiplicity in bag.multiplicities().items():
            network.add_edge(fact.source, fact.target, multiplicity)
        assert result.value == min_cut_value(network)

    def test_raises_for_non_local_language(self):
        database = GraphDatabase.from_edges([("u", "a", "v")])
        with pytest.raises(NotLocalError):
            resilience_local(Language.from_regex("aa"), database)

    def test_unchecked_combined_complexity_mode(self):
        database = GraphDatabase.from_edges([("s", "a", "u"), ("u", "x", "v"), ("v", "b", "t")])
        language = Language.from_regex("ax*b")
        result = resilience_local(
            language, database, automaton=read_once.read_once_automaton_unchecked(language)
        )
        assert result.value == 1

    def test_epsilon_language(self):
        database = GraphDatabase.from_edges([("u", "a", "v")])
        result = resilience_local(Language.from_regex("ε|a"), database)
        assert result.is_infinite

    def test_query_false_gives_zero(self):
        database = GraphDatabase.from_edges([("u", "z", "v")])
        result = resilience_local(Language.from_regex("ab|ad|cd"), database)
        assert result.value == 0
        assert result.contingency_set == frozenset()

    def test_profile_variant_agrees(self):
        language = Language.from_regex("ab|ad|cd")
        for seed in range(3):
            database = generators.random_labelled_graph(5, 9, "abcd", seed=seed)
            assert (
                resilience_local(language, database).value
                == resilience_local_via_profile(language, database).value
            )

    def test_if_of_language_used_transparently(self):
        # L0 = a | aa: IF(L0) = a is local; the engine handles this (Section 3.2).
        from repro.resilience import resilience

        database = GraphDatabase.from_edges([("u", "a", "v"), ("v", "a", "w")])
        result = resilience(Language.from_regex("a|aa"), database)
        assert result.value == 2

    def test_details_contain_network_size(self):
        # The sizes are the compiled product graph's (trimmed to its useful
        # core), so a database with an actual a-x*-b path is needed for the
        # edge count to be positive.
        bag = generators.layered_flow_database(3, 3, seed=4)
        result = resilience_local(Language.from_regex("ax*b"), bag)
        assert result.value > 0
        assert result.details["network_nodes"] > 0
        assert result.details["network_edges"] > 0

    def test_details_network_empty_when_query_cannot_match(self):
        # No a-x*-b path: the trimmed product graph is empty and resilience 0.
        database = generators.random_labelled_graph(4, 6, "axb", seed=0)
        result = resilience_local(Language.from_regex("ax*b"), database)
        assert result.value == 0
        assert result.details["network_edges"] == 0
