"""Tests for the exact resilience baseline (branch and bound + brute force)."""

import math

import pytest

from repro.exceptions import ReproError, SearchBudgetExceeded
from repro.graphdb import BagGraphDatabase, Fact, GraphDatabase, generators
from repro.languages import Language
from repro.resilience import resilience_brute_force, resilience_exact, verify_contingency_set


class TestSetSemantics:
    def test_query_already_false(self):
        database = GraphDatabase.from_edges([("u", "a", "v")])
        result = resilience_exact(Language.from_regex("bb"), database)
        assert result.value == 0
        assert result.contingency_set == frozenset()

    def test_single_witness(self):
        database = GraphDatabase.from_edges([("u", "a", "v"), ("v", "b", "w")])
        result = resilience_exact(Language.from_regex("ab"), database)
        assert result.value == 1
        assert verify_contingency_set("ab", database, result)

    def test_aa_on_a_path(self):
        # A path of 4 a-edges: killing all length-2 walks needs 2 removals
        # (the 2nd and 4th edges, say).
        database = GraphDatabase.from_edges(
            [("1", "a", "2"), ("2", "a", "3"), ("3", "a", "4"), ("4", "a", "5")]
        )
        result = resilience_exact(Language.from_regex("aa"), database)
        assert result.value == 2
        assert verify_contingency_set("aa", database, result)

    def test_epsilon_language_is_infinite(self):
        database = GraphDatabase.from_edges([("u", "a", "v")])
        result = resilience_exact(Language.from_regex("ε|a"), database)
        assert result.is_infinite
        assert result.contingency_set is None

    def test_shared_fact_between_witnesses(self):
        # Two ab-walks share the a-fact: resilience is 1.
        database = GraphDatabase.from_edges(
            [("u", "a", "v"), ("v", "b", "w"), ("v", "b", "z")]
        )
        result = resilience_exact(Language.from_regex("ab"), database)
        assert result.value == 1

    def test_matches_brute_force_on_random_instances(self):
        for seed in range(6):
            database = generators.random_labelled_graph(4, 7, "ab", seed=seed)
            for expression in ["ab", "aa", "ab|ba"]:
                language = Language.from_regex(expression)
                fast = resilience_exact(language, database)
                slow = resilience_brute_force(language, database)
                assert fast.value == slow.value, (seed, expression)

    def test_max_nodes_guard(self):
        database = generators.random_labelled_graph(6, 14, "a", seed=1)
        with pytest.raises(SearchBudgetExceeded) as excinfo:
            resilience_exact(Language.from_regex("aa"), database, max_nodes=1)
        # The dedicated exception is a ReproError, stays catchable as the
        # seed's bare RuntimeError, and carries structured diagnostics.
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, RuntimeError)
        assert excinfo.value.max_nodes == 1
        assert excinfo.value.nodes_explored == 2

    def test_max_seconds_guard(self):
        database = generators.random_labelled_graph(6, 14, "a", seed=1)
        with pytest.raises(SearchBudgetExceeded) as excinfo:
            resilience_exact(Language.from_regex("aa"), database, max_seconds=0.0)
        assert excinfo.value.max_seconds == 0.0
        assert excinfo.value.max_nodes is None

    def test_reference_raises_same_budget_exception(self):
        from repro.resilience import resilience_exact_reference

        database = generators.random_labelled_graph(6, 14, "a", seed=1)
        with pytest.raises(SearchBudgetExceeded):
            resilience_exact_reference(Language.from_regex("aa"), database, max_nodes=1)


class TestBagSemantics:
    def test_costs_drive_the_choice(self):
        bag = BagGraphDatabase.from_edges([("u", "a", "v", 5), ("v", "b", "w", 1)])
        result = resilience_exact(Language.from_regex("ab"), bag)
        assert result.value == 1
        assert result.contingency_set == frozenset({Fact("v", "b", "w")})

    def test_bag_vs_set_value_can_differ(self):
        bag = BagGraphDatabase.from_edges(
            [("u", "a", "v", 10), ("v", "b", "w", 10), ("v", "b", "z", 10)]
        )
        result = resilience_exact(Language.from_regex("ab"), bag)
        assert result.value == 10
        assert result.semantics == "bag"

    def test_brute_force_agreement_on_bags(self):
        for seed in range(4):
            bag = generators.random_bag_database(4, 6, "ab", seed=seed, max_multiplicity=4)
            fast = resilience_exact(Language.from_regex("ab|ba"), bag)
            slow = resilience_brute_force(Language.from_regex("ab|ba"), bag)
            assert fast.value == slow.value, seed
        # Forced set reporting names the output only: the cheapest
        # contingency set of this bag is not its smallest.
        bag = BagGraphDatabase.from_edges([("s", "a", "m", 5), ("m", "b", "t1", 1), ("m", "b", "t2", 1)])
        slow = resilience_brute_force(Language.from_regex("ab"), bag, semantics="set")
        assert slow.value == resilience_exact(Language.from_regex("ab"), bag).value == 2

    def test_mirror_invariance(self):
        # Proposition 6.3: resilience of L^R on D^R equals resilience of L on D.
        language = Language.from_regex("abc|ba")
        for seed in range(4):
            database = generators.random_labelled_graph(4, 8, "abc", seed=seed)
            direct = resilience_exact(language, database)
            mirrored = resilience_exact(language.mirror(), database.reverse())
            assert direct.value == mirrored.value, seed
