"""Tests for the compiled-plan evaluation subsystem.

Covers the :class:`CompiledAutomaton` query plans, the cached
:class:`DatabaseIndex`, the plan-based RPQ evaluator, and the copy-free overlay
exact search — including the property-based cross-check against the naive
subset-enumeration baseline required for trusting the overlay rewrite.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphdb import BagGraphDatabase, Fact, GraphDatabase, generators
from repro.languages import CompiledAutomaton, Language, compile_automaton
from repro.resilience import (
    resilience_brute_force,
    resilience_exact,
    resilience_exact_reference,
    verify_contingency_set,
)
from repro.rpq.evaluation import find_l_walk, find_l_walk_ids, is_walk, walk_label
from repro.rpq.matching import enumerate_matches


class TestCompiledAutomaton:
    def test_plan_cache_shares_equal_automata(self):
        first = Language.from_regex("ab|ba").automaton
        second = Language.from_regex("ab|ba").automaton
        assert first is not second
        assert compile_automaton(first) is compile_automaton(second)

    def test_closures_match_epsilon_closure(self):
        automaton = Language.from_regex("a(b|c)*d").automaton
        plan = compile_automaton(automaton)
        for state in plan.trimmed.states:
            assert set(plan.closure(state)) == set(plan.trimmed.epsilon_closure([state]))
        assert set(plan.initial_closure) == set(
            plan.trimmed.epsilon_closure(plan.trimmed.initial)
        )

    def test_steps_index_matches_transitions(self):
        automaton = Language.from_regex("ab|ac|bc").automaton
        plan = compile_automaton(automaton)
        for (state, label), targets in plan.steps.items():
            for closed in targets:
                # Every indexed step is justified by a letter transition
                # followed by epsilon moves.
                assert any(
                    source == state and label == transition_label and closed in plan.closure(target)
                    for source, transition_label, target in plan.trimmed.letter_transitions
                )

    def test_empty_and_epsilon_flags(self):
        assert compile_automaton(Language.from_words([]).automaton).is_empty
        assert compile_automaton(Language.from_regex("ε|a").automaton).accepts_empty
        plan = compile_automaton(Language.from_regex("ab").automaton)
        assert not plan.is_empty
        assert not plan.accepts_empty

    def test_transitions_by_label_covers_untrimmed_automaton(self):
        automaton = Language.from_regex("ax*b").automaton
        plan = compile_automaton(automaton)
        expected = {}
        for source, label, target in automaton.letter_transitions:
            expected.setdefault(label, set()).add((source, target))
        assert {label: set(pairs) for label, pairs in plan.transitions_by_label.items()} == expected


class TestDatabaseIndex:
    def test_index_is_cached_on_the_database(self):
        database = generators.random_labelled_graph(5, 10, "ab", seed=0)
        assert database.index() is database.index()

    def test_facts_sorted_with_dense_ids(self):
        database = generators.random_labelled_graph(5, 10, "ab", seed=1)
        index = database.index()
        assert list(index.facts) == sorted(database.facts, key=repr)
        assert all(index.fact_ids[fact] == position for position, fact in enumerate(index.facts))

    def test_adjacency_lists_match_facts(self):
        database = generators.random_labelled_graph(6, 12, "abc", seed=2)
        index = database.index()
        for node, ids in index.outgoing_ids.items():
            assert all(index.facts[fact_id].source == node for fact_id in ids)
        for (node, label), ids in index.outgoing_by_label.items():
            for fact_id in ids:
                fact = index.facts[fact_id]
                assert fact.source == node and fact.label == label
        assert set(index.nodes) == database.nodes

    def test_bag_index_carries_multiplicities(self):
        bag = generators.random_bag_database(4, 6, "ab", seed=3, max_multiplicity=5)
        index = bag.index()
        assert index.multiplicities is not None
        for fact_id, fact in enumerate(index.facts):
            assert index.multiplicities[fact_id] == bag.multiplicity(fact)

    def test_set_index_is_its_unit_bag_index(self):
        # A set database is the bag with unit multiplicities: its own index
        # numbers facts and nodes exactly as its unit bag's would.
        database = generators.random_labelled_graph(6, 14, "abc", seed=3, allow_self_loops=True)
        index, unit = database.index(), database.to_bag(1).index()
        assert index.multiplicities == (1,) * len(database)
        assert (index.facts, index.nodes, index.node_ids) == (unit.facts, unit.nodes, unit.node_ids)

    def test_cached_adjacency_views(self):
        database = generators.random_labelled_graph(5, 9, "ab", seed=4)
        assert database.outgoing() is database.outgoing()
        assert database.incoming() is database.incoming()
        for node, facts in database.outgoing().items():
            assert all(fact.source == node for fact in facts)

    def test_bag_set_view_is_cached(self):
        bag = generators.random_bag_database(4, 6, "ab", seed=5)
        assert bag.database is bag.database


class TestPlanBasedEvaluation:
    def test_walks_are_valid_and_shortest(self):
        for expression in ["ab", "aa", "ab|ba", "ax*b", "abc|be"]:
            language = Language.from_regex(expression)
            alphabet = "".join(sorted(language.alphabet))
            for seed in range(4):
                database = generators.random_labelled_graph(5, 10, alphabet, seed=seed)
                walk = find_l_walk(language.automaton, database)
                if walk is None:
                    continue
                assert is_walk(walk)
                assert walk_label(walk) in language
                if len(walk) > 1:
                    shorter = enumerate_matches(language, database, max_walk_length=len(walk) - 1)
                    assert not shorter, (expression, seed)

    def test_accepts_compiled_plan_directly(self):
        language = Language.from_regex("ab")
        plan = compile_automaton(language.automaton)
        assert isinstance(plan, CompiledAutomaton)
        database = GraphDatabase.from_edges([("u", "a", "v"), ("v", "b", "w")])
        assert find_l_walk(plan, database) == find_l_walk(language.automaton, database)

    def test_masked_search_matches_materialized_removal(self):
        language = Language.from_regex("ab|ba")
        database = generators.random_labelled_graph(5, 10, "ab", seed=7)
        plan = compile_automaton(language.automaton)
        index = database.index()
        for removed_id in range(len(index.facts)):
            mask = bytearray(len(index.facts))
            mask[removed_id] = 1
            masked = find_l_walk_ids(plan, index, mask)
            materialized = find_l_walk(
                language.automaton, database.remove([index.facts[removed_id]])
            )
            if masked is None:
                assert materialized is None
            else:
                assert materialized is not None
                assert len(masked) == len(materialized)
                assert removed_id not in masked


class TestOverlayExactSearch:
    def test_overlay_matches_reference_nodes_explored(self):
        # The overlay search must explore exactly the same branch-and-bound
        # tree as the materializing reference implementation.
        for expression in ["aa", "ab|ba", "axb|cxd", "abc|bcd"]:
            language = Language.from_regex(expression)
            alphabet = "".join(sorted(language.alphabet))
            for seed in range(4):
                database = generators.random_labelled_graph(5, 11, alphabet, seed=seed)
                fast = resilience_exact(language, database)
                reference = resilience_exact_reference(language, database)
                assert fast.value == reference.value, (expression, seed)
                assert fast.contingency_set == reference.contingency_set, (expression, seed)
                assert (
                    fast.details["nodes_explored"] == reference.details["nodes_explored"]
                ), (expression, seed)

    def test_overlay_matches_reference_on_bags(self):
        language = Language.from_regex("ab|ba")
        for seed in range(4):
            bag = generators.random_bag_database(4, 7, "ab", seed=seed, max_multiplicity=4)
            fast = resilience_exact(language, bag)
            reference = resilience_exact_reference(language, bag)
            assert fast.value == reference.value, seed
            assert fast.details["nodes_explored"] == reference.details["nodes_explored"], seed

    def test_nodes_explored_is_deterministic(self):
        language = Language.from_regex("aa")
        database = generators.random_labelled_graph(6, 14, "a", seed=1)
        counts = {resilience_exact(language, database).details["nodes_explored"] for _ in range(3)}
        assert len(counts) == 1

    def test_max_nodes_guard_still_applies(self):
        from repro.exceptions import SearchBudgetExceeded

        database = generators.random_labelled_graph(6, 14, "a", seed=1)
        with pytest.raises(SearchBudgetExceeded):
            resilience_exact(Language.from_regex("aa"), database, max_nodes=1)


_EXPRESSIONS = ["ab", "aa", "ab|ba", "a|bb", "abc|be"]


def _database_from_edges(edges: list[tuple[int, int, str]]) -> GraphDatabase:
    return GraphDatabase.from_edges(
        (f"n{source}", label, f"n{target}") for source, target, label in edges
    )


@st.composite
def _small_instances(draw):
    expression = draw(st.sampled_from(_EXPRESSIONS))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
                st.sampled_from("abc"),
            ),
            min_size=0,
            max_size=7,
            unique=True,
        )
    )
    return expression, edges


class TestPropertyBasedCrossCheck:
    @settings(max_examples=60, deadline=None)
    @given(_small_instances())
    def test_overlay_matches_brute_force_on_sets(self, instance):
        expression, edges = instance
        language = Language.from_regex(expression)
        database = _database_from_edges(edges)
        fast = resilience_exact(language, database)
        slow = resilience_brute_force(language, database)
        assert fast.value == slow.value
        assert verify_contingency_set(language, database, fast)

    @settings(max_examples=40, deadline=None)
    @given(_small_instances(), st.integers(min_value=1, max_value=3))
    def test_overlay_matches_brute_force_on_bags(self, instance, multiplier):
        expression, edges = instance
        language = Language.from_regex(expression)
        database = _database_from_edges(edges)
        bag = BagGraphDatabase(
            {
                fact: 1 + ((index * multiplier) % 3)
                for index, fact in enumerate(sorted(database.facts, key=repr))
            }
        )
        if not bag.facts:
            return
        fast = resilience_exact(language, bag)
        slow = resilience_brute_force(language, bag)
        assert fast.value == slow.value
        assert verify_contingency_set(language, bag, fast)
