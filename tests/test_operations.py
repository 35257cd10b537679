"""Unit tests for automata algorithms (determinization, boolean operations, ...)."""

import pytest

from repro.exceptions import NotFiniteError
from repro.languages import operations
from repro.languages.automata import EpsilonNFA
from repro.languages.regex import regex_to_automaton


def automaton(expression: str) -> EpsilonNFA:
    return regex_to_automaton(expression)


class TestDeterminize:
    @pytest.mark.parametrize("expression", ["ab|ad|cd", "ax*b", "a(b|c)*d", "abc|bef"])
    def test_determinize_preserves_language(self, expression):
        original = automaton(expression)
        dfa = operations.determinize(original)
        assert dfa.is_dfa()
        for word in ["ab", "ad", "cd", "axb", "ad", "abc", "bef", "abcd", ""]:
            assert original.accepts(word) == dfa.accepts(word)

    def test_complete_adds_sink(self):
        dfa = operations.complete(operations.determinize(automaton("ab")), "ab")
        assert dfa.is_complete_dfa()


class TestBooleanOperations:
    def test_intersection(self):
        left = automaton("a*b")
        right = automaton("ab|b|aab")
        both = operations.intersection(left, right)
        assert both.accepts("ab")
        assert both.accepts("aab")
        assert both.accepts("b")
        assert not both.accepts("aaab") is False or True  # aaab in a*b but not right
        assert not both.accepts("aaab")

    def test_union(self):
        combined = operations.union(automaton("ab"), automaton("cd"))
        assert combined.accepts("ab")
        assert combined.accepts("cd")
        assert not combined.accepts("ad")

    def test_difference(self):
        diff = operations.difference(automaton("ab|ad|cd"), automaton("ad"))
        assert diff.accepts("ab")
        assert diff.accepts("cd")
        assert not diff.accepts("ad")

    def test_complement(self):
        comp = operations.complement(automaton("aa"), "a")
        assert comp.accepts("")
        assert comp.accepts("a")
        assert not comp.accepts("aa")
        assert comp.accepts("aaa")

    def test_concatenation(self):
        concat = operations.concatenation(automaton("a|b"), automaton("c"))
        assert concat.accepts("ac")
        assert concat.accepts("bc")
        assert not concat.accepts("c")

    def test_kleene_star(self):
        star = operations.kleene_star(automaton("ab"))
        assert star.accepts("")
        assert star.accepts("ab")
        assert star.accepts("abab")
        assert not star.accepts("aba")


class TestEquivalence:
    def test_equivalent_regexes(self):
        assert operations.equivalent(automaton("ab|ad"), automaton("a(b|d)"))

    def test_not_equivalent(self):
        assert not operations.equivalent(automaton("ab"), automaton("ab|ad"))

    def test_containment(self):
        assert operations.contains_language(automaton("a*b"), automaton("ab|aab"))
        assert not operations.contains_language(automaton("ab|aab"), automaton("a*b"))

    def test_minimize_produces_equivalent_dfa(self):
        original = automaton("ab|ad|cd")
        minimal = operations.minimize(original)
        assert minimal.is_dfa()
        assert operations.equivalent(original, minimal)

    def test_minimize_is_minimal_for_simple_language(self):
        # The minimal complete DFA for a single word "ab" over {a, b} has 4
        # states: initial, after-a, accepting, sink.
        minimal = operations.minimize(automaton("ab").with_alphabet("ab"))
        assert len(minimal.states) == 4


class TestEmptinessFiniteness:
    def test_is_empty(self):
        assert operations.is_empty(EpsilonNFA.empty_language("a"))
        assert not operations.is_empty(automaton("a"))

    def test_is_finite_true(self):
        assert operations.is_finite(automaton("ab|ad|cd"))
        assert operations.is_finite(automaton("abc|bef"))

    def test_is_finite_false(self):
        assert not operations.is_finite(automaton("ax*b"))
        assert not operations.is_finite(automaton("b(aa)*d"))

    def test_enumerate_finite_language(self):
        assert operations.enumerate_finite_language(automaton("ab|ad|cd")) == {"ab", "ad", "cd"}

    def test_enumerate_rejects_infinite(self):
        with pytest.raises(NotFiniteError):
            operations.enumerate_finite_language(automaton("ax*b"))

    def test_enumerate_words_up_to_length(self):
        found = operations.enumerate_words_up_to_length(automaton("ax*b"), 4)
        assert found == {"ab", "axb", "axxb"}

    def test_shortest_word(self):
        assert operations.shortest_word(automaton("ax*b")) == "ab"
        assert operations.shortest_word(automaton("abc|d")) == "d"
        assert operations.shortest_word(EpsilonNFA.empty_language("a")) is None

    def test_max_word_length(self):
        assert operations.max_word_length(automaton("ab|abcd")) == 4
