"""Property tests of the automaton kernel's on-the-fly algorithms and indexes.

``equivalent``, ``contains_language``, ``is_empty`` and ``difference`` explore
reachable subset pairs instead of materializing complete DFAs and products.
These tests hold them against the materializing constructions (determinize,
complete, minimize, product) and against word-by-word membership, and pin the
canonical fingerprints the analysis caches are keyed by.

Regex compilation and canonicalization skip the intermediate automata too.
They are held against oracles kept here: the Thompson construction through the
``operations`` combinators followed by ``trim().relabel()``, and the
fingerprint payload built from ``operations.minimize`` plus BFS renumbering.
"""

import hashlib
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import product as cartesian

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.languages import Language, operations
from repro.languages.automata import EpsilonNFA, compile_automaton
from repro.languages.examples import FIGURE_1_LANGUAGES
from repro.languages.regex import (
    Concat,
    Epsilon,
    Letter,
    Star,
    Union,
    _compile,
    parse_regex,
    regex_to_automaton,
)
from repro.traffic.generator import DEFAULT_CATALOGUE

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
ALPHABET = "abc"
WORDS_UP_TO_5 = tuple(
    "".join(letters)
    for length in range(6)
    for letters in cartesian(ALPHABET, repeat=length)
)
INDEXES = ("_epsilon_successors", "_step_map", "_trimmed")

regexes = st.recursive(
    st.sampled_from(["a", "b", "c", "ε"]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map("".join),
        st.tuples(inner, inner).map(lambda pair: f"({pair[0]}|{pair[1]})"),
        inner.map(lambda expression: f"({expression})*"),
    ),
    max_leaves=5,
)

# Pairs of syntactically different regexes with the same language, so that
# equivalent pairs are drawn as often as inequivalent ones.
equivalent_forms = st.sampled_from([
    lambda r: (r, f"({r}|{r})"),
    lambda r: (r, f"ε{r}"),
    lambda r: (r, f"{r}(ε|ε)"),
    lambda r: (f"({r})*", f"(({r})*)*"),
    lambda r: (f"({r})*", f"(ε|{r})*"),
])
equivalent_pairs = st.tuples(regexes, equivalent_forms).map(lambda drawn: drawn[1](drawn[0]))
regex_pairs = st.one_of(st.tuples(regexes, regexes), equivalent_pairs)


def over_abc(expression: str) -> EpsilonNFA:
    return Language.from_regex(expression, alphabet=ALPHABET).automaton


def materialized_difference(left: EpsilonNFA, right: EpsilonNFA) -> EpsilonNFA:
    return operations.intersection(left, operations.complement(right, ALPHABET))


class TestOnTheFlyAgainstMaterialized:
    @SETTINGS
    @given(regex_pairs)
    def test_equivalent_iff_equal_canonical_fingerprints(self, pair):
        left, right = (over_abc(expression) for expression in pair)
        same = operations.canonical_fingerprint(left) == operations.canonical_fingerprint(right)
        assert operations.equivalent(left, right) is same
        assert operations.equivalent(right, left) is same
        assert (
            operations.contains_language(left, right)
            and operations.contains_language(right, left)
        ) is same

    @SETTINGS
    @given(equivalent_pairs)
    def test_equivalent_forms_are_equivalent(self, pair):
        left, right = (over_abc(expression) for expression in pair)
        assert operations.equivalent(left, right)

    @SETTINGS
    @given(regex_pairs)
    def test_difference_matches_intersection_with_complement(self, pair):
        left, right = (over_abc(expression) for expression in pair)
        on_the_fly = operations.difference(left, right)
        reference = materialized_difference(left, right)
        assert on_the_fly.alphabet == reference.alphabet
        assert operations.canonical_fingerprint(on_the_fly) == operations.canonical_fingerprint(
            reference
        )

    @SETTINGS
    @given(regex_pairs)
    def test_is_empty_and_contains_agree_with_membership(self, pair):
        left, right = (over_abc(expression) for expression in pair)
        left_words = {word for word in WORDS_UP_TO_5 if left.accepts(word)}
        right_words = {word for word in WORDS_UP_TO_5 if right.accepts(word)}
        for automaton, words in (
            (left, left_words),
            (operations.difference(left, right), left_words - right_words),
            (operations.intersection(left, right), left_words & right_words),
        ):
            assert {word for word in WORDS_UP_TO_5 if automaton.accepts(word)} == words
            empty = operations.is_empty(automaton)
            if words:
                assert not empty
            # Beyond length 5, the trimmed automaton's shortest word decides.
            assert empty is (operations.shortest_word(automaton) is None)
        contained = operations.contains_language(left, right)
        if contained:
            assert right_words <= left_words
        if not right_words <= left_words:
            assert not contained
        witness = operations.shortest_word(materialized_difference(right, left))
        assert contained is (witness is None)


class TestIndexes:
    @SETTINGS
    @given(regexes)
    def test_pickle_is_unchanged_by_filled_indexes(self, expression):
        automaton = Language.from_regex(expression).automaton
        before = pickle.dumps(automaton)
        automaton.epsilon_successors()
        automaton.step_map()
        automaton.trim()
        automaton.accepts("abc")
        compile_automaton(automaton)
        assert set(INDEXES) <= set(vars(automaton))
        assert pickle.dumps(automaton) == before
        restored = pickle.loads(before)
        assert restored == automaton and hash(restored) == hash(automaton)
        assert not set(INDEXES) & set(vars(restored))

    def test_threads_racing_on_index_fills_get_the_serial_answers(self):
        # Node threads share analysed automata; a fill is idempotent, so a
        # race may derive an index twice but never changes an answer.
        expressions = ("ax*b|xd", "abc|be", "(ab)*a|ba", "b(aa)*d", "a(b|c)*d|bc")

        def answers(automata):
            return [
                (
                    automaton.trim(),
                    [operations.equivalent(automaton, other) for other in automata],
                    [operations.is_empty(operations.difference(automaton, other)) for other in automata],
                    [word for word in WORDS_UP_TO_5 if automaton.accepts(word)],
                )
                for automaton in automata
            ]

        expected = answers([Language.from_regex(e).automaton for e in expressions])
        shared = [Language.from_regex(e).automaton for e in expressions]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(answers, shared) for _ in range(8)]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert all(result == expected for result in results)
        for automaton in shared:
            fresh = pickle.loads(pickle.dumps(automaton))
            for index in (EpsilonNFA.step_map, EpsilonNFA.epsilon_successors):
                filled, derived = index(automaton), index(fresh)
                assert {key: set(targets) for key, targets in filled.items()} == {
                    key: set(targets) for key, targets in derived.items()
                }

    def test_nfa_without_epsilon_moves_is_its_own_epsilon_free_form(self):
        automaton = EpsilonNFA.for_word("abc")
        assert automaton.epsilon_successors() == {}
        assert automaton.remove_epsilon() is automaton

    def test_trim_returns_self_when_every_state_is_useful(self):
        automaton = EpsilonNFA.for_word("abc")
        assert automaton.trim() is automaton
        padded = EpsilonNFA.build([0, 1, 2], [0], [1], [(0, "a", 1), (0, "b", 2)])
        trimmed = padded.trim()
        assert trimmed.states == {0, 1}
        assert padded.trim() is trimmed and trimmed.trim() is trimmed

    def test_step_map_and_epsilon_successors_index_the_transitions(self):
        automaton = EpsilonNFA.build(
            [0, 1, 2], [0], [2], [(0, None, 1), (1, "a", 2), (1, "a", 0), (0, "b", 2)]
        )
        assert automaton.epsilon_successors() == {0: [1]}
        step = automaton.step_map()
        assert set(step) == {(1, "a"), (0, "b")}
        assert sorted(step[(1, "a")]) == [0, 2] and step[(0, "b")] == [2]


# canonical_fingerprint values computed before the on-the-fly kernel; every
# traffic catalogue query is a Figure 1 query, and each is infix-free.
FIGURE_1_FINGERPRINTS = {
    "abc|abd": "3c097bc878ea95cde67623d94ae5fa20e7e794acf2c4142e2450282282d1c321",
    "ab|ad|cd": "641ec0ac30185e3c6aa8a33fe62b4fbeecfe23cf8fed925b37315a8128c9f36c",
    "ax*b": "eaffd159c256ba497c11da3dbd0ca7c04fdbcca68172f00ca325ae40635e1324",
    "ab|bc": "f77f67ee075d2d88681280e9f916d01cbf6248426c5b0cfdfe18f75ce4ff01c0",
    "axb|byc": "a6bbb981e2d3a6e71b68b9b1c94da13648dbd2a2ba072f66ee773b4349f26231",
    "ax*b|xd": "d643b7a04468d50cd167a087c4183ef3365b194fed3aefc439a194cc27cee3cf",
    "abc|be": "454626f22ad030c670a16c886735441607d82b5c5b423ef0549e38325b2139ed",
    "abcd|ce": "f7369498ae73200cf071a12bce134dfe14cf0df294432b7541d74d5b8c371ac4",
    "abcd|be": "00e74a694229da6e34f5c1c9d308c92b0ec406074fdbc91d7e810c395f0d1089",
    "axb|cxd": "5351d76a705aeb6ebaf07c8f971c360f177a85b659b16450163ac303a4beb84b",
    "ax*b|cxd": "d4ca900b3f8ea02f65711fb1f17e8c3a9d325860717a0d0a3f72ea533bd9acf0",
    "b(aa)*d": "c744ca82fb2f8f9594b79879aac23daee9a043e5e82a9e037f635ca0460a9e6b",
    "aa": "b6364887fef98eb239c3702ed15cab6bf215f6b4fe23a12dc615e7f33e2fbbfb",
    "aaaa": "a908afe9db5f2886483a4f489b1d3ce909fed790d462c82a7d38cd05b3cc2f05",
    "abca|cab": "a48dc6cadd8d2e2b4f836fd9a38a00b8f840a9060165e5cfa4517025b31d8286",
    "ab|bc|ca": "f0b153d6c545789791ffc9e204816ff1ee9736398e220eaf3edcb27f25feeb62",
    "abcd|be|ef": "5003e4437e75bd2ebd6317d475d57d915fe5371d73a06428b1aea124df748eaa",
    "abcd|bef": "de88d07173e95d49a6580db936cdee0ecad8f9f3e9540b27bb26a83f59830b00",
    "abc|bcd": "860c6726522ed8e7b158b4904cd5b90f3782978ff1ae0ec8dc769ba22d714c0b",
    "abc|bef": "ec82da70c921fa624eca1c9bcfc5702b6a662668e495c98a78aba8e5b372daba",
    "ab*c|ba": "3f0b6e883a6c844c83a9f9a61c6f491b9ee3e313c0c65ea0618cca48a8472975",
    "ab*d|ac*d|bc": "9c5d5ea25f6d7d0e7068baf5d104548149313321194a7395764bc5e9f040d493",
}

# IF(L) of infinite, non-infix-free languages: computed through difference().
INFIX_FREE_FINGERPRINTS = {
    "ax*b|x": "c8d45386c046226507b95b65fcf667b054aaac7b8fa752b13f4d2b537c0cb46a",
    "a(b|c)*d|bc": "cf892faea12132d9110e64fc827ce98b6e333f0cb7d56e8a1696c5610eb59f90",
    "(ab)*a|ba": "bc7ae2280d75b79e13463b5c17259b0bdbb5d90f4623daa91c659dd64d7fe3d6",
    "b(aa)*d|aa": "84a845fb55104de9c1b4de27d561dc1283de6631ef46d1aa5bac80af9bee91dd",
    "a*b*c": "d9c5e240b736a74681e0b863a57e8954579475c81ff5bd8272c5868962832f25",
}

# One-dangling decompositions L = local_part ∪ {xy}: local_part is L \ {xy}.
ONE_DANGLING_FINGERPRINTS = {
    "ax*b|xd": ("xd", "afc6eeb5deabfc3d16cecb6d005ea0e40cc239a2141de2825708ab510d59a796"),
    "abc|be": ("be", "5df7440af46e15df2fe4f699f0b6fd15bd40bdc2241db4b3a68911282bdbe8aa"),
    "abcd|ce": ("ce", "d5a4eff654522471494110f817c5ab60a6ea4ea62e199594b482d62fc835279e"),
    "abcd|be": ("be", "d5a4eff654522471494110f817c5ab60a6ea4ea62e199594b482d62fc835279e"),
}


class TestPinnedFingerprints:
    def test_catalogue_is_figure_1(self):
        assert set(DEFAULT_CATALOGUE) == {example.regex for example in FIGURE_1_LANGUAGES}
        assert set(FIGURE_1_FINGERPRINTS) == set(DEFAULT_CATALOGUE)

    @pytest.mark.parametrize("expression", sorted(FIGURE_1_FINGERPRINTS))
    def test_figure_1_and_traffic_queries(self, expression):
        language = Language.from_regex(expression)
        expected = FIGURE_1_FINGERPRINTS[expression]
        assert operations.canonical_fingerprint(language.automaton) == expected
        assert operations.canonical_fingerprint(language.infix_free().automaton) == expected

    @pytest.mark.parametrize("expression", sorted(INFIX_FREE_FINGERPRINTS))
    def test_infix_free_sublanguages(self, expression):
        infix_free = Language.from_regex(expression).infix_free()
        assert (
            operations.canonical_fingerprint(infix_free.automaton)
            == INFIX_FREE_FINGERPRINTS[expression]
        )

    @pytest.mark.parametrize("expression", sorted(ONE_DANGLING_FINGERPRINTS))
    def test_one_dangling_local_parts(self, expression):
        decomposition = Language.from_regex(expression).infix_free().one_dangling_decomposition()
        word, fingerprint = ONE_DANGLING_FINGERPRINTS[expression]
        assert decomposition.dangling_word == word
        assert operations.canonical_fingerprint(decomposition.local_part.automaton) == fingerprint


# ----------------------------------------------------------------- one-pass compilation


def combinator_compile(node):
    """The Thompson construction through the ``operations`` combinators."""
    if isinstance(node, Epsilon):
        return EpsilonNFA.build(["q"], ["q"], ["q"], [])
    if isinstance(node, Letter):
        return EpsilonNFA.for_word(node.letter)
    if isinstance(node, Concat):
        return operations.concatenation(combinator_compile(node.left), combinator_compile(node.right))
    if isinstance(node, Union):
        return operations.union(combinator_compile(node.left), combinator_compile(node.right))
    assert isinstance(node, Star)
    return operations.kleene_star(combinator_compile(node.inner))


def combinator_automaton(expression):
    return combinator_compile(parse_regex(expression)).trim().relabel()


COMPILATION_EDGE_CASES = ("", "ε", "_", "a**", "()", "(|)*", "(a|)b")


def every_ast(size):
    """Every AST of exactly ``size`` nodes over the leaves ``a``, ``b`` and ε."""
    if size == 1:
        return [Letter("a"), Letter("b"), Epsilon()]
    trees = [Star(inner) for inner in every_ast(size - 1)]
    for left_size in range(1, size - 1):
        for left in every_ast(left_size):
            for right in every_ast(size - 1 - left_size):
                trees += [Concat(left, right), Union(left, right)]
    return trees


class TestOnePassCompilation:
    def test_every_ast_of_up_to_six_nodes(self):
        trees = [tree for size in range(1, 7) for tree in every_ast(size)]
        assert len(trees) == 1674
        for tree in trees:
            assert _compile(tree) == combinator_compile(tree).trim().relabel(), tree

    @pytest.mark.parametrize(
        "expression",
        COMPILATION_EDGE_CASES + tuple(sorted(FIGURE_1_FINGERPRINTS)) + tuple(sorted(INFIX_FREE_FINGERPRINTS)),
    )
    def test_edge_cases_and_catalogue(self, expression):
        assert regex_to_automaton(expression) == combinator_automaton(expression)

    @SETTINGS
    @given(regexes)
    def test_equals_the_combinators_relabelled(self, expression):
        assert regex_to_automaton(expression) == combinator_automaton(expression)


# ----------------------------------------------------------------- integer-table canonicalization


def minimize_canonical_dfa(automaton):
    """The canonical DFA from ``operations.minimize`` plus BFS renumbering."""
    dfa = operations.minimize(automaton)
    table = {(source, label): target for source, label, target in dfa.letter_transitions}
    (start,) = dfa.initial
    order = [start]
    for state in order:
        for letter in sorted(dfa.alphabet):
            if table[(state, letter)] not in order:
                order.append(table[(state, letter)])
    assert set(order) == dfa.states
    number = {state: index for index, state in enumerate(order)}
    return EpsilonNFA.build(
        number.values(),
        [number[start]],
        (number[state] for state in dfa.final),
        ((number[source], label, number[target]) for source, label, target in dfa.letter_transitions),
        dfa.alphabet,
    )


def payload_fingerprint(dfa):
    """The sha256 of the fingerprint payload of an already canonical DFA."""
    payload = repr(
        (
            tuple(sorted(dfa.alphabet)),
            len(dfa.states),
            tuple(sorted(dfa.initial)),
            tuple(sorted(dfa.final)),
            tuple(sorted(dfa.letter_transitions)),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# Dead and unreachable states, epsilon moves, an empty initial set, mixed
# state types and letters no transition uses.
STATE_NAMES = (0, 1, 2, 3, 4, 5, "p", "q", ("t", 0))


@st.composite
def random_automata(draw):
    states = draw(st.lists(st.sampled_from(STATE_NAMES), min_size=1, max_size=7, unique=True))
    named = st.sampled_from(states)
    transitions = draw(
        st.lists(st.tuples(named, st.sampled_from(["a", "b", "c", None]), named), max_size=14)
    )
    initial = draw(st.lists(named, max_size=3))
    final = draw(st.lists(named, max_size=len(states)))
    unused = draw(st.sampled_from(["", "d", "de"]))
    return EpsilonNFA.build(states, initial, final, transitions, unused)


def regex_derived(expression):
    """A regex automaton, its widening to ``abcd`` and IF(L) over ``abc``."""
    automaton = Language.from_regex(expression).automaton
    return (
        automaton,
        automaton.with_alphabet("abcd"),
        Language.from_regex(expression, alphabet=ALPHABET).infix_free().automaton,
    )


def assert_canonical(automaton):
    reference = minimize_canonical_dfa(automaton)
    assert operations.canonical_fingerprint(automaton) == payload_fingerprint(reference)
    dfa = operations.canonical_dfa(automaton)
    assert dfa == reference
    assert dfa.is_complete_dfa() and dfa.alphabet == automaton.alphabet
    assert operations.canonical_dfa(dfa) == dfa


class TestCanonicalTables:
    @SETTINGS
    @given(regexes)
    def test_regex_automata_widenings_and_infix_free(self, expression):
        for automaton in regex_derived(expression):
            assert_canonical(automaton)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(random_automata())
    def test_random_automata(self, automaton):
        assert_canonical(automaton)

    @pytest.mark.parametrize("expression", sorted(FIGURE_1_FINGERPRINTS))
    def test_catalogue_payloads(self, expression):
        for automaton in regex_derived(expression):
            assert_canonical(automaton)
