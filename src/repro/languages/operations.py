"""Algorithms on finite automata.

This module contains the classical constructions used throughout the paper:
subset-construction determinization, completion, complementation, product
(intersection), union, difference, Moore minimization, equivalence testing,
emptiness, finiteness, and enumeration of the words of a finite language.

All functions are pure: they take :class:`~repro.languages.automata.EpsilonNFA`
instances and return new ones.  They read each automaton's derived indexes
(epsilon successors, step map, trimmed form) instead of rescanning its
transitions.

The yes/no questions never build an automaton.  :func:`equivalent` and
:func:`contains_language` run one breadth-first subset exploration over both
automata and stop at the first pair of subsets that disagrees on acceptance;
:func:`is_empty` is a reachability test.  :func:`difference` builds its result
on the fly from the reachable pairs of a left state and an epsilon-closed set of
right states, the empty set playing the sink of the complemented right
automaton.  :func:`product` therefore only serves :func:`intersection`.

The canonicalization helpers at the bottom (:func:`canonical_dfa`,
:func:`canonical_fingerprint`) turn an automaton into the *unique* minimal
complete DFA of its language with a deterministic state numbering, which makes
language equivalence decidable by string comparison of fingerprints — the key
the cross-instance analysis caches and the on-disk stores are built on.  Both
read one set of integer tables (bitmask subset construction, Moore refinement
on integer rows, BFS numbering); the fingerprint hashes them without building
an automaton.  :func:`minimize` stays the automaton-level construction for
callers that want the minimal DFA itself.
"""

from __future__ import annotations

import hashlib
from collections import deque
from collections.abc import Callable, Iterable
from operator import or_

from ..exceptions import NotFiniteError
from .automata import EpsilonNFA, State

_SINK = "__sink__"
_EMPTY: frozenset[State] = frozenset()


# --------------------------------------------------------------------------- determinization


def determinize(automaton: EpsilonNFA) -> EpsilonNFA:
    """Return a DFA equivalent to ``automaton`` via the subset construction.

    The resulting DFA is *not* complete: missing transitions mean rejection.
    States of the result are frozensets of states of the input.
    """
    step = automaton.step_map()
    start = automaton.epsilon_closure(automaton.initial)
    states: set[frozenset[State]] = {start}
    transitions: list[tuple[frozenset[State], str, frozenset[State]]] = []
    queue: deque[frozenset[State]] = deque([start])
    alphabet = sorted(automaton.alphabet)
    while queue:
        current = queue.popleft()
        for letter in alphabet:
            successors: set[State] = set()
            for state in current:
                successors.update(step.get((state, letter), ()))
            if not successors:
                continue
            closure = automaton.epsilon_closure(successors)
            if closure not in states:
                states.add(closure)
                queue.append(closure)
            transitions.append((current, letter, closure))
    final = {subset for subset in states if subset & automaton.final}
    return EpsilonNFA.build(states, [start], final, transitions, automaton.alphabet)


def complete(automaton: EpsilonNFA, alphabet: Iterable[str] | None = None) -> EpsilonNFA:
    """Return a complete DFA equivalent to the given DFA, adding a sink if needed."""
    if not automaton.is_dfa():
        automaton = determinize(automaton)
    full_alphabet = frozenset(alphabet) if alphabet is not None else automaton.alphabet
    full_alphabet = full_alphabet | automaton.alphabet
    outgoing = {(source, label) for source, label, _ in automaton.letter_transitions}
    transitions = set(automaton.transitions)
    states = set(automaton.states)
    needs_sink = False
    for state in automaton.states:
        for letter in full_alphabet:
            if (state, letter) not in outgoing:
                transitions.add((state, letter, _SINK))
                needs_sink = True
    if needs_sink:
        states.add(_SINK)
        for letter in full_alphabet:
            transitions.add((_SINK, letter, _SINK))
    if not automaton.initial:
        states.add(_SINK)
        return EpsilonNFA.build(states, [_SINK], automaton.final, transitions, full_alphabet)
    return EpsilonNFA.build(states, automaton.initial, automaton.final, transitions, full_alphabet)


def complement(automaton: EpsilonNFA, alphabet: Iterable[str] | None = None) -> EpsilonNFA:
    """Return an automaton for the complement of the language over ``alphabet``."""
    dfa = complete(determinize(automaton), alphabet)
    return EpsilonNFA.build(
        dfa.states, dfa.initial, dfa.states - dfa.final, dfa.transitions, dfa.alphabet
    )


# --------------------------------------------------------------------------- boolean combinations


def product(left: EpsilonNFA, right: EpsilonNFA) -> EpsilonNFA:
    """Return the product automaton of two automata, accepting ``L(left) & L(right)``."""
    left_nfa = left.remove_epsilon()
    right_nfa = right.remove_epsilon()
    alphabet = left_nfa.alphabet | right_nfa.alphabet
    left_step = left_nfa.step_map()
    right_step = right_nfa.step_map()

    start = {(l, r) for l in left_nfa.initial for r in right_nfa.initial}
    states: set[tuple[State, State]] = set(start)
    transitions: list[tuple[tuple[State, State], str, tuple[State, State]]] = []
    queue = deque(start)
    while queue:
        current = queue.popleft()
        l_state, r_state = current
        for letter in alphabet:
            l_targets = left_step.get((l_state, letter), ())
            r_targets = right_step.get((r_state, letter), ())
            for l_target in l_targets:
                for r_target in r_targets:
                    nxt = (l_target, r_target)
                    transitions.append((current, letter, nxt))
                    if nxt not in states:
                        states.add(nxt)
                        queue.append(nxt)
    final = {(l, r) for (l, r) in states if l in left_nfa.final and r in right_nfa.final}
    return EpsilonNFA.build(states, start, final, transitions, alphabet)


def intersection(left: EpsilonNFA, right: EpsilonNFA) -> EpsilonNFA:
    """Return an automaton for ``L(left) & L(right)``."""
    return product(left, right)


def union(left: EpsilonNFA, right: EpsilonNFA) -> EpsilonNFA:
    """Return an automaton for ``L(left) | L(right)`` (disjoint union of automata)."""
    alphabet = left.alphabet | right.alphabet

    def tag(automaton: EpsilonNFA, marker: str) -> EpsilonNFA:
        mapping = {state: (marker, state) for state in automaton.states}
        return EpsilonNFA.build(
            mapping.values(),
            (mapping[s] for s in automaton.initial),
            (mapping[s] for s in automaton.final),
            ((mapping[s], label, mapping[t]) for s, label, t in automaton.transitions),
            alphabet,
        )

    tagged_left = tag(left, "L")
    tagged_right = tag(right, "R")
    return EpsilonNFA.build(
        tagged_left.states | tagged_right.states,
        tagged_left.initial | tagged_right.initial,
        tagged_left.final | tagged_right.final,
        tagged_left.transitions | tagged_right.transitions,
        alphabet,
    )


def _subset_mover(automaton: EpsilonNFA) -> Callable[[frozenset[State], str], frozenset[State]]:
    """Return the subset-construction move of ``automaton``.

    ``move(subset, letter)`` is the epsilon closure of the ``letter``-successors
    of ``subset``: the transition of the (incomplete) determinized automaton,
    with the empty set standing for its missing sink.  Each returned mover
    memoizes its moves, since one subset recurs in many explored pairs.
    """
    step = automaton.step_map()
    closure = automaton.epsilon_closure
    moves: dict[tuple[frozenset[State], str], frozenset[State]] = {}

    def move(subset: frozenset[State], letter: str) -> frozenset[State]:
        key = (subset, letter)
        target = moves.get(key)
        if target is None:
            successors: set[State] = set()
            for state in subset:
                successors.update(step.get((state, letter), ()))
            target = moves[key] = closure(successors) if successors else _EMPTY
        return target

    return move


def difference(left: EpsilonNFA, right: EpsilonNFA) -> EpsilonNFA:
    """Return an automaton for ``L(left) \\ L(right)``.

    The states are the reachable pairs of a ``left`` state and an
    epsilon-closed set of ``right`` states; the empty set is the sink of the
    complemented ``right``.  ``left`` is read epsilon-free: a pair steps from
    any state of its left state's epsilon closure.
    """
    alphabet = left.alphabet | right.alphabet
    letters = sorted(alphabet)
    left_step = left.step_map()
    left_closure = left.epsilon_closure
    right_move = _subset_mover(right)

    right_start = right.epsilon_closure(right.initial)
    start = {(state, right_start) for state in left.initial}
    states: set[tuple[State, frozenset[State]]] = set(start)
    transitions: list[tuple[tuple[State, frozenset[State]], str, tuple[State, frozenset[State]]]] = []
    final: set[tuple[State, frozenset[State]]] = set()
    queue = deque(start)
    while queue:
        current = queue.popleft()
        l_state, r_subset = current
        l_closure = left_closure((l_state,))
        if not l_closure.isdisjoint(left.final) and r_subset.isdisjoint(right.final):
            final.add(current)
        for letter in letters:
            l_targets: set[State] = set()
            for state in l_closure:
                l_targets.update(left_step.get((state, letter), ()))
            if not l_targets:
                continue
            r_target = right_move(r_subset, letter)
            for l_target in l_targets:
                nxt = (l_target, r_target)
                transitions.append((current, letter, nxt))
                if nxt not in states:
                    states.add(nxt)
                    queue.append(nxt)
    return EpsilonNFA.build(states, start, final, transitions, alphabet)


def concatenation(left: EpsilonNFA, right: EpsilonNFA) -> EpsilonNFA:
    """Return an automaton for ``L(left) . L(right)`` using epsilon transitions."""
    alphabet = left.alphabet | right.alphabet

    def tag(automaton: EpsilonNFA, marker: str) -> EpsilonNFA:
        mapping = {state: (marker, state) for state in automaton.states}
        return EpsilonNFA.build(
            mapping.values(),
            (mapping[s] for s in automaton.initial),
            (mapping[s] for s in automaton.final),
            ((mapping[s], label, mapping[t]) for s, label, t in automaton.transitions),
            alphabet,
        )

    tagged_left = tag(left, "L")
    tagged_right = tag(right, "R")
    glue = {(state, None, target) for state in tagged_left.final for target in tagged_right.initial}
    return EpsilonNFA.build(
        tagged_left.states | tagged_right.states,
        tagged_left.initial,
        tagged_right.final,
        tagged_left.transitions | tagged_right.transitions | glue,
        alphabet,
    )


def kleene_star(automaton: EpsilonNFA) -> EpsilonNFA:
    """Return an automaton for ``L(automaton)*``."""
    mapping = {state: ("S", state) for state in automaton.states}
    new_initial = "__star_init__"
    states = set(mapping.values()) | {new_initial}
    transitions = {(mapping[s], label, mapping[t]) for s, label, t in automaton.transitions}
    transitions |= {(new_initial, None, mapping[s]) for s in automaton.initial}
    transitions |= {(mapping[s], None, new_initial) for s in automaton.final}
    return EpsilonNFA.build(
        states, [new_initial], [new_initial], transitions, automaton.alphabet
    )


# --------------------------------------------------------------------------- minimization


def minimize(automaton: EpsilonNFA) -> EpsilonNFA:
    """Return the minimal complete DFA of the language (Moore's algorithm).

    The result is trimmed of the sink only if the sink is not needed, i.e. the
    minimal automaton is complete; callers who want the canonical minimal DFA for
    equivalence checks should compare the outputs of this function directly.
    """
    dfa = complete(determinize(automaton.trim()), automaton.alphabet)
    alphabet = sorted(dfa.alphabet)
    table = {
        (source, label): target for source, label, target in dfa.letter_transitions
    }
    # Moore refinement.
    partition_of: dict[State, int] = {
        state: (1 if state in dfa.final else 0) for state in dfa.states
    }
    while True:
        signatures: dict[State, tuple] = {}
        for state in dfa.states:
            signature = (
                partition_of[state],
                tuple(partition_of[table[(state, letter)]] for letter in alphabet),
            )
            signatures[state] = signature
        distinct = {signature: index for index, signature in enumerate(sorted(set(signatures.values()), key=repr))}
        new_partition = {state: distinct[signatures[state]] for state in dfa.states}
        if len(set(new_partition.values())) == len(set(partition_of.values())):
            partition_of = new_partition
            break
        partition_of = new_partition
    classes = sorted(set(partition_of.values()))
    (initial_state,) = dfa.initial
    transitions = {
        (partition_of[source], label, partition_of[target])
        for source, label, target in dfa.letter_transitions
    }
    final = {partition_of[state] for state in dfa.final}
    return EpsilonNFA.build(classes, [partition_of[initial_state]], final, transitions, dfa.alphabet)


def _disagreement(left: EpsilonNFA, right: EpsilonNFA, *, both_ways: bool) -> bool:
    """Return whether some word is accepted by ``left`` but not ``right``.

    With ``both_ways`` the converse also counts.  One breadth-first exploration
    of the reachable pairs of epsilon-closed subsets (the product of the two
    determinized automata, built on the fly) stops at the first pair that
    disagrees on acceptance.
    """
    letters = sorted(left.alphabet | right.alphabet)
    left_move = _subset_mover(left)
    right_move = _subset_mover(right)
    left_final, right_final = left.final, right.final
    start = (left.epsilon_closure(left.initial), right.epsilon_closure(right.initial))
    seen = {start}
    queue = deque([start])
    while queue:
        l_subset, r_subset = queue.popleft()
        l_accepts = not l_subset.isdisjoint(left_final)
        if l_accepts != (not r_subset.isdisjoint(right_final)) and (l_accepts or both_ways):
            return True
        for letter in letters:
            l_target = left_move(l_subset, letter)
            if not l_target and not both_ways:
                continue  # left accepts nothing from here on
            pair = (l_target, right_move(r_subset, letter))
            if pair not in seen and (l_target or pair[1]):
                seen.add(pair)
                queue.append(pair)
    return False


def equivalent(left: EpsilonNFA, right: EpsilonNFA) -> bool:
    """Return whether two automata recognize the same language."""
    return not _disagreement(left, right, both_ways=True)


def contains_language(larger: EpsilonNFA, smaller: EpsilonNFA) -> bool:
    """Return whether ``L(smaller)`` is a subset of ``L(larger)``."""
    return not _disagreement(smaller, larger, both_ways=False)


# --------------------------------------------------------------------------- emptiness / finiteness / enumeration


def is_empty(automaton: EpsilonNFA) -> bool:
    """Return whether the language of the automaton is empty (no final state is reachable)."""
    final = automaton.final
    if not final:
        return True
    epsilon = automaton.epsilon_successors()
    step = automaton.step_map()
    letters = automaton.alphabet
    seen = set(automaton.initial)
    pending = list(seen)
    while pending:
        state = pending.pop()
        if state in final:
            return False
        targets = list(epsilon.get(state, ()))
        for letter in letters:
            targets.extend(step.get((state, letter), ()))
        for target in targets:
            if target not in seen:
                seen.add(target)
                pending.append(target)
    return True


def is_finite(automaton: EpsilonNFA) -> bool:
    """Return whether the language of the automaton is finite.

    A trimmed automaton recognizes an infinite language iff it has a cycle
    (every state of a trimmed automaton lies on some accepting path).
    """
    trimmed = automaton.trim()
    adjacency: dict[State, list[State]] = {}
    for source, _, target in trimmed.transitions:
        adjacency.setdefault(source, []).append(target)
    color: dict[State, int] = {}

    def has_cycle_from(start: State) -> bool:
        stack: list[tuple[State, int]] = [(start, 0)]
        color[start] = 1
        path: list[State] = [start]
        while stack:
            state, index = stack[-1]
            successors = adjacency.get(state, [])
            if index < len(successors):
                stack[-1] = (state, index + 1)
                nxt = successors[index]
                status = color.get(nxt, 0)
                if status == 1:
                    return True
                if status == 0:
                    color[nxt] = 1
                    stack.append((nxt, 0))
                    path.append(nxt)
            else:
                stack.pop()
                finished = path.pop()
                color[finished] = 2
        return False

    for state in trimmed.states:
        if color.get(state, 0) == 0 and has_cycle_from(state):
            return False
    return True


def shortest_word(automaton: EpsilonNFA) -> str | None:
    """Return a shortest word of the language, or ``None`` if the language is empty."""
    trimmed = automaton.trim()
    if not trimmed.final:
        return None
    start = trimmed.epsilon_closure(trimmed.initial)
    if start & trimmed.final:
        return ""
    step: dict[State, list[tuple[str, State]]] = {}
    for source, label, target in trimmed.transitions:
        if label is not None:
            step.setdefault(source, []).append((label, target))
    queue: deque[tuple[State, str]] = deque((state, "") for state in start)
    visited = set(start)
    while queue:
        state, word = queue.popleft()
        for label, target in step.get(state, ()):
            closure = trimmed.epsilon_closure([target])
            new_word = word + label
            if closure & trimmed.final:
                return new_word
            for nxt in closure:
                if nxt not in visited:
                    visited.add(nxt)
                    queue.append((nxt, new_word))
    return None


def enumerate_finite_language(automaton: EpsilonNFA, limit: int | None = None) -> frozenset[str]:
    """Return the words of a finite regular language as an explicit set.

    Args:
        automaton: the automaton; its language must be finite.
        limit: optional safety cap on the number of words; exceeding it raises
            :class:`~repro.exceptions.NotFiniteError`.

    Raises:
        NotFiniteError: if the language is infinite (or exceeds ``limit`` words).
    """
    if not is_finite(automaton):
        raise NotFiniteError("the language of the automaton is infinite")
    trimmed = automaton.trim()
    if not trimmed.final:
        return frozenset()
    nfa = trimmed.remove_epsilon()
    step: dict[State, list[tuple[str, State]]] = {}
    for source, label, target in nfa.transitions:
        step.setdefault(source, []).append((label, target))
    words: set[str] = set()

    stack: list[tuple[State, str]] = [(state, "") for state in nfa.initial]
    # The language is finite and the NFA is trimmed, hence acyclic as a labelled
    # multigraph restricted to useful states; a DFS terminates.
    while stack:
        state, word = stack.pop()
        if state in nfa.final:
            words.add(word)
            if limit is not None and len(words) > limit:
                raise NotFiniteError(f"language has more than {limit} words")
        for label, target in step.get(state, ()):
            stack.append((target, word + label))
    return frozenset(words)


def enumerate_words_up_to_length(automaton: EpsilonNFA, max_length: int) -> frozenset[str]:
    """Return every word of the language of length at most ``max_length``."""
    nfa = automaton.trim().remove_epsilon()
    step: dict[State, list[tuple[str, State]]] = {}
    for source, label, target in nfa.transitions:
        step.setdefault(source, []).append((label, target))
    words: set[str] = set()
    frontier: list[tuple[State, str]] = [(state, "") for state in nfa.initial]
    while frontier:
        state, word = frontier.pop()
        if state in nfa.final:
            words.add(word)
        if len(word) == max_length:
            continue
        for label, target in step.get(state, ()):
            frontier.append((target, word + label))
    return frozenset(words)


def max_word_length(automaton: EpsilonNFA) -> int:
    """Return the length of the longest word of a finite language (0 for the empty language)."""
    words = enumerate_finite_language(automaton)
    return max((len(word) for word in words), default=0)


# --------------------------------------------------------------------------- canonicalization


def _canonical_tables(automaton: EpsilonNFA) -> tuple:
    """Return the canonical minimal complete DFA of the language as tables.

    The result is ``(letters, size, initial, final, transitions)``: the
    sorted alphabet, the state count, ``(0,)``, the sorted final states and
    the sorted ``(source, letter, target)`` triples.  States are ``0..n-1``
    in BFS order from the initial state, exploring letters in sorted order.
    A complete DFA has one transition per state and letter, so listing them
    state by state in letter order sorts them.

    The subset construction runs over ``automaton.trim()`` with subsets held
    as bitmasks over the trimmed states (numbered in frozenset order, which
    only this function sees); each state's epsilon closure and each
    (state, letter) closed move are precomputed masks, and the empty subset
    is the sink.  Moore refinement then merges equivalent subsets on integer
    rows, and the BFS numbering makes the result independent of every
    internal order.
    """
    trimmed = automaton.trim()
    letters = sorted(automaton.alphabet)
    index = {state: position for position, state in enumerate(trimmed.states)}
    successors = trimmed.epsilon_successors()
    epsilon = [[index[target] for target in successors.get(state, ())] for state in trimmed.states]
    closures: list[int] = []
    for position in range(len(epsilon)):
        mask, pending = 1 << position, [position]
        while pending:
            for target in epsilon[pending.pop()]:
                if not mask >> target & 1:
                    mask |= 1 << target
                    pending.append(target)
        closures.append(mask)
    column = {letter: number for number, letter in enumerate(letters)}
    moves = [[0] * len(letters) for _ in closures]
    for (source, letter), targets in trimmed.step_map().items():
        mask = 0
        for target in targets:
            mask |= closures[index[target]]
        moves[index[source]][column[letter]] = mask
    final_mask = 0
    for state in trimmed.final:
        final_mask |= 1 << index[state]
    start = 0
    for state in trimmed.initial:
        start |= closures[index[state]]

    # Subset construction: ``subsets`` grows while it is iterated.
    number = {start: 0}
    subsets = [start]
    rows: list[list[int]] = []
    sink = [0] * len(letters)
    for subset in subsets:
        lowest = subset & -subset
        targets = moves[lowest.bit_length() - 1] if subset else sink
        rest = subset ^ lowest
        while rest:
            lowest = rest & -rest
            targets = list(map(or_, targets, moves[lowest.bit_length() - 1]))
            rest ^= lowest
        row = []
        for target in targets:
            target_number = number.get(target)
            if target_number is None:
                target_number = number[target] = len(subsets)
                subsets.append(target)
            row.append(target_number)
        rows.append(row)

    # Moore refinement: split classes by their rows until no class splits.
    accepting = [bool(subset & final_mask) for subset in subsets]
    partition = [int(flag) for flag in accepting]
    classes = len(set(partition))
    while True:
        signatures: dict[tuple, int] = {}
        refined = [
            signatures.setdefault((partition[state], *map(partition.__getitem__, row)), len(signatures))
            for state, row in enumerate(rows)
        ]
        if len(signatures) == classes:
            break
        partition, classes = refined, len(signatures)

    # BFS numbering of the classes from the initial one, by one
    # representative subset each; ``representatives`` grows while iterated.
    canonical = {partition[0]: 0}
    representatives = [0]
    transitions = []
    for source, representative in enumerate(representatives):
        for letter, target in zip(letters, rows[representative]):
            target_number = canonical.get(partition[target])
            if target_number is None:
                target_number = canonical[partition[target]] = len(representatives)
                representatives.append(target)
            transitions.append((source, letter, target_number))
    final = tuple(state for state, representative in enumerate(representatives) if accepting[representative])
    return tuple(letters), len(representatives), (0,), final, tuple(transitions)


def canonical_dfa(automaton: EpsilonNFA) -> EpsilonNFA:
    """Return the canonical minimal complete DFA of the language.

    The result is the Myhill–Nerode minimal complete DFA over the automaton's
    alphabet, with states renamed ``0..n-1`` in BFS order from the initial
    state, exploring letters in sorted order.  Two automata recognize the same
    language over the same alphabet *iff* their canonical DFAs are equal as
    :class:`EpsilonNFA` values — the alphabet matters because the minimal
    complete DFA of, say, ``a`` over ``{a}`` and over ``{a, b}`` differ by the
    sink behaviour on ``b``.
    """
    _, size, initial, final, transitions = _canonical_tables(automaton)
    return EpsilonNFA.build(range(size), initial, final, transitions, automaton.alphabet)


def canonical_fingerprint(automaton: EpsilonNFA) -> str:
    """Return a fingerprint identifying the *language* of the automaton.

    Two automata over the same alphabet have equal fingerprints iff they are
    language-equivalent (no hashing caveat in practice: a SHA-256 collision
    would require adversarially constructed inputs).  The fingerprint is stable
    across processes and interpreter versions, so it can key persistent caches.
    It hashes the ``repr`` of the canonical DFA's tables, which builds no
    automaton.
    """
    payload = repr(_canonical_tables(automaton))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
