"""Read-once epsilon-NFAs (Definition 3.15 and Lemma 3.17 of the paper).

An RO-epsilon-NFA has at most one transition per letter; epsilon transitions are
unrestricted.  RO-epsilon-NFAs recognize exactly the local languages, and they
are the automaton format used by the flow reduction of Theorem 3.13 (because
they give a one-to-one correspondence between database facts and finite-capacity
edges of the flow network).
"""

from __future__ import annotations

from ..exceptions import NotLocalError
from . import local
from .automata import EpsilonNFA, State
from .core import Language


def local_dfa_to_read_once(automaton: EpsilonNFA) -> EpsilonNFA:
    """Convert a local DFA into an equivalent RO-epsilon-NFA (Lemma 3.17, first direction).

    For each letter ``a`` with transitions in the DFA, all ``a``-transitions
    share a target ``s_a``; we create a fresh state ``s'_a``, a single
    ``a``-transition ``s'_a -> s_a``, and epsilon transitions into ``s'_a`` from
    every state that had an outgoing ``a``-transition.
    """
    if not automaton.is_local_dfa():
        raise NotLocalError("expected a local DFA")
    target_of_letter: dict[str, State] = {}
    sources_of_letter: dict[str, set[State]] = {}
    for source, label, target in automaton.letter_transitions:
        assert label is not None
        target_of_letter[label] = target
        sources_of_letter.setdefault(label, set()).add(source)

    states: set[State] = set(automaton.states)
    transitions: set[tuple[State, str | None, State]] = set(automaton.epsilon_transitions)
    for letter, target in target_of_letter.items():
        entry: State = ("enter", letter)
        states.add(entry)
        transitions.add((entry, letter, target))
        for source in sources_of_letter[letter]:
            transitions.add((source, None, entry))
    return EpsilonNFA.build(
        states, automaton.initial, automaton.final, transitions, automaton.alphabet
    )


def read_once_to_local_dfa(automaton: EpsilonNFA) -> EpsilonNFA:
    """Convert an RO-epsilon-NFA into an equivalent local DFA (Lemma 3.17, second direction)."""
    if not automaton.is_read_once():
        raise NotLocalError("expected a read-once epsilon-NFA")
    without_epsilon = automaton.remove_epsilon()
    result = without_epsilon.determinize()
    return result


def read_once_automaton(language: Language) -> EpsilonNFA:
    """Return an RO-epsilon-NFA recognizing the (local) language (Lemma 3.17).

    Raises:
        NotLocalError: if the language is not local.
    """
    if not local.is_local(language):
        raise NotLocalError(f"language {language} is not local")
    return read_once_automaton_unchecked(language)


def read_once_automaton_unchecked(language: Language) -> EpsilonNFA:
    """Return the RO-epsilon-NFA of the local overapproximation without checking locality.

    This follows the combined-complexity statement of Theorem 3.13: the caller
    promises that the language is local; if it is not, the returned automaton
    recognizes the local overapproximation instead.  For a local language
    both variants build the same automaton.
    """
    return local_dfa_to_read_once(local.local_overapproximation(language))
