"""Finite automata: epsilon-NFAs, NFAs and DFAs (Section 2 of the paper).

The single class :class:`EpsilonNFA` represents all three formalisms.  An NFA is
an epsilon-NFA without epsilon transitions; a DFA is an NFA with exactly one
initial state and at most one outgoing transition per state and letter.  The
epsilon label is represented by ``None``.

States can be arbitrary hashable objects; :meth:`EpsilonNFA.relabel` renames
them to consecutive integers when canonical names are convenient.

Each automaton derives three indexes once, on first use: its epsilon-successor
map, its ``(state, letter) -> targets`` step map and its trimmed form.  They are
stored in the instance ``__dict__`` next to the five fields but take no part in
equality, hashing or pickling (``__getstate__`` returns the fields only), so an
automaton shipped to a worker or written to a store is the same bytes whether
or not it was ever queried.  Filling an index is idempotent: two threads racing
on one automaton at worst derive it twice.

Evaluation-heavy callers (the product-construction RPQ evaluator and the exact
resilience search) should not work on a raw :class:`EpsilonNFA`: every step
would re-derive epsilon closures, and frozenset iteration order is only
reproducible within one process.  :class:`CompiledAutomaton` builds on the
automaton's indexes once — the trimmed form, the memoized epsilon closure of
every state, epsilon-closed letter steps indexed by ``(state, label)`` — and
:func:`compile_automaton` caches compiled plans so equal automata share one
plan.  All compiled indexes use a deterministic sorted order, making plan-based
evaluation reproducible across processes.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Hashable

from ..exceptions import LanguageError

State = Hashable
Label = str | None
Transition = tuple[State, Label, State]

EPSILON_LABEL: Label = None

_FIELDS = ("states", "initial", "final", "transitions", "alphabet")
_TRIMMED = object()  # the ``_trimmed`` index of an automaton whose states are all useful


@dataclass(frozen=True)
class EpsilonNFA:
    """An epsilon-NFA ``A = (S, I, F, Delta)``.

    Attributes:
        states: the finite set of states ``S``.
        initial: the set of initial states ``I``.
        final: the set of final states ``F``.
        transitions: the transition relation ``Delta`` as triples
            ``(source, label, target)`` where ``label`` is a letter or ``None``
            for an epsilon transition.
        alphabet: the alphabet the automaton is considered to be over.  It always
            contains every letter used by a transition but may be larger (this
            matters for complementation and for the local-language machinery).
    """

    states: frozenset[State]
    initial: frozenset[State]
    final: frozenset[State]
    transitions: frozenset[Transition]
    alphabet: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        used_letters = {label for _, label, _ in self.transitions if label is not None}
        object.__setattr__(self, "alphabet", frozenset(self.alphabet) | frozenset(used_letters))
        for source, _, target in self.transitions:
            if source not in self.states or target not in self.states:
                raise LanguageError(f"transition uses unknown state: {(source, target)}")
        if not self.initial <= self.states or not self.final <= self.states:
            raise LanguageError("initial/final states must be a subset of the states")

    def __getstate__(self) -> dict[str, Any]:
        # The five fields only: the derived indexes never travel in a pickle.
        return {name: self.__dict__[name] for name in _FIELDS}

    # ------------------------------------------------------------------ factory

    @classmethod
    def build(
        cls,
        states: Iterable[State],
        initial: Iterable[State],
        final: Iterable[State],
        transitions: Iterable[tuple[State, Label, State]],
        alphabet: Iterable[str] = (),
    ) -> "EpsilonNFA":
        """Build an automaton from plain iterables."""
        return cls(
            states=frozenset(states),
            initial=frozenset(initial),
            final=frozenset(final),
            transitions=frozenset(tuple(t) for t in transitions),
            alphabet=frozenset(alphabet),
        )

    @classmethod
    def for_word(cls, word: str, alphabet: Iterable[str] = ()) -> "EpsilonNFA":
        """Return an automaton recognizing the single word ``word``."""
        states = list(range(len(word) + 1))
        transitions = [(index, letter, index + 1) for index, letter in enumerate(word)]
        return cls.build(states, [0], [len(word)], transitions, alphabet)

    @classmethod
    def for_finite_language(cls, words: Iterable[str], alphabet: Iterable[str] = ()) -> "EpsilonNFA":
        """Return an automaton recognizing exactly the given finite set of words."""
        word_list = sorted(set(words))
        states: list[State] = ["init"]
        initial = ["init"]
        final: list[State] = []
        transitions: list[Transition] = []
        for word_index, word in enumerate(word_list):
            previous: State = "init"
            if not word:
                final.append("init")
                continue
            for position, letter in enumerate(word):
                current: State = (word_index, position + 1)
                states.append(current)
                transitions.append((previous, letter, current))
                previous = current
            final.append(previous)
        return cls.build(states, initial, final, transitions, alphabet)

    @classmethod
    def empty_language(cls, alphabet: Iterable[str] = ()) -> "EpsilonNFA":
        """Return an automaton recognizing the empty language."""
        return cls.build(["q"], ["q"], [], [], alphabet)

    # ------------------------------------------------------------------ basic facts

    @property
    def size(self) -> int:
        """Return ``|A| = |S| + |Delta|`` as defined in the paper."""
        return len(self.states) + len(self.transitions)

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def epsilon_transitions(self) -> frozenset[Transition]:
        return frozenset(t for t in self.transitions if t[1] is None)

    @property
    def letter_transitions(self) -> frozenset[Transition]:
        return frozenset(t for t in self.transitions if t[1] is not None)

    def is_nfa(self) -> bool:
        """Return whether the automaton has no epsilon transitions."""
        return not self.epsilon_transitions

    def is_dfa(self) -> bool:
        """Return whether the automaton is deterministic.

        A DFA has no epsilon transitions, exactly one initial state, and at most
        one transition per state and letter.
        """
        if self.epsilon_transitions or len(self.initial) != 1:
            return False
        seen: set[tuple[State, str]] = set()
        for source, label, _ in self.letter_transitions:
            key = (source, label)
            if key in seen:
                return False
            seen.add(key)
        return True

    def is_complete_dfa(self) -> bool:
        """Return whether the automaton is a DFA with a transition for every letter."""
        if not self.is_dfa():
            return False
        outgoing = {(source, label) for source, label, _ in self.letter_transitions}
        return all((state, letter) in outgoing for state in self.states for letter in self.alphabet)

    def is_local_dfa(self) -> bool:
        """Return whether the automaton is a *local DFA* (Definition 3.1).

        A DFA is local when, for every letter ``a``, all ``a``-transitions share
        the same target state.
        """
        if not self.is_dfa():
            return False
        target_by_letter: dict[str, State] = {}
        for _, label, target in self.letter_transitions:
            assert label is not None
            if label in target_by_letter and target_by_letter[label] != target:
                return False
            target_by_letter[label] = target
        return True

    def is_read_once(self) -> bool:
        """Return whether the automaton is an RO-epsilon-NFA (Definition 3.15).

        Read-once automata have at most one transition per letter (epsilon
        transitions are unrestricted).
        """
        seen: set[str] = set()
        for _, label, _ in self.letter_transitions:
            assert label is not None
            if label in seen:
                return False
            seen.add(label)
        return True

    # ------------------------------------------------------------------ adjacency helpers

    def transitions_by_source(self) -> dict[State, list[Transition]]:
        result: dict[State, list[Transition]] = defaultdict(list)
        for transition in self.transitions:
            result[transition[0]].append(transition)
        return dict(result)

    # ------------------------------------------------------------------ derived indexes

    def epsilon_successors(self) -> dict[State, list[State]]:
        """Return ``state -> targets of its epsilon transitions`` (derived once).

        States without an outgoing epsilon transition are absent, so the map is
        empty exactly when the automaton is an NFA.  Callers must not mutate it.
        """
        index = self.__dict__.get("_epsilon_successors")
        if index is None:
            index = {}
            for source, label, target in self.transitions:
                if label is None:
                    index.setdefault(source, []).append(target)
            self.__dict__["_epsilon_successors"] = index
        return index

    def step_map(self) -> dict[tuple[State, str], list[State]]:
        """Return ``(state, letter) -> targets of its letter transitions`` (derived once).

        Pairs without a transition are absent.  Callers must not mutate it.
        """
        index = self.__dict__.get("_step_map")
        if index is None:
            index = {}
            for source, label, target in self.transitions:
                if label is not None:
                    index.setdefault((source, label), []).append(target)
            self.__dict__["_step_map"] = index
        return index

    def epsilon_closure(self, states: Iterable[State]) -> frozenset[State]:
        """Return the set of states reachable from ``states`` via epsilon transitions."""
        successors = self.epsilon_successors()
        closure = set(states)
        if successors:
            pending = list(closure)
            while pending:
                for target in successors.get(pending.pop(), ()):
                    if target not in closure:
                        closure.add(target)
                        pending.append(target)
        return frozenset(closure)

    # ------------------------------------------------------------------ membership

    def accepts(self, word: str) -> bool:
        """Return whether ``word`` is in the language of the automaton."""
        step = self.step_map()
        current = self.epsilon_closure(self.initial)
        for letter in word:
            successors: set[State] = set()
            for state in current:
                successors.update(step.get((state, letter), ()))
            if not successors:
                return False
            current = self.epsilon_closure(successors)
        return bool(current & self.final)

    def __contains__(self, word: str) -> bool:
        return self.accepts(word)

    # ------------------------------------------------------------------ structural transformations

    def trim(self) -> "EpsilonNFA":
        """Return the trimmed automaton keeping only useful states (Definition C.3).

        Derived once per automaton; ``self`` when every state is useful.
        """
        trimmed = self.__dict__.get("_trimmed")
        if trimmed is None:
            trimmed = self._trim()
            # A trimmed automaton is its own trimmed form.  A marker records
            # that instead of a reference to itself, so dropped automata are
            # freed at once rather than by the cycle collector.
            if trimmed is not self:
                trimmed.__dict__["_trimmed"] = _TRIMMED
            self.__dict__["_trimmed"] = _TRIMMED if trimmed is self else trimmed
        return self if trimmed is _TRIMMED else trimmed

    def _trim(self) -> "EpsilonNFA":
        forward: dict[State, list[State]] = defaultdict(list)
        backward: dict[State, list[State]] = defaultdict(list)
        for source, _, target in self.transitions:
            forward[source].append(target)
            backward[target].append(source)

        def reach(seeds: Iterable[State], adjacency: Mapping[State, list[State]]) -> set[State]:
            seen = set(seeds)
            queue = deque(seen)
            while queue:
                state = queue.popleft()
                for nxt in adjacency.get(state, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            return seen

        accessible = reach(self.initial, forward)
        co_accessible = reach(self.final, backward)
        useful = accessible & co_accessible
        if not useful:
            return EpsilonNFA.empty_language(self.alphabet)
        if len(useful) == len(self.states):
            return self
        transitions = [t for t in self.transitions if t[0] in useful and t[2] in useful]
        return EpsilonNFA.build(
            useful, self.initial & useful, self.final & useful, transitions, self.alphabet
        )

    def remove_epsilon(self) -> "EpsilonNFA":
        """Return an equivalent NFA without epsilon transitions (``self`` if it has none)."""
        if not self.epsilon_successors():
            return self
        closures = {state: self.epsilon_closure([state]) for state in self.states}
        new_final = {
            state for state in self.states if closures[state] & self.final
        }
        step: dict[State, list[tuple[str, State]]] = defaultdict(list)
        for source, label, target in self.transitions:
            if label is not None:
                step[source].append((label, target))
        new_transitions: set[Transition] = set()
        for state in self.states:
            for intermediate in closures[state]:
                for label, target in step.get(intermediate, ()):
                    new_transitions.add((state, label, target))
        return EpsilonNFA.build(self.states, self.initial, new_final, new_transitions, self.alphabet)

    def reverse(self) -> "EpsilonNFA":
        """Return the automaton of the mirror language ``L(A)^R`` (Proposition 6.3)."""
        transitions = [(target, label, source) for source, label, target in self.transitions]
        return EpsilonNFA.build(self.states, self.final, self.initial, transitions, self.alphabet)

    def with_alphabet(self, alphabet: Iterable[str]) -> "EpsilonNFA":
        """Return the same automaton considered over a (larger) alphabet."""
        return EpsilonNFA.build(
            self.states, self.initial, self.final, self.transitions, frozenset(alphabet) | self.alphabet
        )

    def relabel(self) -> "EpsilonNFA":
        """Return an isomorphic automaton whose states are ``0..n-1``.

        The renaming is deterministic (BFS order from the initial states, then
        any remaining states in sorted-by-repr order) so that relabelling is
        reproducible across runs.
        """
        order: list[State] = []
        seen: set[State] = set()
        queue = deque(sorted(self.initial, key=repr))
        forward = self.transitions_by_source()
        while queue:
            state = queue.popleft()
            if state in seen:
                continue
            seen.add(state)
            order.append(state)
            for _, _, target in sorted(forward.get(state, ()), key=repr):
                if target not in seen:
                    queue.append(target)
        for state in sorted(self.states - seen, key=repr):
            order.append(state)
        mapping = {state: index for index, state in enumerate(order)}
        return EpsilonNFA.build(
            mapping.values(),
            (mapping[s] for s in self.initial),
            (mapping[s] for s in self.final),
            ((mapping[s], label, mapping[t]) for s, label, t in self.transitions),
            self.alphabet,
        )

    # ------------------------------------------------------------------ convenience delegations

    def determinize(self) -> "EpsilonNFA":
        from . import operations

        return operations.determinize(self)

    def minimize(self) -> "EpsilonNFA":
        from . import operations

        return operations.minimize(self)

    def complement(self, alphabet: Iterable[str] | None = None) -> "EpsilonNFA":
        from . import operations

        return operations.complement(self, alphabet)

    def is_empty(self) -> bool:
        from . import operations

        return operations.is_empty(self)

    def is_finite(self) -> bool:
        from . import operations

        return operations.is_finite(self)

    def words(self, limit: int | None = None) -> frozenset[str]:
        from . import operations

        return operations.enumerate_finite_language(self, limit=limit)

    def equivalent_to(self, other: "EpsilonNFA") -> bool:
        from . import operations

        return operations.equivalent(self, other)

    # ------------------------------------------------------------------ misc

    def describe(self) -> str:
        """Return a short human-readable description of the automaton."""
        kind = "DFA" if self.is_dfa() else ("NFA" if self.is_nfa() else "eps-NFA")
        extras = []
        if self.is_read_once():
            extras.append("read-once")
        if self.is_local_dfa():
            extras.append("local")
        suffix = f" ({', '.join(extras)})" if extras else ""
        return (
            f"{kind}{suffix}: {len(self.states)} states, {len(self.transitions)} transitions, "
            f"alphabet {{{', '.join(sorted(self.alphabet))}}}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EpsilonNFA<{self.describe()}>"


def dfa_transition_map(automaton: EpsilonNFA) -> dict[tuple[State, str], State]:
    """Return the transition function of a DFA as a dictionary.

    Raises:
        LanguageError: if the automaton is not deterministic.
    """
    if not automaton.is_dfa():
        raise LanguageError("expected a DFA")
    return {
        (source, label): target
        for source, label, target in automaton.letter_transitions
        if label is not None
    }


def dfa_run(automaton: EpsilonNFA, word: str) -> list[State] | None:
    """Return the run of a DFA on ``word`` as a list of states, or ``None`` if it gets stuck."""
    table = dfa_transition_map(automaton)
    (state,) = automaton.initial
    run = [state]
    for letter in word:
        nxt = table.get((state, letter))
        if nxt is None:
            return None
        state = nxt
        run.append(state)
    return run


class CompiledAutomaton:
    """A query plan compiled once from an :class:`EpsilonNFA`.

    The plan contains everything the product-construction evaluator needs, in
    deterministic (sorted-by-repr) order:

    * ``trimmed``: the trimmed automaton (useful states only, Definition C.3);
    * ``closures``: the epsilon closure of every trimmed state, memoized;
    * ``steps``: for every ``(state, label)`` pair, the tuple of epsilon-closed
      target states reachable by reading ``label`` in ``state`` (deduplicated,
      first occurrence wins);
    * ``transitions_by_label``: the letter transitions of the *original*
      automaton grouped by label (used by the flow-network constructions, which
      must see transitions that trimming would discard).

    Instances are immutable after construction; obtain them through
    :func:`compile_automaton` so that equal automata share one plan.
    """

    __slots__ = (
        "automaton",
        "trimmed",
        "closures",
        "initial_closure",
        "final",
        "steps",
        "transitions_by_label",
        "is_empty",
        "accepts_empty",
    )

    def __init__(self, automaton: EpsilonNFA) -> None:
        self.automaton = automaton
        trimmed = automaton.trim()
        self.trimmed = trimmed
        self.closures: dict[State, tuple[State, ...]] = {
            state: tuple(sorted(trimmed.epsilon_closure([state]), key=repr))
            for state in trimmed.states
        }
        self.initial_closure: tuple[State, ...] = tuple(
            sorted(trimmed.epsilon_closure(trimmed.initial), key=repr)
        )
        self.final: frozenset[State] = trimmed.final
        self.is_empty = not trimmed.final
        self.accepts_empty = bool(set(self.initial_closure) & trimmed.final)

        # (state, label) -> epsilon-closed successor states, deduplicated.
        steps: dict[tuple[State, str], list[State]] = {}
        for source, label, target in sorted(trimmed.letter_transitions, key=repr):
            assert label is not None
            bucket = steps.setdefault((source, label), [])
            for closed in self.closures[target]:
                if closed not in bucket:
                    bucket.append(closed)
        self.steps: dict[tuple[State, str], tuple[State, ...]] = {
            key: tuple(targets) for key, targets in steps.items()
        }

        by_label: dict[str, list[tuple[State, State]]] = {}
        for source, label, target in sorted(automaton.letter_transitions, key=repr):
            assert label is not None
            by_label.setdefault(label, []).append((source, target))
        self.transitions_by_label: dict[str, tuple[tuple[State, State], ...]] = {
            label: tuple(pairs) for label, pairs in by_label.items()
        }

    def closure(self, state: State) -> tuple[State, ...]:
        """Return the memoized epsilon closure of a trimmed state."""
        return self.closures[state]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledAutomaton<{self.trimmed.describe()}>"


@lru_cache(maxsize=512)
def compile_automaton(automaton: EpsilonNFA) -> CompiledAutomaton:
    """Return the (cached) compiled plan of an automaton.

    Automata are frozen dataclasses, so equal automata — for example the ones
    produced by compiling the same regular expression twice — hash equal and
    share a single compiled plan.
    """
    return CompiledAutomaton(automaton)
