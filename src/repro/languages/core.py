"""The :class:`Language` façade: the main user-facing representation of a regular language.

A :class:`Language` wraps an epsilon-NFA together with (lazily computed and
cached) derived information: whether the language is finite, its explicit word
set when finite, its infix-free sublanguage, locality, and so on.  All analysis
modules of :mod:`repro.languages` accept :class:`Language` objects.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property

from ..exceptions import NotFiniteError
from . import operations
from .automata import EpsilonNFA
from .regex import regex_to_automaton
from .words import mirror as mirror_word


# repro: allow[ipc-cache-pickle] -- memoized derivations ship with the pickle
# on purpose: workers reuse the expensive infix-free analysis (see serve.py)
class Language:
    """A regular language over single-character letters.

    Instances should be created through :meth:`from_regex`, :meth:`from_words`
    or :meth:`from_automaton`.
    """

    def __init__(self, automaton: EpsilonNFA, name: str | None = None) -> None:
        self._automaton = automaton
        self.name = name
        self._infix_free: "Language | None" = None
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------ constructors

    @classmethod
    def from_regex(cls, expression: str, alphabet: Iterable[str] = ()) -> "Language":
        """Build a language from a regular expression such as ``"ax*b|cd"``."""
        automaton = regex_to_automaton(expression)
        if alphabet:
            automaton = automaton.with_alphabet(alphabet)
        return cls(automaton, name=expression)

    @classmethod
    def from_words(cls, words: Iterable[str], alphabet: Iterable[str] = (), name: str | None = None) -> "Language":
        """Build a finite language from an explicit collection of words."""
        word_list = sorted(set(words))
        automaton = EpsilonNFA.for_finite_language(word_list, alphabet)
        display = name if name is not None else "|".join(word or "ε" for word in word_list)
        return cls(automaton, name=display or "∅")

    @classmethod
    def from_automaton(cls, automaton: EpsilonNFA, name: str | None = None) -> "Language":
        """Wrap an existing automaton."""
        return cls(automaton, name=name)

    # ------------------------------------------------------------------ basics

    @property
    def automaton(self) -> EpsilonNFA:
        """The underlying epsilon-NFA."""
        return self._automaton

    @property
    def alphabet(self) -> frozenset[str]:
        """The alphabet the language is considered to be over."""
        return self._automaton.alphabet

    def contains(self, word: str) -> bool:
        """Return whether ``word`` belongs to the language."""
        return self._automaton.accepts(word)

    def __contains__(self, word: str) -> bool:
        return self.contains(word)

    @cached_property
    def _is_finite(self) -> bool:
        return operations.is_finite(self._automaton)

    def is_finite(self) -> bool:
        """Return whether the language has finitely many words."""
        return self._is_finite

    def is_empty(self) -> bool:
        """Return whether the language has no words at all."""
        return operations.is_empty(self._automaton)

    def contains_epsilon(self) -> bool:
        """Return whether the empty word belongs to the language."""
        return self.contains("")

    @cached_property
    def _words(self) -> frozenset[str]:
        if not self.is_finite():
            raise NotFiniteError(f"language {self} is infinite; use words_up_to_length instead")
        return operations.enumerate_finite_language(self._automaton)

    def words(self) -> frozenset[str]:
        """Return the explicit word set of a finite language.

        Raises:
            NotFiniteError: if the language is infinite.
        """
        return self._words

    def words_up_to_length(self, max_length: int) -> frozenset[str]:
        """Return every word of the language of length at most ``max_length``."""
        return operations.enumerate_words_up_to_length(self._automaton, max_length)

    def max_word_length(self) -> int:
        """Return the length of the longest word (finite languages only)."""
        return max((len(word) for word in self.words()), default=0)

    def shortest_word(self) -> str | None:
        """Return some shortest word of the language, or ``None`` when empty."""
        return operations.shortest_word(self._automaton)

    def fingerprint(self) -> str:
        """Return the canonical-DFA fingerprint identifying this language.

        Two languages over the same alphabet share a fingerprint iff they are
        equivalent (see :func:`~repro.languages.operations.canonical_fingerprint`),
        whatever syntactic form they were built from — ``(ab)*a`` and
        ``a(ba)*`` fingerprint identically.  Memoized on the instance (shared
        by :meth:`relabelled` copies); the first call pays one determinization
        plus minimization.
        """
        if self._fingerprint is None:
            self._fingerprint = operations.canonical_fingerprint(self._automaton)
        return self._fingerprint

    # ------------------------------------------------------------------ comparisons

    def equivalent_to(self, other: "Language") -> bool:
        """Return whether the two languages contain exactly the same words."""
        return operations.equivalent(self._automaton, other._automaton)

    def subset_of(self, other: "Language") -> bool:
        """Return whether every word of this language belongs to ``other``."""
        return operations.contains_language(other._automaton, self._automaton)

    # ------------------------------------------------------------------ transformations

    def mirror(self) -> "Language":
        """Return the mirror language ``L^R`` (Proposition 6.3)."""
        mirrored = Language(self._automaton.reverse().trim(), name=self._mirror_name())
        return mirrored

    def _mirror_name(self) -> str | None:
        if self.name is None:
            return None
        if self.is_finite():
            try:
                return "|".join(sorted(mirror_word(word) or "ε" for word in self.words()))
            except NotFiniteError:  # pragma: no cover - defensive
                return f"mirror({self.name})"
        return f"mirror({self.name})"

    def infix_free(self) -> "Language":
        """Return the infix-free sublanguage ``IF(L)`` (Section 2).

        The result is memoized on the instance: ``IF(L)`` is by far the most
        expensive per-query derivation (it determinizes padded automata for
        infinite languages), and the dispatcher, the classifier and the serving
        layer all need it.  The returned object is shared — callers must not
        mutate it (use :meth:`relabelled` to change its display name).
        """
        if self._infix_free is None:
            from . import infix

            self._infix_free = infix.infix_free_sublanguage(self)
        return self._infix_free

    def relabelled(self, name: str | None) -> "Language":
        """Return a copy of this language under a different display name.

        The copy shares the automaton and every cached analysis (finiteness,
        word set, memoized infix-free sublanguage, ...) with the original; only
        the name differs.  This is the mutation-free replacement for assigning
        ``language.name`` on a shared (e.g. memoized) instance.
        """
        clone = Language(self._automaton)
        clone.__dict__.update(self.__dict__)
        clone.name = name
        return clone

    def is_infix_free(self) -> bool:
        """Return whether the language equals its infix-free sublanguage."""
        from . import infix

        return infix.is_infix_free(self)

    def restrict_to_letters(self, letters: Iterable[str]) -> "Language":
        """Return the sublanguage of words using only the given letters."""
        keep = frozenset(letters)
        if self.is_finite():
            kept = [word for word in self.words() if set(word) <= keep]
            return Language.from_words(kept, alphabet=keep)
        universe = EpsilonNFA.build(["u"], ["u"], ["u"], [("u", letter, "u") for letter in keep], keep)
        return Language(operations.intersection(self._automaton, universe).trim())

    # ------------------------------------------------------------------ paper-specific analyses (lazy delegations)

    def is_local(self) -> bool:
        """Return whether the language is local (Definition 3.1 / Proposition 3.5)."""
        from . import local

        return local.is_local(self)

    def is_letter_cartesian_on_sample(self, max_length: int | None = None) -> bool:
        """Check the letter-Cartesian condition exhaustively on a finite language."""
        from . import local

        return local.is_letter_cartesian_finite(self, max_length=max_length)

    def local_overapproximation(self) -> EpsilonNFA:
        """Return the local overapproximation DFA of the language (Definition 3.8)."""
        from . import local

        return local.local_overapproximation(self)

    def read_once_automaton(self) -> EpsilonNFA:
        """Return an RO-epsilon-NFA for the language, which must be local (Lemma 3.17)."""
        from . import read_once

        return read_once.read_once_automaton(self)

    def is_star_free(self, max_monoid_size: int = 200_000) -> bool:
        """Return whether the language is star-free / aperiodic (Section 5.2)."""
        from . import star_free

        return star_free.is_star_free(self, max_monoid_size=max_monoid_size)

    def is_four_legged(self) -> bool:
        """Return whether the language is four-legged (Definition 5.1)."""
        from . import four_legged

        return four_legged.is_four_legged(self)

    def four_legged_witness(self):
        """Return a four-legged witness (Definition 5.1) or ``None``."""
        from . import four_legged

        return four_legged.find_witness(self)

    def neutral_letters(self) -> frozenset[str]:
        """Return the set of letters that are neutral for the language (Section 5.2)."""
        from . import neutral

        return neutral.neutral_letters(self)

    def is_chain_language(self) -> bool:
        """Return whether the language is a chain language (Definition 7.1)."""
        from . import chain

        return chain.is_chain_language(self)

    def is_bipartite_chain_language(self) -> bool:
        """Return whether the language is a bipartite chain language (Definition 7.2)."""
        from . import chain

        return chain.is_bipartite_chain_language(self)

    def one_dangling_decomposition(self):
        """Return a one-dangling decomposition (Definition 7.8) or ``None``."""
        from . import dangling

        return dangling.one_dangling_decomposition(self)

    def has_repeated_letter_word(self) -> bool:
        """Return whether some word of a finite language has a repeated letter."""
        from .words import has_repeated_letter

        return any(has_repeated_letter(word) for word in self.words())

    # ------------------------------------------------------------------ dunder

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Language):
            return NotImplemented
        return self.equivalent_to(other)

    def __hash__(self) -> int:
        # Languages are mutable only in their caches; hash on the canonical
        # minimal DFA would be expensive, so hash on the alphabet alone and
        # rely on __eq__ for collisions (hash collisions are acceptable).
        return hash((self.alphabet,))

    def __repr__(self) -> str:
        label = self.name if self.name is not None else "<automaton>"
        return f"Language({label!r})"

    def __str__(self) -> str:
        return self.name if self.name is not None else self._automaton.describe()
