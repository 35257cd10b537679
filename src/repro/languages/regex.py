"""A small regular-expression parser producing epsilon-NFAs.

The syntax matches the paper's notation:

* a letter is any single character except the reserved ones ``| * ( )`` and whitespace,
* juxtaposition denotes concatenation (``ab`` is "a then b"),
* ``|`` denotes union,
* ``*`` is the postfix Kleene star,
* parentheses group subexpressions,
* the empty word can be written ``ε`` or ``_``.

Examples from the paper: ``ax*b``, ``ab|ad|cd``, ``abc|bef``, ``b(aa)*d``.

:func:`regex_to_automaton` compiles an AST in one top-down pass into a single
Thompson epsilon-NFA with integer states.  The result is exactly the
automaton the :mod:`~repro.languages.operations` combinators (``concatenation``,
``union``, ``kleene_star``) build for the same AST followed by
``trim().relabel()``, field for field, without the intermediate automata: the
pass numbers states in the order ``relabel()`` would (see :func:`_compile`).
The numbering matters downstream: IF(L) of an infinite language inherits it
through ``difference``, and the exact search's order, ``nodes_explored`` and
contingency sets follow from it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..exceptions import RegexSyntaxError
from .automata import EpsilonNFA, Label

RESERVED = set("|*()")
EPSILON_TOKENS = {"ε", "_"}


# --------------------------------------------------------------------------- AST


@dataclass(frozen=True)
class RegexNode:
    """Base class of regular-expression AST nodes."""


@dataclass(frozen=True)
class Epsilon(RegexNode):
    pass


@dataclass(frozen=True)
class Letter(RegexNode):
    letter: str


@dataclass(frozen=True)
class Concat(RegexNode):
    left: RegexNode
    right: RegexNode


@dataclass(frozen=True)
class Union(RegexNode):
    left: RegexNode
    right: RegexNode


@dataclass(frozen=True)
class Star(RegexNode):
    inner: RegexNode


# --------------------------------------------------------------------------- parser


class _Parser:
    """Recursive-descent parser for the regular-expression grammar.

    Grammar (lowest to highest precedence)::

        union   := concat ('|' concat)*
        concat  := starred starred*
        starred := atom '*'*
        atom    := letter | 'ε' | '_' | '(' union ')'
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.position = 0

    def parse(self) -> RegexNode:
        node = self._union()
        if self.position != len(self.text):
            raise RegexSyntaxError(
                f"unexpected character {self.text[self.position]!r} at position {self.position}"
            )
        return node

    # -- helpers

    def _peek(self) -> str | None:
        if self.position < len(self.text):
            return self.text[self.position]
        return None

    def _advance(self) -> str:
        character = self.text[self.position]
        self.position += 1
        return character

    # -- grammar rules

    def _union(self) -> RegexNode:
        node = self._concat()
        while self._peek() == "|":
            self._advance()
            node = Union(node, self._concat())
        return node

    def _concat(self) -> RegexNode:
        parts: list[RegexNode] = []
        while True:
            character = self._peek()
            if character is None or character in "|)":
                break
            parts.append(self._starred())
        if not parts:
            return Epsilon()
        node = parts[0]
        for part in parts[1:]:
            node = Concat(node, part)
        return node

    def _starred(self) -> RegexNode:
        node = self._atom()
        while self._peek() == "*":
            self._advance()
            node = Star(node)
        return node

    def _atom(self) -> RegexNode:
        character = self._peek()
        if character is None:
            raise RegexSyntaxError("unexpected end of expression")
        if character == "(":
            self._advance()
            node = self._union()
            if self._peek() != ")":
                raise RegexSyntaxError(f"missing closing parenthesis at position {self.position}")
            self._advance()
            return node
        if character == "*":
            raise RegexSyntaxError(f"misplaced '*' at position {self.position}")
        if character in RESERVED:
            raise RegexSyntaxError(f"unexpected {character!r} at position {self.position}")
        self._advance()
        if character in EPSILON_TOKENS:
            return Epsilon()
        if character.isspace():
            raise RegexSyntaxError("whitespace is not allowed in regular expressions")
        return Letter(character)


def parse_regex(text: str) -> RegexNode:
    """Parse ``text`` into a regular-expression AST."""
    return _Parser(text).parse()


# --------------------------------------------------------------------------- compilation


def _compile(node: RegexNode) -> EpsilonNFA:
    """Compile ``node`` into its relabelled Thompson automaton in one pass.

    States are integers in creation order, each with its out-transitions in
    creation order.  Numbering them breadth-first over that order gives the
    numbering ``relabel()`` derives from the combinators' nested-tuple state
    names (``0``/``1`` for a letter, ``'q'`` for the empty word and
    ``'__star_init__'`` for a star's fresh state, wrapped in ``('L', ...)`` or
    ``('R', ...)`` by concatenation and union and in ``('S', ...)`` by star).
    ``relabel()`` visits the initial states, and each state's transitions, in
    ``repr`` order, and creation order is that order wherever it decides a
    number:

    * an initial list is one state, or a union's left initials followed by
      its right ones, and ``('L', ...)`` sorts before ``('R', ...)``;
    * a letter state has one transition, and any other state gains at most
      one batch of transitions while it is final: a concatenation's moves to
      its right part's initials (a list in that order) or a star's move back
      to its fresh state, after which it is no longer final;
    * a star's fresh state first moves to its inner initials.  Moves it gains
      later lead into a concatenation's right part, which sorts after the left
      part holding the star, or back to an enclosing star's fresh state, which
      is numbered already: a star's inner part is entered only through its
      fresh state.
    """
    edges: list[list[tuple[Label, int]]] = []
    letters: set[str] = set()

    def new_state() -> int:
        edges.append([])
        return len(edges) - 1

    def build(node: RegexNode) -> tuple[list[int], list[int]]:
        if isinstance(node, Epsilon):
            only = new_state()
            return [only], [only]
        if isinstance(node, Letter):
            source, target = new_state(), new_state()
            edges[source].append((node.letter, target))
            letters.add(node.letter)
            return [source], [target]
        if isinstance(node, (Concat, Union)):
            left_initial, left_final = build(node.left)
            right_initial, right_final = build(node.right)
            if isinstance(node, Union):
                return left_initial + right_initial, left_final + right_final
            for source in left_final:
                edges[source].extend((None, target) for target in right_initial)
            return left_initial, right_final
        if isinstance(node, Star):
            fresh = new_state()
            inner_initial, inner_final = build(node.inner)
            edges[fresh].extend((None, target) for target in inner_initial)
            for source in inner_final:
                edges[source].append((None, fresh))
            return [fresh], [fresh]
        raise RegexSyntaxError(f"unknown AST node: {node!r}")  # pragma: no cover

    initial, final = build(node)
    number = [-1] * len(edges)
    count = 0
    queue = deque(initial)
    while queue:
        current = queue.popleft()
        if number[current] < 0:
            number[current] = count
            count += 1
            queue.extend(target for _, target in edges[current] if number[target] < 0)
    # Every Thompson state is useful, so trim() kept them all, and every
    # state is reachable, so the search numbers them all.
    assert count == len(edges), "a Thompson state is unreachable"
    return EpsilonNFA.build(
        range(count),
        (number[state] for state in initial),
        (number[state] for state in final),
        (
            (number[source], label, number[target])
            for source, out in enumerate(edges)
            for label, target in out
        ),
        letters,
    )


def regex_to_automaton(text: str) -> EpsilonNFA:
    """Compile a regular expression into an epsilon-NFA recognizing its language."""
    return _compile(parse_regex(text))


def node_to_string(node: RegexNode) -> str:
    """Render an AST back into a regular-expression string (for debugging and reports)."""
    if isinstance(node, Epsilon):
        return "ε"
    if isinstance(node, Letter):
        return node.letter
    if isinstance(node, Star):
        inner = node_to_string(node.inner)
        if isinstance(node.inner, (Letter, Epsilon)):
            return f"{inner}*"
        return f"({inner})*"
    if isinstance(node, Concat):
        parts = []
        for child in (node.left, node.right):
            rendered = node_to_string(child)
            if isinstance(child, Union):
                rendered = f"({rendered})"
            parts.append(rendered)
        return "".join(parts)
    if isinstance(node, Union):
        return f"{node_to_string(node.left)}|{node_to_string(node.right)}"
    raise RegexSyntaxError(f"unknown AST node: {node!r}")  # pragma: no cover
