"""The complexity classifier reproducing Figure 1 of the paper.

Given a regular language ``L``, the classifier applies the paper's results to
the infix-free sublanguage ``IF(L)`` (the query is unchanged) and reports one of
three complexities for the resilience problem:

* ``PTIME`` -- with the witnessing algorithm (Theorem 3.13, Proposition 7.6 or
  Proposition 7.9);
* ``NP-hard`` -- with the witnessing hardness result (Theorem 5.3, Theorem 6.1,
  Lemma 5.6, or one of the explicit gadgets of Propositions 4.1, 4.13, 7.4,
  7.11), optionally with a machine-verified gadget certificate;
* ``unclassified`` -- the language is not covered by the paper's results (the
  remaining open cases of Section 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..exceptions import GadgetError, GadgetNotAvailableError
from ..languages import dangling, four_legged, neutral, star_free
from ..languages.core import Language
from ..languages.examples import NP_HARD, PTIME, UNCLASSIFIED
from ..resilience.engine import choose_method

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..resilience.engine import LanguageCache

#: The dispatcher's polynomial methods, with the reason and Figure 1 region of each.
_TRACTABLE = {
    "trivial-epsilon": ("epsilon is in the language, resilience is trivially infinite", "trivial"),
    "local-flow": ("IF(L) is local (Theorem 3.13)", "local (Thm 3.13)"),
    "bcl-flow": ("IF(L) is a bipartite chain language (Proposition 7.6)", "bipartite chain (Prp 7.6)"),
    "one-dangling-flow": ("IF(L) is a one-dangling language (Proposition 7.9)", "one-dangling (Prp 7.9)"),
}

_EXPLICITLY_HARD = {
    "ab|bc|ca": "Proposition 7.4",
    "abcd|be|ef": "Proposition 7.11",
    "abcd|bef": "Proposition 7.11",
}


@dataclass
class Classification:
    """The outcome of classifying one language.

    Attributes:
        language: the classified language.
        complexity: ``"PTIME"``, ``"NP-hard"`` or ``"unclassified"``.
        reason: the paper result justifying the classification.
        region: the Figure 1 region label.
        algorithm: for PTIME languages, the dispatcher method that solves resilience.
        evidence: free-form supporting data (witnesses, decompositions, ...).
        certificate: optional machine-verified hardness certificate.
    """

    language: Language
    complexity: str
    reason: str
    region: str
    algorithm: str | None = None
    evidence: dict = field(default_factory=dict)
    certificate: object | None = None

    def __repr__(self) -> str:
        return f"Classification({self.language!s} -> {self.complexity}: {self.reason})"


def classify(
    language: Language,
    *,
    build_certificate: bool = False,
    cache: "LanguageCache | None" = None,
) -> Classification:
    """Classify the resilience complexity of a language according to the paper.

    Args:
        language: the language to classify.
        build_certificate: when True and the language is NP-hard, also build and
            machine-verify a hardness gadget (slower; used by the benchmarks).
        cache: optional shared :class:`~repro.resilience.engine.LanguageCache`
            — the language resolves through its canonical layer first, so
            equivalent languages (across calls, and across processes with a
            store-backed cache) share one memoized infix-free sublanguage
            instead of re-deriving it per classification.
    """
    if cache is not None:
        language = cache.language(language)
    # A trivial language must not pay for the (expensive) infix-free
    # computation.  ``infix_free()`` is memoized on the language instance and
    # shared with the dispatcher, so re-label through a copy — the seed
    # assigned ``infix_free.name`` in place, which would corrupt the shared
    # cache.
    infix_free = (
        None if language.contains("") else language.infix_free().relabelled(language.name)
    )

    # ---------------- tractable classes: the dispatcher's decision ----------------
    method = choose_method(language, infix_free=infix_free)
    if method in _TRACTABLE:
        evidence = {}
        if method == "one-dangling-flow":
            decomposition = dangling.one_dangling_decomposition(infix_free)
            evidence["dangling_word"] = decomposition.dangling_word
        reason, region = _TRACTABLE[method]
        return Classification(language, PTIME, reason, region, algorithm=method, evidence=evidence)

    # ---------------- hardness classes ----------------
    def with_certificate(result: Classification) -> Classification:
        if build_certificate:
            from ..hardness import construct

            try:
                result.certificate = construct.hardness_gadget(language, cache=cache)
            except (GadgetError, GadgetNotAvailableError) as error:
                result.evidence["certificate_error"] = str(error)
        return result

    if infix_free.is_finite():
        words = "|".join(sorted(infix_free.words()))
        if words in _EXPLICITLY_HARD:
            return with_certificate(
                Classification(
                    language, NP_HARD, f"explicit gadget ({_EXPLICITLY_HARD[words]})",
                    "explicit gadget (Prp 7.4 / Prp 7.11)",
                )
            )

    witness = four_legged.find_witness(infix_free)
    if witness is not None and infix_free.is_infix_free():
        evidence = {"four_legged_witness": witness}
        if not star_free.is_star_free(infix_free):
            return with_certificate(
                Classification(
                    language, NP_HARD,
                    "IF(L) is not star-free, hence four-legged (Lemma 5.6, Theorem 5.3)",
                    "non-star-free (Lem 5.6)", evidence=evidence,
                )
            )
        return with_certificate(
            Classification(
                language, NP_HARD, "IF(L) is four-legged (Theorem 5.3)",
                "four-legged (Thm 5.3)", evidence=evidence,
            )
        )

    square_letters = sorted(
        letter for letter in infix_free.alphabet if infix_free.contains(letter + letter)
    )
    if square_letters and not infix_free.is_finite():
        # IF(L) contains a word xx: the Proposition 4.1 reduction applies using
        # only the letter x (this is the second case of the Proposition 5.7
        # dichotomy, and it holds regardless of neutral letters).
        return with_certificate(
            Classification(
                language, NP_HARD,
                "IF(L) contains a square word xx (Proposition 4.1 reduction, cf. Proposition 5.7)",
                "finite, repeated letter (Thm 6.1)",
                evidence={"square_letters": square_letters},
            )
        )

    if infix_free.is_finite() and infix_free.has_repeated_letter_word():
        repeated = sorted(
            word for word in infix_free.words() if len(set(word)) < len(word)
        )
        return with_certificate(
            Classification(
                language, NP_HARD,
                "IF(L) is finite and has a word with a repeated letter (Theorem 6.1)",
                "finite, repeated letter (Thm 6.1)",
                evidence={"repeated_letter_words": repeated},
            )
        )

    # ---------------- neutral-letter dichotomy (Proposition 5.7) ----------------
    neutrals = neutral.neutral_letters(language)
    if neutrals:
        # IF(L) is not local (handled above), so by Lemma 5.8 it is four-legged
        # or contains xx -- both cases are hard and were caught above; reaching
        # this point would contradict Lemma 5.8, so flag it loudly.
        return Classification(
            language, UNCLASSIFIED,
            "language has a neutral letter but escaped the Lemma 5.8 case analysis "
            "(this should not happen)",
            "unclassified", evidence={"neutral_letters": sorted(neutrals)},
        )

    return Classification(
        language, UNCLASSIFIED, "not covered by the paper's results (open case)", "unclassified"
    )


def classify_regex(
    expression: str, *, cache: "LanguageCache | None" = None, **kwargs
) -> Classification:
    """Classify a language given as a regular expression.

    With a ``cache``, the expression resolves through the session's
    string-expression layer, so repeated classifications of one expression
    parse it once and share every memoized analysis.
    """
    if cache is not None:
        return classify(cache.language(expression), cache=cache, **kwargs)
    return classify(Language.from_regex(expression), **kwargs)


def figure_1_table(
    *, build_certificates: bool = False, cache: "LanguageCache | None" = None
) -> list[dict]:
    """Regenerate the Figure 1 classification for the paper's example languages.

    Returns one row per example language with the paper's classification and the
    classifier's output, for the Figure 1 benchmark and the classification example.
    A shared ``cache`` carries analyses across rows (and, store-backed, across
    regeneration runs).
    """
    from ..languages.examples import FIGURE_1_LANGUAGES

    rows: list[dict] = []
    for example in FIGURE_1_LANGUAGES:
        result = classify(example.language(), build_certificate=build_certificates, cache=cache)
        rows.append(
            {
                "language": example.regex,
                "paper_region": example.region,
                "paper_complexity": example.complexity,
                "computed_complexity": result.complexity,
                "computed_region": result.region,
                "reason": result.reason,
                "agrees": result.complexity == example.complexity,
            }
        )
    return rows
