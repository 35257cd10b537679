"""Query plans: every query-only fact is decided once, at plan time.

* **One decision point** — executing a plan on a database runs none of the
  query analyses; they all ran when the plan was built.
* **Metamorphic relations from the paper** on the nine PTIME Figure 1 queries
  and their mirrors, through :func:`resilience` and through plans read back
  from an :class:`AnalysisStore`: mirroring (Proposition 6.3), scaling every
  multiplicity, the unit bag of a set database, and fact deletion.  The
  mirrored one-dangling languages drive the ``mirrored=True`` branch of
  :func:`plan_one_dangling`, which no Figure 1 query reaches.
* **Disjoint-union oracle** — a walk never leaves its connected component, so
  the flow value on a node-disjoint union equals the sum of the exact-search
  values of its parts.  Served through a store-backed :func:`resilience_many`
  and a two-worker :class:`ResilienceServer`, whose plans cross a pickle.
"""

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphdb import BagGraphDatabase, GraphDatabase, generators
from repro.languages import Language, chain, dangling, local, read_once
from repro.languages.examples import FIGURE_1_LANGUAGES, PTIME
from repro.resilience import (
    AnalysisStore,
    LanguageCache,
    execute,
    plan_query,
    resilience,
    resilience_exact,
    resilience_many,
    verify_contingency_set,
)
from repro.resilience import one_dangling
from repro.service import OK, QuerySpec, ResilienceServer

PTIME_QUERIES = tuple(entry.regex for entry in FIGURE_1_LANGUAGES if entry.complexity == PTIME)
LANGUAGES = {query: Language.from_regex(query) for query in PTIME_QUERIES}
MIRRORS = {query: language.mirror() for query, language in LANGUAGES.items()}

SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def planted_database(language: Language, seed: int, walks: int, pool: int) -> GraphDatabase:
    """A small database of overlapping walks spelling the language's short words."""
    words = sorted(word for word in language.words_up_to_length(4) if word)
    return generators.random_word_database(
        words, walks, pool, seed=seed, alphabet=sorted(language.alphabet)
    )


def bag_of(database: GraphDatabase, seed: int) -> BagGraphDatabase:
    rng = random.Random(seed)
    return BagGraphDatabase({fact: rng.randint(1, 3) for fact in sorted(database.facts, key=repr)})


def test_the_ptime_corpus_covers_every_flow_plan():
    plans = [plan_query(language) for language in (*LANGUAGES.values(), *MIRRORS.values())]
    assert len(PTIME_QUERIES) == 9
    assert {plan.method for plan in plans} == {"local-flow", "bcl-flow", "one-dangling-flow"}
    mirrored = {plan.artefact.mirrored for plan in plans if plan.method == "one-dangling-flow"}
    assert mirrored == {False, True}


# ------------------------------------------------------------ one decision point

#: Every query analysis a plan settles, by the module attribute callers use.
ANALYSES = (
    (dangling, "one_dangling_decomposition"),
    (one_dangling, "one_dangling_decomposition"),
    (chain, "is_bipartite_chain_language"),
    (chain, "bcl_structure"),
    (local, "is_local"),
    (read_once, "read_once_automaton"),
    (read_once, "read_once_automaton_unchecked"),
)


@pytest.mark.parametrize(
    "query, method, mirrored",
    [
        ("ax*b", "local-flow", None),
        ("ab|bc", "bcl-flow", None),
        ("abc|be", "one-dangling-flow", False),
        ("cba|eb", "one-dangling-flow", True),
    ],
)
def test_executing_a_plan_runs_no_query_analysis(monkeypatch, query, method, mirrored):
    language = Language.from_regex(query)
    plan = plan_query(language)
    assert plan.method == method
    if mirrored is not None:
        assert plan.artefact.mirrored is mirrored
    first = planted_database(language, seed=1, walks=6, pool=5)
    second = bag_of(planted_database(language, seed=2, walks=8, pool=6), seed=2)
    execute(plan, first)
    reference = resilience(query, second)

    calls: Counter = Counter()
    for module, name in ANALYSES:
        original = getattr(module, name)

        def counting(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    result = execute(plan, second, name=query)
    assert calls == Counter()
    assert result == reference


# ------------------------------------------------------ metamorphic relations


@pytest.fixture(scope="module")
def stored_plans(tmp_path_factory):
    """Plans of every corpus language, written by one store, read by another."""
    directory = tmp_path_factory.mktemp("plans")
    languages = [*LANGUAGES.values(), *MIRRORS.values()]
    writer = AnalysisStore(directory)
    for language in languages:
        writer.put(language.fingerprint(), plan_query(language))
    reader = AnalysisStore(directory)
    plans = {id(language): reader.get(language.fingerprint()) for language in languages}
    assert reader.stats().hits == len(languages)
    return plans


def instances():
    return st.tuples(
        st.sampled_from(PTIME_QUERIES),
        st.integers(0, 10_000),
        st.integers(2, 8),
        st.integers(3, 6),
        st.booleans(),
    )


def res(language: Language, database, stored_plans) -> float:
    """RES(L, D) through resilience(), checked against the stored plan and
    against its own contingency set."""
    result = resilience(language, database)
    assert verify_contingency_set(language, database, result)
    assert execute(stored_plans[id(language)], database, name=language.name) == result
    return result.value


class TestMetamorphicRelations:
    @SETTINGS
    @given(instances())
    def test_mirroring(self, stored_plans, instance):
        # Proposition 6.3: RES(L, D) = RES(L^R, D^R).
        query, seed, walks, pool, bag = instance
        database = planted_database(LANGUAGES[query], seed, walks, pool)
        if bag:
            database = bag_of(database, seed)
        assert res(LANGUAGES[query], database, stored_plans) == res(
            MIRRORS[query], database.reverse(), stored_plans
        )

    @SETTINGS
    @given(instances(), st.integers(2, 4))
    def test_scaling_multiplicities_scales_resilience(self, stored_plans, instance, k):
        query, seed, walks, pool, _ = instance
        database = planted_database(LANGUAGES[query], seed, walks, pool)
        for language in (LANGUAGES[query], MIRRORS[query]):
            assert res(language, database.to_bag(k), stored_plans) == k * res(
                language, database, stored_plans
            )

    @SETTINGS
    @given(instances())
    def test_a_set_database_and_its_unit_bag_agree(self, stored_plans, instance):
        query, seed, walks, pool, _ = instance
        database = planted_database(LANGUAGES[query], seed, walks, pool)
        for language in (LANGUAGES[query], MIRRORS[query]):
            assert res(language, database, stored_plans) == res(
                language, database.unit_bag(), stored_plans
            )

    @SETTINGS
    @given(instances(), st.integers(0, 100))
    def test_removing_a_fact_never_increases_resilience(self, stored_plans, instance, pick):
        query, seed, walks, pool, bag = instance
        database = planted_database(LANGUAGES[query], seed, walks, pool)
        if bag:
            database = bag_of(database, seed)
        facts = sorted(database.facts, key=repr)
        fact = facts[pick % len(facts)]
        for language in (LANGUAGES[query], MIRRORS[query]):
            assert res(language, database.remove([fact]), stored_plans) <= res(
                language, database, stored_plans
            )


# ------------------------------------------------------ disjoint-union oracle


def disjoint_union(seed: int, parts: int) -> tuple[GraphDatabase, list[GraphDatabase]]:
    """A node-disjoint union of small random parts, and the parts."""
    rng = random.Random(seed)
    words = sorted(
        {word for language in LANGUAGES.values() for word in language.words_up_to_length(4)} - {""}
    )
    pieces = []
    union = GraphDatabase([])
    for part in range(parts):
        walks, pool = rng.randint(3, 6), rng.randint(4, 7)
        piece = generators.random_word_database(
            words, walks, pool, seed=rng.randrange(10**6), alphabet="abcdexy"
        )
        piece = piece.rename_nodes({node: (part, node) for node in piece.nodes})
        pieces.append(piece)
        union = union.union(piece)
    return union, pieces


def exact_sums(pieces: list[GraphDatabase]) -> list[int]:
    """Per PTIME query, the sum of the exact-search values of the parts."""
    return [
        sum(resilience_exact(LANGUAGES[query], piece).value for piece in pieces)
        for query in PTIME_QUERIES
    ]


@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10_000))
def test_disjoint_union_equals_the_sum_of_its_parts(tmp_path_factory, seed):
    union, pieces = disjoint_union(seed, parts=25)
    directory = tmp_path_factory.mktemp("union-plans")
    cold_cache = LanguageCache(store=AnalysisStore(directory))
    cold = resilience_many(PTIME_QUERIES, union, cache=cold_cache)
    # A second session executes the plans the first one stored.
    warm_cache = LanguageCache(store=AnalysisStore(directory))
    warm = resilience_many(PTIME_QUERIES, union, cache=warm_cache)
    assert warm_cache.stats.classifications == 0
    assert warm == cold
    assert [result.value for result in cold] == exact_sums(pieces)


def test_disjoint_union_through_a_two_worker_server():
    union, pieces = disjoint_union(seed=7, parts=40)
    workload = [QuerySpec(query) for query in PTIME_QUERIES] * 2
    with ResilienceServer(union, max_workers=2) as server:
        outcomes = server.serve(workload)
    assert all(outcome.status == OK for outcome in outcomes)
    assert [outcome.result.value for outcome in outcomes] == exact_sums(pieces) * 2
