"""Differential suite for the array-native flow core.

Pins three claims:

* :func:`~repro.flow.compiled.fast_min_cut` is a drop-in for the reference
  :func:`~repro.flow.mincut.min_cut` — on exact-arithmetic networks (ints and
  dyadic fractions) the whole :class:`~repro.flow.mincut.MinCutResult` is
  equal field for field, and on every network the returned cut is a *verified*
  minimum cut (it disconnects, and its cost certifies minimality against the
  max flow);
* the substrate compilers emit graphs whose solutions match both the retained
  object-network builders and the substituted reference solver, byte for byte
  where it matters (values, cut facts, details);
* substrates are built once per database and shared across queries.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow import (
    INFINITY,
    FlowNetwork,
    bcl_substrate,
    compile_bcl_graph,
    compile_network,
    compile_product_graph,
    fast_min_cut,
    min_cut,
    min_cut_compiled,
    product_substrate,
    reference_min_cut,
    solve_min_cut,
)
from repro.graphdb import GraphDatabase, generators
from repro.languages import Language, chain, read_once
from repro.resilience import (
    resilience,
    resilience_bcl,
    resilience_local,
    resilience_many,
    resilience_one_dangling,
    verify_contingency_set,
)
from repro.resilience.bcl_flow import build_bcl_network
from repro.resilience.local_flow import build_product_network


# Dyadic fractions add and subtract exactly in binary floating point, so the
# fast and reference solvers do identical arithmetic on them — genuinely
# fractional capacities without float-rounding nondeterminism.
_CAPACITIES = st.one_of(
    st.integers(min_value=0, max_value=7),
    st.just(INFINITY),
    st.sampled_from([0.25, 0.5, 0.75, 1.5, 2.25, 3.75]),
)


@st.composite
def networks(draw):
    """Random networks: ∞/zero/fractional capacities, parallel edges, possibly
    disconnected source/target (nodes 0 and 1)."""
    num_nodes = draw(st.integers(min_value=2, max_value=7))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
                _CAPACITIES,
            ),
            max_size=22,
        )
    )
    network = FlowNetwork(source=0, target=1)
    for key, (source, target, capacity) in enumerate(edges):
        network.add_edge(source, target, capacity, key=key)
    return network


class TestFastMinCutDifferential:
    @settings(max_examples=250, deadline=None)
    @given(networks())
    def test_equals_reference_and_cut_is_verified_minimum(self, network):
        reference = min_cut(network)
        fast = fast_min_cut(network)
        assert fast.value == reference.value
        if reference.value == INFINITY:
            assert fast.cut_edges == ()
            return
        # Exact arithmetic → the residual-reachable cut is canonical: the two
        # solvers agree on every field, including cut edge order.
        assert fast == reference
        for result in (fast, reference):
            assert network.is_cut(result.cut_edges)
            # Weak duality: a cut whose cost equals the max flow is minimum.
            assert network.cost(result.cut_edges) == result.max_flow == result.value

    @settings(max_examples=60, deadline=None)
    @given(networks())
    def test_compiled_graph_round_trips_through_to_network(self, network):
        graph, _ = compile_network(network)
        back = graph.to_network()
        assert min_cut(back).value == min_cut(network).value

    def test_source_equals_target(self):
        network = FlowNetwork(source="s", target="s")
        network.add_edge("s", "u", 3)
        assert fast_min_cut(network) == min_cut(network)
        assert fast_min_cut(network).value == math.inf

    def test_disconnected_target(self):
        network = FlowNetwork(source="s", target="t")
        network.add_edge("s", "u", 4)
        assert fast_min_cut(network) == min_cut(network)
        assert fast_min_cut(network).value == 0

    def test_all_infinite_path(self):
        network = FlowNetwork(source="s", target="t")
        network.add_edge("s", "m", INFINITY)
        network.add_edge("m", "t", INFINITY)
        assert fast_min_cut(network).value == math.inf

    def test_zero_capacity_edges_are_ignored(self):
        network = FlowNetwork(source="s", target="t")
        network.add_edge("s", "t", 0, key="dead")
        network.add_edge("s", "t", 2, key="live")
        result = fast_min_cut(network)
        assert result.value == 2
        assert result.cut_keys == ("live",)

    def test_parallel_edges_accumulate(self):
        network = FlowNetwork(source="s", target="t")
        network.add_edge("s", "t", 2, key="first")
        network.add_edge("s", "t", 3, key="second")
        result = fast_min_cut(network)
        assert result.value == 5
        assert set(result.cut_keys) == {"first", "second"}

    def test_integral_value_is_snapped_to_float(self):
        network = FlowNetwork(source="s", target="t")
        network.add_edge("s", "t", 7)
        value = fast_min_cut(network).value
        assert value == 7.0 and isinstance(value, float)

    def test_fractional_value_is_not_snapped(self):
        network = FlowNetwork(source="s", target="t")
        network.add_edge("s", "t", 3 + 1e-10)
        assert fast_min_cut(network).value == 3 + 1e-10


def _random_bag(seed, alphabet="axb"):
    return generators.random_bag_database(5, 12, alphabet, seed=seed, max_multiplicity=4)


class TestCompiledReductionsMatchObjectNetworks:
    """The compiled product graphs solve to the same cuts as the retained
    object-network builders (same networks, two representations)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_local_product(self, seed):
        language = Language.from_regex("ax*b")
        automaton = read_once.read_once_automaton(language)
        bag = generators.layered_flow_database(3, 3, seed=seed)
        graph = compile_product_graph(automaton, bag.index())
        compiled = min_cut_compiled(graph)
        reference = min_cut(build_product_network(automaton, bag))
        assert compiled.value == reference.value
        assert frozenset(compiled.cut_keys) == frozenset(
            edge.key for edge in reference.cut_edges if edge.key is not None
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_bcl_product(self, seed):
        language = Language.from_regex("ab|bc")
        structure = chain.bcl_structure(language)
        bag = _random_bag(seed, alphabet="abc")
        graph = compile_bcl_graph(structure, bag.index())
        compiled = min_cut_compiled(graph)
        reference = min_cut(build_bcl_network(structure, bag))
        assert compiled.value == reference.value
        assert frozenset(compiled.cut_keys) == frozenset(
            edge.key for edge in reference.cut_edges if edge.key is not None
        )

    @pytest.mark.parametrize("expression", ["ax*b", "ab|bc", "abc|be"])
    @pytest.mark.parametrize("seed", range(4))
    def test_fast_and_reference_solver_results_are_identical(
        self, expression, seed, substitute_reference_solver
    ):
        database = generators.random_labelled_graph(5, 12, "abcxe", seed=seed)
        fast = resilience(expression, database)
        substitute_reference_solver()
        reference = resilience(expression, database)
        assert fast == reference

    @pytest.mark.parametrize("solver", ["fast", "reference"])
    @pytest.mark.parametrize("seed", range(4))
    def test_local_solver_modes_agree_with_exact(
        self, solver, seed, substitute_reference_solver
    ):
        language = Language.from_regex("ax*b")
        database = generators.random_labelled_graph(5, 10, "axb", seed=seed)
        fast = resilience_local(language, database)
        if solver == "reference":
            substitute_reference_solver()
        result = resilience_local(language, database)
        assert verify_contingency_set(language, database, result)
        assert result == fast

    @pytest.mark.parametrize("solver", ["fast", "reference"])
    def test_bcl_solver_modes_agree(self, solver, substitute_reference_solver):
        language = Language.from_regex("ab|bc|b")
        bags = [_random_bag(seed, alphabet="abc") for seed in range(4)]
        fast = [resilience_bcl(language, bag) for bag in bags]
        if solver == "reference":
            substitute_reference_solver()
        for bag, expected in zip(bags, fast):
            result = resilience_bcl(language, bag)
            assert result == expected
            assert verify_contingency_set(language, bag, result)

    @pytest.mark.parametrize("solver", ["fast", "reference"])
    def test_one_dangling_solver_modes_agree(self, solver, substitute_reference_solver):
        language = Language.from_regex("abc|be")
        bags = [_random_bag(seed, alphabet="abce") for seed in range(4)]
        fast = [resilience_one_dangling(language, bag) for bag in bags]
        if solver == "reference":
            substitute_reference_solver()
        for bag, expected in zip(bags, fast):
            result = resilience_one_dangling(language, bag)
            assert result == expected
            assert verify_contingency_set(language, bag, result)

    @pytest.mark.parametrize(
        "expression, method",
        [("ax*b", "local-flow"), ("ab|bc", "bcl-flow"), ("abc|be", "one-dangling-flow")],
    )
    def test_production_solves_with_the_array_dinic_only(
        self, expression, method, monkeypatch, substitute_reference_solver
    ):
        """Each reduction solves with the array Dinic whatever the environment
        says; only the substitution fixture routes it to the object oracle."""
        from repro.flow import compiled

        object_min_cut = compiled.min_cut
        oracle_calls = []

        def spy(network):
            oracle_calls.append(network)
            return object_min_cut(network)

        monkeypatch.setattr(compiled, "min_cut", spy)
        monkeypatch.setenv("REPRO_FLOW_SOLVER", "reference")
        database = generators.random_labelled_graph(5, 12, "abcxe", seed=1)
        fast = resilience(expression, database)
        assert fast.method == method
        assert oracle_calls == []
        substitute_reference_solver()
        assert resilience(expression, database) == fast
        assert oracle_calls, "the substituted oracle must reach the reduction"


class TestSubstrateReuse:
    def test_product_substrate_is_cached_on_the_index(self):
        bag = generators.layered_flow_database(3, 3, seed=1)
        index = bag.index()
        assert product_substrate(index) is product_substrate(index)
        assert bag.index() is index  # the substrate lives as long as the index

    def test_bcl_substrate_memoizes_letter_pairs(self):
        bag = _random_bag(0, alphabet="abc")
        substrate = bcl_substrate(bag.index())
        first = substrate.pair_arcs("a", "b")
        assert substrate.pair_arcs("a", "b") is first
        assert substrate.memoized_pairs == 1

    def test_two_queries_share_one_substrate_and_match_uncached_results(self):
        database = generators.random_labelled_graph(5, 12, "axbe", seed=2)
        shared = resilience_many(["ax*b", "ax*b|ax*e", "ax*b"], database)

        index = database.index()
        substrate = product_substrate(index)
        assert len(index.substrates) == 1
        # Three flow queries, two distinct classes: the substrate was built
        # once; the repeat class hit the compiled-graph cache (or, above it,
        # the result cache — either way, no rebuild).
        assert substrate.graphs_compiled >= 1
        assert substrate.graphs_compiled + substrate.graph_hits >= 2

        # Fresh, uncached databases (equal content) give identical outcomes.
        for query, result in zip(["ax*b", "ax*b|ax*e", "ax*b"], shared):
            fresh = generators.random_labelled_graph(5, 12, "axbe", seed=2)
            assert resilience(query, fresh) == result

    def test_repeated_query_class_hits_the_compiled_graph_cache(self):
        bag = generators.layered_flow_database(3, 3, seed=5)
        language = Language.from_regex("ax*b")
        first = resilience_local(language, bag)
        substrate = product_substrate(bag.index())
        compiled_before = substrate.graphs_compiled
        second = resilience_local(language, bag)
        assert second == first
        assert substrate.graphs_compiled == compiled_before
        assert substrate.graph_hits >= 1

    def test_trim_preserves_values_and_cut_facts(self):
        # The compiled graph is trimmed to its useful core; the object network
        # is not.  Values and cut facts must nevertheless coincide.
        language = Language.from_regex("ax*b")
        automaton = read_once.read_once_automaton(language)
        for seed in range(5):
            database = generators.random_labelled_graph(6, 14, "axbz", seed=seed)
            bag = database.to_bag(1)
            graph = compile_product_graph(automaton, bag.index())
            compiled = min_cut_compiled(graph)
            reference = min_cut(build_product_network(automaton, bag))
            assert compiled.value == reference.value, seed
            assert frozenset(compiled.cut_keys) == frozenset(
                edge.key for edge in reference.cut_edges if edge.key is not None
            ), seed

    def test_solver_modes_share_the_compiled_graph(self):
        bag = generators.layered_flow_database(3, 3, seed=7)
        language = Language.from_regex("ax*b")
        automaton = read_once.read_once_automaton(language)
        graph = compile_product_graph(automaton, bag.index())
        fast = solve_min_cut(graph)
        reference = reference_min_cut(graph)
        assert fast.value == reference.value
        assert fast.cut_edges == reference.cut_edges
        assert fast.cut_keys == reference.cut_keys
