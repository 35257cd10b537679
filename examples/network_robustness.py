"""Network robustness: the MinCut connection of the paper's introduction.

The resilience of the RPQ ``a x* b`` in bag semantics on a database encoding a
flow network equals the minimum cut of that network: ``a``-facts are sources,
``b``-facts are sinks, ``x``-facts are network edges, and multiplicities are
capacities.  This example builds a layered "data-centre" network, computes its
resilience, and cross-checks it against a direct MinCut computation.

Run with::

    python examples/network_robustness.py
"""

from repro import Language, resilience
from repro.flow import FlowNetwork, min_cut
from repro.graphdb import generators
from repro.resilience import verify_contingency_set


def main() -> None:
    # A layered network: SRC -> layer 0 -> layer 1 -> layer 2 -> SNK, with
    # random capacities.  Each edge is a database fact with a multiplicity.
    network_db = generators.layered_flow_database(
        num_layers=4, layer_width=4, seed=2024, edge_probability=0.6, max_multiplicity=9
    )
    print(f"network database: {len(network_db)} facts over alphabet {sorted(network_db.alphabet)}")

    query = Language.from_regex("ax*b")
    result = resilience(query, network_db)
    print(f"resilience of a x* b (total capacity to sever all source-sink routes): {result.value}")
    print(f"algorithm: {result.method}; facts cut: {len(result.contingency_set)}")
    assert verify_contingency_set(query, network_db, result)

    # Direct MinCut on the same network, for comparison.
    flow = FlowNetwork(source="SRC", target="SNK")
    for fact, multiplicity in network_db.multiplicities().items():
        flow.add_edge(fact.source, fact.target, multiplicity, key=fact)
    cut = min_cut(flow)
    print(f"direct MinCut value: {cut.value} (must match the resilience)")
    assert cut.value == result.value

    # Robustness experiment: how does the resilience change as links fail?
    print("\nlink-failure sweep (removing the largest-capacity x-facts one by one):")
    remaining = network_db
    # Ties in capacity break by the fact itself, so the sweep does not depend
    # on set iteration order (which changes with PYTHONHASHSEED).
    x_facts = sorted(
        (fact for fact in network_db.facts if fact.label == "x"),
        key=lambda fact: (-network_db.multiplicity(fact), repr(fact)),
    )
    for step, fact in enumerate(x_facts[:5]):
        remaining = remaining.remove([fact])
        value = resilience(query, remaining).value
        print(f"  after removing {fact} -> resilience {value}")


if __name__ == "__main__":
    main()
