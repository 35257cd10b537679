"""Network-flow substrate: object-layer flow networks (the differential
reference) and the array-native compiled core the reductions run on.

See ``src/repro/flow/README.md`` for the compiled-graph layout, the exactness
invariants and the substrate lifecycle.
"""

from .compiled import (
    CompiledCut,
    CompiledFlowGraph,
    FlowGraphBuilder,
    compile_network,
    fast_min_cut,
    min_cut_compiled,
    reference_min_cut,
    solve_min_cut,
)
from .mincut import INFINITY, MinCutResult, min_cut, min_cut_value
from .network import FlowEdge, FlowNetwork
from .substrate import (
    BclSubstrate,
    ProductSubstrate,
    bcl_substrate,
    compile_bcl_graph,
    compile_product_graph,
    product_substrate,
)

__all__ = [
    "INFINITY",
    "BclSubstrate",
    "CompiledCut",
    "CompiledFlowGraph",
    "FlowEdge",
    "FlowGraphBuilder",
    "FlowNetwork",
    "MinCutResult",
    "ProductSubstrate",
    "bcl_substrate",
    "compile_bcl_graph",
    "compile_network",
    "compile_product_graph",
    "fast_min_cut",
    "min_cut",
    "min_cut_compiled",
    "min_cut_value",
    "product_substrate",
    "reference_min_cut",
    "solve_min_cut",
]
