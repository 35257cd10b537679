"""Determinism rules: no hash-order or wall-clock data in deterministic paths.

The conformance harness pins every cache/execution/distribution variant
to be outcome-identical with the uncached serial reference, which only
holds if the core engine is a pure function of its inputs.  These rules
flag the classic leaks: iterating a set into an ordered sink, sorting by
``repr`` (memory addresses leak into default object reprs), reading the
wall clock or an unseeded RNG, and using ``id()`` where its value could
reach an ordering or an output.

``repr``-keyed sorting *is* the repo's canonicalization idiom for
value-semantics objects (frozen dataclasses, frozensets) — but only in
the canonicalization layers, where every repr is address-free by
construction.  Those directories are whitelisted below; everywhere else
in the deterministic scope a repr sort needs a pragma arguing why the
reprs involved are value-based.
"""

from __future__ import annotations

import ast

from ..core import Checker, ModuleContext

#: Modules whose outputs must be pure functions of their inputs.
DETERMINISTIC_SCOPE = (
    "repro/flow/",
    "repro/resilience/",
    "repro/languages/",
    "repro/graphdb/",
    "repro/classify/",
    "repro/hardness/",
    "repro/rpq/",
    "repro/metrics.py",
    # The traffic generator must be bit-replayable from its seed; the soak
    # runner around it is intentionally out of scope (it measures wall time).
    "repro/traffic/generator",
)

#: Canonicalization layers where sorting by ``repr`` is the blessed idiom:
#: every sorted element is a frozen value type whose repr is address-free.
REPR_SORT_WHITELIST = (
    "repro/languages/",
    "repro/hardness/",
    "repro/graphdb/",
)

_WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.thread_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: Order-sensitive sinks: materializing a set through these bakes hash
#: order into a sequence.
_ORDERED_SINKS = frozenset({"list", "tuple", "enumerate", "reversed", "iter", "next"})

_SORT_CALLS = frozenset({"sorted", "min", "max"})


def _is_set_expr(node: ast.expr) -> bool:
    """Syntactically-certain unordered expressions."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in {"set", "frozenset"}:
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _key_is_repr(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg == "key" and isinstance(keyword.value, ast.Name):
            if keyword.value.id in {"repr", "str"}:
                return True
    return False


class DeterminismChecker(Checker):
    name = "determinism"
    scope = DETERMINISTIC_SCOPE
    rules = {
        "det-set-iter": (
            "iteration over a set/frozenset expression feeds an ordered "
            "consumer; wrap it in sorted(...) or keep it order-insensitive"
        ),
        "det-repr-sort": (
            "repr/str-keyed sort outside the canonicalization whitelist; "
            "default reprs embed memory addresses"
        ),
        "det-wallclock": (
            "wall-clock or unseeded randomness in a deterministic path"
        ),
        "det-id": (
            "id() in a deterministic path; addresses vary run to run"
        ),
    }

    def visit_For(self, node: ast.For, module: ModuleContext) -> None:
        if _is_set_expr(node.iter):
            module.report(
                "det-set-iter",
                node.iter,
                "for-loop over an unordered set expression",
            )

    def visit_comprehension(
        self, node: ast.comprehension, module: ModuleContext
    ) -> None:
        if _is_set_expr(node.iter):
            module.report(
                "det-set-iter",
                node.iter,
                "comprehension over an unordered set expression",
            )

    def visit_Call(self, node: ast.Call, module: ModuleContext) -> None:
        resolved = module.resolve(node.func)
        if resolved is None:
            self._check_method_call(node, module)
            return
        if resolved in _WALLCLOCK_CALLS:
            module.report("det-wallclock", node, f"call to {resolved}()")
            return
        if resolved == "random" or resolved.startswith("random."):
            # A seeded random.Random(seed) instance is deterministic by
            # construction; everything else from the random module is not.
            if not (resolved == "random.Random" and (node.args or node.keywords)):
                module.report("det-wallclock", node, f"call to {resolved}()")
            return
        if resolved == "id":
            module.report("det-id", node, "id() value used in a deterministic path")
            return
        if resolved in _SORT_CALLS and _key_is_repr(node):
            if not module.in_scope(*REPR_SORT_WHITELIST):
                module.report(
                    "det-repr-sort",
                    node,
                    f"{resolved}(..., key=repr) outside the canonicalization "
                    "whitelist",
                )
            return
        if resolved in _ORDERED_SINKS and node.args and _is_set_expr(node.args[0]):
            module.report(
                "det-set-iter",
                node,
                f"{resolved}() materializes an unordered set expression",
            )

    def _check_method_call(self, node: ast.Call, module: ModuleContext) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        attr = node.func.attr
        if attr == "sort" and _key_is_repr(node):
            if not module.in_scope(*REPR_SORT_WHITELIST):
                module.report(
                    "det-repr-sort",
                    node,
                    ".sort(key=repr) outside the canonicalization whitelist",
                )
        elif attr == "join" and node.args and _is_set_expr(node.args[0]):
            module.report(
                "det-set-iter", node, ".join() over an unordered set expression"
            )
