"""IPC-safety rules: everything crossing a process boundary must pickle.

Worker pools are fed with module-level functions only — a lambda, a
closure, or a locally-defined class in a dispatch path dies at pickle
time on spawn-method platforms and, worse, *works by accident* under
fork until the first pool recycle.  ``ipc-cache-pickle`` encodes the
cache-dropping discipline :meth:`GraphDatabase.__getstate__` set: a
class in the pickle-crossing layers (``graphdb``, ``languages``) that
accumulates derived index/cache state must say what happens to that
state at the boundary by defining ``__getstate__`` or ``__reduce__``
(or carry a pragma arguing why shipping it is intended, as
:class:`Language` does for its memoized derivations).
"""

from __future__ import annotations

import ast
import re

from ..core import Checker, ModuleContext

_DISPATCH_METHODS = frozenset(
    {"submit", "map", "apply_async", "apply", "imap", "imap_unordered", "starmap"}
)

_DISPATCH_KEYWORDS = frozenset({"initializer", "target", "func", "callback"})

#: Attribute names that smell like derived/cache state on a pickled type.
_CACHE_ATTR_RE = re.compile(
    r"(cache|index|memo|substrate|fingerprint|infix|adjacency|_graphs|_pairs)",
)

_PICKLE_HOOKS = frozenset(
    {"__getstate__", "__reduce__", "__reduce_ex__", "__getnewargs__"}
)


class IpcChecker(Checker):
    name = "ipc-safety"
    rules = {
        "ipc-lambda-dispatch": (
            "lambda or nested function handed to a pool/thread dispatch "
            "call; only module-level callables cross the pickle boundary"
        ),
        "ipc-local-class": (
            "class defined inside a function in a dispatch path; local "
            "classes cannot be pickled"
        ),
        "ipc-cache-pickle": (
            "index/cache-carrying class in a pickle-crossing layer without "
            "__getstate__/__reduce__ declaring its boundary behavior"
        ),
    }

    _DISPATCH_SCOPE = ("repro/service/", "repro/metrics.py")
    _PICKLED_SCOPE = ("repro/graphdb/", "repro/languages/")

    def visit_Call(self, node: ast.Call, module: ModuleContext) -> None:
        if not module.in_scope(*self._DISPATCH_SCOPE):
            return
        is_dispatch = (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _DISPATCH_METHODS
        )
        if is_dispatch:
            for arg in node.args:
                if isinstance(arg, ast.Lambda):
                    module.report(
                        "ipc-lambda-dispatch",
                        arg,
                        f"lambda passed to .{node.func.attr}()",
                    )
        for keyword in node.keywords:
            if keyword.arg in _DISPATCH_KEYWORDS and isinstance(
                keyword.value, ast.Lambda
            ):
                module.report(
                    "ipc-lambda-dispatch",
                    keyword.value,
                    f"lambda passed as {keyword.arg}=",
                )

    def visit_ClassDef(self, node: ast.ClassDef, module: ModuleContext) -> None:
        if module.func_stack and module.in_scope(*self._DISPATCH_SCOPE):
            module.report(
                "ipc-local-class",
                node,
                f"class {node.name} defined inside "
                f"{module.func_stack[-1].name}()",
            )
        if module.in_scope(*self._PICKLED_SCOPE) and not module.func_stack:
            self._check_cache_pickle(node, module)

    def _check_cache_pickle(self, node: ast.ClassDef, module: ModuleContext) -> None:
        methods = {
            stmt.name
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if methods & _PICKLE_HOOKS:
            return
        cache_attrs: list[tuple[str, ast.AST]] = []
        for stmt in ast.walk(node):
            if not isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                continue
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and _CACHE_ATTR_RE.search(target.attr)
                ):
                    cache_attrs.append((target.attr, target))
        if cache_attrs:
            names = ", ".join(sorted({name for name, _ in cache_attrs}))
            module.report(
                "ipc-cache-pickle",
                node,
                f"class {node.name} carries derived state ({names}) but "
                "defines no __getstate__/__reduce__",
            )
