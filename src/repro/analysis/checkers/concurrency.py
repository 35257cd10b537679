"""Concurrency rules: async loops stay unblocked, shared state stays locked.

``conc-blocking-async`` flags synchronous blocking calls made directly
inside an ``async def`` body — ``time.sleep``, sync HTTP/socket
connects, subprocess waits, bare ``.join()`` — which stall the event
loop the front-end promises to keep responsive (the sanctioned escape
hatch is ``run_in_executor``, which these rules do not match).

``conc-unlocked-write`` encodes the drain-thread lock discipline from
``async_server.py`` and the exchange machinery: in a class that owns a
``threading.Lock``/``RLock``/``Condition``, any attribute written under
``with self._lock`` is *guarded*; writing a guarded attribute outside
the lock is a race unless it happens in ``__init__`` (no concurrency
yet) or in a method named ``*_locked`` (the repo's convention for
"caller holds the lock").
"""

from __future__ import annotations

import ast

from ..core import Checker, ModuleContext

_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "urllib.request.urlopen",
        "socket.create_connection",
        "socket.getaddrinfo",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "os.system",
        "os.waitpid",
        "http.client.HTTPConnection",
        "requests.get",
        "requests.post",
        "requests.request",
    }
)

#: Blocking attribute calls when invoked with no positional arguments:
#: thread/process ``.join()`` and unbounded ``Queue.get()`` (``str.join``
#: and ``dict.get`` always take a positional argument, so they never match).
_BLOCKING_NOARG_METHODS = frozenset({"join", "get"})

_LOCK_FACTORIES = frozenset(
    {"threading.Lock", "threading.RLock", "threading.Condition"}
)


def _self_attr(node: ast.expr) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _assigned_self_attrs(node: ast.stmt) -> list[tuple[str, ast.AST]]:
    """``self.X = ...`` / ``self.X += ...`` targets within one statement."""
    out: list[tuple[str, ast.AST]] = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return out
    for target in targets:
        if isinstance(target, ast.Tuple):
            elements = target.elts
        else:
            elements = [target]
        for element in elements:
            attr = _self_attr(element)
            if attr is not None:
                out.append((attr, element))
    return out


class ConcurrencyChecker(Checker):
    name = "concurrency"
    rules = {
        "conc-blocking-async": (
            "synchronous blocking call directly inside async def; "
            "use run_in_executor"
        ),
        "conc-unlocked-write": (
            "write to a lock-guarded attribute without holding the lock "
            "(outside __init__ and *_locked methods)"
        ),
    }

    _UNLOCKED_WRITE_SCOPE = ("repro/service/", "repro/metrics.py")

    # ------------------------------------------------------- blocking-in-async

    def begin(self, module: ModuleContext) -> None:
        self._awaited: set[int] = set()

    def visit_Await(self, node: ast.Await, module: ModuleContext) -> None:
        # The Await parent is visited before its Call child, so awaited
        # calls can be excluded from the blocking check: an awaited
        # coroutine (asyncio.Queue.get, Task.join, ...) yields the loop.
        if isinstance(node.value, ast.Call):
            self._awaited.add(id(node.value))

    def visit_Call(self, node: ast.Call, module: ModuleContext) -> None:
        if not module.in_async_function() or id(node) in self._awaited:
            return
        resolved = module.resolve(node.func)
        if resolved in _BLOCKING_CALLS:
            module.report(
                "conc-blocking-async", node, f"blocking call {resolved}() in async def"
            )
            return
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _BLOCKING_NOARG_METHODS
            and not node.args
        ):
            module.report(
                "conc-blocking-async",
                node,
                f"blocking .{node.func.attr}() with no timeout in async def",
            )

    # ------------------------------------------------------- unlocked writes

    def visit_ClassDef(self, node: ast.ClassDef, module: ModuleContext) -> None:
        if not module.in_scope(*self._UNLOCKED_WRITE_SCOPE):
            return
        lock_attrs = self._lock_attrs(node, module)
        if not lock_attrs:
            return
        # (method, write node, attr, under_lock) for every self.X write.
        writes: list[tuple[ast.AST, ast.AST, str, bool]] = []
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            self._collect_writes(method, method, lock_attrs, False, writes)
        guarded = {attr for _, _, attr, under in writes if under}
        for method, write, attr, under in writes:
            if under or attr not in guarded:
                continue
            if method.name == "__init__" or method.name.endswith("_locked"):
                continue
            module.report(
                "conc-unlocked-write",
                write,
                f"self.{attr} is written under {node.name}'s lock elsewhere "
                f"but written here ({method.name}) without it",
            )

    def _lock_attrs(self, node: ast.ClassDef, module: ModuleContext) -> set[str]:
        """Attributes holding a Lock/RLock/Condition (or dataclass field)."""
        locks: set[str] = set()
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
                resolved = module.resolve(stmt.value.func)
                if resolved in _LOCK_FACTORIES:
                    for target in stmt.targets:
                        attr = _self_attr(target)
                        if attr is not None:
                            locks.add(attr)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.value, ast.Call
            ):
                # dataclass idiom: _lock: Lock = field(default_factory=Lock)
                for keyword in stmt.value.keywords:
                    if keyword.arg == "default_factory":
                        resolved = module.resolve(keyword.value)
                        if resolved in _LOCK_FACTORIES and isinstance(
                            stmt.target, ast.Name
                        ):
                            locks.add(stmt.target.id)
        return locks

    def _collect_writes(
        self,
        method: ast.AST,
        node: ast.AST,
        lock_attrs: set[str],
        under: bool,
        writes: list,
    ) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            holds = under or any(
                _self_attr(item.context_expr) in lock_attrs for item in node.items
            )
            for child in node.body:
                self._collect_writes(method, child, lock_attrs, holds, writes)
            return
        if isinstance(node, ast.stmt):
            for attr, target in _assigned_self_attrs(node):
                if attr not in lock_attrs:
                    writes.append((method, target, attr, under))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                # Nested defs run on their own schedule; analyzed separately
                # would need call-site context, so stay out of their bodies.
                continue
            self._collect_writes(method, child, lock_attrs, under, writes)
