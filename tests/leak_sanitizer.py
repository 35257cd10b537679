"""Runtime leak sanitizer: no thread, process, socket, or temp dir survives a test.

The static pass in ``repro.analysis`` checks what the serving stack's
code *says*; this tracker checks what it *does*.  A
:class:`LeakTracker` snapshots the live threads and child processes
when a test starts, patches ``socket.socket`` and ``tempfile.mkdtemp``
to record everything created during the test, and at teardown insists
the world returned to its starting shape — after a settle window, since
daemon scatter threads and executor teardown race the test's epilogue
by design.

Wired into ``tests/conftest.py`` for the suites that exercise real
pools, threads, and HTTP servers (``test_server``, ``test_async_server``,
``test_exchange``, ``test_traffic``, ``test_metrics``, ``test_cache_bounds``).  The chaos soak harness also brackets
whole soak runs with a :class:`LeakTracker` directly (``SoakRunner``'s
``leak_tracker`` argument).  Set ``REPRO_LEAK_SANITIZER=off`` to disable.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import tempfile
import threading
import time
import weakref

#: Suites the sanitizer guards (module basenames, no extension).
SANITIZED_MODULES = frozenset(
    {
        "test_server",
        "test_async_server",
        "test_exchange",
        "test_traffic",
        "test_metrics",
        "test_cache_bounds",
    }
)

#: Seconds to wait for the world to settle before declaring a leak.
SETTLE_SECONDS = 5.0


def sanitizer_enabled() -> bool:
    return os.environ.get("REPRO_LEAK_SANITIZER", "").lower() not in {
        "off",
        "0",
        "false",
    }


class LeakTracker:
    """Snapshot-and-diff resource tracker for one test."""

    def __init__(self, *, settle: float = SETTLE_SECONDS) -> None:
        self._settle = settle
        self._threads_before: set[int] = set()
        self._children_before: set[int] = set()
        self._sockets: list[weakref.ref] = []
        self._tempdirs: list[str] = []
        self._real_socket = None
        self._real_mkdtemp = None

    # ----------------------------------------------------------------- window

    def start(self) -> None:
        self._threads_before = {
            thread.ident for thread in threading.enumerate()
        }
        self._children_before = {
            process.pid for process in multiprocessing.active_children()
        }
        tracker = self
        real_socket = socket.socket

        class _TrackedSocket(real_socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracker._sockets.append(weakref.ref(self))

        real_mkdtemp = tempfile.mkdtemp

        def _tracked_mkdtemp(*args, **kwargs):
            path = real_mkdtemp(*args, **kwargs)
            tracker._tempdirs.append(path)
            return path

        self._real_socket = real_socket
        self._real_mkdtemp = real_mkdtemp
        socket.socket = _TrackedSocket
        tempfile.mkdtemp = _tracked_mkdtemp

    def stop(self) -> None:
        if self._real_socket is not None:
            socket.socket = self._real_socket
            self._real_socket = None
        if self._real_mkdtemp is not None:
            tempfile.mkdtemp = self._real_mkdtemp
            self._real_mkdtemp = None

    # ------------------------------------------------------------------ diffs

    def _leaked_threads(self) -> list[threading.Thread]:
        return [
            thread
            for thread in threading.enumerate()
            if thread.ident not in self._threads_before and thread.is_alive()
        ]

    def _leaked_children(self) -> list[multiprocessing.process.BaseProcess]:
        return [
            process
            for process in multiprocessing.active_children()
            if process.pid not in self._children_before and process.is_alive()
        ]

    def _leaked_sockets(self) -> list[socket.socket]:
        out = []
        for ref in self._sockets:
            sock = ref()
            if sock is not None and sock.fileno() != -1:
                out.append(sock)
        return out

    def _leaked_tempdirs(self) -> list[str]:
        return [path for path in self._tempdirs if os.path.exists(path)]

    def _dirty(self) -> bool:
        return bool(
            self._leaked_threads()
            or self._leaked_children()
            or self._leaked_sockets()
            or self._leaked_tempdirs()
        )

    # ----------------------------------------------------------------- report

    def leaks(self) -> list[str]:
        """Human-readable leak descriptions after the settle window."""
        deadline = time.monotonic() + self._settle
        while self._dirty() and time.monotonic() < deadline:
            time.sleep(0.05)
        out: list[str] = []
        for thread in self._leaked_threads():
            out.append(
                f"thread leaked: {thread.name!r} (daemon={thread.daemon})"
            )
        for process in self._leaked_children():
            out.append(
                f"child process leaked: pid={process.pid} name={process.name!r}"
            )
        for sock in self._leaked_sockets():
            out.append(f"socket leaked: fd={sock.fileno()}")
        for path in self._leaked_tempdirs():
            out.append(f"temp dir leaked: {path}")
        return out
