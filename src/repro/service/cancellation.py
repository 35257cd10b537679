"""Cooperative per-workload cancellation for the serving runtime.

A :class:`CancellationToken` travels *with* a workload through the serving
stack — admission front-end, exchange, node, warm server, worker chunk loop —
and lets any layer stop the workload's remaining queries without tearing down
shared infrastructure.  Cancellation is cooperative and never loses outcomes:
a query skipped because its token fired surfaces as a structured
:class:`~repro.service.outcome.QueryOutcome` (``admission-rejected`` for a
deadline, ``error`` for an explicit cancel/abandonment), so the
one-outcome-per-query contract holds for cancelled workloads too.

Two trigger modes:

* **explicit** — :meth:`CancellationToken.cancel` flips the token from any
  thread (the async front-end cancels on consumer abandonment);
* **deadline** — a token built with ``deadline_at`` (a ``time.monotonic()``
  instant) expires by itself; every check point compares against the clock,
  so a workload whose deadline passes *mid-execution* stops between queries
  instead of running stale to completion.

Check points, outermost to innermost:

* the serial execution loop and the chunk-dispatch loop in
  :class:`~repro.service.server.ResilienceServer` consult the token between
  queries / before each dispatch (parent process);
* the **worker chunk loop** (:func:`~repro.service.serve._worker_run_many`)
  checks between the queries of an in-flight chunk, through a shared-memory
  flag byte the parent binds per token (fork platforms only — the flag array
  is inherited at pool fork; on other start methods the parent-side checks
  still apply) plus the deadline instant shipped with the chunk
  (``CLOCK_MONOTONIC`` is system-wide on Linux, so parent and worker agree).
"""

from __future__ import annotations

import multiprocessing
import time

from .outcome import ADMISSION_REJECTED, ERROR

#: Flag-byte codes a bound token writes into the shared cancel array.  Workers
#: cannot see the parent's reason string, so the code selects both the outcome
#: status and a generic reason.
FLAG_LIVE = 0
FLAG_CANCELLED = 1
FLAG_DEADLINE = 2

_STATUS_TO_FLAG = {ERROR: FLAG_CANCELLED, ADMISSION_REJECTED: FLAG_DEADLINE}

#: Worker-side decode of a tripped flag byte: ``code -> (status, reason)``.
FLAG_STATES = {
    FLAG_CANCELLED: (ERROR, "WorkloadCancelled: workload cancelled during execution"),
    FLAG_DEADLINE: (
        ADMISSION_REJECTED,
        "DeadlineExceeded: workload deadline passed during execution",
    ),
}

#: The (status, reason) of a deadline observed directly against the clock.
DEADLINE_STATE = (
    ADMISSION_REJECTED,
    "DeadlineExceeded: workload deadline passed during execution",
)


def make_cancel_flags(slots: int):
    """A shared cancel-flag array, or ``None`` where it cannot work.

    The array is plain shared memory (no lock — single-byte writes are atomic)
    inherited by worker processes at pool fork, which is exactly why it only
    exists under the ``fork`` start method: spawned workers could not inherit
    it, and pickling it into the pool initializer is not supported.
    """
    try:
        if multiprocessing.get_start_method() != "fork":
            return None
        return multiprocessing.RawArray("b", slots)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        return None


class CancellationToken:
    """One workload's cooperative cancellation state.

    Thread-safe in the ways the runtime needs: :meth:`cancel` may race
    :meth:`state` checks and the server's slot binding from different threads
    — the worst outcome of any interleaving is one extra query executing,
    never a lost or duplicated outcome.
    """

    __slots__ = ("deadline_at", "_status", "_reason", "_flags", "_slot")

    def __init__(self, *, deadline_at: float | None = None) -> None:
        self.deadline_at = deadline_at
        self._status: str | None = None
        self._reason: str | None = None
        self._flags = None
        self._slot: int | None = None

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called (deadline expiry not included —
        deadlines are evaluated lazily at each check point via :meth:`state`)."""
        return self._status is not None

    def cancel(self, reason: str, *, status: str = ERROR) -> None:
        """Trip the token: later check points skip execution.

        ``status`` selects the structured outcome of skipped queries —
        :data:`~repro.service.outcome.ERROR` (default) or
        :data:`~repro.service.outcome.ADMISSION_REJECTED`.
        """
        self._status = status
        self._reason = reason
        # Propagate into the shared flag byte if a server bound one, waking
        # the in-flight worker chunk's between-queries check.
        flags, slot = self._flags, self._slot
        if flags is not None and slot is not None:
            flags[slot] = _STATUS_TO_FLAG.get(status, FLAG_CANCELLED)

    def state(self, now: float | None = None) -> tuple[str, str] | None:
        """``(status, reason)`` if the token has fired, else ``None``.

        The parent-side check point: explicit cancellation wins over a
        deadline that also expired (its reason is the more specific one).
        """
        if self._status is not None:
            return (self._status, self._reason or "WorkloadCancelled")
        if self.deadline_at is not None:
            if (time.monotonic() if now is None else now) > self.deadline_at:
                return DEADLINE_STATE
        return None

    # ------------------------------------------------------------- slot binding
    # Server-internal: ResilienceServer binds each distinct token of a serve
    # call to one byte of its shared flag array for the call's duration.

    def bind_flag(self, flags, slot: int) -> None:
        self._flags = flags
        self._slot = slot
        # cancel() may have raced the bind: make the flag reflect it.
        if self._status is not None:
            flags[slot] = _STATUS_TO_FLAG.get(self._status, FLAG_CANCELLED)

    def unbind_flag(self) -> None:
        self._flags = None
        self._slot = None

