"""Reusable fault-injection helpers shared by the serving test suites.

These deliberately live with the tests rather than in ``src``: they kill and
stall real worker processes.  Consumers: ``test_async_server.py`` (pool
crash/replace, the gated abandonment ordering), ``test_exchange.py``
(mid-stream node kills),
``test_traffic.py`` and ``benchmarks/bench_soak.py`` (chaos soak payloads),
and ``conformance_harness.py`` (the kill and soak-replay variants).

* :func:`poison_language` — plans like a normal language in the parent but
  kills any worker process that unpickles it, so every dispatch of its chunk
  breaks the pool (first attempt and retry alike) and its outcomes surface as
  structured ``error`` results.
* :func:`slow_language` — stalls the unpickling worker for a fixed time and
  then behaves exactly like the original language: latency-tail pressure
  without breaking anything, outcomes stay ``ok`` and parity holds.
* :func:`drain_with_kill` / :func:`adrain_with_kill` — drain an outcome
  stream, firing a kill callback after exactly N outcomes have landed
  (mid-stream by construction).
* :class:`GatedExchange` — an exchange wrapper that holds every round after
  the first until the test opens its gate, so an ordering such as "the
  consumer abandoned its stream before round two" no longer depends on
  thread scheduling.
* :class:`ChaosHttpNode` / :class:`ChaosHttpNodeLauncher` — the network-chaos
  transport: a real :class:`~repro.service.exchange.http.HttpNode` whose
  connections misbehave on cue via :meth:`ChaosHttpNode.inject_fault`
  (connection-refused windows, mid-stream disconnects, stalled streams,
  corrupt payloads).  Faults are armed per-handle and consumed
  deterministically at precise protocol points, so a chaos soak over HTTP
  replays bit-for-bit; every raised fault is a *real* exception type
  (``ConnectionRefusedError``, ``ConnectionResetError``, ``socket.timeout``)
  travelling the same client code paths a genuinely broken network would.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.exceptions import ReproError
from repro.languages import Language
from repro.service import Exchange, QueryOutcome, QuerySpec, Workload
from repro.service.exchange.http import HttpNode, HttpNodeLauncher
from repro.traffic import CORRUPT, DISCONNECT, NETWORK_KINDS, REFUSED, STALL


class _CrashOnUnpickle(Language):
    """Plans like a normal language in the parent; kills any worker process
    that unpickles it (``__reduce__`` makes unpickling call ``os._exit``), so
    every dispatch of its chunk breaks the pool — including the retry."""

    def __reduce__(self):
        return (os._exit, (1,))


def poison_language(expression: str) -> Language:
    language = Language.from_regex(expression)
    language.__class__ = _CrashOnUnpickle
    return language


def _sleep_then_parse(expression: str, seconds: float) -> Language:
    time.sleep(seconds)
    return Language.from_regex(expression)


class _SlowOnUnpickle(Language):
    """Plans like a normal language in the parent; makes the unpickling
    worker sleep before reconstructing the real language, so its chunk adds
    a latency tail without crashing anything."""

    def __reduce__(self):
        return (_sleep_then_parse, (self._slow_expression, self._slow_seconds))


def slow_language(expression: str, seconds: float = 0.05) -> Language:
    language = Language.from_regex(expression)
    language.__class__ = _SlowOnUnpickle
    language._slow_expression = expression
    language._slow_seconds = seconds
    return language


def poison_workload(expressions) -> Workload:
    """A workload whose every query crashes the worker that unpickles it."""
    return Workload(tuple(QuerySpec(poison_language(e)) for e in expressions))


def slow_workload(expressions, seconds: float = 0.05) -> Workload:
    """A workload whose every query stalls its worker, then answers normally."""
    return Workload(tuple(QuerySpec(slow_language(e, seconds)) for e in expressions))


def drain_with_kill(
    iterator, kill: Callable[[], None], *, after: int = 2
) -> list[QueryOutcome]:
    """Drain a sync outcome stream, firing ``kill()`` once exactly ``after``
    outcomes have been delivered (the stream must hold at least that many)."""
    outcomes: list[QueryOutcome] = []
    for outcome in iterator:
        outcomes.append(outcome)
        if len(outcomes) == after:
            kill()
    if len(outcomes) < after:
        raise AssertionError(
            f"stream ended after {len(outcomes)} outcomes; kill at {after} never fired"
        )
    return outcomes


async def adrain_with_kill(
    stream, kill: Callable[[], None], *, after: int = 2
) -> list[QueryOutcome]:
    """Async variant of :func:`drain_with_kill`."""
    outcomes: list[QueryOutcome] = []
    async for outcome in stream:
        outcomes.append(outcome)
        if len(outcomes) == after:
            kill()
    if len(outcomes) < after:
        raise AssertionError(
            f"stream ended after {len(outcomes)} outcomes; kill at {after} never fired"
        )
    return outcomes


class GatedExchange(Exchange):
    """Forwards to ``inner`` but holds every round after the first until
    :meth:`open` is called (failing the held round after ``timeout`` seconds).

    Owns ``inner``: closing this exchange closes it.
    """

    def __init__(self, inner: Exchange, *, timeout: float = 30.0) -> None:
        self._inner = inner
        self._timeout = timeout
        self._gate = threading.Event()
        self._rounds = 0

    def open(self) -> None:
        self._gate.set()

    def submit(self, envelope, *, cancel=None):
        self._rounds += 1
        if self._rounds > 1 and not self._gate.wait(self._timeout):
            raise AssertionError(f"gate not opened within {self._timeout}s")
        return self._inner.submit(envelope, cancel=cancel)

    def stats(self):
        return self._inner.stats()

    def shared_cache_stats(self):
        return self._inner.shared_cache_stats()

    def close(self) -> None:
        self._inner.close()


# ---------------------------------------------------------------- network chaos


@dataclass(frozen=True)
class _StreamFault:
    """One armed serve-stream fault (disconnect / stall / corrupt)."""

    kind: str
    after_outcomes: int = 0


class _ChaosStream:
    """Wraps an ``HTTPResponse`` so line iteration misbehaves on cue.

    Counts the outcome lines of the ndjson stream; once ``after_outcomes``
    clean ones have been delivered, a *disconnect* fault raises
    ``ConnectionResetError`` in place of the next line and a *corrupt* fault
    substitutes a garbage line (the client must refuse the whole stream, not
    deliver a mangled outcome).  Everything else proxies to the response.
    """

    def __init__(self, response, fault: _StreamFault) -> None:
        self._response = response
        self._fault = fault

    def __getattr__(self, name):
        return getattr(self._response, name)

    def __iter__(self):
        outcome_lines = 0
        for raw in self._response:
            if outcome_lines >= self._fault.after_outcomes:
                if self._fault.kind == DISCONNECT:
                    raise ConnectionResetError(
                        "chaos: connection reset mid-stream "
                        f"(after {outcome_lines} outcomes)"
                    )
                yield b"@@chaos-corrupt-payload@@\n"
                return
            yield raw
            if b'"outcome"' in raw:
                outcome_lines += 1


class _ChaosConnection:
    """Wraps an ``HTTPConnection``; applies a stream fault to ``/serve``.

    Stream faults are taken from the owning node only when the request
    targets ``/serve`` — control requests on the same handle stay clean, so
    an armed fault deterministically hits the next serve dispatch.  A *stall*
    fault never sends the request: the client's next ``getresponse`` sees
    ``socket.timeout``, modelling its request timeout expiring without
    spending the wall-clock wait.
    """

    def __init__(self, inner, node: "ChaosHttpNode") -> None:
        self._inner = inner
        self._chaos_node = node
        self._fault: _StreamFault | None = None

    def request(self, method, path, **kwargs) -> None:
        if path == "/serve":
            self._fault = self._chaos_node._take_stream_fault()
        if self._fault is not None and self._fault.kind == STALL:
            return
        self._inner.request(method, path, **kwargs)

    def getresponse(self):
        if self._fault is not None and self._fault.kind == STALL:
            raise socket.timeout(
                "chaos: stalled stream (simulated request-timeout expiry)"
            )
        response = self._inner.getresponse()
        if self._fault is not None:
            return _ChaosStream(response, self._fault)
        return response

    def close(self) -> None:
        self._inner.close()


class ChaosHttpNode(HttpNode):
    """An :class:`HttpNode` whose transport misbehaves on cue.

    :meth:`inject_fault` arms faults; the handle consumes them at precise
    protocol points, raising the same real exception types a broken network
    would — so retry, re-dispatch, failover and circuit-breaker code paths
    run unmodified.  This is the duck-typed surface the soak runner's
    network chaos kinds dispatch to.
    """

    def __init__(self, node_id, host, port, **kwargs) -> None:
        super().__init__(node_id, host, port, **kwargs)
        self._fault_lock = threading.Lock()
        self._refused_left = 0
        self._stream_faults: deque[_StreamFault] = deque()
        #: kind -> times a fault actually fired (for test assertions).
        self.faults_fired: dict[str, int] = {}

    def inject_fault(self, kind: str, *, count: int = 1, after_outcomes: int = 0) -> None:
        """Arm a fault: ``refused`` refuses the next ``count`` connection
        attempts; ``disconnect`` / ``corrupt`` hit the next serve stream
        after ``after_outcomes`` clean outcomes; ``stall`` hangs the next
        serve connection until the client's timeout."""
        if kind not in NETWORK_KINDS:
            raise ReproError(
                f"unknown network fault {kind!r}; expected one of "
                f"{sorted(NETWORK_KINDS)}"
            )
        with self._fault_lock:
            if kind == REFUSED:
                self._refused_left += count
            else:
                self._stream_faults.append(_StreamFault(kind, after_outcomes))

    @property
    def pending_faults(self) -> int:
        with self._fault_lock:
            return self._refused_left + len(self._stream_faults)

    def _record_fired_locked(self, kind: str) -> None:
        self.faults_fired[kind] = self.faults_fired.get(kind, 0) + 1

    def _take_stream_fault(self) -> _StreamFault | None:
        with self._fault_lock:
            if not self._stream_faults:
                return None
            fault = self._stream_faults.popleft()
            self._record_fired_locked(fault.kind)
            return fault

    def _connect(self):
        with self._fault_lock:
            refused = self._refused_left > 0
            if refused:
                self._refused_left -= 1
                self._record_fired_locked(REFUSED)
        if refused:
            raise ConnectionRefusedError(
                f"chaos: connection refused by node {self.node_id!r}"
            )
        return _ChaosConnection(super()._connect(), self)


class ChaosHttpNodeLauncher(HttpNodeLauncher):
    """An :class:`HttpNodeLauncher` handing out :class:`ChaosHttpNode`
    handles — nodes and wire format are the real thing; only the client-side
    connection layer gains the fault hook.  Because ``manager.replace`` goes
    through the launcher, healed replacements stay fault-capable."""

    handle_class = ChaosHttpNode
