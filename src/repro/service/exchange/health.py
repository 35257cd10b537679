"""Fault-tolerance primitives: retry policies, circuit breakers, supervision.

The HTTP rung of the exchange ladder crosses real sockets, where three
failure shapes exist that the in-process rungs never see: *transient* faults
(a refused connection during a restart, a dropped stream), *suspected death*
(probes failing repeatedly), and *confirmed death* (a node that stays dark
past any grace).  This module gives each shape its own mechanism:

* :class:`RetryPolicy` — bounded retry with exponential backoff and
  *deterministic* jitter (a seeded :class:`random.Random` stream, so two runs
  of the same seed retry on the same schedule).  Applied by
  :class:`~repro.service.exchange.http.HttpNode` to control requests and to
  idempotent serve re-dispatch — a serve stream that dies before its first
  outcome is retried on the same node; after the first outcome the exchange's
  kill-check-before-yield failover takes over instead, because the tail must
  be recomputed on another node, not replayed on this one.
* :class:`CircuitBreaker` — the classic closed → open → half-open automaton,
  counted in supervisor *ticks* rather than wall time so tests can drive it
  deterministically.  ``closed``: probes flow.  After ``failure_threshold``
  consecutive failures the breaker opens; for ``cooldown_ticks`` ticks probes
  are skipped entirely (a dark node costs nothing per tick), then one
  half-open probe is allowed — success recloses, failure re-opens.
* :class:`HealthMonitor` — the supervision loop owning one breaker per node.
  Runs as a daemon thread on an interval (:meth:`start`) or manually
  (:meth:`tick`).  It decides only whether a node is probed and routed to: a
  node that answers again after being dark has typically *restarted* empty,
  and the handle's first serve there re-ships each database on the node's
  409.  Nodes that stay dead for ``replace_after`` consecutive ticks are
  replaced through the manager (identity-preserving, so rendezvous routing
  hands the replacement exactly the corpse's keys).

Everything here is transport-agnostic: breakers and the monitor speak only
the :class:`~repro.service.exchange.base.Node` contract, so a
``ThreadExchange`` fleet can be supervised identically in tests.
"""

from __future__ import annotations

import random
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ...exceptions import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (manager -> health)
    from .base import Node
    from .manager import NodeManager

#: Circuit states (:attr:`CircuitBreaker.state`).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    Attributes:
        attempts: total tries, the first included (``1`` disables retry).
        base_delay: seconds slept before the first retry.
        multiplier: backoff factor between consecutive retries.
        jitter: fractional headroom added per delay — delay ``d`` becomes
            ``d * (1 + jitter * u)`` with ``u`` drawn from the policy's seeded
            RNG stream, so schedules decorrelate across policies without
            losing replayability.
        seed: the jitter stream seed; equal policies sleep equal schedules.
        attempt_timeout: per-attempt budget in seconds — transports use it as
            their socket timeout (``None``: keep the transport's default).
        total_budget: total seconds across all attempts; a retry that would
            start after the budget is abandoned and the last error raised.
    """

    attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    attempt_timeout: float | None = None
    total_budget: float | None = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ReproError(f"retry attempts must be >= 1 (got {self.attempts})")
        if self.base_delay < 0 or self.multiplier < 1.0 or self.jitter < 0:
            raise ReproError(
                "retry backoff needs base_delay >= 0, multiplier >= 1, "
                f"jitter >= 0 (got {self.base_delay}, {self.multiplier}, "
                f"{self.jitter})"
            )

    def sleep_schedule(self) -> tuple[float, ...]:
        """The ``attempts - 1`` inter-attempt delays, jitter applied.

        A pure function of the policy (the RNG is seeded per call), so the
        schedule is replayable and inspectable.
        """
        rng = random.Random(self.seed)
        delays: list[float] = []
        delay = self.base_delay
        for _ in range(self.attempts - 1):
            delays.append(delay * (1.0 + self.jitter * rng.random()))
            delay *= self.multiplier
        return tuple(delays)

    def run(
        self,
        operation: Callable[[], object],
        *,
        retriable: tuple[type[BaseException], ...] = (ConnectionError, OSError),
        sleep: Callable[[float], None] = time.sleep,
    ):
        """Call ``operation`` under this policy, re-raising the final failure.

        Only ``retriable`` exceptions consume attempts; anything else
        propagates immediately (an application-level refusal is not a
        network fault).  ``sleep`` is injectable for tests.
        """
        started = time.monotonic()
        schedule = self.sleep_schedule()
        for attempt in range(self.attempts):
            try:
                return operation()
            except retriable:
                if attempt == self.attempts - 1:
                    raise
                delay = schedule[attempt]
                if (
                    self.total_budget is not None
                    and time.monotonic() - started + delay > self.total_budget
                ):
                    raise
                sleep(delay)
        raise ReproError("unreachable: retry loop exited without returning")


class CircuitBreaker:
    """One node's closed → open → half-open probe automaton.

    Counted in supervisor *ticks*, not wall time: :meth:`allow_probe` is
    asked once per tick and answers whether spending a probe on this node is
    worthwhile right now.  The holder (:class:`HealthMonitor`) synchronizes
    access; the breaker itself is plain state.
    """

    def __init__(self, *, failure_threshold: int = 3, cooldown_ticks: int = 1) -> None:
        if failure_threshold < 1:
            raise ReproError(
                f"failure_threshold must be >= 1 (got {failure_threshold})"
            )
        if cooldown_ticks < 0:
            raise ReproError(f"cooldown_ticks must be >= 0 (got {cooldown_ticks})")
        self.failure_threshold = failure_threshold
        self.cooldown_ticks = cooldown_ticks
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opens = 0
        self._cooldown_left = 0

    def allow_probe(self) -> bool:
        """Whether this tick should probe the node (advances open cooldown)."""
        if self.state != OPEN:
            return True
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return False
        self.state = HALF_OPEN
        return True

    def record_success(self) -> bool:
        """Note a successful probe; ``True`` when this *recloses* the circuit."""
        reclosed = self.state != CLOSED
        self.state = CLOSED
        self.consecutive_failures = 0
        return reclosed

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state == HALF_OPEN or (
            self.state == CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self.state = OPEN
            self.opens += 1
            self._cooldown_left = self.cooldown_ticks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CircuitBreaker({self.state}, failures={self.consecutive_failures}, "
            f"opens={self.opens})"
        )


class HealthMonitor:
    """Background health supervision over a :class:`NodeManager` fleet.

    One :class:`CircuitBreaker` per node id.  Each :meth:`tick`:

    1. skips nodes whose breaker is open and still cooling down (no probe
       spent on a node known to be dark);
    2. probes everyone else via ``node.heartbeat()``;
    3. on success: closes the breaker, counting a *reclose* of a previously
       open/half-open circuit in :attr:`recloses`;
    4. on failure (or a skipped dark tick): counts the node's consecutive
       suspect ticks, and once they reach ``replace_after`` replaces the node
       through the manager (identity-preserving) and resets its breaker.

    Drive it either way: :meth:`start` runs :meth:`tick` every ``interval``
    seconds on a daemon thread (stopped by :meth:`stop`, which the manager's
    ``close`` calls); calling :meth:`tick` directly gives tests a fully
    deterministic clock.
    """

    def __init__(
        self,
        manager: "NodeManager",
        *,
        interval: float = 0.5,
        failure_threshold: int = 3,
        cooldown_ticks: int = 1,
        replace_after: int | None = None,
    ) -> None:
        if interval <= 0:
            raise ReproError(f"monitor interval must be > 0 (got {interval})")
        if replace_after is not None and replace_after < 1:
            raise ReproError(f"replace_after must be >= 1 (got {replace_after})")
        self._manager = manager
        self._interval = interval
        self._failure_threshold = failure_threshold
        self._cooldown_ticks = cooldown_ticks
        self._replace_after = replace_after
        self._lock = threading.Lock()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._suspect_ticks: dict[str, int] = {}
        self._ticks = 0
        self._recloses = 0
        self._replacements = 0
        self._stopped = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "HealthMonitor":
        """Run :meth:`tick` every ``interval`` seconds until :meth:`stop`."""
        with self._lock:
            if self._thread is not None:
                return self
            self._stopped.clear()
            thread = threading.Thread(
                target=self._supervise, name="health-monitor", daemon=True
            )
            self._thread = thread
        thread.start()
        return self

    def stop(self) -> None:
        """Stop the supervision thread (idempotent; safe if never started)."""
        self._stopped.set()
        with self._lock:
            thread, self._thread = self._thread, None
        if thread is not None:
            thread.join(timeout=10.0)

    def _supervise(self) -> None:
        while not self._stopped.wait(self._interval):
            self.tick()

    # ------------------------------------------------------------ one sweep

    def tick(self) -> dict[str, str]:
        """One supervision sweep; returns ``node_id -> breaker state``."""
        with self._lock:
            return self._tick_locked()

    def _tick_locked(self) -> dict[str, str]:
        self._ticks += 1
        states: dict[str, str] = {}
        for node_id in self._manager.node_ids():
            node = self._manager.node(node_id)
            breaker = self._breakers.get(node_id)
            if breaker is None:
                breaker = CircuitBreaker(
                    failure_threshold=self._failure_threshold,
                    cooldown_ticks=self._cooldown_ticks,
                )
                self._breakers[node_id] = breaker
            if breaker.allow_probe():
                if self._probe(node):
                    if breaker.record_success():
                        self._recloses += 1
                    self._suspect_ticks[node_id] = 0
                else:
                    breaker.record_failure()
                    self._suspect_ticks[node_id] = (
                        self._suspect_ticks.get(node_id, 0) + 1
                    )
            else:
                # Open circuit, still cooling down: the node stays suspect
                # without costing a probe.
                self._suspect_ticks[node_id] = self._suspect_ticks.get(node_id, 0) + 1
            self._maybe_replace_locked(node_id, breaker)
            states[node_id] = self._breakers[node_id].state
        return states

    @staticmethod
    def _probe(node: "Node") -> bool:
        try:
            return node.heartbeat()
        # repro: allow[err-swallowed-except] -- a probe that *raises* is a
        # failed probe; the breaker records it and supervision continues
        except Exception:
            return False

    def _maybe_replace_locked(self, node_id: str, breaker: CircuitBreaker) -> None:
        if self._replace_after is None or self._manager.launcher is None:
            return
        if self._suspect_ticks.get(node_id, 0) < self._replace_after:
            return
        try:
            self._manager.replace(node_id)
        # repro: allow[err-swallowed-except] -- replacement is opportunistic:
        # a failed launch leaves the corpse registered and the next tick
        # tries again; the exchange meanwhile degrades structurally
        except Exception:
            return
        self._replacements += 1
        self._suspect_ticks[node_id] = 0
        self._breakers[node_id] = CircuitBreaker(
            failure_threshold=self._failure_threshold,
            cooldown_ticks=self._cooldown_ticks,
        )

    # ----------------------------------------------------------- observability

    def states(self) -> dict[str, str]:
        """Current breaker state per supervised node id (no probing)."""
        with self._lock:
            return {node_id: b.state for node_id, b in self._breakers.items()}

    def breaker(self, node_id: str) -> CircuitBreaker:
        with self._lock:
            try:
                return self._breakers[node_id]
            except KeyError:
                raise ReproError(
                    f"no breaker for {node_id!r}: the monitor has not ticked "
                    "over this node yet"
                ) from None

    @property
    def ticks(self) -> int:
        with self._lock:
            return self._ticks

    @property
    def recloses(self) -> int:
        """Circuits that went open/half-open and then closed again."""
        with self._lock:
            return self._recloses

    @property
    def replacements(self) -> int:
        with self._lock:
            return self._replacements

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HealthMonitor(ticks={self.ticks}, recloses={self.recloses}, "
            f"replacements={self.replacements})"
        )
