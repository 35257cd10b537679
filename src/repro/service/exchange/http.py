"""The HTTP rung of the exchange ladder: nodes behind stdlib sockets.

One :class:`HttpNodeServer` wraps a
:class:`~repro.service.exchange.nodes.ThreadNode` runtime behind a
``ThreadingHTTPServer`` — the serving semantics are byte-identical to the
in-process node because it *is* the in-process node, reached through a
socket.  :class:`HttpNode` is the client-side handle implementing the
:class:`~repro.service.exchange.base.Node` contract over ``http.client``,
so :class:`HttpExchange` is nothing but :class:`RoutedExchange` over a
fleet of HTTP node handles: routing, scatter/gather and failover are the
exact code paths the thread exchange runs.

Wire format: JSON envelopes on every endpoint.  Databases, workloads and
outcomes travel as base64-pickled payloads *inside* the JSON — the nodes
are trusted peers running this same codebase (exactly the trust model of
the process pool's pickle channel), not an open API; do not expose a node
to untrusted callers.  Outcome streaming uses newline-delimited JSON with
chunked transfer, so the client sees each outcome as the node finishes it.

Endpoints::

    GET  /healthz            -> {"node_id": ..., "alive": true}
    GET  /stats              -> NodeStats.as_dict()
    POST /databases          <- {"database": b64}        -> {"fingerprint": fp}
    POST /serve              <- {"fingerprint": fp, "workload": b64,
                                 "deadlines": {index: seconds_remaining}}
                             -> ndjson: {"outcome": b64} ... {"done": count}
    POST /kill               -> abrupt runtime teardown (fault injection)

Cancellation over the wire is deadline-only and best-effort: remaining
seconds ship with the serve request and the node rebuilds tokens against
its own monotonic clock; explicit cancel flags do not cross the socket
(the client simply stops reading, and failover/abandonment semantics are
enforced client-side by the routed exchange).

Fault tolerance (see :mod:`~repro.service.exchange.health`): a handle
built with a :class:`~repro.service.exchange.health.RetryPolicy` retries
transport faults on control requests, and re-dispatches a serve whose
stream died *before its first outcome* on the same node (idempotent by
determinism); once an outcome has been yielded, a dead stream raises so
the exchange's kill-check-before-yield failover recomputes the tail on
another node.  The node's runtime keeps at most
:data:`~repro.service.exchange.nodes.MAX_DATABASES` databases warm; a
client holding a stale shipped-set — node restarted, or its database was
evicted — gets a 409 on ``/serve`` and transparently re-ships once.  That
409 is the only correction a shipped-set needs.
"""

from __future__ import annotations

import base64
import json
import pickle
import sys
import threading
from collections.abc import Iterator
from http.client import HTTPConnection, HTTPException
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import monotonic, sleep

from ...exceptions import ReproError
from ...metrics import NodeStats
from ..cancellation import CancellationToken
from ..outcome import QueryOutcome
from ..server import CancelArg
from ..workload import Workload
from .base import AnyDatabase, Node
from .health import RetryPolicy
from .manager import NodeLauncher, NodeManager
from .nodes import ThreadNode
from .threads import RoutedExchange

#: Exception shapes the client treats as transport faults: retriable on
#: control requests and on serve dispatch before the first outcome.
#: ``HTTPException`` covers a peer replying garbage (truncated or corrupted
#: responses surface as ``BadStatusLine`` / ``IncompleteRead``).
TRANSPORT_FAULTS = (ConnectionError, HTTPException, OSError)


class _StaleDatabaseError(ReproError):
    """The node no longer holds a database this handle believes it shipped."""


def encode_payload(obj) -> str:
    """Pickle an object into a JSON-safe base64 string (trusted peers only)."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def decode_payload(text: str):
    return pickle.loads(base64.b64decode(text.encode("ascii")))


# ------------------------------------------------------------------- node side


class _NodeRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    # The runtime is attached to the server object by HttpNodeServer.
    def log_message(self, *args) -> None:  # silence per-request stderr noise
        pass

    def _reply_json(self, payload: dict, status: int = 200) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        length = int(self.headers.get("Content-Length", "0"))
        return json.loads(self.rfile.read(length) or b"{}")

    def do_GET(self) -> None:
        runtime: ThreadNode = self.server.runtime
        if self.path == "/healthz":
            self._reply_json({"node_id": runtime.node_id, "alive": runtime.alive})
        elif self.path == "/stats":
            self._reply_json(runtime.stats().as_dict())
        else:
            self._reply_json({"error": f"unknown path {self.path}"}, status=404)

    def do_POST(self) -> None:
        runtime: ThreadNode = self.server.runtime
        try:
            if self.path == "/databases":
                request = self._read_json()
                fingerprint = runtime.ensure_database(decode_payload(request["database"]))
                self._reply_json({"fingerprint": fingerprint})
            elif self.path == "/serve":
                self._serve(runtime, self._read_json())
            elif self.path == "/kill":
                runtime.kill()
                self._reply_json({"killed": True})
            else:
                self._reply_json({"error": f"unknown path {self.path}"}, status=404)
        except (BrokenPipeError, ConnectionResetError):
            # The client abandoned the stream (failover, cancellation, or
            # injected network chaos): there is no one left to reply to, so
            # drop the connection quietly instead of tracebacking to stderr.
            self.close_connection = True
        except ReproError as error:
            self._reply_json({"error": str(error)}, status=409)
        except Exception as error:  # pragma: no cover - defensive
            self._reply_json({"error": f"{type(error).__name__}: {error}"}, status=500)

    def _serve(self, runtime: ThreadNode, request: dict) -> None:
        fingerprint = request["fingerprint"]
        database = runtime.database(fingerprint)
        if database is None:
            self._reply_json(
                {"error": f"database {fingerprint!r} not registered"}, status=409
            )
            return
        workload: Workload = decode_payload(request["workload"])
        cancel = None
        deadlines = request.get("deadlines") or {}
        if deadlines:
            now = monotonic()
            cancel = {
                int(index): CancellationToken(deadline_at=now + max(0.0, seconds))
                for index, seconds in deadlines.items()
            }
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        count = 0
        for outcome in runtime.serve_iter(workload, database, cancel=cancel):
            self._write_chunk({"outcome": encode_payload(outcome)})
            count += 1
        self._write_chunk({"done": count})
        self.wfile.write(b"0\r\n\r\n")

    def _write_chunk(self, payload: dict) -> None:
        line = json.dumps(payload).encode() + b"\n"
        self.wfile.write(f"{len(line):x}\r\n".encode() + line + b"\r\n")
        self.wfile.flush()


class _NodeHttpServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that treats client transport faults as routine.

    A handle abandoning a keep-alive connection (or a chaos proxy resetting
    it mid-stream) surfaces here as ``ConnectionResetError`` /
    ``BrokenPipeError``; the stock ``handle_error`` tracebacks those to
    stderr, which drowns real faults in noise under network chaos.
    """

    def handle_error(self, request, client_address):
        exc = sys.exception()
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            return
        super().handle_error(request, client_address)


class HttpNodeServer:
    """One serving node behind a loopback (or LAN) socket.

    The runtime is a plain :class:`ThreadNode`; the HTTP layer adds only
    transport.  ``port=0`` binds an ephemeral port — read :attr:`address`.
    Shipped databases live in the runtime, one warm server each, so the
    runtime's bound is the node's: a client whose database was evicted sees
    a 409 on ``/serve`` and re-ships.
    """

    def __init__(
        self,
        node_id: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int | None = None,
    ) -> None:
        self.runtime = ThreadNode(node_id, max_workers=max_workers)
        self._httpd = _NodeHttpServer((host, port), _NodeRequestHandler)
        self._httpd.runtime = self.runtime
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name=f"http-node-{node_id}", daemon=True
        )
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return host, port

    def close(self) -> None:
        self.runtime.close()
        self._httpd.shutdown()
        self._httpd.server_close()


# ----------------------------------------------------------------- client side


class HttpNode(Node):
    """Client-side handle to a remote node, speaking the wire format above.

    ``alive`` is the client's belief: it flips to ``False`` on any failed
    request (connection refused, node-side error) and back to ``True`` only
    through a successful :meth:`heartbeat` probe.  So is the set of shipped
    fingerprints: a serve the node answers with a 409 (it restarted, or
    evicted the database) drops that fingerprint and re-ships it once.

    Args:
        timeout: per-request socket timeout in seconds (connection,
            per-read); a ``retry`` carrying ``attempt_timeout`` overrides it.
        retry: optional :class:`RetryPolicy` — transport faults on control
            requests retry under it, and a serve stream dying before its
            first outcome is re-dispatched on this same node (deterministic
            serving makes the re-dispatch idempotent).  ``None`` keeps the
            fail-fast behavior: one attempt, first fault raises.
    """

    def __init__(
        self,
        node_id: str,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.node_id = node_id
        self._host = host
        self._port = port
        if retry is not None and retry.attempt_timeout is not None:
            timeout = retry.attempt_timeout
        self._timeout = timeout
        self._retry = retry
        self._alive = True
        self._killed = False
        self._shipped: set[str] = set()

    # ------------------------------------------------------------------ state

    @property
    def alive(self) -> bool:
        return self._alive and not self._killed

    @property
    def killed(self) -> bool:
        return self._killed

    def heartbeat(self) -> bool:
        try:
            payload = self._request_json("GET", "/healthz")
            self._alive = bool(payload.get("alive"))
        except Exception:
            self._alive = False
        return self.alive

    # ---------------------------------------------------------------- serving

    def ensure_database(self, database: AnyDatabase) -> str:
        fingerprint = database.content_fingerprint()
        if fingerprint not in self._shipped:
            reply = self._request_json(
                "POST", "/databases", {"database": encode_payload(database)}
            )
            remote = reply.get("fingerprint")
            if remote != fingerprint:
                # Never cache the node's key on trust: a digest disagreement
                # means the peers run skewed code (or the payload was mangled
                # in transit) and every later routing decision would be wrong.
                raise ReproError(
                    f"node {self.node_id!r} fingerprint mismatch for shipped "
                    f"database: local {fingerprint!r} != node {remote!r}"
                )
            self._shipped.add(fingerprint)
        return fingerprint

    def serve_iter(
        self,
        workload: Workload,
        database: AnyDatabase,
        *,
        cancel: CancelArg = None,
    ) -> Iterator[QueryOutcome]:
        fingerprint = self.ensure_database(database)
        deadlines: dict[int, float] = {}
        if cancel is not None:
            now = monotonic()
            for index, token in cancel.items():
                if token is not None and token.deadline_at is not None:
                    deadlines[index] = token.deadline_at - now
        request = {
            "fingerprint": fingerprint,
            "workload": encode_payload(workload),
            "deadlines": deadlines,
        }
        redispatch = iter(
            self._retry.sleep_schedule() if self._retry is not None else ()
        )
        reshipped = False
        while True:
            served = 0
            try:
                for outcome in self._serve_attempt(request):
                    served += 1
                    yield outcome
                return
            except _StaleDatabaseError:
                # The node no longer holds this content (restart, or LRU
                # eviction): drop the stale belief, re-ship once, re-dispatch.
                if reshipped:
                    raise
                reshipped = True
                self._shipped.discard(fingerprint)
                request["fingerprint"] = self.ensure_database(database)
            except TRANSPORT_FAULTS as error:
                # Re-dispatch is only idempotent before the first outcome
                # reached the caller; past that point the exchange's failover
                # must recompute the tail on another node instead.
                delay = next(redispatch, None) if served == 0 else None
                if delay is None:
                    self._alive = False
                    raise ReproError(
                        f"node {self.node_id!r} connection failed: {error}"
                    ) from error
                sleep(delay)

    def _serve_attempt(self, request: dict) -> Iterator[QueryOutcome]:
        """One ``POST /serve`` attempt; transport faults propagate raw."""
        connection = self._connect()
        try:
            body = json.dumps(request)
            connection.request(
                "POST", "/serve", body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            if response.status != 200:
                detail = response.read().decode(errors="replace")
                if response.status == 409 and "not registered" in detail:
                    raise _StaleDatabaseError(
                        f"node {self.node_id!r} no longer holds this database: "
                        f"{detail}"
                    )
                raise ReproError(
                    f"node {self.node_id!r} refused workload "
                    f"(HTTP {response.status}): {detail}"
                )
            count = None
            served = 0
            for raw in response:
                line = raw.strip()
                if not line:
                    continue
                try:
                    message = json.loads(line)
                except ValueError as error:
                    # A node dying mid-response can splice error payloads into
                    # the chunk stream; treat any corruption as node failure.
                    self._alive = False
                    raise ReproError(
                        f"node {self.node_id!r} stream corrupted: {error}"
                    ) from error
                if "outcome" in message:
                    served += 1
                    try:
                        outcome = decode_payload(message["outcome"])
                    except Exception as error:
                        self._alive = False
                        raise ReproError(
                            f"node {self.node_id!r} stream corrupted: {error}"
                        ) from error
                    yield outcome
                elif "done" in message:
                    count = message["done"]
            if count is None or count != served:
                self._alive = False
                raise ReproError(
                    f"node {self.node_id!r} stream ended early "
                    f"({served} outcomes, terminator={count!r})"
                )
        finally:
            connection.close()

    # -------------------------------------------------------------- lifecycle

    def stats(self) -> NodeStats:
        """The node's ``/stats`` snapshot; an unreachable node reports itself
        dead with zero counters, so it cannot take the fleet's metrics down."""
        try:
            return NodeStats.from_dict(self._request_json("GET", "/stats"))
        except ReproError:
            return NodeStats(self.node_id, alive=False)

    def kill(self) -> None:
        self._killed = True
        try:
            self._request_json("POST", "/kill")
        # repro: allow[err-swallowed-except] -- kill is best-effort: the node
        # may already be gone, and the client-side killed flag is the truth
        except Exception:
            pass

    def close(self) -> None:
        self._alive = False

    # --------------------------------------------------------------- plumbing

    def _connect(self) -> HTTPConnection:
        return HTTPConnection(self._host, self._port, timeout=self._timeout)

    def _request_json(self, method: str, path: str, payload: dict | None = None) -> dict:
        try:
            if self._retry is None:
                return self._request_once(method, path, payload)
            return self._retry.run(
                lambda: self._request_once(method, path, payload),
                retriable=TRANSPORT_FAULTS,
            )
        except TRANSPORT_FAULTS as error:
            self._alive = False
            raise ReproError(
                f"node {self.node_id!r} connection failed: {error}"
            ) from error

    def _request_once(self, method: str, path: str, payload: dict | None) -> dict:
        """One control request; transport faults propagate raw (retriable)."""
        connection = self._connect()
        try:
            body = json.dumps(payload) if payload is not None else None
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            data = response.read()
            if response.status != 200:
                self._alive = False
                raise ReproError(
                    f"node {self.node_id!r} {method} {path} -> HTTP {response.status}: "
                    + data.decode(errors="replace")
                )
            return json.loads(data)
        finally:
            connection.close()


class HttpNodeLauncher(NodeLauncher):
    """Launches loopback :class:`HttpNodeServer`\\ s and hands out handles.

    In-process by construction (each node is a daemon HTTP server thread in
    this interpreter) — the transport is real, the deployment is a harness.
    Launching against remote hosts means constructing :class:`HttpNode`
    handles yourself and registering them on the manager.

    ``request_timeout`` / ``retry`` configure every handle this launcher
    hands out.
    """

    #: Handle class :meth:`launch` constructs; subclasses substitute their
    #: own (the chaos launcher in ``tests/faults.py`` hands out handles whose
    #: transport misbehaves on cue), and ``replace()`` then inherits it.
    handle_class: type[HttpNode] = HttpNode

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        max_workers: int | None = None,
        request_timeout: float = 30.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        self._host = host
        self._max_workers = max_workers
        self._request_timeout = request_timeout
        self._retry = retry
        self._servers: list[HttpNodeServer] = []

    def launch(self, node_id: str) -> HttpNode:
        server = HttpNodeServer(node_id, host=self._host, max_workers=self._max_workers)
        self._servers.append(server)
        host, port = server.address
        return self.handle_class(
            node_id, host, port, timeout=self._request_timeout, retry=self._retry
        )

    def close(self) -> None:
        for server in self._servers:
            server.close()
        self._servers.clear()


class HttpExchange(RoutedExchange):
    """Fingerprint-routed serving over HTTP nodes.

    Same routing, scatter/gather and failover engine as
    :class:`~repro.service.exchange.threads.ThreadExchange`; only the node
    transport differs.  ``manager`` brings a ready fleet (for example one
    whose launcher hands out fault-injecting handles); the other arguments
    configure the :class:`HttpNodeLauncher` built when it is omitted.
    """

    def __init__(
        self,
        nodes: int = 2,
        *,
        manager: NodeManager | None = None,
        host: str = "127.0.0.1",
        max_workers: int | None = None,
        request_timeout: float = 30.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        if manager is None:
            manager = NodeManager(
                HttpNodeLauncher(
                    host=host,
                    max_workers=max_workers,
                    request_timeout=request_timeout,
                    retry=retry,
                )
            )
        if not manager.node_ids():
            if nodes < 1:
                raise ValueError(f"an HttpExchange needs >= 1 node (got {nodes})")
            manager.spawn(nodes)
        super().__init__(manager)
