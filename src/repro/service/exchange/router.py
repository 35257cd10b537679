"""Fingerprint routing: rendezvous hashing from databases to nodes.

The routed exchanges keep each node warm for "its" databases: every database
content fingerprint is owned by exactly one node of the current live set, so
repeated workloads against the same database land on the same warm pool and
the result-level cache that already holds their answers.

Rendezvous (highest-random-weight) hashing gives the two properties the
fleet needs without any coordination state:

* **determinism** — every caller with the same live set computes the same
  owner, with no routing table to replicate or invalidate;
* **minimal disruption** — when a node leaves, only the keys it owned move
  (they redistribute over the survivors); when a node joins, it steals only
  the keys it now wins.  Crucially, a *replacement* node registered under the
  dead node's id owns exactly the dead node's keys — which is why
  :meth:`~repro.service.exchange.manager.NodeManager.replace` reuses ids.

The hash is ``sha256(node_id || "::" || fingerprint)``: stable across
processes and hosts (no :func:`hash` randomization), keyed on content so
equal databases route identically everywhere.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

from ...exceptions import ReproError


class Router:
    """Stateless rendezvous router over whatever node ids it is handed."""

    @staticmethod
    def score(node_id: str, fingerprint: str) -> bytes:
        return hashlib.sha256(f"{node_id}::{fingerprint}".encode()).digest()

    def route(self, fingerprint: str, node_ids: Sequence[str]) -> str:
        """The owning node id for one database fingerprint.

        Raises :class:`~repro.exceptions.ReproError` on an empty live set —
        the caller (the exchange's failover loop) decides whether that means
        replacement or structured failure, not the router.
        """
        if not node_ids:
            raise ReproError("cannot route: no live nodes")
        return max(node_ids, key=lambda node_id: self.score(node_id, fingerprint))
