"""Persistent on-disk stores for per-language analyses and per-query results.

The expensive per-query work of the resilience engine — computing the
infix-free sublanguage ``IF(L)``, classifying it to pick an algorithm and
building that algorithm's artefact — is a pure function of the query
*language*, captured in one :class:`~repro.resilience.engine.QueryPlan`.
:class:`AnalysisStore` persists plans across processes, keyed by the
language's canonical-DFA fingerprint
(:meth:`~repro.languages.core.Language.fingerprint`), so repeated benchmark or
serving runs skip the analysis entirely, even for queries written in a
different but equivalent syntax.  :class:`ResultStore` persists whole
:class:`~repro.resilience.result.ResilienceResult` values one layer further
down, keyed by the full computation identity ``(language fingerprint, database
content fingerprint, semantics, forced method, unsafe)`` — the cross-process
twin of the in-memory result layer of
:class:`~repro.resilience.engine.LanguageCache`, so warm nodes behind a routed
exchange (or a fresh process after a :mod:`repro.service.warm` pass) stop
recomputing what a sibling already answered.  Both are subclasses of
:class:`StoreBackend`, which owns the envelope, the atomic writes, validation
and size/age-bounded compaction.

Trust model: entries are only ever *hints*.  Every entry is wrapped in a
versioned envelope carrying a code-version salt (a digest of the source files
the cached analyses depend on); an entry whose envelope is unreadable, whose
format version is unknown, whose salt does not match the running code, or
whose payload fails its own sanity checks is ignored and recomputed — a
corrupted or stale store can cost time, never correctness.  Ignored entries
are also *evicted* (unlinked) on detection: a poisoned or stale file would
otherwise be re-read, re-validated and re-ignored on every miss forever.
Entries are written atomically (temp file + ``os.replace``), so a crashed
writer cannot leave a torn entry behind, and eviction races between sibling
processes are benign (unlink of an already-unlinked file is a no-op).

The payload uses pickle: plan automata have arbitrary hashable states
(nested tuples, frozensets) that no schema-free text format represents
faithfully, and byte-identical round-trips are exactly what makes a store hit
equal to a fresh computation.  The store is a local cache directory, not an
interchange format — do not point it at untrusted data.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from ..languages.core import Language
from .engine import QueryPlan
from .result import ResilienceResult

#: Envelope format version; bump when the entry layout changes.
STORE_FORMAT_VERSION = 2


@lru_cache(maxsize=1)
def code_version_salt() -> str:
    """Return a digest of the source files the cached plans depend on.

    A stored plan is only valid for the code that computed it: if the
    classifier, the infix-free construction, any part of the language
    substrate or a plan artefact changes, every old entry must be ignored.
    The whole :mod:`repro.languages` package is hashed (the classification
    predicates reach deep into it — ``words.is_strict_infix`` shapes
    ``IF(L)``, for example — and a hand-picked module list is exactly the
    kind of dependency audit that rots), plus the classifier, the planning
    engine and the one-dangling plan.  Over-invalidating on an
    unrelated edit costs one warm-up run; under-invalidating would silently
    serve wrong plans.
    """
    from .. import languages
    from ..classify import classifier
    from . import engine, one_dangling

    paths = set(Path(languages.__file__).parent.glob("*.py"))
    paths |= {Path(module.__file__) for module in (classifier, engine, one_dangling)}
    return _digest_files(paths)


@lru_cache(maxsize=1)
def result_code_salt() -> str:
    """Return a digest of the source files stored *results* depend on.

    A memoized :class:`ResilienceResult` bakes in strictly more code than an
    analysis entry: the resilience algorithms themselves (every module of
    :mod:`repro.resilience`), the flow core that computes every flow value
    and cut (:mod:`repro.flow`) and the database substrate that defines
    content fingerprints and fact semantics (:mod:`repro.graphdb`), on top of
    everything :func:`code_version_salt` already covers.  Any edit to those
    files invalidates every stored result — one cold run, never a wrong
    answer.
    """
    from .. import flow, graphdb, languages
    from ..classify import classifier

    paths = set(Path(languages.__file__).parent.glob("*.py"))
    paths |= set(Path(flow.__file__).parent.glob("*.py"))
    paths |= set(Path(graphdb.__file__).parent.glob("*.py"))
    paths |= set(Path(__file__).parent.glob("*.py"))
    paths.add(Path(classifier.__file__))
    return _digest_files(paths)


def _digest_files(paths: set[Path]) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.name.encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class StoreStats:
    """Counters of one store instance (not persisted).

    ``evictions`` counts files this instance unlinked — invalid entries
    dropped on detection plus compaction victims.
    """

    hits: int
    misses: int
    writes: int
    ignored: int
    evictions: int = 0


def _plan_meta(infix_free: Language | None) -> dict:
    if infix_free is None:
        return {"states": 0, "transitions": 0}
    automaton = infix_free.automaton
    return {"states": len(automaton.states), "transitions": len(automaton.transitions)}


class StoreBackend:
    """Shared machinery of the on-disk stores: one directory of entry files.

    Subclasses fix the entry ``suffix``, the default code-version salt and
    the payload schema; the backend owns the envelope (format version + salt),
    atomic writes, read-time validation with evict-on-detection, and
    :meth:`compact`.  Safe to share between concurrent readers and writers of
    the same code version: writes are atomic renames, any reader that loses a
    race simply recomputes, and racing unlinks are no-ops.
    """

    #: Filename suffix of this backend's entries (overridden per subclass).
    suffix = ".entry"

    def __init__(self, directory: str | os.PathLike, *, salt: str | None = None) -> None:
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._salt = salt if salt is not None else self._default_salt()
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._ignored = 0
        self._evictions = 0

    def _default_salt(self) -> str:
        raise NotImplementedError

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def salt(self) -> str:
        return self._salt

    def _path(self, name: str) -> Path:
        return self._directory / f"{name}{self.suffix}"

    def _load(self, name: str, validate: "Callable[[dict], None]") -> dict | None:
        """Read and validate one envelope; evict anything that fails.

        A missing file is a plain miss.  An unreadable, stale-version,
        wrong-salt or internally inconsistent entry counts as an ``ignored``
        miss *and is unlinked*: the store never trusts an entry it cannot
        fully validate, and keeping the file around would re-pay the read and
        the failed validation on every subsequent miss of the same key.
        """
        path = self._path(name)
        try:
            raw = path.read_bytes()
        except OSError:
            self._misses += 1
            return None
        try:
            envelope = pickle.loads(raw)
            if not isinstance(envelope, dict):
                raise ValueError("envelope is not a dict")
            if envelope["format"] != STORE_FORMAT_VERSION:
                raise ValueError("unknown format version")
            if envelope["salt"] != self._salt:
                raise ValueError("stale code-version salt")
            validate(envelope)
        except Exception:
            self._ignored += 1
            self._misses += 1
            self._unlink(path)
            return None
        self._hits += 1
        return envelope

    def _store(self, name: str, payload: dict) -> None:
        """Persist one entry atomically (last writer wins)."""
        envelope = {"format": STORE_FORMAT_VERSION, "salt": self._salt, **payload}
        raw = pickle.dumps(envelope)
        descriptor, temp_name = tempfile.mkstemp(dir=self._directory, suffix=".tmp")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(raw)
            os.replace(temp_name, self._path(name))
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        self._writes += 1

    def _unlink(self, path: Path) -> None:
        try:
            os.unlink(path)
        except OSError:
            return  # a sibling process evicted it first — same outcome
        self._evictions += 1

    def compact(
        self, *, max_entries: int | None = None, max_age_seconds: float | None = None
    ) -> int:
        """Bound the directory by entry count and/or age; return evicted count.

        Age is measured from each file's mtime (refreshed on every rewrite),
        and the count bound drops oldest-first — the on-disk analogue of the
        in-memory LRU bounds.  Tolerates concurrent writers and compactors:
        entries that vanish mid-scan are simply skipped.
        """
        entries: list[tuple[float, Path]] = []
        for path in self._directory.glob(f"*{self.suffix}"):
            try:
                entries.append((path.stat().st_mtime, path))
            except OSError:
                continue  # raced a sibling's eviction
        entries.sort(key=lambda pair: pair[0])
        before = self._evictions
        if max_age_seconds is not None:
            # mtimes are wall-clock by nature; a clock jump can only make
            # compaction keep entries longer or drop them earlier — a cache
            # sizing effect, never a correctness one.
            horizon = time.time() - max_age_seconds  # repro: allow[det-wallclock] -- mtime age bound; cache sizing only
            while entries and entries[0][0] < horizon:
                self._unlink(entries.pop(0)[1])
        if max_entries is not None:
            while len(entries) > max_entries:
                self._unlink(entries.pop(0)[1])
        return self._evictions - before

    def stats(self) -> StoreStats:
        """Return this instance's hit/miss/write/ignored/evicted counters."""
        return StoreStats(self._hits, self._misses, self._writes, self._ignored, self._evictions)

    def __len__(self) -> int:
        """Return the number of entries currently on disk."""
        return sum(1 for _ in self._directory.glob(f"*{self.suffix}"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"{type(self).__name__}({str(self._directory)!r}, {len(self)} entries, "
            f"hits={stats.hits}, misses={stats.misses})"
        )


class AnalysisStore(StoreBackend):
    """A directory of per-fingerprint query plans shared across processes.

    One ``.analysis`` file per language fingerprint, holding the language's
    :class:`~repro.resilience.engine.QueryPlan` and its ``plan_meta`` (state
    and transition counts of the infix-free automaton: a cheap cross-check
    of the payload, not an input to any computation).  Use :meth:`stats` to
    observe hit rates, e.g. to assert that a warm benchmark run actually
    exercised the store.
    """

    suffix = ".analysis"

    def _default_salt(self) -> str:
        return code_version_salt()

    def get(self, fingerprint: str) -> QueryPlan | None:
        """Return the stored plan for a fingerprint, or ``None``.

        Unreadable, stale-version, wrong-salt and internally inconsistent
        entries count as ``ignored`` misses and are evicted on detection.
        """

        def validate(envelope: dict) -> None:
            if envelope["fingerprint"] != fingerprint:
                raise ValueError("entry does not match its key")
            plan = envelope["plan"]
            if not isinstance(plan, QueryPlan):
                raise ValueError("payload is not a QueryPlan")
            if envelope["plan_meta"] != _plan_meta(plan.infix_free):
                raise ValueError("plan metadata does not match the payload")

        envelope = self._load(fingerprint, validate)
        return None if envelope is None else envelope["plan"]

    def put(self, fingerprint: str, plan: QueryPlan) -> None:
        """Persist one plan atomically (last writer wins)."""
        self._store(
            fingerprint,
            {"fingerprint": fingerprint, "plan": plan, "plan_meta": _plan_meta(plan.infix_free)},
        )


class ResultStore(StoreBackend):
    """A directory of memoized resilience results shared across processes.

    One ``.result`` file per computation identity — the same five-component
    key the in-memory result layer uses (see
    :meth:`~repro.resilience.engine.LanguageCache.lookup_result` for why
    budgeted queries never participate).  Filenames are a digest of the key
    (database fingerprints compose keys longer than filesystems like), and
    the full logical key is stored inside the envelope and checked on read,
    so a digest collision degrades to a miss, never a wrong answer.
    """

    suffix = ".result"

    def _default_salt(self) -> str:
        return result_code_salt()

    @staticmethod
    def _name(key: tuple) -> str:
        return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:40]

    def get(self, key: tuple) -> ResilienceResult | None:
        """Return the stored result for a computation key, or ``None``."""

        def validate(envelope: dict) -> None:
            if envelope["key"] != key:
                raise ValueError("entry does not match its key")
            if not isinstance(envelope["result"], ResilienceResult):
                raise ValueError("payload is not a ResilienceResult")

        envelope = self._load(self._name(key), validate)
        if envelope is None:
            return None
        return envelope["result"]

    def put(self, key: tuple, result: ResilienceResult) -> None:
        """Persist one result entry atomically (last writer wins)."""
        self._store(self._name(key), {"key": key, "result": result})
