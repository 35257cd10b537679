"""Persistent on-disk stores for per-language analyses and per-query results.

The expensive per-query work of the resilience engine — computing the
infix-free sublanguage ``IF(L)``, classifying it to pick an algorithm and
building that algorithm's artefact — is a pure function of the query
*language*, captured in one :class:`~repro.resilience.engine.QueryPlan`.
:class:`AnalysisStore` persists plans across processes, keyed by the
language's canonical-DFA fingerprint
(:meth:`~repro.languages.core.Language.fingerprint`), so repeated benchmark or
serving runs skip the analysis entirely, even for queries written in a
different but equivalent syntax.  Next to each plan it keeps one *expression
entry* per query string — the string's parsed automaton and its fingerprint —
so a restarted process resolves a string it met before without parsing or
canonicalizing it.  :class:`ResultStore` persists whole
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

from ..languages.automata import EpsilonNFA
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
    engine and the one-dangling plan.  The package also holds the regex
    compiler and the canonicalization, so the salt covers expression entries
    too.  Over-invalidating on an unrelated edit costs one warm-up run;
    under-invalidating would silently serve wrong plans.
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

    ``hits``, ``misses`` and ``writes`` count the keyed entries — plans of an
    :class:`AnalysisStore`, results of a :class:`ResultStore`.  An analysis
    store counts its expression entries apart, in ``expression_hits`` and
    ``expression_writes``.  ``ignored`` and ``evictions`` count files of
    either kind: entries dropped on detection, and files this instance
    unlinked (those plus compaction victims).
    """

    hits: int
    misses: int
    writes: int
    ignored: int
    evictions: int = 0
    expression_hits: int = 0
    expression_writes: int = 0


def _plan_meta(infix_free: Language | None) -> dict:
    if infix_free is None:
        return {"states": 0, "transitions": 0}
    automaton = infix_free.automaton
    return {"states": len(automaton.states), "transitions": len(automaton.transitions)}


class StoreBackend:
    """Shared machinery of the on-disk stores: one directory of entry files.

    Subclasses fix the entry ``suffix``, the default code-version salt and
    the payload schema, and count their own hits, misses and writes; the
    backend owns the envelope (format version + salt), atomic writes,
    read-time validation with evict-on-detection, and :meth:`compact`.  Safe
    to share between concurrent readers and writers of the same code version:
    writes are atomic renames, any reader that loses a race simply
    recomputes, and racing unlinks are no-ops.
    """

    #: Filename suffix of this backend's keyed entries (overridden per subclass).
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
        self._expression_hits = 0
        self._expression_writes = 0

    def _default_salt(self) -> str:
        raise NotImplementedError

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def salt(self) -> str:
        return self._salt

    def _kinds(self) -> tuple[str, ...]:
        """The filename suffix of each kind of entry in the directory."""
        return (self.suffix,)

    @staticmethod
    def _digest(key: object) -> str:
        """A filename for a key that may not make one (a tuple, any string)."""
        return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:40]

    def _load(self, filename: str, validate: "Callable[[dict], None]") -> dict | None:
        """Read and validate one envelope; evict anything that fails.

        Returns ``None`` for a missing file, and for an unreadable,
        stale-version, wrong-salt or internally inconsistent entry, which
        also counts as ``ignored`` *and is unlinked*: the store never trusts
        an entry it cannot fully validate, and keeping the file around would
        re-pay the read and the failed validation on every subsequent miss of
        the same key.  The caller counts the hit or miss.
        """
        path = self._directory / filename
        try:
            raw = path.read_bytes()
        except OSError:
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
            self._unlink(path)
            return None
        return envelope

    def _store(self, filename: str, payload: dict) -> None:
        """Persist one entry atomically (last writer wins)."""
        envelope = {"format": STORE_FORMAT_VERSION, "salt": self._salt, **payload}
        raw = pickle.dumps(envelope)
        descriptor, temp_name = tempfile.mkstemp(dir=self._directory, suffix=".tmp")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(raw)
            os.replace(temp_name, self._directory / filename)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise

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

        Each kind of entry is bounded apart: an analysis store keeps up to
        ``max_entries`` plans and as many expression entries.  Age is
        measured from each file's mtime, which is when the entry was written:
        an entry is written when a session computed it, never on a hit (and
        a result entry only when no file holds its key), so the count bound
        drops the first computed, not the least used.  Tolerates concurrent
        writers and compactors: entries that vanish mid-scan are skipped.
        """
        horizon = None
        if max_age_seconds is not None:
            # mtimes are wall-clock by nature; a clock jump can only make
            # compaction keep entries longer or drop them earlier — a cache
            # sizing effect, never a correctness one.
            horizon = time.time() - max_age_seconds  # repro: allow[det-wallclock] -- mtime age bound; cache sizing only
        before = self._evictions
        for suffix in self._kinds():
            entries: list[tuple[float, Path]] = []
            for path in self._directory.glob(f"*{suffix}"):
                try:
                    entries.append((path.stat().st_mtime, path))
                except OSError:
                    continue  # raced a sibling's eviction
            entries.sort(key=lambda pair: pair[0])
            if horizon is not None:
                while entries and entries[0][0] < horizon:
                    self._unlink(entries.pop(0)[1])
            if max_entries is not None:
                while len(entries) > max_entries:
                    self._unlink(entries.pop(0)[1])
        return self._evictions - before

    def stats(self) -> StoreStats:
        """Return this instance's counters (see :class:`StoreStats`)."""
        return StoreStats(
            self._hits,
            self._misses,
            self._writes,
            self._ignored,
            self._evictions,
            self._expression_hits,
            self._expression_writes,
        )

    def __len__(self) -> int:
        """Return the number of keyed entries (plans or results) on disk."""
        return sum(1 for _ in self._directory.glob(f"*{self.suffix}"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"{type(self).__name__}({str(self._directory)!r}, {len(self)} entries, "
            f"hits={stats.hits}, misses={stats.misses})"
        )


class AnalysisStore(StoreBackend):
    """A directory of per-fingerprint query plans shared across processes.

    It holds two kinds of entry, both behind the same envelope, salt, atomic
    write, evict-on-invalid read and :meth:`compact`:

    * one ``<fingerprint>.analysis`` file per language fingerprint, holding
      the language's :class:`~repro.resilience.engine.QueryPlan` and its
      ``plan_meta`` (state and transition counts of the infix-free
      automaton: a cheap cross-check of the payload, not an input to any
      computation);
    * one ``<digest>.expression`` file per query string, holding the string,
      its parsed automaton and that automaton's fingerprint, so a process
      that meets a string some earlier process met resolves it — and then
      its plan — without parsing or canonicalizing.  Filenames are a digest
      of the string; the string itself is checked on read.

    Both are safe hints for the same reason: each is a pure function of its
    key and of the code the salt hashes (all of :mod:`repro.languages` — the
    regex compiler and the canonicalization included — the classifier and
    the planner), so a valid entry equals a fresh computation, and an invalid
    one is a miss.  Use :meth:`stats` to observe hit rates, e.g. to assert
    that a warm benchmark run actually exercised the store.
    """

    suffix = ".analysis"
    #: Filename suffix of expression entries.
    expression_suffix = ".expression"

    def _default_salt(self) -> str:
        return code_version_salt()

    def _kinds(self) -> tuple[str, ...]:
        return (self.suffix, self.expression_suffix)

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

        envelope = self._load(f"{fingerprint}{self.suffix}", validate)
        if envelope is None:
            self._misses += 1
            return None
        self._hits += 1
        return envelope["plan"]

    def put(self, fingerprint: str, plan: QueryPlan) -> None:
        """Persist one plan atomically (last writer wins)."""
        self._store(
            f"{fingerprint}{self.suffix}",
            {"fingerprint": fingerprint, "plan": plan, "plan_meta": _plan_meta(plan.infix_free)},
        )
        self._writes += 1

    def get_expression(self, expression: str) -> Language | None:
        """Return the stored language of a query string, or ``None``.

        A hit is ``Language(automaton, name=expression)`` with its
        fingerprint already set, as :meth:`put_expression` saw it.  Invalid
        entries are ignored and evicted like invalid plans.
        """

        def validate(envelope: dict) -> None:
            if envelope["expression"] != expression:
                raise ValueError("entry does not match its key")
            if not isinstance(envelope["automaton"], EpsilonNFA):
                raise ValueError("payload is not an automaton")
            if not isinstance(envelope["fingerprint"], str):
                raise ValueError("fingerprint is not a string")

        envelope = self._load(f"{self._digest(expression)}{self.expression_suffix}", validate)
        if envelope is None:
            return None
        self._expression_hits += 1
        language = Language(envelope["automaton"], name=expression)
        language._fingerprint = envelope["fingerprint"]
        return language

    def put_expression(self, expression: str, language: Language) -> None:
        """Persist the parsed language of a query string and its fingerprint."""
        self._store(
            f"{self._digest(expression)}{self.expression_suffix}",
            {
                "expression": expression,
                "automaton": language.automaton,
                "fingerprint": language.fingerprint(),
            },
        )
        self._expression_writes += 1


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

    def get(self, key: tuple) -> ResilienceResult | None:
        """Return the stored result for a computation key, or ``None``."""

        def validate(envelope: dict) -> None:
            if envelope["key"] != key:
                raise ValueError("entry does not match its key")
            if not isinstance(envelope["result"], ResilienceResult):
                raise ValueError("payload is not a ResilienceResult")

        envelope = self._load(f"{self._digest(key)}{self.suffix}", validate)
        if envelope is None:
            self._misses += 1
            return None
        self._hits += 1
        return envelope["result"]

    def put(self, key: tuple, result: ResilienceResult) -> None:
        """Persist one result atomically, unless its entry is already on disk.

        First writer wins, as in the in-memory result layer: a result is a
        deterministic function of its key, so an existing entry holds an
        equal one, and rewriting it would cost a disk write each time a
        budgeted spec (which never hits) re-runs in a new session.  A stale
        or corrupt entry is not overwritten here; its next read evicts it,
        and the recomputed result is written then.
        """
        filename = f"{self._digest(key)}{self.suffix}"
        if (self._directory / filename).exists():
            return
        self._store(filename, {"key": key, "result": result})
        self._writes += 1
