"""The resilience engine: plan a query once, then execute the plan on databases.

Every tractable case of the paper is work on the query alone followed by a
MinCut on the database, so the engine is split in two.  :func:`plan_query`
does all the query-only work: it replaces the language by its infix-free
sublanguage (the query is unchanged, Section 2), picks an algorithm — the
local-language MinCut reduction (Theorem 3.13), the bipartite-chain reduction
(Proposition 7.6), the one-dangling reduction (Proposition 7.9), or the exact
branch-and-bound baseline, which is correct for every language but may take
exponential time — and builds that algorithm's query-only artefact into a
frozen :class:`QueryPlan`.  :func:`execute` runs a plan on a database and
does database work only; :func:`resilience` is ``execute(plan_query(...))``.

Forced-method semantics: passing ``method=`` normally *validates* that the
forced algorithm is applicable to the (infix-free) query language and raises
:class:`~repro.exceptions.ReproError` when it is not — running, say, the
local-flow reduction on a non-local language silently returns a wrong value,
so this is an error, not a fallback.  Callers that knowingly want the
unchecked behaviour (e.g. the combined-complexity experiments, which run a
reduction on the local *overapproximation*) pass ``unsafe=True``.

Batched serving: :func:`resilience_many` evaluates a fleet of queries against
one database.  The database's fact index is built once and shared by every
query, and a :class:`LanguageCache` plans each equivalence class of queries
once, so duplicate and equivalent queries execute one shared plan.  For
parallel serving with per-query budgets and structured outcomes, see
:mod:`repro.service`.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import asdict, dataclass, fields, replace
from typing import TYPE_CHECKING

from ..exceptions import ReproError
from ..graphdb.database import BagGraphDatabase, GraphDatabase, as_bag, as_set
from ..languages import chain, dangling, local, read_once
from ..languages.core import Language
from ..rpq.query import RPQ
from .bcl_flow import resilience_bcl
from .exact import resilience_exact
from .local_flow import resilience_local
from .one_dangling import plan_one_dangling, resilience_one_dangling
from .result import INFINITE, ResilienceResult

if TYPE_CHECKING:
    from .store import AnalysisStore, ResultStore


def choose_method(language: Language, *, infix_free: Language | None = None) -> str:
    """Return the name of the algorithm the dispatcher would use for a language.

    One of ``"trivial-epsilon"``, ``"local-flow"``, ``"bcl-flow"``,
    ``"one-dangling-flow"`` or ``"exact"``.  Callers that already computed the
    infix-free sublanguage (an expensive operation) can pass it through
    ``infix_free`` to avoid recomputing it.
    """
    if language.contains(""):
        return "trivial-epsilon"
    if infix_free is None:
        infix_free = language.infix_free()
    if local.is_local(infix_free):
        return "local-flow"
    if chain.is_bipartite_chain_language(infix_free):
        return "bcl-flow"
    if dangling.is_one_dangling(infix_free):
        return "one-dangling-flow"
    return "exact"


_FORCED_METHOD_PRECONDITIONS = {
    "local-flow": local.is_local,
    "bcl-flow": chain.is_bipartite_chain_language,
    "one-dangling-flow": dangling.is_one_dangling,
    "exact": lambda language: True,
    "trivial-epsilon": lambda language: language.contains(""),
}


def _check_forced_method(method: str, infix_free: Language, unsafe: bool) -> None:
    if unsafe or _FORCED_METHOD_PRECONDITIONS[method](infix_free):
        return
    raise ReproError(
        f"method {method!r} is not applicable to this language; its result would be "
        f"meaningless (pass unsafe=True to bypass the check)"
    )


def _as_language(query: Language | RPQ | str) -> Language:
    if isinstance(query, str):
        return Language.from_regex(query)
    if isinstance(query, RPQ):
        return query.language
    return query


@dataclass(frozen=True)
class QueryPlan:
    """Everything the engine decides about a query before it sees a database.

    Built only by :func:`plan_query` and run by :func:`execute`.  A plan is a
    pure function of the query language (and of a forced method), so caches
    hold one per equivalence class, the on-disk
    :class:`~repro.resilience.store.AnalysisStore` persists it, and the
    serving layer ships it to worker processes as is.

    Attributes:
        method: the algorithm to run (see :func:`choose_method`).
        infix_free: the infix-free sublanguage every algorithm runs on;
            ``None`` when the language contains the empty word, whose
            resilience is infinite on every database.
        artefact: the method's query-only input — the RO-ε-NFA of the
            language (``"local-flow"``), its
            :class:`~repro.languages.chain.BclStructure` (``"bcl-flow"``) or
            its :class:`~repro.resilience.one_dangling.DanglingPlan`
            (``"one-dangling-flow"``); ``None`` for the exact search.
    """

    method: str
    infix_free: Language | None = None
    artefact: object = None


def plan_query(
    language: Language, *, method: str | None = None, unsafe: bool = False
) -> QueryPlan:
    """Plan a query language: classify it and build its method's artefact.

    ``method`` forces an algorithm, whose applicability is validated unless
    ``unsafe`` (see the module docstring).  Raises ``ValueError`` for an
    unknown method and :class:`~repro.exceptions.ReproError` for an
    inapplicable one.
    """
    if method is not None and method not in _FORCED_METHOD_PRECONDITIONS:
        raise ValueError(f"unknown resilience method: {method}")
    # The empty word makes resilience infinite whatever algorithm is forced.
    if language.contains(""):
        return QueryPlan("trivial-epsilon")
    infix_free = language.infix_free()
    if method is None:
        method = choose_method(language, infix_free=infix_free)
    else:
        _check_forced_method(method, infix_free, unsafe)
    # Locality was decided above (or waived by ``unsafe``, which then runs
    # on the local overapproximation), so the local artefact skips the check.
    if method == "local-flow":
        artefact = read_once.read_once_automaton_unchecked(infix_free)
    elif method == "bcl-flow":
        artefact = chain.bcl_structure(infix_free)
    elif method == "one-dangling-flow":
        artefact = plan_one_dangling(infix_free)
    else:
        artefact = None
    return QueryPlan(method, infix_free, artefact)


def warm_database(database: GraphDatabase | BagGraphDatabase) -> None:
    """Build the database's shared fact indexes exactly once.

    Warms the set view's index (the exact search path) and the bag view's
    (the flow reductions run on bags — for set databases the cached
    :meth:`~repro.graphdb.database.GraphDatabase.unit_bag` view, whose index
    carries the shared flow substrates).  Called before fanning out over a
    query fleet so every query hits the same cached adjacency structures
    (batched serving here, per-worker warm-up in :mod:`repro.service.serve`).
    """
    as_set(database).index()
    as_bag(database).index()


@dataclass
class CacheStats:
    """Observability counters of one :class:`LanguageCache`.

    Attributes:
        canonical_hits: queries resolved to an already-analysed equivalent
            language via the canonical-fingerprint layer.
        canonical_misses: queries that became the representative of a new
            equivalence class.
        classifications: how many query plans were actually built — the
            acceptance observable: equivalent queries share one plan.
        result_hits: queries answered from the result-level cache — an
            identical ``(query class, database, semantics, method)`` tuple was
            already computed (this session, or by any process sharing a
            :class:`~repro.resilience.store.ResultStore`), so the memoized
            :class:`~repro.resilience.result.ResilienceResult` is returned
            without touching the engine (or, in the serving layer, the worker
            pool).
        result_misses: *cacheable* computations the result layer could not
            serve — counted at completion time (:meth:`LanguageCache.store_result`),
            so the hit rate ``hits / (hits + misses)`` reflects cacheable
            traffic only.
        result_uncacheable: completions the result layer can never serve or
            memoize — error and budget-exceeded outcomes.  Counted separately
            so error-heavy chaos traffic cannot skew the hit rate.
        evictions: entries dropped by the size/age bounds (all layers).
        entries: **gauge** — entries currently held across the cache's maps
            (expression, canonical class and result layers, plus the plan
            memo when the canonical layer is off).
        bytes_estimate: **gauge** — rough in-memory footprint of the held
            languages and results (automaton- and contingency-set-sized
            estimates, not exact byte counts).
    """

    canonical_hits: int = 0
    canonical_misses: int = 0
    classifications: int = 0
    result_hits: int = 0
    result_misses: int = 0
    result_uncacheable: int = 0
    evictions: int = 0
    entries: int = 0
    bytes_estimate: int = 0

    #: Fields that are point-in-time gauges, not monotone counters — the
    #: Prometheus exposition must not render these with a ``_total`` suffix.
    GAUGE_FIELDS = ("entries", "bytes_estimate")

    def snapshot(self) -> "CacheStats":
        """A frozen-in-time copy (the live object keeps counting)."""
        return replace(self)

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict — the metrics-surface serialization."""
        return asdict(self)

    @classmethod
    def aggregate(cls, parts: "Iterable[CacheStats]") -> "CacheStats":
        """Sum several caches' counters into one roll-up.

        The aggregation hook of the serving layer's metrics surface: a front
        end multiplexing workloads over several session caches reports one
        combined :class:`CacheStats` without reaching into cache internals.
        """
        total = cls()
        for part in parts:
            for field in fields(cls):
                setattr(total, field.name, getattr(total, field.name) + getattr(part, field.name))
        return total


def _estimate_language_bytes(language: Language) -> int:
    """Rough footprint of a held language: automaton-sized, never exact."""
    automaton = language.automaton
    total = 256 + 64 * (len(automaton.states) + len(automaton.transitions))
    memoized = language._infix_free
    if memoized is not None and memoized is not language:
        inner = memoized.automaton
        total += 256 + 64 * (len(inner.states) + len(inner.transitions))
    return total


def _estimate_result_bytes(result: "ResilienceResult") -> int:
    """Rough footprint of a memoized result: contingency-set-sized."""
    contingency = result.contingency_set
    return 256 + 64 * (0 if contingency is None else len(contingency))


class _BoundedLru:
    """Insertion-ordered map with optional size/age bounds (LRU eviction).

    A plain dict is the backing store (Python dicts preserve insertion
    order); a hit re-inserts the entry at the tail, so the head is always the
    least-recently-used entry.  ``max_entries`` caps the entry count and
    ``max_age_seconds`` drops entries idle longer than the bound (the stamp
    refreshes on every touch).  Every bound-driven removal calls ``on_evict``
    — replacement and explicit deletion do not, so the callback counts real
    evictions only.  Like the dicts it replaces, the map is not locked:
    individual dict operations are atomic under the GIL and racing writers
    at worst duplicate work, never corrupt state.
    """

    __slots__ = ("_data", "_max_entries", "_max_age", "_clock", "_on_evict", "_sizer", "bytes_estimate")

    def __init__(
        self,
        *,
        max_entries: int | None,
        max_age_seconds: float | None,
        clock: Callable[[], float],
        on_evict: Callable[[object, object], None],
        sizer: Callable[[object], int],
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 (got {max_entries})")
        if max_age_seconds is not None and max_age_seconds <= 0:
            raise ValueError(f"max_age_seconds must be positive (got {max_age_seconds})")
        self._data: dict = {}
        self._max_entries = max_entries
        self._max_age = max_age_seconds
        self._clock = clock
        self._on_evict = on_evict
        self._sizer = sizer
        self.bytes_estimate = 0

    def get(self, key, default=None):
        entry = self._data.get(key)
        if entry is None:
            return default
        value, _, size = entry
        if self._max_age is not None:
            self._expire()
            if key not in self._data:
                return default
        # LRU touch: re-insert at the tail with a fresh stamp.  The size
        # recorded at insertion travels with the entry — values can grow
        # after insertion (a language memoizes its infix-free sublanguage in
        # place), so re-measuring on removal would corrupt the accounting.
        self._data.pop(key, None)
        self._data[key] = (value, self._clock(), size)
        return value

    def set(self, key, value) -> None:
        old = self._data.pop(key, None)
        if old is not None:
            self.bytes_estimate -= old[2]
        size = self._sizer(value)
        self._data[key] = (value, self._clock(), size)
        self.bytes_estimate += size
        self._expire()
        self._shrink()

    def setdefault(self, key, value):
        """Insert ``value`` unless the key is live; return the held value."""
        held = self.get(key)
        if held is not None:
            return held
        self.set(key, value)
        return value

    def _evict(self, key) -> None:
        value, _, size = self._data.pop(key)
        self.bytes_estimate -= size
        self._on_evict(key, value)

    def _expire(self) -> None:
        if self._max_age is None:
            return
        horizon = self._clock() - self._max_age
        # Recency order == insertion order here, so stale entries cluster at
        # the head; stop at the first live one.
        for key, (_, stamp, _size) in list(self._data.items()):
            if stamp > horizon:
                break
            if key in self._data:
                self._evict(key)

    def _shrink(self) -> None:
        if self._max_entries is None:
            return
        while len(self._data) > self._max_entries:
            try:
                oldest = next(iter(self._data))
            except StopIteration:  # pragma: no cover - concurrent shrink race
                return
            self._evict(oldest)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def values(self):
        return [entry[0] for entry in self._data.values()]


class _CanonicalClass:
    """One canonical equivalence class: its representative and its plan."""

    __slots__ = ("language", "plan")

    def __init__(self, language: Language, plan: QueryPlan | None = None) -> None:
        self.language = language
        self.plan = plan


class LanguageCache:
    """Session-level cache resolving queries to shared language analyses.

    Equal queries dominate real workloads, and almost all of the per-query
    cost is language analysis, not database work: parsing the regex, computing
    the infix-free sublanguage ``IF(L)`` (which determinizes padded automata),
    and classifying ``IF(L)`` to pick an algorithm.  The cache makes each of
    those a once-per-distinct-*language* cost through a hierarchy of layers:

    * string queries are parsed once per distinct expression and map to one
      shared :class:`~repro.languages.core.Language` instance;
    * the canonical layer (on by default) fingerprints every resolved language
      by its canonical minimal DFA, so *equivalent but syntactically different*
      queries — ``(ab)*a`` and ``a(ba)*`` — share one representative's memoized
      analyses (the hit returns a :meth:`~repro.languages.core.Language.relabelled`
      copy, so each query keeps its own display name);
    * ``Language.infix_free()`` is memoized on the instance itself, so sharing
      the representative shares the infix-free sublanguage;
    * the :class:`QueryPlan` is memoized per fingerprint (per instance when
      the canonical layer is off);
    * an optional :class:`~repro.resilience.store.AnalysisStore` adds an
      on-disk layer below the canonical one: a fingerprint seen by *any*
      previous process resolves its plan from disk instead of recomputing
      it;
    * compiled automaton plans are already shared process-wide by
      :func:`~repro.languages.automata.compile_automaton` (keyed by automaton
      equality), so even two distinct-but-equal languages share one plan.

    The contingency set reported for a query is a deterministic function of
    the equivalence class's *representative* (the first syntactic form seen),
    which may differ from the — equally valid, equally sized — set the same
    syntax would yield uncached; values, methods and statuses never differ.
    Disable the canonical layer (``canonical=False``) to key strictly by
    expression string.

    The cache holds strong references to the languages it has seen; unbounded
    (the default), it is scoped to a serving session (or one
    :func:`resilience_many` batch), not to the process.  Long-lived servers
    pass ``max_entries`` and/or ``max_age_seconds`` to bound every layer with
    LRU eviction — each layer (expression, canonical class, result, and the
    plan memo of ``canonical=False``) then holds at most ``max_entries``
    entries and drops entries idle
    longer than ``max_age_seconds``; evictions are counted in
    :attr:`CacheStats.evictions` and the live footprint is surfaced through
    the :attr:`CacheStats.entries` / :attr:`CacheStats.bytes_estimate` gauges.
    An evicted entry is never a correctness event: the next equivalent query
    simply re-parses/re-classifies (or re-reads the store) and re-enters.
    ``clock`` injects the age-bound's time source for tests (defaults to a
    monotonic clock).  Re-exported as :class:`repro.service.LanguageCache`.
    """

    def __init__(
        self,
        *,
        canonical: bool = True,
        store: "AnalysisStore | None" = None,
        result_store: "ResultStore | None" = None,
        max_entries: int | None = None,
        max_age_seconds: float | None = None,
        clock: "Callable[[], float] | None" = None,
    ) -> None:
        if store is not None and not canonical:
            raise ValueError("an AnalysisStore requires the canonical layer (canonical=True)")
        if result_store is not None and not canonical:
            raise ValueError("a ResultStore requires the canonical layer (canonical=True)")
        self._canonical = canonical
        self._store = store
        self._result_store = result_store
        self.stats = CacheStats()
        # Only the age bound reads the clock, and never for ordering or
        # emitted values — a monotonic source keeps idle-time arithmetic
        # immune to wall-clock jumps.
        if clock is None:
            clock = time.monotonic  # repro: allow[det-wallclock] -- age-bound idle timer; injectable, never emitted
        self._clock = clock

        def bounded(sizer: "Callable[[object], int]") -> _BoundedLru:
            return _BoundedLru(
                max_entries=max_entries,
                max_age_seconds=max_age_seconds,
                clock=clock,
                on_evict=self._note_eviction,
                sizer=sizer,
            )

        self._by_expression = bounded(_estimate_language_bytes)
        # The plan memo of ``canonical=False`` (canonical classes hold their
        # plans).  Keyed by id(); the held tuple keeps the language alive so
        # ids stay valid for exactly as long as the entry is (Language
        # equality is semantic, so an equality-keyed dict would pay an
        # automaton-equivalence check per lookup).  Eviction removes the
        # whole entry, so a recycled id can never alias a stale memo.
        self._plans = bounded(lambda pair: 128)
        self._classes = bounded(lambda cls: _estimate_language_bytes(cls.language))
        self._results = bounded(_estimate_result_bytes)

    @property
    def store(self) -> "AnalysisStore | None":
        return self._store

    @property
    def result_store(self) -> "ResultStore | None":
        return self._result_store

    def _note_eviction(self, key: object, value: object) -> None:
        self.stats.evictions += 1

    def _refresh_gauges(self) -> None:
        maps = (self._by_expression, self._classes, self._plans, self._results)
        self.stats.entries = sum(len(m) for m in maps)
        self.stats.bytes_estimate = sum(m.bytes_estimate for m in maps)

    def language(self, query: Language | RPQ | str) -> Language:
        """Return the (shared) :class:`Language` for a query.

        Strings are parsed once per distinct expression; languages and RPQs
        resolve through the canonical layer (their own instance on a miss, a
        relabelled copy of the representative on a hit).
        """
        if isinstance(query, str):
            cached = self._by_expression.get(query)
            if cached is None:
                cached = self._resolve_canonical(Language.from_regex(query))
                self._by_expression.set(query, cached)
                self._refresh_gauges()
            return cached
        resolved = self._resolve_canonical(_as_language(query))
        self._refresh_gauges()
        return resolved

    def _resolve_canonical(self, language: Language) -> Language:
        """Intern a language by its canonical-DFA fingerprint.

        The first language of an equivalence class becomes its representative
        (warmed from the on-disk store when one is configured); later
        equivalent languages return a relabelled copy of the representative,
        sharing its automaton and every memoized analysis while keeping their
        own display name.
        """
        if not self._canonical:
            return language
        fingerprint = language.fingerprint()
        cached = self._classes.get(fingerprint)
        if cached is None:
            cached = _CanonicalClass(language)
            self.stats.canonical_misses += 1
            if self._store is not None:
                cached.plan = self._store.get(fingerprint)
                if cached.plan is not None and language._infix_free is None:
                    language._infix_free = cached.plan.infix_free
            self._classes.set(fingerprint, cached)
            return language
        self.stats.canonical_hits += 1
        if cached.language is language:
            return language
        return cached.language.relabelled(language.name)

    def plan(self, language: Language) -> QueryPlan:
        """Return the dispatcher's :class:`QueryPlan` for a language, memoized.

        With the canonical layer on, :func:`plan_query` runs once per
        *equivalence class* — and not at all when the on-disk store already
        holds the plan; with it off, once per language instance.
        """
        if not self._canonical:
            key = id(language)  # repro: allow[det-id] -- identity memo key per live instance; never ordered, never emitted
            cached = self._plans.get(key)
            if cached is None:
                self.stats.classifications += 1
                cached = (language, plan_query(language))
                self._plans.set(key, cached)
                self._refresh_gauges()
            return cached[1]
        fingerprint = language.fingerprint()
        entry = self._classes.get(fingerprint)
        if entry is not None and entry.plan is not None:
            return entry.plan
        self.stats.classifications += 1
        # Plan the representative, not a relabelled copy: the infix-free
        # sublanguage ``plan_query`` memoizes must land on the instance every
        # later equivalent query will share.  (A bounded cache may have
        # evicted the class between resolution and planning — then this
        # language simply becomes the new representative.)
        representative = entry.language if entry is not None else language
        plan = plan_query(representative)
        if language._infix_free is None:
            language._infix_free = plan.infix_free
        if entry is not None:
            entry.plan = plan
        else:
            self._classes.set(fingerprint, _CanonicalClass(language, plan))
            self._refresh_gauges()
        if self._store is not None:
            self._store.put(fingerprint, plan)
        return plan

    # ------------------------------------------------------------ result cache

    def _result_key(
        self,
        language: Language,
        database: "GraphDatabase | BagGraphDatabase",
        *,
        semantics: str | None,
        method: str | None,
        unsafe: bool,
    ) -> tuple | None:
        """Identity of a resilience computation, or ``None`` when uncacheable.

        The key is ``(language fingerprint, database content fingerprint,
        effective semantics, forced method, unsafe)``: the result is a
        deterministic function of exactly these five inputs (budgets only
        decide whether the exact fallback *finishes*, never what it returns).
        Requires the canonical layer — without fingerprints, equality of query
        classes is undecidable in O(1).
        """
        if not self._canonical:
            return None
        if semantics is None:
            semantics = "bag" if isinstance(database, BagGraphDatabase) else "set"
        return (
            language.fingerprint(),
            database.content_fingerprint(),
            semantics,
            method,
            unsafe,
        )

    def lookup_result(
        self,
        language: Language,
        database: "GraphDatabase | BagGraphDatabase",
        *,
        semantics: str | None = None,
        method: str | None = None,
        unsafe: bool = False,
        max_nodes: int | None = None,
        max_seconds: float | None = None,
    ) -> "ResilienceResult | None":
        """Return the memoized result of an identical computation, relabelled.

        A hit returns a copy reported under this language's display name (the
        stored result keeps the first query's); values, contingency sets,
        methods and details are the memoized ones — which equal a fresh
        computation's exactly, because results are deterministic functions of
        the key (the conformance suite pins this).

        A *budgeted* query (``max_nodes`` / ``max_seconds``) never hits: its
        defining observable is whether its own execution finishes within the
        budget, which a replayed result cannot answer — serving it from the
        cache would report ``ok`` where the uncached reference reports
        ``budget-exceeded``, and (under concurrent serving) make the outcome
        depend on what happened to run first.  Budgeted queries always
        execute; their *completed* results still feed the cache via
        :meth:`store_result`, because a search that finished within budget is
        identical to an unbounded one.
        """
        if max_nodes is not None or max_seconds is not None:
            return None
        key = self._result_key(
            language, database, semantics=semantics, method=method, unsafe=unsafe
        )
        if key is None:
            return None
        cached = self._results.get(key)
        if cached is None and self._result_store is not None:
            # Cross-process layer: a sibling (or a warming pass) may have
            # computed this exact key already.  A store hit is installed in
            # the in-memory layer so repeats stay off the disk.
            cached = self._result_store.get(key)
            if cached is not None:
                self._results.set(key, cached)
        self._refresh_gauges()
        if cached is None:
            # Not counted as a miss here: misses are counted at completion
            # time (:meth:`store_result`), so a lookup for a computation that
            # ends up failing never skews the cacheable hit rate.
            return None
        self.stats.result_hits += 1
        return cached.with_query(language.name or "")

    def store_result(
        self,
        language: Language,
        database: "GraphDatabase | BagGraphDatabase",
        result: "ResilienceResult",
        *,
        semantics: str | None = None,
        method: str | None = None,
        unsafe: bool = False,
    ) -> None:
        """Memoize a successfully computed result (first writer wins).

        Called at completion time for every *cacheable* computation the
        result layer failed to serve, so this is also where ``result_misses``
        is counted — ``result_hits / (result_hits + result_misses)`` is then
        the hit rate over cacheable traffic exactly.

        The result store is written only for a result new to this session.
        A key the in-memory layer already holds came from a store hit or an
        earlier write-back, so the disk already has an equal result; the
        budgeted specs that still execute (they never hit) do not rewrite it.
        """
        key = self._result_key(
            language, database, semantics=semantics, method=method, unsafe=unsafe
        )
        if key is None:
            return
        self.stats.result_misses += 1
        if self._results.setdefault(key, result) is result and self._result_store is not None:
            self._result_store.put(key, result)
        self._refresh_gauges()

    def note_uncacheable_result(self) -> None:
        """Count a completion the result layer can never serve or memoize.

        Error and budget-exceeded outcomes are not results — memoizing them
        would replay failures for queries that would succeed.  They are
        tallied as ``result_uncacheable`` instead of ``result_misses`` so
        error-heavy chaos traffic cannot skew the cacheable hit rate.  No-op
        when the result layer is off (``canonical=False``), mirroring the
        hit/miss counters it complements.
        """
        if self._canonical:
            self.stats.result_uncacheable += 1

    def __len__(self) -> int:
        return len(self._by_expression)


def execute(
    plan: QueryPlan,
    database: GraphDatabase | BagGraphDatabase,
    *,
    semantics: str | None = None,
    exact_max_nodes: int | None = None,
    exact_max_seconds: float | None = None,
    name: str = "",
) -> ResilienceResult:
    """Run a :class:`QueryPlan` on a database: database work only.

    ``semantics``, ``exact_max_nodes`` and ``exact_max_seconds`` are those of
    :func:`resilience`; ``name`` is the display name the result reports.
    """
    if semantics is None:
        semantics = "bag" if isinstance(database, BagGraphDatabase) else "set"
    infix_free, method, artefact = plan.infix_free, plan.method, plan.artefact
    if infix_free is None:
        return ResilienceResult(INFINITE, None, semantics, "trivial-epsilon", name)
    if method == "local-flow":
        result = resilience_local(infix_free, database, semantics=semantics, automaton=artefact)
    elif method == "bcl-flow":
        result = resilience_bcl(infix_free, database, semantics=semantics, structure=artefact)
    elif method == "one-dangling-flow":
        result = resilience_one_dangling(infix_free, database, semantics=semantics, plan=artefact)
    else:
        # "exact", or "trivial-epsilon" forced unsafely on a language without
        # the empty word.
        result = resilience_exact(
            infix_free,
            database,
            semantics=semantics,
            max_nodes=exact_max_nodes,
            max_seconds=exact_max_seconds,
        )
    # Report under the original query name without mutating the infix-free
    # language the plan shares.
    return result.with_query(name)


def resilience(
    query: Language | RPQ | str,
    database: GraphDatabase | BagGraphDatabase,
    *,
    method: str | None = None,
    unsafe: bool = False,
    semantics: str | None = None,
    exact_max_nodes: int | None = None,
    exact_max_seconds: float | None = None,
) -> ResilienceResult:
    """Compute the resilience of an RPQ on a database.

    Equivalent to ``execute(plan_query(language, method=method,
    unsafe=unsafe), database, ...)`` under the query's display name.

    Args:
        query: the query language, as a :class:`Language`, an :class:`RPQ`, or a
            regular-expression string.
        database: a set or bag graph database.
        method: force a specific algorithm (``"local-flow"``, ``"bcl-flow"``,
            ``"one-dangling-flow"``, ``"exact"``); by default the dispatcher picks
            the fastest sound algorithm based on the language class.  A forced
            method whose applicability precondition fails raises
            :class:`ReproError`.
        unsafe: skip the applicability check of a forced ``method`` (the result
            is then only meaningful if the caller guarantees the precondition).
        semantics: force reporting as ``"set"`` or ``"bag"``; inferred from the
            database type otherwise.
        exact_max_nodes: search-node cap forwarded to the exact baseline.
        exact_max_seconds: wall-clock budget forwarded to the exact baseline.

    Raises:
        SearchBudgetExceeded: when the exact baseline runs and exceeds one of
            its budgets (the serving layer catches this and reports it as a
            structured outcome).

    Returns:
        a :class:`ResilienceResult` with the resilience value, a witnessing
        contingency set (when available) and the algorithm used.
    """
    language = _as_language(query)
    return execute(
        plan_query(language, method=method, unsafe=unsafe),
        database,
        semantics=semantics,
        exact_max_nodes=exact_max_nodes,
        exact_max_seconds=exact_max_seconds,
        name=language.name or "",
    )


def resilience_many(
    queries: Iterable[Language | RPQ | str],
    database: GraphDatabase | BagGraphDatabase,
    *,
    method: str | None = None,
    unsafe: bool = False,
    semantics: str | None = None,
    exact_max_nodes: int | None = None,
    exact_max_seconds: float | None = None,
    cache: "LanguageCache | None" = None,
) -> list[ResilienceResult]:
    """Compute the resilience of many queries against one shared database.

    The database index is compiled once up front and reused by every query
    (indexes are cached on the database instance, so the flow reductions and
    the exact overlay search all hit the same shared adjacency structures).
    Queries are resolved through a session-level :class:`LanguageCache`, so
    duplicate *and equivalent* queries share one :class:`QueryPlan`: the
    infix-free sublanguage, the classification and the method's artefact are
    paid once per distinct language, not once per submission.  A forced
    ``method`` is planned per query, like :func:`resilience` does.  Pass
    ``cache=`` to share that cache across several batches of the same
    session; a cache built with ``LanguageCache(store=...)`` additionally
    persists plans on disk across processes (see
    :class:`~repro.resilience.store.AnalysisStore`).  Results are returned in
    query order.
    """
    if cache is None:
        cache = LanguageCache()
    query_list: Sequence[Language | RPQ | str] = list(queries)
    # Warm the shared structures before fanning out over the query fleet.
    warm_database(database)
    results: list[ResilienceResult] = []
    for query in query_list:
        language = cache.language(query)
        # Result-level layer: an identical query-class × database × semantics
        # × forced-method tuple computed earlier (this batch or a previous one
        # sharing the cache) replays its memoized result — deterministic, so
        # indistinguishable from recomputing (pinned by the conformance suite).
        cached = cache.lookup_result(
            language,
            database,
            semantics=semantics,
            method=method,
            unsafe=unsafe,
            max_nodes=exact_max_nodes,
            max_seconds=exact_max_seconds,
        )
        if cached is not None:
            results.append(cached)
            continue
        plan = (
            cache.plan(language)
            if method is None
            else plan_query(language, method=method, unsafe=unsafe)
        )
        result = execute(
            plan,
            database,
            semantics=semantics,
            exact_max_nodes=exact_max_nodes,
            exact_max_seconds=exact_max_seconds,
            name=language.name or "",
        )
        cache.store_result(
            language, database, result, semantics=semantics, method=method, unsafe=unsafe
        )
        results.append(result)
    return results


def verify_contingency_set(
    query: Language | RPQ | str,
    database: GraphDatabase | BagGraphDatabase,
    result: ResilienceResult,
) -> bool:
    """Check that a resilience result's contingency set really falsifies the query
    and that its cost matches the reported value (used in tests and examples)."""
    if isinstance(query, str):
        rpq = RPQ.from_regex(query)
    elif isinstance(query, Language):
        rpq = RPQ(query)
    else:
        rpq = query
    if result.contingency_set is None:
        return result.is_infinite
    # A contingency set must consist of facts of the database: a foreign fact
    # can never be removed, so such a set is invalid in both semantics (the seed
    # crashed with KeyError on the bag-semantics cost lookup instead).
    if any(fact not in database for fact in result.contingency_set):
        return False
    if not rpq.is_contingency_set(database, result.contingency_set):
        return False
    if isinstance(database, BagGraphDatabase):
        cost = database.total_cost(result.contingency_set)
    else:
        cost = len(result.contingency_set)
    return cost == result.value
