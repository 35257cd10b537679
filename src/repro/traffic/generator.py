"""Seeded production-traffic generator: zipf query mix, bursty arrivals.

A :class:`TrafficProfile` is a frozen bundle of knobs; :func:`generate_traffic`
expands it — through one ``random.Random(seed)`` stream and nothing else —
into a :class:`TrafficTrace`: the generated databases plus an ordered tuple of
:class:`TrafficRequest` items, each carrying an open-loop arrival offset, an
admission priority, a share weight, an optional deadline, and a
:class:`~repro.service.workload.Workload` of query specs sampled zipf-style
from the Figure 1 catalogue.  The same profile always yields the same trace
(request-for-request and database-for-database), which is what makes any soak
run replayable from its seed.

Shape of the traffic:

* **query popularity** is zipf: catalogue ranks are a seeded permutation and
  a query of rank ``r`` is drawn with weight ``1 / (r + 1) ** zipf_s`` — a
  few queries dominate, the tail stays warm, exactly the skew a popularity
  cache hierarchy is built for;
* **arrivals** are bursty and open-loop: requests come in seeded bursts of
  ``burst_size`` requests spaced ``~Exp(burst_rate)`` apart, with
  ``~Exp(1 / gap_seconds)`` lulls between bursts — offsets are what a
  paced replay would sleep to, and are monotone by construction;
* **policy mix**: priorities and share weights are drawn per request from
  the profile's choice tuples; a ``deadline_fraction`` of requests carry an
  end-to-end deadline; a spec rolling under ``tight_budget_fraction`` gets
  ``max_nodes=1`` (which deterministically trips) if its query is NP-hard and
  a loose ``max_nodes`` budget otherwise, and a further ``budget_fraction``
  gets the loose budget — so loose budgets remain at ``budget_fraction=0``,
  and the trace exercises every outcome status without losing replayability.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..graphdb import generators
from ..graphdb.database import BagGraphDatabase, GraphDatabase
from ..languages.examples import FIGURE_1_LANGUAGES, NP_HARD
from ..service.workload import QuerySpec, Workload

AnyDatabase = GraphDatabase | BagGraphDatabase

#: The default query catalogue: every Figure 1 regex whose alphabet fits the
#: generated databases below.  Order is the fixed catalogue order; popularity
#: ranks over it are a per-seed permutation.
DEFAULT_CATALOGUE: tuple[str, ...] = tuple(
    example.regex for example in FIGURE_1_LANGUAGES
)

#: Catalogue entries whose resilience problem is NP-hard (exact fallback);
#: these are the ones a tight node budget deterministically trips on.
HARD_QUERIES: frozenset[str] = frozenset(
    example.regex
    for example in FIGURE_1_LANGUAGES
    if example.complexity == NP_HARD
)


@dataclass(frozen=True)
class DatabaseSpec:
    """One generated database of a traffic profile.

    ``bag_copies`` > 0 turns the generated set database into a bag database
    via ``to_bag`` (multiplicity per fact), covering both semantics in one
    trace.
    """

    num_nodes: int = 6
    num_edges: int = 18
    alphabet: str = "abcdefxy"
    bag_copies: int = 0

    def build(self, seed: int) -> AnyDatabase:
        database = generators.random_labelled_graph(
            self.num_nodes, self.num_edges, self.alphabet, seed=seed
        )
        if self.bag_copies > 0:
            return database.to_bag(self.bag_copies)
        return database


@dataclass(frozen=True)
class TrafficProfile:
    """Every knob of a generated traffic trace; the seed pins all of them.

    Attributes:
        seed: the one source of randomness — equal profiles generate equal
            traces.
        requests: how many requests the trace holds.
        zipf_s: zipf exponent of query popularity (higher = more skewed).
        catalogue: the query strings popularity ranks over.
        databases: specs of the generated databases; requests pick a database
            zipf-style too (the first-ranked database is the hot one).
        workload_size: inclusive ``(min, max)`` bounds on specs per request.
        burst_size: inclusive ``(min, max)`` bounds on requests per burst.
        burst_rate: mean intra-burst arrival rate (requests per second).
        gap_seconds: mean lull between bursts (seconds).
        priorities: admission classes drawn per request (lower serves first).
        weights: share weights drawn per request.
        deadline_fraction: fraction of requests carrying ``deadline_seconds``.
            Deadlines make admission timing-dependent, so replay-parity
            harnesses keep this at 0 and soak reports simply count expiries.
        deadline_seconds: the deadline those requests carry.
        budget_fraction: further fraction of specs carrying a loose
            ``max_nodes`` budget (never trips on the small generated databases).
        budget_nodes: that loose budget.
        tight_budget_fraction: fraction of specs carrying ``max_nodes=1`` if
            their query is NP-hard — deterministically ``budget-exceeded``, so
            traces exercise the budget path without breaking replayability —
            and the loose budget otherwise.
    """

    seed: int = 0
    requests: int = 32
    zipf_s: float = 1.1
    catalogue: tuple[str, ...] = DEFAULT_CATALOGUE
    databases: tuple[DatabaseSpec, ...] = (
        DatabaseSpec(num_nodes=6, num_edges=18, alphabet="abcdefxy"),
        DatabaseSpec(num_nodes=5, num_edges=13, alphabet="abcdex", bag_copies=2),
    )
    workload_size: tuple[int, int] = (1, 4)
    burst_size: tuple[int, int] = (2, 6)
    burst_rate: float = 200.0
    gap_seconds: float = 0.05
    priorities: tuple[int, ...] = (0, 0, 1, 2)
    weights: tuple[float, ...] = (0.5, 1.0, 1.0, 2.0)
    deadline_fraction: float = 0.0
    deadline_seconds: float = 30.0
    budget_fraction: float = 0.2
    budget_nodes: int = 50_000
    tight_budget_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1 (got {self.requests})")
        if not self.catalogue:
            raise ValueError("catalogue must not be empty")
        if not self.databases:
            raise ValueError("databases must not be empty")
        for low, high, name in (
            (*self.workload_size, "workload_size"),
            (*self.burst_size, "burst_size"),
        ):
            if low < 1 or high < low:
                raise ValueError(f"{name} must be 1 <= min <= max (got ({low}, {high}))")
        if self.burst_rate <= 0 or self.gap_seconds < 0:
            raise ValueError("burst_rate must be > 0 and gap_seconds >= 0")
        for fraction in (
            self.deadline_fraction, self.budget_fraction, self.tight_budget_fraction,
        ):
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(f"fractions must be within [0, 1] (got {fraction})")


@dataclass(frozen=True)
class TrafficRequest:
    """One open-loop request of a trace.

    ``offset`` is seconds since trace start (monotone across the trace); the
    remaining fields map one-to-one onto
    :meth:`~repro.service.async_server.AsyncResilienceServer.submit`
    arguments, with ``database_key`` naming the trace database the workload
    runs against.
    """

    seq: int
    offset: float
    priority: int
    weight: float
    deadline: float | None
    database_key: str
    workload: Workload


@dataclass(frozen=True)
class TrafficTrace:
    """A fully expanded traffic trace: databases plus ordered requests.

    Frozen-field equality intentionally covers ``requests`` and ``profile``
    only — databases are compared by content fingerprint via
    :meth:`database_fingerprints` (graph objects hash by identity).
    """

    requests: tuple[TrafficRequest, ...]
    databases: dict[str, AnyDatabase] = field(compare=False)
    profile: TrafficProfile | None = None

    def database_fingerprints(self) -> dict[str, str]:
        return {
            key: database.content_fingerprint()
            for key, database in sorted(self.databases.items())
        }

    def query_counts(self) -> dict[str, int]:
        """How often each query label occurs across the trace (zipf shape)."""
        counts: dict[str, int] = {}
        for request in self.requests:
            for spec in request.workload:
                label = spec.display_name()
                counts[label] = counts.get(label, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.requests)


def _zipf_weights(count: int, s: float) -> list[float]:
    return [1.0 / (rank + 1) ** s for rank in range(count)]


def generate_traffic(profile: TrafficProfile) -> TrafficTrace:
    """Expand a profile into its (deterministic) trace.

    One ``random.Random(profile.seed)`` stream drives everything in a fixed
    order — databases, popularity permutations, arrivals, then requests — so
    equal profiles yield equal traces and any soak run can be replayed by
    seed alone.
    """
    rng = random.Random(profile.seed)

    databases = {
        f"db-{position}": spec.build(seed=rng.randrange(2**31))
        for position, spec in enumerate(profile.databases)
    }
    database_keys = list(databases)

    # Popularity: a seeded permutation of the catalogue (and of the database
    # keys) zipf-weighted by rank, so *which* queries are hot varies by seed
    # while the skew itself does not.
    ranked_queries = list(profile.catalogue)
    rng.shuffle(ranked_queries)
    query_weights = _zipf_weights(len(ranked_queries), profile.zipf_s)
    rng.shuffle(database_keys)
    database_weights = _zipf_weights(len(database_keys), profile.zipf_s)

    requests: list[TrafficRequest] = []
    clock = 0.0
    while len(requests) < profile.requests:
        burst = rng.randint(*profile.burst_size)
        for _ in range(burst):
            if len(requests) >= profile.requests:
                break
            clock += rng.expovariate(profile.burst_rate)
            specs = []
            for _ in range(rng.randint(*profile.workload_size)):
                query = rng.choices(ranked_queries, weights=query_weights)[0]
                roll = rng.random()
                if roll < profile.tight_budget_fraction and query in HARD_QUERIES:
                    specs.append(QuerySpec(query, max_nodes=1))
                elif roll < profile.tight_budget_fraction + profile.budget_fraction:
                    specs.append(QuerySpec(query, max_nodes=profile.budget_nodes))
                else:
                    specs.append(QuerySpec(query))
            deadline = (
                profile.deadline_seconds
                if rng.random() < profile.deadline_fraction
                else None
            )
            requests.append(
                TrafficRequest(
                    seq=len(requests),
                    offset=round(clock, 9),
                    priority=rng.choice(profile.priorities),
                    weight=rng.choice(profile.weights),
                    deadline=deadline,
                    database_key=rng.choices(
                        database_keys, weights=database_weights
                    )[0],
                    workload=Workload(tuple(specs)),
                )
            )
        if profile.gap_seconds:
            clock += rng.expovariate(1.0 / profile.gap_seconds)

    return TrafficTrace(
        requests=tuple(requests), databases=databases, profile=profile
    )
