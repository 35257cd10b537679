"""Resilience algorithms: the exact baseline, the three flow reductions of the
paper (local, bipartite chain, one-dangling), and the dispatching engine."""

from .bcl_flow import resilience_bcl
from .engine import (
    CacheStats,
    LanguageCache,
    QueryPlan,
    choose_method,
    execute,
    plan_query,
    resilience,
    resilience_many,
    verify_contingency_set,
)
from .exact import resilience_brute_force, resilience_exact, resilience_exact_reference
from .local_flow import build_product_network, resilience_local
from .one_dangling import resilience_one_dangling
from .result import INFINITE, ResilienceResult
from .store import (
    AnalysisStore,
    ResultStore,
    StoreBackend,
    StoreStats,
    code_version_salt,
    result_code_salt,
)

__all__ = [
    "INFINITE",
    "AnalysisStore",
    "CacheStats",
    "LanguageCache",
    "QueryPlan",
    "ResilienceResult",
    "ResultStore",
    "StoreBackend",
    "StoreStats",
    "build_product_network",
    "choose_method",
    "code_version_salt",
    "execute",
    "plan_query",
    "result_code_salt",
    "resilience",
    "resilience_bcl",
    "resilience_brute_force",
    "resilience_exact",
    "resilience_exact_reference",
    "resilience_local",
    "resilience_many",
    "resilience_one_dangling",
    "verify_contingency_set",
]
