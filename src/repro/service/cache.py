"""Session and cross-process caches of the serving layer.

The implementations live next to the dispatcher whose analyses they memoize —
:class:`repro.resilience.engine.LanguageCache` (with its
:class:`~repro.resilience.engine.CacheStats`) and
:class:`repro.resilience.store.AnalysisStore` — because the core engine uses
them for :func:`~repro.resilience.engine.resilience_many` and cannot depend on
this higher-level package.  This module re-exports them as part of the service
API; see the class docstrings for the full cache hierarchy (instance memo →
session string cache → canonical plan cache → on-disk plan store) and
``src/repro/service/README.md`` for when each layer hits.
"""

from __future__ import annotations

from ..resilience.engine import CacheStats, LanguageCache
from ..resilience.store import (
    AnalysisStore,
    ResultStore,
    StoreBackend,
    StoreStats,
    code_version_salt,
    result_code_salt,
)

__all__ = [
    "AnalysisStore",
    "CacheStats",
    "LanguageCache",
    "ResultStore",
    "StoreBackend",
    "StoreStats",
    "code_version_salt",
    "result_code_salt",
]
