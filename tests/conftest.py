"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.graphdb import GraphDatabase
from repro.languages import Language

from leak_sanitizer import SANITIZED_MODULES, LeakTracker, sanitizer_enabled


def _sanitized(item) -> bool:
    module = getattr(item, "module", None)
    if module is None:
        return False
    name = getattr(module, "__name__", "").rpartition(".")[2]
    return name in SANITIZED_MODULES and sanitizer_enabled()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    # Start tracking before fixture setup so resources created by fixtures
    # are inside the window their finalizers must close by teardown.
    if _sanitized(item):
        tracker = LeakTracker()
        tracker.start()
        item._leak_tracker = tracker
    yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item, nextitem):
    # The wrapped call runs fixture finalizers; the leak check afterwards
    # sees the world as the test promised to leave it.
    yield
    tracker = getattr(item, "_leak_tracker", None)
    if tracker is None:
        return
    del item._leak_tracker
    tracker.stop()
    leaks = tracker.leaks()
    if leaks:
        pytest.fail(
            "leak sanitizer: resources survived the test:\n  "
            + "\n  ".join(leaks),
            pytrace=False,
        )


@pytest.fixture
def substitute_reference_solver(monkeypatch):
    """Return a function that makes the flow reductions solve with the
    object-layer oracle :func:`~repro.flow.compiled.reference_min_cut`.

    The swap replaces ``solve_min_cut`` in each reduction module, so pool
    workers forked after the call inherit it; monkeypatch restores the array
    Dinic at teardown.
    """
    from repro.flow import reference_min_cut
    from repro.resilience import bcl_flow, local_flow, one_dangling

    def substitute() -> None:
        for module in (local_flow, bcl_flow, one_dangling):
            monkeypatch.setattr(module, "solve_min_cut", reference_min_cut)

    return substitute


@pytest.fixture
def local_language() -> Language:
    return Language.from_regex("ab|ad|cd")


@pytest.fixture
def star_language() -> Language:
    return Language.from_regex("ax*b")


@pytest.fixture
def aa_language() -> Language:
    return Language.from_regex("aa")


@pytest.fixture
def small_database() -> GraphDatabase:
    return GraphDatabase.from_edges(
        [
            ("s", "a", "u"),
            ("u", "x", "v"),
            ("v", "x", "w"),
            ("w", "b", "t"),
            ("u", "b", "t"),
        ]
    )


def assert_same_language(left, right, samples):
    """Assert two languages agree on a collection of sample words."""
    for word in samples:
        assert (word in left) == (word in right), word
