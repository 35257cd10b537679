"""Unit tests for the runtime leak tracker behind the sanitizer hooks."""

from __future__ import annotations

import shutil
import socket
import tempfile
import threading

from leak_sanitizer import LeakTracker, SANITIZED_MODULES


def test_sanitized_suites_are_the_resourceful_ones():
    assert SANITIZED_MODULES == {
        "test_server",
        "test_async_server",
        "test_exchange",
        "test_traffic",
        "test_metrics",
        "test_cache_bounds",
    }


def test_detects_leaked_thread():
    tracker = LeakTracker(settle=0.2)
    tracker.start()
    release = threading.Event()
    thread = threading.Thread(target=release.wait, name="leaky-thread")
    thread.start()
    tracker.stop()
    try:
        leaks = tracker.leaks()
        assert any("leaky-thread" in leak for leak in leaks)
    finally:
        release.set()
        thread.join()


def test_joined_thread_is_clean():
    tracker = LeakTracker(settle=0.2)
    tracker.start()
    thread = threading.Thread(target=lambda: None)
    thread.start()
    thread.join()
    tracker.stop()
    assert tracker.leaks() == []


def test_settle_window_tolerates_racing_exit():
    tracker = LeakTracker(settle=5.0)
    tracker.start()
    thread = threading.Thread(target=lambda: threading.Event().wait(0.2))
    thread.start()
    tracker.stop()
    # Not joined: the settle poll must absorb the straggler on its own.
    assert tracker.leaks() == []
    thread.join()


def test_detects_leaked_socket_then_clean_after_close():
    tracker = LeakTracker(settle=0.1)
    tracker.start()
    sock = socket.socket()
    tracker.stop()
    try:
        assert any("socket leaked" in leak for leak in tracker.leaks())
    finally:
        sock.close()
    assert tracker.leaks() == []


def test_detects_leaked_tempdir_then_clean_after_removal():
    tracker = LeakTracker(settle=0.1)
    tracker.start()
    path = tempfile.mkdtemp(prefix="repro-leak-test-")
    tracker.stop()
    try:
        assert any(path in leak for leak in tracker.leaks())
    finally:
        shutil.rmtree(path)
    assert tracker.leaks() == []


def test_pre_existing_resources_are_not_leaks():
    release = threading.Event()
    thread = threading.Thread(target=release.wait, name="pre-existing")
    thread.start()
    try:
        tracker = LeakTracker(settle=0.2)
        tracker.start()
        tracker.stop()
        assert tracker.leaks() == []
    finally:
        release.set()
        thread.join()


def test_patching_is_restored():
    tracker = LeakTracker()
    original_socket = socket.socket
    original_mkdtemp = tempfile.mkdtemp
    tracker.start()
    assert socket.socket is not original_socket
    tracker.stop()
    assert socket.socket is original_socket
    assert tempfile.mkdtemp is original_mkdtemp
