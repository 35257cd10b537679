"""Tests for ``repro.analysis``: per-rule fixtures, pragmas, baseline, CLI.

Every checker gets at least one known-bad snippet it must flag and one
known-good snippet it must pass; the pragma and baseline machinery is
round-tripped; and the analyzer is held to its own standard — both the
analysis package and the whole of ``src`` must lint clean.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

from repro.analysis import (
    analyze_paths,
    analyze_source,
    apply_baseline,
    load_baseline,
    rule_catalogue,
    write_baseline,
)
from repro.analysis.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent

FLOW = "src/repro/flow/mod.py"
SERVICE = "src/repro/service/mod.py"
GRAPHDB = "src/repro/graphdb/mod.py"
LANGUAGES = "src/repro/languages/mod.py"
NEUTRAL = "src/repro/other/mod.py"


def analyze(code: str, path: str = FLOW):
    return analyze_source(textwrap.dedent(code), path)


def rules_of(findings) -> set[str]:
    return {finding.rule for finding in findings}


# --------------------------------------------------------------- determinism


class TestDeterminism:
    def test_set_iteration_flagged(self):
        findings = analyze(
            """
            def f(items):
                out = []
                for item in set(items):
                    out.append(item)
                return out
            """
        )
        assert "det-set-iter" in rules_of(findings)

    def test_sorted_set_iteration_clean(self):
        findings = analyze(
            """
            def f(items):
                out = []
                for item in sorted(set(items)):
                    out.append(item)
                return out
            """
        )
        assert not rules_of(findings)

    def test_set_comprehension_into_list_flagged(self):
        findings = analyze("values = list({1, 2, 3})\n")
        assert "det-set-iter" in rules_of(findings)

    def test_repr_sort_flagged_outside_whitelist(self):
        findings = analyze("def f(xs):\n    return sorted(xs, key=repr)\n")
        assert "det-repr-sort" in rules_of(findings)

    def test_repr_sort_allowed_in_canonicalization_layer(self):
        findings = analyze(
            "def f(xs):\n    return sorted(xs, key=repr)\n", path=LANGUAGES
        )
        assert "det-repr-sort" not in rules_of(findings)

    def test_wallclock_flagged(self):
        findings = analyze("import time\n\nSTAMP = time.monotonic()\n")
        assert "det-wallclock" in rules_of(findings)

    def test_from_import_wallclock_flagged(self):
        findings = analyze(
            "from time import perf_counter\n\nSTAMP = perf_counter()\n"
        )
        assert "det-wallclock" in rules_of(findings)

    def test_unseeded_random_flagged_seeded_rng_clean(self):
        bad = analyze("import random\n\nVALUE = random.random()\n")
        assert "det-wallclock" in rules_of(bad)
        good = analyze(
            """
            import random

            def f(seed):
                rng = random.Random(seed)
                return rng.random()
            """
        )
        assert "det-wallclock" not in rules_of(good)

    def test_id_flagged_in_deterministic_path(self):
        findings = analyze("def f(x):\n    return id(x)\n")
        assert "det-id" in rules_of(findings)

    def test_wallclock_fine_outside_deterministic_scope(self):
        findings = analyze("import time\n\nSTAMP = time.monotonic()\n", path=NEUTRAL)
        assert not rules_of(findings)


# ----------------------------------------------------------------- exactness


class TestExactness:
    def test_float_literal_flagged(self):
        assert "exact-float-literal" in rules_of(analyze("HALF = 0.5\n"))

    def test_true_division_flagged_floor_clean(self):
        assert "exact-div" in rules_of(analyze("def f(a, b):\n    return a / b\n"))
        assert "exact-div" not in rules_of(
            analyze("def f(a, b):\n    return a // b\n")
        )

    def test_isclose_flagged(self):
        findings = analyze(
            "import math\n\ndef f(a, b):\n    return math.isclose(a, b)\n"
        )
        assert "exact-isclose" in rules_of(findings)

    def test_float_cast_flagged(self):
        assert "exact-float-cast" in rules_of(
            analyze("def f(x):\n    return float(x)\n")
        )

    def test_floats_fine_outside_flow(self):
        findings = analyze("HALF = 0.5\nTHIRD = 1 / 3\n", path=SERVICE)
        assert not rules_of(findings) & {"exact-float-literal", "exact-div"}


# --------------------------------------------------------------- concurrency


class TestConcurrency:
    def test_blocking_sleep_in_async_flagged(self):
        findings = analyze(
            """
            import time

            async def f():
                time.sleep(1)
            """,
            path=SERVICE,
        )
        assert "conc-blocking-async" in rules_of(findings)

    def test_awaited_queue_get_clean(self):
        findings = analyze(
            """
            async def f(queue):
                return await queue.get()
            """,
            path=SERVICE,
        )
        assert "conc-blocking-async" not in rules_of(findings)

    def test_bare_join_in_async_flagged(self):
        findings = analyze(
            """
            async def f(thread):
                thread.join()
            """,
            path=SERVICE,
        )
        assert "conc-blocking-async" in rules_of(findings)

    def test_sleep_in_sync_function_clean(self):
        findings = analyze(
            "import time\n\ndef f():\n    time.sleep(1)\n", path=SERVICE
        )
        assert "conc-blocking-async" not in rules_of(findings)

    UNLOCKED = """
        import threading

        class Server:
            def __init__(self):
                self._lock = threading.Lock()
                self._count = 0

            def bump(self):
                with self._lock:
                    self._count += 1

            def reset(self):
                self._count = 0
        """

    def test_unlocked_write_flagged(self):
        findings = analyze(self.UNLOCKED, path=SERVICE)
        assert "conc-unlocked-write" in rules_of(findings)

    def test_locked_suffix_method_exempt(self):
        findings = analyze(
            self.UNLOCKED.replace("def reset(self)", "def _reset_locked(self)"),
            path=SERVICE,
        )
        assert "conc-unlocked-write" not in rules_of(findings)

    def test_write_under_lock_clean(self):
        findings = analyze(
            """
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def reset(self):
                    with self._lock:
                        self._count = 0
            """,
            path=SERVICE,
        )
        assert "conc-unlocked-write" not in rules_of(findings)


# ---------------------------------------------------------------- ipc-safety


class TestMovedCodeKeepsItsRules:
    def test_metrics_module_is_in_the_serving_and_determinism_scopes(self):
        # The snapshots moved out of ``repro/service/`` and
        # ``repro/resilience/`` into ``repro/metrics.py``; their rules moved
        # with them.
        local_class = """
            def endpoint():
                class Handler:
                    pass
                return Handler
            """
        assert rules_of(analyze(local_class, "src/repro/metrics.py")) == {"ipc-local-class"}
        wallclock = "import time\nSTAMP = time.time()\n"
        assert rules_of(analyze(wallclock, "src/repro/metrics.py")) == {"det-wallclock"}


class TestIpcSafety:
    def test_lambda_submit_flagged(self):
        findings = analyze(
            "def f(pool):\n    return pool.submit(lambda: 1)\n", path=SERVICE
        )
        assert "ipc-lambda-dispatch" in rules_of(findings)

    def test_module_function_submit_clean(self):
        findings = analyze(
            """
            def work():
                return 1

            def f(pool):
                return pool.submit(work)
            """,
            path=SERVICE,
        )
        assert "ipc-lambda-dispatch" not in rules_of(findings)

    def test_local_class_flagged(self):
        findings = analyze(
            """
            def make():
                class Handler:
                    pass
                return Handler
            """,
            path=SERVICE,
        )
        assert "ipc-local-class" in rules_of(findings)

    def test_cache_class_without_getstate_flagged(self):
        findings = analyze(
            """
            class Database:
                def __init__(self):
                    self._cache = {}
            """,
            path=GRAPHDB,
        )
        assert "ipc-cache-pickle" in rules_of(findings)

    def test_cache_class_with_getstate_clean(self):
        findings = analyze(
            """
            class Database:
                def __init__(self):
                    self._cache = {}

                def __getstate__(self):
                    state = dict(self.__dict__)
                    state.pop("_cache")
                    return state
            """,
            path=GRAPHDB,
        )
        assert "ipc-cache-pickle" not in rules_of(findings)


# ----------------------------------------------------------- error-discipline


class TestErrorDiscipline:
    def test_bare_except_flagged(self):
        findings = analyze(
            """
            def f():
                try:
                    return 1
                except:
                    pass
            """,
            path=NEUTRAL,
        )
        assert "err-bare-except" in rules_of(findings)

    def test_swallowed_broad_except_flagged(self):
        findings = analyze(
            """
            def f():
                try:
                    return 1
                except Exception:
                    return None
            """,
            path=NEUTRAL,
        )
        assert "err-swallowed-except" in rules_of(findings)

    def test_handled_broad_except_clean(self):
        findings = analyze(
            """
            def f(log):
                try:
                    return 1
                except Exception as error:
                    log(error)
                    return None
            """,
            path=NEUTRAL,
        )
        assert "err-swallowed-except" not in rules_of(findings)

    def test_narrow_swallow_clean(self):
        findings = analyze(
            """
            def f():
                try:
                    return 1
                except KeyError:
                    return None
            """,
            path=NEUTRAL,
        )
        assert not rules_of(findings)

    def test_bare_runtime_error_flagged(self):
        findings = analyze(
            'def f():\n    raise RuntimeError("broken")\n', path=NEUTRAL
        )
        assert "err-bare-runtime" in rules_of(findings)

    def test_taxonomy_error_clean(self):
        findings = analyze(
            """
            from repro.exceptions import ReproError

            def f():
                raise ReproError("broken")
            """,
            path=NEUTRAL,
        )
        assert "err-bare-runtime" not in rules_of(findings)


# ------------------------------------------------------------------ dead code


class TestDeadCode:
    def test_unused_import_flagged(self):
        findings = analyze("import os\n\nVALUE = 1\n", path=NEUTRAL)
        assert "dead-import" in rules_of(findings)

    def test_used_import_clean(self):
        findings = analyze("import os\n\nVALUE = os.name\n", path=NEUTRAL)
        assert "dead-import" not in rules_of(findings)

    def test_reexport_and_dunder_all_exempt(self):
        findings = analyze(
            """
            from os import name as name
            from os import sep

            __all__ = ["sep"]
            """,
            path=NEUTRAL,
        )
        assert "dead-import" not in rules_of(findings)

    def test_string_annotation_counts_as_use(self):
        findings = analyze(
            """
            from collections.abc import Mapping

            def f(m: "Mapping[str, int]") -> None:
                return None
            """,
            path=NEUTRAL,
        )
        assert "dead-import" not in rules_of(findings)

    def test_unreferenced_private_symbol_flagged(self):
        findings = analyze(
            "def _helper():\n    return 1\n\nVALUE = 2\n", path=NEUTRAL
        )
        assert "dead-symbol" in rules_of(findings)

    def test_referenced_private_symbol_clean(self):
        findings = analyze(
            "def _helper():\n    return 1\n\nVALUE = _helper()\n", path=NEUTRAL
        )
        assert "dead-symbol" not in rules_of(findings)


# ----------------------------------------------------------------- pragmas


class TestPragmas:
    def test_trailing_pragma_suppresses(self):
        findings = analyze(
            "HALF = 0.5  # repro: allow[exact-float-literal] -- fixture\n"
        )
        assert not rules_of(findings)

    def test_pragma_above_suppresses(self):
        findings = analyze(
            "# repro: allow[exact-float-literal] -- fixture\nHALF = 0.5\n"
        )
        assert not rules_of(findings)

    def test_pragma_atop_comment_block_suppresses(self):
        findings = analyze(
            """
            # repro: allow[exact-float-literal] -- fixture justification
            # continued over a second comment line
            HALF = 0.5
            """
        )
        assert not rules_of(findings)

    def test_wrong_rule_does_not_suppress(self):
        findings = analyze("HALF = 0.5  # repro: allow[exact-div] -- wrong rule\n")
        assert rules_of(findings) == {"exact-float-literal", "pragma-unused"}

    def test_missing_reason_is_a_finding(self):
        findings = analyze("HALF = 0.5  # repro: allow[exact-float-literal]\n")
        assert "pragma-syntax" in rules_of(findings)

    def test_unused_pragma_is_a_finding(self):
        findings = analyze("VALUE = 1  # repro: allow[exact-div] -- nothing here\n")
        assert rules_of(findings) == {"pragma-unused"}

    def test_wildcard_pragma_suppresses_everything(self):
        findings = analyze("HALF = float(1) / 2  # repro: allow[*] -- fixture\n")
        assert not rules_of(findings)


# ----------------------------------------------------------------- baseline


class TestBaseline:
    def test_round_trip(self, tmp_path):
        source_file = tmp_path / "repro" / "flow" / "mod.py"
        source_file.parent.mkdir(parents=True)
        source_file.write_text("HALF = 0.5\n")
        findings, scanned = analyze_paths([str(tmp_path)])
        assert scanned == 1 and rules_of(findings) == {"exact-float-literal"}

        baseline_file = tmp_path / "baseline.json"
        write_baseline(findings, str(baseline_file))
        result = apply_baseline(findings, load_baseline(str(baseline_file)))
        assert not result.new
        assert len(result.suppressed) == 1
        assert not result.stale

    def test_baseline_survives_line_shift_not_edits(self, tmp_path):
        source_file = tmp_path / "repro" / "flow" / "mod.py"
        source_file.parent.mkdir(parents=True)
        source_file.write_text("HALF = 0.5\n")
        findings, _ = analyze_paths([str(tmp_path)])
        baseline_file = tmp_path / "baseline.json"
        write_baseline(findings, str(baseline_file))

        source_file.write_text("# a new leading comment\nHALF = 0.5\n")
        shifted, _ = analyze_paths([str(tmp_path)])
        result = apply_baseline(shifted, load_baseline(str(baseline_file)))
        assert not result.new and len(result.suppressed) == 1

        source_file.write_text("QUARTER = 0.25\n")
        edited, _ = analyze_paths([str(tmp_path)])
        result = apply_baseline(edited, load_baseline(str(baseline_file)))
        assert len(result.new) == 1 and result.stale

    def test_stale_entry_detected(self, tmp_path):
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "rule": "exact-div",
                            "path": "src/repro/flow/gone.py",
                            "snippet": "x = a / b",
                            "count": 1,
                        }
                    ],
                }
            )
        )
        result = apply_baseline([], load_baseline(str(baseline_file)))
        assert result.stale == [
            ("exact-div", "src/repro/flow/gone.py", "x = a / b")
        ]


# ---------------------------------------------------------------------- CLI


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("VALUE = 1\n")
        assert main([str(target), "--no-baseline"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        target = tmp_path / "repro" / "flow" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("HALF = 0.5\n")
        assert main([str(tmp_path), "--no-baseline"]) == 1
        assert "exact-float-literal" in capsys.readouterr().out

    def test_unused_pragma_fails_the_gate(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("VALUE = 1  # repro: allow[exact-div] -- nothing here\n")
        assert main([str(tmp_path), "--no-baseline", "--strict"]) == 1
        assert "pragma-unused" in capsys.readouterr().out

    def test_bad_path_and_bad_rule_exit_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing")]) == 2
        assert main([str(tmp_path), "--select", "no-such-rule"]) == 2
        capsys.readouterr()

    def test_json_format_parses(self, tmp_path, capsys):
        target = tmp_path / "repro" / "flow" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("HALF = 0.5\n")
        main([str(tmp_path), "--no-baseline", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"exact-float-literal": 1}

    def test_strict_fails_on_stale_baseline(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("VALUE = 1\n")
        baseline_file = tmp_path / "baseline.json"
        baseline_file.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {"rule": "exact-div", "path": "gone.py", "snippet": "a / b"}
                    ],
                }
            )
        )
        args = [str(target), "--baseline", str(baseline_file)]
        assert main(args) == 0
        assert main(args + ["--strict"]) == 1
        capsys.readouterr()

    def test_update_baseline_then_clean(self, tmp_path, capsys):
        target = tmp_path / "repro" / "flow" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("HALF = 0.5\n")
        baseline_file = tmp_path / "baseline.json"
        assert (
            main([str(tmp_path), "--baseline", str(baseline_file), "--update-baseline"])
            == 0
        )
        assert main([str(tmp_path), "--baseline", str(baseline_file)]) == 0
        capsys.readouterr()

    def test_select_restricts_rules(self, tmp_path, capsys):
        target = tmp_path / "repro" / "flow" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text("import os\n\nHALF = 0.5\n")
        assert main([str(tmp_path), "--no-baseline", "--select", "dead-import"]) == 1
        out = capsys.readouterr().out
        assert "dead-import" in out and "exact-float-literal" not in out

    def test_list_rules_covers_every_checker(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in (
            "det-set-iter",
            "exact-div",
            "conc-blocking-async",
            "ipc-lambda-dispatch",
            "err-bare-except",
            "dead-import",
        ):
            assert rule in out


# -------------------------------------------------------------- self-checks


class TestSelfCheck:
    def test_parse_error_is_a_finding(self):
        findings = analyze_source("def broken(:\n", NEUTRAL)
        assert rules_of(findings) == {"parse-error"}

    def test_rule_catalogue_ids_are_unique_and_described(self):
        catalogue = rule_catalogue()
        assert len(catalogue) >= 15
        for rule, (checker, description) in catalogue.items():
            assert rule and checker and description

    def test_analysis_package_lints_itself_clean(self):
        findings, scanned = analyze_paths(
            [str(REPO_ROOT / "src" / "repro" / "analysis")]
        )
        assert scanned >= 10
        assert not findings, [finding.render() for finding in findings]

    def test_whole_src_tree_lints_clean(self):
        findings, scanned = analyze_paths([str(REPO_ROOT / "src")])
        assert scanned >= 70
        assert not findings, [finding.render() for finding in findings]
