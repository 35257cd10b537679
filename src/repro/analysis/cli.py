"""Command-line entry point: ``python -m repro.analysis <paths>``.

Exit codes are CI-friendly: 0 means clean (after pragmas and baseline),
1 means findings (or, under ``--strict``, stale baseline entries), and
2 means the invocation itself was wrong (bad path, bad rule id).
"""

from __future__ import annotations

import argparse
import os
import sys

from .baseline import BaselineResult, apply_baseline, load_baseline, write_baseline
from .checkers import checkers_for_rules, rule_catalogue
from .core import Finding, analyze_source
from .report import render_human, render_json

#: Baseline used when none is given explicitly and this file exists.
DEFAULT_BASELINE = os.path.join("tools", "analysis_baseline.json")

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def iter_python_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in {"__pycache__", ".git", ".venv"}
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        else:
            raise FileNotFoundError(path)
    return sorted(dict.fromkeys(os.path.normpath(p).replace(os.sep, "/") for p in out))


def analyze_paths(
    paths: list[str], *, rules: set[str] | None = None
) -> tuple[list[Finding], int]:
    """Analyze every python file under ``paths``.

    Returns ``(findings, files_scanned)``.  ``rules`` restricts the run
    to the checkers owning those rule ids.
    """
    files = iter_python_files(paths)
    findings: list[Finding] = []
    for file_path in files:
        with open(file_path, encoding="utf-8") as handle:
            source = handle.read()
        if rules is None:
            # The full registry: unused pragmas are reported too.
            per_file = analyze_source(source, file_path)
        else:
            checkers = checkers_for_rules(rules)
            per_file = analyze_source(
                source, file_path, checkers, report_unused_pragmas=False
            )
            per_file = [
                f
                for f in per_file
                if f.rule in rules or f.rule in {"parse-error", "pragma-syntax"}
            ]
        findings.extend(per_file)
    return findings, len(files)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Single-walk AST invariant analyzer for this repository.",
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or dirs")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on stale baseline entries (CI gate mode)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human", dest="fmt"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline JSON (default: {DEFAULT_BASELINE} when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline, report everything",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to cover current findings, then exit clean",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, (checker, description) in sorted(rule_catalogue().items()):
            print(f"{rule:24} [{checker}] {description}")
        return EXIT_CLEAN

    rules: set[str] | None = None
    if args.select:
        rules = {rule.strip() for rule in args.select.split(",") if rule.strip()}
        unknown = rules - set(rule_catalogue())
        if unknown:
            print(f"unknown rule id(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return EXIT_USAGE

    try:
        findings, files_scanned = analyze_paths(list(args.paths), rules=rules)
    except FileNotFoundError as error:
        print(f"no such path: {error}", file=sys.stderr)
        return EXIT_USAGE

    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(DEFAULT_BASELINE):
        baseline_path = DEFAULT_BASELINE

    if args.update_baseline:
        target = baseline_path or DEFAULT_BASELINE
        write_baseline(findings, target)
        print(f"baseline updated: {len(findings)} finding(s) -> {target}")
        return EXIT_CLEAN

    if baseline_path is not None and not args.no_baseline:
        result = apply_baseline(findings, load_baseline(baseline_path))
    else:
        result = BaselineResult(new=findings, suppressed=[])

    renderer = render_json if args.fmt == "json" else render_human
    print(renderer(result, files_scanned=files_scanned))

    if result.new:
        return EXIT_FINDINGS
    if args.strict and result.stale:
        return EXIT_FINDINGS
    return EXIT_CLEAN
