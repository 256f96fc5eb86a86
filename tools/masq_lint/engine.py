"""Lint orchestration: file discovery, rule dispatch, reporting."""

from __future__ import annotations

import os

from masq_lint import rules, shared_state
from masq_lint.source import Allowance, SourceFile, Violation

RULES = (
    "nodiscard",
    "wall-clock",
    "unordered-iter",
    "naked-new",
    "container",
    "event-callback",
    "shared-state",
    "allow-reason",
)

SOURCE_EXTS = (".h", ".cc")

PER_FILE_CHECKS = (
    rules.check_nodiscard,
    rules.check_wall_clock,
    rules.check_naked_new,
    rules.check_container,
    rules.check_event_callback,
    shared_state.check_shared_state,
)


def collect_files(root: str) -> dict[str, list[SourceFile]]:
    """Source files under <root>/src, grouped by directory, sorted."""
    files_by_dir: dict[str, list[SourceFile]] = {}
    src_root = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src_root):
        dirnames.sort()
        group = [
            SourceFile(os.path.join(dirpath, f))
            for f in sorted(filenames)
            if f.endswith(SOURCE_EXTS)
        ]
        if group:
            files_by_dir[dirpath] = group
    return files_by_dir


def lint(root: str) -> tuple[list[Violation], list[Allowance]]:
    """All violations and all well-formed allowances under <root>/src."""
    files_by_dir = collect_files(root)
    violations: list[Violation] = []
    allowances: list[Allowance] = []

    for _dir, files in sorted(files_by_dir.items()):
        for src in files:
            violations.extend(src.reasonless_allows)
            allowances.extend(src.allowances)
            for check in PER_FILE_CHECKS:
                check(src, violations)

    rules.check_unordered_iter(files_by_dir, violations)

    violations.sort(key=lambda v: (v.path, v.lineno, v.rule))
    allowances.sort(key=lambda a: (a.path, a.lineno, a.rule))
    return violations, allowances


def lint_report(root: str) -> dict:
    """Structured report for --json / the CI lint artifact."""
    violations, allowances = lint(root)
    by_rule: dict[str, int] = {r: 0 for r in RULES}
    for v in violations:
        by_rule[v.rule] = by_rule.get(v.rule, 0) + 1
    return {
        "root": os.path.abspath(root),
        "rules": list(RULES),
        "violation_count": len(violations),
        "violations_by_rule": by_rule,
        "violations": [
            {
                "path": os.path.relpath(v.path, root),
                "line": v.lineno,
                "rule": v.rule,
                "message": v.message,
            }
            for v in violations
        ],
        "allowance_count": len(allowances),
        "allowances": [
            {
                "path": os.path.relpath(a.path, root),
                "line": a.lineno,
                "rule": a.rule,
                "reason": a.reason,
            }
            for a in allowances
        ],
    }
