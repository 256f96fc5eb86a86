"""Command line for the masq linter.

  python3 tools/masq_lint.py                lint, human-readable, exit 1
                                            on any violation
  python3 tools/masq_lint.py --json         structured report on stdout
                                            (archived by the CI lint job)
  python3 tools/masq_lint.py --list-allows  audit every allowance with
                                            file:line and its reason
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from masq_lint.engine import RULES, lint, lint_report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="masq_lint",
        description="Structural determinism linter for src/",
    )
    parser.add_argument(
        "--root",
        default=os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, os.pardir),
        help="repo root (default: two levels above this package)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit a structured JSON report instead of text",
    )
    parser.add_argument(
        "--list-allows", action="store_true",
        help="list every masq-lint allowance with file:line and reason",
    )
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)

    if args.list_allows:
        _, allowances = lint(root)
        for a in allowances:
            rel = os.path.relpath(a.path, root)
            print(f"{rel}:{a.lineno}: allow({a.rule}) {a.reason}")
        print(f"{len(allowances)} allowance(s)")
        return 0

    if args.json:
        report = lint_report(root)
        print(json.dumps(report, indent=2))
        return 1 if report["violation_count"] else 0

    violations, allowances = lint(root)
    for v in violations:
        rel = os.path.relpath(v.path, root)
        print(f"{rel}:{v.lineno}: [{v.rule}] {v.message}")
    if violations:
        print(
            f"\nmasq_lint: {len(violations)} violation(s) across "
            f"{len(RULES)} rule(s)",
            file=sys.stderr,
        )
        return 1
    print(
        f"masq_lint: clean ({len(RULES)} rules, "
        f"{len(allowances)} allowance(s))"
    )
    return 0
