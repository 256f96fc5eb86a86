"""Structural linter for the MasQ simulator (no libclang required).

Package layout:

  source.py        source model: comment/string stripping, allowance
                   parsing (``masq-lint: allow(<rule>) <reason>`` — the
                   reason is mandatory), Violation/Allowance records.
  rules.py         the per-line determinism rules (nodiscard, wall-clock,
                   unordered-iter, naked-new, container, event-callback).
  shared_state.py  the ``shared-state`` pass: every mutable global or
                   static in src/ outlives a run, so it must carry a
                   MASQ_SHARED_STATE(reason) annotation
                   (src/sim/ownership.h).
  cli.py           command line: --json, --list-allows, --root.

``tools/masq_lint.py`` remains the executable entry point (CI invokes
it); it forwards here. ``python3 tools/masq_lint`` works too.
"""

from masq_lint.cli import main
from masq_lint.engine import RULES, lint, lint_report

__all__ = ["RULES", "lint", "lint_report", "main"]
