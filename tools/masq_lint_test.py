#!/usr/bin/env python3
"""Self-test for tools/masq_lint — golden-fixture harness.

Each directory under tools/lint_fixtures/<case>/<variant>/ is a complete
synthetic lint root; the test asserts the EXACT set of rules that fire
on it (see lint_fixtures/README.md). Also smoke-tests the CLI shim
(--json, --list-allows) and checks the real tree lints clean, so a rule
regression and a tree regression both fail the same ctest target.

Runs under plain python3 (no pytest): each check prints PASS/FAIL and
the process exits non-zero on any failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.abspath(os.path.join(TOOLS_DIR, os.pardir))
FIXTURES = os.path.join(TOOLS_DIR, "lint_fixtures")

sys.path.insert(0, TOOLS_DIR)

from masq_lint.engine import RULES, lint, lint_report  # noqa: E402

# (case, variant) -> exact set of rules expected to fire on that root.
EXPECT = {
    ("nodiscard", "violating"): {"nodiscard"},
    ("nodiscard", "allowed"): set(),
    ("nodiscard", "clean"): set(),
    ("wall_clock", "violating"): {"wall-clock"},
    ("wall_clock", "allowed"): set(),
    ("wall_clock", "clean"): set(),
    ("unordered_iter", "violating"): {"unordered-iter"},
    ("unordered_iter", "allowed"): set(),
    ("unordered_iter", "clean"): set(),
    ("naked_new", "violating"): {"naked-new"},
    ("naked_new", "allowed"): set(),
    ("naked_new", "clean"): set(),
    ("container", "violating"): {"container"},
    ("container", "allowed"): set(),
    ("container", "clean"): set(),
    ("container", "net_violating"): {"container"},
    ("container", "net_clean"): set(),
    ("event_callback", "violating"): {"event-callback"},
    ("event_callback", "allowed"): set(),
    ("event_callback", "clean"): set(),
    # A start_flow signature that wraps before its std::function parameter.
    ("event_callback", "net_violating"): {"event-callback"},
    ("event_callback", "net_allowed"): set(),
    ("event_callback", "net_clean"): set(),
    # Acceptance fixture: an unannotated mutable global.
    ("shared_state", "violating"): {"shared-state"},
    ("shared_state", "allowed"): set(),
    ("shared_state", "clean"): set(),
    ("shared_state", "empty_reason_violating"): {"shared-state"},
    # A reasonless allowance fails allow-reason AND does not shield.
    ("allow_reason", "violating"): {"allow-reason", "naked-new"},
    ("allow_reason", "clean"): set(),
}

failures = 0


def check(label: str, ok: bool, detail: str = "") -> None:
    global failures
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {label}"
    if detail and not ok:
        line += f"\n       {detail}"
    print(line)
    if not ok:
        failures += 1


def fixture_cases() -> None:
    seen = set()
    for case in sorted(os.listdir(FIXTURES)):
        case_dir = os.path.join(FIXTURES, case)
        if not os.path.isdir(case_dir):
            continue
        for variant in sorted(os.listdir(case_dir)):
            root = os.path.join(case_dir, variant)
            if not os.path.isdir(root):
                continue
            seen.add((case, variant))
            expected = EXPECT.get((case, variant))
            if expected is None:
                check(f"fixture {case}/{variant} has an expectation", False,
                      "add it to EXPECT in masq_lint_test.py")
                continue
            violations, _ = lint(root)
            fired = {v.rule for v in violations}
            check(
                f"fixture {case}/{variant}: rules {sorted(fired) or '[]'}",
                fired == expected,
                f"expected exactly {sorted(expected) or '[]'}; got "
                + "; ".join(f"{os.path.relpath(v.path, root)}:{v.lineno} "
                            f"[{v.rule}] {v.message}" for v in violations),
            )
    for key in EXPECT:
        if key not in seen:
            check(f"fixture directory exists for {key[0]}/{key[1]}", False)


def allowance_listing() -> None:
    # The allowed fixtures must surface in the allowance audit.
    root = os.path.join(FIXTURES, "naked_new", "allowed")
    _, allowances = lint(root)
    check(
        "allowed fixture appears in allowance list with its reason",
        len(allowances) == 1
        and allowances[0].rule == "naked-new"
        and "C ABI" in allowances[0].reason,
        f"got {allowances}",
    )


def wrapped_signature_line() -> None:
    # The wrapped signature is reported once, at the line naming start_flow.
    root = os.path.join(FIXTURES, "event_callback", "net_violating")
    violations, _ = lint(root)
    check(
        "wrapped start_flow signature is flagged at its first line",
        [(os.path.basename(v.path), v.lineno) for v in violations]
        == [("wire.h", 11)],
        f"got {violations}",
    )


def report_shape() -> None:
    root = os.path.join(FIXTURES, "shared_state", "violating")
    report = lint_report(root)
    ok = (
        report["violation_count"] == 1
        and report["violations"][0]["rule"] == "shared-state"
        and report["violations"][0]["path"].endswith("bad.cc")
        and set(report["rules"]) == set(RULES)
        and "violations_by_rule" in report
    )
    check("lint_report structure for the acceptance fixture", ok,
          json.dumps(report, indent=2))


def cli_shim() -> None:
    shim = os.path.join(TOOLS_DIR, "masq_lint.py")
    bad_root = os.path.join(FIXTURES, "shared_state", "violating")

    r = subprocess.run(
        [sys.executable, shim, "--root", bad_root],
        capture_output=True, text=True)
    check("CLI exits 1 and names the rule on the violating fixture",
          r.returncode == 1 and "[shared-state]" in r.stdout,
          f"rc={r.returncode} stdout={r.stdout!r} stderr={r.stderr!r}")

    r = subprocess.run(
        [sys.executable, shim, "--root", bad_root, "--json"],
        capture_output=True, text=True)
    ok = r.returncode == 1
    if ok:
        payload = json.loads(r.stdout)
        ok = payload["violation_count"] == 1
    check("CLI --json emits parseable report and exit 1",
          ok, f"rc={r.returncode} stdout={r.stdout[:400]!r}")

    r = subprocess.run(
        [sys.executable, shim, "--root",
         os.path.join(FIXTURES, "naked_new", "allowed"), "--list-allows"],
        capture_output=True, text=True)
    check("CLI --list-allows prints file:line and reason, exit 0",
          r.returncode == 0 and "owner.cc:3: allow(naked-new)" in r.stdout,
          f"rc={r.returncode} stdout={r.stdout!r}")


def real_tree() -> None:
    violations, _ = lint(REPO_ROOT)
    check(
        "real src/ tree lints clean",
        not violations,
        "; ".join(f"{os.path.relpath(v.path, REPO_ROOT)}:{v.lineno} "
                  f"[{v.rule}]" for v in violations),
    )


def main() -> int:
    fixture_cases()
    allowance_listing()
    wrapped_signature_line()
    report_shape()
    cli_shim()
    real_tree()
    total = failures
    print(f"\nmasq_lint_test: {'FAIL' if total else 'OK'}"
          + (f" ({total} failure(s))" if total else ""))
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main())
