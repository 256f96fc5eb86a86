"""Per-line determinism and error-handling rules.

  nodiscard       Every header declaration returning rnic::Status or
                  rnic::Expected<T> must be [[nodiscard]] — dropped control
                  -path errors are the root cause the chaos suite exists to
                  catch, so discarding must be a compile error, not a habit.
  wall-clock      src/ must not consult wall clocks, sleep, or use
                  non-seeded randomness. Simulated time comes from
                  sim::EventLoop::now() and randomness from seeded engines;
                  anything else breaks bit-identical replay.
  unordered-iter  No range-for over std::unordered_* containers in src/.
                  Unordered iteration order is implementation-defined, and
                  any event scheduled (or callback fired) from inside such a
                  loop makes the event trace depend on hash-table layout.
                  Sites that sort before acting may annotate an allowance.
  naked-new       No naked `new` in src/ — ownership goes through
                  std::make_unique/std::make_shared or containers.
  container       No std::map / std::unordered_map in src/sim, src/rnic,
                  src/sdn or src/net. The DESIGN.md §13 refactor moved every
                  hot table to sim::FlatMap (open addressing, insertion-ordered
                  iteration); node-based maps cost a cache miss per hop and
                  unordered ones leak hash-table layout into event order.
                  Cold-path exceptions annotate an allowance.
  event-callback  No std::function in event-loop scheduling signatures in
                  src/sim or src/net (FluidNet::start_flow's completion
                  callback included), even when the signature wraps.
                  Scheduling goes through sim::Callback (64-byte SBO,
                  move-only); std::function re-introduces a heap
                  allocation and a copy per scheduled event — the exact
                  costs the arena/SBO refactor removed.

The ``shared-state`` pass lives in shared_state.py.
"""

from __future__ import annotations

import os
import re

from masq_lint.source import SourceFile, Violation

# ---------------------------------------------------------------------------
# Rule: nodiscard
# ---------------------------------------------------------------------------

# A return type of Status or Expected<...> followed by a function name and
# an opening paren. Qualified out-of-line definitions (Foo::bar) live in
# .cc files and inherit the annotation from their declaration.
NODISCARD_DECL_RE = re.compile(
    r"(?:^|[\s;{])((?:rnic::)?(?:Status|Expected<[^;=]*?>))\s+"
    r"([A-Za-z_]\w*)\s*\("
)
DECL_PREFIX_OK_RE = re.compile(r"(?:virtual|static|inline|constexpr|friend|explicit)$")


def check_nodiscard(src: SourceFile, violations: list[Violation]) -> None:
    if not src.path.endswith(".h"):
        return
    for idx, line in enumerate(src.code):
        for m in NODISCARD_DECL_RE.finditer(line):
            start = m.start(1)
            before = line[:start]
            # Skip template arguments / casts: Task<Status>, pair<Status, T>.
            if before.rstrip().endswith(("<", ",", "(", "::")):
                continue
            # Skip qualified definitions (Device::foo) — none in headers
            # except inline methods, which regex position already excludes.
            context = before.rstrip()
            # [[nodiscard]] on the same line, before the type?
            if "[[nodiscard]]" in before:
                continue
            # ...or trailing on the previous line (multi-line declaration).
            prev = src.code[idx - 1].rstrip() if idx > 0 else ""
            if prev.endswith("[[nodiscard]]"):
                continue
            # Allow pure keyword prefixes between nodiscard and the type.
            last_tok = context.split()[-1] if context.split() else ""
            if last_tok and not DECL_PREFIX_OK_RE.fullmatch(last_tok):
                # Mid-expression use of the name (e.g. `return Status(...)`,
                # a variable declaration would lack the paren anyway).
                continue
            lineno = idx + 1
            if src.is_allowed("nodiscard", lineno):
                continue
            violations.append(
                Violation(
                    src.path, lineno, "nodiscard",
                    f"declaration of '{m.group(2)}' returns {m.group(1)} "
                    "without [[nodiscard]]",
                )
            )


# ---------------------------------------------------------------------------
# Rule: wall-clock
# ---------------------------------------------------------------------------

WALL_CLOCK_PATTERNS = [
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bsteady_clock\b"), "std::chrono::steady_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "std::chrono::high_resolution_clock"),
    (re.compile(r"\bsleep_for\b"), "std::this_thread::sleep_for"),
    (re.compile(r"\bsleep_until\b"), "std::this_thread::sleep_until"),
    (re.compile(r"\b(?:u|nano)?sleep\s*\("), "sleep()"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday"),
    (re.compile(r"\bclock_gettime\b"), "clock_gettime"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "time()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
]


def check_wall_clock(src: SourceFile, violations: list[Violation]) -> None:
    for idx, line in enumerate(src.code):
        for pat, label in WALL_CLOCK_PATTERNS:
            if pat.search(line):
                lineno = idx + 1
                if src.is_allowed("wall-clock", lineno):
                    continue
                violations.append(
                    Violation(
                        src.path, lineno, "wall-clock",
                        f"{label} breaks deterministic replay; use "
                        "sim::EventLoop time / seeded engines",
                    )
                )


# ---------------------------------------------------------------------------
# Rule: unordered-iter
# ---------------------------------------------------------------------------

UNORDERED_DECL_START_RE = re.compile(r"std::unordered_(?:multi)?(?:map|set)\b")
DECL_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^;]*\})?;")
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?[\w:<>,&\s\[\]]+?:\s*([^)]+)\)"
)


def unordered_names(files: list[SourceFile]) -> set[str]:
    """Names of variables/members declared with an unordered container."""
    names: set[str] = set()
    for src in files:
        pending = ""
        for line in src.code:
            if pending:
                pending += " " + line.strip()
            elif UNORDERED_DECL_START_RE.search(line):
                pending = line.strip()
            else:
                continue
            if ";" not in pending:
                # Declarations can span lines (template args wrap); keep
                # accumulating, but bail out of obvious non-declarations.
                if len(pending) > 400:
                    pending = ""
                continue
            m = DECL_NAME_RE.search(pending)
            if m:
                names.add(m.group(1))
            pending = ""
    return names


def container_token(expr: str) -> str:
    """`backend.conntrack().table_` -> `table_`; `*map_` -> `map_`."""
    expr = expr.strip().rstrip(")")
    for sep in ("->", "."):
        if sep in expr:
            expr = expr.rsplit(sep, 1)[-1]
    expr = expr.strip().lstrip("*&(")
    m = re.match(r"([A-Za-z_]\w*)", expr)
    return m.group(1) if m else ""


def check_unordered_iter(files_by_dir: dict[str, list[SourceFile]],
                         violations: list[Violation]) -> None:
    for _dir, files in sorted(files_by_dir.items()):
        # Directory-scoped resolution: a name declared unordered anywhere in
        # this directory taints range-fors over that name in the directory.
        # (Cross-directory member access goes through accessors, which are
        # not range-for'd directly.)
        names = unordered_names(files)
        if not names:
            continue
        for src in files:
            for idx, line in enumerate(src.code):
                m = RANGE_FOR_RE.search(line)
                if not m:
                    continue
                token = container_token(m.group(1))
                if token not in names:
                    continue
                lineno = idx + 1
                if src.is_allowed("unordered-iter", lineno):
                    continue
                violations.append(
                    Violation(
                        src.path, lineno, "unordered-iter",
                        f"range-for over unordered container '{token}': "
                        "iteration order is nondeterministic; sort first or "
                        "use an ordered container",
                    )
                )


# ---------------------------------------------------------------------------
# Rule: naked-new
# ---------------------------------------------------------------------------

# `new T(...)` but not placement new (`new (ptr) T(...)` / `::new (ptr)`)
# — placement new constructs into storage someone else already owns, which
# is exactly the SBO/arena pattern, not an ownership escape.
NAKED_NEW_RE = re.compile(r"(?<![\w.])new\s+[A-Za-z_]")


def check_naked_new(src: SourceFile, violations: list[Violation]) -> None:
    for idx, line in enumerate(src.code):
        if not NAKED_NEW_RE.search(line):
            continue
        lineno = idx + 1
        if src.is_allowed("naked-new", lineno):
            continue
        violations.append(
            Violation(
                src.path, lineno, "naked-new",
                "naked new: route ownership through std::make_unique / "
                "std::make_shared or a container",
            )
        )


# ---------------------------------------------------------------------------
# Rule: container
# ---------------------------------------------------------------------------

# Directories the flat-map sweep converted; new node-based maps may not
# creep back in. (std::set stays legal — ordered sets are deterministic and
# have no flat replacement in-tree yet.)
CONTAINER_DIRS = (
    os.path.join("src", "sim"),
    os.path.join("src", "rnic"),
    os.path.join("src", "sdn"),
    os.path.join("src", "net"),
)
CONTAINER_RE = re.compile(r"\bstd::(unordered_map|map)\s*<")


def check_container(src: SourceFile, violations: list[Violation]) -> None:
    if not any(os.sep + d + os.sep in src.path for d in CONTAINER_DIRS):
        return
    for idx, line in enumerate(src.code):
        m = CONTAINER_RE.search(line)
        if not m:
            continue
        lineno = idx + 1
        if src.is_allowed("container", lineno):
            continue
        violations.append(
            Violation(
                src.path, lineno, "container",
                f"std::{m.group(1)} on a hot-path layer: use sim::FlatMap "
                "(open addressing, insertion-ordered iteration) instead",
            )
        )


# ---------------------------------------------------------------------------
# Rule: event-callback
# ---------------------------------------------------------------------------

# A scheduling signature is one that both names a scheduling verb and takes
# a std::function — the shape the sim::Callback refactor eliminated from
# the event loop. FluidNet::start_flow counts: its completion callback is
# scheduled on the loop. Hook registration (FaultPlane::arm etc.) is not
# scheduling and stays free to use std::function.
SCHEDULE_VERB_RE = re.compile(
    r"\b(?:schedule\w*|defer|post|run_at|call_at|call_in|start_flow)\s*\("
)
EVENT_CB_DIRS = (
    os.path.join("src", "sim"),
    os.path.join("src", "net"),
)
# A signature may wrap; read on to the first `;` or `{`, at most this many
# lines.
SIGNATURE_MAX_LINES = 8


def signature_text(code: list[str], idx: int, start: int) -> str:
    """Text from column `start` of line `idx` to the first `;` or `{`."""
    text = ""
    for line in code[idx:idx + SIGNATURE_MAX_LINES]:
        text += " " + (line[start:] if not text else line)
        if ";" in line or "{" in line:
            break
    return text


def check_event_callback(src: SourceFile,
                         violations: list[Violation]) -> None:
    if not any(os.sep + d + os.sep in src.path for d in EVENT_CB_DIRS):
        return
    for idx, line in enumerate(src.code):
        m = SCHEDULE_VERB_RE.search(line)
        if not m or "std::function" not in signature_text(src.code, idx,
                                                          m.start()):
            continue
        lineno = idx + 1
        if src.is_allowed("event-callback", lineno):
            continue
        violations.append(
            Violation(
                src.path, lineno, "event-callback",
                "std::function in an event-loop scheduling signature: "
                "scheduling takes sim::Callback (SBO, move-only) — "
                "std::function heap-allocates per event",
            )
        )
