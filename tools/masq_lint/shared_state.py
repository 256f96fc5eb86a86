"""The ``shared-state`` pass (DESIGN.md §16).

The simulator is single-threaded and a run owns its state through the
object graph rooted at its EventLoop. What can silently break run-to-run
determinism is state that lives *outside* any such graph: namespace-scope
globals, function-local statics, and mutable static data members. It
outlives one simulation and carries into the next one in the same
process — one innocent-looking counter at file scope makes a test's
result depend on which tests ran before it.

This pass finds, per translation unit, every such object:

  * mutable namespace-scope globals (the repo indents namespace contents
    at column 0, so namespace-scope declarations are exactly the
    column-0 declarations that are not functions/types/usings);
  * ``static`` locals and static data members (one detector: any
    indented mutable non-function ``static`` declaration).

Each one must carry ``MASQ_SHARED_STATE(why)`` from src/sim/ownership.h
on its declaration line or the line above, and ``why`` must be non-empty:
it says why the state cannot change a run's results.
"""

from __future__ import annotations

import re

from masq_lint.source import SourceFile, Violation

RULE = "shared-state"

ANNOTATION = "MASQ_SHARED_STATE"
SHARED_STATE_ANY_RE = re.compile(r"MASQ_SHARED_STATE\s*\(")

# Leading tokens that say nothing about mutability.
STORAGE_TOKENS = {"inline", "static", "thread_local", "constinit",
                  "virtual", "friend"}
# Leading tokens that make the object immutable (never-written state
# cannot carry anything from one run into the next, so it needs no
# annotation).
IMMUTABLE_TOKENS = {"const", "constexpr", "consteval"}
# Column-0 keywords that open constructs rather than declare objects.
NON_DECL_KEYWORDS = {
    "namespace", "using", "typedef", "template", "class", "struct", "enum",
    "union", "extern", "return", "if", "else", "for", "while", "do",
    "switch", "case", "default", "break", "continue", "goto", "public",
    "private", "protected", "try", "catch", "throw", "co_return",
    "co_await", "co_yield", "delete", "new", "operator", "sizeof",
    "alignas", "alignof", "static_assert", "asm", "explicit", "typename",
    "concept", "requires",
}

WORD_RE = re.compile(r"[A-Za-z_]\w*")
STATIC_LINE_RE = re.compile(r"^\s*(?:inline\s+)?static\b")


def _blank_angles(decl: str) -> str:
    """Blanks template-argument lists so commas/keywords inside <> don't
    confuse the declarator scan. Comparison operators never appear in the
    declaration heads this pass accumulates (it stops at the first ';',
    '=' or '{'), so every '<' here opens a template-argument list."""
    out = []
    depth = 0
    for ch in decl:
        if ch == "<":
            depth += 1
            out.append(" ")
        elif ch == ">":
            depth = max(0, depth - 1)
            out.append(" ")
        else:
            out.append(ch if depth == 0 else " ")
    return "".join(out)


def _mutability(decl: str) -> str:
    """'mutable' | 'immutable' | 'extern-decl', judged from the
    declaration's leading tokens."""
    for w in WORD_RE.findall(decl):
        if w == "extern":
            return "extern-decl"  # a reference, not the definition
        if w in STORAGE_TOKENS:
            continue
        if w in IMMUTABLE_TOKENS:
            return "immutable"
        return "mutable"
    return "immutable"


def _declared_variable(decl: str) -> str | None:
    """The declared object's name, or None if `decl` is not an object
    declaration (function signature, macro invocation, expression...)."""
    flat = _blank_angles(decl)
    # NAME followed by an initializer or terminator — the declarator shape.
    for m in re.finditer(r"([A-Za-z_]\w*)((?:\s*\[[^\]]*\])*)\s*(=|;|\{)",
                         flat):
        name = m.group(1)
        if (name in NON_DECL_KEYWORDS or name in STORAGE_TOKENS
                or name in IMMUTABLE_TOKENS
                or name in ("noexcept", "override", "final", "mutable")):
            continue
        before = flat[: m.start(1)]
        # Inside a parameter list / function-style initializer.
        if before.count("(") > before.count(")"):
            continue
        # `Foo::bar = ...` is an assignment/out-of-line definition detail,
        # and `x.y = ...` / `x->y = ...` are member assignments. A ')'
        # right before the candidate means a function signature
        # (`f(args) {`, `f(args) const`), not an object.
        tail = before.rstrip()
        if tail.endswith(("::", ".", "->", "=", "!", "<", ">", "+", "-",
                          "*", "/", "%", "&", "|", "(", ",", ")",
                          "return")):
            continue
        # A bare `name;` with nothing before it is an expression statement
        # (or a macro), not a declaration: declarations carry a type.
        if m.group(3) != "{" and not WORD_RE.search(before):
            continue
        return name
    return None


class SharedObject:
    """One flagged shared mutable object."""

    def __init__(self, path: str, lineno: int, name: str, kind: str,
                 annotated: bool):
        self.path = path
        self.lineno = lineno
        self.name = name
        self.kind = kind  # "global" | "static"
        self.annotated = annotated


def _annotated(src: SourceFile, first_line_idx: int) -> bool:
    """MASQ_SHARED_STATE on the declaration's first line or the line above."""
    lines = src.raw[max(0, first_line_idx - 1): first_line_idx + 1]
    return any(re.search(rf"\b{ANNOTATION}\b", text) for text in lines)


def _check_shared_state_reason(src: SourceFile,
                               violations: list[Violation]) -> None:
    """MASQ_SHARED_STATE must carry a non-empty reason."""
    for idx, text in enumerate(src.raw):
        for m in SHARED_STATE_ANY_RE.finditer(text):
            # Mentions inside comments/strings are doc text, not
            # annotations: the stripped variant blanks those.
            code_line = src.code[idx] if idx < len(src.code) else ""
            if m.start() >= len(code_line) or code_line[m.start()] != "M":
                continue
            open_i = text.index("(", m.start())
            depth = 0
            arg = text[open_i + 1:]  # unbalanced: whatever is there
            for j in range(open_i, len(text)):
                if text[j] == "(":
                    depth += 1
                elif text[j] == ")":
                    depth -= 1
                    if depth == 0:
                        arg = text[open_i + 1: j]
                        break
            if arg.strip().strip("\"'").strip() == "":
                violations.append(
                    Violation(
                        src.path, idx + 1, RULE,
                        "MASQ_SHARED_STATE with an empty reason: say what "
                        "lock, atomic, or immutability argument makes the "
                        "sharing safe",
                    )
                )


def collect_shared_objects(src: SourceFile) -> list[SharedObject]:
    """Every mutable global or static the file declares."""
    objects: list[SharedObject] = []
    idx = 0
    nlines = len(src.code)
    while idx < nlines:
        line = src.code[idx]
        stripped = line.strip()
        kind = None
        if STATIC_LINE_RE.match(line):
            kind = "static" if line[0].isspace() else "global"
        elif stripped and not line[0].isspace() and line[0].isalpha():
            first = WORD_RE.match(stripped)
            if first and first.group(0) not in NON_DECL_KEYWORDS:
                kind = "global"
        if kind is None:
            idx += 1
            continue
        # Accumulate the declaration head: up to the first ';', '=' or '{'
        # at paren depth 0 (initializers and bodies carry no new facts).
        decl = ""
        start = idx
        while idx < nlines:
            decl += " " + src.code[idx].strip()
            if any(t in src.code[idx] for t in ";={") or len(decl) > 400:
                break
            idx += 1
        idx += 1
        decl = decl.strip()
        # Cut at the first terminator: initializer bodies and function
        # bodies after '{' carry no declaration facts, and leaving them in
        # lets body-local names masquerade as the declared object.
        for i, ch in enumerate(decl):
            if ch in ";={":
                decl = decl[: i + 1]
                break
        if _mutability(decl) != "mutable":
            continue
        name = _declared_variable(decl)
        if name is None:
            continue
        objects.append(
            SharedObject(src.path, start + 1, name, kind,
                         _annotated(src, start)))
    return objects


def check_shared_state(src: SourceFile, violations: list[Violation]) -> None:
    _check_shared_state_reason(src, violations)
    for obj in collect_shared_objects(src):
        if obj.annotated or src.is_allowed(RULE, obj.lineno):
            continue
        what = ("mutable namespace-scope global" if obj.kind == "global"
                else "mutable static (function-local or member)")
        violations.append(
            Violation(
                src.path, obj.lineno, RULE,
                f"{what} '{obj.name}' outlives a run: mark it "
                "MASQ_SHARED_STATE(reason) (src/sim/ownership.h) or make "
                "it per-run state",
            )
        )
