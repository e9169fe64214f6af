#!/usr/bin/env python3
"""DISCO invariant linter.

Enforces repo-specific correctness invariants that neither the compiler nor
clang-tidy can express.  It is a regex-AST hybrid: comments and string
literals are stripped, brace depth is tracked to attribute each line to its
enclosing function, and the rules below are applied to the result.  No
dependencies beyond the Python 3 standard library.

Rules
-----
hot-path-transcendental
    Hot-path translation units (the per-packet DISCO update path) must not
    call std transcendental math functions.  PR 3 replaced them with the
    precomputed DecisionTable; a reintroduced std::log would silently undo
    that work.  Per-file whitelists name the cold-path functions (table
    construction, statistics) that legitimately use them.

atomic-memory-order
    Every std::atomic operation in src/pipeline and src/telemetry must name
    an explicit std::memory_order.  The SPSC ring and the telemetry counters
    are correctness- and performance-sensitive; a defaulted seq_cst argument
    is either an accidental fence on the fast path or an unreviewed ordering
    decision.

rng-call-site
    util::Rng draw methods may only be called from the canonical decide/
    update/merge functions.  The decision-table fast path is bit-identical
    to the transcendental path *only* because both consume exactly one draw
    per update; a stray draw anywhere else silently desynchronises the RNG
    stream contract (see FlowMonitor.IngestBatchMatchesSequentialBursts).

header-self-contained
    Headers under src/ must directly include the standard headers for the
    std:: vocabulary types they use, rather than leaning on transitive
    includes that a refactor elsewhere can remove.

simd-intrinsics-confined
    Raw vector intrinsics (_mm*/_mm256*/__m128i/...) may appear only in the
    dedicated probe kernel header src/flowtable/tag_probe.hpp.  Everything
    else must go through its portable scan<UseSimd>() wrapper -- that is
    what keeps the scalar fallback bit-identical (the differential suite
    compares the two engines) and keeps -DDISCO_SIMD=OFF builds compiling
    on any target.

atomic-shim-confined
    Raw std::atomic / std::atomic_flag / std::atomic_thread_fence may
    appear only in src/util/atomic.hpp (the shim that defines them away)
    and under src/verify/ (the model checker's own implementation).
    Everything else declares util::atomic / util::shared and fences with
    util::atomic_fence, so a -DDISCO_MODELCHECK build routes every
    operation through the schedule-exploring checker (docs/
    static-analysis.md, "Model checking").  A raw std::atomic elsewhere is
    invisible to the checker: the code still compiles and runs, but its
    interleavings are silently never explored.  std::memory_order stays
    legal everywhere -- the shim deliberately keeps the standard ordering
    vocabulary.

Suppressions
------------
A finding can be suppressed with a justification on the same line or the
line above::

    // disco-lint: allow(rule-id) reason why this is legitimate

A suppression without a reason is itself an error: the whole point is that
exceptions are documented.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

# --------------------------------------------------------------------------
# Rule configuration.  Paths are '/'-separated suffixes so the same config
# applies to real sources (src/core/disco.cpp) and to test fixtures
# (tests/lint_fixtures/bad/src/core/disco.cpp).
# --------------------------------------------------------------------------

RULE_TRANSCENDENTAL = "hot-path-transcendental"
RULE_MEMORY_ORDER = "atomic-memory-order"
RULE_RNG = "rng-call-site"
RULE_HEADER = "header-self-contained"
RULE_SIMD = "simd-intrinsics-confined"
RULE_ATOMIC_SHIM = "atomic-shim-confined"

ALL_RULES = (RULE_TRANSCENDENTAL, RULE_MEMORY_ORDER, RULE_RNG, RULE_HEADER,
             RULE_SIMD, RULE_ATOMIC_SHIM)

# Hot-path files -> functions allowed to call transcendentals.  These are
# the cold-path helpers inside otherwise-hot translation units.
HOT_PATH_FILES: Dict[str, Set[str]] = {
    "src/core/disco.cpp": {"confidence_interval", "interval_for_estimate"},
    "src/core/decision_table.cpp": set(),
    "src/core/decision_table.hpp": set(),
    "src/pipeline/pipeline.cpp": set(),
    "src/pipeline/packet_ring.hpp": set(),
}

TRANSCENDENTALS = (
    "log|log2|log10|log1p|exp|exp2|expm1|pow|sqrt|cbrt|hypot|"
    "sin|cos|tan|asin|acos|atan|atan2|sinh|cosh|tanh|"
    "erf|erfc|tgamma|lgamma"
)
TRANSCENDENTAL_RE = re.compile(
    r"(?<![\w.>])(?:std\s*::\s*)?(" + TRANSCENDENTALS + r")\s*\("
)

# Directories whose atomics must spell out their memory_order.
ATOMIC_DIRS = ("src/pipeline/", "src/telemetry/")

ATOMIC_METHODS = (
    "load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|"
    "compare_exchange_weak|compare_exchange_strong"
)
ATOMIC_CALL_RE = re.compile(r"\.\s*(" + ATOMIC_METHODS + r")\s*\(")
# Declarations may spell the raw type or the model-check shim alias
# (util::atomic, see atomic-shim-confined); both bind operator-form checks.
ATOMIC_DECL_RE = re.compile(
    r"(?:std|util)\s*::\s*atomic\s*<[^<>]*(?:<[^<>]*>[^<>]*)*>\s+(\w+)"
)

# Directories where Rng draws are policed, and the canonical draw sites.
RNG_DIRS = ("src/core/", "src/flowtable/", "src/pipeline/")
RNG_ALLOWED: Dict[str, Set[str]] = {
    "src/core/disco.hpp": {"update"},
    # rescale_once / saturate_or_rescale: the RescaleB remap's randomized
    # rounding (cold path, docs/robustness.md); draws from the same
    # measurement stream as the update that triggered it, deliberately.
    "src/core/disco.cpp": {"merge", "rescale_once", "saturate_or_rescale"},
    "src/core/disco_fixed.hpp": {"update"},
    "src/core/regulation.hpp": {"update"},
    # Pressure-policy decisions (RAP coin, victim sampling) draw ONLY from
    # the monitor's dedicated pressure_rng_ stream, never the measurement
    # stream -- confining the draws to these two cold-path functions is what
    # keeps the Drop default bit-identical to pre-policy builds.
    "src/flowtable/monitor.cpp": {"admit_under_pressure", "select_victim"},
}
RNG_DRAW_RE = re.compile(
    r"\b(\w*[Rr]ng\w*)\s*(?:\.|->)\s*"
    r"(next|next_double|bernoulli|uniform_u64|uniform_double|fork)\s*\("
)

# The one file allowed to use raw vector intrinsics: the probe kernel.
# Suffix-matched like RNG_ALLOWED, so fixture trees exercise the rule.
SIMD_ALLOWED_FILES = ("src/flowtable/tag_probe.hpp",)
SIMD_INTRINSIC_RE = re.compile(r"\b(_mm\d*_\w+|__m\d+[a-z]*)\b")

# Where raw std:: atomics are legitimate: the shim that aliases them away
# and the model checker they get routed to.  Suffix-matched so fixture
# trees exercise the rule and its exemptions.
ATOMIC_SHIM_ALLOWED_FILES = ("src/util/atomic.hpp",)
ATOMIC_SHIM_ALLOWED_DIRS = ("src/verify/",)
ATOMIC_SHIM_RE = re.compile(
    r"\bstd\s*::\s*(atomic_thread_fence|atomic_signal_fence|atomic_flag|"
    r"atomic_ref|atomic)\b"
)

# std:: vocabulary type -> standard header that must be directly included.
HEADER_REQUIREMENTS: Sequence[Tuple[re.Pattern, str]] = [
    (re.compile(r"\bstd\s*::\s*atomic\b|\bstd\s*::\s*memory_order"), "atomic"),
    (re.compile(r"\bstd\s*::\s*(mutex|lock_guard|unique_lock|scoped_lock)\b"),
     "mutex"),
    (re.compile(r"\bstd\s*::\s*thread\b"), "thread"),
    (re.compile(r"\bstd\s*::\s*condition_variable\b"), "condition_variable"),
    (re.compile(r"\bstd\s*::\s*optional\b"), "optional"),
    (re.compile(r"\bstd\s*::\s*string_view\b"), "string_view"),
    (re.compile(r"\bstd\s*::\s*vector\b"), "vector"),
    (re.compile(r"\bstd\s*::\s*(unique_ptr|shared_ptr|make_unique|make_shared)\b"),
     "memory"),
    (re.compile(r"\bstd\s*::\s*u?int(?:8|16|32|64)_t\b"), "cstdint"),
]

# Headers that legitimately re-export a std type as part of their contract
# (util::Mutex wraps std::mutex; including <mutex> there is the point).
HEADER_PROVIDES: Dict[str, Set[str]] = {
    "src/util/thread_annotations.hpp": set(),
}

SUPPRESS_RE = re.compile(
    r"//\s*disco-lint:\s*allow\(\s*([\w-]+)\s*\)\s*[-: ]*\s*(.*)"
)

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "else", "do", "try",
    "sizeof", "alignof", "alignas", "decltype", "static_assert", "new",
    "delete", "throw", "case", "default",
}
QUALIFIER_TOKENS = {
    "const", "noexcept", "override", "final", "mutable", "volatile",
    "try", "&", "&&", "->",
}


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Lexical preprocessing.
# --------------------------------------------------------------------------

def strip_comments_and_strings(text: str) -> str:
    """Blank out comments, string and char literals, preserving newlines
    and column positions so line attribution stays exact."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c == '"':
            out[i] = " "
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n:
                    out[i] = out[i + 1] = " "
                    i += 2
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        elif c == "'":
            # Digit separator (1'000'000) vs char literal.
            prev = text[i - 1] if i > 0 else ""
            if prev.isalnum() and i + 1 < n and (text[i + 1].isalnum()
                                                 or text[i + 1] == "_"):
                out[i] = " "  # separator: drop quote, keep digits
                i += 1
                continue
            out[i] = " "
            i += 1
            while i < n and text[i] != "'":
                if text[i] == "\\" and i + 1 < n:
                    out[i] = out[i + 1] = " "
                    i += 2
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def blank_preprocessor(stripped: str) -> Tuple[str, List[str]]:
    """Blank out preprocessor lines (after comment stripping), returning the
    code text and the list of directive lines for include parsing."""
    lines = stripped.split("\n")
    directives = []
    for idx, line in enumerate(lines):
        logical = line.lstrip()
        if logical.startswith("#"):
            directives.append(line)
            lines[idx] = ""
    return "\n".join(lines), directives


# --------------------------------------------------------------------------
# Enclosing-function attribution.
# --------------------------------------------------------------------------

_FUNC_NAME_RE = re.compile(r"((?:~?\w+|operator\s*[^\s(]+)(?:\s*::\s*~?\w+)*)\s*$")


def _classify_head(head: str) -> Tuple[str, Optional[str]]:
    """Classify the text between the previous ';'/'{'/'}' and an opening
    brace.  Returns (kind, name) where kind is one of 'namespace', 'type',
    'function', 'lambda', 'block'."""
    head = " ".join(head.split())
    # Strip access-specifier labels that precede a member declaration.
    head = re.sub(r"^(?:(?:public|private|protected)\s*:\s*)+", "", head)
    if not head:
        return "block", None
    if re.match(r"^(inline\s+)?namespace(\s+[\w:]+)?$", head):
        return "namespace", None
    if re.search(r"\b(class|struct|union|enum)\b(?!.*\boperator\b)"
                 r"(?!.*[)=])", head):
        return "type", None
    # Constructor initialiser list: cut at the top-level ':' (not '::') that
    # follows the parameter list, so the backward scan sees the real header.
    depth = 0
    cut = -1
    k = 0
    while k < len(head):
        ch = head[k]
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == ":" and depth == 0:
            if k + 1 < len(head) and head[k + 1] == ":":
                k += 2
                continue
            if k > 0 and head[k - 1] == ":":
                k += 1
                continue
            if "(" in head[:k]:
                cut = k
                break
        k += 1
    if cut >= 0:
        head = head[:cut].rstrip()
    if head.endswith("="):
        return "block", None
    # Backward scan: drop trailing qualifiers, then expect a parenthesised
    # parameter list, then the function name.
    rest = head
    changed = True
    while changed:
        changed = False
        for token in QUALIFIER_TOKENS:
            if rest.endswith(token):
                rest = rest[: -len(token)].rstrip()
                changed = True
        m = re.search(r"->\s*[\w:<>,&*\s]+$", rest)
        if m and not rest.endswith(")"):
            rest = rest[: m.start()].rstrip()
            changed = True
    if rest.endswith("]"):  # lambda introducer with no parameter list
        return "lambda", None
    if not rest.endswith(")"):
        return "block", None
    # Match the parameter list parens backwards.
    depth = 0
    pos = len(rest) - 1
    while pos >= 0:
        if rest[pos] == ")":
            depth += 1
        elif rest[pos] == "(":
            depth -= 1
            if depth == 0:
                break
        pos -= 1
    if pos <= 0:
        return "block", None
    before = rest[:pos].rstrip()
    if before.endswith("]"):
        return "lambda", None
    m = _FUNC_NAME_RE.search(before)
    if not m:
        return "block", None
    name = m.group(1)
    last = re.split(r"\s*::\s*", name)[-1].replace(" ", "")
    if last in CONTROL_KEYWORDS:
        return "block", None
    return "function", last.lstrip("~")


def function_context(code: str) -> List[Optional[str]]:
    """For each line of comment-stripped code, the name of the nearest
    enclosing function (lambdas inherit their enclosing function's name),
    or None at namespace/class/file scope."""
    n_lines = code.count("\n") + 1
    context: List[Optional[str]] = [None] * n_lines
    stack: List[Tuple[str, Optional[str]]] = []  # (kind, current function)
    head_start = 0
    line = 0

    def current_function() -> Optional[str]:
        for kind, name in reversed(stack):
            if kind in ("function", "lambda"):
                return name
        return None

    i, n = 0, len(code)
    while i < n:
        c = code[i]
        if c == "\n":
            line += 1
            if line < n_lines:
                context[line] = current_function()
        elif c == "{":
            kind, name = _classify_head(code[head_start:i])
            if kind == "lambda":
                stack.append(("lambda", current_function()))
            elif kind == "function":
                stack.append(("function", name))
            else:
                stack.append((kind, current_function()))
            context[line] = current_function()
            head_start = i + 1
        elif c == "}":
            if stack:
                stack.pop()
            head_start = i + 1
            # Re-evaluate context for the remainder of this line.
            context_after = current_function()
            if context[line] is not None and context_after is None:
                pass  # closing line still attributed to the function
        elif c == ";":
            head_start = i + 1
        i += 1
    return context


# --------------------------------------------------------------------------
# Suppression handling.
# --------------------------------------------------------------------------

def collect_suppressions(raw_lines: Sequence[str], path: str,
                         findings: List[Finding]) -> Dict[int, Set[str]]:
    """Map line number (1-based) -> set of suppressed rule ids.  A
    suppression covers its own line and the next line (comment-above
    style)."""
    suppressed: Dict[int, Set[str]] = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        rule, reason = m.group(1), m.group(2).strip()
        if rule not in ALL_RULES:
            findings.append(Finding(
                path, idx, "bad-suppression",
                f"unknown rule '{rule}' in suppression "
                f"(known: {', '.join(ALL_RULES)})"))
            continue
        if not reason:
            findings.append(Finding(
                path, idx, "bad-suppression",
                f"suppression of '{rule}' has no reason; write "
                f"'// disco-lint: allow({rule}) <why this is legitimate>'"))
            continue
        suppressed.setdefault(idx, set()).add(rule)
        suppressed.setdefault(idx + 1, set()).add(rule)
    return suppressed


# --------------------------------------------------------------------------
# Individual rules.  Each takes the preprocessed file and appends findings.
# --------------------------------------------------------------------------

def match_suffix(rel: str, table: Iterable[str]) -> Optional[str]:
    for suffix in table:
        if rel == suffix or rel.endswith("/" + suffix):
            return suffix
    return None


def check_transcendentals(rel: str, code_lines: Sequence[str],
                          context: Sequence[Optional[str]],
                          findings: List[Finding]) -> None:
    key = match_suffix(rel, HOT_PATH_FILES)
    if key is None:
        return
    allowed = HOT_PATH_FILES[key]
    for idx, line in enumerate(code_lines):
        for m in TRANSCENDENTAL_RE.finditer(line):
            func = context[idx]
            if func in allowed:
                continue
            where = f"in '{func}'" if func else "at file scope"
            findings.append(Finding(
                rel, idx + 1, RULE_TRANSCENDENTAL,
                f"std::{m.group(1)} {where}: hot-path files must use the "
                f"DecisionTable, not transcendental math "
                f"(allowed here: {sorted(allowed) or 'none'})"))


def balanced_args(text: str, start: int) -> str:
    """Return the argument text of a call whose '(' is at `start`,
    spanning lines if needed."""
    depth = 0
    for j in range(start, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return text[start + 1:j]
    return text[start + 1:]


def check_memory_order(rel: str, code_lines: Sequence[str],
                       atomic_names: Set[str],
                       findings: List[Finding]) -> None:
    if not any(d in rel or rel.startswith(d.rstrip("/") + "/")
               for d in ATOMIC_DIRS):
        return
    joined = "\n".join(code_lines)
    decl_lines = set()
    for m in ATOMIC_DECL_RE.finditer(joined):
        decl_lines.add(joined.count("\n", 0, m.start()))
    # Method-style ops: anything with a .load/.store/... call in these
    # directories is an atomic in practice (aliased references included).
    for m in ATOMIC_CALL_RE.finditer(joined):
        paren = joined.index("(", m.end() - 1)
        args = balanced_args(joined, paren)
        if "memory_order" in args:
            continue
        line_no = joined.count("\n", 0, m.start()) + 1
        findings.append(Finding(
            rel, line_no, RULE_MEMORY_ORDER,
            f".{m.group(1)}() without an explicit std::memory_order "
            f"(defaulted seq_cst is an unreviewed fence on the fast "
            f"path; spell out the ordering and justify it)"))
    for idx, line in enumerate(code_lines):
        # Operator-style ops on known atomic members: ++x, x++, x += v,
        # x = v all default to seq_cst.
        if idx in decl_lines:
            continue
        for name in atomic_names:
            if name not in line:
                continue
            pattern = (
                r"(\+\+\s*" + re.escape(name) + r"\b"
                r"|\b" + re.escape(name) + r"\s*\+\+"
                r"|--\s*" + re.escape(name) + r"\b"
                r"|\b" + re.escape(name) + r"\s*--"
                r"|\b" + re.escape(name) + r"\s*(?:[+\-|&^]|<<|>>)?=(?![=>]))"
            )
            if re.search(pattern, line):
                findings.append(Finding(
                    rel, idx + 1, RULE_MEMORY_ORDER,
                    f"operator-form atomic access to '{name}' (implicit "
                    f"seq_cst); use .load/.store/.fetch_* with an explicit "
                    f"std::memory_order"))


def check_rng_call_sites(rel: str, code_lines: Sequence[str],
                         context: Sequence[Optional[str]],
                         findings: List[Finding]) -> None:
    if not any(d in rel or rel.startswith(d.rstrip("/") + "/")
               for d in RNG_DIRS):
        return
    key = match_suffix(rel, RNG_ALLOWED)
    allowed = RNG_ALLOWED.get(key, set()) if key else set()
    for idx, line in enumerate(code_lines):
        for m in RNG_DRAW_RE.finditer(line):
            func = context[idx]
            if func in allowed:
                continue
            where = f"'{func}'" if func else "file scope"
            findings.append(Finding(
                rel, idx + 1, RULE_RNG,
                f"RNG draw {m.group(1)}.{m.group(2)}() in {where}: draws "
                f"are restricted to canonical decide/update functions so "
                f"the table-driven and transcendental paths consume "
                f"bit-identical RNG streams "
                f"(allowed here: {sorted(allowed) or 'none'})"))


def check_simd_confined(rel: str, code_lines: Sequence[str],
                        findings: List[Finding]) -> None:
    if not rel.startswith("src/") and "/src/" not in "/" + rel:
        return
    if any(rel == allowed or rel.endswith("/" + allowed)
           for allowed in SIMD_ALLOWED_FILES):
        return
    for idx, line in enumerate(code_lines):
        m = SIMD_INTRINSIC_RE.search(line)
        if m:
            findings.append(Finding(
                rel, idx + 1, RULE_SIMD,
                f"raw vector intrinsic '{m.group(0)}' outside "
                f"src/flowtable/tag_probe.hpp; route it through "
                f"tagprobe::scan<UseSimd>() so the scalar fallback stays "
                f"bit-identical and -DDISCO_SIMD=OFF keeps building"))


def check_atomic_shim_confined(rel: str, code_lines: Sequence[str],
                               findings: List[Finding]) -> None:
    if not rel.startswith("src/") and "/src/" not in "/" + rel:
        return
    if match_suffix(rel, ATOMIC_SHIM_ALLOWED_FILES):
        return
    if any(d in rel or rel.startswith(d) for d in ATOMIC_SHIM_ALLOWED_DIRS):
        return
    for idx, line in enumerate(code_lines):
        m = ATOMIC_SHIM_RE.search(line)
        if m:
            findings.append(Finding(
                rel, idx + 1, RULE_ATOMIC_SHIM,
                f"raw std::{m.group(1)} outside src/util/atomic.hpp and "
                f"src/verify/; declare util::atomic / util::shared and "
                f"fence with util::atomic_fence so -DDISCO_MODELCHECK "
                f"builds route this operation through the model checker "
                f"(docs/static-analysis.md)"))


def check_header_self_contained(rel: str, code: str,
                                directives: Sequence[str],
                                findings: List[Finding]) -> None:
    if not rel.endswith(".hpp"):
        return
    if "/src/" not in "/" + rel and not rel.startswith("src/"):
        return
    includes = set()
    for line in directives:
        m = re.match(r'\s*#\s*include\s*[<"]([^>"]+)[>"]', line)
        if m:
            includes.add(m.group(1))
    for pattern, header in HEADER_REQUIREMENTS:
        if header in includes:
            continue
        m = pattern.search(code)
        if not m:
            continue
        line_no = code.count("\n", 0, m.start()) + 1
        findings.append(Finding(
            rel, line_no, RULE_HEADER,
            f"uses {m.group(0).strip()} but does not include <{header}> "
            f"directly (transitive includes are refactor-fragile)"))


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------

def collect_atomic_names(preprocessed: Dict[str, str]) -> Set[str]:
    names: Set[str] = set()
    for code in preprocessed.values():
        for m in ATOMIC_DECL_RE.finditer(code):
            names.add(m.group(1))
    return names


def relpath_key(path: str, root: str) -> str:
    rel = os.path.relpath(path, root)
    return rel.replace(os.sep, "/")


def lint_files(paths: Sequence[str], root: str,
               rules: Sequence[str]) -> List[Finding]:
    findings: List[Finding] = []
    raw: Dict[str, List[str]] = {}
    code_text: Dict[str, str] = {}
    code_lines: Dict[str, List[str]] = {}
    directives: Dict[str, List[str]] = {}
    contexts: Dict[str, List[Optional[str]]] = {}
    suppressions: Dict[str, Dict[int, Set[str]]] = {}

    for path in paths:
        rel = relpath_key(path, root)
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
        except OSError as e:
            print(f"lint_disco: cannot read {path}: {e}", file=sys.stderr)
            sys.exit(2)
        raw[rel] = text.split("\n")
        stripped = strip_comments_and_strings(text)
        code, direct = blank_preprocessor(stripped)
        code_text[rel] = code
        code_lines[rel] = code.split("\n")
        directives[rel] = direct
        contexts[rel] = function_context(code)
        suppressions[rel] = collect_suppressions(raw[rel], rel, findings)

    atomic_names = collect_atomic_names(code_text)

    for rel in sorted(code_text):
        file_findings: List[Finding] = []
        if RULE_TRANSCENDENTAL in rules:
            check_transcendentals(rel, code_lines[rel], contexts[rel],
                                  file_findings)
        if RULE_MEMORY_ORDER in rules:
            check_memory_order(rel, code_lines[rel], atomic_names,
                               file_findings)
        if RULE_RNG in rules:
            check_rng_call_sites(rel, code_lines[rel], contexts[rel],
                                 file_findings)
        if RULE_HEADER in rules:
            check_header_self_contained(rel, code_text[rel],
                                        directives[rel], file_findings)
        if RULE_SIMD in rules:
            check_simd_confined(rel, code_lines[rel], file_findings)
        if RULE_ATOMIC_SHIM in rules:
            check_atomic_shim_confined(rel, code_lines[rel], file_findings)
        for f in file_findings:
            if f.rule in suppressions[rel].get(f.line, set()):
                continue
            findings.append(f)
    return findings


def gather_sources(targets: Sequence[str]) -> List[str]:
    out: List[str] = []
    for target in targets:
        if os.path.isfile(target):
            out.append(target)
            continue
        for dirpath, dirnames, filenames in os.walk(target):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            for name in sorted(filenames):
                if name.endswith((".hpp", ".cpp", ".h", ".cc")):
                    out.append(os.path.join(dirpath, name))
    return out


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        description="DISCO invariant linter (see module docstring)")
    parser.add_argument("targets", nargs="*",
                        help="files or directories to lint "
                             "(default: <repo>/src)")
    parser.add_argument("--root", default=None,
                        help="path prefix stripped from reported paths "
                             "(default: repo root, inferred from this "
                             "script's location)")
    parser.add_argument("--rules", default=",".join(ALL_RULES),
                        help="comma-separated subset of rules to run")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(rule)
        return 0

    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    unknown = [r for r in rules if r not in ALL_RULES]
    if unknown:
        print(f"lint_disco: unknown rule(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    root = os.path.abspath(args.root) if args.root else repo_root
    targets = args.targets or [os.path.join(repo_root, "src")]
    files = gather_sources(targets)
    if not files:
        print("lint_disco: no source files found", file=sys.stderr)
        return 2

    findings = lint_files(files, root, rules)
    for f in findings:
        print(f)
    if findings:
        print(f"lint_disco: {len(findings)} finding(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"lint_disco: OK ({len(files)} files, "
          f"{len(rules)} rules)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
