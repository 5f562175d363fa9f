#!/usr/bin/env python3
"""flashmem_lint — static enforcement of FlashMem's determinism rules.

The repo's headline guarantees — the fast serving simulator and the live
EventScheduler agree bit for bit (one event loop; they differ only in
where a run's service times come from), and plans are byte-identical
across thread counts — are checked dynamically by cross-validation tests
at a handful of seeds.  This tool enforces the same invariants
*statically*, as named checks over the whole tree, so one
unordered-container iteration or wall-clock read on an emit path fails
the build instead of waiting for a 2.5k-request repro to notice.

Checks (see tools/README.md for the full catalog):

  no-unordered-iteration   range-for / iterator loops over
                           std::unordered_{map,set} whose body writes to
                           an ordered sink (plans, traces, streams,
                           files, event queues).
  no-wall-clock            wall-clock reads (system_clock, steady_clock,
                           time(), gettimeofday, ...) or stdlib
                           randomness (rand(), random_device, mt19937,
                           std distributions) outside the benchmark
                           timing harness; all randomness must flow
                           through seeded common/rng.
  no-pointer-order         ordering by raw pointer value: std::map/set
                           keyed by a pointer, std::hash over a pointer
                           type, relational comparison of address-of
                           expressions or .get() results — allocation-
                           order nondeterminism in tie-breaks.
  uninitialized-member     public-header structs with uninitialized
                           scalar/enum/pointer fields (the config-struct
                           pattern depends on zero-init discipline).
  float-accumulation-order floating-point += reductions inside thread-
                           pool task bodies (and functions those bodies
                           call in the same file): summation order must
                           not depend on task completion order.
  no-raw-cast              reinterpret_cast / const_cast anywhere: type
                           punning bakes byte-order and alignment
                           assumptions into serialized plan bytes; use
                           std::memcpy through a char buffer instead.
  cross-thread-state       ad-hoc lock-free shared state: std::atomic /
                           atomic_* / volatile declarations.  Bare
                           atomics are how scheduling order leaks into
                           results; the approved patterns are
                           mutex-guarded structures merged in
                           deterministic order, or a named suppression
                           carrying a written safety argument (its
                           atomics broadcast only monotone,
                           order-independent facts).  src/ has no
                           atomics today.
  test-only-api            a function declared in a src/ header that no
                           code outside tests/ calls: its name appears
                           in src/, bench/, tools/, examples/ and
                           perfbench/ only in its own declaration and
                           definition; or an enum class enumerator
                           declared there that code outside tests/
                           names only in case labels and
                           static_asserts.  perfbench/ is read for
                           callers but not linted.  An accessor that
                           tests use to observe product state carries
                           a justified suppression; anything else is
                           deleted, moved into test code, or given a
                           real caller.
  bad-suppression          an FMLINT annotation with an empty or missing
                           justification (always fatal; the suppression
                           policy itself is machine-enforced).

Suppressing a finding requires an inline annotation with a non-empty
justification, on the flagged line or on a comment line directly above:

    // FMLINT(allow:no-wall-clock) solver time budget, not plan content
    auto t0 = std::chrono::steady_clock::now();

The lint lexes C++ itself and builds a lightweight block/scope
structure (AST-level matching, not regex-over-text: strings/comments
never match, scopes and loop bodies are real token spans), so it needs
no compiler.

Usage:
  flashmem_lint.py [--checks a,b] [--exclude PAT]... [-v] PATH...
Exits nonzero when any unsuppressed finding remains.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass, field

# --------------------------------------------------------------------- tokens

CHECK_NAMES = [
    "no-unordered-iteration",
    "no-wall-clock",
    "no-pointer-order",
    "uninitialized-member",
    "float-accumulation-order",
    "no-raw-cast",
    "cross-thread-state",
    "test-only-api",
]

# Multi-character punctuators, longest first so the lexer is greedy.
PUNCTUATORS = [
    "<<=", ">>=", "...", "->*", "<=>",
    "::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
]

KEYWORDS = {
    "alignas", "alignof", "auto", "bool", "break", "case", "catch",
    "char", "class", "const", "consteval", "constexpr", "constinit",
    "continue", "decltype", "default", "delete", "do", "double",
    "else", "enum", "explicit", "extern", "false", "final", "float",
    "for", "friend", "goto", "if", "inline", "int", "long", "mutable",
    "namespace", "new", "noexcept", "nullptr", "operator", "override",
    "private", "protected", "public", "return", "short", "signed",
    "sizeof", "static", "struct", "switch", "template", "this",
    "throw", "true", "try", "typedef", "typename", "union", "unsigned",
    "using", "virtual", "void", "volatile", "while",
}


@dataclass
class Token:
    kind: str   # 'id' | 'num' | 'str' | 'char' | 'punct' | 'pp'
    text: str
    line: int


@dataclass
class Comment:
    text: str
    line: int        # line the comment starts on
    own_line: bool   # no code precedes it on its line


class LexError(Exception):
    pass


def lex(source: str):
    """Tokenize C++ source; returns (tokens, comments).

    Strings, chars and comments are consumed as units so later passes
    can never match inside them.  Preprocessor directives become single
    'pp' tokens (with continuation lines folded in).
    """
    tokens: list[Token] = []
    comments: list[Comment] = []
    i, n, line = 0, len(source), 1
    line_has_code = False

    def at(j):
        return source[j] if j < n else ""

    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            line_has_code = False
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        if c == "/" and at(i + 1) == "/":
            j = i + 2
            while j < n and source[j] != "\n":
                j += 1
            comments.append(Comment(source[i + 2:j].strip(), line,
                                    not line_has_code))
            i = j
            continue
        if c == "/" and at(i + 1) == "*":
            j = source.find("*/", i + 2)
            if j < 0:
                raise LexError(f"line {line}: unterminated block comment")
            body = source[i + 2:j]
            comments.append(Comment(body.strip(), line, not line_has_code))
            line += body.count("\n")
            i = j + 2
            continue
        if c == "#" and not line_has_code:
            # Preprocessor directive; fold continuation lines.
            j = i
            start_line = line
            while j < n:
                if source[j] == "\n":
                    if source[j - 1] == "\\":
                        line += 1
                        j += 1
                        continue
                    break
                j += 1
            tokens.append(Token("pp", source[i:j], start_line))
            i = j
            line_has_code = False  # directive is not expression code
            continue
        line_has_code = True
        if c == "R" and at(i + 1) == '"':
            # Raw string literal R"delim( ... )delim"
            j = source.find("(", i + 2)
            if j < 0:
                raise LexError(f"line {line}: bad raw string")
            delim = source[i + 2:j]
            end = source.find(")" + delim + '"', j + 1)
            if end < 0:
                raise LexError(f"line {line}: unterminated raw string")
            text = source[i:end + len(delim) + 2]
            tokens.append(Token("str", text, line))
            line += text.count("\n")
            i = end + len(delim) + 2
            continue
        if c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if source[j] == "\\":
                    j += 2
                    continue
                if source[j] == quote:
                    break
                if source[j] == "\n":
                    raise LexError(f"line {line}: unterminated literal")
                j += 1
            if j >= n:
                raise LexError(f"line {line}: unterminated literal")
            tokens.append(Token("str" if quote == '"' else "char",
                                source[i:j + 1], line))
            i = j + 1
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("id", source[i:j], line))
            i = j
            continue
        if c.isdigit() or (c == "." and at(i + 1).isdigit()):
            j = i + 1
            while j < n and (source[j].isalnum() or source[j] in "._'"
                             or (source[j] in "+-" and
                                 source[j - 1] in "eEpP")):
                j += 1
            tokens.append(Token("num", source[i:j], line))
            i = j
            continue
        for p in PUNCTUATORS:
            if source.startswith(p, i):
                tokens.append(Token("punct", p, line))
                i += len(p)
                break
        else:
            tokens.append(Token("punct", c, line))
            i += 1
    return tokens, comments


# --------------------------------------------------------------- annotations

FMLINT_RE = re.compile(
    r"FMLINT\(\s*allow\s*:\s*([A-Za-z0-9_,\- ]+?)\s*\)\s*(.*)",
    re.DOTALL)


@dataclass
class Suppression:
    checks: list[str]
    reason: str
    line: int
    covered: set[int]
    used: bool = False


def parse_suppressions(comments, code_lines, findings, path):
    """Extract FMLINT annotations; malformed ones are findings."""
    sups: list[Suppression] = []
    for c in comments:
        if "FMLINT(" not in c.text:
            continue   # prose mentioning FMLINT is not an annotation
        m = FMLINT_RE.search(c.text)
        if not m:
            findings.append(Finding(path, c.line, "bad-suppression",
                                    "malformed FMLINT annotation "
                                    "(expected 'FMLINT(allow:<check>) "
                                    "reason')"))
            continue
        checks = [s.strip() for s in m.group(1).split(",") if s.strip()]
        unknown = [s for s in checks
                   if s not in CHECK_NAMES and s != "*"]
        if unknown:
            findings.append(Finding(path, c.line, "bad-suppression",
                                    "unknown check name(s) in FMLINT "
                                    f"annotation: {', '.join(unknown)}"))
            continue
        reason = m.group(2).strip()
        if not reason:
            findings.append(Finding(path, c.line, "bad-suppression",
                                    "FMLINT suppression without a "
                                    "justification string"))
            continue
        covered = {c.line}
        if c.own_line:
            # A comment-only annotation covers the next code line.
            nxt = [ln for ln in code_lines if ln > c.line]
            if nxt:
                covered.add(min(nxt))
        sups.append(Suppression(checks, reason, c.line, covered))
    return sups


# ------------------------------------------------------------------ findings

@dataclass
class Finding:
    path: str
    line: int
    check: str
    message: str
    suppressed: bool = False
    reason: str = ""


# ----------------------------------------------------------- builtin parsing

def match_pairs(tokens, path):
    """Matching-bracket table for (), {}, [] over the token stream.

    Returns dict index->index both directions.  Template angle brackets
    are NOT bracketed here (ambiguous with comparison); type parsing
    handles them locally.
    """
    pairs = {}
    stack = []
    opens = {"(": ")", "{": "}", "[": "]"}
    closes = {")": "(", "}": "{", "]": "["}
    for idx, t in enumerate(tokens):
        if t.kind != "punct":
            continue
        if t.text in opens:
            stack.append((t.text, idx))
        elif t.text in closes:
            want = closes[t.text]
            # Tolerate imbalance (macros): pop until match or empty.
            while stack and stack[-1][0] != want:
                stack.pop()
            if stack:
                _, oidx = stack.pop()
                pairs[oidx] = idx
                pairs[idx] = oidx
    return pairs


def skip_template_args(tokens, i):
    """tokens[i] == '<': return index just past the matching '>'.

    Treats '>>' as two closers.  Returns i+1 when unmatched (then it was
    a comparison, not a template argument list).
    """
    depth = 0
    j = i
    limit = min(len(tokens), i + 400)
    while j < limit:
        t = tokens[j]
        if t.kind == "punct":
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    return j + 1
            elif t.text == ">>":
                depth -= 2
                if depth <= 0:
                    return j + 1
            elif t.text in (";", "{", "}"):
                return i + 1   # statement ended: was a comparison
        j += 1
    return i + 1


UNORDERED_TYPES = {"unordered_map", "unordered_set",
                   "unordered_multimap", "unordered_multiset"}

SCALAR_TYPES = {
    "bool", "char", "short", "int", "long", "unsigned", "signed",
    "float", "double", "size_t", "ssize_t", "ptrdiff_t", "wchar_t",
    "char8_t", "char16_t", "char32_t",
    "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
    "intptr_t", "uintptr_t", "streamsize", "time_t",
}

WALLCLOCK_IDS = {
    "system_clock": "wall-clock read",
    "steady_clock": "wall-clock read",
    "high_resolution_clock": "wall-clock read",
    "gettimeofday": "wall-clock read",
    "clock_gettime": "wall-clock read",
    "timespec_get": "wall-clock read",
    "localtime": "wall-clock read",
    "gmtime": "wall-clock read",
    "random_device": "nondeterministic randomness",
    "mt19937": "stdlib RNG (streams differ across stdlibs; use "
               "seeded common/rng)",
    "mt19937_64": "stdlib RNG (streams differ across stdlibs; use "
                  "seeded common/rng)",
    "default_random_engine": "stdlib RNG (implementation-defined; use "
                             "seeded common/rng)",
    "uniform_int_distribution": "stdlib distribution (implementation-"
                                "defined; use seeded common/rng)",
    "uniform_real_distribution": "stdlib distribution (implementation-"
                                 "defined; use seeded common/rng)",
    "normal_distribution": "stdlib distribution (implementation-"
                           "defined; use seeded common/rng)",
}

WALLCLOCK_CALLS = {"time", "rand", "srand", "clock", "rand_r"}

# Writes whose relative order is observable downstream: appends to
# sequences, stream emission, file writes.  (set/map insert is excluded
# on purpose — inserting into another unordered container inside the
# loop is order-insensitive.)
ORDER_SINKS = {"push_back", "emplace_back", "push_front", "append",
               "write", "put", "print"}


@dataclass
class FileUnit:
    path: str
    tokens: list
    comments: list
    pairs: dict
    code_lines: set


class SymbolTable:
    """Cross-file pass-1 symbols the per-file checks consult."""

    def __init__(self):
        self.unordered_aliases: set[str] = set()
        self.scalar_aliases: set[str] = set()
        self.enum_names: set[str] = set()
        self.float_fields: set[str] = set()
        # Members declared unordered in one file (a header) are often
        # iterated in another (the .cc), so declared-unordered names
        # are collected globally.
        self.unordered_names: set[str] = set()
        # Source-tree root -> caller_counts(root), built on first use.
        self.callers: dict[str, dict[str, int]] = {}

    def collect(self, unit: FileUnit):
        toks = unit.tokens
        for i, t in enumerate(toks):
            if t.kind != "id":
                continue
            nxt = toks[i + 1] if i + 1 < len(toks) else None
            if t.text == "using" and nxt and nxt.kind == "id":
                # using Alias = <type...>;
                j = i + 2
                if j < len(toks) and toks[j].text == "=":
                    k = j + 1
                    seen = []
                    while k < len(toks) and toks[k].text != ";":
                        seen.append(toks[k].text)
                        k += 1
                    if any(s in UNORDERED_TYPES for s in seen):
                        self.unordered_aliases.add(nxt.text)
                    if any(s in SCALAR_TYPES for s in seen):
                        self.scalar_aliases.add(nxt.text)
            elif t.text == "enum":
                j = i + 1
                if j < len(toks) and toks[j].text in ("class", "struct"):
                    j += 1
                if j < len(toks) and toks[j].kind == "id":
                    self.enum_names.add(toks[j].text)
            elif t.text in UNORDERED_TYPES or \
                    t.text in self.unordered_aliases:
                j = i + 1
                if j < len(toks) and toks[j].text == "<":
                    j = skip_template_args(toks, j)
                while j < len(toks) and toks[j].text in ("&", "*",
                                                         "const"):
                    j += 1
                if (j < len(toks) and toks[j].kind == "id"
                        and toks[j].text not in KEYWORDS):
                    self.unordered_names.add(toks[j].text)
            elif t.text in ("float", "double"):
                # 'double name' declaration (member or local): record
                # the declared name as float-typed for the accumulation
                # check.  Pointers to float are not accumulators.
                if (nxt and nxt.kind == "id"
                        and nxt.text not in KEYWORDS):
                    after = toks[i + 2] if i + 2 < len(toks) else None
                    if after and after.text in (";", "=", "{", ",", ")"):
                        self.float_fields.add(nxt.text)


def unordered_names_in_file(unit: FileUnit, symbols: SymbolTable):
    """Names of variables/members declared with an unordered type."""
    names = set()
    toks = unit.tokens
    i = 0
    while i < len(toks):
        t = toks[i]
        if t.kind == "id" and (t.text in UNORDERED_TYPES
                               or t.text in symbols.unordered_aliases):
            j = i + 1
            if j < len(toks) and toks[j].text == "<":
                j = skip_template_args(toks, j)
            # Skip refs/qualifiers between type and name.
            while j < len(toks) and toks[j].text in ("&", "*", "const"):
                j += 1
            if (j < len(toks) and toks[j].kind == "id"
                    and toks[j].text not in KEYWORDS):
                names.add(toks[j].text)
            i = j
            continue
        i += 1
    return names


def find_loops(unit: FileUnit):
    """Yield (header_span, body_span, kind) for for/while loops.

    Spans are [start, end) token indices; kind is 'range' (range-for)
    or 'classic'.  Bodies without braces extend to the statement's ';'.
    """
    toks, pairs = unit.tokens, unit.pairs
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in ("for", "while"):
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        op = i + 1
        cp = pairs.get(op)
        if cp is None:
            continue
        kind = "classic"
        if t.text == "for":
            depth_semis = [j for j in range(op + 1, cp)
                           if toks[j].text == ";" and _paren_depth_zero(
                               toks, pairs, op, j)]
            if not depth_semis:
                kind = "range"
        body_start = cp + 1
        if body_start < len(toks) and toks[body_start].text == "{":
            body_end = pairs.get(body_start, body_start) + 1
        else:
            body_end = body_start
            while (body_end < len(toks)
                   and toks[body_end].text != ";"):
                if toks[body_end].text == "{":
                    body_end = pairs.get(body_end, body_end)
                body_end += 1
            body_end += 1
        yield (op, cp), (body_start, body_end), kind


def _sorted_after(toks, loop_end, receiver, window=60):
    """True when `sort(...receiver...)` appears shortly after a loop —
    the collect-then-sort idiom that canonicalizes the order."""
    saw_sort = None
    for j in range(loop_end, min(len(toks), loop_end + window)):
        if toks[j].kind == "id" and toks[j].text in ("sort",
                                                     "stable_sort"):
            saw_sort = j
        elif (saw_sort is not None and toks[j].kind == "id"
              and toks[j].text == receiver):
            return True
    return False


def _paren_depth_zero(toks, pairs, op, j):
    """True when toks[j] is directly inside the paren opened at op."""
    depth = 0
    for k in range(op + 1, j):
        tx = toks[k].text
        if tx in ("(", "[", "{"):
            depth += 1
        elif tx in (")", "]", "}"):
            depth -= 1
    return depth == 0


# ------------------------------------------------------------------- checks

def check_unordered_iteration(unit, symbols, findings):
    toks, pairs = unit.tokens, unit.pairs
    unordered = (unordered_names_in_file(unit, symbols)
                 | symbols.unordered_names)
    if not unordered:
        return
    for (op, cp), (bs, be), kind in find_loops(unit):
        target = None
        if kind == "range":
            # for (decl : expr) — expr root identifiers.
            colon = None
            for j in range(op + 1, cp):
                if (toks[j].text == ":"
                        and _paren_depth_zero(toks, pairs, op, j)):
                    colon = j
                    break
            if colon is None:
                continue
            expr_ids = [t.text for t in toks[colon + 1:cp]
                        if t.kind == "id"]
            target = next((x for x in expr_ids if x in unordered), None)
        else:
            # Iterator loop: X.begin()/X.cbegin() in the header.
            for j in range(op + 1, cp - 1):
                if (toks[j].text in ("begin", "cbegin", "rbegin")
                        and toks[j + 1].text == "("
                        and j >= 2 and toks[j - 1].text in (".", "->")
                        and toks[j - 2].kind == "id"
                        and toks[j - 2].text in unordered):
                    target = toks[j - 2].text
                    break
        if target is None:
            continue
        sink = None
        for j in range(bs, be):
            tb = toks[j]
            if (tb.kind == "id" and tb.text in ORDER_SINKS
                    and j + 1 < len(toks)
                    and toks[j + 1].text == "("
                    and j >= 1 and toks[j - 1].text in (".", "->")):
                # Collect-then-sort idiom: pushing into a vector that
                # is sorted right after the loop produces a canonical
                # order — the approved fix, not a violation.
                receiver = (toks[j - 2].text
                            if j >= 2 and toks[j - 2].kind == "id"
                            else None)
                if receiver and _sorted_after(toks, be, receiver):
                    continue
                sink = tb
                break
            if tb.kind == "punct" and tb.text == "<<":
                sink = tb
                break
        if sink is not None:
            findings.append(Finding(
                unit.path, toks[op].line, "no-unordered-iteration",
                f"iteration over unordered container '{target}' "
                f"feeds an ordered sink ('{sink.text}' at line "
                f"{sink.line}); iterate a sorted view or an ordered "
                "container instead"))


def wallclock_exempt(path, whitelist, deny):
    """True when @p path may read wall clocks: it matches a whitelist
    prefix and no deny prefix. Deny wins over the whitelist — the
    observability layer (src/obs/) must stay simulation-clock-only by
    construction, even if a future whitelist entry happens to cover
    it. Per-line FMLINT(allow:...) suppressions are unaffected: they
    stay visible in the source, which is the point."""
    norm = path.replace(os.sep, "/")
    if any(norm.startswith(d) or f"/{d}" in norm for d in deny):
        return False
    return any(norm.startswith(w) or f"/{w}" in norm
               for w in whitelist)


def check_wall_clock(unit, symbols, findings, whitelist, deny):
    del symbols
    if wallclock_exempt(unit.path, whitelist, deny):
        return
    toks = unit.tokens
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        if t.text in WALLCLOCK_IDS:
            findings.append(Finding(
                unit.path, t.line, "no-wall-clock",
                f"'{t.text}': {WALLCLOCK_IDS[t.text]}"))
            continue
        if t.text in WALLCLOCK_CALLS:
            nxt = toks[i + 1] if i + 1 < len(toks) else None
            prev = toks[i - 1] if i > 0 else None
            if not nxt or nxt.text != "(":
                continue
            if prev and prev.text in (".", "->"):
                continue   # member call on some object, not libc
            if prev and prev.text == "::":
                qual = toks[i - 2] if i >= 2 else None
                if not qual or qual.text != "std":
                    continue   # SomeClass::time(...), not std::time
            findings.append(Finding(
                unit.path, t.line, "no-wall-clock",
                f"'{t.text}()': wall-clock/libc randomness call"))


def check_pointer_order(unit, symbols, findings):
    del symbols
    toks = unit.tokens

    def first_template_arg_is_pointer(i):
        """toks[i] == '<' after map/set/hash: first arg ends in '*'?"""
        depth = 0
        last = None
        for j in range(i, min(len(toks), i + 200)):
            tx = toks[j].text
            if tx == "<":
                depth += 1
            elif tx in (">", ">>"):
                depth -= 2 if tx == ">>" else 1
                if depth <= 0:
                    return last == "*"
            elif tx == "," and depth == 1:
                return last == "*"
            elif j > i:
                last = tx
        return False

    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        nxt = toks[i + 1] if i + 1 < len(toks) else None
        prev = toks[i - 1] if i > 0 else None
        if (t.text in ("map", "set", "multimap", "multiset", "hash")
                and nxt and nxt.text == "<"
                and prev and prev.text == "::"
                and i >= 2 and toks[i - 2].text == "std"
                and first_template_arg_is_pointer(i + 1)):
            what = ("std::hash over a raw pointer"
                    if t.text == "hash"
                    else f"ordered std::{t.text} keyed by a raw pointer")
            findings.append(Finding(
                unit.path, t.line, "no-pointer-order",
                f"{what}: pointer values depend on allocation order"))
        # &a < &b — relational comparison of address-of expressions.
        if (t.kind == "id" and prev and prev.text == "&" and i >= 2
                and toks[i - 2].text in ("(", ",", "return", "=",
                                         "&&", "||", ";")
                and nxt and nxt.text in ("<", ">", "<=", ">=")
                and i + 2 < len(toks) and toks[i + 2].text == "&"
                and i + 3 < len(toks) and toks[i + 3].kind == "id"):
            findings.append(Finding(
                unit.path, t.line, "no-pointer-order",
                f"relational comparison of addresses '&{t.text} "
                f"{nxt.text} &{toks[i + 3].text}': allocation-order "
                "nondeterminism"))
    # x.get() < y.get() — comparing smart-pointer identities.
    for i in range(3, len(toks) - 6):
        if (toks[i].text == "get" and toks[i - 1].text in (".", "->")
                and toks[i + 1].text == "(" and toks[i + 2].text == ")"
                and toks[i + 3].kind == "punct"
                and toks[i + 3].text in ("<", ">", "<=", ">=")):
            tail = [toks[j].text for j in range(i + 4,
                                               min(len(toks), i + 10))]
            if "get" in tail:
                findings.append(Finding(
                    unit.path, toks[i].line, "no-pointer-order",
                    "comparing smart-pointer .get() identities "
                    "orders by allocation address"))


def check_uninitialized_member(unit, symbols, findings):
    if not unit.path.endswith((".hh", ".h", ".hpp")):
        return
    toks, pairs = unit.tokens, unit.pairs

    def scalar_like(type_tokens):
        """Does a member type read as scalar/enum/pointer?

        Templated types (vector<...>, optional<...>) have constructors
        and are never scalar, even when their arguments are.
        """
        texts = [t.text for t in type_tokens]
        if "<" in texts:
            return False
        if "*" in texts:
            return True
        for s in texts:
            if (s in SCALAR_TYPES or s in symbols.scalar_aliases
                    or s in symbols.enum_names):
                return True
        return False

    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in ("struct", "class"):
            continue
        prev = toks[i - 1] if i > 0 else None
        if prev and prev.text in ("enum", "friend"):
            continue
        j = i + 1
        if j >= len(toks) or toks[j].kind != "id":
            continue
        name = toks[j].text
        j += 1
        while j < len(toks) and toks[j].text == "final":
            j += 1
        if j < len(toks) and toks[j].text == ":":
            # Base clause: scan forward to the body brace.
            while j < len(toks) and toks[j].text != "{":
                if toks[j].text == ";":
                    break
                j += 1
        if j >= len(toks) or toks[j].text != "{":
            continue   # forward declaration or pointer-to-struct decl
        body_open, body_close = j, pairs.get(j)
        if body_close is None:
            continue
        is_public = (t.text == "struct")
        # A type that declares any constructor initializes its members
        # there; the zero-init rule targets aggregate config structs.
        has_ctor = False
        k = body_open + 1
        depth = 0
        while k < body_close:
            tx = toks[k]
            if tx.text == "{":
                k = pairs.get(k, k) + 1
                continue
            if (depth == 0 and tx.kind == "id" and tx.text == name
                    and k + 1 < len(toks) and toks[k + 1].text == "("
                    and toks[k - 1].text != "~"):
                has_ctor = True
                break
            k += 1
        if has_ctor:
            continue
        # Walk depth-1 statements.
        k = body_open + 1
        stmt_start = k
        access_public = is_public
        while k < body_close:
            tx = toks[k]
            if tx.text in ("public", "private", "protected") and \
                    k + 1 < len(toks) and toks[k + 1].text == ":":
                access_public = (tx.text == "public")
                k += 2
                stmt_start = k
                continue
            if tx.text == "{":
                # Method body / nested type body / brace initializer.
                k = pairs.get(k, k) + 1
                # Brace-init members end with ';'; method bodies don't.
                if k < body_close and toks[k].text == ";":
                    k += 1
                stmt_start = k
                continue
            if tx.text == "(":
                # Function declaration/definition: skip to its end.
                k = pairs.get(k, k) + 1
                while k < body_close and toks[k].text not in (";", "{"):
                    if toks[k].text == "(":
                        k = pairs.get(k, k)
                    k += 1
                if k < body_close and toks[k].text == "{":
                    k = pairs.get(k, k) + 1
                else:
                    k += 1
                stmt_start = k
                continue
            if tx.text == ";":
                stmt = toks[stmt_start:k]
                _check_member_stmt(unit, name, stmt, access_public,
                                   scalar_like, findings)
                k += 1
                stmt_start = k
                continue
            k += 1


def _check_member_stmt(unit, struct_name, stmt, access_public,
                       scalar_like, findings):
    if not access_public or not stmt:
        return
    texts = [t.text for t in stmt]
    if any(s in ("using", "typedef", "friend", "static", "operator",
                 "struct", "class", "enum", "union", "template")
           for s in texts):
        return
    if "=" in texts:
        return   # has initializer
    # Find the declared name: last identifier before any array suffix.
    name_tok = None
    idx = len(stmt) - 1
    while idx >= 0:
        if stmt[idx].text == "]":
            while idx >= 0 and stmt[idx].text != "[":
                idx -= 1
            idx -= 1
            continue
        if stmt[idx].kind == "id" and stmt[idx].text not in KEYWORDS:
            name_tok = stmt[idx]
            break
        if stmt[idx].text == ":":   # bitfield width: keep scanning left
            idx -= 1
            continue
        break
    if name_tok is None:
        return
    type_tokens = stmt[:idx]
    if not type_tokens:
        return
    if any(tt.text == "&" for tt in type_tokens):
        return   # references must be bound elsewhere
    if scalar_like(type_tokens):
        findings.append(Finding(
            unit.path, name_tok.line, "uninitialized-member",
            f"'{struct_name}::{name_tok.text}' is a scalar field "
            "without an initializer; config structs rely on "
            "zero-init discipline (add '= 0' / '= nullptr' / '{}')"))


def check_float_accumulation(unit, symbols, findings):
    toks, pairs = unit.tokens, unit.pairs
    texts = {t.text for t in toks}
    if "ThreadPool" not in texts and "thread_pool" not in " ".join(
            t.text for t in toks if t.kind == "pp"):
        if not any(t.kind == "pp" and "thread_pool" in t.text
                   for t in toks):
            return

    # Find lambdas handed to pool.submit(...): spans of their bodies.
    task_spans = []
    called_fns = set()
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text != "submit":
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        op = i + 1
        cp = pairs.get(op)
        if cp is None:
            continue
        j = op + 1
        while j < cp:
            if toks[j].text == "[":
                cb = pairs.get(j)
                if cb is None:
                    break
                k = cb + 1
                while k < cp and toks[k].text not in ("{",):
                    if toks[k].text == "(":
                        k = pairs.get(k, k)
                    k += 1
                if k < cp and toks[k].text == "{":
                    body_end = pairs.get(k, k)
                    task_spans.append((k, body_end))
                    for m in range(k, body_end):
                        if (toks[m].kind == "id"
                                and m + 1 < len(toks)
                                and toks[m + 1].text == "("
                                and toks[m].text not in KEYWORDS):
                            called_fns.add(toks[m].text)
                    j = body_end
            j += 1

    # One level of reachability: bodies of same-file functions the task
    # lambdas call.
    for i, t in enumerate(toks):
        if (t.kind == "id" and t.text in called_fns
                and i + 1 < len(toks) and toks[i + 1].text == "("):
            cp = pairs.get(i + 1)
            if cp is None:
                continue
            k = cp + 1
            while k < len(toks) and toks[k].text in ("const", "noexcept",
                                                     "override", "->"):
                k += 1
                if toks[k - 1].text == "->":
                    while (k < len(toks)
                           and toks[k].text not in ("{", ";")):
                        k += 1
            if k < len(toks) and toks[k].text == "{":
                task_spans.append((k, pairs.get(k, k)))

    float_names = set(symbols.float_fields)
    # Local float decls inside the unit add to the set.
    for i, t in enumerate(toks):
        if t.text in ("float", "double") and i + 1 < len(toks) \
                and toks[i + 1].kind == "id":
            float_names.add(toks[i + 1].text)

    seen_lines = set()
    for (bs, be) in task_spans:
        for j in range(bs, be):
            if toks[j].kind == "punct" and toks[j].text in ("+=", "-="):
                lhs = toks[j - 1] if j > 0 else None
                if (lhs and lhs.kind == "id"
                        and lhs.text in float_names
                        and toks[j].line not in seen_lines):
                    seen_lines.add(toks[j].line)
                    findings.append(Finding(
                        unit.path, toks[j].line,
                        "float-accumulation-order",
                        f"floating-point accumulation '{lhs.text} "
                        f"{toks[j].text} ...' is reachable from a "
                        "thread-pool task; summation order must not "
                        "depend on completion order"))


def check_raw_cast(unit, symbols, findings):
    """reinterpret_cast / const_cast anywhere in the tree.

    Type punning through reinterpret_cast is how byte-order and
    alignment assumptions sneak into serialized plan bytes; const_cast
    hides mutation the determinism tests cannot see. The approved
    replacements are std::memcpy through a char buffer and fixing
    constness at the source.
    """
    del symbols
    for t in unit.tokens:
        if t.kind == "id" and t.text in ("reinterpret_cast",
                                         "const_cast"):
            findings.append(Finding(
                unit.path, t.line, "no-raw-cast",
                f"'{t.text}': use std::memcpy through a char buffer "
                "(type punning) or fix constness at the declaration"))


ATOMIC_TYPEDEFS = {
    "atomic_bool", "atomic_char", "atomic_schar", "atomic_uchar",
    "atomic_short", "atomic_ushort", "atomic_int", "atomic_uint",
    "atomic_long", "atomic_ulong", "atomic_llong", "atomic_ullong",
    "atomic_size_t", "atomic_ptrdiff_t",
    "atomic_intptr_t", "atomic_uintptr_t",
    "atomic_int8_t", "atomic_uint8_t", "atomic_int16_t",
    "atomic_uint16_t", "atomic_int32_t", "atomic_uint32_t",
    "atomic_int64_t", "atomic_uint64_t", "atomic_flag",
}


def check_cross_thread_state(unit, symbols, findings):
    """Ad-hoc lock-free shared state: std::atomic / volatile.

    Mutex-guarded state consumed in a deterministic (submission) order
    is the repo's approved cross-thread pattern — common/thread_pool
    plus ordered future consumption.  A bare atomic bypasses that
    discipline: whatever it carries is observed in scheduling order,
    which is exactly how thread-count dependence leaks into plans.  An
    atomic is only sound here when every write is a monotone,
    order-independent broadcast (racing writers all publish the same
    fact), and that argument must be written down — the suppression
    justification is where it lives.  src/ has no sanctioned instance
    today, so any atomic added there needs that argument first.
    """
    del symbols
    toks = unit.tokens
    seen_lines = set()
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        hit = None
        if t.text == "atomic":
            nxt = toks[i + 1] if i + 1 < len(toks) else None
            if nxt and nxt.text == "<":
                hit = "std::atomic<...>"
        elif t.text in ATOMIC_TYPEDEFS:
            hit = f"std::{t.text}"
        elif t.text == "volatile":
            hit = "volatile"
        if hit and t.line not in seen_lines:
            seen_lines.add(t.line)
            findings.append(Finding(
                unit.path, t.line, "cross-thread-state",
                f"'{hit}' is ad-hoc lock-free cross-thread state; "
                "scheduling order can leak into results — use "
                "mutex-guarded state merged in deterministic order, "
                "or suppress with a written safety argument (every "
                "write must be a monotone, order-independent "
                "broadcast)"))


# Directories of a source tree whose code counts as a caller of a src/
# header function.  perfbench/ is read for callers but never linted:
# it is the benchmark harness and is frozen between benchmark changes.
# tests/ never counts.
CALLER_DIRS = ("src", "bench", "tools", "examples", "perfbench")
TREE_ROLES = set(CALLER_DIRS) | {"tests"}

TYPE_KEYWORDS = {"void", "bool", "char", "short", "int", "long",
                 "unsigned", "signed", "float", "double", "auto"}


def tree_split(path):
    """(root, role) for @p path: role is the innermost directory named
    in TREE_ROLES, root the path above it.  A fixture tree nested under
    tests/ thus gets its own src/, tests/ and bench/."""
    parts = path.replace(os.sep, "/").split("/")[:-1]
    for k in range(len(parts) - 1, -1, -1):
        if parts[k] in TREE_ROLES:
            return "/".join(parts[:k]), parts[k]
    return None, None


def declaration_scopes(toks, pairs):
    """Per token: the name of the class whose body encloses it, "" at
    namespace scope, or None inside a function body, initializer or
    enum, where a declarator-like token is a statement, not an API."""
    out = []
    stack = [""]
    for i, t in enumerate(toks):
        out.append(stack[-1])
        if t.text == "}" and t.kind == "punct" and len(stack) > 1:
            stack.pop()
        if t.text != "{" or t.kind != "punct":
            continue
        head = []
        j = i - 1
        while j >= 0 and toks[j].kind != "pp" and \
                toks[j].text not in (";", "{", "}"):
            if toks[j].text == ")" and j in pairs:
                head.append("(")
                j = pairs[j]
            else:
                head.append(toks[j].text)
            j -= 1
        head.reverse()
        kind = None
        if stack[-1] is not None:
            if "namespace" in head or (head[:1] == ["extern"]):
                kind = ""
            elif ("enum" not in head and "(" not in head
                  and "=" not in head):
                # The class key, not a template parameter's 'class'.
                for k, s in enumerate(head[:-1]):
                    if (s in ("struct", "class", "union")
                            and (k == 0 or head[k - 1] not in ("<", ","))):
                        kind = head[k + 1]
                        break
        stack.append(kind)
    return out


def declares(toks, i, scope):
    """Is the identifier at @p i the name being declared (a function,
    a variable or a parameter), rather than a use?  The token before
    its qualifier chain decides: a type ends there."""
    j = i - 1
    while j >= 1 and toks[j].text == "::" and toks[j - 1].kind == "id":
        j -= 2
    if j < 0:
        return False
    p = toks[j]
    if p.kind == "id":
        return p.text not in KEYWORDS or p.text in TYPE_KEYWORDS
    if scope is None:
        return False   # '*', '&' and '>' are operators in a body
    if p.text in ("*", "&", "&&"):
        q = toks[j - 1] if j >= 1 else None
        return bool(q) and (q.kind == "id" or
                            q.text in (">", ">>", "*", "&"))
    return p.text in (">", ">>")


def api_declarations(unit):
    """(name, line) of each function a header declares or defines at
    namespace or class scope; constructors, destructors, operators
    and deleted functions are not API names."""
    toks = unit.tokens
    scopes = declaration_scopes(toks, unit.pairs)
    out = []
    for i, t in enumerate(toks):
        if (t.kind != "id" or t.text in KEYWORDS or scopes[i] is None
                or i + 1 >= len(toks) or toks[i + 1].text != "("
                or t.text == scopes[i] or not declares(toks, i, "")):
            continue
        if toks[i - 1].text == "::" and toks[i - 2].text == t.text:
            continue   # out-of-class constructor
        close = unit.pairs.get(i + 1, i + 1)
        if (close + 2 < len(toks) and toks[close + 1].text == "="
                and toks[close + 2].text == "delete"):
            continue
        # Report on the line the declaration starts on (its return
        # type), where a suppression comment sits directly above.
        j = i
        while j > 0 and toks[j - 1].kind != "pp" and \
                toks[j - 1].text not in (";", "{", "}", ":"):
            j -= 1
        out.append((t.text, toks[j].line))
    return out


def enum_declarations(unit):
    """(enum, enumerator, line) of each enumerator of an enum class
    (or enum struct) the file defines."""
    toks = unit.tokens
    out = []
    for i in range(len(toks) - 2):
        if toks[i].text != "enum" or \
                toks[i + 1].text not in ("class", "struct"):
            continue
        j = i + 3
        while j < len(toks) and toks[j].text not in ("{", ";"):
            j += 1
        if j == len(toks) or toks[j].text != "{" or j not in unit.pairs:
            continue   # an opaque declaration names no enumerators
        expect = True
        k = j + 1
        while k < unit.pairs[j]:
            t = toks[k]
            if t.text in ("(", "[", "{") and k in unit.pairs:
                k = unit.pairs[k]   # an initializer's own commas
            elif t.text == ",":
                expect = True
            elif expect and t.kind == "id":
                out.append((toks[i + 2].text, t.text, t.line))
                expect = False
            k += 1
    return out


def enumerator_uses(toks, pairs):
    """'Enum::name' for each qualified name outside a case label and a
    static_assert: a switch that handles an enumerator, or an assert
    that pins its value, does not make one."""
    pinned = set()
    for i, t in enumerate(toks):
        if t.text == "static_assert" and i + 1 in pairs:
            pinned.update(range(i + 1, pairs[i + 1]))
    for i in range(2, len(toks)):
        if (toks[i].kind != "id" or toks[i - 1].text != "::"
                or toks[i - 2].kind != "id" or i in pinned):
            continue
        j = i - 2
        while j >= 2 and toks[j - 1].text == "::" and \
                toks[j - 2].kind == "id":
            j -= 2
        if j >= 1 and toks[j - 1].text == "case":
            continue
        yield f"{toks[i - 2].text}::{toks[i].text}"


def caller_counts(root):
    """Identifier -> number of non-declaring occurrences in the code
    that counts as a caller (CALLER_DIRS under @p root), and
    'Enum::name' -> number of uses that enumerator_uses counts."""
    counts: dict[str, int] = {}
    for d in CALLER_DIRS:
        top = os.path.join(root, d) if root else d
        if not os.path.isdir(top):
            continue
        for path in gather_files([top], []):
            try:
                with open(path, encoding="utf-8", errors="replace") as f:
                    toks, _ = lex(f.read())
            except LexError:
                continue   # reported when the file itself is linted
            pairs = match_pairs(toks, path)
            for key in enumerator_uses(toks, pairs):
                counts[key] = counts.get(key, 0) + 1
            scopes = declaration_scopes(toks, pairs)
            for i, t in enumerate(toks):
                if t.kind == "pp":
                    # A macro body calls what it names (FM_ASSERT ->
                    # panic); the lexer keeps directives whole.
                    m = re.match(r"#\s*define\s+\w+", t.text)
                    if m:
                        for mt in lex(t.text[m.end():])[0]:
                            if mt.kind == "id":
                                counts[mt.text] = \
                                    counts.get(mt.text, 0) + 1
                elif (t.kind == "id" and t.text not in KEYWORDS
                        and not declares(toks, i, scopes[i])):
                    counts[t.text] = counts.get(t.text, 0) + 1
    return counts


def check_test_only_api(unit, symbols, findings):
    """A function declared in a src/ header that no code outside tests/
    calls: its own declaration and definition are not calls, a call
    from its own .hh or .cc is.  Likewise an enum class enumerator
    that code outside tests/ names only in case labels and
    static_asserts: src/ handles it, but only tests make it."""
    if not unit.path.endswith((".hh", ".h", ".hpp")):
        return
    root, role = tree_split(unit.path)
    if role != "src":
        return
    if root not in symbols.callers:
        symbols.callers[root] = caller_counts(root)
    counts = symbols.callers[root]
    for name, line in api_declarations(unit):
        if counts.get(name, 0) == 0:
            findings.append(Finding(
                unit.path, line, "test-only-api",
                f"'{name}' has no caller outside tests/ (only its "
                "declaration and definition name it); delete it, move "
                "it into test code or give it a real caller"))
    for enum, name, line in enum_declarations(unit):
        if counts.get(f"{enum}::{name}", 0) == 0:
            findings.append(Finding(
                unit.path, line, "test-only-api",
                f"'{enum}::{name}' is made only by tests/ (outside "
                "tests/ only case labels and static_asserts name it); "
                "delete it or give it a real producer"))


BUILTIN_CHECKS = {
    "no-unordered-iteration": check_unordered_iteration,
    "no-pointer-order": check_pointer_order,
    "uninitialized-member": check_uninitialized_member,
    "float-accumulation-order": check_float_accumulation,
    "no-raw-cast": check_raw_cast,
    "cross-thread-state": check_cross_thread_state,
    "test-only-api": check_test_only_api,
}


# --------------------------------------------------------------------- main

def gather_files(paths, excludes):
    exts = (".cc", ".cpp", ".cxx", ".hh", ".h", ".hpp")
    out = []
    for p in paths:
        if os.path.isfile(p):
            if p.endswith(exts):
                out.append(p)
            continue
        for root, dirs, names in os.walk(p):
            dirs[:] = sorted(d for d in dirs
                             if d not in ("build", ".git"))
            for nm in sorted(names):
                if nm.endswith(exts):
                    out.append(os.path.join(root, nm))
    norm = [f.replace(os.sep, "/") for f in out]
    return [f for f in norm
            if not any(x in f for x in excludes)]


def run_builtin(files, checks, whitelist, deny, verbose):
    units = []
    findings: list[Finding] = []
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                tokens, comments = lex(f.read())
        except LexError as e:
            findings.append(Finding(path, 0, "bad-suppression",
                                    f"lex error: {e}"))
            continue
        pairs = match_pairs(tokens, path)
        code_lines = {t.line for t in tokens}
        units.append(FileUnit(path, tokens, comments, pairs,
                              code_lines))

    symbols = SymbolTable()
    # Two rounds so aliases discovered late still classify variables
    # declared in files scanned earlier.
    for _ in range(2):
        for unit in units:
            symbols.collect(unit)

    for unit in units:
        file_findings: list[Finding] = []
        for name in checks:
            if name == "no-wall-clock":
                check_wall_clock(unit, symbols, file_findings,
                                 whitelist, deny)
            else:
                BUILTIN_CHECKS[name](unit, symbols, file_findings)
        sups = parse_suppressions(unit.comments, unit.code_lines,
                                  file_findings, unit.path)
        for fd in file_findings:
            if fd.check == "bad-suppression":
                continue
            for sup in sups:
                if fd.line in sup.covered and (
                        fd.check in sup.checks or "*" in sup.checks):
                    fd.suppressed = True
                    fd.reason = sup.reason
                    sup.used = True
                    break
        if verbose:
            for sup in sups:
                if not sup.used:
                    print(f"{unit.path}:{sup.line}: note: FMLINT "
                          "suppression matches no finding "
                          f"({','.join(sup.checks)})")
        findings.extend(file_findings)
    return findings


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="flashmem_lint",
        description="FlashMem determinism lint (see module docstring)")
    ap.add_argument("paths", nargs="*", default=[])
    ap.add_argument("--checks", default=",".join(CHECK_NAMES),
                    help="comma-separated subset of checks to run")
    ap.add_argument("--exclude", action="append", default=[],
                    help="skip files whose path contains this "
                         "substring (repeatable)")
    ap.add_argument("--wallclock-whitelist", action="append",
                    default=None,
                    help="path prefixes allowed to read wall clocks "
                         "(default: bench/)")
    ap.add_argument("--wallclock-deny", action="append",
                    default=None,
                    help="path prefixes NEVER allowed to read wall "
                         "clocks, overriding the whitelist "
                         "(default: src/obs/)")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args(argv)

    if args.list_checks:
        # The docstring's catalog: each check and what it flags.
        print(__doc__[__doc__.index("  no-unordered-iteration"):
                      __doc__.index("\nSuppressing")].rstrip())
        return 0
    if not args.paths:
        ap.error("no paths given")

    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in checks if c not in CHECK_NAMES]
    if unknown:
        ap.error(f"unknown checks: {', '.join(unknown)} "
                 f"(try --list-checks)")
    whitelist = (args.wallclock_whitelist
                 if args.wallclock_whitelist is not None
                 else ["bench/"])
    deny = (args.wallclock_deny
            if args.wallclock_deny is not None
            else ["src/obs/"])

    files = gather_files(args.paths, args.exclude)
    if not files:
        print("flashmem_lint: no files matched", file=sys.stderr)
        return 2

    findings = run_builtin(files, checks, whitelist, deny,
                           args.verbose)

    unsuppressed = [f for f in findings if not f.suppressed]
    suppressed = [f for f in findings if f.suppressed]
    for f in sorted(unsuppressed, key=lambda f: (f.path, f.line)):
        print(f"{f.path}:{f.line}: [{f.check}] {f.message}")
    if args.verbose:
        for f in sorted(suppressed, key=lambda f: (f.path, f.line)):
            print(f"{f.path}:{f.line}: suppressed [{f.check}] "
                  f"— {f.reason}")
    print(f"flashmem_lint: {len(unsuppressed)} finding(s), "
          f"{len(suppressed)} suppressed, {len(files)} file(s)",
          file=sys.stderr)
    return 1 if unsuppressed else 0


if __name__ == "__main__":
    sys.exit(main())
