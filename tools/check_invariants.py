#!/usr/bin/env python3
"""Project-invariant linter: textual checks for rules clang-tidy can't know.

Each rule enforces a written DESIGN.md contract that is invisible to a
generic C++ linter because it is about THIS codebase's layering, not about
C++. The checks are deliberately textual (regex over comment-stripped
source): fast enough for a pre-commit hook, no compiler needed, and every
rule is calibrated so the current tree passes with zero waivers beyond the
ones listed in-source.

Waivers: a violating line (or the line directly above it) may carry
    // gsgrow:allow(<rule-id>): <non-empty reason>
which suppresses that one rule on that one line. A waiver naming an
unknown rule is itself an error, so typos cannot silently disable a check.

Self-test: `--self-test` runs the linter against the seeded-violation
fixture corpus in tests/tools/fixtures/ and verifies each fixture yields
EXACTLY its declared rule hits — the linter itself is tested, per rule,
in both directions (bad_* fixtures must fire, clean_* must not).

Exit codes: 0 clean, 1 violations (or self-test failure), 2 usage error.
"""

import argparse
import os
import re
import sys

# ---------------------------------------------------------------------------
# Source preprocessing


def strip_comments_and_strings(text):
    """Returns `text` with comments and string/char literals blanked out.

    Line structure is preserved (newlines survive) so line numbers match
    the original file. Replaced characters become spaces, so column-free
    regexes keep working. This is a one-pass scanner, not a real lexer:
    good enough for the token-level patterns below, and it cannot be
    confused by `new` or `std::mutex` appearing in prose or log strings.
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                # Raw strings would need real lexing; the tree has none in
                # rule-relevant positions, and a raw string only makes the
                # scanner blank too little, never too much code.
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# Rules. Each rule is (id, doc, applies(relpath) -> bool,
#                      check(relpath, raw_lines, code_lines) -> [(line, msg)])

_ALLOW_RE = re.compile(r"gsgrow:allow\(([a-z0-9-]+)\)(:\s*(\S.*))?")


def _path_under(relpath, *prefixes):
    return any(relpath.startswith(p) for p in prefixes)


def rule_raw_new(relpath, raw_lines, code_lines):
    """DESIGN.md §9: all mining-path allocation goes through the arena or
    standard containers; raw new/delete live only in the arena layer."""
    del raw_lines
    out = []
    pat = re.compile(r"(^|[^\w.])(new|delete)\b")
    deleted_fn = re.compile(r"=\s*delete\b")  # deleted special member, not
    for ln, line in enumerate(code_lines, 1):  # a deallocation
        if pat.search(deleted_fn.sub("", line)):
            out.append((ln, "raw new/delete outside the arena layer"))
    return out


def rule_bare_mutex(relpath, raw_lines, code_lines):
    """Thread-safety analysis only sees annotated capabilities: every lock
    must be the annotated gsgrow::Mutex from util/mutex.h, never a bare
    std synchronization primitive."""
    del raw_lines
    out = []
    pat = re.compile(
        r"std::(mutex|recursive_mutex|timed_mutex|shared_mutex|"
        r"lock_guard|scoped_lock|unique_lock|shared_lock)\b")
    for ln, line in enumerate(code_lines, 1):
        if pat.search(line):
            out.append((ln, "bare std synchronization primitive; use the "
                            "annotated gsgrow::Mutex/MutexLock"))
    return out


def rule_check_on_io_path(relpath, raw_lines, code_lines):
    """DESIGN.md §10: code reachable from I/O (persist/, serve/) reports
    failures as Status; a GSGROW_CHECK there must be justified as a true
    process-internal invariant with an `invariant:` comment on the same
    line or within the 3 lines above it."""
    out = []
    pat = re.compile(r"\bGSGROW_CHECK(_MSG)?\s*\(")
    for ln, line in enumerate(code_lines, 1):
        if not pat.search(line):
            continue
        window = raw_lines[max(0, ln - 4):ln]  # 3 lines above + same line
        if not any("invariant:" in w for w in window):
            out.append((ln, "GSGROW_CHECK on an I/O-reachable path without "
                            "an `invariant:` justification comment"))
    return out


def rule_filters_recompute(relpath, raw_lines, code_lines):
    """DESIGN.md §7: post-processing filters consume the annotations the
    mining pass recorded; they never re-scan the database to recompute
    semantics. Including semantics/ code (or calling the reference
    annotator) from postprocess/ is the telltale."""
    out = []
    for ln, line in enumerate(raw_lines, 1):
        if re.search(r'#\s*include\s*"semantics/', line):
            out.append((ln, "postprocess/ includes semantics/ code; filters "
                            "must consume annotations, not recompute them"))
    for ln, line in enumerate(code_lines, 1):
        if re.search(r"\bAnnotatePostHoc\s*\(", line):
            out.append((ln, "postprocess/ calls the reference annotator; "
                            "filters must consume recorded annotations"))
    return out


def rule_bench_cell_index_bytes(relpath, raw_lines, code_lines):
    """Bench JSON rows are only comparable across PRs if every emitter
    reports the memory side of the trade-off: a file that emits CellJson
    rows must populate Cell::index_bytes."""
    del raw_lines
    emits = [ln for ln, line in enumerate(code_lines, 1)
             if re.search(r"\bCellJson\s*\(", line)]
    if not emits:
        return []
    if any("index_bytes" in line for line in code_lines):
        return []
    return [(emits[0], "emits CellJson rows but never sets "
                       "Cell::index_bytes")]


_STATUS_VERBS = (
    "Sync", "Close", "Flush", "Checkpoint", "Ingest", "Append", "AppendTo",
    "WriteFileAtomic", "RemoveFileIfExists", "SyncDir", "CreateDirIfMissing",
)


def rule_status_drop(relpath, raw_lines, code_lines):
    """Status/Result are [[nodiscard]]; the only sanctioned drop is
    GSGROW_IGNORE_STATUS(expr, "reason"). A bare (void) cast silences the
    compiler without recording why the failure is acceptable."""
    del raw_lines
    out = []
    verbs = "|".join(_STATUS_VERBS)
    pat = re.compile(r"\(void\)\s*[^;]*\b(%s)\s*\(" % verbs)
    for ln, line in enumerate(code_lines, 1):
        if pat.search(line):
            out.append((ln, "bare (void) drop of a Status-returning call; "
                            "use GSGROW_IGNORE_STATUS(expr, \"reason\")"))
    return out


def rule_nolint_reason(relpath, raw_lines, code_lines):
    """A NOLINT without the specific check name and a reason is a blanket
    mute; policy is NOLINT(check-name): reason or nothing."""
    del code_lines
    out = []
    # Only marker comments (// NOLINT...) are policed; prose that merely
    # mentions NOLINT mid-comment is documentation, not a suppression.
    marker = re.compile(r"//\s*NOLINT(NEXTLINE|BEGIN|END)?\b")
    good = re.compile(r"//\s*NOLINT(NEXTLINE|BEGIN|END)?\([\w.,-]+\):\s*\S")
    for ln, line in enumerate(raw_lines, 1):
        if marker.search(line) and not good.search(line):
            out.append((ln, "NOLINT must name its check and carry a reason: "
                            "NOLINT(check-name): why"))
    return out


def rule_cache_key_canonical(relpath, raw_lines, code_lines):
    """DESIGN.md §12: a ResultCacheKey has exactly one producer —
    CanonicalRequestKey in io/request_io.cc. Serve-layer code constructing
    a key any other way would cache under an un-canonicalized request,
    splitting equivalent requests across entries or serving one request's
    answer for a different one. The private constructor enforces this at
    compile time; this rule is the textual backstop (it also catches
    friend-function additions and patches that relax the class)."""
    del raw_lines
    out = []
    pat = re.compile(r"\bResultCacheKey\s*[({]")
    for ln, line in enumerate(code_lines, 1):
        if pat.search(line):
            out.append((ln, "direct ResultCacheKey construction; the only "
                            "key factory is CanonicalRequestKey "
                            "(io/request_io.cc)"))
    return out


def rule_metric_register_macro(relpath, raw_lines, code_lines):
    """DESIGN.md §13: product code registers metrics only through the
    GSGROW_METRIC_* macros (obs/metrics.h), never by calling the registry's
    Register* methods directly. The macros pin the one sanctioned pattern —
    a function-local static handle resolved once against the global
    registry — so every hot-path Record/Increment is a plain atomic with no
    lookup, no allocation, and no chance of re-registering under a
    subtly different name or help string. Tests and benchmarks exercising
    their own local MetricRegistry instances are exempt by path."""
    del raw_lines
    out = []
    pat = re.compile(r"\bRegister(Counter|Gauge|Histogram)\s*\(")
    for ln, line in enumerate(code_lines, 1):
        if pat.search(line):
            out.append((ln, "direct MetricRegistry registration; use the "
                            "GSGROW_METRIC_* macros (obs/metrics.h)"))
    return out


# A declaration is "<type> [Qualifier::]Name(": a type-like token (word,
# qualified name or template-id, no spaces), then whitespace or one pointer
# or reference sigil. Keywords that can precede a call are excluded.
_NOT_A_TYPE_WORDS = r"(?:return|else|throw|case|co_return|co_await|" \
                    r"co_yield|new|and|or|not)"
_ORACLE_NAME = r"(?:\w+::)*(\w+(?:Seed|Reference|Plain))\s*\("
_ORACLE_DECL_SAME_LINE = re.compile(
    r"(?:^|[^\w:])(?!" + _NOT_A_TYPE_WORDS + r"\b)"
    r"\w[\w:<>]*(?:\s*\*+\s*|\s*&\s*|\s+)" + _ORACLE_NAME)
_ORACLE_DECL_NEXT_LINE = re.compile(r"^\s*" + _ORACLE_NAME)
_TYPE_TAIL = re.compile(r"[\w>*&]\s*$")
_NOT_A_TYPE = re.compile(r"\b" + _NOT_A_TYPE_WORDS + r"\s*$")


def rule_oracle_outside_src(relpath, raw_lines, code_lines):
    """ROADMAP aim 2 / DESIGN.md §5: oracles and ablation twins live in
    core/reference and tests/, not in product code. A function whose name
    ends in Seed, Reference or Plain — the names the old twins carried —
    may be declared or defined under src/ only in src/core/reference.{h,cc};
    anywhere else it is a second implementation of something src/ already
    does once. Calls are fine (product code may use the reference oracle,
    e.g. the gap-constrained miner's exact support); only declarations and
    definitions fire, including a return type on the line above."""
    del raw_lines
    out = []
    prev = ""
    for ln, line in enumerate(code_lines, 1):
        m = _ORACLE_DECL_SAME_LINE.search(line)
        name = m.group(1) if m else None
        if name is None:
            m = _ORACLE_DECL_NEXT_LINE.match(line)
            if m and _TYPE_TAIL.search(prev) and not _NOT_A_TYPE.search(prev):
                name = m.group(1)
        if name is not None:
            out.append((ln, "oracle/twin function '%s' declared outside "
                            "src/core/reference.{h,cc}; move it to "
                            "core/reference or tests/" % name))
        if line.strip():
            prev = line
    return out


def rule_thread_spawn(relpath, raw_lines, code_lines):
    """DESIGN.md §6: product code starts threads in one place, RunWorkers
    in core/parallel_engine.h (inline for one worker, spawn + join
    otherwise). A std::thread (or std::jthread) named anywhere else under
    src/ is a second pool with its own spawn/join/oversubscription rules.
    std::thread::hardware_concurrency and std::this_thread are not
    construction and do not fire."""
    del raw_lines
    out = []
    pat = re.compile(r"\bstd::j?thread\b(?!\s*::)")
    for ln, line in enumerate(code_lines, 1):
        if pat.search(line):
            out.append((ln, "std::thread outside core/parallel_engine.h; "
                            "start workers with RunWorkers"))
    return out


RULES = [
    ("raw-new", rule_raw_new,
     lambda p: _path_under(p, "src/") and p != "src/util/arena.cc"),
    ("bare-mutex", rule_bare_mutex,
     lambda p: _path_under(p, "src/", "tests/", "bench/", "examples/")
     and p != "src/util/mutex.h"),
    ("check-on-io-path", rule_check_on_io_path,
     lambda p: _path_under(p, "src/persist/", "src/serve/")),
    ("filters-recompute", rule_filters_recompute,
     lambda p: _path_under(p, "src/postprocess/")),
    ("bench-cell-index-bytes", rule_bench_cell_index_bytes,
     lambda p: _path_under(p, "bench/")),
    ("status-drop", rule_status_drop,
     lambda p: _path_under(p, "src/", "tests/", "bench/", "examples/")),
    ("nolint-reason", rule_nolint_reason,
     lambda p: _path_under(p, "src/", "tests/", "bench/", "examples/")),
    ("cache-key-canonical", rule_cache_key_canonical,
     lambda p: _path_under(p, "src/serve/", "src/io/")
     and p not in ("src/serve/result_cache.h", "src/io/request_io.cc")),
    ("metric-register-macro", rule_metric_register_macro,
     lambda p: _path_under(p, "src/") and not _path_under(p, "src/obs/")),
    ("oracle-outside-src", rule_oracle_outside_src,
     lambda p: _path_under(p, "src/")
     and p not in ("src/core/reference.h", "src/core/reference.cc")),
    ("thread-spawn", rule_thread_spawn,
     lambda p: _path_under(p, "src/") and p != "src/core/parallel_engine.h"),
]

RULE_IDS = {rid for rid, _, _ in RULES}


# ---------------------------------------------------------------------------
# Scanning


def collect_waivers(raw_lines):
    """Returns ({line: {rule, ...}}, [(line, msg)] for malformed waivers)."""
    waivers = {}
    errors = []
    for ln, line in enumerate(raw_lines, 1):
        for m in _ALLOW_RE.finditer(line):
            rid, reason = m.group(1), m.group(3)
            if rid not in RULE_IDS:
                errors.append((ln, "waiver names unknown rule '%s'" % rid))
                continue
            if not reason:
                errors.append((ln, "waiver for '%s' has no reason" % rid))
                continue
            # A waiver covers its own line and the line below it, so it can
            # sit as a trailing comment or on its own line above the code.
            waivers.setdefault(ln, set()).add(rid)
            waivers.setdefault(ln + 1, set()).add(rid)
    return waivers, errors


def scan_text(relpath, text):
    """Lints one file's contents; returns [(line, rule-id, message)]."""
    raw_lines = text.split("\n")
    code_lines = strip_comments_and_strings(text).split("\n")
    waivers, waiver_errors = collect_waivers(raw_lines)
    findings = [(ln, "bad-waiver", msg) for ln, msg in waiver_errors]
    for rid, check, applies in RULES:
        if not applies(relpath):
            continue
        for ln, msg in check(relpath, raw_lines, code_lines):
            if rid in waivers.get(ln, ()):
                continue
            findings.append((ln, rid, msg))
    findings.sort()
    return findings


def iter_tree_files(root):
    scan_dirs = ("src", "tests", "bench", "examples")
    skip = os.path.join("tests", "tools", "fixtures")
    for d in scan_dirs:
        top = os.path.join(root, d)
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".h", ".cc")):
                    continue
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, root)
                if rel.startswith(skip):
                    continue
                yield rel, full


def run_tree_scan(root):
    total = 0
    for rel, full in iter_tree_files(root):
        with open(full, encoding="utf-8") as f:
            text = f.read()
        for ln, rid, msg in scan_text(rel.replace(os.sep, "/"), text):
            print("%s:%d: [%s] %s" % (rel, ln, rid, msg))
            total += 1
    if total:
        print("check_invariants: %d violation(s)" % total)
        return 1
    print("check_invariants: clean (%d rules)" % len(RULES))
    return 0


# ---------------------------------------------------------------------------
# Self-test over the fixture corpus

_FIXTURE_RE = re.compile(
    r"gsgrow-fixture:\s*path=(\S+)\s+expect=([\w,-]*)")


def run_self_test(root):
    fixture_dir = os.path.join(root, "tests", "tools", "fixtures")
    if not os.path.isdir(fixture_dir):
        print("self-test: fixture dir missing: %s" % fixture_dir)
        return 1
    names = sorted(n for n in os.listdir(fixture_dir)
                   if n.endswith((".h", ".cc")))
    if not names:
        print("self-test: no fixtures found")
        return 1
    failures = 0
    fired = set()
    for name in names:
        full = os.path.join(fixture_dir, name)
        with open(full, encoding="utf-8") as f:
            text = f.read()
        m = _FIXTURE_RE.search(text.split("\n", 1)[0])
        if not m:
            print("FAIL %s: first line lacks a gsgrow-fixture header" % name)
            failures += 1
            continue
        pretend, expect_csv = m.group(1), m.group(2)
        expected = sorted(e for e in expect_csv.split(",") if e)
        unknown = [e for e in expected
                   if e not in RULE_IDS and e != "bad-waiver"]
        if unknown:
            print("FAIL %s: expects unknown rule(s) %s" % (name, unknown))
            failures += 1
            continue
        got = sorted(rid for _, rid, _ in scan_text(pretend, text))
        if got != expected:
            print("FAIL %s (as %s): expected %s, got %s" %
                  (name, pretend, expected or ["<clean>"],
                   got or ["<clean>"]))
            failures += 1
        else:
            print("ok   %s: %s" % (name, expected or ["clean"]))
        fired.update(expected)
    missing = sorted(RULE_IDS - fired)
    if missing:
        print("FAIL: no fixture exercises rule(s): %s" % missing)
        failures += 1
    if failures:
        print("self-test: %d failure(s)" % failures)
        return 1
    print("self-test: all %d fixtures pass, every rule exercised"
          % len(names))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the fixture corpus instead of the tree")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    args = parser.parse_args(argv)
    if args.list_rules:
        for rid, check, _ in RULES:
            doc = " ".join((check.__doc__ or "").split())
            print("%-24s %s" % (rid, doc))
        return 0
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print("not a gsgrow checkout: %s" % root)
        return 2
    if args.self_test:
        return run_self_test(root)
    return run_tree_scan(root)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
