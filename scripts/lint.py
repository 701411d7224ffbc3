#!/usr/bin/env python3
"""Repo-invariant linter for rules clang-tidy cannot express.

Enforced invariants (each maps to a documented repo convention):

  guard      Include guards in headers must be FWDECAY_<PATH>_H_, where
             <PATH> is the path relative to the source root (src/ stripped),
             upper-cased, with /, ., - mapped to _.  The #endif must carry
             a `// FWDECAY_..._H_` trailing comment.
  random     All randomness flows through util/random.h (explicit-seed
             xoshiro256++).  rand(), srand(), time(nullptr)-seeding and
             std::mt19937 are banned everywhere else: they silently
             destroy run-to-run reproducibility of the experiments.
  throw      Library code (src/) is exception-free Google style; `throw`
             is banned.  Errors are status-style returns (ParseResult) or
             FWDECAY_CHECK aborts.
  assert     Naked assert() / <cassert> are banned in src/, bench/ and
             examples/: FWDECAY_CHECK aborts in every build type and
             prints the failing expression; FWDECAY_DCHECK is the
             debug-only form.  (tests/ may use gtest's assertions.)
  io         All file I/O in library code (src/) flows through
             util/fault_fs.h (crash-safe atomic writes + injectable
             faults).  fopen/fstream in src/ would bypass both the
             durability discipline and the fault-injection tests, so
             they are banned outside src/util/fault_fs.* itself.
             (tests/, bench/ and examples/ may open files directly.)
  locking    Concurrency primitives in library code (src/) must go
             through util/thread_annotations.h: any file mentioning
             std::mutex / std::shared_mutex / std::atomic /
             std::condition_variable must include it, so clang's
             -Wthread-safety analysis (FWDECAY_THREAD_SAFETY=ON) sees
             annotated fwdecay::Mutex types rather than bare std ones.
             Raw pthread_* calls and std::thread::detach() are banned
             in src/, bench/ and examples/ outright: the first bypasses
             the annotated layer entirely, the second leaks threads
             past every join-based shutdown path the tests exercise.
             util/sched.{h,cc} are exempt alongside
             thread_annotations.h: the model checker IS the layer the
             std primitives are wrapped behind (DESIGN.md §10).
  metrics    Two halves of the observability contract (DESIGN.md §9):
             (a) src/dsms/ must not read clocks ad hoc — no std::chrono
             or steady_clock outside util/timer.h / util/metrics.h, so
             every timing site goes through Timer/ScopedTimerSample and
             FWDECAY_METRICS=OFF provably removes all of them; (b) every
             metric name registered via Get{Counter,Gauge,DecayedRate,
             Reservoir}("...") in src/, bench/ and examples/ must match
             ^fwdecay_[a-z0-9_]+$, mirroring the runtime check so bad
             names fail in CI rather than at first scrape.  (tests/ may
             register invalid names: the death tests prove the runtime
             check fires.)
  hotpath    The batched aggregation hot path — the bodies of
             UpdateBatch(), UpdateStates() and the engine's phase-2
             loop FlushSegment() in src/ — must not construct a
             std::vector<Value> / ValueColumn: these functions run
             once per group-run or segment per batch, and a
             container construction there reintroduces exactly the
             per-tuple allocation the batch layer exists to remove
             (DESIGN.md §8).  References (`const ValueColumn&`) and
             span parameters are fine; reuse of preallocated member
             scratch is the sanctioned pattern.
  coldmap    The engine's group tables (src/dsms/engine.{h,cc}) must not
             fall back to node-based associative containers:
             std::unordered_map / std::map allocate a node per group and
             chase a pointer per probe, which is exactly the memory-
             bandwidth profile the flat open-addressing tables replaced
             (DESIGN.md §13.1).  A genuinely cold-path use (one-shot
             compile-time bookkeeping, not per-tuple or per-batch work)
             may be annotated `// fwdecay: coldmap-ok(<reason>)` on the
             use's line or the line above.
  escape     Every `// fwdecay: <kind>(<reason>)` analyzer escape
             (relaxed-ok, lock-order-ok, hotpath-lock-ok, taint-ok,
             hotpath-cold, coldmap-ok — the hatches scripts/analyze.py
             and this linter honor)
             must use a known kind and carry a non-empty, non-
             placeholder reason: an unexplained suppression is
             indistinguishable from a silenced bug at review time.
             Stale suppressions are flagged too: analyze.py applies an
             escape to its own line or the line below, so an escape
             annotating a blank/comment-only line suppresses nothing,
             a relaxed-ok with no memory_order_relaxed in reach lost
             its atomic, and a hotpath-lock-ok with no lock
             acquisition in reach lost its lock.

Usage: scripts/lint.py [--root DIR]
Exit status is 0 when clean, 1 when any finding is reported.
"""

import argparse
import pathlib
import re
import sys

SOURCE_DIRS = ("src", "bench", "examples", "tests")
CXX_SUFFIXES = (".h", ".cc", ".cpp")

# util/random.h is the one sanctioned home of PRNG machinery.
RANDOM_EXEMPT = ("src/util/random.h",)

# util/fault_fs is the one sanctioned home of raw file I/O in src/.
IO_EXEMPT = ("src/util/fault_fs.h", "src/util/fault_fs.cc")

# util/thread_annotations.h wraps std::mutex itself and so cannot be
# required to include itself. util/sched.{h,cc} are the model checker's
# own implementation: they deliberately build on the raw std primitives
# (the scheduler's one big mutex + condvar, and the std::atomic mirrors
# inside ModelAtomic) because they ARE the layer everything else routes
# through under -DFWDECAY_SCHED=ON.
LOCKING_EXEMPT = (
    "src/util/thread_annotations.h",
    "src/util/sched.h",
    "src/util/sched.cc",
)

RANDOM_BANNED = re.compile(
    r"(?<![\w:])(?:rand|srand)\s*\(|time\s*\(\s*(?:nullptr|NULL|0)\s*\)"
    r"|\bmt19937(?:_64)?\b")
THROW_BANNED = re.compile(r"(?<![\w])throw\b(?!\s*\()")
ASSERT_BANNED = re.compile(r"(?<![\w.])assert\s*\(|#\s*include\s*<cassert>")
IO_BANNED = re.compile(
    r"(?<![\w:])(?:fopen|freopen|open|creat)\s*\("
    r"|\bstd\s*::\s*(?:o|i)?fstream\b|#\s*include\s*<fstream>")
LOCKING_PRIMITIVE = re.compile(
    r"\bstd\s*::\s*(?:mutex|shared_mutex|recursive_mutex|atomic\b"
    r"|condition_variable)")
LOCKING_BANNED = re.compile(r"\bpthread_\w+\s*\(|\.\s*detach\s*\(\s*\)")
THREAD_ANNOTATIONS_INCLUDE = re.compile(
    r'#\s*include\s*"util/thread_annotations\.h"')
METRICS_CLOCK_BANNED = re.compile(r"\bstd\s*::\s*chrono\b|\bsteady_clock\b")
# Matched on raw text: the name is a string literal, which
# strip_comments_and_strings blanks out of `code`.
METRICS_REGISTRATION = re.compile(
    r"Get(?:Counter|Gauge|DecayedRate|Reservoir)\s*\(\s*\"([^\"]*)\"")
METRIC_NAME_OK = re.compile(r"^fwdecay_[a-z0-9_]+$")
HOTPATH_FUNC = re.compile(r"\b(?:FlushSegment|UpdateBatch|UpdateStates)\s*\(")
HOTPATH_CONTAINER = re.compile(
    r"\bstd\s*::\s*vector\s*<\s*Value\s*>|\bValueColumn\b")

# Analyzer escape hatches (`// fwdecay: <kind>(<reason>)`). The negative
# lookahead keeps `namespace fwdecay::server` out of the match; the
# mandatory `(` mirrors analyze.py, whose escape regexes only fire on
# the parenthesized form (a bare `fwdecay: relaxed-ok` in prose is
# documentation, and an unparenthesized real escape suppresses nothing,
# so the analyzer still reports the underlying finding).
ESCAPE_RE = re.compile(r"\bfwdecay:(?!:)\s*([A-Za-z][\w-]*)\s*\(([^()]*)\)")
ESCAPE_KINDS = frozenset(
    ("relaxed-ok", "lock-order-ok", "hotpath-lock-ok", "taint-ok",
     "hotpath-cold", "coldmap-ok"))
# A reason that is only whitespace or a template placeholder explains
# nothing.
ESCAPE_PLACEHOLDER = re.compile(r"^\s*(<[^>]*>)?\s*$")
# Kind-specific anchors: what the escape must be suppressing, expected
# on the escape's own line or the one below (mirroring analyze.py's
# `annotated()` reach).
ESCAPE_ANCHORS = {
    "relaxed-ok": re.compile(r"\bmemory_order_relaxed\b"),
    "hotpath-lock-ok": re.compile(
        r"\b(?:MutexLock|ReaderMutexLock|lock_guard|unique_lock"
        r"|scoped_lock|shared_lock)\b|\.\s*lock\s*\("),
    "coldmap-ok": re.compile(
        r"\bstd\s*::\s*(?:unordered_)?map\b"
        r"|#\s*include\s*<(?:unordered_)?map>"),
}

# Engine group-table files where node-based maps are banned (coldmap).
COLDMAP_FILES = ("src/dsms/engine.h", "src/dsms/engine.cc")
COLDMAP_BANNED = re.compile(
    r"\bstd\s*::\s*(?:unordered_)?map\b"
    r"|#\s*include\s*<(?:unordered_)?map>")
COLDMAP_ESCAPE = re.compile(r"\bfwdecay:(?!:)\s*coldmap-ok\s*\(")


def check_coldmap(rel: str, text: str, code: str, findings: list) -> None:
    raw_lines = text.split("\n")
    for m in COLDMAP_BANNED.finditer(code):
        idx = code[: m.start()].count("\n")
        # An escape on the use's own line or the line above suppresses.
        reach = "\n".join(raw_lines[max(0, idx - 1): idx + 1])
        if COLDMAP_ESCAPE.search(reach):
            continue
        findings.append(
            (rel, idx + 1,
             "coldmap: node-based map in the engine's group-table code "
             "(the flat open-addressing tables are the hot-path "
             "structure, DESIGN.md §13.1; cold-path uses take "
             "`// fwdecay: coldmap-ok(<reason>)`): "
             f"`{m.group(0).strip()}`"))


def check_escapes(rel: str, text: str, code: str, findings: list) -> None:
    raw_lines = text.split("\n")
    code_lines = code.split("\n")
    for idx, raw in enumerate(raw_lines):
        for m in ESCAPE_RE.finditer(raw):
            line = idx + 1
            kind = m.group(1)
            if kind not in ESCAPE_KINDS:
                findings.append(
                    (rel, line,
                     f"escape: unknown analyzer escape kind `{kind}` "
                     "(a typo here silently suppresses nothing; known: "
                     f"{', '.join(sorted(ESCAPE_KINDS))})"))
                continue
            reason = m.group(2)
            if ESCAPE_PLACEHOLDER.match(reason):
                findings.append(
                    (rel, line,
                     f"escape: `fwdecay: {kind}` without a reason — every "
                     "suppression must say why it is sound: "
                     f"`// fwdecay: {kind}(<reason>)`"))
                continue
            # Stale-suppression check over the escape's reach (its line
            # and the next): the stripped code there must contain the
            # kind's anchor, or at least *some* code to annotate.
            reach_code = "\n".join(code_lines[idx:idx + 2])
            anchor = ESCAPE_ANCHORS.get(kind)
            if anchor is not None:
                if not anchor.search(reach_code):
                    findings.append(
                        (rel, line,
                         f"escape: stale `fwdecay: {kind}` — nothing it "
                         "suppresses on this line or the next (the "
                         "annotated code moved or was deleted)"))
            elif not reach_code.strip():
                findings.append(
                    (rel, line,
                     f"escape: stale `fwdecay: {kind}` — it annotates a "
                     "blank or comment-only line, so analyze.py applies "
                     "it to nothing"))


def match_forward(code: str, i: int, open_ch: str, close_ch: str) -> int:
    """Returns the index of the delimiter closing the one at code[i]
    (assumes code[i] == open_ch), or len(code) when unbalanced."""
    depth = 0
    while i < len(code):
        if code[i] == open_ch:
            depth += 1
        elif code[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(code)


def check_hotpath(rel: str, code: str, findings: list) -> None:
    for m in HOTPATH_FUNC.finditer(code):
        params_end = match_forward(code, m.end() - 1, "(", ")")
        # Scan past trailer tokens (const/override/annotation macros) to
        # the body `{`; a `;` first means declaration or call site.
        j = params_end + 1
        while j < len(code) and code[j] not in "{;":
            j += 1
        if j >= len(code) or code[j] == ";":
            continue
        body = code[j:match_forward(code, j, "{", "}")]
        for cm in HOTPATH_CONTAINER.finditer(body):
            # References, span element types and nested-name mentions
            # are reads, not constructions: skip `const ValueColumn`,
            # `ValueColumn&`, and `ValueColumn::Rep`-style qualifiers.
            if body[: cm.start()].rstrip().endswith("const"):
                continue
            tail = body[cm.end():].lstrip()
            if tail.startswith(("&", "::")):
                continue
            line = code[: j + cm.start()].count("\n") + 1
            findings.append(
                (rel, line,
                 "hotpath: Value-container construction inside "
                 "UpdateBatch/UpdateStates/FlushSegment (reuse member "
                 f"scratch; see DESIGN.md §8): `{cm.group(0).strip()}`"))


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line
    structure so reported line numbers stay accurate."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            out.append("\n" * text.count("\n", i, j + 2))
            i = j + 2
        elif (c == "'" and 0 < i and i + 1 < n
              and text[i - 1] in "0123456789abcdefABCDEF"
              and text[i + 1] in "0123456789abcdefABCDEF"):
            # C++14 digit separator (60'000), not a char literal: an
            # unmatched open quote here would swallow lines of code.
            i += 1
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def expected_guard(relpath: pathlib.PurePosixPath) -> str:
    parts = list(relpath.parts)
    if parts[0] == "src":  # headers are included as "util/check.h" etc.
        parts = parts[1:]
    stem = "/".join(parts)
    return "FWDECAY_" + re.sub(r"[/.\-]", "_", stem.upper()) + "_"


def check_guard(rel: str, text: str, findings: list) -> None:
    want = expected_guard(pathlib.PurePosixPath(rel))
    m = re.search(r"^#ifndef\s+(\S+)\s*\n#define\s+(\S+)", text, re.M)
    if not m:
        findings.append((rel, 1, f"missing include guard (expected {want})"))
        return
    ifndef_line = text[: m.start()].count("\n") + 1
    for got in (m.group(1), m.group(2)):
        if got != want:
            findings.append(
                (rel, ifndef_line, f"include guard {got}, expected {want}"))
            return
    endif = re.search(r"#endif\s*//\s*(\S+)\s*$", text.rstrip())
    if not endif or endif.group(1) != want:
        findings.append(
            (rel, text.count("\n"), f"#endif missing `// {want}` comment"))


def scan_pattern(rel: str, code: str, pattern: re.Pattern, what: str,
                 findings: list) -> None:
    for m in pattern.finditer(code):
        line = code[: m.start()].count("\n") + 1
        findings.append((rel, line, f"{what}: `{m.group(0).strip()}`"))


def lint_file(root: pathlib.Path, path: pathlib.Path, findings: list) -> None:
    rel = path.relative_to(root).as_posix()
    text = path.read_text(encoding="utf-8")
    code = strip_comments_and_strings(text)

    if path.suffix == ".h":
        check_guard(rel, text, findings)
    if rel not in RANDOM_EXEMPT:
        scan_pattern(rel, code, RANDOM_BANNED,
                     "banned PRNG (use util/random.h Rng)", findings)
    if rel.startswith("src/"):
        scan_pattern(rel, code, THROW_BANNED,
                     "throw in exception-free library code", findings)
    if rel.startswith(("src/", "bench/", "examples/")):
        scan_pattern(rel, code, ASSERT_BANNED,
                     "naked assert (use FWDECAY_CHECK/FWDECAY_DCHECK)",
                     findings)
    if rel.startswith("src/") and rel not in IO_EXEMPT:
        scan_pattern(rel, code, IO_BANNED,
                     "raw file I/O in library code (use util/fault_fs.h)",
                     findings)
    if rel.startswith("src/"):
        check_hotpath(rel, code, findings)
    if rel in COLDMAP_FILES:
        check_coldmap(rel, text, code, findings)
    check_escapes(rel, text, code, findings)
    if rel.startswith("src/dsms/"):
        scan_pattern(rel, code, METRICS_CLOCK_BANNED,
                     "ad-hoc clock read in dsms/ (time through util/timer.h "
                     "Timer or util/metrics.h ScopedTimerSample)", findings)
    if not rel.startswith("tests/"):
        for m in METRICS_REGISTRATION.finditer(text):
            if not METRIC_NAME_OK.match(m.group(1)):
                line = text[: m.start()].count("\n") + 1
                findings.append(
                    (rel, line,
                     "metrics: registered name must match "
                     f"^fwdecay_[a-z0-9_]+$: `{m.group(1)}`"))
    if (rel.startswith(("src/", "bench/", "examples/"))
            and rel not in LOCKING_EXEMPT):
        # pthread/detach is banned beyond src/ too: bench and example
        # binaries are the reproduction entry points, and a detached
        # thread there outlives the measurement it was timing.
        scan_pattern(rel, code, LOCKING_BANNED,
                     "raw pthread / detached thread in library code",
                     findings)
    if rel.startswith("src/") and rel not in LOCKING_EXEMPT:
        # The include path is a string literal, so it must be matched on
        # the raw text (strip_comments_and_strings blanks it in `code`).
        m = LOCKING_PRIMITIVE.search(code)
        if m and not THREAD_ANNOTATIONS_INCLUDE.search(text):
            line = code[: m.start()].count("\n") + 1
            findings.append(
                (rel, line,
                 "concurrency primitive without util/thread_annotations.h "
                 "(use fwdecay::Mutex or include the annotation layer)"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script's dir)")
    args = ap.parse_args()
    root = (pathlib.Path(args.root) if args.root
            else pathlib.Path(__file__).resolve().parent.parent)

    findings = []
    count = 0
    for top in SOURCE_DIRS:
        for path in sorted((root / top).rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                lint_file(root, path, findings)
                count += 1

    for rel, line, msg in findings:
        print(f"{rel}:{line}: {msg}")
    status = "FAILED" if findings else "OK"
    print(f"lint.py: {count} files scanned, {len(findings)} finding(s) "
          f"[{status}]")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
