#!/usr/bin/env python3
"""The repo's source checker: fwdecay's coding conventions and the
forward-decay paper's model-level invariants, none of which the compiler
or clang-tidy can express.

Rules match comment/string-stripped sources (line structure is kept,
so findings carry real line numbers), except where what they check is
itself a comment or a literal: include guards, metric names, escapes.
Each rule checks src/,
bench/ and examples/ unless its entry says otherwise; tests/ is checked
by guard, random and escape only. Per-file rules:

  guard          Include guards in headers must be FWDECAY_<PATH>_H_,
                 where <PATH> is the path relative to the source root
                 (src/ stripped), upper-cased, with /, ., - mapped to _.
                 The #endif must carry a `// FWDECAY_..._H_` comment.
                 Also checks tests/.
  random         All randomness flows through util/random.h (explicit-
                 seed xoshiro256++). rand(), srand(), time(nullptr)-
                 seeding and std::mt19937 are banned elsewhere: they
                 destroy run-to-run reproducibility of the experiments.
                 Also checks tests/.
  throw          Library code (src/ only) is exception-free Google
                 style: errors are status-style returns or FWDECAY_CHECK
                 aborts.
  assert         Naked assert() / <cassert> are banned: FWDECAY_CHECK
                 aborts in every build type, FWDECAY_DCHECK is the
                 debug-only form. (tests/ use gtest's assertions.)
  io             All file I/O in src/ flows through util/fault_fs.h
                 (crash-safe atomic writes + injectable faults);
                 fopen/fstream would bypass both the durability
                 discipline and the fault-injection tests.
  locking        Concurrency primitives go through
                 util/thread_annotations.h: a src/ file mentioning
                 std::mutex / shared_mutex / atomic / condition_variable
                 must include it, so clang's -Wthread-safety sees the
                 annotated fwdecay::Mutex types. Raw pthread_* calls and
                 std::thread::detach() are banned outright: the first
                 bypasses the annotated layer, the second leaks threads
                 past every join-based shutdown path.
  metrics        The observability contract (DESIGN.md §9): (a) src/dsms/
                 must not read clocks ad hoc (std::chrono/steady_clock)
                 — timing goes through util/timer.h / util/metrics.h so
                 FWDECAY_METRICS=OFF removes every site; (b) every name
                 registered via Get{Counter,Gauge,DecayedRate,Reservoir}
                 ("...") must match ^fwdecay_[a-z0-9_]+$, mirroring the
                 runtime check so bad names fail here, not at first
                 scrape.
  coldmap        The engine's group tables (src/dsms/engine.{h,cc}) must
                 not fall back to node-based std::unordered_map /
                 std::map (a heap node per group, a pointer chase per
                 probe; DESIGN.md §13.1). Cold-path uses carry
                 `// fwdecay: coldmap-ok(<reason>)`.
  escape         Every `// fwdecay: <kind>(<reason>)` escape must use a
                 kind in ESCAPE_ANCHORS, give a real reason (not empty,
                 not a `<placeholder>`), and still cover something: an
                 escape applies to its own line and the next, so one
                 whose reach lacks what its rule flags (or, for kinds
                 without an anchor, any code) is stale. Also checks
                 tests/.

  backward-age   Forward decay's whole point (Section IV) is that
                 per-item weights are computed from the *landmark*,
                 g(t_i - L), never from the current time. Arithmetic of
                 the form `now - t_i` (current-time minuend, per-item
                 timestamp subtrahend) is backward decay and belongs
                 only in src/core/decay.h, where the paper's backward
                 baselines are deliberately implemented. Window cutoffs
                 (`now - window`, `now - horizon_`) and stream spans
                 (`now - first_ts_`) are aggregate quantities, not
                 per-item ages, and are not flagged.

  exp-pow        exp()/pow() on decay weights overflows once alpha * n
                 grows past ~709; the sanctioned implementations
                 (core/decay.h's ExponentialG / ShiftFactor and the
                 log-domain samplers) rescale or stay in the log domain.
                 Every exp/pow call site must therefore live in a file
                 on the reviewed allowlist below; new call sites must
                 either route through core/decay.h or be added to the
                 allowlist with a written rationale.

  deser-bounds   In Deserialize()/RestoreFrom() bodies, every
                 container allocation (reserve/resize/assign) must be
                 preceded by a bounds check — either against
                 reader->Remaining() or an explicit numeric cap — so a
                 corrupt length header cannot demand an absurd
                 allocation before any payload byte is validated.

  guarded-by     Every fwdecay::Mutex member must protect something:
                 the file must annotate at least one member with
                 FWDECAY_GUARDED_BY(mu) / FWDECAY_PT_GUARDED_BY(mu) for
                 that mutex, and bare std::mutex members are banned in
                 favor of the annotated wrapper (otherwise the clang
                 -Wthread-safety build proves nothing about the class).

  atomics-order  `memory_order_relaxed` is the easiest way to write a
                 racy publish: a relaxed flag store orders nothing.
                 Every relaxed use must (a) live in a file on the
                 RELAXED_ALLOWED audit list and (b) carry
                 `// fwdecay: relaxed-ok(<reason>)` on the same or
                 previous line, stating why ordering is not needed
                 (tests/ are exempt: racy fixtures are the model
                 checker's job). The audited sites are exactly the ones
                 tests/sched_test.cc explores under -DFWDECAY_SCHED=ON
                 weak-memory simulation.

  hotpath-lock   Mutex acquisition inside the batched ingest hot path —
                 the bodies of UpdateBatch() and Consume() — serializes
                 the very code the batch layer parallelizes. Each such
                 acquisition must be annotated
                 `// fwdecay: hotpath-lock-ok(<reason>)` (e.g. "one
                 acquisition amortized over the whole batch"), so a
                 per-tuple lock cannot creep in silently.

  avx2-call      A `target("avx2")` function may call only intrinsics
                 (_mm*, __builtin_*, memcpy), `always_inline` bodies and
                 other `target("avx2")` functions, resolved by C++ name
                 lookup within the file. The calls inside every
                 `always_inline` body it reaches are checked the same
                 way, transitively; the util/hash.h mixers it may call
                 (AVX2_HEADER_INLINES) are checked on hash.h to be
                 `always_inline` bodies too. A call into baseline code
                 leaves the upper YMM state dirty (GCC emits no
                 vzeroupper before a tail jump), and every legacy-SSE
                 instruction after it runs slowly (DESIGN.md §13.4). No
                 escape.

Cross-file rules:

  lock-order     Global (cross-TU) lock-acquisition graph. Every
                 acquisition made while another lock is held adds an
                 edge held -> acquired; calls made under a lock
                 propagate the callee's transitive acquisitions when
                 the bare callee name resolves to exactly one
                 lock-acquiring definition. Lock identity is
                 Class::member when the member name is owned by exactly
                 one class, else file-qualified. Any cycle in the graph
                 (including a self-edge, i.e. re-acquiring a lock of
                 the same identity while holding one) is a potential
                 deadlock and fails the build — the static complement
                 of the deadlock detector inside util/sched.h's
                 schedule explorer (DESIGN.md §10). Intentional
                 exceptions carry `// fwdecay: lock-order-ok(<reason>)`
                 on the acquisition line or the line above.

  taint          Summary-based interprocedural dataflow from untrusted
                 bytes to allocation/index sinks (DESIGN.md §12).
                 Sources: ByteReader Read*/ReadString (journal,
                 snapshot, trace and frame bytes all arrive through
                 it), RecvExactly'd socket buffers, and numeric parses
                 (ParseU64/strtoull/...) of untrusted text. Sinks:
                 container resize/reserve/assign arguments, `new T[n]`,
                 memcpy/memmove/memset/strncpy lengths,
                 capacity-taking constructors (vector/string/deque/
                 PacketBatch), loop bounds, and index subscripts. A
                 value is cleared ("sanitized") once it crosses an
                 `if (...)`/FWDECAY_CHECK(...) extent containing a
                 comparison, or a std::min/std::clamp — the repo's
                 hostile-count guard idioms — and `h & mask` with an
                 untainted mask is bounded by the mask. Per-function
                 summaries (param -> sink, param -> out-param, return
                 taint) carry flows across functions and TUs when a
                 bare callee name resolves to exactly one definition
                 (same silence-over-misattribution discipline as
                 lock-order); a resolved call's result carries only
                 what its return summary says, so `Probe(h)` returning
                 `hash & mask` is clean whatever `h` carries. Audited
                 escapes carry `// fwdecay: taint-ok(<reason>)` on the
                 sink or call line (or the line above).

  hotpath-purity Walks the call graph from the batched-ingest roots —
                 Consume/ConsumeFiltered, the engine's phase-2 loop
                 FlushSegment, UpdateBatch and UpdateStates overrides,
                 EvalPredicateBatch/EvalExprBatch, core AddBatch — and
                 proves no reachable heap allocation (new/make_unique/
                 make_shared/to_string/malloc, owning-container
                 construction or temporaries, growth of non-scratch
                 locals), no `throw`, no virtual dispatch outside the
                 audited AggState vtable set {UpdateBatch,
                 UpdateStates}, and no syscall/clock read. src/ only.
                 Capacity-retained member scratch (trailing `_`,
                 DESIGN.md §8) and caller-owned `->` receivers are the
                 two sanctioned growth targets. Cold branches carry
                 `// fwdecay: hotpath-cold(<reason>)` on the call or
                 site line: on a call it prunes the walk through that
                 edge, on a site it suppresses that site. Calls resolve
                 when the bare name has exactly one definition; names
                 in the audited vtable set traverse every override (any
                 of them can be the dispatch target).

Usage: scripts/analyze.py [--selftest]
Prints each finding as `file:line: rule: message`, then the wall time
of each rule. --selftest instead runs the embedded fixtures (a known-bad
and a clean case for every rule) through the same rules. Exit status is
0 when clean, 1 when any finding is reported, 2 when the selftest fails.
"""

import argparse
import functools
import pathlib
import re
import sys
import time

# ---------------------------------------------------------------------------
# Shared rule configuration
# ---------------------------------------------------------------------------

SOURCE_DIRS = ("src", "bench", "examples", "tests")
SRC_SUFFIXES = (".h", ".cc", ".cpp")
# What the rules check by default: the library and the binaries that
# reproduce the paper. tests/ is checked only where a rule says so.
PRODUCT = ("src/", "bench/", "examples/")
EVERYWHERE = PRODUCT + ("tests/",)

# util/random.h is the one sanctioned home of PRNG machinery.
RANDOM_EXEMPT = ("src/util/random.h",)

# util/fault_fs is the one sanctioned home of raw file I/O in src/.
IO_EXEMPT = ("src/util/fault_fs.h", "src/util/fault_fs.cc")

# The locking layer itself, exempt from locking, guarded-by and
# lock-order: thread_annotations.h wraps std::mutex and so cannot be
# required to include itself; util/sched.{h,cc} are the model checker,
# whose std::mutex/condvar and std::atomic mirrors ARE the layer
# everything else routes through under -DFWDECAY_SCHED=ON.
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

# Engine group-table files where node-based maps are banned (coldmap).
COLDMAP_FILES = ("src/dsms/engine.h", "src/dsms/engine.cc")
COLDMAP_RE = re.compile(
    r"\bstd\s*::\s*(?:unordered_)?map\b"
    r"|#\s*include\s*<(?:unordered_)?map>")

# Current-time identifiers: a subtraction with one of these on the left
# is age arithmetic.
NOW_IDENTIFIERS = {"now", "t_now", "query_time", "current_time"}

# Per-item timestamp shapes: `t_i`, any `.ts` / `->ts` member access, or
# identifiers that name a tuple/packet/item timestamp. Aggregate
# quantities (window, horizon_, first_ts_, landmark, mid) do not match.
ITEM_TS_RE = re.compile(
    r"^(?:t_i|t_j|(?:[A-Za-z_]\w*(?:\.|->))?ts|item_ts|tuple_ts"
    r"|packet_ts|arrival_ts)$")

# The one sanctioned home of backward-age arithmetic: the paper's
# backward decay functions f(t - t_i) in Definition 1 / Section III.
BACKWARD_AGE_ALLOWED = ("src/core/decay.h",)

# exp/pow allowlist. Each entry is a reviewed decision; see the header
# comment of the file in question for the overflow argument.
EXP_POW_ALLOWED = {
    # The sanctioned decay implementations themselves: ExponentialG
    # works on landmark-relative n with ShiftFactor rescaling; the
    # backward F structs are the paper's baselines.
    "src/core/decay.h",
    # Zipf rejection sampler: exp/log of the skew parameter, not decay
    # weights; arguments are bounded by the harmonic-sum inverse.
    "src/util/zipf.cc",
    # GSQL builtins exp()/pow()/expweight()/polyweight(): expweight
    # bounds its argument with fmod(time, period) by construction.
    "src/dsms/expr.cc",
    # Backward polynomial UDAF weight (age + 1)^-2: magnitude <= 1.
    "src/dsms/udafs.cc",
    # Width sizing ceil(e / eps): constant exp(1).
    "src/sketch/count_min.cc",
    # Level-set geometry b^l: level indices are log_b of observed
    # weights, so the power un-does a log of the same magnitude.
    "src/sketch/dominance_norm.cc",
    # Geometric age-grid knots for the Cohen-Strauss combination.
    "src/sketch/backward_sum.cc",
    # Log-domain sampler helpers: exp() of non-positive log-weight
    # differences (A-ExpJ, Algorithm L, priority sampling), <= 1 by
    # construction.
    "src/sampling/reservoir.h",
    "src/sampling/weighted_reservoir.h",
    "src/sampling/priority_sampling.h",
    "src/sampling/with_replacement.h",
    # Figure-reproduction ground truth: exp(fmod(time, 60)), argument
    # bounded by the 60-second landmark period per the paper's setup.
    "bench/bench_fig4_hh_eps.cc",
    "bench/bench_fig5_hh_rate.cc",
}

EXP_POW_CALL_RE = re.compile(r"(?:\bstd\s*::\s*)?\b(exp|pow)\s*\(")

# Functions whose bodies deserialize untrusted bytes.
DESER_FN_RE = re.compile(r"\b(?:Deserialize|RestoreFrom)\s*\([^;]*$")
ALLOC_RE = re.compile(r"\.\s*(reserve|resize|assign)\s*\(")
BOUNDS_GUARD_RE = re.compile(
    r"Remaining\s*\(|>=?\s*\(?\s*(?:std::(?:uint64_t|size_t|uint32_t)\{1\}"
    r"|1u?l{0,2}\s*<<|0x[0-9a-fA-F]+|\d)")

MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:fwdecay\s*::\s*)?Mutex\s+(\w+)\s*;", re.M)
STD_MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?std\s*::\s*(?:shared_|recursive_)?mutex\s+\w+\s*;",
    re.M)

# atomics-order: audited homes of memory_order_relaxed. Every entry is
# covered by the memory-order contract comment in util/metrics.h and by
# the sched_test.cc weak-memory fixtures.
RELAXED_ALLOWED = {
    # Monotone counter cells + the ModelAtomic mirror (scheduler grant
    # serializes mirror stores).
    "src/util/metrics.h",
    "src/util/metrics.cc",
    "src/util/sched.h",
    "src/util/sched.cc",
    # UDAF state-seed allocator (uniqueness needs only RMW atomicity).
    "src/dsms/udafs.cc",
}

RELAXED_RE = re.compile(r"\bmemory_order_relaxed\b")

# RAII acquisition: `MutexLock lock(expr)` and the std lock guards. Only
# the paren form (the brace form would desync the block-depth scan).
RAII_LOCK_RE = re.compile(
    r"\b(?:MutexLock|ModelMutexLock"
    r"|(?:std\s*::\s*)?(?:lock_guard|unique_lock|scoped_lock)"
    r"\s*(?:<[^<>]*>)?)\s+\w+\s*\(\s*([^,();]+)")
EXPLICIT_LOCK_RE = re.compile(
    r"([\w\]](?:[\w.\->\[\]]*?)?)\s*(?:\.|->)\s*Lock\s*\(\s*\)")
LOCK_ACQUIRE_RE = re.compile(
    f"(?:{RAII_LOCK_RE.pattern})|(?:{EXPLICIT_LOCK_RE.pattern})")

# Hot-path entry points whose bodies must not take locks silently.
HOTPATH_LOCK_FNS = ("UpdateBatch", "Consume")

# Escape hatches: `// fwdecay: <kind>(<reason>)` suppresses its rule's
# finding on the escape's own line and ESCAPE_REACH lines below. The
# anchor is what that rule flags: an escape whose reach has no anchor
# match (or, for kinds without one, no code at all) suppresses nothing.
# The negative lookahead keeps `namespace fwdecay::server` out.
ESCAPE_RE = re.compile(r"\bfwdecay:(?!:)\s*([A-Za-z][\w-]*)\s*\(([^()]*)\)")
ESCAPE_REACH = 1
ESCAPE_ANCHORS = {
    "relaxed-ok": RELAXED_RE,  # atomics-order
    "lock-order-ok": LOCK_ACQUIRE_RE,  # lock-order
    "hotpath-lock-ok": LOCK_ACQUIRE_RE,  # hotpath-lock
    "taint-ok": None,  # taint
    "hotpath-cold": None,  # hotpath-purity
    "coldmap-ok": COLDMAP_RE,  # coldmap
}
# A reason that is only whitespace or a template placeholder explains
# nothing.
ESCAPE_PLACEHOLDER = re.compile(r"^\s*(<[^>]*>)?\s*$")


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving newlines so
    reported line numbers stay accurate."""
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


def line_of(code: str, pos: int) -> int:
    return code[:pos].count("\n") + 1


def escaped(raw_lines, line: int, kind: str) -> bool:
    """True when a `kind` escape covers `line` (1-based): it sits on
    that line or up to ESCAPE_REACH lines above in the ORIGINAL text —
    escapes live in comments, which the stripped code no longer
    contains."""
    for ln in range(max(1, line - ESCAPE_REACH), line + 1):
        if ln <= len(raw_lines) and any(
                m.group(1) == kind
                for m in ESCAPE_RE.finditer(raw_lines[ln - 1])):
            return True
    return False


def scan_pattern(rel: str, code: str, pattern: re.Pattern, what: str,
                 findings: list) -> None:
    for m in pattern.finditer(code):
        findings.append((rel, line_of(code, m.start()),
                         f"{what}: `{m.group(0).strip()}`"))


# ---------------------------------------------------------------------------
# Per-file rules: each takes (rel, raw, code, findings), where code is
# raw with comments and literals blanked.
# ---------------------------------------------------------------------------

def expected_guard(rel: str) -> str:
    parts = list(pathlib.PurePosixPath(rel).parts)
    if parts[0] == "src":  # headers are included as "util/check.h" etc.
        parts = parts[1:]
    return "FWDECAY_" + re.sub(r"[/.\-]", "_", "/".join(parts).upper()) + "_"


def rule_guard(rel: str, raw: str, code: str, findings: list) -> None:
    if not rel.endswith(".h"):
        return
    want = expected_guard(rel)
    m = re.search(r"^#ifndef\s+(\S+)\s*\n#define\s+(\S+)", raw, re.M)
    if not m:
        findings.append(
            (rel, 1, f"guard: missing include guard (expected {want})"))
        return
    for got in (m.group(1), m.group(2)):
        if got != want:
            findings.append(
                (rel, line_of(raw, m.start()),
                 f"guard: include guard {got}, expected {want}"))
            return
    endif = re.search(r"#endif\s*//\s*(\S+)\s*$", raw.rstrip())
    if not endif or endif.group(1) != want:
        findings.append(
            (rel, raw.count("\n"),
             f"guard: #endif missing `// {want}` comment"))


def rule_random(rel: str, raw: str, code: str, findings: list) -> None:
    if rel not in RANDOM_EXEMPT:
        scan_pattern(rel, code, RANDOM_BANNED,
                     "random: banned PRNG (use util/random.h Rng)", findings)


def rule_throw(rel: str, raw: str, code: str, findings: list) -> None:
    scan_pattern(rel, code, THROW_BANNED,
                 "throw: throw in exception-free library code", findings)


def rule_assert(rel: str, raw: str, code: str, findings: list) -> None:
    scan_pattern(rel, code, ASSERT_BANNED,
                 "assert: naked assert (use FWDECAY_CHECK/FWDECAY_DCHECK)",
                 findings)


def rule_io(rel: str, raw: str, code: str, findings: list) -> None:
    if rel not in IO_EXEMPT:
        scan_pattern(rel, code, IO_BANNED,
                     "io: raw file I/O in library code (use "
                     "util/fault_fs.h)", findings)


def rule_locking(rel: str, raw: str, code: str, findings: list) -> None:
    if rel in LOCKING_EXEMPT:
        return
    # pthread/detach is banned beyond src/ too: bench and example
    # binaries are the reproduction entry points, and a detached thread
    # there outlives the measurement it was timing.
    scan_pattern(rel, code, LOCKING_BANNED,
                 "locking: raw pthread / detached thread", findings)
    if rel.startswith("src/"):
        # The include path is a string literal: match it on raw text.
        m = LOCKING_PRIMITIVE.search(code)
        if m and not THREAD_ANNOTATIONS_INCLUDE.search(raw):
            findings.append(
                (rel, line_of(code, m.start()),
                 "locking: concurrency primitive without "
                 "util/thread_annotations.h (use fwdecay::Mutex or "
                 "include the annotation layer)"))


def rule_metrics(rel: str, raw: str, code: str, findings: list) -> None:
    if rel.startswith("src/dsms/"):
        scan_pattern(rel, code, METRICS_CLOCK_BANNED,
                     "metrics: ad-hoc clock read in dsms/ (time through "
                     "util/timer.h Timer or util/metrics.h "
                     "ScopedTimerSample)", findings)
    for m in METRICS_REGISTRATION.finditer(raw):
        if not METRIC_NAME_OK.match(m.group(1)):
            findings.append(
                (rel, line_of(raw, m.start()),
                 "metrics: registered name must match "
                 f"^fwdecay_[a-z0-9_]+$: `{m.group(1)}`"))


def rule_coldmap(rel: str, raw: str, code: str, findings: list) -> None:
    if rel not in COLDMAP_FILES:
        return
    raw_lines = raw.splitlines()
    for m in COLDMAP_RE.finditer(code):
        line = line_of(code, m.start())
        if not escaped(raw_lines, line, "coldmap-ok"):
            findings.append(
                (rel, line,
                 "coldmap: node-based map in the engine's group-table "
                 "code (the flat open-addressing tables are the hot-path "
                 "structure, DESIGN.md §13.1; cold-path uses take "
                 "`// fwdecay: coldmap-ok(<reason>)`): "
                 f"`{m.group(0).strip()}`"))


def rule_escape(rel: str, raw: str, code: str, findings: list) -> None:
    code_lines = code.split("\n")
    for idx, raw_line in enumerate(raw.split("\n")):
        for m in ESCAPE_RE.finditer(raw_line):
            kind, reason = m.groups()
            if kind not in ESCAPE_ANCHORS:
                findings.append(
                    (rel, idx + 1,
                     f"escape: unknown escape kind `{kind}` (a typo "
                     "here silently suppresses nothing; known: "
                     f"{', '.join(sorted(ESCAPE_ANCHORS))})"))
                continue
            if ESCAPE_PLACEHOLDER.match(reason):
                findings.append(
                    (rel, idx + 1,
                     f"escape: `fwdecay: {kind}` without a reason — every "
                     "suppression must say why it is sound: "
                     f"`// fwdecay: {kind}(<reason>)`"))
                continue
            reach = "\n".join(code_lines[idx:idx + 1 + ESCAPE_REACH])
            anchor = ESCAPE_ANCHORS[kind]
            if not (anchor.search(reach) if anchor else reach.strip()):
                findings.append(
                    (rel, idx + 1,
                     f"escape: stale `fwdecay: {kind}` — nothing it "
                     "suppresses on this line or the next (the annotated "
                     "code moved or was deleted)"))


BACKWARD_AGE_RE = re.compile(
    r"\b(" + "|".join(sorted(NOW_IDENTIFIERS)) +
    r")\s*-\s*([A-Za-z_][\w]*(?:(?:\.|->)[A-Za-z_]\w*)*)")


def rule_backward_age(rel: str, raw: str, code: str, findings: list) -> None:
    if rel in BACKWARD_AGE_ALLOWED:
        return
    for m in BACKWARD_AGE_RE.finditer(code):
        subtrahend = m.group(2)
        if ITEM_TS_RE.match(subtrahend):
            findings.append(
                (rel, line_of(code, m.start()),
                 f"backward-age: `{m.group(0)}` computes a per-item age "
                 "from the current time; forward decay weighs items as "
                 "g(t_i - L) (core/decay.h)"))


def rule_exp_pow(rel: str, raw: str, code: str, findings: list) -> None:
    if rel in EXP_POW_ALLOWED:
        return
    for m in EXP_POW_CALL_RE.finditer(code):
        findings.append(
            (rel, line_of(code, m.start()),
             f"exp-pow: `{m.group(0).strip()}` outside the overflow-"
             "reviewed allowlist; route decay weights through "
             "core/decay.h (ExponentialG / ShiftFactor) or add this "
             "file to EXP_POW_ALLOWED with a rationale"))


def function_extent(code: str, open_brace: int) -> int:
    """Returns the index one past the matching close brace."""
    depth = 0
    for i in range(open_brace, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def rule_deser_bounds(rel: str, raw: str, code: str, findings: list) -> None:
    for line_match in re.finditer(r"^.*$", code, re.M):
        if not DESER_FN_RE.search(line_match.group(0)):
            continue
        brace = code.find("{", line_match.start())
        if brace == -1:
            continue  # declaration only
        end = function_extent(code, brace)
        body = code[brace:end]
        for alloc in ALLOC_RE.finditer(body):
            if not BOUNDS_GUARD_RE.search(body[: alloc.start()]):
                findings.append(
                    (rel, line_of(code, brace + alloc.start()),
                     f"deser-bounds: `{alloc.group(0).strip()}` in a "
                     "deserialization body with no preceding bounds "
                     "check (reader->Remaining() or an explicit cap)"))


def rule_guarded_by(rel: str, raw: str, code: str, findings: list) -> None:
    if rel in LOCKING_EXEMPT:
        return
    for m in STD_MUTEX_MEMBER_RE.finditer(code):
        findings.append(
            (rel, line_of(code, m.start()),
             "guarded-by: bare std::mutex member; use the annotated "
             "fwdecay::Mutex so -Wthread-safety can track it"))
    for m in MUTEX_MEMBER_RE.finditer(code):
        name = m.group(1)
        guarded = re.search(
            r"FWDECAY_(?:PT_)?GUARDED_BY\s*\(\s*" + re.escape(name) +
            r"\s*\)", code)
        if not guarded:
            findings.append(
                (rel, line_of(code, m.start()),
                 f"guarded-by: mutex member `{name}` protects no "
                 "annotated member; add FWDECAY_GUARDED_BY(" + name +
                 ") to the data it guards"))


def rule_atomics_order(rel: str, raw: str, code: str, findings: list) -> None:
    raw_lines = raw.splitlines()
    for m in RELAXED_RE.finditer(code):
        line = line_of(code, m.start())
        if rel not in RELAXED_ALLOWED:
            findings.append(
                (rel, line,
                 "atomics-order: memory_order_relaxed outside the "
                 "audited allowlist; use acq/rel (or seq_cst) or add "
                 "the file to RELAXED_ALLOWED after review"))
        elif not escaped(raw_lines, line, "relaxed-ok"):
            findings.append(
                (rel, line,
                 "atomics-order: relaxed use without a "
                 "`// fwdecay: relaxed-ok(<reason>)` annotation on "
                 "this or the previous line"))


# --- lock-order + hotpath-lock machinery ------------------------------------

# `class X : public Y {` / `struct X {`; the extent maps member mutexes
# to their owning class for stable lock identities.
CLASS_DEF_RE = re.compile(
    r"\b(?:class|struct)\s+([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^{;()]*)?\{")
ANY_MUTEX_MEMBER_RE = re.compile(
    r"(?:^|[;{])\s*(?:mutable\s+)?(?:fwdecay\s*::\s*)?"
    r"(?:Mutex|sched\s*::\s*ModelMutex|std\s*::\s*(?:shared_|recursive_)?"
    r"mutex)\s+(\w+)\s*;",
    re.M)

# A function definition: name(params) [trailers] [: init-list] {
FUNC_DEF_RE = re.compile(
    r"\b(~?[A-Za-z_]\w*)\s*\(((?:[^;{}()]|\([^()]*\))*)\)\s*"
    r"((?:const|noexcept|final|override|mutable"
    r"|FWDECAY_\w+\s*\((?:[^()]|\([^()]*\))*\))\s*)*"
    r"(?:->\s*[\w:<>&*,\s]+?)?(?::[^{;]*)?\{")
CONTROL_KEYWORDS = frozenset((
    "if", "for", "while", "switch", "catch", "return", "sizeof",
    "alignof", "new", "delete", "do", "else", "case", "operator"))

EXPLICIT_UNLOCK_RE = re.compile(
    r"([\w\]](?:[\w.\->\[\]]*?)?)\s*(?:\.|->)\s*Unlock\s*\(\s*\)")
# Bare (unqualified) call names only: `Helper(x)` propagates, but
# `obj.size()` / `ptr->Consume()` / `ns::Get()` do not — a method call
# on another object is exactly where bare-name resolution would
# misattribute the callee (e.g. resolve `reservoir_.size()` to the
# locking facade's own size() and fabricate a self-deadlock).
CALL_SITE_RE = re.compile(r"(?<![\w.:>])([A-Za-z_]\w*)\s*\(")
MEMBER_NAME_RE = re.compile(r"([A-Za-z_]\w*)(?:\s*\(\s*\))?\s*$")


def lock_member_name(expr: str):
    """`shard->mu` -> `mu`, `*guard_` -> `guard_`; None when the
    expression has no trailing identifier to name the lock by."""
    m = MEMBER_NAME_RE.search(expr.strip())
    return m.group(1) if m else None


class _Func:
    __slots__ = ("name", "rel", "direct", "calls", "trans", "pending")

    def __init__(self, name, rel):
        self.name = name
        self.rel = rel
        self.direct = set()   # lock labels acquired anywhere in the body
        self.calls = set()    # bare callee names seen in the body
        self.trans = set()    # transitive closure, filled by fixpoint
        self.pending = []     # (held_labels, callee, line) call-under-lock


class LockOrderAnalysis:
    """Cross-file pass: feed every file with add_file(), then finish().

    Pass 1 (during add_file) records, per function definition, the lock
    acquisitions (with the held-set at each acquisition, yielding direct
    nesting edges) and the calls made while locks are held. Pass 2
    (finish) runs a fixpoint over the call graph so a call chain
    f -held A-> g -> h -acquires B- contributes the edge A -> B, then
    reports every cycle in the resulting acquisition graph.
    """

    def __init__(self):
        self.member_owners = {}   # member name -> set of class names
        self.files = []           # (rel, raw, code), scanned in finish()
        self.funcs = []
        self.by_name = {}         # bare name -> [_Func]
        self.edges = {}           # (a, b) -> (rel, line) first witness

    def add_file(self, rel: str, raw: str, code: str) -> None:
        """Collects mutex-member ownership; function bodies are scanned
        in finish(), once ownership is complete across every file (a
        lock used in a .cc must resolve to the class declared in the
        .h, whatever the scan order)."""
        if rel in LOCKING_EXEMPT:
            return
        self.files.append((rel, raw, code))
        classes = []  # (name, start, end) innermost-wins lookup
        for m in CLASS_DEF_RE.finditer(code):
            brace = code.find("{", m.start())
            classes.append((m.group(1), brace, function_extent(code, brace)))
        for m in ANY_MUTEX_MEMBER_RE.finditer(code):
            owner = None
            best = None
            for name, start, end in classes:
                if start <= m.start() < end and \
                        (best is None or end - start < best):
                    owner, best = name, end - start
            if owner:
                self.member_owners.setdefault(
                    m.group(1), set()).add(owner)

    def _label(self, rel: str, member):
        if member is None:
            return None
        owners = self.member_owners.get(member, set())
        if len(owners) == 1:
            return f"{next(iter(owners))}::{member}"
        # Zero or ambiguous owners: qualify by file so unrelated locks
        # that merely share a member name cannot alias into one node.
        return f"{rel.rsplit('/', 1)[-1]}:{member}"

    def _scan_function(self, rel, fn_name, code, brace, end, raw_lines):
        body = code[brace:end]
        func = _Func(fn_name, rel)
        events = []
        for i, c in enumerate(body):
            if c == "{":
                events.append((i, "open", None))
            elif c == "}":
                events.append((i, "close", None))
        for m in RAII_LOCK_RE.finditer(body):
            events.append((m.start(), "lock", lock_member_name(m.group(1))))
        for m in EXPLICIT_LOCK_RE.finditer(body):
            events.append((m.start(), "lock", lock_member_name(m.group(1))))
        for m in EXPLICIT_UNLOCK_RE.finditer(body):
            events.append(
                (m.start(), "unlock", lock_member_name(m.group(1))))
        for m in CALL_SITE_RE.finditer(body):
            if m.group(1) not in CONTROL_KEYWORDS:
                events.append((m.start(), "call", m.group(1)))
        events.sort(key=lambda e: (e[0], e[1] != "close"))

        depth = 0
        held = []  # (label-or-None, entry depth); None = annotated escape
        for pos, kind, data in events:
            if kind == "open":
                depth += 1
            elif kind == "close":
                depth -= 1
                while held and held[-1][1] > depth:
                    held.pop()
            elif kind == "lock":
                line = line_of(code, brace + pos)
                if escaped(raw_lines, line, "lock-order-ok"):
                    held.append((None, depth))
                    continue
                label = self._label(rel, data)
                for h, _ in held:
                    if h is not None:
                        self.edges.setdefault((h, label), (rel, line))
                if label is not None:
                    func.direct.add(label)
                held.append((label, depth))
            elif kind == "unlock":
                label = self._label(rel, data)
                for i in range(len(held) - 1, -1, -1):
                    if held[i][0] == label:
                        del held[i]
                        break
            elif kind == "call":
                func.calls.add(data)
                held_labels = tuple(h for h, _ in held if h is not None)
                if held_labels:
                    func.pending.append(
                        (held_labels, data, line_of(code, brace + pos)))
        self.funcs.append(func)
        self.by_name.setdefault(fn_name, []).append(func)

    def _resolve(self, callee: str):
        """The transitive acquisitions of a bare callee name — but only
        when exactly one definition of that name acquires locks, so
        overload/shadow ambiguity can silence but never misattribute."""
        acquiring = [f for f in self.by_name.get(callee, ()) if f.trans]
        return acquiring[0].trans if len(acquiring) == 1 else set()

    def finish(self, findings: list) -> None:
        for rel, raw, code in self.files:
            raw_lines = raw.splitlines()
            for m in FUNC_DEF_RE.finditer(code):
                name = m.group(1)
                if name in CONTROL_KEYWORDS:
                    continue
                brace = code.find("{", m.end() - 1)
                end = function_extent(code, brace)
                self._scan_function(rel, name, code, brace, end, raw_lines)
        for f in self.funcs:
            f.trans = set(f.direct)
        changed = True
        while changed:
            changed = False
            for f in self.funcs:
                for callee in f.calls:
                    if callee == f.name:
                        continue
                    extra = self._resolve(callee) - f.trans
                    if extra:
                        f.trans |= extra
                        changed = True
        for f in self.funcs:
            for held_labels, callee, line in f.pending:
                for target in self._resolve(callee):
                    for h in held_labels:
                        self.edges.setdefault((h, target), (f.rel, line))

        adj = {}
        for (a, b) in self.edges:
            adj.setdefault(a, set()).add(b)
        reported = set()
        for (a, b), (rel, line) in sorted(
                self.edges.items(), key=lambda kv: (kv[1], kv[0])):
            cycle = self._path(adj, b, a)
            if cycle is None:
                continue
            nodes = frozenset(cycle) | {a}
            if nodes in reported:
                continue
            reported.add(nodes)
            chain = " -> ".join([a, b] + cycle[1:] + ([a] if a != b else []))
            findings.append(
                (rel, line,
                 f"lock-order: acquisition cycle {chain}; a thread "
                 "holding one side while another holds the other "
                 "deadlocks — impose a single order or annotate with "
                 "`// fwdecay: lock-order-ok(<reason>)`"))

    @staticmethod
    def _path(adj, src, dst):
        """BFS path src..dst (inclusive) or None."""
        if src == dst:
            return [src]
        parent = {src: None}
        queue = [src]
        while queue:
            cur = queue.pop(0)
            for nxt in adj.get(cur, ()):
                if nxt in parent:
                    continue
                parent[nxt] = cur
                if nxt == dst:
                    path = [nxt]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return list(reversed(path))
                queue.append(nxt)
        return None


def rule_hotpath_lock(rel: str, raw: str, code: str, findings: list) -> None:
    raw_lines = raw.splitlines()
    for m in FUNC_DEF_RE.finditer(code):
        if m.group(1) not in HOTPATH_LOCK_FNS:
            continue
        brace = code.find("{", m.end() - 1)
        end = function_extent(code, brace)
        body = code[brace:end]
        for lm in LOCK_ACQUIRE_RE.finditer(body):
            line = line_of(code, brace + lm.start())
            if not escaped(raw_lines, line, "hotpath-lock-ok"):
                findings.append(
                    (rel, line,
                     f"hotpath-lock: mutex acquisition inside "
                     f"{m.group(1)}() — the batched hot path; annotate "
                     "`// fwdecay: hotpath-lock-ok(<reason>)` if the "
                     "lock is amortized per batch, or move it out"))


# Stripping blanks the "avx2" literal, so the attribute is renamed on the
# raw text first.
AVX2_TARGET_RE = re.compile(r'\btarget\s*\(\s*"avx2"\s*\)')
AVX2_MARK = "target_avx2"
ALWAYS_INLINE_RE = re.compile(r"\balways_inline\b")
NAMESPACE_RE = re.compile(r"\bnamespace\s*((?:\w+\s*::\s*)*\w*)\s*\{")
QUALIFIED_CALL_RE = re.compile(
    r"(?<![\w.>])((?:[A-Za-z_]\w*\s*::\s*)*)([A-Za-z_]\w*)\s*\(")
# Calls that compile to instructions, never to a call: intrinsics and
# GCC's fixed-size memcpy.
INTRINSIC_RE = re.compile(r"_mm\d*_\w+|__builtin_\w+|memcpy")
# Helpers from other files that an AVX2 arm's bodies may call. On its own
# file, each is checked like a body: always_inline, calling only what an
# arm may call.
AVX2_HEADER_INLINES = {"src/util/hash.h": frozenset(("HashU64",
                                                     "HashCombine"))}
AVX2_HELPERS = frozenset().union(*AVX2_HEADER_INLINES.values())


def rule_avx2_call(rel: str, raw: str, code: str, findings: list) -> None:
    helpers = AVX2_HEADER_INLINES.get(rel, frozenset())
    if not helpers and not AVX2_TARGET_RE.search(raw):
        return
    code = strip_comments_and_strings(AVX2_TARGET_RE.sub(AVX2_MARK, raw))
    spans = [(m.end() - 1, function_extent(code, m.end() - 1),
              re.sub(r"\s+", "", m.group(1)).split("::"))
             for m in NAMESPACE_RE.finditer(code)]

    def ns_at(pos):
        return tuple(part for start, end, parts in spans
                     if start < pos < end for part in parts if part)

    # name -> [(namespace, kind, brace, end)]; kind is "avx2" for a
    # target("avx2") function, "inline" for an always_inline body.
    defs = {}
    for m in FUNC_DEF_RE.finditer(code):
        if m.group(1) in CONTROL_KEYWORDS:
            continue
        head = code[max(code.rfind(c, 0, m.start()) for c in ";{}") + 1:
                    m.start()]
        kind = ("avx2" if AVX2_MARK in head else
                "inline" if ALWAYS_INLINE_RE.search(head) else None)
        brace = code.find("{", m.end() - 1)
        defs.setdefault(m.group(1), []).append(
            (ns_at(m.start()), kind, brace, function_extent(code, brace)))

    def out_calls(ns, brace, end, via, seen):
        """(pos, callee) of each call that leaves the arm, following
        always_inline bodies, which compile into the arm."""
        for c in QUALIFIED_CALL_RE.finditer(code, brace, end):
            callee = c.group(2)
            if callee in CONTROL_KEYWORDS or INTRINSIC_RE.fullmatch(callee):
                continue
            qual = tuple(p for p in re.sub(r"\s+", "", c.group(1))
                         .split("::") if p)
            # C++ lookup: a qualified name matches by namespace suffix, an
            # unqualified one resolves to the innermost enclosing
            # namespace that defines it.
            found = [d for d in defs.get(callee, ())
                     if (d[0][len(d[0]) - len(qual):] == qual if qual
                         else d[0] == ns[:len(d[0])])]
            target = max(found, key=lambda d: len(d[0]), default=None)
            if target is None:
                if not qual and callee in AVX2_HELPERS:
                    continue
            elif target[1] == "avx2":
                continue
            elif target[1] == "inline":
                if (callee, target[2]) not in seen:
                    seen.add((callee, target[2]))
                    yield from out_calls(target[0], target[2], target[3],
                                         via + (callee,), seen)
                continue
            yield c.start(), "::".join(qual + (callee,)), via

    for name, entries in defs.items():
        for ns, kind, brace, end in entries:
            if kind == "avx2":
                what = f'target("avx2") function {name}()'
            elif name in helpers:
                what = f"AVX2 helper {name}()"
                if kind != "inline":
                    findings.append(
                        (rel, line_of(code, brace),
                         f"avx2-call: {what} is not always_inline; an AVX2 "
                         "arm's bodies call it, so it must compile into "
                         "the arm (DESIGN.md §13.4)"))
                    continue
            else:
                continue
            for pos, callee, via in out_calls(ns, brace, end, (), set()):
                findings.append(
                    (rel, line_of(code, pos),
                     f"avx2-call: {what} calls `{callee}()`"
                     + (f" via {'() -> '.join(via)}()" if via else "")
                     + "; an AVX2 arm may call only intrinsics, "
                     "always_inline bodies and target(\"avx2\") functions "
                     "(a call into baseline code leaves the upper YMM "
                     "state dirty, DESIGN.md §13.4)"))


# --- taint + hotpath-purity: interprocedural dataflow ------------------------
#
# Both passes run on the comment/string-stripped text: the flows they
# track (byte reads into locals, guard extents, sink extents, bare call
# sites) are positional-lexical exactly like the lock-order pass. Calls
# resolve only when the bare name has exactly one definition across the
# tree (silence over misattribution).

# Untrusted-byte sources. ByteReader is the single decode primitive of
# the repo (journal, snapshot, frame, trace and sketch bytes all arrive
# through it), so Read*(…) by NAME is a source wherever it appears —
# including bare calls inside ByteReader itself.
TAINT_READ_RE = re.compile(
    r"\bRead(?:U8|U32|U64|I64|Double)\s*\(\s*(&?\s*[\w.\->\[\]]+)\s*\)")
TAINT_READSTR_RE = re.compile(
    r"\bReadString\s*\(\s*(&?\s*[\w.\->\[\]]+)\s*\)")
# RecvExactly(sock, buf, n, ...): buf holds raw socket bytes.
TAINT_RECV_RE = re.compile(r"\bRecvExactly\s*\(")
# FaultFs::ReadFile(path, &bytes, error): bytes holds raw on-disk
# journal/snapshot/manifest content, as hostile as the socket's.
TAINT_FILEREAD_RE = re.compile(r"\bReadFile\s*\(")
# Numeric parses of untrusted text: the per-digit overflow guard inside
# bounds the *arithmetic*, not the magnitude — the result is as hostile
# as the text it came from.
PARSE_FNS = frozenset({
    "ParseU64", "ParseU64Flag", "ParseI64", "strtoull", "strtoul",
    "strtoll", "strtol", "atoi", "atol", "atoll", "stoul", "stoull",
    "stoi", "stol",
})
TAINT_PARSE_RE = re.compile(
    r"\b(?:" + "|".join(sorted(PARSE_FNS)) + r")\s*\(")
# memcpy(dst, src, n): decodes scalars out of a raw byte buffer.
TAINT_MEMCPY_RE = re.compile(
    r"\b(?:std\s*::\s*)?(memcpy|memmove|memset|strncpy)\s*\(")

# Sinks: where a hostile magnitude becomes an allocation, a copy length,
# a loop trip count, or an index.
TAINT_ALLOC_SINK_RE = re.compile(
    r"(?:\.|->)\s*(resize|reserve|assign)\s*\(")
TAINT_NEW_SINK_RE = re.compile(r"\bnew\s+[\w:<>\s]+\[")
TAINT_CTOR_SINK_RE = re.compile(
    r"\b(vector|string|deque|PacketBatch|ValueColumn)\s*"
    r"(?:<[^;(){}]*>)?\s+(\w+)\s*\(")
TAINT_LOOP_RE = re.compile(r"\b(for|while)\s*\(")
TAINT_INDEX_RE = re.compile(r"[\w\)\]]\s*\[")

# Sanitizer extents: an `if`/CHECK condition containing a comparison, or
# a min/clamp, clears every variable named inside it from that point on.
TAINT_GUARD_RE = re.compile(
    r"\b(?:if|FWDECAY_D?CHECK(?:_[A-Z]+)?)\s*\(|"
    r"\bstd\s*::\s*(?:min|clamp)\s*(?:<[^<>;(){]*>)?\s*\(")
TAINT_GUARD_ALWAYS_RE = re.compile(r"\bstd\s*::\s*(?:min|clamp)\b")
# Comparison presence, ignoring `->` and template argument lists.
_CMP_RE = re.compile(r"(?<![<>\-])(?:[<>]=?|[!=]=)(?![<>])")

TAINT_ASSIGN_RE = re.compile(
    r"([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*|\[[^\[\]]*\])*)\s*"
    r"(?:(\+|-|\*|/|%|\||&|\^|<<|>>)\s*)?=(?![=])")
TAINT_RETURN_RE = re.compile(r"\breturn\b([^;]*);")
# Accessors of a byte/char buffer that yield bounded values, not the
# buffer's hostile length/content: size() is clamped by what was
# actually received, a single byte is 0..255.
_CONTENT_SAFE_SUFFIX_RE = re.compile(
    r"\s*\.\s*(?:size|length|empty|data|c_str|begin|end|front|back)"
    r"\s*\(|\s*\[")
_CONTENT_LOOSE_SUFFIX_RE = re.compile(
    r"\s*\.\s*(?:size|length|empty)\s*\(")

_CONTENT_TYPE_RE = re.compile(
    r"\bstring\b|\bchar\b|u?int8_t\s*(?:\*|\s*>|const)")


def paren_extent(code: str, open_paren: int) -> int:
    """Index of the ')' matching code[open_paren] == '('."""
    depth = 0
    for i in range(open_paren, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    return len(code) - 1


def split_top_args(text: str):
    """Splits an argument list on top-level commas."""
    args, depth, start = [], 0, 0
    for i, c in enumerate(text):
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "," and depth == 0:
            args.append(text[start:i])
            start = i + 1
    args.append(text[start:])
    return args


def expr_root(text: str):
    """`&out->seq` -> `out->seq`, `&hdr.len` -> `hdr.len`; the
    normalized member path a taint key names, or None."""
    m = re.match(r"[\s&*(]*([A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*)*)",
                 text)
    return re.sub(r"\s+", "", m.group(1)) if m else None


@functools.lru_cache(maxsize=None)
def _key_re(key: str) -> re.Pattern:
    return re.compile(r"(?<![\w.>])" + re.escape(key) + r"(?!\w)")


_MEMBER_CHAIN_RE = re.compile(r"(?:\s*(?:\.|->)\s*\w+)+")


def _member_expr(key: str, text: str, end: int) -> str:
    """The full dotted member expression at an occurrence of `key`
    ending at `end`, normalized (whitespace removed, -> folded to .) —
    `m.floor` and `m->floor` compare equal, and a guard on `m.floor`
    does not launder `m.active`."""
    m = _MEMBER_CHAIN_RE.match(text, end)
    if not m:
        return key
    return key + re.sub(r"\s+", "", m.group(0)).replace("->", ".")


_VALUE_OPAQUE_RE = re.compile(
    r"(?:[\w\[\]\.]|->)*\b(?:[Hh]ash\w*|sizeof)\s*\([^()]*\)")


def _strip_value_opaque(text: str) -> str:
    """sizeof(...) and Hash*(...) results carry no attacker-steerable
    magnitude (a hash of hostile bytes is not a hostile length); strip
    them innermost-first so their arguments stop contributing labels
    to the surrounding expression."""
    prev = None
    while prev != text:
        prev = text
        text = _VALUE_OPAQUE_RE.sub("", text)
    return text


# `h & mask`: a bitwise AND is bounded by each operand, so an untainted
# mask bounds a hostile hash (HighTable::Probe's `hash & mask`).
_OPERAND = (r"(?:\([^()]*\)|[A-Za-z_]\w*(?:(?:\.|->)[A-Za-z_]\w*"
            r"|\[[^\[\]]*\]|\([^()]*\))*|\d\w*)")
_MASK_RE = re.compile(rf"({_OPERAND})\s*&(?![&=])\s*({_OPERAND})")
# A bare or member call (`Probe(h)`, `table.Probe(h)`), not a qualified one.
_CALL_NAME_RE = re.compile(r"(?<![\w:])([A-Za-z_]\w*)\s*\(")


class _TaintFunc:
    __slots__ = ("key", "name", "rel", "brace", "end", "params",
                 "body", "raw_lines", "line_base")

    def __init__(self, key, name, rel, brace, end, params, body,
                 raw_lines, line_base):
        self.key = key
        self.name = name
        self.rel = rel
        self.brace = brace
        self.end = end
        self.params = params      # [(type_text, name, is_out)]
        self.body = body
        self.raw_lines = raw_lines
        self.line_base = line_base  # line of the opening brace, 1-based


class _TaintSummary:
    """What a caller needs to know about a function: which parameters
    reach sinks unguarded, which out-params it writes tainted values
    through, and whether its return value is tainted."""

    def __init__(self):
        self.param_sinks = {}   # idx -> frozenset of "desc @ rel:line"
        self.out_writes = {}    # idx -> frozenset of labels
        self.return_labels = frozenset()

    def state(self):
        return (tuple(sorted((k, v) for k, v in self.param_sinks.items())),
                tuple(sorted((k, v) for k, v in self.out_writes.items())),
                self.return_labels)


def parse_params(params_text: str):
    """[(type_text, name, is_out_param)] for a definition's parameter
    list; unnamed and empty parameters are skipped in place (the index
    still advances so summaries line up with call-site arguments)."""
    out = []
    for piece in split_top_args(params_text):
        piece = piece.split("=", 1)[0].strip()
        m = re.search(r"([A-Za-z_]\w*)\s*$", piece)
        if not m or m.group(1) == piece or piece == "void":
            out.append(("", None, False))
            continue
        ptype = piece[: m.start()].strip()
        is_out = "*" in ptype or ("&" in ptype and "const" not in ptype)
        out.append((ptype, m.group(1), is_out))
    return out


class TaintAnalysis:
    """Cross-file pass: add_file() every file, then finish().

    Each function body is scanned as an ordered event stream — sources,
    assignments, guard-extent exits, sinks, calls, returns — over an
    environment mapping member paths to (kind, labels). Kind `val` is a
    number decoded from untrusted bytes (hostile as a length/index);
    kind `content` is a byte/char buffer (hostile bytes, but its size()
    is bounded by what actually arrived, so only values *derived* from
    it — an indexed byte parse, a memcpy'd scalar — become `val`).
    Labels are `wire` (definitely attacker-reachable) and `p<i>`
    (flows from parameter i — a summary fact, not yet a finding). A
    finding fires only when `wire` reaches a sink with no guard extent
    crossing and no `// fwdecay: taint-ok(<reason>)` annotation."""

    MAX_PASSES = 10

    def __init__(self):
        self.files = []
        self.funcs = []
        self.by_name = {}
        self.summaries = {}
        self._sanitized = set()  # per-function, reset in _analyze_func
        self._scans = {}  # func.key -> (guards, events)

    def add_file(self, rel: str, raw: str, code: str) -> None:
        self.files.append((rel, raw, code))

    def _collect(self) -> None:
        for rel, raw, code in self.files:
            raw_lines = raw.splitlines()
            for m in FUNC_DEF_RE.finditer(code):
                name = m.group(1)
                if name in CONTROL_KEYWORDS:
                    continue
                brace = code.find("{", m.end() - 1)
                end = function_extent(code, brace)
                func = _TaintFunc(
                    (rel, name, brace), name, rel, brace, end,
                    parse_params(m.group(2)), code[brace:end], raw_lines,
                    line_of(code, brace))
                self.funcs.append(func)
                self.by_name.setdefault(name, []).append(func)

    def _unique_def(self, name: str):
        defs = self.by_name.get(name, ())
        return defs[0] if len(defs) == 1 else None

    # -- per-function event scan ------------------------------------

    def _guards(self, body: str):
        """[(start, end, always)] extents that sanitize; `always` skips
        the comparison-operator requirement (min/clamp bound by
        construction)."""
        out = []
        for m in TAINT_GUARD_RE.finditer(body):
            op = body.find("(", m.start())
            if op == -1:
                continue
            close = paren_extent(body, op)
            always = bool(TAINT_GUARD_ALWAYS_RE.match(body, m.start())) \
                or bool(re.match(r"FWDECAY_D?CHECK_[A-Z]",
                                 body[m.start():m.start() + 24]))
            text = body[op:close + 1]
            # Strip template argument lists (`static_cast<std::u32>`)
            # before testing for a comparison; `&` stays out of the
            # class so `a < x && b > y` is not mistaken for one.
            if always or _CMP_RE.search(re.sub(r"<[\w:\s,*]*>", "", text)):
                out.append((op, close, text))
        return out

    def _sinks(self, body: str):
        """[(pos, desc, extent_text)]"""
        out = []
        for m in TAINT_ALLOC_SINK_RE.finditer(body):
            op = body.find("(", m.end() - 1)
            out.append((m.start(), f"{m.group(1)}()",
                        body[op + 1:paren_extent(body, op)]))
        for m in TAINT_NEW_SINK_RE.finditer(body):
            close = body.find("]", m.end())
            if close != -1:
                out.append((m.start(), "new[]", body[m.end():close]))
        for m in TAINT_MEMCPY_RE.finditer(body):
            op = body.find("(", m.end() - 1)
            args = split_top_args(body[op + 1:paren_extent(body, op)])
            if len(args) >= 3:
                out.append((m.start(), f"{m.group(1)}() length", args[2]))
        for m in TAINT_CTOR_SINK_RE.finditer(body):
            op = body.find("(", m.end() - 1)
            argtext = body[op + 1:paren_extent(body, op)]
            # Iterator-range construction copies an existing extent —
            # the size is bounded by the source, not a hostile count.
            if re.search(r"[.>]\s*c?(?:begin|end)\s*\(", argtext):
                continue
            out.append((m.start(), f"{m.group(1)} capacity", argtext))
        for m in TAINT_LOOP_RE.finditer(body):
            op = body.find("(", m.end() - 1)
            if op == -1:
                continue
            text = body[op + 1:paren_extent(body, op)]
            if m.group(1) == "for":
                parts = text.split(";")
                if len(parts) < 3:
                    continue  # range-for: bounded by the container
                text = parts[1]
            out.append((m.start(), "loop bound", text))
        for m in TAINT_INDEX_RE.finditer(body):
            op = m.end() - 1
            close = body.find("]", op)
            if close != -1:
                inner = body[op + 1:close]
                if re.search(r"[A-Za-z_]", inner):
                    out.append((m.start(), "index", inner))
        return out

    def _strip_clean_calls(self, text: str, env: dict) -> str:
        """`text` with each call whose callee's return summary, read
        through these arguments, carries no label replaced by 0: the
        result is what the callee returns, not what its arguments carry
        (`Probe(h)` returns `hash & mask`, in range whatever `h` is)."""
        out, last = [], 0
        for m in _CALL_NAME_RE.finditer(text):
            if m.start() < last:
                continue
            callee = self._unique_def(m.group(1))
            summ = callee and self.summaries.get(callee.key)
            if not summ:
                continue
            op = text.find("(", m.end() - 1)
            close = paren_extent(text, op)
            if self._translate(summ.return_labels,
                               split_top_args(text[op + 1:close]), env):
                continue
            out.append(text[last:m.start()] + "0")
            last = close + 1
        return "".join(out) + text[last:]

    def _strip_bounded(self, text: str, env: dict) -> str:
        """`text` without the subexpressions that carry no hostile
        magnitude: value-opaque calls, calls whose summary returns a
        clean value, and `a & b` masks where one side is untainted."""
        text = self._strip_clean_calls(_strip_value_opaque(text), env)
        if "&" not in text:
            return text
        return _MASK_RE.sub(
            lambda m: "0" if any(not self._labels_in(op, env)[0]
                                 for op in m.groups()) else m.group(0),
            text)

    def _labels_in(self, text: str, env: dict):
        """(labels, kind) of an expression under env."""
        text = self._strip_bounded(text, env)
        labels, saw_val, saw_content = set(), False, False
        for key, (kind, ls) in env.items():
            for m in _key_re(key).finditer(text):
                if kind == "content":
                    if _CONTENT_SAFE_SUFFIX_RE.match(text, m.end()):
                        continue
                    labels |= ls
                    saw_content = True
                else:
                    if _member_expr(key, text, m.end()) in \
                            self._sanitized:
                        continue
                    labels |= ls
                    saw_val = True
        return labels, ("content" if saw_content and not saw_val
                        else "val")

    def _content_labels_in(self, text: str, env: dict):
        text = _strip_value_opaque(text)
        labels = set()
        for key, (kind, ls) in env.items():
            if kind != "content":
                continue
            for m in _key_re(key).finditer(text):
                if _CONTENT_LOOSE_SUFFIX_RE.match(text, m.end()):
                    continue
                labels |= ls
        return labels

    def _scan(self, func):
        """(guards, ordered events) of a body. Bodies do not change
        between fixpoint passes, so each is scanned once."""
        cached = self._scans.get(func.key)
        if cached is None:
            body = func.body
            guards = self._guards(body)

            events = []
            for m in TAINT_READ_RE.finditer(body):
                events.append((m.start(), 0, "source",
                               ("val", expr_root(m.group(1)))))
            for m in TAINT_READSTR_RE.finditer(body):
                events.append((m.start(), 0, "source",
                               ("content", expr_root(m.group(1)))))
            for regexp in (TAINT_RECV_RE, TAINT_FILEREAD_RE):
                for m in regexp.finditer(body):
                    op = body.find("(", m.end() - 1)
                    args = split_top_args(
                        body[op + 1:paren_extent(body, op)])
                    if len(args) >= 2:
                        events.append((m.start(), 0, "source",
                                       ("content", expr_root(args[1]))))
            # Paren construction from an untrusted buffer propagates:
            # `std::string text(bytes.begin(), bytes.end())`.
            for m in TAINT_CTOR_SINK_RE.finditer(body):
                op = body.find("(", m.end() - 1)
                events.append((m.start(), 1, "ctor",
                               (m.group(2),
                                body[op + 1:paren_extent(body, op)])))
            for m in TAINT_ASSIGN_RE.finditer(body):
                stop = len(body)
                for ch in ";{}":
                    p = body.find(ch, m.end())
                    if p != -1:
                        stop = min(stop, p)
                events.append((m.start(), 1, "assign",
                               (re.sub(r"\s+", "", m.group(1)),
                                m.group(2), body[m.end():stop])))
            for start, close, text in guards:
                events.append((close, 2, "guard", text))
            for pos, desc, text in self._sinks(body):
                events.append((pos, 3, "sink", (desc, text)))
            # Bare and member call sites both apply summaries; both resolve
            # only on a globally unique definition name, so a method call
            # on another object silences rather than misattributes.
            for regexp in (CALL_SITE_RE, MEMBER_CALL_RE):
                for m in regexp.finditer(body):
                    if m.group(1) in CONTROL_KEYWORDS:
                        continue
                    op = body.find("(", m.end() - 1)
                    events.append((m.start(), 4, "call",
                                   (m.group(1),
                                    body[op + 1:paren_extent(body, op)])))
            for m in TAINT_RETURN_RE.finditer(body):
                events.append((m.start(), 5, "return", m.group(1)))
            events.sort(key=lambda e: (e[0], e[1]))
            cached = self._scans[func.key] = (guards, events)
        return cached

    def _analyze_func(self, func, emit):
        """One pass over a body; emit is None (summary-only passes) or
        the findings list (final pass). Returns the new summary."""
        body = func.body
        self._sanitized = set()
        env = {}
        for i, (ptype, pname, _) in enumerate(func.params):
            if pname is None:
                continue
            kind = ("content" if _CONTENT_TYPE_RE.search(ptype)
                    else "val")
            env[pname] = (kind, frozenset({f"p{i}"}))
        summary = _TaintSummary()
        guards, events = self._scan(func)

        def guarded_here(pos, key_or_text):
            """True when pos sits inside a guard extent that itself
            names the value — `if (n < cap && v[n])` both bounds and
            uses n; the use is governed by the bound."""
            for start, close, text in guards:
                if start <= pos <= close and \
                        _key_re(key_or_text).search(text):
                    return True
            return False

        def record_out_write(path, labels):
            root = path.split(".")[0].split("->")[0]
            for i, (_, pname, is_out) in enumerate(func.params):
                if pname == root and is_out:
                    summary.out_writes[i] = frozenset(
                        summary.out_writes.get(i, frozenset()) | labels)

        def taint(path, kind, labels):
            if not path or not labels:
                return
            prev = env.get(path)
            if prev:
                labels = labels | prev[1]
                kind = prev[0] if prev[0] == "content" else kind
            env[path] = (kind, frozenset(labels))

        for pos, _, etype, data in events:
            if etype == "source":
                kind, path = data
                if path:
                    env[path] = (kind, frozenset({"wire"}))
                    record_out_write(path, {"wire"})
            elif etype == "assign":
                lhs, op, rhs = data
                labels, kind = self._labels_in(rhs, env)
                for m in CALL_SITE_RE.finditer(rhs):
                    callee = self._unique_def(m.group(1))
                    summ = callee and self.summaries.get(callee.key)
                    if summ and summ.return_labels:
                        cp = rhs.find("(", m.end() - 1)
                        cargs = split_top_args(
                            rhs[cp + 1:paren_extent(rhs, cp)])
                        labels |= self._translate(
                            summ.return_labels, cargs, env)
                if TAINT_PARSE_RE.search(rhs):
                    cl = self._content_labels_in(rhs, env)
                    if cl:
                        labels |= cl
                        kind = "val"
                if labels:
                    taint(lhs, kind, labels)
                    record_out_write(lhs, labels)
                elif op is None and "." not in lhs and "->" not in lhs:
                    env.pop(lhs, None)  # strong update: `len = 0;`
            elif etype == "ctor":
                name, argtext = data
                cl = self._content_labels_in(argtext, env)
                if cl:
                    taint(name, "content", cl)
            elif etype == "guard":
                # Only `val` keys are sanitized: a comparison bounds a
                # hostile *number*. A content buffer compared against a
                # magic constant is still hostile bytes afterwards.
                # Member granularity: a guard naming only `m.floor`
                # clears that exact path, not the whole struct.
                for key in [k for k, (kind, _) in env.items()
                            if kind == "val"]:
                    occ = [_member_expr(key, data, m.end())
                           for m in _key_re(key).finditer(data)]
                    if not occ:
                        continue
                    if key in occ:
                        env.pop(key, None)
                    else:
                        self._sanitized.update(occ)
            elif etype == "sink":
                desc, text = data
                self._check_sink(func, pos, desc, text, env, summary,
                                 guarded_here, emit)
            elif etype == "call":
                self._apply_call(func, pos, data, env, summary, taint,
                                 record_out_write, guarded_here, emit)
            elif etype == "return":
                labels, _ = self._labels_in(data, env)
                if labels:
                    summary.return_labels = \
                        summary.return_labels | frozenset(labels)
        return summary

    def _check_sink(self, func, pos, desc, text, env, summary,
                    guarded_here, emit):
        text = self._strip_bounded(text, env)
        for key, (kind, labels) in env.items():
            if kind == "content":
                continue
            if not any(_member_expr(key, text, m.end())
                       not in self._sanitized
                       for m in _key_re(key).finditer(text)):
                continue
            if guarded_here(pos, key):
                continue
            where = f"{desc} @ {func.rel}:{self._line(func, pos)}"
            for lbl in labels:
                if lbl.startswith("p"):
                    i = int(lbl[1:])
                    summary.param_sinks[i] = frozenset(
                        summary.param_sinks.get(i, frozenset())
                        | {where})
            if "wire" in labels and emit is not None:
                ln = self._line(func, pos)
                if not escaped(func.raw_lines, ln, "taint-ok"):
                    emit.append(
                        (func.rel, ln,
                         f"taint: `{key}` decoded from untrusted bytes "
                         f"reaches {desc} with no bounds guard on the "
                         "path; check it against Remaining()/an "
                         "explicit cap first, or annotate "
                         "`// fwdecay: taint-ok(<reason>)`"))

    def _translate(self, labels, args, env):
        out = set()
        for lbl in labels:
            if lbl == "wire":
                out.add("wire")
            elif lbl.startswith("p"):
                i = int(lbl[1:])
                if i < len(args):
                    got, _ = self._labels_in(args[i], env)
                    out |= got
        return out

    def _apply_call(self, func, pos, data, env, summary, taint,
                    record_out_write, guarded_here, emit):
        name, argtext = data
        args = split_top_args(argtext)
        if name in ("memcpy", "memmove"):
            if len(args) >= 3:
                cl = self._content_labels_in(args[1], env)
                if cl:
                    path = expr_root(args[0])
                    taint(path, "val", cl)
                    if path:
                        record_out_write(path, cl)
            return
        if name in PARSE_FNS:
            cl = set()
            for arg in args:
                cl |= self._content_labels_in(arg, env)
            if cl:
                for arg in args:
                    if arg.strip().startswith("&"):
                        path = expr_root(arg)
                        taint(path, "val", cl)
                        if path:
                            record_out_write(path, cl)
            return
        callee = self._unique_def(name)
        summ = callee and self.summaries.get(callee.key)
        if not summ:
            return
        for i, arg in enumerate(args):
            sinks = summ.param_sinks.get(i)
            if not sinks:
                continue
            labels, _ = self._labels_in(arg, env)
            if not labels or guarded_here(pos, expr_root(arg) or arg):
                continue
            where = next(iter(sorted(sinks)))
            for lbl in labels:
                if lbl.startswith("p"):
                    j = int(lbl[1:])
                    summary.param_sinks[j] = frozenset(
                        summary.param_sinks.get(j, frozenset())
                        | {where})
            if "wire" in labels and emit is not None:
                ln = self._line(func, pos)
                if not escaped(func.raw_lines, ln, "taint-ok"):
                    emit.append(
                        (func.rel, ln,
                         f"taint: `{expr_root(arg)}` decoded from "
                         f"untrusted bytes flows into argument {i} of "
                         f"{name}(), which reaches {where} with no "
                         "bounds guard; guard before the call or "
                         "annotate `// fwdecay: taint-ok(<reason>)`"))
        for i, wlabels in summ.out_writes.items():
            if i >= len(args):
                continue
            got = self._translate(wlabels, args, env)
            if got:
                path = expr_root(args[i])
                taint(path, "val", got)
                if path:
                    record_out_write(path, got)

    @staticmethod
    def _line(func, body_pos: int) -> int:
        return func.line_base + func.body[:body_pos].count("\n")

    def finish(self, findings: list) -> None:
        self._collect()
        for _ in range(self.MAX_PASSES):
            changed = False
            for func in self.funcs:
                new = self._analyze_func(func, None)
                old = self.summaries.get(func.key)
                if old is None or old.state() != new.state():
                    self.summaries[func.key] = new
                    changed = True
            if not changed:
                break
        for func in self.funcs:
            self._analyze_func(func, findings)


# --- hotpath-purity ---------------------------------------------------------

# Entry points of the batched ingest path (DESIGN.md §8): everything
# reachable from these must stay allocation-, throw- and syscall-free.
HOTPATH_ROOTS = frozenset({
    "Consume", "ConsumeFiltered", "FlushSegment", "UpdateBatch",
    "UpdateStates",
    "EvalPredicateBatch", "EvalExprBatch", "AddBatch",
})
# The one audited virtual hierarchy on the hot path: AggState dispatch
# for per-slot updates (per run, and per segment of many states).
# Everything else virtual is flagged.
HOTPATH_VTABLE_ALLOWED = frozenset({"UpdateBatch", "UpdateStates"})

PURITY_NEW_RE = re.compile(r"\bnew\b")
PURITY_THROW_RE = re.compile(r"\bthrow\b")
PURITY_ALLOCFN_RE = re.compile(
    r"\b(make_unique|make_shared|to_string|malloc|calloc|realloc"
    r"|strdup)\s*(?:<[^<>;(){}]*>)?\s*\(")
# Owning-container construction in a hot body: a declaration at
# statement start, or a temporary anywhere (`auto c = ValueColumn(n)`,
# `Sink(std::vector<Value>{})`). `&`/`*` declarators are views, not
# allocations, and are skipped; so are `T::member` and `sizeof(T)`.
PURITY_CONTAINER_RE = re.compile(
    r"(?:(?:^|[;{}])\s*(?:const\s+)?|(?<![\w:.>]))(?:std\s*::\s*)?"
    r"(vector|string|unordered_map|unordered_set|map|set|deque|list"
    r"|ByteWriter|ostringstream|stringstream|PacketBatch|ValueColumn)"
    r"((?:\s*<(?:[^<>]|<[^<>]*>)*>)?)\s*"
    r"(?:([&*]?)\s*([A-Za-z_]\w*)\s*(?=[;({=])|(?=[({]))", re.M)
# Growth of a container reached through a plain `.` on a local: member
# scratch (trailing `_`) retains capacity across batches (DESIGN.md §8)
# and `->` receivers are caller-owned storage — both sanctioned.
PURITY_GROWTH_RE = re.compile(
    r"(?<![\w.>:\]])([A-Za-z_]\w*)\s*\.\s*"
    r"(push_back|emplace_back|emplace|resize|reserve|insert|append"
    r"|assign|push_front|emplace_front)\s*\(")
PURITY_SYSCALL_RE = re.compile(
    r"\b(open|close|read|write|pread|pwrite|fsync|fdatasync|unlink"
    r"|rename|recv|send|accept|connect|poll|select|socket|sleep"
    r"|usleep|nanosleep|clock_gettime|gettimeofday|mmap|munmap|fork"
    r"|system|getenv|printf|fprintf|fputs|puts|fwrite|fread|fflush"
    r"|NowSeconds|NowNanos|NowMicros)\s*\(")
VIRTUAL_DECL_RE = re.compile(
    r"\bvirtual\b[^;{}()]*?\b([A-Za-z_]\w*)\s*\(")
MEMBER_CALL_RE = re.compile(r"(?:\.|->)\s*([A-Za-z_]\w*)\s*\(")


class _PurityFunc:
    __slots__ = ("key", "name", "rel", "body", "raw_lines", "line_base",
                 "params")

    def __init__(self, key, name, rel, body, raw_lines, line_base,
                 params=""):
        self.key = key
        self.name = name
        self.rel = rel
        self.body = body
        self.raw_lines = raw_lines
        self.line_base = line_base
        self.params = params


class HotpathPurityAnalysis:
    """Cross-file pass: BFS over the call graph from the hot-path roots,
    flagging every reachable impurity. Call edges resolve when the bare
    or member callee name has exactly one definition (silence over
    misattribution); names in the audited vtable set traverse every
    override, since dispatch can land on any of them. A
    `// fwdecay: hotpath-cold(<reason>)` annotation on a call line
    prunes the walk through that edge; on an impurity line it
    suppresses the site."""

    def __init__(self):
        self.files = []
        self.by_name = {}
        self.funcs = []
        self.virtual_names = set()

    def add_file(self, rel: str, raw: str, code: str) -> None:
        if not rel.startswith("src/"):
            return
        self.files.append((rel, raw, code))
        for m in VIRTUAL_DECL_RE.finditer(code):
            self.virtual_names.add(m.group(1))

    def _collect(self) -> None:
        for rel, raw, code in self.files:
            raw_lines = raw.splitlines()
            for m in FUNC_DEF_RE.finditer(code):
                name = m.group(1)
                if name in CONTROL_KEYWORDS:
                    continue
                brace = code.find("{", m.end() - 1)
                end = function_extent(code, brace)
                if m.group(0) and "override" in (m.group(3) or ""):
                    self.virtual_names.add(name)
                func = _PurityFunc((rel, name, brace), name, rel,
                                   code[brace:end], raw_lines,
                                   line_of(code, brace), m.group(2))
                self.funcs.append(func)
                self.by_name.setdefault(name, []).append(func)

    def _chain(self, parent, func):
        names = [func.name]
        cur = func.key
        while cur in parent:
            cur = parent[cur]
            names.append(cur[1])
        return " -> ".join(reversed(names))

    def finish(self, findings: list) -> None:
        self._collect()
        # `Consume` is a root only in its batched form: the per-tuple
        # Consume(Packet) overloads (QueryExecution's one-row wrapper,
        # and TumblingRunner's, which only collects rows for the batched
        # form) are convenience surfaces, not the measured ingest path.
        roots = [f for f in self.funcs
                 if f.name in HOTPATH_ROOTS
                 and (f.name != "Consume" or "PacketBatch" in f.params)]
        parent = {}
        queue = list(roots)
        visited = {f.key for f in roots}
        seen_sites = set()
        while queue:
            func = queue.pop(0)
            chain = self._chain(parent, func)
            self._scan_body(func, chain, findings, seen_sites)
            for callee in self._callees(func):
                if callee.key in visited:
                    continue
                visited.add(callee.key)
                parent[callee.key] = func.key
                queue.append(callee)

    def _cold(self, func, pos) -> bool:
        return escaped(func.raw_lines, func.line_base +
                       func.body[:pos].count("\n"), "hotpath-cold")

    def _callees(self, func):
        out = []
        for regexp in (CALL_SITE_RE, MEMBER_CALL_RE):
            for m in regexp.finditer(func.body):
                name = m.group(1)
                if name in CONTROL_KEYWORDS or self._cold(func, m.start()):
                    continue
                if name in self.virtual_names:
                    if name in HOTPATH_VTABLE_ALLOWED:
                        out.extend(self.by_name.get(name, ()))
                    continue  # disallowed virtuals are flagged, not walked
                defs = self.by_name.get(name, ())
                if len(defs) == 1:
                    out.append(defs[0])
        return out

    def _scan_body(self, func, chain, findings, seen_sites) -> None:
        body = func.body

        def emit(pos, what):
            line = func.line_base + body[:pos].count("\n")
            site = (func.rel, line, what)
            if site in seen_sites or self._cold(func, pos):
                return
            seen_sites.add(site)
            findings.append(
                (func.rel, line,
                 f"hotpath-purity: {what} on the batched ingest path "
                 f"({chain}); keep the hot path allocation/throw/"
                 "syscall-free (DESIGN.md §12) or mark the cold branch "
                 "`// fwdecay: hotpath-cold(<reason>)`"))

        for m in PURITY_NEW_RE.finditer(body):
            emit(m.start(), "heap allocation (`new`)")
        for m in PURITY_THROW_RE.finditer(body):
            emit(m.start(), "`throw`")
        for m in PURITY_ALLOCFN_RE.finditer(body):
            emit(m.start(), f"heap allocation (`{m.group(1)}`)")
        for m in PURITY_CONTAINER_RE.finditer(body):
            if m.group(3):
                continue  # reference/pointer declarator: a view
            emit(m.start(1),
                 f"owning `{m.group(1)}` constructed per batch "
                 f"(`{m.group(4)}`)" if m.group(4) else
                 f"owning `{m.group(1)}` temporary constructed per batch")
        for m in PURITY_GROWTH_RE.finditer(body):
            recv = m.group(1)
            if recv.endswith("_"):
                continue  # capacity-retained member scratch
            emit(m.start(),
                 f"`{recv}.{m.group(2)}()` grows a non-scratch local")
        for m in PURITY_SYSCALL_RE.finditer(body):
            emit(m.start(), f"syscall/clock `{m.group(1)}()`")
        for regexp in (CALL_SITE_RE, MEMBER_CALL_RE):
            for m in regexp.finditer(body):
                name = m.group(1)
                if name in self.virtual_names and \
                        name not in HOTPATH_VTABLE_ALLOWED:
                    emit(m.start(),
                         f"virtual dispatch to {name}() outside the "
                         "audited AggState vtable set")

# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

# (rule, directories it checks, check); file exemptions live in the
# checks themselves.
FILE_RULES = (
    ("guard", EVERYWHERE, rule_guard),
    ("random", EVERYWHERE, rule_random),
    ("throw", ("src/",), rule_throw),
    ("assert", PRODUCT, rule_assert),
    ("io", ("src/",), rule_io),
    ("locking", PRODUCT, rule_locking),
    ("metrics", PRODUCT, rule_metrics),
    ("coldmap", PRODUCT, rule_coldmap),
    ("escape", EVERYWHERE, rule_escape),
    ("backward-age", PRODUCT, rule_backward_age),
    ("exp-pow", PRODUCT, rule_exp_pow),
    ("deser-bounds", PRODUCT, rule_deser_bounds),
    ("guarded-by", PRODUCT, rule_guarded_by),
    ("atomics-order", PRODUCT, rule_atomics_order),
    ("hotpath-lock", PRODUCT, rule_hotpath_lock),
    ("avx2-call", PRODUCT, rule_avx2_call),
)


def analyze(files):
    """Runs every rule over `files`, [(rel, raw text)], and returns the
    sorted findings and each rule's wall time in seconds. The cross-file
    passes see src/, bench/ and examples/ (hotpath-purity narrows to
    src/ itself)."""
    findings, times = [], {}

    def timed(rule, fn, *args):
        t0 = time.perf_counter()
        fn(*args)
        times[rule] = times.get(rule, 0.0) + (time.perf_counter() - t0)

    passes = {"lock-order": LockOrderAnalysis(), "taint": TaintAnalysis(),
              "hotpath-purity": HotpathPurityAnalysis()}
    for rel, raw in files:
        code = strip_comments_and_strings(raw)
        for rule, dirs, check in FILE_RULES:
            if rel.startswith(dirs):
                timed(rule, check, rel, raw, code, findings)
        if rel.startswith(PRODUCT):
            for analysis in passes.values():
                analysis.add_file(rel, raw, code)
    for rule, analysis in passes.items():
        timed(rule, analysis.finish, findings)
    return sorted(set(findings)), times


# ---------------------------------------------------------------------------
# Selftest: the analyzer's own seeded fixtures. Each known-bad snippet
# MUST produce its finding and each clean snippet must produce none at
# all — so a regression in any rule fails CI even when the tree is clean.
# ---------------------------------------------------------------------------

SELFTEST_CASES = [
    # (name, files {rel: text}, substring expected in findings, or None
    #  when the fixture must be clean)
    ("guard wrong name caught (tests/ is checked too)", {
        "tests/widget_util.h": """
#ifndef WIDGET_UTIL_H
#define WIDGET_UTIL_H
#endif  // WIDGET_UTIL_H
"""}, "guard: include guard WIDGET_UTIL_H"),
    ("guard missing #endif comment caught", {
        "src/util/widget.h": """
#ifndef FWDECAY_UTIL_WIDGET_H_
#define FWDECAY_UTIL_WIDGET_H_
#endif
"""}, "guard: #endif missing"),
    ("guard path-derived name clean", {
        "src/util/widget.h": """
#ifndef FWDECAY_UTIL_WIDGET_H_
#define FWDECAY_UTIL_WIDGET_H_
#endif  // FWDECAY_UTIL_WIDGET_H_
"""}, None),
    ("random rand() caught (tests/ is checked too)", {
        "tests/shuffle_test.cc": """
int Pick(int n) { return rand() % n; }
"""}, "random: banned PRNG"),
    ("random seeded Rng clean", {
        "src/core/pick.cc": """
std::uint64_t Pick(Rng& rng) { return rng.Next(); }
"""}, None),
    ("throw in library code caught", {
        "src/core/parse.cc": """
void Parse(int n) { if (n < 0) throw n; }
"""}, "throw: throw in exception-free library code"),
    ("throw outside src/ clean", {
        "bench/parse_bench.cc": """
void Parse(int n) { if (n < 0) throw n; }
"""}, None),
    ("assert in an example caught", {
        "examples/demo.cc": """
void Demo(int n) { assert(n > 0); }
"""}, "assert: naked assert"),
    ("assert in tests/ clean", {
        "tests/demo_test.cc": """
void Demo(int n) { assert(n > 0); }
"""}, None),
    ("io raw fopen in library code caught", {
        "src/core/save.cc": """
bool Save(const char* path) { return fopen(path, "w") != nullptr; }
"""}, "io: raw file I/O"),
    ("io inside util/fault_fs clean", {
        "src/util/fault_fs.cc": """
bool Save(const char* path) { return fopen(path, "w") != nullptr; }
"""}, None),
    ("locking std primitive without the annotation layer caught", {
        "src/core/count.cc": """
std::atomic<int> hits{0};
"""}, "locking: concurrency primitive without"),
    ("locking detached thread in a bench caught", {
        "bench/spin_bench.cc": """
void Start(std::thread& t) { t.detach(); }
"""}, "locking: raw pthread / detached thread"),
    ("locking annotated layer and joined thread clean", {
        "src/core/count.cc": """
#include "util/thread_annotations.h"
std::atomic<int> hits{0};
void Stop(std::thread& t) { t.join(); }
"""}, None),
    ("metrics ad-hoc clock in dsms/ caught", {
        "src/dsms/timing.cc": """
auto Now() { return std::chrono::steady_clock::now(); }
"""}, "metrics: ad-hoc clock read"),
    ("metrics bad registered name caught", {
        "examples/stats.cc": """
void Register(Registry& r) { r.GetCounter("BadName"); }
"""}, "metrics: registered name must match"),
    ("metrics timer and valid name clean (tests/ may register any name)", {
        "src/dsms/timing.cc": """
double Elapsed(Registry& r, Timer& t) {
  r.GetCounter("fwdecay_passes_total");
  return t.Seconds();
}
""",
        "tests/metrics_names_test.cc": """
void Register(Registry& r) { r.GetCounter("BadName"); }
"""}, None),
    ("coldmap node map in the engine caught", {
        "src/dsms/engine.cc": """
std::unordered_map<int, int> groups;
"""}, "coldmap: node-based map"),
    ("coldmap annotated cold-path map clean", {
        "src/dsms/engine.cc": """
// fwdecay: coldmap-ok(column index built once per plan at compile time)
std::unordered_map<int, int> column_index;
"""}, None),
    ("escape unknown kind caught", {
        "src/core/a.cc": """
// fwdecay: relaxd-ok(typo in the kind)
int x = 0;
"""}, "escape: unknown escape kind `relaxd-ok`"),
    ("escape missing reason caught", {
        "src/core/a.cc": """
// fwdecay: hotpath-cold(<reason>)
int x = 0;
"""}, "escape: `fwdecay: hotpath-cold` without a reason"),
    ("escape stale reach caught (no relaxed atomic below)", {
        "tests/a_test.cc": """
// fwdecay: relaxed-ok(monotone counter)

int x = 0;
"""}, "escape: stale `fwdecay: relaxed-ok`"),
    ("escape stale reach caught (annotates a blank line)", {
        "src/core/a.cc": """
// fwdecay: taint-ok(bounded by the frame cap)

int x = 0;
"""}, "escape: stale `fwdecay: taint-ok`"),
    ("escape covering what its rule flags clean", {
        "src/dsms/thing.cc": """
namespace fwdecay::server {}
struct Thing {
  void Consume(const PacketBatch& batch) {
    // fwdecay: hotpath-lock-ok(one acquisition amortized per batch)
    mu_.Lock();
    Apply(batch);
    mu_.Unlock();
  }
};
"""}, None),
    ("backward-age now - item ts caught", {
        "src/core/weights.cc": """
double Age(const Packet& p, double now) { return now - p.ts; }
"""}, "backward-age: `now - p.ts`"),
    ("backward-age landmark-relative and window cutoff clean", {
        "src/core/weights.cc": """
double Offset(const Packet& p, double landmark) { return p.ts - landmark; }
double Cutoff(double now, double window) { return now - window; }
"""}, None),
    ("exp-pow outside the allowlist caught", {
        "src/core/weights.cc": """
double Weight(double alpha, double n) { return std::exp(alpha * n); }
"""}, "exp-pow: `std::exp(`"),
    ("exp-pow in an allowlisted file clean", {
        "src/dsms/expr.cc": """
double Weight(double alpha, double n) { return std::exp(alpha * n); }
"""}, None),
    ("deser-bounds unchecked resize caught", {
        "src/sketch/counts.cc": """
bool Counts::Deserialize(ByteReader* reader) {
  std::uint64_t n = 0;
  counts_.resize(n);
  return true;
}
"""}, "deser-bounds: `.resize(`"),
    ("deser-bounds capped resize clean", {
        "src/sketch/counts.cc": """
bool Counts::Deserialize(ByteReader* reader) {
  std::uint64_t n = 0;
  if (!reader->ReadU64(&n) || n > reader->Remaining() / 8) return false;
  counts_.resize(n);
  return true;
}
"""}, None),
    ("guarded-by mutex guarding nothing caught", {
        "src/core/box.cc": """
struct Box {
  Mutex mu_;
  int value_;
};
"""}, "guarded-by: mutex member `mu_` protects no"),
    ("guarded-by bare std::mutex member caught", {
        "src/core/box.cc": """
#include "util/thread_annotations.h"
struct Box {
  std::mutex mu_;
};
"""}, "guarded-by: bare std::mutex member"),
    ("guarded-by annotated member clean", {
        "src/core/box.cc": """
struct Box {
  Mutex mu_;
  int value_ FWDECAY_GUARDED_BY(mu_);
};
"""}, None),
    ("lock-order inversion detected", {
        "src/a.cc": """
struct Alpha { Mutex mu_a; int x FWDECAY_GUARDED_BY(mu_a); };
struct Beta { Mutex mu_b; int y FWDECAY_GUARDED_BY(mu_b); };
void First(Alpha& a, Beta& b) {
  MutexLock la(a.mu_a);
  MutexLock lb(b.mu_b);
}
void Second(Alpha& a, Beta& b) {
  MutexLock lb(b.mu_b);
  MutexLock la(a.mu_a);
}
"""}, "lock-order: acquisition cycle"),
    ("lock-order consistent order clean", {
        "src/a.cc": """
struct Alpha { Mutex mu_a; int x FWDECAY_GUARDED_BY(mu_a); };
struct Beta { Mutex mu_b; int y FWDECAY_GUARDED_BY(mu_b); };
void First(Alpha& a, Beta& b) {
  MutexLock la(a.mu_a);
  MutexLock lb(b.mu_b);
}
void Second(Alpha& a, Beta& b) {
  MutexLock la(a.mu_a);
  { MutexLock lb(b.mu_b); }
}
"""}, None),
    ("lock-order interprocedural cycle detected", {
        "src/a.cc": """
struct Alpha { Mutex mu_a; int x FWDECAY_GUARDED_BY(mu_a); };
struct Gamma { Mutex mu_c; int z FWDECAY_GUARDED_BY(mu_c); };
void Inner(Gamma& c) { MutexLock l(c.mu_c); }
void Outer(Alpha& a, Gamma& c) {
  MutexLock l(a.mu_a);
  Inner(c);
}
""",
        "src/b.cc": """
void Reversed(Gamma& c, Alpha& a) {
  MutexLock l(c.mu_c);
  MutexLock l2(a.mu_a);
}
"""}, "lock-order: acquisition cycle"),
    ("lock-order annotation accepted", {
        "src/a.cc": """
struct Alpha { Mutex mu_a; int x FWDECAY_GUARDED_BY(mu_a); };
struct Beta { Mutex mu_b; int y FWDECAY_GUARDED_BY(mu_b); };
void First(Alpha& a, Beta& b) {
  MutexLock la(a.mu_a);
  MutexLock lb(b.mu_b);
}
void Second(Alpha& a, Beta& b) {
  MutexLock lb(b.mu_b);
  // fwdecay: lock-order-ok(selftest: intentional inversion)
  MutexLock la(a.mu_a);
}
"""}, None),
    ("lock-order self-deadlock detected", {
        "src/a.cc": """
struct Alpha { Mutex mu_a; int x FWDECAY_GUARDED_BY(mu_a); };
void Helper(Alpha& a) { MutexLock l(a.mu_a); }
void Entry(Alpha& a) {
  MutexLock l(a.mu_a);
  Helper(a);
}
"""}, "lock-order: acquisition cycle"),
    ("atomics-order unannotated relaxed flagged", {
        "src/util/metrics.cc": """
void Touch() { v_.fetch_add(1, std::memory_order_relaxed); }
"""}, "atomics-order: relaxed use without"),
    ("atomics-order non-allowlisted file flagged", {
        "src/core/rogue.cc": """
// fwdecay: relaxed-ok(annotated but the file is not audited)
void Touch() { v_.fetch_add(1, std::memory_order_relaxed); }
"""}, "atomics-order: memory_order_relaxed outside"),
    ("atomics-order annotated allowlisted clean", {
        "src/util/metrics.cc": """
// fwdecay: relaxed-ok(monotone cell; no dependent data to order)
void Touch() { v_.fetch_add(1, std::memory_order_relaxed); }
"""}, None),
    ("hotpath-lock unannotated flagged", {
        "src/dsms/thing.cc": """
struct Thing {
  void Consume(const PacketBatch& batch) {
    MutexLock lock(mu_);
    Apply(batch);
  }
  Mutex mu_;
  int state_ FWDECAY_GUARDED_BY(mu_);
};
"""}, "hotpath-lock: mutex acquisition inside Consume()"),
    ("hotpath-lock explicit Lock flagged", {
        "src/dsms/thing.cc": """
void UpdateBatch(const Batch& b) {
  mu_.Lock();
  Apply(b);
  mu_.Unlock();
}
"""}, "hotpath-lock: mutex acquisition inside UpdateBatch()"),
    ("hotpath-lock annotation accepted", {
        "src/dsms/thing.cc": """
struct Thing {
  void Consume(const PacketBatch& batch) {
    // fwdecay: hotpath-lock-ok(one acquisition amortized per batch)
    MutexLock lock(mu_);
    Apply(batch);
  }
  Mutex mu_;
  int state_ FWDECAY_GUARDED_BY(mu_);
};
"""}, None),
    ("taint unguarded wire length reaching resize caught", {
        "src/server/load.cc": """
bool LoadVec(ByteReader& r, std::vector<int>* out) {
  std::uint32_t n = 0;
  if (!r.ReadU32(&n)) return false;
  out->resize(n);
  return true;
}
"""}, "taint: `n`"),
    ("taint guarded wire length clean", {
        "src/server/load.cc": """
bool LoadVec(ByteReader& r, std::vector<int>* out) {
  std::uint32_t n = 0;
  if (!r.ReadU32(&n) || n > r.Remaining()) return false;
  out->resize(n);
  return true;
}
"""}, None),
    ("taint interprocedural flow caught", {
        "src/server/fill.cc": """
void FillVec(std::vector<int>* v, std::uint32_t n) { v->resize(n); }
""",
        "src/server/load.cc": """
bool LoadVec(ByteReader& r, std::vector<int>* out) {
  std::uint32_t n = 0;
  if (!r.ReadU32(&n)) return false;
  FillVec(out, n);
  return true;
}
"""}, "flows into argument 1 of FillVec()"),
    ("taint interprocedural guarded clean", {
        "src/server/fill.cc": """
void FillVec(std::vector<int>* v, std::uint32_t n) { v->resize(n); }
""",
        "src/server/load.cc": """
bool LoadVec(ByteReader& r, std::vector<int>* out) {
  std::uint32_t n = 0;
  if (!r.ReadU32(&n) || n > r.Remaining()) return false;
  FillVec(out, n);
  return true;
}
"""}, None),
    ("taint escape annotation accepted", {
        "src/server/load.cc": """
bool LoadVec(ByteReader& r, std::vector<int>* out) {
  std::uint32_t n = 0;
  if (!r.ReadU32(&n)) return false;
  // fwdecay: taint-ok(selftest: n is vetted by the harness cap)
  out->resize(n);
  return true;
}
"""}, None),
    ("taint numeric parse of untrusted text caught", {
        "src/server/manifest.cc": """
bool LoadCount(ByteReader& r, std::vector<int>* out) {
  std::string text;
  if (!r.ReadString(&text)) return false;
  std::uint64_t v = 0;
  ParseU64(text, &v);
  out->reserve(v);
  return true;
}
"""}, "taint: `v`"),
    ("taint wire hash used as an index caught", {
        "src/dsms/table.cc": """
struct Table {
  bool Has(ByteReader& r) const {
    std::uint64_t h = 0;
    if (!r.ReadU64(&h)) return false;
    return slots_[h] != nullptr;
  }
};
"""}, "taint: `h` decoded from untrusted bytes reaches index"),
    ("taint wire hash masked by the table mask clean", {
        "src/dsms/table.cc": """
struct Table {
  bool Has(ByteReader& r) const {
    std::uint64_t h = 0;
    if (!r.ReadU64(&h)) return false;
    return slots_[h & mask_] != nullptr;
  }
};
"""}, None),
    ("taint result of a call whose summary returns a mask clean", {
        "src/dsms/table.cc": """
struct Table {
  std::size_t Probe(std::uint64_t hash) const {
    std::size_t s = hash & mask_;
    while (slots_[s] != nullptr) s = (s + 1) & mask_;
    return s;
  }
  Group* Restore(ByteReader& r) {
    std::uint64_t h = 0;
    if (!r.ReadU64(&h)) return nullptr;
    std::size_t slot = Probe(h);
    Group* g = slots_[slot];
    return slots_[this->Probe(h)] == g ? g : nullptr;
  }
};
"""}, None),
    ("taint result of a pass-through call caught", {
        "src/dsms/table.cc": """
struct Table {
  std::size_t Home(std::uint64_t hash) const { return hash; }
  bool Has(ByteReader& r) const {
    std::uint64_t h = 0;
    if (!r.ReadU64(&h)) return false;
    std::size_t slot = Home(h);
    return slots_[slot] != nullptr;
  }
};
"""}, "taint: `slot` decoded from untrusted bytes reaches index"),
    ("avx2-call scalar tail call from an AVX2 arm caught", {
        "src/util/simd.cc": """
namespace fwdecay::simd {
namespace scalar {
void CmpF64(CmpOp op, const double* a, const double* b, std::size_t n,
            std::int64_t* out01) {
  for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] < b[i] ? 1 : 0;
}
}  // namespace scalar
namespace avx2 {
__attribute__((target("avx2"))) void CmpF64(CmpOp op, const double* a,
                                            const double* b, std::size_t n,
                                            std::int64_t* out01) {
  const __m256i ones = _mm256_set1_epi64x(1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d m = _mm256_cmp_pd(_mm256_loadu_pd(a + i),
                                    _mm256_loadu_pd(b + i), _CMP_LT_OQ);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out01 + i),
                        _mm256_and_si256(_mm256_castpd_si256(m), ones));
  }
  if (i < n) scalar::CmpF64(op, a + i, b + i, n - i, out01 + i);
}
}  // namespace avx2
}  // namespace fwdecay::simd
"""}, "avx2-call: target(\"avx2\") function CmpF64() calls "
          "`scalar::CmpF64()`"),
    ("avx2-call scalar call inside an always_inline body caught", {
        "src/util/simd.cc": """
namespace fwdecay::simd {
namespace scalar {
void CmpF64(CmpOp op, const double* a, const double* b, std::size_t n,
            std::int64_t* out01) {
  for (std::size_t i = 0; i < n; ++i) out01[i] = a[i] < b[i] ? 1 : 0;
}
}  // namespace scalar
namespace {
[[gnu::always_inline]] inline void CmpF64Body(CmpOp op, const double* a,
                                              const double* b, std::size_t n,
                                              std::int64_t* out01) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t j = i; j < i + 4; ++j) out01[j] = a[j] < b[j] ? 1 : 0;
  }
  if (i < n) scalar::CmpF64(op, a + i, b + i, n - i, out01 + i);
}
}  // namespace
namespace avx2 {
__attribute__((target("avx2"))) void CmpF64(CmpOp op, const double* a,
                                            const double* b, std::size_t n,
                                            std::int64_t* out01) {
  CmpF64Body(op, a, b, n, out01);
}
}  // namespace avx2
}  // namespace fwdecay::simd
"""}, "avx2-call: target(\"avx2\") function CmpF64() calls "
          "`scalar::CmpF64()` via CmpF64Body()"),
    ("avx2-call header helper not always_inline caught", {
        "src/util/hash.h": """#ifndef FWDECAY_UTIL_HASH_H_
#define FWDECAY_UTIL_HASH_H_
namespace fwdecay {
[[gnu::always_inline]] inline std::uint64_t Mix64(std::uint64_t x) {
  return x ^ (x >> 31);
}
inline std::uint64_t HashU64(std::uint64_t key, std::uint64_t seed = 0) {
  return Mix64(key ^ seed);
}
}  // namespace fwdecay
#endif  // FWDECAY_UTIL_HASH_H_
"""}, "avx2-call: AVX2 helper HashU64() is not always_inline"),
    ("avx2-call one-body wrapper clean", {
        "src/util/simd.cc": """
namespace fwdecay::simd {
namespace {
[[gnu::always_inline]] inline std::uint64_t WordAt(const void* words,
                                                std::size_t i) {
  std::uint64_t w;
  std::memcpy(&w, static_cast<const unsigned char*>(words) + i * sizeof(w),
              sizeof(w));
  return w;
}
[[gnu::always_inline]] inline void HashBody(const void* words, std::size_t n,
                                            std::uint64_t* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = HashU64(WordAt(words, i), 1);
}
}  // namespace
namespace scalar {
void Hash(const void* words, std::size_t n, std::uint64_t* out) {
  HashBody(words, n, out);
}
}  // namespace scalar
namespace avx2 {
__attribute__((target("avx2"))) void Hash(const void* words, std::size_t n,
                                          std::uint64_t* out) {
  HashBody(words, n, out);
}
}  // namespace avx2
}  // namespace fwdecay::simd
""",
        "src/util/hash.h": """#ifndef FWDECAY_UTIL_HASH_H_
#define FWDECAY_UTIL_HASH_H_
namespace fwdecay {
[[gnu::always_inline]] inline std::uint64_t Mix64(std::uint64_t x) {
  return x ^ (x >> 31);
}
[[gnu::always_inline]] inline std::uint64_t HashU64(std::uint64_t key,
                                                 std::uint64_t seed = 0) {
  return Mix64(key ^ seed);
}
[[gnu::always_inline]] inline std::uint64_t HashCombine(std::uint64_t h,
                                                     std::uint64_t v) {
  return h ^ Mix64(v);
}
}  // namespace fwdecay
#endif  // FWDECAY_UTIL_HASH_H_
"""}, None),
    ("hotpath-purity vector under Consume caught", {
        "src/dsms/hot.cc": """
struct Q {
  void Consume(const PacketBatch& batch) {
    std::vector<int> tmp;
    tmp.push_back(1);
  }
};
"""}, "hotpath-purity: owning `vector`"),
    ("hotpath-purity UpdateStates override allocation caught", {
        "src/dsms/hot.cc": """
struct CountAgg {
  void UpdateStates(std::span<AggState* const> states) {
    std::vector<double> tmp(states.size());
  }
};
"""}, "hotpath-purity: owning `vector`"),
    ("hotpath-purity Value row under UpdateBatch caught", {
        "src/dsms/hot.cc": """
struct SumAgg {
  void UpdateBatch(const ValueColumn& col) {
    std::vector<Value> row;
  }
};
"""}, "hotpath-purity: owning `vector` constructed per batch (`row`)"),
    ("hotpath-purity ValueColumn temporary caught", {
        "src/dsms/hot.cc": """
struct SumAgg {
  void UpdateBatch(const ValueColumn& col) {
    auto copy = ValueColumn(col.size());
  }
};
"""}, "hotpath-purity: owning `ValueColumn` temporary"),
    ("hotpath-purity braced ValueColumn temporary in FlushSegment caught", {
        "src/dsms/hot.cc": """
struct Q {
  void FlushSegment() { Sink(ValueColumn{}); }
};
"""}, "hotpath-purity: owning `ValueColumn` temporary"),
    ("hotpath-purity column views clean", {
        "src/dsms/hot.cc": """
struct SumAgg {
  void UpdateBatch(std::span<const ValueColumn> cols) {
    const ValueColumn& col = cols[0];
    ValueColumn::Rep rep = col.rep();
    Use(rep, sizeof(ValueColumn));
  }
};
"""}, None),
    ("hotpath-purity allocation under the phase-2 loop caught", {
        "src/dsms/hot.cc": """
inline void GatherStates() { auto p = std::make_unique<int>(3); }
struct Q {
  void FlushSegment() { GatherStates(); }
};
"""}, "heap allocation (`make_unique`)"),
    ("hotpath-purity member scratch clean", {
        "src/dsms/hot.cc": """
struct Q {
  void Consume(const PacketBatch& batch) {
    scratch_.clear();
    scratch_.push_back(1);
  }
  std::vector<int> scratch_;
};
"""}, None),
    ("hotpath-purity interprocedural allocation caught", {
        "src/dsms/hot.cc": """
inline void RebuildIndex() { auto p = std::make_unique<int>(3); }
struct Q {
  void Consume(const PacketBatch& batch) { RebuildIndex(); }
};
"""}, "heap allocation (`make_unique`)"),
    ("hotpath-purity virtual outside vtable set caught", {
        "src/dsms/hot.cc": """
struct AggState {
  virtual void UpdateBatch(double w) = 0;
  virtual double DebugWeight() const = 0;
};
struct Q {
  void Consume(const PacketBatch& batch) {
    agg_->UpdateBatch(1.0);
    agg_->DebugWeight();
  }
  AggState* agg_;
};
"""}, "virtual dispatch to DebugWeight()"),
    ("hotpath-purity cold annotation accepted", {
        "src/dsms/hot.cc": """
struct Q {
  void Consume(const PacketBatch& batch) {
    if (Stale()) {
      // fwdecay: hotpath-cold(selftest: rebuild is off the fast path)
      RebuildCold();
    }
  }
  void RebuildCold() { big_.reserve(100); }
  std::vector<int> big_;
};
"""}, None),
]


def run_selftest() -> int:
    failures = 0
    for name, files, want in SELFTEST_CASES:
        findings, _ = analyze(sorted(files.items()))
        msgs = [msg for _, _, msg in findings]
        if want is None:
            ok = not msgs
            detail = "; ".join(msgs)
        else:
            ok = any(want in msg for msg in msgs)
            detail = f"expected a finding containing {want!r}"
        print(f"selftest: {'PASS' if ok else 'FAIL'}: {name}"
              + ("" if ok else f" ({detail})"))
        failures += 0 if ok else 1
    print(f"analyze.py --selftest: {len(SELFTEST_CASES)} cases, "
          f"{failures} failure(s)")
    return 0 if failures == 0 else 2


def main() -> int:
    ap = argparse.ArgumentParser(
        description="fwdecay source checker (see module docstring)")
    ap.add_argument("--selftest", action="store_true",
                    help="run the embedded known-bad/clean fixtures "
                         "through the rules and exit")
    if ap.parse_args().selftest:
        return run_selftest()
    root = pathlib.Path(__file__).resolve().parent.parent
    files = [(path.relative_to(root).as_posix(),
              path.read_text(encoding="utf-8"))
             for top in SOURCE_DIRS
             for path in sorted((root / top).rglob("*"))
             if path.suffix in SRC_SUFFIXES and path.is_file()]
    findings, times = analyze(files)
    for rel, line, msg in findings:
        print(f"{rel}:{line}: {msg}")
    print("analyze.py: rule wall time: "
          + ", ".join(f"{k} {v:.2f}s" for k, v in sorted(times.items())))
    status = "FAILED" if findings else "OK"
    print(f"analyze.py: {len(files)} files analyzed, "
          f"{len(findings)} finding(s) [{status}]")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
