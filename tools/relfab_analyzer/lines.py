"""Line rules: token-level determinism and concurrency hazards.

A line rule reads one file at a time, with comments and string/char
literals blanked (cppmodel.scrub), and needs no program model:

  wall-clock           ambient time sources (std::chrono::*_clock,
                       time(), clock(), gettimeofday). Cycle accounting
                       must use the simulated clock; host-side wall
                       timing needs an allow marker.
  ambient-random       std::random_device, std::mt19937, rand/srand,
                       drand48. All randomness goes through
                       relfab::Random seeded from plan/config state.
  unordered-iteration  std::unordered_* in a cycle-domain directory
                       (CYCLE_DOMAIN_DIRS): iteration order is
                       implementation-defined and can leak into cycle
                       accounting. Lookup-only use carries an allow
                       marker, which allow-audit re-verifies.
  naked-mutex          std::mutex and the std lock types outside
                       src/common/thread_annotations.h: use the
                       annotated relfab::Mutex / relfab::MutexLock so
                       clang -Wthread-safety can check lock discipline.
  unguarded-mutex      a relfab::Mutex member with no
                       RELFAB_GUARDED_BY(<that mutex>) in the same file:
                       a mutex that guards nothing defeats the analysis.
  data-check           RELFAB_CHECK* (non-DCHECK) in a data-handling
                       layer (DATA_CHECK_DIRS): a data-dependent
                       condition must return Status, not abort.
  header-guard         every header opens with #pragma once or a
                       matching #ifndef/#define include guard.
  bare-allow           an allow marker with no reason; it suppresses
                       nothing.

Line rules scan LINE_SCOPE (src/, bench/ and tests/); the program rules
scan only src/.
"""

import re

from .compiledb import HEADER_EXTS, in_scope
from .cppmodel import scrub
from .findings import Finding

LINE_SCOPE = ("src", "bench", "tests")

LINE_RULES = (
    "wall-clock",
    "ambient-random",
    "unordered-iteration",
    "naked-mutex",
    "unguarded-mutex",
    "data-check",
    "header-guard",
    "bare-allow",
)

# Directories whose code charges or feeds the simulated-cycle domain.
CYCLE_DOMAIN_DIRS = (
    "src/sim",
    "src/relmem",
    "src/relstorage",
    "src/mvcc",
    "src/engine",
    "src/exec",
    "src/shard",
    "src/net",
)

# RELFAB_CHECK in these dirs must be an allowlisted programming-error
# invariant, never a data-dependent condition (return Status instead).
DATA_CHECK_DIRS = ("src/relmem", "src/relstorage", "src/query")

# The annotated wrappers are the one place the std mutex types belong.
THREAD_ANNOTATIONS = "src/common/thread_annotations.h"

# rule -> (directories it applies to, None for all; patterns; message)
TOKEN_RULES = {
    "wall-clock": (None, (
        re.compile(r"std::chrono::(system|steady|high_resolution)_clock"),
        re.compile(r"\bgettimeofday\s*\("),
        re.compile(r"(?<![:\w])time\s*\(\s*(nullptr|NULL|0)?\s*\)"),
        re.compile(r"(?<![:\w.>])clock\s*\(\s*\)"),
    ), "ambient time source; cycle accounting must use the simulated "
       "clock (allow() host-side wall timing with a reason)"),
    "ambient-random": (None, (
        re.compile(r"std::random_device"),
        re.compile(r"std::mt19937"),
        re.compile(r"(?<![:\w])s?rand\s*\("),
        re.compile(r"\bd?rand48\s*\("),
    ), "nondeterministic/non-portable randomness; use relfab::Random "
       "seeded from plan/config state (common/random.h)"),
    "unordered-iteration": (CYCLE_DOMAIN_DIRS, (
        re.compile(r"std::unordered_(map|set|multimap|multiset)"),
    ), "std::unordered_* in a cycle-domain directory: iteration order "
       "is implementation-defined and can leak into cycle accounting "
       "(allow() lookup-only use with a reason)"),
    "naked-mutex": (None, (
        re.compile(r"std::(timed_|recursive_|shared_)?mutex\b"),
        re.compile(r"std::(lock_guard|unique_lock|scoped_lock|shared_lock)\b"),
    ), "naked std mutex/lock; use relfab::Mutex / relfab::MutexLock "
       "(common/thread_annotations.h) so -Wthread-safety can check it"),
    "data-check": (DATA_CHECK_DIRS, (
        re.compile(r"RELFAB_CHECK(_EQ|_NE|_LT|_LE|_GT|_GE)?\s*\("),
    ), "RELFAB_CHECK in a data-handling layer: if the condition can be "
       "false for any input, return Status instead of aborting "
       "(allow() true programming-error invariants with a reason)"),
}

MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:relfab::)?Mutex\s+(\w+)\s*;")


def has_include_guard(lines):
    guard = None
    for line in lines[:30]:
        stripped = line.strip()
        if stripped.startswith("#pragma once"):
            return True
        m = re.match(r"#ifndef\s+(\w+)", stripped)
        if m:
            guard = m.group(1)
            continue
        if guard is not None:
            m = re.match(r"#define\s+(\w+)", stripped)
            if m and m.group(1) == guard:
                return True
    return False


class LinePass:
    def __init__(self, allow_index, rules):
        self.allow = allow_index
        self.rules = rules
        self.findings = []

    def run(self, paths):
        for path in paths:
            self._check_file(path)
        return self.findings

    def _report(self, path, line, rule, message):
        if rule in self.rules and not self.allow.allowed(path, line, rule):
            self.findings.append(Finding(path, line, rule, message))

    def _check_file(self, path):
        lines = self.allow.lines(path)
        code = scrub("\n".join(lines)).split("\n")

        for rule, (dirs, patterns, message) in TOKEN_RULES.items():
            if dirs is not None and not in_scope(path, dirs):
                continue
            if rule == "naked-mutex" and path == THREAD_ANNOTATIONS:
                continue
            for idx, text in enumerate(code, start=1):
                if any(p.search(text) for p in patterns):
                    self._report(path, idx, rule, message)

        joined = "\n".join(code)
        for idx, text in enumerate(code, start=1):
            m = MUTEX_MEMBER_RE.match(text)
            if not m:
                continue
            name = m.group(1)
            if not re.search(r"RELFAB_(?:PT_)?GUARDED_BY\(\s*"
                             + re.escape(name) + r"\s*\)", joined):
                self._report(
                    path, idx, "unguarded-mutex",
                    f"Mutex member '{name}' has no RELFAB_GUARDED_BY({name}) "
                    "companion in this file; annotate what it protects")

        if path.endswith(HEADER_EXTS) and not has_include_guard(lines):
            self._report(path, 1, "header-guard",
                         "header has neither #pragma once nor a matching "
                         "#ifndef/#define include guard")

        if "bare-allow" in self.rules:
            for idx, marker in self.allow.bare_markers(path):
                self.findings.append(Finding(
                    path, idx, "bare-allow",
                    f"allow marker '{marker}' has no reason; every "
                    "suppression must say why (docs/static-analysis.md)"))
