"""relfab_analyzer: the repo's determinism and concurrency analyzer.

Line rules (relfab_analyzer.lines) read one file at a time and scan
src/, bench/ and tests/: wall-clock, ambient-random,
unordered-iteration, naked-mutex, unguarded-mutex, data-check,
header-guard and bare-allow.

Program rules need types, scopes and data flow over the whole program
model, and scan src/ only:

  taint-flow        host-nondeterministic values (wall clock, thread ids,
                    hardware_concurrency, pointer-as-integer, unordered
                    iteration order, ambient randomness) flowing into
                    cycle-domain sinks (Cycles/MemStats fields, charge
                    APIs, network pricing, digest/telemetry feeds),
                    propagated through assignments, returns, and call
                    arguments, with a conservative cross-TU summary pass.
  lock-consistency  a RELFAB_GUARDED_BY member touched outside any lock
                    in some method while other methods lock it — the
                    cross-TU gap single-TU -Wthread-safety can miss.
  status-unwrap     a StatusOr unwrapped (.value()/operator*/->) on a
                    path with no dominating .ok() check.
  allow-audit       every inline `allow(unordered-iteration)` marker is
                    re-verified: the container it covers must really be
                    lookup-only (never iterated anywhere in the program).

Two interchangeable frontends produce the same IR (relfab_analyzer.ir):

  clang     libclang (Python clang.cindex) driven off the CMake-exported
            compile_commands.json — precise declaration structure; used
            in CI where a pinned libclang is installed.
  internal  a self-contained conservative C++ structure parser — no
            dependencies beyond the stdlib, used wherever libclang is
            unavailable.

`--frontend auto` (the default) prefers clang and falls back, per TU,
to the internal frontend on any parse failure, so findings are always
produced. See docs/static-analysis.md.
"""

from .lines import LINE_RULES

__version__ = "1.0"

PROGRAM_RULES = (
    "taint-flow",
    "lock-consistency",
    "status-unwrap",
    "allow-audit",
)

ANALYZER_RULES = LINE_RULES + PROGRAM_RULES
