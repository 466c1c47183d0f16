#!/usr/bin/env python3
"""relfab_analyzer: determinism and concurrency analysis for the repo.

Usage:
    tools/relfab_analyzer/analyze.py [options] [paths...]

Options:
    --root DIR          repo root (default: repo containing this script)
    --compile-db FILE   compile_commands.json (default:
                        <root>/build/compile_commands.json when present;
                        the analyzer still runs without one by scanning
                        the scope directories)
    --frontend MODE     auto | clang | internal (default auto: libclang
                        when importable, per-TU fallback to the internal
                        parser)
    --rules LIST        comma-separated subset of rules to run
    --json FILE         write findings JSON (schema in findings.py)
    --baseline FILE     baseline to diff against (default:
                        tools/relfab_analyzer/baseline.json; pass 'none'
                        to disable)
    --write-baseline    rewrite the baseline from current program-rule
                        findings (line rules take inline markers only)
    --strict            exit 1 on findings not covered by the baseline
    --list-rules        print rule names and exit

Line rules scan src/, bench/ and tests/ and program rules scan src/
(the cycle-domain production tree); both skip fixtures/ directories.
Explicit paths override both scopes. See docs/static-analysis.md.
"""

import argparse
import os
import sys

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from relfab_analyzer import ANALYZER_RULES, PROGRAM_RULES  # noqa: E402
    from relfab_analyzer import allowaudit, clang_frontend, compiledb, \
        cppmodel, findings as findings_mod, lines, locks, statusflow, taint
else:
    from . import ANALYZER_RULES, PROGRAM_RULES, allowaudit, \
        clang_frontend, compiledb, cppmodel, findings as findings_mod, \
        lines, locks, statusflow, taint


class Program:
    """Whole-program model: every TU, merged class index, all functions."""

    def __init__(self):
        self.tus = []
        self.functions = []
        self.classes = {}           # name -> ClassInfo (members merged)
        self.returns_statusor = set()
        self.frontend_counts = {"clang": 0, "internal": 0}

    def add_tu(self, tu):
        self.tus.append(tu)
        self.frontend_counts[tu.frontend] = \
            self.frontend_counts.get(tu.frontend, 0) + 1
        self.functions.extend(tu.functions)
        for name, cls in tu.classes.items():
            if name in self.classes:
                for mname, m in cls.members.items():
                    self.classes[name].members.setdefault(mname, m)
            else:
                self.classes[name] = cls
        for fn in tu.functions:
            if "StatusOr" in (fn.return_type or ""):
                self.returns_statusor.add(fn.name)
                self.returns_statusor.add(fn.qual_name)


def build_program(root, compile_db=None, frontend="auto",
                  explicit_paths=None, scope=compiledb.DEFAULT_SCOPE):
    sources, entries = compiledb.collect_tus(
        root, compile_db_path=compile_db, scope=scope,
        explicit_paths=explicit_paths)
    program = Program()
    clang_ok = False
    if frontend in ("auto", "clang"):
        try:
            clang_frontend.load()
            clang_ok = True
        except clang_frontend.ClangFrontendError as e:
            if frontend == "clang":
                raise SystemExit(f"relfab_analyzer: --frontend clang "
                                 f"requested but {e}")
            print(f"relfab_analyzer: libclang unavailable "
                  f"({e}); using internal frontend", file=sys.stderr)
    for rel in sources:
        abs_path = os.path.join(root, rel)
        if not os.path.exists(abs_path):
            continue
        tu = None
        if clang_ok:
            try:
                tu = clang_frontend.parse_file(abs_path, rel,
                                               entries.get(rel), root)
            except clang_frontend.ClangFrontendError as e:
                print(f"relfab_analyzer: {e}; internal fallback for {rel}",
                      file=sys.stderr)
        if tu is None:
            tu = cppmodel.parse_file(abs_path, rel)
        program.add_tu(tu)
    return program


def run_analyses(program, allow_index, root, rules, line_paths):
    all_findings = lines.LinePass(allow_index, rules).run(line_paths)
    if "taint-flow" in rules:
        all_findings.extend(taint.TaintPass(program, allow_index).run())
    if "lock-consistency" in rules:
        all_findings.extend(locks.LockPass(program, allow_index).run())
    if "status-unwrap" in rules:
        returns_statusor = program.returns_statusor
        all_findings.extend(statusflow.StatusFlowPass(
            program, allow_index, returns_statusor).run())
    if "allow-audit" in rules:
        all_findings.extend(allowaudit.AllowAuditPass(
            program, allow_index, root).run())
    return findings_mod.dedupe(all_findings)


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    default_root = os.path.dirname(os.path.dirname(here))
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=default_root)
    parser.add_argument("--compile-db", default=None)
    parser.add_argument("--frontend", default="auto",
                        choices=("auto", "clang", "internal"))
    parser.add_argument("--rules", default=",".join(ANALYZER_RULES))
    parser.add_argument("--json", dest="json_out", default=None)
    parser.add_argument("--baseline",
                        default=os.path.join(here, "baseline.json"))
    parser.add_argument("--write-baseline", action="store_true")
    parser.add_argument("--strict", action="store_true")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("paths", nargs="*")
    args = parser.parse_args(argv)

    if args.list_rules:
        for r in ANALYZER_RULES:
            print(r)
        return 0

    rules = {r.strip() for r in args.rules.split(",") if r.strip()}
    unknown = rules - set(ANALYZER_RULES)
    if unknown:
        print(f"relfab_analyzer: unknown rule(s): {sorted(unknown)}",
              file=sys.stderr)
        return 2

    root = os.path.abspath(args.root)
    compile_db = args.compile_db
    if compile_db is None:
        candidate = os.path.join(root, "build", "compile_commands.json")
        compile_db = candidate if os.path.exists(candidate) else None

    program = build_program(root, compile_db=compile_db,
                            frontend=args.frontend,
                            explicit_paths=args.paths or None)
    if args.paths:
        line_paths = [compiledb.repo_rel(root, p) for p in args.paths]
        line_paths = [p for p in line_paths
                      if os.path.isfile(os.path.join(root, p))]
    else:
        line_paths = list(compiledb.walk_scope(root, lines.LINE_SCOPE))
    allow_index = findings_mod.AllowIndex(root)
    results = run_analyses(program, allow_index, root, rules, line_paths)
    files_scanned = len({tu.path for tu in program.tus} | set(line_paths))

    baseline_path = None if args.baseline in ("none", "") else args.baseline
    baseline = findings_mod.load_baseline(baseline_path)

    # Only an inline marker with a reason waives a line rule.
    if args.write_baseline:
        waivable = [f for f in results if f.rule in PROGRAM_RULES]
        findings_mod.write_baseline(baseline_path, waivable)
        print(f"relfab_analyzer: baseline rewritten with "
              f"{len(waivable)} finding(s) -> {baseline_path}",
              file=sys.stderr)
        return 0

    new, stale = findings_mod.diff_against_baseline(results, baseline,
                                                    PROGRAM_RULES)
    accepted = len(results) - len(new)

    for f in new:
        print(f)
    if args.json_out:
        findings_mod.write_json(args.json_out, "relfab_analyzer", root,
                                files_scanned, results)
    if stale:
        print(f"relfab_analyzer: {len(stale)} baseline entr"
              f"{'y is' if len(stale) == 1 else 'ies are'} stale "
              f"(fixed findings — prune with --write-baseline):",
              file=sys.stderr)
        for e in stale:
            print(f"  stale: {e['path']} [{e['rule']}] "
                  f"{e.get('message', '')[:80]}", file=sys.stderr)
    fe = program.frontend_counts
    print(f"relfab_analyzer: {'STRICT ' if args.strict else ''}"
          f"{len(program.tus)} TU(s) "
          f"(clang: {fe.get('clang', 0)}, internal: {fe.get('internal', 0)}), "
          f"{len(line_paths)} file(s) for line rules, "
          f"rules [{', '.join(sorted(rules))}], "
          f"{len(results)} finding(s): {len(new)} new, "
          f"{accepted} baseline-accepted", file=sys.stderr)
    if new and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
