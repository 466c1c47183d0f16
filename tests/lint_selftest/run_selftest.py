#!/usr/bin/env python3
"""Self-test for tools/relfab_analyzer (ctest lint_selftest).

Every fixture under fixtures/ and fixtures/analyzer/ is staged into one
temporary fake repo at the path its `// dest:` line names. Rules are
scoped by directory: unordered-iteration and data-check fire only in
some src/ directories, line rules scan bench/ and program rules do
not. A synthetic compile_commands.json covers the staged src/ .cc
files, so the compile-database path is exercised. The analyzer then
runs once, in --strict mode with the baseline disabled, and the set of
rules it reports per file must equal the fixture's `// expect:` line.

Fixtures expecting nothing prove that suppression works: an allow
marker with a reason, a seeded relfab::Random, a handled StatusOr
unwrap. bad_bare_allow proves a reason-less marker reports itself and
suppresses nothing; the xtu_* pair proves the cross-TU summary carries
taint between translation units; bad_bench_scope proves line rules
scan bench/ and program rules do not.

The real tree is gated by the relfab_analyzer ctest, not here.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

SELFTEST_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SELFTEST_DIR))
ANALYZER = os.path.join(REPO_ROOT, "tools", "relfab_analyzer",
                        "analyze.py")
FIXTURES = os.path.join(SELFTEST_DIR, "fixtures")
ANALYZER_FIXTURES = os.path.join(FIXTURES, "analyzer")

VIOLATION_RE = re.compile(r"^(?P<path>[^:]+):(?P<line>\d+): \[(?P<rule>[a-z-]+)\]")


def parse_fixture_header(path):
    dest, expect = None, None
    with open(path, encoding="utf-8") as f:
        for line in f:
            m = re.match(r"//\s*dest:\s*(\S+)", line)
            if m:
                dest = m.group(1)
            m = re.match(r"//\s*expect:\s*(.*)", line)
            if m:
                expect = {r.strip() for r in m.group(1).split(",") if r.strip()}
            if dest is not None and expect is not None:
                break
    if dest is None or expect is None:
        raise SystemExit(f"fixture {path} lacks a // dest: or // expect: line")
    return dest, expect


def stage_fixtures(tmp):
    """Copies each fixture to its `// dest:` path under tmp; returns
    {dest: expected rule set}."""
    expected_by_dest = {}
    for fixture_dir in (FIXTURES, ANALYZER_FIXTURES):
        for name in sorted(os.listdir(fixture_dir)):
            src = os.path.join(fixture_dir, name)
            if os.path.isdir(src):
                continue
            dest, expect = parse_fixture_header(src)
            if dest in expected_by_dest:
                raise SystemExit(f"fixture {src}: dest {dest} is taken")
            staged = os.path.join(tmp, dest)
            os.makedirs(os.path.dirname(staged), exist_ok=True)
            shutil.copyfile(src, staged)
            expected_by_dest[dest] = expect
    return expected_by_dest


def write_compile_db(tmp):
    """Synthesizes a compile_commands.json for the staged .cc files so
    the analyzer exercises its compile-database discovery path."""
    entries = []
    for dirpath, _, filenames in os.walk(os.path.join(tmp, "src")):
        for fname in sorted(filenames):
            if fname.endswith(".cc"):
                path = os.path.join(dirpath, fname)
                entries.append({
                    "directory": tmp,
                    "arguments": ["c++", "-std=c++17", "-I" + tmp, "-c",
                                  os.path.relpath(path, tmp)],
                    "file": path,
                })
    db_dir = os.path.join(tmp, "build")
    os.makedirs(db_dir, exist_ok=True)
    db = os.path.join(db_dir, "compile_commands.json")
    with open(db, "w", encoding="utf-8") as f:
        json.dump(entries, f, indent=1)
    return db


def main():
    failures = []
    with tempfile.TemporaryDirectory(prefix="relfab_analyzer_selftest_") \
            as tmp:
        expected = stage_fixtures(tmp)
        db = write_compile_db(tmp)
        proc = subprocess.run(
            [sys.executable, ANALYZER, "--strict", "--root", tmp,
             "--compile-db", db, "--baseline", "none"],
            capture_output=True, text=True)

    reported = {}
    for line in proc.stdout.splitlines():
        m = VIOLATION_RE.match(line)
        if m:
            reported.setdefault(m.group("path"), set()).add(m.group("rule"))
    for dest, expect in sorted(expected.items()):
        got = reported.get(dest, set())
        if got != expect:
            failures.append(f"{dest}: expected rules {sorted(expect)}, "
                            f"got {sorted(got)}")
    unexpected = sorted(set(reported) - set(expected))
    if unexpected:
        failures.append(f"findings in files that are not fixtures: "
                        f"{unexpected}")
    if proc.returncode == 0:
        failures.append("--strict exited 0 although fixtures contain "
                        "violations")

    if failures:
        print("lint_selftest FAILED:")
        for f in failures:
            print("  " + f)
        print(proc.stderr)
        return 1
    print(f"lint_selftest OK: {len(expected)} fixtures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
