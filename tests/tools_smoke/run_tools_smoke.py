#!/usr/bin/env python3
"""Smoke test for every CLI under tools/ (registered as ctest tools_smoke).

Runs each tool against tiny committed inputs in data/ and asserts it
exits cleanly (plus one negative case per gating tool, proving the gate
actually rejects bad input). A final coverage check fails the test when
a new tools/*.py appears without a smoke invocation here — keeping the
tool surface exercised is the whole point of this test.

Everything runs off committed files; no build outputs are required, so
this is safe as a tier-1 ctest.
"""

import glob
import json
import os
import subprocess
import sys
import tempfile

SMOKE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SMOKE_DIR))
TOOLS = os.path.join(REPO_ROOT, "tools")
DATA = os.path.join(SMOKE_DIR, "data")
GOLDENS = sorted(glob.glob(os.path.join(REPO_ROOT, "bench", "golden",
                                        "*.json")))
GOLDEN = os.path.join(REPO_ROOT, "bench", "golden",
                      "ablation_selection.json")

failures = []
covered = set()


def tool(name):
    covered.add(name)
    return os.path.join(TOOLS, name)


def run(label, cmd, expect_rc=0):
    proc = subprocess.run([sys.executable] + cmd,
                          capture_output=True, text=True)
    if proc.returncode != expect_rc:
        failures.append(
            f"{label}: expected rc {expect_rc}, got {proc.returncode}\n"
            f"  stdout: {proc.stdout.strip()[:400]}\n"
            f"  stderr: {proc.stderr.strip()[:400]}")
    return proc


def main():
    qlog = os.path.join(DATA, "qlog_small.jsonl")
    qlog_bad = os.path.join(DATA, "qlog_malformed.jsonl")
    base = os.path.join(DATA, "degradation_baseline.json")
    armed = os.path.join(DATA, "degradation_armed.json")
    chaos = os.path.join(DATA, "chaos_report.json")

    with tempfile.TemporaryDirectory(prefix="relfab_tools_smoke_") as tmp:
        # analyze_query_log: summary JSON over a valid log, then the
        # strict gate must reject a malformed record.
        proc = run("analyze_query_log",
                   [tool("analyze_query_log.py"), "--strict", "--json",
                    qlog])
        if proc.returncode == 0:
            summary = json.loads(proc.stdout)
            if summary.get("statements") != 3 or summary.get("errors") != 1:
                failures.append(f"analyze_query_log: bad summary "
                                f"{proc.stdout[:200]}")
        run("analyze_query_log --strict rejects malformed",
            [tool("analyze_query_log.py"), "--strict", qlog_bad],
            expect_rc=1)

        # validate_bench_json over every committed golden report and the
        # smoke data; a golden turned back into a v2 report with a
        # host-time cell must fail. Then compare a report against itself.
        run("validate_bench_json",
            [tool("validate_bench_json.py")] + GOLDENS + [base, armed, chaos])
        with open(GOLDEN, encoding="utf-8") as f:
            stale = json.load(f)
        stale["schema_version"] = 2
        stale["results"][0]["host_wall_ms"] = 1.0
        stale_path = os.path.join(tmp, "stale_v2.json")
        with open(stale_path, "w", encoding="utf-8") as f:
            json.dump(stale, f)
        run("validate_bench_json rejects a v2 report",
            [tool("validate_bench_json.py"), stale_path], expect_rc=1)
        run("compare_bench_json",
            [tool("compare_bench_json.py"), GOLDEN, GOLDEN])
        run("compare_bench_json detects drift",
            [tool("compare_bench_json.py"), base, armed], expect_rc=1)
        run("compare_workload_reports",
            [tool("compare_workload_reports.py"), GOLDEN, GOLDEN])

        # Fault-tolerance gates.
        run("check_degradation",
            [tool("check_degradation.py"), base, armed])
        run("check_degradation rejects swapped pair",
            [tool("check_degradation.py"), armed, base], expect_rc=1)
        run("check_availability",
            [tool("check_availability.py"), "--min-answered", "0.95",
             "--max-unavailable", "0.05", chaos])
        run("check_availability enforces floor",
            [tool("check_availability.py"), "--min-answered", "0.99",
             chaos], expect_rc=1)

        # Static analyzer: analyze one real file with --json into the
        # temp dir.
        an_json = os.path.join(tmp, "analyzer.json")
        run("relfab_analyzer --json",
            [os.path.join(TOOLS, "relfab_analyzer", "analyze.py"),
             "--root", REPO_ROOT, "--frontend", "internal",
             "--baseline", "none", "--json", an_json,
             "src/common/statusor.h"])
        covered.add("relfab_analyzer/analyze.py")
        if os.path.exists(an_json):
            with open(an_json, encoding="utf-8") as f:
                doc = json.load(f)
            if doc.get("tool") != "relfab_analyzer" \
                    or doc.get("schema_version") != 1 \
                    or "findings" not in doc:
                failures.append(f"relfab_analyzer: bad findings JSON "
                                f"schema in {an_json}")
        else:
            failures.append("relfab_analyzer: --json wrote nothing")

        # The baseline waives program rules only: fed its own findings
        # as the baseline, --strict still fails on the line finding.
        tree = os.path.join(tmp, "tree")
        os.makedirs(os.path.join(tree, "src", "exec"))
        with open(os.path.join(tree, "src", "exec", "scan.cc"), "w",
                  encoding="utf-8") as f:
            f.write("struct Stats { unsigned long long cycles = 0; };\n"
                    "void Scan(Stats& s) {\n"
                    "  s.cycles += std::chrono::steady_clock::now()"
                    ".time_since_epoch().count();\n"
                    "}\n")
        all_json = os.path.join(tmp, "tree_findings.json")
        analyzer = [os.path.join(TOOLS, "relfab_analyzer", "analyze.py"),
                    "--root", tree, "--frontend", "internal"]
        run("relfab_analyzer on a tainted tree",
            analyzer + ["--baseline", "none", "--json", all_json])
        proc = run("relfab_analyzer --strict keeps line rules unwaived",
                   analyzer + ["--strict", "--baseline", all_json],
                   expect_rc=1)
        if "[wall-clock]" not in proc.stdout \
                or "[taint-flow]" in proc.stdout:
            failures.append(f"relfab_analyzer: baseline must waive "
                            f"taint-flow but not wall-clock, got "
                            f"{proc.stdout.strip()[:400]}")

    # Coverage: every tools/*.py must have been exercised above.
    present = {name for name in os.listdir(TOOLS)
               if name.endswith(".py")}
    missing = present - covered
    if missing:
        failures.append(
            f"tools with no smoke invocation: {sorted(missing)} "
            f"(add them to tests/tools_smoke/run_tools_smoke.py)")

    if failures:
        print("tools_smoke FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print(f"tools_smoke OK: {len(covered)} tools exercised")
    return 0


if __name__ == "__main__":
    sys.exit(main())
