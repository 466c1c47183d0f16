#!/usr/bin/env python3
"""Golden-cycle diff for the golden benches (ctest golden_diff).

Usage: tests/golden_diff/run_golden_diff.py <bench-binary-dir>

Reruns ablation_sharding, ablation_shipping, ablation_selection,
fig5_projectivity and fig7_tpch twice each: the fast simulator path at
--threads 4, and the reference path (RELFAB_SIM_FAST_PATH=0) at
--threads 1. Every report must pass tools/validate_bench_json.py and
match its bench/golden/ twin cell for cell under
tools/compare_bench_json.py, so a change that moves a simulated cycle,
breaks the report schema, or makes the two simulator modes or host
thread counts disagree fails tier-1. fig7_tpch writes its Q6 figure to
a second report, <path>.q6.json, diffed against fig7_tpch.q6.json.
"""

import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
COMPARE = os.path.join(REPO_ROOT, "tools", "compare_bench_json.py")
VALIDATE = os.path.join(REPO_ROOT, "tools", "validate_bench_json.py")
# Bench -> the golden names of the reports it writes ("" is --json's
# own path; ".q6" is <path>.q6.json).
BENCHES = {
    "ablation_sharding": ("",),
    "ablation_shipping": ("",),
    "ablation_selection": ("",),
    "fig5_projectivity": ("",),
    "fig7_tpch": ("", ".q6"),
}
MODES = (("fast", "1", "4"), ("ref", "0", "1"))  # name, fast path, threads


def check(label, golden, report, failures):
    valid = subprocess.run([sys.executable, VALIDATE, report],
                           capture_output=True, text=True)
    if valid.returncode != 0:
        failures.append(f"{label}: invalid report\n"
                        f"{valid.stderr.strip()[-800:]}")
        return
    diff = subprocess.run([sys.executable, COMPARE, golden, report],
                          capture_output=True, text=True)
    if diff.returncode != 0:
        failures.append(f"{label}: cycles differ from golden\n"
                        f"{diff.stdout.strip()[-2000:]}")
    else:
        print(f"ok   {label}")


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench_dir = argv[1]
    failures = []
    with tempfile.TemporaryDirectory(prefix="relfab_golden_diff_") as tmp:
        for bench, suffixes in BENCHES.items():
            for mode, fast_path, threads in MODES:
                run_label = f"({mode}, --threads {threads})"
                report = os.path.join(tmp, f"{bench}_{mode}.json")
                env = dict(os.environ, RELFAB_SIM_FAST_PATH=fast_path)
                run = subprocess.run(
                    [os.path.join(bench_dir, bench), "--threads", threads,
                     "--json", report],
                    env=env, capture_output=True, text=True)
                if run.returncode != 0:
                    failures.append(f"{bench} {run_label}: exit "
                                    f"{run.returncode}\n"
                                    f"{run.stderr.strip()[-800:]}")
                    continue
                for suffix in suffixes:
                    golden = os.path.join(REPO_ROOT, "bench", "golden",
                                          f"{bench}{suffix}.json")
                    path = report + (f"{suffix}.json" if suffix else "")
                    check(f"{bench}{suffix} {run_label}", golden, path,
                          failures)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
