#!/usr/bin/env python3
"""Asserts the availability floor of a workload_mixed kill-plan run report.

Usage: tools/check_availability.py --min-answered F [--max-unavailable F]
                                   <report.json> [...]

Reads the "workload.*" counters a workload_mixed `--json` report embeds
in its metrics snapshot and fails if the answered fraction falls below
the floor (or the unavailable fraction exceeds the ceiling). CI runs
this over several kill-plan seeds (`--kill-p 0.004 --kill-seed S`):
with replicas >= 2 the failure-domain machinery must keep answering
through permanent replica deaths.
"""

import json
import sys


def fraction(counters: dict, name: str) -> float:
    total = counters.get("workload.statements", 0)
    return counters.get(name, 0) / total if total else 0.0


def main(argv: list) -> int:
    min_answered = None
    max_unavailable = None
    paths = []
    it = iter(argv[1:])
    for arg in it:
        if arg == "--min-answered":
            min_answered = float(next(it, "nan"))
        elif arg == "--max-unavailable":
            max_unavailable = float(next(it, "nan"))
        else:
            paths.append(arg)
    if min_answered is None or not paths:
        print(__doc__, file=sys.stderr)
        return 2

    failures = 0
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            report = json.load(f)
        counters = report["metrics"].get("counters", {})
        statements = counters.get("workload.statements", 0)
        answered = fraction(counters, "workload.answered")
        unavailable = fraction(counters, "workload.unavailable")
        degraded = fraction(counters, "workload.degraded")
        deaths = counters.get("workload.deaths", 0)
        print(f"{path}: statements={statements} answered={answered:.4f} "
              f"degraded={degraded:.4f} unavailable={unavailable:.4f} "
              f"deaths={deaths}")
        if statements == 0:
            print(f"FAIL {path}: no statements recorded", file=sys.stderr)
            failures += 1
        if answered < min_answered:
            print(f"FAIL {path}: answered {answered:.4f} < "
                  f"{min_answered:.4f}", file=sys.stderr)
            failures += 1
        if max_unavailable is not None and unavailable > max_unavailable:
            print(f"FAIL {path}: unavailable {unavailable:.4f} > "
                  f"{max_unavailable:.4f}", file=sys.stderr)
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
