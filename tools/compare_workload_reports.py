#!/usr/bin/env python3
"""Asserts two workload_mixed run reports are bit-identical where the
determinism contract demands it.

Usage: tools/compare_workload_reports.py <a.json> <b.json>

The two reports may come from runs at different host thread counts or
simulator modes; per-session simulated cycles and the entire metrics
snapshot — merged latency digests (`digest.*`, full bucket sketches),
workload totals and the availability split — must still match exactly.
The config block (which records the differing thread count) is the only
part allowed to differ. CI runs this across `--threads 1` vs `4` and
fast-path vs reference reports, fault-free and under a kill plan.
"""

import json
import sys


def cells(report: dict) -> list:
    return sorted(
        (r["series"], r["x"], r["sim_cycles"]) for r in report["results"])


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], "r", encoding="utf-8") as f:
        a = json.load(f)
    with open(argv[2], "r", encoding="utf-8") as f:
        b = json.load(f)

    failures = 0
    if cells(a) != cells(b):
        failures += 1
        seen = dict((k[:2], k[2]) for k in cells(b))
        for series, x, cyc in cells(a):
            other = seen.get((series, x))
            if other != cyc:
                print(f"FAIL cell ({series}, {x}): sim_cycles {cyc} "
                      f"vs {other}", file=sys.stderr)
    if a["metrics"] != b["metrics"]:
        failures += 1
        ma, mb = a["metrics"], b["metrics"]
        for kind in sorted(set(ma) | set(mb)):
            for name in sorted(set(ma.get(kind, {})) | set(mb.get(kind, {}))):
                va = ma.get(kind, {}).get(name)
                vb = mb.get(kind, {}).get(name)
                if va != vb:
                    print(f"FAIL metric {kind}/{name}: {va} vs {vb}",
                          file=sys.stderr)
    if failures:
        print(f"FAIL: {argv[1]} and {argv[2]} diverge", file=sys.stderr)
        return 1
    print(f"OK {argv[1]} == {argv[2]} "
          f"({len(cells(a))} cells, metrics snapshot identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
