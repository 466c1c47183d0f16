#!/usr/bin/env python3
"""Compares two bench --json run reports for simulated-cycle drift.

Usage: tools/compare_bench_json.py <golden.json> <candidate.json>

Compares the bench name and the full set of (series, x) -> sim_cycles
cells. The config block and the metrics snapshot are ignored: they
legitimately vary between thread counts and fast-path modes, while
sim_cycles must not.
Exits 0 when the simulated results are identical, 1 with a cell-by-cell
diff otherwise.
"""

import json
import sys


def load_cells(path: str):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    cells = {}
    for r in doc.get("results", []):
        cells[(r["series"], r["x"])] = r["sim_cycles"]
    return doc.get("bench"), cells


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    golden_path, candidate_path = argv[1], argv[2]
    golden_bench, golden = load_cells(golden_path)
    candidate_bench, candidate = load_cells(candidate_path)

    ok = True
    if golden_bench != candidate_bench:
        print(f"DIFF bench name: golden={golden_bench!r} "
              f"candidate={candidate_bench!r}")
        ok = False
    for key in sorted(golden.keys() - candidate.keys()):
        print(f"DIFF missing cell in candidate: (series={key[0]!r}, "
              f"x={key[1]!r})")
        ok = False
    for key in sorted(candidate.keys() - golden.keys()):
        print(f"DIFF extra cell in candidate: (series={key[0]!r}, "
              f"x={key[1]!r})")
        ok = False
    for key in sorted(golden.keys() & candidate.keys()):
        if golden[key] != candidate[key]:
            series, x = key
            print(f"DIFF (series={series!r}, x={x!r}): "
                  f"golden={golden[key]} candidate={candidate[key]}")
            ok = False
    if not ok:
        print(f"FAIL {candidate_path}: simulated cycles drifted from "
              f"{golden_path}", file=sys.stderr)
        return 1
    print(f"OK   {candidate_path}: {len(golden)} cells bit-identical to "
          f"{golden_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
