#!/usr/bin/env python3
"""Validates a bench --json run report against bench_report.schema.json.

Usage: tools/validate_bench_json.py <report.json> [report2.json ...]

Checks each report with the `jsonschema` package when it is installed,
and always with a built-in structural check, which also requires every
histogram bucket's edges to increase. Exits non-zero on the first
invalid report.
"""

import json
import os
import sys

SCHEMA_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench",
    "bench_report.schema.json")


def fail(path: str, message: str) -> None:
    print(f"FAIL {path}: {message}", file=sys.stderr)
    sys.exit(1)


def validate_structurally(path: str, doc: object) -> None:
    """The schema's core constraints without jsonschema, plus increasing
    bucket edges."""
    if not isinstance(doc, dict):
        fail(path, "report must be a JSON object")
    if doc.get("schema_version") != 3:
        fail(path, "schema_version must be 3")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        fail(path, "'bench' must be a non-empty string")
    config = doc.get("config")
    if not isinstance(config, dict) or any(
            not isinstance(v, str) for v in config.values()):
        fail(path, "'config' must be an object of string values")
    results = doc.get("results")
    if not isinstance(results, list):
        fail(path, "'results' must be an array")
    for r in results:
        if (not isinstance(r, dict) or not isinstance(r.get("series"), str)
                or not isinstance(r.get("x"), str)
                or not isinstance(r.get("sim_cycles"), (int, float))
                or r["sim_cycles"] < 0):
            fail(path, f"bad result entry: {r!r}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail(path, "'metrics' must be an object")
    for name, v in metrics.get("counters", {}).items():
        if not isinstance(v, (int, float)) or v < 0:
            fail(path, f"counter '{name}' must be a non-negative number")
    for name, v in metrics.get("gauges", {}).items():
        if not isinstance(v, (int, float)):
            fail(path, f"gauge '{name}' must be a number")
    for name, h in metrics.get("histograms", {}).items():
        if not isinstance(h, dict):
            fail(path, f"histogram '{name}' must be an object")
        for key in ("count", "sum", "min", "max", "buckets"):
            if key not in h:
                fail(path, f"histogram '{name}' missing '{key}'")
        for triple in h["buckets"]:
            if (not isinstance(triple, list) or len(triple) != 3
                    or not all(isinstance(x, (int, float)) for x in triple)):
                fail(path, f"histogram '{name}' has bad bucket {triple!r}")
            if triple[0] >= triple[1]:
                fail(path, f"histogram '{name}' bucket edges not increasing")


def main(argv: list) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(SCHEMA_PATH, encoding="utf-8") as f:
        schema = json.load(f)
    try:
        import jsonschema
        validator = jsonschema.Draft202012Validator(schema)
    except ImportError:
        validator = None
        print("note: jsonschema not installed, using built-in checks")

    for path in argv[1:]:
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(path, str(e))
        if validator is not None:
            errors = sorted(validator.iter_errors(doc), key=str)
            if errors:
                fail(path, errors[0].message)
        validate_structurally(path, doc)
        n_results = len(doc["results"])
        n_counters = len(doc["metrics"].get("counters", {}))
        print(f"OK   {path}: bench={doc['bench']} results={n_results} "
              f"counters={n_counters}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
