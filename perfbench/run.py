#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <olap_tpch|oltp_htap|shard_fanout>
                             --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/ with CMake; later
runs only rebuild what changed. The benchmark binary prints every metric
by name and unit, and as its last line one JSON object with the keys
correct, attempted, failed and metrics.

This script also guards the deterministic metrics (simulated-cycle
percentiles, backend shares, shard, net and MVCC counts): the first run
of a seed on a given source tree records them under .bench_build/det/,
and every later run of that seed must reproduce them exactly. Drift marks
the run incorrect and exits non-zero.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
WORKLOADS = ("olap_tpch", "oltp_htap", "shard_fanout")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found; run from the repository root")
    # The compiler's temporary files stay inside the build tree too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
        fail("build failed")
    return BUILD / "perfbench"


def source_digest():
    """Digest of every source the binary is built from."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_determinism(workload, seed, det):
    """Compares this run's deterministic metrics with the recorded ones."""
    record = BUILD / "det" / source_digest() / f"{workload}-{seed}.json"
    if not record.is_file():
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(det, sort_keys=True))
        return True
    expected = json.loads(record.read_text())
    drift = [name for name in sorted(set(expected) | set(det))
             if expected.get(name) != det.get(name)]
    for name in drift:
        print(f"perfbench: deterministic metric {name} drifted: recorded "
              f"{expected.get(name)}, now {det.get(name)}", file=sys.stderr)
    return not drift


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans",
                str(BUILD / f"spans-{args.workload}-{args.seed}.csv")]
    # Faults stay disarmed and the simulator on its default path.
    env = {k: v for k, v in os.environ.items()
           if k not in ("RELFAB_FAULTS", "RELFAB_SIM_FAST_PATH", "RELFAB_FULL")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")

    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode} without a result")
    result = json.loads(lines[-1])
    det = {}
    for line in lines[:-1]:
        if line.startswith("DET "):
            det = {k: v["value"] for k, v in json.loads(line[4:]).items()}
        else:
            print(line)
    code = proc.returncode
    if not check_determinism(args.workload, args.seed, det):
        result["correct"] = False
        code = code or 1
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
