#!/usr/bin/env python3
"""Build and run the fleet benchmark; print one JSON result line last.

    python3 perfbench/run.py --workload warm_saturated --seed 1 \
        --seconds 30 --trace 0

Run it from the root of a source checkout. It configures and builds
perfbench/ (which compiles the simulator from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
the fleet_bench binary. Everything the binary prints is passed through;
the machine record follows, and the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exits non-zero, without a result line, when the sources are missing,
the build fails or the binary does not produce a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure once, then build incrementally; log to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "fleet_bench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out_dir, "fleet_bench")


def source_digest():
    """sha256 over the simulator and benchmark sources (the checkout
    may not be a git repository, so this names the code measured)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="warm_saturated, cold_churn or chain_nipc")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "simulation.hh")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))

    t0 = time.monotonic()
    binary = build(build_dir())
    build_s = time.monotonic() - t0

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("fleet_bench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    result_lines = [l for l in lines if l.startswith("RESULT ")]
    if proc.returncode != 0 or len(result_lines) != 1:
        sys.stdout.write(proc.stdout)
        fail("fleet_bench exited %d without a result" % proc.returncode)
    for line in lines:
        if not line.startswith("RESULT "):
            print(line)

    raw = json.loads(result_lines[0][len("RESULT "):])
    machine = dict(raw.get("machine", {}))
    machine["git_commit"] = git_commit()
    machine["source_sha256"] = source_digest()
    machine["build_s"] = round(build_s, 3)
    print("machine: " + json.dumps(machine, sort_keys=True))
    result = {key: raw[key] for key in RESULT_KEYS}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
