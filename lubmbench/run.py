#!/usr/bin/env python3
"""Builds the benchmark from the enclosing source tree and runs it.

    python3 lubmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 lubmbench/run.py --self-test

The build goes to .bench_build/lubmbench at the program's default build
type; build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Traces and the per-seed simulated-counter records
go to .bench_out/<hash of the benchmark binary>, so records of different
builds are never compared. With --trace 0, setup_s is the median of
SAMPLES cold set-ups, each timed from the start of its own process, and so
is reload_ms outside serve_churn: the run itself and SAMPLES - 1 processes
that stop after set-up and re-loads each give one value.
Exits non-zero without a result when the build or the run fails.
"""
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "lubmbench")
BINARY = os.path.join(BUILD, "lubmbench")
OUT = os.path.join(ROOT, ".bench_out")
SAMPLES = 5


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "lubmbench",
                  "lubmbench_test", "--", "-j4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def build_id():
    digest = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    if not build():
        print("lubmbench: build failed", file=sys.stderr)
        return 1
    if sys.argv[1:] == ["--self-test"]:
        return subprocess.run([os.path.join(BUILD, "lubmbench_test")]).returncode
    out = os.path.join(OUT, build_id())
    os.makedirs(out, exist_ok=True)
    cmd = [BINARY] + sys.argv[1:] + ["--out", out]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    result = last_json(run.stdout) if run.returncode == 0 else None
    if result is None:
        sys.stdout.write(run.stdout)
        return run.returncode or 1
    metrics = result["metrics"]
    if "setup_s" in metrics:
        samples = {}
        for _ in range(SAMPLES - 1):
            setup = subprocess.run(cmd + ["--setup-only", "1"],
                                   stdout=subprocess.PIPE, text=True)
            if setup.returncode:
                print("lubmbench: set-up run failed", file=sys.stderr)
                return 1
            for name, value in last_json(setup.stdout).items():
                samples.setdefault(name, [metrics[name]["value"]]).append(value)
        for name, values in samples.items():
            print(name, "samples:", values, file=sys.stderr)
            metrics[name]["value"] = statistics.median(values)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
