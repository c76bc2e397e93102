#!/usr/bin/env python3
"""Build and run latr-sim's benchmark (see README.md beside this file).

From the repository root:

  python3 latrbench/run.py --workload serve --seed 1 --seconds 10 --trace 0
  python3 latrbench/run.py --self-test

The first call configures and builds latrbench/ (which compiles
../src) into .bench_build/latrbench; later calls rebuild only what
changed. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. The exit status is
the benchmark's: nonzero when a check failed or the build failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "latrbench")
WORKLOADS = ["serve", "bigbox", "lazycache", "fuzz"]
# A run is its --seconds budget plus at most one round past it.
RUN_GRACE_S = 150


def build(targets):
    """Configure and build @targets; build logs go to stderr."""
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"]
                   + targets, stdout=sys.stderr, check=True)


def git_sha():
    """HEAD of the checkout, or "none" when it is not a git work tree
    of its own (an enclosing repository's HEAD would mislead)."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "none"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def src_digest():
    """SHA-256 over src/'s paths and bytes: provenance without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for d, dirs, files in os.walk(src):
        dirs.sort()
        for f in sorted(files):
            path = os.path.join(d, f)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def run_bench(args, capture=False):
    """Run the benchmark binary; returns the CompletedProcess."""
    cmd = [os.path.join(BUILD_DIR, "latrbench")] + args + [
        "--git-sha", git_sha(), "--src-digest", src_digest()]
    seconds = int(args[args.index("--seconds") + 1])
    return subprocess.run(cmd, timeout=seconds + RUN_GRACE_S,
                          capture_output=capture, text=True)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def self_test():
    """Unit tests, the injected-fault run, and the result contract."""
    build(["latrbench", "latrbench_tests"])
    ok = subprocess.run([os.path.join(BUILD_DIR, "latrbench_tests")],
                        timeout=300).returncode == 0

    # The checks must be able to fail: a broken LATR sweep has to
    # raise failed_frac and the exit status.
    proc = run_bench(["--workload", "fuzz", "--seed", "1", "--seconds",
                      "1", "--trace", "0", "--inject-skip-latr-sweep"],
                     capture=True)
    res = result_line(proc)
    frac = res["failed"] / res["attempted"]
    print(f"self-test: injected fault: exit {proc.returncode}, "
          f"failed_frac {frac:.3f}")
    ok &= proc.returncode != 0 and frac > 0 and not res["correct"]

    # Every workload prints exactly BENCHMARK.json's metrics, with
    # their units, and passes its checks.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in WORKLOADS:
            proc = run_bench(["--workload", w, "--seed", "1", "--seconds",
                              "1", "--trace", str(trace)], capture=True)
            res = result_line(proc)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            good = (proc.returncode == 0 and res["correct"]
                    and res["failed"] == 0 and got == want)
            print(f"self-test: {w} --trace {trace}: "
                  f"{'ok' if good else 'FAILED'}")
            ok &= good
    print("self-test: " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    try:
        if a.self_test:
            return self_test()
        if a.workload is None:
            ap.error("--workload is required")
        build(["latrbench"])
        return run_bench(["--workload", a.workload, "--seed", str(a.seed),
                          "--seconds", str(a.seconds), "--trace",
                          str(a.trace)]).returncode
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"latrbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
