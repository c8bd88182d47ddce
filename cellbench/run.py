#!/usr/bin/env python3
"""Build cellbench from this checkout's sources and run one workload.

    python3 cellbench/run.py --workload <stream|percall|serve> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
cellport libraries plus the cellbench binary into .bench_build/ (a few
minutes); later runs only re-check the build. The binary's stdout is
passed through, so the last line is its JSON result. Exits non-zero when
a result disagrees with the oracle (the result line then reads
"correct": false), and without a result line when the build or the run
fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "cellbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"cellbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the binary; holds a lock so two runs
    in one checkout never build over each other."""
    os.makedirs(WORK, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # The Makefile appears only after a configure step succeeded.
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Unix Makefiles",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "cellbench",
                  "-j", jobs])
    with open(os.path.join(WORK, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            res = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True)
            if res.returncode != 0:
                sys.stderr.write(res.stdout[-4000:])
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "cellbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["stream", "percall", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK]
    start = time.monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(out)
        fail(f"no result line (exit code {proc.returncode})")
    sys.stdout.write(out)
    sys.stdout.flush()
    print(f"cellbench/run.py: {args.workload} run took "
          f"{time.monotonic() - start:.1f} s", file=sys.stderr)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
