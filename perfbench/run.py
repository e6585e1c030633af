#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload tiny_stream --seed 1 --seconds 10 --trace 0

Builds perfbench/ (and the library it includes) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to
the repository root), runs the benchmark binary in a scratch directory
under that build directory, and prints its output. The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def out_dir():
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return out if os.path.isabs(out) else os.path.join(ROOT, out)


def build():
    """Configure once, then build incrementally; returns the binary path."""
    bdir = os.path.join(out_dir(), "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "--target", "aspen_perf",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "aspen_perf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    work = os.path.join(out_dir(), "work", f"{args.workload}-{os.getpid()}")
    traces = os.path.join(out_dir(), "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", work]
    if args.trace:
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        result = None
    if proc.returncode != 0 or result is None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"benchmark failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
