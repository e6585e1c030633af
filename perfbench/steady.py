#!/usr/bin/env python3
"""Run one workload K times and report how steady each metric is.

    python3 perfbench/steady.py --workload durable_stream --runs 10
    python3 perfbench/steady.py --workload tiny_stream --runs 5 --seed0 100

Each run uses its own seed (seed0, seed0+1, ...). For every metric it
prints the median, the quartiles (statistics.quantiles, n=4), the
interquartile spread as a share of the median, and min/max. With the
default --bounds BENCHMARK.json it also prints each end-to-end metric's
bound and whether the spread stays below a third of it. It records the
machine's nproc and each run's ASPEN_WORKERS, server workers and seed.
--json writes the raw values; --against reads such a file and reports, per
metric, how far this set's median moved from that set's median, in the
metric's worse direction, against its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"run failed (seed {seed}):\n{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().split("\n")
    config = {}
    for line in lines:
        if line.startswith("# config "):
            config = json.loads(line[len("# config "):])
    return json.loads(lines[-1]), config, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from --bounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--bounds", default=os.path.join(ROOT, "BENCHMARK.json"))
    ap.add_argument("--json", help="write the raw values here")
    ap.add_argument("--against", help="compare medians with a --json file")
    args = ap.parse_args()

    bench = {}
    if os.path.exists(args.bounds):
        with open(args.bounds) as f:
            bench = json.load(f)
    seconds = args.seconds or bench.get("run_seconds", 10)
    bounds = {m["name"]: m.get("bound") for m in bench.get("end_to_end", [])}
    better = {m["name"]: m["better"] for m in bench.get("end_to_end", [])}

    values, walls, configs = {}, [], []
    for i in range(args.runs):
        seed = args.seed0 + i
        result, config, wall = run_once(args.workload, seed, seconds,
                                        args.trace)
        walls.append(wall)
        configs.append(config)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"wall={wall:.1f}s aspen_workers={config.get('aspen_workers')} "
              f"server_workers={config.get('server_workers')}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    c = configs[0] if configs else {}
    print(f"\nworkload={args.workload} runs={args.runs} seconds={seconds} "
          f"trace={args.trace} nproc={c.get('nproc')} "
          f"aspen_workers={c.get('aspen_workers')} "
          f"server_workers={c.get('server_workers')} "
          f"seeds={args.seed0}..{args.seed0 + args.runs - 1} "
          f"wall_max={max(walls):.1f}s")
    print(f"{'metric':34} {'median':>13} {'q1':>13} {'q3':>13} "
          f"{'spread':>7} {'min':>13} {'max':>13}  bound")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], 0, vals[0]))
        spread = (q3 - q1) / med if med else 0.0
        note = ""
        if bounds.get(name) is not None:
            ok = spread < bounds[name] / 3
            note = f"{bounds[name]:.2f} {'ok' if ok else 'TOO NOISY'}"
        print(f"{name:34} {med:13.4f} {q1:13.4f} {q3:13.4f} {spread:7.3f} "
              f"{min(vals):13.4f} {max(vals):13.4f}  {note}")
    if args.against:
        with open(args.against) as f:
            before = json.load(f)["values"]
        print(f"\n{'metric':34} {'before':>13} {'now':>13} "
              f"{'worse by':>9}  bound")
        for name, vals in values.items():
            if name not in before or name not in bounds:
                continue
            b, n = statistics.median(before[name]), statistics.median(vals)
            worse = ((n - b) if better[name] == "lower" else (b - n)) / b
            ok = worse <= bounds[name]
            print(f"{name:34} {b:13.4f} {n:13.4f} {worse:9.3f}  "
                  f"{bounds[name]:.2f} {'ok' if ok else 'REGRESSED'}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "configs": configs,
                       "values": values}, f, indent=1)


if __name__ == "__main__":
    main()
