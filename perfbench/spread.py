#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload paper-mix --seeds 1-10 [--seconds 25] [--trace 0]

Run from the repository root. For every metric of the final JSON line it
prints the median, the quartiles (Python's statistics.quantiles, n=4) and
the spread: the distance between the quartiles as a share of the median.
That is how a metric's spread is compared with its bound in
BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys

COMMAND = ["cargo", "run", "--quiet", "--release", "--offline",
           "--manifest-path", "perfbench/Cargo.toml", "--"]


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    values = {}
    for seed in seeds(args.seeds):
        cmd = COMMAND + ["--workload", args.workload, "--seed", str(seed),
                         "--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        result = json.loads(last)
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect result: {last}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), flush=True)
    print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:<36} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f}")


if __name__ == "__main__":
    main()
