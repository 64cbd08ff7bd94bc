#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs one workload on several seeds
and reports each end-to-end metric's quartile spread against its bound.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--first-seed 1]

For every end-to-end metric it prints the median, the quartiles and the
spread (q3 − q1) / median, as `statistics.quantiles(values, n=4)` gives
them. A metric is steady when its spread is below a third of its bound
(`setup_s` is exempt). It then re-runs the first seed untraced and traced:
all three runs of that seed must print the same record digest and the same
simulated metrics. Exits non-zero when anything fails.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIMULATED = ("miss_ratio", "mean_fidelity")


def quartile_spread(values):
    """(q3 − q1) / median of `values`, with Python's default quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def digests(stdout):
    """Every record digest a run printed (one per pass)."""
    return re.findall(r"^# records \(\w+\): .* digest ([0-9a-f]+),", stdout, re.M)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.rstrip("\n").split("\n")[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: incorrect or failed ops:\n{out}")
    return result, digests(out)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]

    values = {m["name"]: [] for m in bench["end_to_end"]}
    first = None
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, digest = run(args.workload, seed, seconds, 0)
        first = first or (result, digest)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)

    steady = True
    print(f"{'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = quartile_spread(v)
        ok = m["name"] == "setup_s" or spread < m["bound"] / 3
        steady &= ok
        print(f"{m['name']:<22}{statistics.median(v):>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{spread:>9.4f}{m['bound']:>7}{'' if ok else '  NOT STEADY'}")

    again, digest_again = run(args.workload, args.first_seed, seconds, 0)
    _, digest_traced = run(args.workload, args.first_seed, seconds, 1)
    seen = set(first[1] + digest_again + digest_traced)
    same_sim = all(again["metrics"][n]["value"] == first[0]["metrics"][n]["value"] for n in SIMULATED)
    print(f"seed {args.first_seed} record digests across untraced, repeated and traced runs: {sorted(seen)}")
    if len(seen) != 1 or not same_sim:
        print("record digests or simulated metrics disagree between runs of one seed")
        steady = False
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
