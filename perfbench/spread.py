#!/usr/bin/env python3
"""Run-to-run spread of the hmr benchmark.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--seconds N] [--first-seed 1]

Runs perfbench/run.py once per seed on each workload (tracing off) and
prints, per end-to-end metric, the median and the spread: the distance
between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)).  A spread must stay within the
metric's bound to be trusted; aim for a third of it.  Exits 1 if any
run fails or any spread (setup_s excepted) exceeds its bound.
"""

import argparse
import json
import os
import subprocess
import sys

import benchstats
import run as bench

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bad = False
    for w in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=bench.ROOT)
            res = json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else None
            if not res or not res["correct"]:
                print("%s seed %d: FAILED (exit %d) %s" % (w, seed, out.returncode,
                                                          out.stdout[-400:]))
                bad = True
                continue
            for k in values:
                values[k].append(res["metrics"][k]["value"])
        print("%s (%d seeds, %g s each)" % (w, args.seeds, seconds))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            s = benchstats.iqr_share(v)
            flag = "ok" if s <= m["bound"] / 3 else ("WIDE" if s <= m["bound"] else "OVER")
            if flag == "OVER" and m["name"] != "setup_s":
                bad = True
            print("  %-16s median %14.6g %-5s spread %6.3f bound %4.2f %s" % (
                m["name"], benchstats.median(v), m["unit"], s, m["bound"], flag))
        sys.stdout.flush()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
