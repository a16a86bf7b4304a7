#!/usr/bin/env python3
"""Runs the benchmark over several seeds and checks that it is steady.

For every workload and end-to-end metric it reports the median of the runs
and the spread (distance between the first and third quartile, as a share
of the median), and flags a spread above a third of the metric's bound.
It also checks stationarity from each run's report lines: the median
event_cost over the first halves of the runs' epochs and over the second
halves must agree within the event_cost bound, and on every run the
(deterministic) energy per event of the two halves must agree within the
energy_mj_per_event bound.

    python3 keybench/prove.py --seeds 1,2,3,4,5 --workloads fleet_churn
    python3 keybench/prove.py --seeds 1-10            # all workloads

Run it from the repository root. Exits non-zero if any check fails.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    took = time.time() - started
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    halves = {}
    for line in lines:
        m = re.search(r"stationarity (\S+) first_half=(\S+) second_half=(\S+)", line)
        if m:
            halves[m.group(1)] = (float(m.group(2)), float(m.group(3)))
    return result, halves, took


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: every workload in BENCHMARK.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        runs, cost_halves = [], []
        for seed in args.seeds:
            result, halves, took = run_once(command, workload, seed, seconds)
            if not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: incorrect")
            cost_halves.append(halves["event_cost"])
            first, second = halves["energy_mj_per_event"]
            energy_drift = second / first - 1
            steady = abs(energy_drift) <= bounds["energy_mj_per_event"]
            ok &= steady
            first_cost, second_cost = halves["event_cost"]
            print(f"{workload} seed {seed}: {took:.1f} s wall, "
                  f"event_cost halves {first_cost:.4f} / {second_cost:.4f}, "
                  f"energy drift {energy_drift:+.4f}{'' if steady else '  NOT STATIONARY'}",
                  flush=True)
            runs.append(result["metrics"])
        if len(runs) < 2:
            continue
        first = statistics.median(h[0] for h in cost_halves)
        second = statistics.median(h[1] for h in cost_halves)
        drift = second / first - 1
        steady = abs(drift) <= bounds["event_cost"]
        ok &= steady
        print(f"\n{workload}: {len(runs)} runs; median event_cost first half {first:.4f}, "
              f"second half {second:.4f}, drift {drift:+.4f}"
              f"{'' if steady else '  NOT STATIONARY'}")
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in runs]
            med, sp = spread(values)
            steady = sp <= bound / 3
            ok &= steady
            print(f"  {name:24s} median {med:14.6g}  spread {sp:7.4f}  bound {bound:5.3f}"
                  f"{'' if steady else '  TOO WIDE'}")
        print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
