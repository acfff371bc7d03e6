#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

Runs the command of BENCHMARK.json on each workload with ten seeds, twice
(two A/A sets), and prints per workload and metric: both medians, both
spreads (interquartile distance as a share of the median, from
statistics.quantiles(values, n=4)), and the shift of the second median
against the first in the metric's worse direction -- each beside the
metric's bound. Exits 1 if a spread (setup_s excepted) or a shift exceeds
its bound.

    python3 bench_pipeline/spread.py [--sets 2] [--seeds 10] [--first-seed 1]
                                     [--values] [--workload NAME ...]

Run it from the repo root. It builds through cargo like the driver does;
set CARGO_TARGET_DIR to keep the build out of the tree.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    t0 = time.time()
    out = subprocess.run(argv, capture_output=True, text=True)
    wall = time.time() - t0
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their check: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()

    contract = json.load(open("BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in contract["workloads"]]
    metrics = contract["end_to_end"]
    seconds = contract["run_seconds"]

    # sets[s][workload][metric] -> values over seeds
    sets, walls = [], []
    for s in range(args.sets):
        data = {w: {m["name"]: [] for m in metrics} for w in workloads}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            for w in workloads:
                values, wall = run(contract["command"], w, seed, seconds)
                walls.append(wall)
                for name, v in values.items():
                    data[w][name].append(v)
            print(f"set {s + 1} seed {seed} done", file=sys.stderr)
        sets.append(data)

    bad = 0
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<22} {'bound':>6} " + " ".join(
            f"{'median' + str(i + 1):>14} {'spread' + str(i + 1):>8}" for i in range(args.sets)
        ) + f" {'shift':>8}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = [statistics.median(s[w][name]) for s in sets]
            sprs = [spread(s[w][name]) for s in sets]
            shift = 0.0
            if len(meds) > 1 and meds[0]:
                shift = (meds[1] - meds[0]) / abs(meds[0])
                if m["better"] == "higher":
                    shift = -shift
            flags = ""
            if name != "setup_s" and max(sprs) > bound:
                flags += " SPREAD>BOUND"
                bad += 1
            elif name != "setup_s" and max(sprs) > bound / 3:
                flags += " spread>bound/3"
            if shift > bound:
                flags += " SHIFT>BOUND"
                bad += 1
            print(f"  {name:<22} {bound:>6.2f} " + " ".join(
                f"{md:>14.4f} {sp:>8.4f}" for md, sp in zip(meds, sprs)
            ) + f" {shift:>+8.4f}{flags}")
            if args.values:
                for i, s in enumerate(sets):
                    print(f"      set {i + 1}: " + " ".join(f"{v:.6g}" for v in s[w][name]))
    print(f"\n{len(walls)} runs, wall per run: median {statistics.median(walls):.1f} s, "
          f"max {max(walls):.1f} s, total {sum(walls):.0f} s")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
