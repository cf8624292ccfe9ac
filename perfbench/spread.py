"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py --workload NAME [--workload NAME ...]
        [--runs 10] [--first-seed 1] [--seconds S] [--out FILE]

Runs ``run.py --trace 0`` once per seed and prints, per workload and
metric, the median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound in BENCHMARK.json.  ``--out`` keeps
every run's result line as JSON for comparing two sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    collected: dict[str, list[dict]] = {}
    for workload in args.workload:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                capture_output=True, text=True, timeout=180,
            )
            if done.returncode != 0:
                print(done.stdout[-2000:], done.stderr[-2000:])
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            collected.setdefault(workload, []).append(result)
            values = {k: round(v["value"], 4)
                      for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {values}", flush=True)
    for workload, results in collected.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"{workload:<11} {name:<12} median {mid:>10.4f} "
                  f"spread {(q3 - q1) / mid:>7.2%} bound {bound:.0%}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(collected, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
