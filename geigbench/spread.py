"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the root of a checkout):

    python3 geigbench/spread.py <workload> <first seed> <runs>

Runs the command of BENCHMARK.json once per seed, one after another, each
for its run_seconds, and prints each metric's median and the distance
between its first and third quartiles (statistics.quantiles, n=4) as a share
of the median, next to its bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("first_seed", type=int)
    parser.add_argument("runs", type=int)
    args = parser.parse_args(argv)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    values, attempted, failed = {}, 0, 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(seconds), "--trace", "0"],
            check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        line = {n: m["value"] for n, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{n}={v:.4g}" for n, v in sorted(line.items())),
              flush=True)
        for n, v in line.items():
            values.setdefault(n, []).append(v)
    print(f"{args.workload}: {args.runs} runs, failed {failed}/{attempted}")
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print(f"  {metric['name']:12s} median {med:10.4f} {metric['unit']:3s} "
              f"spread {(q3 - q1) / med:.4f}  bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
