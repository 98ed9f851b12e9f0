"""Repeat benchmark runs and record their medians and spreads.

    python3 perfbench/baseline.py --tag seed --runs 10   # from the repository root

For each workload, runs ``run.py`` ``--runs`` times with seeds 1..runs and
``--trace 0``, then once with ``--trace 1``.  For every end-to-end metric it
records each run's value, the median, the quartiles (``statistics.quantiles``
with n=4) and the spread, (q3 - q1) / median.  Writes
``perfbench/results/BENCH_<tag>.json``; an existing file is never
overwritten.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from machine import machine_record  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    out_path = os.path.join(HERE, "results", f"BENCH_{args.tag}.json")
    if os.path.exists(out_path):
        print(f"error: {out_path} exists; choose another tag", file=sys.stderr)
        return 2
    seconds = bench["run_seconds"]
    record = {"tag": args.tag, "note": args.note, "machine": machine_record(),
              "run_seconds": seconds, "runs": args.runs, "workloads": {}}
    for workload in args.workloads:
        results = [run_once(workload, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        traced = run_once(workload, 1, seconds, 1)
        end_to_end = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            end_to_end[name] = summarize([r["metrics"][name]["value"] for r in results])
            end_to_end[name]["unit"] = metric["unit"]
            print(f"{workload} {name}: median {end_to_end[name]['median']:.6g} "
                  f"{metric['unit']}, spread {end_to_end[name]['spread']:.4f} "
                  f"(bound {metric['bound']})", flush=True)
        record["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
