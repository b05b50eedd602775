"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/stability.py --workloads census-n6,sweep-n7 --seeds 1-10

Every run is ``run.py --trace 0`` with BENCHMARK.json's run_seconds.
Each run's metrics are printed with their units, and its failed_ratio
(failed over attempted operations).  For every workload and end-to-end
metric this then prints the median of the runs and the distance between their first and third quartiles as a share of the
median (``statistics.quantiles(values, n=4)``), the spread a bound in
BENCHMARK.json has to cover.  Every run's result line is appended to
``perfbench/out/stability.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = run.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(run.OUT_DIR, exist_ok=True)
    log = os.path.join(run.OUT_DIR, "stability.jsonl")
    status = 0
    for workload in args.workloads.split(","):
        rows = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=run.ROOT, capture_output=True, text=True, timeout=900,
            )
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not line.startswith("{"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(line)
            with open(log, "a") as out:
                out.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"] or result["failed"]:
                status = 1
            rows.append(result["metrics"])
            failed_ratio = result["failed"] / result["attempted"]
            print(f"{workload} seed {seed}: failed_ratio={failed_ratio:.4g} 1, " + ", ".join(
                f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()),
                flush=True)
        if len(rows) < 2:
            continue
        for name in rows[0]:
            values = [row[name]["value"] for row in rows]
            share = spread(values)
            bound = bounds[name]
            mark = "" if share < bound / 3 else "  <-- over a third of the bound"
            print(f"  {workload} {name}: median {statistics.median(values):.5g}, "
                  f"spread {share:.4f} (bound {bound}){mark}")
    return status


if __name__ == "__main__":
    sys.exit(main())
