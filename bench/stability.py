"""Run-to-run spread of the end-to-end metrics.

    python3 bench/stability.py [--runs 10] [--first-seed 1] [--seconds 20] [workload ...]

Runs `bench/run.py --trace 0` once per seed (first-seed, first-seed + 1, ...)
on each workload, one run at a time, and prints per metric the median, the
quartiles (`statistics.quantiles(values, n=4)`), the quartile spread as a
share of the median and the bound from BENCHMARK.json, and the same spread
for the raw (not rescaled) round wall time.  Any failed operation or
incorrect run is reported too.  Every run's metrics, raw wall times, probe
times and verdict times go to bench-stability-<workload>.json in the current
directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args()
    for workload in args.workloads:
        values = {m["name"]: [] for m in SPEC["end_to_end"]}
        shares = set()
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{proc.stderr}")
            shares.add(f"{result['failed']}/{result['attempted']}")
            detail = json.loads(Path(f"bench-result-{workload}.json").read_text())
            runs.append({"seed": seed, "result": result,
                         "raw_wall_s": [r["wall_s"] for r in detail["rounds"]],
                         "probe_s": [r["round_probe_s"] for r in detail["rounds"]],
                         "verdict_s": [v[1] for r in detail["rounds"] for v in r["verdicts"]]})
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.runs} runs, failed/attempted {sorted(shares)}")
        for m in SPEC["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            print(f"  {m['name']:15s} median {med:10.4f} {m['unit']:3s} q1 {q1:10.4f} "
                  f"q3 {q3:10.4f} spread {(q3 - q1) / med:6.3f} bound {m['bound']}")
        raw = [statistics.median(r["raw_wall_s"]) for r in runs]
        q1, med, q3 = statistics.quantiles(raw, n=4)
        print(f"  {'raw wall':15s} median {med:10.4f} s   q1 {q1:10.4f} "
              f"q3 {q3:10.4f} spread {(q3 - q1) / med:6.3f}")
        Path(f"bench-stability-{workload}.json").write_text(json.dumps(runs) + "\n")


if __name__ == "__main__":
    main()
