"""The liepq benchmark runner.

    python3 bench/run.py --workload deform-grid|module-certs|verify-cli \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Every round runs in a fresh Python process
(`bench/worker.py`, with LIEPQ_THREADS=1 and liepq imported from `src/`),
the cold start a `liepq` user pays.  The runner first times set-up in nine
set-up-only processes, then runs whole rounds while another round still
fits in S seconds (always at least one).

--trace 0 prints the end-to-end metrics: wall_ref_s (median over rounds of
the time spent in liepq calls, rescaled to the reference speed of the
benchmark's speed probe, see workloads.py), peak_rss_mb (median over rounds)
and setup_s (median over every process, rescaled the same way); every
verdict's time, the raw wall times and the probe times are in the result
file.  --trace 1 runs one untraced and one traced round and prints the
per-layer metrics with the tracing overhead and coverage.  The last line of
stdout is one JSON object; details go to bench-result-<workload>.json or
bench-trace-<workload>.json in the current directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REF_PROBE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SETUP_PROCESSES = 9
RUN_LIMIT_S = 170  # every child is stopped before the run exceeds this


class BenchError(Exception):
    pass


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("deform-grid", "module-certs", "verify-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def child(args, mode, deadline, trace=False):
    """Run one worker process to its end; returns (spawn stamp, its JSON)."""
    env = dict(os.environ, LIEPQ_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode] + (["--trace"] if trace else [])
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker ({mode}) overran the run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def untraced(args, deadline):
    start = time.monotonic()
    setups = []  # (raw seconds, seconds at the reference speed)

    def set_up(mode):
        spawned, out = child(args, mode, deadline)
        raw = out["ready"] - spawned
        setups.append((raw, raw * REF_PROBE_S / out["probe_s"]))
        return out

    for _ in range(SETUP_PROCESSES):
        set_up("setup")
    rounds = []
    while True:
        round_start = time.monotonic()
        rounds.append(set_up("run"))
        took = time.monotonic() - round_start
        if time.monotonic() - start + took > args.seconds:
            break
    verdicts = [v for r in rounds for v in r["verdicts"]]
    metrics = {
        "wall_ref_s": statistics.median(r["wall_ref_s"] for r in rounds),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in rounds),
        "setup_s": statistics.median(ref for _, ref in setups),
    }
    detail = {"setups_s": setups, "rounds": rounds}
    return verdicts, metrics, detail


def traced(args, deadline):
    _, plain = child(args, "run", deadline)
    _, out = child(args, "run", deadline, trace=True)
    if out["missing_layers"]:
        raise BenchError("traced run recorded no call in required layers: "
                         + ", ".join(out["missing_layers"]))
    trace = out["trace"]
    metrics = dict(trace["metrics"])
    metrics["trace.overhead_s"] = out["wall_ref_s"] - plain["wall_ref_s"]
    metrics["trace.coverage"] = trace["covered_s"] / out["wall_s"]
    detail = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": out["wall_s"],
              "untraced_wall_ref_s": plain["wall_ref_s"], "traced_wall_ref_s": out["wall_ref_s"],
              "site_calls": trace["site_calls"], "metrics": metrics}
    return plain["verdicts"] + out["verdicts"], metrics, detail


def main():
    args = parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "liepq" / "__init__.py").is_file():
        print(f"error: no liepq sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    # compile once, so no measured process pays for writing bytecode
    compileall.compile_dir(str(SRC), quiet=1)
    try:
        if args.trace:
            verdicts, values, detail = traced(args, deadline)
            wanted = spec["per_layer"]
        else:
            verdicts, values, detail = untraced(args, deadline)
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    failed = [v for v in verdicts if v[2]]
    kind = "trace" if args.trace else "result"
    detail.update(workload=args.workload, seed=args.seed, failed=failed)
    Path(f"bench-{kind}-{args.workload}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for label, _, problems in failed[:5]:
        print(f"FAILED {label}: {problems}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
