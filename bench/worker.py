"""One cold-started benchmark process: set-up, then optionally one round.

    python3 bench/worker.py --workload W --seed N --mode setup|run [--trace]

It imports liepq, builds the seeded inputs and stamps `time.monotonic()`
(CLOCK_MONOTONIC, shared by every process of the machine) just before the
first certificate call, so the parent can time set-up from process start.
It then times the speed probe a few times, for the parent to rescale the
set-up time to the reference speed.  With --mode run it then executes one
round.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time


SETUP_PROBES = 9


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import liepq
    import liepq.cli  # noqa: F401  (the verify entry point; traced like the rest)

    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    out = {"ready": time.monotonic()}
    out["probe_s"] = statistics.median(workloads.time_probe()[1] for _ in range(SETUP_PROBES))
    if args.mode == "run":
        rnd = workloads.Round(args.seed)
        tracer = None
        if args.trace:
            from layers import Tracer

            tracer = Tracer(rnd.clock)
            tracer.install()
        with rnd.probing():
            workloads.RUNNERS[args.workload](liepq, inputs, rnd)
        out.update(
            wall_s=rnd.wall_s,
            wall_ref_s=rnd.wall_ref_s(),
            round_probe_s=statistics.median(t for _, t in rnd.probes),
            verdicts=rnd.verdicts,
            maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if tracer is not None:
            out["trace"] = tracer.summary()
            out["missing_layers"] = tracer.missing(args.workload)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
