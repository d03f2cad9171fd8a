"""One cold benchmark process: set up, run one workload once, print one JSON line.

Started by run.py with `python3 -I`, so nothing but the checkout's own
`src/pathideal` can be imported.  Set-up (interpreter start, `import
pathideal`, input generation, and in a traced run the wrappers) ends at
`t0`, a CLOCK_MONOTONIC reading comparable with the parent's spawn time.
The timed section, from the first call into pathideal to the checked result,
runs in pieces timed by a `workloads.Clock`; the calibration loops between
the pieces are not part of it.  The line reports the section's time as
measured (`raw_s`) and scaled to the reference host speed (`scaled_s`), and
the first calibration loop, run right after set-up, so that set-up can be
scaled the same way.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "small"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--parallelism", type=int, help="scan_default only")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tmp", required=True)
    args = parser.parse_args()

    sys.path[:0] = [SRC, HERE]
    import pathideal

    if os.path.dirname(os.path.dirname(os.path.abspath(pathideal.__file__))) != SRC:
        print(f"error: imported pathideal from {pathideal.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Clock

    prepare, run = WORKLOADS[args.workload]
    options = {} if args.parallelism is None else {"parallelism": args.parallelism}
    inputs = prepare(args.seed, args.scale, **options)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    t0 = time.monotonic_ns()
    clock = Clock()
    if args.setup_only:
        print(json.dumps({"t0": t0, "first_loop_s": clock.first_loop_s}))
        return 0
    result = run(pathideal, inputs, tracer, args.tmp, clock)

    counters = result.counters()
    out = {
        "t0": t0,
        "first_loop_s": clock.first_loop_s,
        "raw_s": clock.raw_s,
        "scaled_s": clock.scaled_s,
        "attempted": result.attempted,
        "failed": result.failed,
        "failures": result.failures,
        "counters": counters,
    }
    if tracer is not None:
        out["layers"], out["missing"] = tracing.layer_metrics(tracer, counters, args.workload)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
