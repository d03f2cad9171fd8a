"""Run the benchmark over several seeds and print every metric by name, with its unit.

    python3 perfbench/report.py                    # BENCHMARK.json's workloads, 10 seeds
    python3 perfbench/report.py --runs 5 --workloads fuzz_roundtrip
    python3 perfbench/report.py --runs 2 --trace   # per-layer metrics

Each run is one `perfbench/run.py` invocation at the `run_seconds` of
BENCHMARK.json.  Untraced runs use seeds 1..runs; traced runs all use seed 1
and print every per-layer metric the workload produces, declared in
BENCHMARK.json or not.  For every end-to-end metric the table gives
the median over runs, the quartiles, and their spread (q3 - q1) / median next
to the metric's bound, which is how run-to-run steadiness is judged; it also
gives the samples pooled over runs and, where there are enough of them, the
highest percentile with at least ten samples beyond it.  Below the metrics,
`wall_s_raw` and `setup_s_raw` give the same times as measured, before they
are scaled to the reference host speed.  The last line of
stdout is every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WORKLOADS, tail_percentile  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

RAW_TIMES = ("wall_s_raw", "setup_s_raw")


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    """Median, quartiles and (q3 - q1) / median of a run-to-run series."""
    if len(values) == 1:
        return values[0], values[0], values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return q1, median, q3, (q3 - q1) / median if median else 0.0


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    everything = {}
    for workload in args.workloads:
        runs = []
        for index in range(args.runs):
            # traced runs share one seed, so that their counts must repeat exactly
            seed = 1 if args.trace else index + 1
            detail, result = run_once(workload, seed, bench["run_seconds"], args.trace)
            runs.append({"detail": detail, "result": result})
            print(f"# {workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} load={detail['loadavg_start']}",
                  file=sys.stderr, flush=True)
        everything[workload] = runs
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, failed_ratio {failed / attempted:.4g} "
              f"({failed} failed of {attempted} checks), "
              f"all correct: {all(r['result']['correct'] for r in runs)}")
        if args.trace:
            metrics = [{"name": name, "unit": unit} for name, unit, _, _ in PER_LAYER]
            measured = [{**r["detail"]["layers"], **r["result"]["metrics"]} for r in runs]
        else:
            # the end-to-end times as measured, before scaling to the reference host speed
            metrics = bench["end_to_end"] + [{"name": name, "unit": "s"} for name in RAW_TIMES]
            measured = [
                {**r["result"]["metrics"], **{name: {"value": r["detail"][name]["median"]} for name in RAW_TIMES}}
                for r in runs
            ]
        print(f"  {'metric':<40} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}  pooled samples, tail")
        for metric in metrics:
            values = [m[metric["name"]]["value"] for m in measured if metric["name"] in m]
            if not values:
                missing = any(metric["name"] in r["detail"].get("missing", ()) for r in runs)
                print(f"  {metric['name']:<40} {'missing' if missing else 'not measured by this workload'}")
                continue
            q1, median, q3, rel = spread(values)
            line = (f"  {metric['name']:<40} {metric['unit']:<6} {median:>12.6g} {q1:>12.6g} "
                    f"{q3:>12.6g} {rel:>7.3f} {metric.get('bound', ''):>6}")
            if metric["unit"] == "count":
                line += "  repeats exactly" if len(set(values)) == 1 else "  DIFFERS between runs"
            if metric["name"] == "setup_s":
                pooled = [v for r in runs for v in r["detail"]["setup_samples"]]
            else:
                pooled = [s[metric["name"]] for r in runs for s in r["detail"].get("samples", []) if metric["name"] in s]
            if pooled:
                tail = tail_percentile(pooled)
                line += f"  {len(pooled)}" + (f", p{tail['p']:g}={tail['value']:.6g}" if tail else "")
            print(line)
    print(json.dumps(everything))
    return 0


if __name__ == "__main__":
    sys.exit(main())
