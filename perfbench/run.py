"""pathideal benchmark: one workload, measured in fresh processes started one at a time.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Every sample is a cold `python3 -I perfbench/child.py` process, because the
package keeps process-wide caches (`path_power`, `ind_ideal`,
`predicted_ass`) that a warm process would reuse.

--trace 0 reports the end-to-end metrics: `wall_s` (median time of the timed
section), `setup_s` (median time from spawning a process to the start of its
timed section, over the samples and two set-up-only processes started before
each sample) and `peak_rss_mb` (median peak resident memory, each from
`os.wait4` of that one process).  Both times are scaled to the reference
host speed by the calibration loop of `workloads.Clock`, run in the same
process right before and after each timed piece (for set-up, right after
it); the detail line also has them as measured.  Samples are taken while the
next one is expected to end within --seconds, and at least one is always
taken.

--trace 1 alternates untraced and traced processes in the same way.  The
result reports the per-layer metrics that BENCHMARK.json declares, from the
first traced process, plus `bench.trace_overhead_ratio`; the detail line has
every per-layer metric the workload produces.  Every traced process must
repeat the first one's counts.

Every output of the program is checked; a failed check is counted in
`failed` out of `attempted` (failed_ratio = failed / attempted, the base being
all checks of all processes of the run).  The last line of stdout is the
result object; the line before it carries the samples and run metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import workloads
from workloads import REFERENCE_LOOP_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

SETUP_PROBES_PER_SAMPLE = 2
CHILD_TIMEOUT_S = 150
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
WORKLOADS = tuple(workloads.WORKLOADS)


class ChildFailed(RuntimeError):
    pass


def spawn(workload, seed, tmp_dir, *, scale="full", trace=0, setup_only=False, parallelism=None):
    """Run one cold child process; returns its JSON with wall, set-up and RSS added."""
    cmd = [
        sys.executable, "-I", CHILD,
        "--workload", workload, "--seed", str(seed), "--scale", scale,
        "--trace", str(trace), "--tmp", tempfile.mkdtemp(dir=tmp_dir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if parallelism is not None:
        cmd += ["--parallelism", str(parallelism)]
    spawned = time.monotonic_ns()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} child exited with {proc.returncode}")
    sample = json.loads(out.decode().strip().splitlines()[-1])
    sample["setup_s_raw"] = (sample["t0"] - spawned) / 1e9
    sample["setup_s"] = sample["setup_s_raw"] * REFERENCE_LOOP_S / sample["first_loop_s"]
    sample["peak_rss_mb"] = usage.ru_maxrss / 1024
    if not setup_only:
        sample["wall_s_raw"] = sample["raw_s"]
        sample["wall_s"] = sample["scaled_s"]
    return sample


def take_while_time(deadline, take):
    """Call take() until the next call is expected to end past the deadline (at least once)."""
    durations = []
    while True:
        start = time.monotonic()
        take()
        durations.append(time.monotonic() - start)
        if time.monotonic() + statistics.median(durations) > deadline:
            return


def tail_percentile(values):
    """The highest of p50..p99.9 with at least ten samples beyond it, or None."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (100.0 - p) / 100.0 >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            return {"p": p, "value": cuts[round(p * 10) - 1]}
    return None


def summary(values):
    return {"median": statistics.median(values), "samples": len(values), "tail": tail_percentile(values)}


def git_revision():
    """The checkout's commit, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
            # never report the commit of a repository that merely contains the checkout
            env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def metadata(args):
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            loadavg = fh.read().split()[:3]
    except OSError:
        loadavg = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": args.workload in workloads.SEEDED,
        "scale": args.scale,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "loadavg_start": loadavg,
    }


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def count_metrics(layers):
    return {name: m["value"] for name, m in layers.items() if m["unit"] == "count"}


def measure_untraced(args, tmp_dir):
    def sample():
        # set-up-only processes are spread over the run, next to the samples
        for _ in range(SETUP_PROBES_PER_SAMPLE):
            setups.append(spawn(args.workload, args.seed, tmp_dir, scale=args.scale, setup_only=True))
        samples.append(spawn(args.workload, args.seed, tmp_dir, scale=args.scale))
        setups.append(samples[-1])

    samples, setups = [], []
    take_while_time(time.monotonic() + args.seconds, sample)
    values = {
        "wall_s": [s["wall_s"] for s in samples],
        "setup_s": [s["setup_s"] for s in setups],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
    }
    metrics = {name: {"value": statistics.median(values[name]), "unit": unit} for name, unit in END_TO_END}
    detail = {name: summary(v) for name, v in values.items()}
    detail["wall_s_raw"] = summary([s["wall_s_raw"] for s in samples])
    detail["setup_s_raw"] = summary([s["setup_s_raw"] for s in setups])
    detail["counters"] = samples[0]["counters"]
    detail["samples"] = [{name: s[name] for name in ("wall_s", "wall_s_raw", "peak_rss_mb")} for s in samples]
    detail["setup_samples"] = values["setup_s"]
    return metrics, samples, detail


def measure_traced(args, tmp_dir):
    plain, traced = [], []

    def pair():
        plain.append(spawn(args.workload, args.seed, tmp_dir, scale=args.scale))
        traced.append(spawn(args.workload, args.seed, tmp_dir, scale=args.scale, trace=1))

    take_while_time(time.monotonic() + args.seconds, pair)
    first = traced[0]
    # the result carries the per-layer metrics BENCHMARK.json declares; the
    # detail line carries every one this workload produces
    declared = {m["name"] for m in load_benchmark()["per_layer"]}
    metrics = {name: m for name, m in first["layers"].items() if name in declared}
    metrics["bench.trace_overhead_ratio"] = {
        "value": statistics.median(s["wall_s"] for s in traced) / statistics.median(s["wall_s"] for s in plain),
        "unit": "ratio",
    }
    # every later traced process must repeat the first one's counts exactly
    repeats = [count_metrics(s["layers"]) == count_metrics(first["layers"]) for s in traced[1:]]
    detail = {
        "wall_s_untraced": summary([s["wall_s"] for s in plain]),
        "wall_s_traced": summary([s["wall_s"] for s in traced]),
        "layers": first["layers"],
        "missing": first["missing"],
        "count_repeats": repeats,
    }
    return metrics, plain + traced, detail, repeats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="small: the self-test's scaled-down inputs")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "pathideal", "__init__.py")):
        print(f"error: no pathideal sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp_dir = tempfile.mkdtemp(dir=TMP_ROOT)
    meta = metadata(args)
    try:
        if args.trace:
            metrics, samples, detail, repeats = measure_traced(args, tmp_dir)
        else:
            metrics, samples, detail = measure_untraced(args, tmp_dir)
            repeats = []
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass

    attempted = sum(s["attempted"] for s in samples) + len(repeats)
    failed = sum(s["failed"] for s in samples) + repeats.count(False)
    failures = [f for s in samples for f in s["failures"]][:10]
    print(json.dumps({**meta, **detail, "failed_ratio": failed / attempted, "failures": failures}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
