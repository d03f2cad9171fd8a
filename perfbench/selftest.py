"""Self-test of the benchmark, on scaled-down workloads (about 15 s on 2 cores).

    python3 perfbench/selftest.py

Checks that
- BENCHMARK.json and the metrics the code emits agree, and every metric name
  matches [A-Za-z0-9_.-]+;
- every workload, untraced and traced, prints a result line of the contract's
  shape with every check passing;
- a traced run sees every span its workload expects, and on each workload
  BENCHMARK.json names, reports every declared per-layer metric and none as 0;
- two traced runs of each workload report identical counts;
- scan_default counts the same decomposition nodes and cache hits on one
  thread and on two;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  fails without printing a result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench_run(workload: str, trace: int, root: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "small"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_declarations(bench: dict) -> None:
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    expect(e2e == list(run.END_TO_END), "BENCHMARK.json end_to_end matches run.END_TO_END")
    per_layer = {(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]}
    expect(per_layer <= {entry[:3] for entry in PER_LAYER}, "BENCHMARK.json per_layer metrics are in tracer.PER_LAYER")
    expect({w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS), "BENCHMARK.json workloads exist in run.WORKLOADS")
    names = [m["name"] for m in bench["end_to_end"]] + [entry[0] for entry in PER_LAYER]
    names += [w["name"] for w in bench["workloads"]]
    bad = [n for n in names if not NAME_RE.fullmatch(n)]
    expect(not bad, f"metric and workload names match {NAME_RE.pattern} {bad or ''}")


def check_workload(workload: str, e2e_names: set, layer_names: set, gated: bool) -> None:
    code, lines = bench_run(workload, 0)
    result = json.loads(lines[-1]) if code == 0 else {}
    expect(code == 0 and set(result) == RESULT_KEYS and result["correct"] and result["failed"] == 0,
           f"{workload}: untraced run is correct ({result.get('failed')} of {result.get('attempted')} failed)")
    expect(set(result.get("metrics", {})) == e2e_names, f"{workload}: untraced run reports every end-to-end metric")

    traced = []
    for _ in range(2):
        code, lines = bench_run(workload, 1)
        result = json.loads(lines[-1]) if code == 0 else {"metrics": {}}
        detail = json.loads(lines[-2]) if code == 0 else {"layers": {}, "missing": None}
        expect(code == 0 and result.get("correct") is True, f"{workload}: traced run is correct")
        traced.append(detail["layers"])
    expect(detail["missing"] == [], f"{workload}: traced run sees every span it expects {detail['missing'] or ''}")
    reported = set(result["metrics"])
    if gated:
        zero = sorted(name for name, m in result["metrics"].items() if m["value"] == 0)
        expect(reported == layer_names and not zero,
               f"{workload}: traced run reports every declared per-layer metric, none 0 {zero or ''}")
    else:
        expect(reported <= layer_names, f"{workload}: traced run reports only declared per-layer metrics")
    expect(run.count_metrics(traced[0]) == run.count_metrics(traced[1]), f"{workload}: counts repeat across two traced runs")


def check_parallelism() -> None:
    os.makedirs(run.TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=run.TMP_ROOT)
    try:
        by_threads = {
            p: run.spawn("scan_default", 0, tmp, scale="small", trace=1, parallelism=p) for p in (1, 2)
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    serial, parallel = (run.count_metrics(by_threads[p]["layers"]) for p in (1, 2))
    expect(all(s["failed"] == 0 for s in by_threads.values()), "scan_default passes on one and two threads")
    expect(serial == parallel and serial["decomposition.nodes"] > 0,
           f"scan_default counts equal on one and two threads (nodes {serial['decomposition.nodes']}, "
           f"hits {serial['decomposition.cache_hits']})")


def check_without_program() -> None:
    os.makedirs(run.TMP_ROOT, exist_ok=True)
    bare = tempfile.mkdtemp(dir=run.TMP_ROOT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = bench_run("fuzz_roundtrip", 0, root=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and not any(line.startswith('{"correct"') for line in lines),
           f"without src/pathideal the benchmark exits {code} and prints no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check_declarations(bench)
    e2e_names = {m["name"] for m in bench["end_to_end"]}
    layer_names = {m["name"] for m in bench["per_layer"]}
    gated = {w["name"] for w in bench["workloads"]}
    for workload in run.WORKLOADS:
        check_workload(workload, e2e_names, layer_names, workload in gated)
    check_parallelism()
    check_without_program()
    try:
        os.rmdir(run.TMP_ROOT)
    except OSError:
        pass
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
