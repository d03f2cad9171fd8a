"""The four benchmark workloads: inputs, the timed work and its exact checks.

Each workload has a `prepare(seed, scale)` that builds plain-Python inputs
without calling into `pathideal` (that is set-up), and a `run(pi, inputs,
tracer, tmp_dir, clock)` that does the timed work through the public API and
checks every result.  The work and its checks run in pieces timed by `clock`.
`run` returns a `Result`; a failed check is counted, never raised, so one
wrong answer shows as `failed` instead of aborting the run.

`scale` is "full" for the benchmark and "small" for the self-test, which runs
the same code paths on inputs a few seconds long.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    caches: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    def counters(self) -> dict:
        """Work counters read from the benchmark-owned decomposition caches."""
        return {
            "decomposition.nodes": sum(c.misses for c in self.caches),
            "decomposition.cache_hits": sum(c.hits for c in self.caches),
            "decomposition.cache_entries": sum(len(c) for c in self.caches),
        }


# -- host speed ------------------------------------------------------------------
# The host's speed drifts by up to two times over seconds to minutes, and the
# drift moves whole runs.  A fixed pure-Python loop, run right before and
# right after each timed piece of work in the same process, measures the speed
# at that moment.  Each piece's time is scaled to a host on which the loop
# takes REFERENCE_LOOP_S (about the fast state of a 2-core Xeon VM on Python
# 3.11).  The loop lives here, not in pathideal, so no change to the program
# can move it.

CALIBRATION_ITERATIONS = 450_000
REFERENCE_LOOP_S = 0.040


def calibration_loop_s() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


class Clock:
    """Times pieces of work, each between two runs of the calibration loop."""

    def __init__(self):
        self.first_loop_s = self._last_loop_s = calibration_loop_s()
        self.raw_s = 0.0
        self.scaled_s = 0.0

    @contextmanager
    def timed(self):
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        loop_s = calibration_loop_s()
        self.raw_s += elapsed
        self.scaled_s += elapsed * 2 * REFERENCE_LOOP_S / (self._last_loop_s + loop_s)
        self._last_loop_s = loop_s


def _label(tracer, name):
    return tracer.label(name) if tracer is not None else nullcontext()


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- scan_default --------------------------------------------------------------
# The end-to-end grid scan of the README, run on two threads.  The only
# workload that goes through verify's dispatch, rendering and thread pool.

SCAN_GRID = {
    "full": {"t_values": [2, 3], "n_range": [3, 8], "k_range": [1, 3]},
    "small": {"t_values": [2, 3], "n_range": [3, 7], "k_range": [1, 2]},
}


def prepare_scan_default(seed: int, scale: str, parallelism: int = 2) -> dict:
    return {
        "config": {**SCAN_GRID[scale], "parallelism": parallelism},
        "reference": load_reference()["scan_default"][scale],
    }


def run_scan_default(pi, inputs: dict, tracer, tmp_dir: str, clock: Clock) -> Result:
    result = Result()
    cache = pi.DecompositionCache()
    result.caches.append(cache)
    # grid_scan is one call, so the whole scan is one timed piece
    with clock.timed():
        scan = pi.grid_scan(inputs["config"], cache=cache)
        # the same two files `pathideal scan --out` writes
        structured_path = os.path.join(tmp_dir, "report.json")
        table_path = os.path.join(tmp_dir, "report.txt")
        with open(structured_path, "w", encoding="utf-8") as fh:
            fh.write(scan.structured)
        with open(table_path, "w", encoding="utf-8") as fh:
            fh.write(scan.table)
        reference = inputs["reference"]
        for report in scan.reports:
            result.check(
                report.verdict in ("PASS", "ZERO"),
                f"cell {(report.n, report.t, report.k)} verdict {report.verdict}",
            )
        for path, key in ((structured_path, "structured_sha256"), (table_path, "table_sha256")):
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            result.check(digest == reference[key], f"{os.path.basename(path)} differs from the serial reference")
        summary = json.loads(scan.structured)["summary"]
        result.check(summary == reference["summary"], f"summary {summary}")
    return result


# -- decompose_heavy -------------------------------------------------------------
# Two cells outside the scan grid that load the decomposition engine in
# opposite ways: (7,2,4) is bound by merging and pruning, (12,5,2) by the
# split recursion.  Each gets a fresh cache.

HEAVY_CELLS = {
    "full": ((7, 2, 4, 638), (12, 5, 2, 616)),
    "small": ((6, 2, 3, 80), (9, 4, 2, 81)),
}


def prepare_decompose_heavy(seed: int, scale: str) -> dict:
    return {"cells": HEAVY_CELLS[scale]}


def run_decompose_heavy(pi, inputs: dict, tracer, tmp_dir: str, clock: Clock) -> Result:
    result = Result()
    for n, t, k, expected_count in inputs["cells"]:
        cache = pi.DecompositionCache()
        result.caches.append(cache)
        with clock.timed():
            with _label(tracer, f"{n}_{t}_{k}"):
                power = pi.ind_ideal(n, t).power(k)
                components = pi.irreducible_decomposition(power, cache=cache)
                predicted = set(pi.predicted_ass(n, t, k))
            primes = {c.radical_prime() for c in components}
            result.check(primes == predicted, f"Ass of I({n},{t})^{k} differs from the prediction")
            result.check(
                len(components) == expected_count,
                f"I({n},{t})^{k} has {len(components)} components, expected {expected_count}",
            )
    return result


# -- witness_sweep -----------------------------------------------------------------
# The criterion-5 grid: colon witnesses for every predicted prime.  It never
# calls the decomposition engine, so a change there should not move it.

WITNESS_GRID = {
    "full": {"t_max": 4, "n_max": 10, "k_max": 4, "witnesses": 1123},
    "small": {"t_max": 3, "n_max": 8, "k_max": 3, "witnesses": 243},
}


def prepare_witness_sweep(seed: int, scale: str) -> dict:
    grid = WITNESS_GRID[scale]
    cells = [
        (n, t, k)
        for t in range(1, grid["t_max"] + 1)
        for n in range(2 * t - 1, grid["n_max"] + 1)
        for k in range(1, grid["k_max"] + 1)
    ]
    return {"cells": cells, "witnesses": grid["witnesses"]}


def run_witness_sweep(pi, inputs: dict, tracer, tmp_dir: str, clock: Clock) -> Result:
    result = Result()
    checked = 0
    for n, t, k in inputs["cells"]:
        with clock.timed():
            ideal = pi.ind_ideal(n, t)
            power = ideal.power(k)
            for prime in pi.predicted_ass(n, t, k):
                u = pi.witness_monomial(n, t, k, prime)
                check = pi.verify_witness(ideal, k, u, prime, power=power)
                result.check(check.ok, f"witness for {prime} in ({n},{t},{k}): {check.reason}")
                checked += 1
    result.check(checked == inputs["witnesses"], f"{checked} witnesses, expected {inputs['witnesses']}")
    return result


# -- fuzz_roundtrip ----------------------------------------------------------------
# Seeded random ideals on 8 variables, alternating squarefree (checked
# against the exhaustive minimal-prime oracle) and general (checked by the
# intersection round trip).  Many small ideals keep the per-seed cost within
# a few percent; the generator shape bounds the cost of the slowest ideal.

FUZZ_NVARS = 8
FUZZ_PAIRS = {"full": 1400, "small": 150}
FUZZ_PIECE = 200  # ideals per timed piece, about 0.4 s
FUZZ_GENS = (12, 20)
FUZZ_MAX_SUPPORT = 3
FUZZ_MAX_EXPONENT = 2


def _random_exponents(rng: random.Random, squarefree: bool) -> list[tuple[int, ...]]:
    gens = []
    for _ in range(rng.randint(*FUZZ_GENS)):
        exps = [0] * FUZZ_NVARS
        for v in rng.sample(range(FUZZ_NVARS), rng.randint(2 if squarefree else 1, FUZZ_MAX_SUPPORT)):
            exps[v] = 1 if squarefree else rng.randint(1, FUZZ_MAX_EXPONENT)
        gens.append(tuple(exps))
    return gens


def prepare_fuzz_roundtrip(seed: int, scale: str) -> dict:
    rng = random.Random(seed)
    ideals = []
    for _ in range(FUZZ_PAIRS[scale]):
        ideals.append((True, _random_exponents(rng, True)))
        ideals.append((False, _random_exponents(rng, False)))
    return {"ideals": ideals}


def run_fuzz_roundtrip(pi, inputs: dict, tracer, tmp_dir: str, clock: Clock) -> Result:
    result = Result()
    cache = pi.DecompositionCache()
    result.caches.append(cache)
    ideals = inputs["ideals"]
    for first in range(0, len(ideals), FUZZ_PIECE):
        with clock.timed():
            for number in range(first, min(first + FUZZ_PIECE, len(ideals))):
                squarefree, exponents = ideals[number]
                ideal = pi.MonomialIdeal(FUZZ_NVARS, [pi.Monomial(e) for e in exponents])
                if squarefree:
                    computed = pi.associated_primes(ideal, cache=cache)
                    oracle = pi.minimal_primes_squarefree(ideal)
                    result.check(computed == oracle, f"ideal {number}: oracle disagreement on {ideal}")
                else:
                    components = pi.irreducible_decomposition(ideal, cache=cache)
                    back = pi.intersect_components(components, FUZZ_NVARS)
                    result.check(back == ideal, f"ideal {number}: round trip broken on {ideal}")
    return result


# Only this workload's inputs depend on --seed; the others are fixed grids.
SEEDED = ("fuzz_roundtrip",)

WORKLOADS = {
    "scan_default": (prepare_scan_default, run_scan_default),
    "decompose_heavy": (prepare_decompose_heavy, run_decompose_heavy),
    "witness_sweep": (prepare_witness_sweep, run_witness_sweep),
    "fuzz_roundtrip": (prepare_fuzz_roundtrip, run_fuzz_roundtrip),
}
