"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All comparisons are exact set comparisons (zero tolerance); the two
stated wall-clock budgets are asserted.
"""

from itertools import combinations
from math import comb
from random import Random
from time import monotonic

import pytest

from pathideal import (
    DecompositionCache,
    VarPrime,
    associated_primes,
    complement_components,
    grid_scan,
    ind_ideal,
    intersect_components,
    irreducible_decomposition,
    minimal_primes_squarefree,
    parity_complement_checks,
    predicted_ass,
    predicted_decomposition_2t,
    verify_witness,
    witness_monomial,
)

from helpers import random_ideal, random_squarefree_ideal

GRID = [
    (n, t, k)
    for t in (2, 3)
    for n in range(2 * t - 1, 9)
    for k in (1, 2, 3)
]


def announce(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def grid_ass():
    """Computed and predicted primes for every criterion-1 cell, with timing."""
    cache = DecompositionCache()
    start = monotonic()
    cells = {}
    for (n, t, k) in GRID:
        computed = associated_primes(ind_ideal(n, t).power(k), cache=cache)
        cells[(n, t, k)] = (set(computed), set(predicted_ass(n, t, k)))
    return {"cells": cells, "elapsed": monotonic() - start, "cache": cache}


def test_criterion_1_ass_equals_prediction_on_grid(grid_ass):
    mismatches = [
        cell for cell, (computed, predicted) in grid_ass["cells"].items()
        if computed != predicted
    ]
    elapsed = grid_ass["elapsed"]
    ok = not mismatches and elapsed < 300.0
    announce(
        1,
        ok,
        f"{len(grid_ass['cells'])} cells, {len(mismatches)} mismatches, {elapsed:.1f}s",
    )
    assert not mismatches, f"set mismatch at {mismatches}"
    assert elapsed < 300.0, f"grid took {elapsed:.1f}s"


def test_criterion_2_closed_form_decomposition_identity():
    start = monotonic()
    failures = []
    for t in (2, 3):
        for k in (1, 2, 3, 4):
            predicted = predicted_decomposition_2t(t, k)
            count_ok = len(predicted) == k * t * (t + 1) // 2
            identity_ok = (
                intersect_components(predicted, 2 * t)
                == ind_ideal(2 * t, t).power(k)
            )
            if not (count_ok and identity_ok):
                failures.append((t, k, count_ok, identity_ok))
    elapsed = monotonic() - start
    ok = not failures and elapsed < 60.0
    announce(2, ok, f"8 (t, k) pairs, {len(failures)} failures, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_3_persistence_on_grid(grid_ass):
    violations = []
    for t in (2, 3):
        for n in range(2 * t - 1, 9):
            for k in (1, 2):
                lower = grid_ass["cells"][(n, t, k)][0]
                upper = grid_ass["cells"][(n, t, k + 1)][0]
                if not lower <= upper:
                    violations.append((n, t, k))
    announce(3, not violations, f"chain inclusions on the grid, {len(violations)} violations")
    assert not violations, violations


def test_criterion_4_stability_and_torsion_freeness(grid_ass):
    cache = grid_ass["cache"]
    failures = []
    for t in (2, 3):
        # wide cells: strict growth at t, equality from t to t+1
        for n in range(2 * t + 1, 9):
            sets = {
                k: set(associated_primes(ind_ideal(n, t).power(k), cache=cache))
                for k in (t - 1, t, t + 1)
            }
            if not sets[t - 1] < sets[t]:
                failures.append((n, t, "no strict growth at t"))
            if sets[t] != sets[t + 1]:
                failures.append((n, t, "not stable at t"))
        # tight and even cells: constant chains up to k = 4
        for n in (2 * t - 1, 2 * t):
            base = set(associated_primes(ind_ideal(n, t), cache=cache))
            for k in (2, 3, 4):
                powered = set(associated_primes(ind_ideal(n, t).power(k), cache=cache))
                if powered != base:
                    failures.append((n, t, f"chain moved at k={k}"))
    announce(4, not failures, f"stability checks, {len(failures)} failures")
    assert not failures, failures


def test_criterion_5_witness_soundness_extended_grid():
    start = monotonic()
    checked = 0
    failures = []
    for t in (1, 2, 3, 4):
        for n in range(2 * t - 1, 11):
            ideal = ind_ideal(n, t)
            for k in (1, 2, 3, 4):
                power = ideal.power(k)
                for prime in predicted_ass(n, t, k):
                    u = witness_monomial(n, t, k, prime)
                    check = verify_witness(ideal, k, u, prime, power=power)
                    checked += 1
                    if not check.ok:
                        failures.append((n, t, k, prime.vars, check.reason))
    elapsed = monotonic() - start
    ok = not failures and elapsed < 600.0
    announce(5, ok, f"{checked} witnesses, {len(failures)} failures, {elapsed:.1f}s")
    assert not failures, failures[:10]
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_6_parity_prime_complement_checks_exhaustive():
    checked = 0
    failures = []
    for t in range(2, 6):
        for n in range(2 * t, 11):
            for level in range(1, t + 1):
                length = n - 2 * t + 2 * level
                for combo in combinations(range(1, n + 1), length):
                    if any((i - j) % 2 for j, i in enumerate(combo, start=1)):
                        continue
                    prime = VarPrime(n, combo)
                    checks = parity_complement_checks(n, t, prime, level)
                    checked += 1
                    if not all(checks):
                        failures.append((n, t, level, combo, checks))
    announce(6, not failures, f"{checked} parity primes, {len(failures)} failures")
    assert not failures, failures[:10]


def test_criterion_7_even_complement_runs_on_grid(grid_ass):
    offenders = []
    for (n, t, k), (computed, _) in grid_ass["cells"].items():
        for prime in computed:
            if any(size % 2 for size in complement_components(n, prime)):
                offenders.append((n, t, k, prime.vars))
    announce(7, not offenders, f"all computed primes have even complement runs")
    assert not offenders, offenders[:10]


def test_criterion_8_oracle_cross_validation():
    disagreements = []
    roundtrip_failures = []
    corpus = [
        ind_ideal(n, t)
        for t in range(1, 6)
        for n in range(2 * t - 1, 11)
    ]
    rng = Random(20240809)
    corpus.extend(random_squarefree_ideal(rng, rng.randint(2, 6), 4) for _ in range(200))
    for ideal in corpus:
        if associated_primes(ideal) != minimal_primes_squarefree(ideal):
            disagreements.append(ideal)
        components = irreducible_decomposition(ideal)
        if intersect_components(components, ideal.nvars) != ideal:
            roundtrip_failures.append(ideal)
    for _ in range(100):
        ideal = random_ideal(rng, rng.randint(2, 5), 4, 3)
        components = irreducible_decomposition(ideal)
        if intersect_components(components, ideal.nvars) != ideal:
            roundtrip_failures.append(ideal)
    ok = not disagreements and not roundtrip_failures
    announce(
        8,
        ok,
        f"{len(corpus)} squarefree + 100 fuzz ideals, "
        f"{len(disagreements)} oracle disagreements, {len(roundtrip_failures)} roundtrip failures",
    )
    assert not disagreements, disagreements[:5]
    assert not roundtrip_failures, roundtrip_failures[:5]


def test_criterion_9_generator_count_binomial():
    bad = []
    for t in range(1, 7):
        for n in range(2 * t - 1, 13):
            if len(ind_ideal(n, t).gens) != comb(n - t + 1, t):
                bad.append((n, t))
    announce(9, not bad, "generator counts match the binomial formula")
    assert not bad, bad


def test_criterion_10_scan_determinism(tmp_path):
    config = {"t_values": [2, 3], "n_range": [3, 7], "k_range": [1, 2]}
    serial = grid_scan({**config, "parallelism": 1})
    parallel = grid_scan({**config, "parallelism": 4})
    serial_again = grid_scan({**config, "parallelism": 1})
    structured_ok = serial.structured == parallel.structured == serial_again.structured
    table_ok = serial.table == parallel.table == serial_again.table
    announce(10, structured_ok and table_ok, "serial and parallel scans byte-identical")
    assert structured_ok and table_ok
