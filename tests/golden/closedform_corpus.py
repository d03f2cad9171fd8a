"""Golden corpus of the closed form: one line per public call.

    PYTHONPATH=src python tests/golden/closedform_corpus.py           # print the lines
    PYTHONPATH=src python tests/golden/closedform_corpus.py --write   # and record the hashes

The same design as decomposition_corpus.py, over every cell with n <= 12 and
t <= 6, zero ideals included: `predicted_astab`, `predicted_ass` for
k = 0..t+1 (k = 0 is the ValueError line), and `witness_monomial` for
k = 1..t+1 and every prime of the stable set, so primes of a level above k
give the ValueError lines.  On a zero cell the witness of the maximal prime
gives the ZeroIdealError line.  The output order of `predicted_ass` is part
of what is pinned.  One sha256 per section is kept in closedform.sha256.json,
which test_golden.py checks.  A changed hash is a changed output:
it needs a reason.
"""

from __future__ import annotations

import sys
from pathlib import Path

from decomposition_corpus import call, run

from pathideal import (
    PathCase,
    VarPrime,
    classify,
    predicted_ass,
    predicted_astab,
    witness_monomial,
)

HASHES = Path(__file__).with_name("closedform.sha256.json")
MAX_N = 12
MAX_T = 6


def _witness_lines() -> list[str]:
    lines = []
    for t in range(1, MAX_T + 1):
        for n in range(1, MAX_N + 1):
            if classify(n, t) is PathCase.ZERO:
                primes = (VarPrime(n, tuple(range(1, n + 1))),)
            else:
                primes = predicted_ass(n, t, t)
            for k in range(1, t + 2):
                lines += [
                    call(
                        "witness_monomial",
                        f"{n},{t},{k},{p}",
                        lambda: (witness_monomial(n, t, k, p),),
                    )
                    for p in primes
                ]
    return lines


def sections() -> dict[str, list[str]]:
    """Every section's lines, in a fixed order."""
    cells = [(n, t) for t in range(1, MAX_T + 1) for n in range(1, MAX_N + 1)]
    return {
        "predicted_astab": [
            call("predicted_astab", f"{n},{t}", lambda: (predicted_astab(n, t),))
            for n, t in cells
        ],
        "predicted_ass": [
            call("predicted_ass", f"{n},{t},{k}", lambda: predicted_ass(n, t, k))
            for n, t in cells
            for k in range(0, t + 2)
        ],
        "witness_monomial": _witness_lines(),
    }


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:], __doc__, sections, HASHES))
