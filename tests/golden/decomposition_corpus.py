"""Golden corpus of the decomposition layer: one line per public call.

    PYTHONPATH=src python tests/golden/decomposition_corpus.py           # print the lines
    PYTHONPATH=src python tests/golden/decomposition_corpus.py --write   # and record the hashes

Each line names the function, its input as text, and its output as text (for
an exception, its class).  The inputs are seeded and use only the public API:
random ideals on 1-7 variables, some with exponents at and near EXPONENT_CAP,
and the path cells I(n, t)^k with n <= 8 and k <= 3.  The corpus is pinned by
one sha256 per section in decomposition.sha256.json, which
test_golden.py checks, so a mismatch names its section.  The
script prints every line, to be diffed against another checkout's output;
`--write` also records the hashes.  A changed hash is a changed output: it
needs a reason.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from random import Random
from typing import Callable, Iterator

from pathideal import (
    DecompositionCache,
    Monomial,
    MonomialIdeal,
    associated_primes,
    ind_ideal,
    irreducible_decomposition,
    minimal_primes_squarefree,
)
from pathideal.monomial import EXPONENT_CAP

HASHES = Path(__file__).with_name("decomposition.sha256.json")
SEED = 20181027
IDEALS_PER_NVARS = 90
NEAR_CAP = (EXPONENT_CAP - 2, EXPONENT_CAP - 1, EXPONENT_CAP)


def _random_ideals() -> Iterator[MonomialIdeal]:
    """Ideals on 1-7 variables: squarefree, small exponents, or some exponents near the cap."""
    rng = Random(SEED)
    for nvars in range(1, 8):
        yield MonomialIdeal.zero(nvars)
        for number in range(IDEALS_PER_NVARS):
            regime = number % 3
            gens = []
            for _ in range(rng.randint(1, 9)):
                support = rng.sample(range(nvars), rng.randint(1, min(nvars, 3)))
                exponents = [0] * nvars
                for v in support:
                    if regime == 0:
                        exponents[v] = 1
                    elif regime == 2 and rng.random() < 0.3:
                        exponents[v] = rng.choice(NEAR_CAP)
                    else:
                        exponents[v] = rng.randint(1, 3)
                gens.append(Monomial(tuple(exponents)))
            yield MonomialIdeal(nvars, gens)


def _path_cells() -> Iterator[tuple[str, MonomialIdeal]]:
    """I(n, t)^k for t in 1..4, n in 1..8 ascending, k in 1..3; zero ideals included."""
    for t in range(1, 5):
        for n in range(1, 9):
            ideal = ind_ideal(n, t)
            for k in range(1, 4):
                yield f"I({n},{t})^{k}", ideal if ideal.is_zero else ideal.power(k)


def call(name: str, label: str, fn: Callable[[], tuple]) -> str:
    try:
        out = " & ".join(str(x) for x in fn())
    except (ValueError, ArithmeticError) as exc:
        out = type(exc).__name__
    return f"{name}({label}) = {out}"


def sections() -> dict[str, list[str]]:
    """Every section's lines, in a fixed order."""
    random_ideals = list(_random_ideals())
    path_cells = list(_path_cells())
    # one cache shared across the path cells in ascending n, as a scan shares it
    cache = DecompositionCache()
    return {
        "irreducible_decomposition/random": [
            call("irreducible_decomposition", str(I), lambda: irreducible_decomposition(I))
            for I in random_ideals
        ],
        "associated_primes/random": [
            call("associated_primes", str(I), lambda: associated_primes(I))
            for I in random_ideals
        ],
        "minimal_primes_squarefree/random": [
            call("minimal_primes_squarefree", str(I), lambda: minimal_primes_squarefree(I))
            for I in random_ideals
        ],
        "irreducible_decomposition/path": [
            call("irreducible_decomposition", label, lambda: irreducible_decomposition(I, cache=cache))
            for label, I in path_cells
        ],
        "associated_primes/path": [
            call("associated_primes", label, lambda: associated_primes(I, cache=cache))
            for label, I in path_cells
        ],
        "minimal_primes_squarefree/path": [
            call("minimal_primes_squarefree", label, lambda: minimal_primes_squarefree(I))
            for label, I in path_cells
        ],
    }


def digest(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def run(
    argv: list[str], usage: str, build: Callable[[], dict[str, list[str]]], hashes: Path
) -> int:
    """Print a corpus's lines; with `--write`, also record its hashes."""
    if argv not in ([], ["--write"]):
        print(usage, file=sys.stderr)
        return 2
    corpus = build()
    for name, lines in corpus.items():
        for line in lines:
            print(f"{name}: {line}")
    if argv:
        digests = {name: digest(lines) for name, lines in corpus.items()}
        hashes.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:], __doc__, sections, HASHES))
