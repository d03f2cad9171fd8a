"""Golden corpus of the ideal algebra: one line per public call.

    PYTHONPATH=src python tests/golden/algebra_corpus.py           # print the lines
    PYTHONPATH=src python tests/golden/algebra_corpus.py --write   # and record the hashes

The same design as decomposition_corpus.py: seeded inputs through the public
API only, one line per call (the method, its inputs as text, its output as
text or an exception's class), and one sha256 per section in
algebra.sha256.json, which test_golden.py checks.  The inputs are
pairs of random ideals on 1-7 variables, squarefree, with small exponents,
or with some exponents at and near EXPONENT_CAP, some of them zero and some
with generators of one lying in the other, and a few monomials per pair.  The sections cover `sum`, `product`, `power`,
`intersect`, `colon_monomial`, `colon_ideal`, `radical`, `contains`,
`is_subset`, and `intersect_components` of each nonzero ideal's
decomposition.  A changed hash is a changed output: it needs a reason.
"""

from __future__ import annotations

import sys
from pathlib import Path
from random import Random
from typing import Iterator

from decomposition_corpus import NEAR_CAP, call, run

from pathideal import Monomial, MonomialIdeal, intersect_components, irreducible_decomposition

HASHES = Path(__file__).with_name("algebra.sha256.json")
SEED = 20181028
PAIRS_PER_NVARS = 36
MONOMIALS_PER_PAIR = 3


def _random_ideal(rng: Random, nvars: int, regime: int) -> MonomialIdeal:
    """Zero one time in ten; else 1-6 generators, squarefree (regime 0), with
    exponents 1-3 (regime 1), or with some exponents near the cap (regime 2)."""
    if rng.random() < 0.1:
        return MonomialIdeal.zero(nvars)
    gens = []
    for _ in range(rng.randint(1, 6)):
        exponents = [0] * nvars
        for v in rng.sample(range(nvars), rng.randint(1, min(nvars, 3))):
            if regime == 0:
                exponents[v] = 1
            elif regime == 2 and rng.random() < 0.3:
                exponents[v] = rng.choice(NEAR_CAP)
            else:
                exponents[v] = rng.randint(1, 3)
        gens.append(Monomial(exponents))
    return MonomialIdeal(nvars, gens)


def _random_monomial(rng: Random, nvars: int, regime: int) -> Monomial:
    choices = (0, 0, 0, 1, 2, 3, *NEAR_CAP) if regime == 2 else (0, 0, 0, 1, 2, 3, 4)
    return Monomial(rng.choice(choices) for _ in range(nvars))


def _cases() -> Iterator[tuple[MonomialIdeal, MonomialIdeal, list[Monomial]]]:
    """(I, J, monomials) on 1-7 variables; J's regime follows I's."""
    rng = Random(SEED)
    for nvars in range(1, 8):
        for number in range(PAIRS_PER_NVARS):
            regime = number % 3
            I = _random_ideal(rng, nvars, regime)
            J = _random_ideal(rng, nvars, regime)
            monomials = [_random_monomial(rng, nvars, regime) for _ in range(MONOMIALS_PER_PAIR)]
            if number % 4 == 3:
                # multiples of I's generators, so some generators of J lie in I
                J = J.sum(MonomialIdeal(nvars, [g.lcm(u) for g, u in zip(I.gens, monomials)]))
            if I.gens and J.gens:
                # a generator of J, and its lcm with one of I, which lies in both
                monomials += [J.gens[0], J.gens[0].lcm(I.gens[0])]
            yield I, J, monomials


def sections() -> dict[str, list[str]]:
    """Every section's lines, in a fixed order."""
    cases = list(_cases())
    pairs = [(I, J, f"{I} ; {J}") for I, J, _ in cases]
    ideals = [I for I, _, _ in cases]
    return {
        "sum": [call("sum", label, lambda: (I.sum(J),)) for I, J, label in pairs],
        "product": [call("product", label, lambda: (I.product(J),)) for I, J, label in pairs],
        "power": [
            call("power", f"{I} ^ {k}", lambda: (I.power(k),)) for I in ideals for k in (1, 2, 3)
        ],
        "intersect": [
            call("intersect", label, lambda: (I.intersect(J), J.intersect(I)))
            for I, J, label in pairs
        ],
        "colon_monomial": [
            call("colon_monomial", f"{I} : {u}", lambda: (I.colon_monomial(u),))
            for I, _, monomials in cases
            for u in monomials
        ],
        "colon_ideal": [
            call("colon_ideal", f"{I} : {J}", lambda: (I.colon_ideal(J),)) for I, J, _ in pairs
        ],
        "radical": [call("radical", str(I), lambda: (I.radical(),)) for I in ideals],
        "contains": [
            call("contains", f"{I} ; {u}", lambda: (I.contains(u),))
            for I, _, monomials in cases
            for u in monomials
        ],
        "is_subset": [
            call("is_subset", label, lambda: (I.is_subset(J), J.is_subset(I)))
            for I, J, label in pairs
        ],
        "intersect_components": [
            call(
                "intersect_components",
                str(I),
                lambda: (intersect_components(irreducible_decomposition(I), I.nvars),),
            )
            for I in ideals
            if not I.is_zero
        ],
    }


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:], __doc__, sections, HASHES))
