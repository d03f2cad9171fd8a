"""Independence ideals of path graphs and the combinatorics around them.

The path on n vertices is x1 - x2 - ... - xn; an independent set contains no
two consecutive vertices.  The size-t independence ideal is generated by the
squarefree monomials x^F over all independent sets F of size t; it is nonzero
exactly when n >= 2t - 1.
"""

from __future__ import annotations

from enum import Enum
from itertools import combinations
from typing import NamedTuple

from .decomposition import VarPrime
from .ideal import MonomialIdeal
from .monomial import Monomial, _check_counts, _check_same_ring, _is_count, _pure_powers

# Independent-set counts grow binomially; verification targets n <= 10.
MAX_PATH_VERTICES = 24


class PathCase(str, Enum):
    """Parameter regimes for the (n, t) family."""

    DEGENERATE_T1 = "DEGENERATE_T1"  # t = 1: the ideal is the maximal ideal
    ZERO = "ZERO"                    # n < 2t - 1: no independent t-set exists
    CASE_2T_MINUS_1 = "CASE_2T_MINUS_1"
    CASE_2T = "CASE_2T"
    CASE_GT_2T = "CASE_GT_2T"


class ZeroIdealError(ValueError):
    """Raised by predictions when the parameters give the zero ideal."""

    def __init__(self, n: int, t: int):
        super().__init__(f"no independent sets of size {t} in a path on {n} vertices")
        self.n = n
        self.t = t
        self.case = PathCase.ZERO


def classify(n: int, t: int) -> PathCase:
    _check_counts(n=n, t=t)
    if t == 1:
        return PathCase.DEGENERATE_T1
    if n < 2 * t - 1:
        return PathCase.ZERO
    if n == 2 * t - 1:
        return PathCase.CASE_2T_MINUS_1
    if n == 2 * t:
        return PathCase.CASE_2T
    return PathCase.CASE_GT_2T


def _check_vertex_cap(n: int) -> None:
    """Refuse a path longer than MAX_PATH_VERTICES before anything is enumerated."""
    if n > MAX_PATH_VERTICES:
        raise ValueError(f"n={n} exceeds the enumeration cap {MAX_PATH_VERTICES}")


def independent_sets(n: int, t: int) -> list[tuple[int, ...]]:
    """All size-t independent sets of the path on n vertices, lexicographic.

    Uses the gap bijection with t-subsets of [n - t + 1], which enumerates in
    lexicographic order without generating invalid candidates.
    """
    if classify(n, t) is PathCase.ZERO:  # checks n and t
        return []
    _check_vertex_cap(n)
    return [
        tuple(c + shift for shift, c in enumerate(combo))
        for combo in combinations(range(1, n - t + 2), t)
    ]


def ind_ideal(n: int, t: int) -> MonomialIdeal:
    """The size-t independence ideal of the path on n vertices (zero if none exist)."""
    # distinct squarefree monomials of one degree are already minimal
    sets = independent_sets(n, t)
    return MonomialIdeal._from_packed(n, (sum(_pure_powers((v, 1) for v in s)) for s in sets))


def complement_components(n: int, prime: VarPrime) -> list[int]:
    """Sizes, left to right, of the runs of consecutive vertices missing from prime."""
    _check_counts(n=n)
    _check_same_ring(n, prime.nvars)
    # the gaps between consecutive vertices of the prime, with 0 and n + 1 at the ends
    bounds = (0, *prime.vars, n + 1)
    return [b - a - 1 for a, b in zip(bounds, bounds[1:]) if b - a > 1]


class ComplementChecks(NamedTuple):
    """Three facts about a parity prime B with complement A in [n].

    size_ok:  |A| == 2t - 2*level.
    meet_ok:  every independent t-set meets B in at least `level` vertices.
    fill_ok:  for every size-`level` subset H of B with no two entries adjacent
              in B's index list, the squarefree monomial on H union A lies in
              the independence ideal.
    """

    size_ok: bool
    meet_ok: bool
    fill_ok: bool


def parity_complement_checks(n: int, t: int, prime: VarPrime, level: int) -> ComplementChecks:
    """Exhaustively check the complement-size, meet, and fill properties of a prime.

    `prime` plays the role of the index set B; its complement A consists of
    the remaining path vertices.  All three checks are brute force over the
    relevant finite sets.  A cell whose ideal is zero (n < 2t - 1) raises
    ZeroIdealError: every check would pass vacuously there.
    """
    if classify(n, t) is PathCase.ZERO:
        raise ZeroIdealError(n, t)
    if not (_is_count(level) and level <= t):
        raise ValueError(f"level {level!r} must be an integer in [1, {t}]")
    _check_same_ring(n, prime.nvars)

    b = prime.vars
    b_set = set(b)
    a = [v for v in range(1, n + 1) if v not in b_set]
    size_ok = len(a) == 2 * t - 2 * level

    sets = independent_sets(n, t)
    meet_ok = all(sum(1 for v in s if v in b_set) >= level for s in sets)

    ideal = ind_ideal(n, t)
    fill_ok = True
    # positions in B's index list with no two adjacent: an independent set of a path
    for positions in independent_sets(len(b), level):
        h = [b[p - 1] for p in positions]
        if not ideal.contains(Monomial.from_support(h + a, n)):
            fill_ok = False
            break
    return ComplementChecks(size_ok, meet_ok, fill_ok)
