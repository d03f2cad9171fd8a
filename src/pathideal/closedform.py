"""Closed-form predictions for associated primes of powers of path independence ideals.

Everything here is formula-driven: parity-constrained prime enumeration, the
predicted stable set and stability index, the explicit pure-power
decomposition for n = 2t, and the witness monomials whose colon realizes each
predicted prime.  The decomposition engine adjudicates these predictions; this
module never computes a decomposition itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import IrreducibleComponent, VarPrime
from .monomial import Monomial
from .pathfamily import PathCase, ZeroIdealError, classify

__all__ = [
    "ParityPrime",
    "PredictedDecomposition",
    "enumerate_parity_primes",
    "predicted_ass",
    "predicted_astab",
    "predicted_stable_set",
    "predicted_ntf",
    "predicted_decomposition_2t",
    "witness_monomial",
]


@dataclass(frozen=True)
class ParityPrime:
    """A variable prime whose j-th index has the parity of j.

    These are exactly the primes that occur for powers when n >= 2t.  The
    `level` is the smallest power exponent at which the prime is associated;
    the index list has length n - 2t + 2*level.
    """

    n: int
    t: int
    level: int
    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(self.indices)
        object.__setattr__(self, "indices", idx)
        if self.n < 2 * self.t:
            raise ValueError("parity primes require n >= 2t")
        if not 1 <= self.level <= self.t:
            raise ValueError(f"level {self.level} out of range [1, {self.t}]")
        expected = self.n - 2 * self.t + 2 * self.level
        if len(idx) != expected:
            raise ValueError(f"expected {expected} indices, got {len(idx)}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError("indices must be strictly increasing")
        if idx and idx[-1] > self.n:
            raise ValueError(f"index {idx[-1]} exceeds n={self.n}")
        for j, i in enumerate(idx, start=1):
            if (i - j) % 2 != 0:
                raise ValueError(f"index {i} at position {j} violates the parity rule")

    def to_var_prime(self) -> VarPrime:
        return VarPrime(self.n, self.indices)


def _parity_index_lists(n: int, length: int) -> list[tuple[int, ...]]:
    """All increasing index lists i_1 < ... < i_length in [n] with i_j = j (mod 2)."""
    results: list[tuple[int, ...]] = []
    current: list[int] = []

    def extend(position: int, start: int) -> None:
        if position > length:
            results.append(tuple(current))
            return
        # i >= position is forced by strict increase; parity must match position
        first = max(start, position)
        if (first - position) % 2 != 0:
            first += 1
        for i in range(first, n + 1, 2):
            current.append(i)
            extend(position + 1, i + 1)
            current.pop()

    extend(1, 1)
    return results


def enumerate_parity_primes(n: int, t: int, level: int) -> tuple[ParityPrime, ...]:
    """All parity primes for the given level, in lexicographic index order."""
    if t < 1 or n < 1:
        raise ValueError("n and t must be positive")
    if not 1 <= level <= t:
        raise ValueError(f"level {level} out of range [1, {t}]")
    if n < 2 * t or (n == 2 * t and level != 1):
        raise ValueError(f"parity primes are enumerated for n > 2t, or n = 2t with level 1")
    length = n - 2 * t + 2 * level
    return tuple(
        ParityPrime(n, t, level, idx) for idx in _parity_index_lists(n, length)
    )


def predicted_ass(n: int, t: int, k: int) -> tuple[VarPrime, ...]:
    """The predicted set of associated primes of the k-th power, canonically ordered.

    Three regimes: n = 2t - 1 gives the odd singletons; n = 2t gives all
    (odd, even) pairs; n > 2t gives the parity primes of every level up to
    min(t, k).  t = 1 degenerates to the maximal prime through the same
    formulas.  Output is sorted by prime size (equivalently level), then
    lexicographically.
    """
    if k < 1:
        raise ValueError("k must be positive")
    case = classify(n, t)
    if case is PathCase.ZERO:
        raise ZeroIdealError(n, t)
    if case is PathCase.DEGENERATE_T1:
        return (VarPrime(n, tuple(range(1, n + 1))),)
    if case is PathCase.CASE_2T_MINUS_1:
        return tuple(VarPrime(n, (i,)) for i in range(1, n + 1, 2))
    if case is PathCase.CASE_2T:
        pairs = [
            VarPrime(n, (i, j))
            for i in range(1, n, 2)
            for j in range(i + 1, n + 1)
            if j % 2 == 0
        ]
        return tuple(sorted(pairs, key=lambda p: p.sort_key))
    primes: list[VarPrime] = []
    for level in range(1, min(t, k) + 1):
        primes.extend(p.to_var_prime() for p in enumerate_parity_primes(n, t, level))
    return tuple(sorted(primes, key=lambda p: p.sort_key))


def predicted_astab(n: int, t: int) -> int:
    """Predicted index of stability: 1 when n is 2t-1 or 2t, else t."""
    case = classify(n, t)
    if case is PathCase.ZERO:
        raise ZeroIdealError(n, t)
    if case in (PathCase.CASE_2T_MINUS_1, PathCase.CASE_2T):
        return 1
    if case is PathCase.DEGENERATE_T1:
        return 1
    return t


def predicted_stable_set(n: int, t: int) -> tuple[VarPrime, ...]:
    """The stable set of associated primes: the prediction at k = t."""
    case = classify(n, t)
    if case is PathCase.ZERO:
        raise ZeroIdealError(n, t)
    return predicted_ass(n, t, t)


def predicted_ntf(n: int, t: int) -> bool:
    """Normally torsion-free iff the index of stability is 1."""
    return predicted_astab(n, t) == 1


@dataclass(frozen=True)
class PredictedDecomposition:
    """The closed-form decomposition of the k-th power when n = 2t.

    Components are <x_i^r, x_j^{k+1-r}> over odd i < even j in [2t] and
    1 <= r <= k; there are exactly k * t(t+1)/2 of them.
    """

    components: tuple[IrreducibleComponent, ...]


def predicted_decomposition_2t(t: int, k: int) -> PredictedDecomposition:
    if t < 2:
        raise ValueError("the two-variable component formula needs t >= 2")
    if k < 1:
        raise ValueError("k must be positive")
    n = 2 * t
    components = [
        IrreducibleComponent(n, ((i, r), (j, k + 1 - r)))
        for i in range(1, n, 2)
        for j in range(i + 1, n + 1)
        if j % 2 == 0
        for r in range(1, k + 1)
    ]
    return PredictedDecomposition(tuple(sorted(components, key=lambda c: c.sort_key)))


def _complement_monomial(n: int, vars_in_prime: tuple[int, ...]) -> Monomial:
    inside = set(vars_in_prime)
    return Monomial.from_support([v for v in range(1, n + 1) if v not in inside], n)


def witness_monomial(n: int, t: int, k: int, prime: VarPrime) -> Monomial:
    """Construct the monomial u with I^k : u equal to `prime` and u outside I^k.

    The construction depends on the regime.  With A the complement of the
    prime's index set and x^A its squarefree monomial:

    * t = 1: u = x1^(k-1).
    * n = 2t - 1 (prime <x_j>): u is the k-th power of the odd-index product,
      divided by x_j.
    * n = 2t (prime <x_i1, x_i2>): u = (x_i1 * x^A)^(k-1) * x^A.
    * n > 2t, level 1: u = (x_i1 * x^A)^(k-1) * x^A, by analogy with n = 2t.
    * n > 2t, level L >= 2: with blocks built from the odd-position entries
      i_1, i_3, ..., i_{2L+1} of the prime,
          block_j = (x_{i_1} x_{i_3} ... x_{i_{2L+1}}) / x_{i_{2j-1}},
          tail    = x_{i_1} x_{i_3} ... x_{i_{2L-3}},
      u = (x^A * block_1)^(k-L+1) * prod_{j=2}^{L-1} (x^A * block_j) * (x^A * tail).
    """
    if k < 1:
        raise ValueError("k must be positive")
    case = classify(n, t)
    if case is PathCase.ZERO:
        raise ZeroIdealError(n, t)
    predicted = predicted_ass(n, t, k)
    if case is PathCase.CASE_GT_2T:
        level = (len(prime.vars) - (n - 2 * t)) // 2
        if level > k:
            raise ValueError(
                f"prime of level {level} is not associated to the {k}-th power"
            )
    if prime not in predicted:
        raise ValueError(f"{prime} is not a predicted associated prime for n={n}, t={t}, k={k}")

    if case is PathCase.DEGENERATE_T1:
        return Monomial.variable(1, n, k - 1)  # exponent 0 is the unit monomial

    if case is PathCase.CASE_2T_MINUS_1:
        (j,) = prime.vars
        exps = [0] * n
        for i in range(1, n + 1, 2):
            exps[i - 1] = k
        exps[j - 1] = k - 1
        return Monomial(exps)

    xa = _complement_monomial(n, prime.vars)
    if case is PathCase.CASE_2T:
        i1 = prime.vars[0]
        return Monomial.variable(i1, n).mul(xa).power(k - 1).mul(xa)

    level = (len(prime.vars) - (n - 2 * t)) // 2
    if level == 1:
        i1 = prime.vars[0]
        return Monomial.variable(i1, n).mul(xa).power(k - 1).mul(xa)

    # odd-position entries i_1, i_3, ..., i_{2L+1} (1-based positions)
    odd_entries = [prime.vars[pos - 1] for pos in range(1, 2 * level + 2, 2)]
    odd_product = Monomial.from_support(odd_entries, n)
    blocks = [
        odd_product.quotient(Monomial.variable(prime.vars[2 * j - 2], n))
        for j in range(1, level)
    ]
    tail = Monomial.from_support(odd_entries[: level - 1], n)
    u = xa.mul(blocks[0]).power(k - level + 1)
    for block in blocks[1:]:
        u = u.mul(xa.mul(block))
    return u.mul(xa.mul(tail))
