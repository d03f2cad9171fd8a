"""Closed-form predictions for associated primes of powers of path independence ideals.

Everything here is formula-driven: parity-constrained prime enumeration, the
predicted stable set and stability index, the explicit pure-power
decomposition for n = 2t, and the witness monomials whose colon realizes each
predicted prime.  The decomposition engine adjudicates these predictions; this
module never computes a decomposition itself.
"""

from __future__ import annotations

from itertools import chain, combinations_with_replacement, islice
from math import comb
from typing import Iterator, Optional

from .decomposition import IrreducibleComponent, VarPrime
from .ideal import _check_deadline
from .monomial import Monomial, _check_counts
from .pathfamily import PathCase, ZeroIdealError, _check_vertex_cap, classify

__all__ = [
    "predicted_ass",
    "predicted_astab",
    "predicted_stable_set",
    "predicted_ntf",
    "predicted_decomposition_2t",
    "witness_monomial",
]


def _parity_level(n: int, t: int, indices: tuple[int, ...]) -> Optional[int]:
    """The level of a parity index list, or None when `indices` breaks the rule.

    The rule: i_1 < ... < i_L in [n] with i_j = j (mod 2) and
    L = n - 2t + 2*level for some level >= 1.
    """
    level, odd = divmod(len(indices) - (n - 2 * t), 2)
    bounds = (0, *indices, n + 1)
    increasing = all(a < b for a, b in zip(bounds, bounds[1:]))
    parity = all((i - j) % 2 == 0 for j, i in enumerate(indices, start=1))
    return level if level >= 1 and not odd and increasing and parity else None


def _parity_index_lists(n: int, length: int) -> Iterator[tuple[int, ...]]:
    """All increasing index lists i_1 < ... < i_length in [n] with i_j = j (mod 2).

    The bijection i_j = j + 2*a_j maps them onto the nondecreasing sequences a
    with entries in 0..(n - length)//2, in the same lexicographic order.
    """
    return (
        tuple(j + 2 * a for j, a in enumerate(combo, start=1))
        for combo in combinations_with_replacement(range((n - length) // 2 + 1), length)
    )


# The number of index lists predicted_ass builds between two deadline checks:
# a level of (24, 8, 8) alone holds 19,448 of them.
_LISTS_PER_CHECK = 4096


def predicted_ass(
    n: int, t: int, k: int, *, deadline: Optional[float] = None
) -> tuple[VarPrime, ...]:
    """The predicted set of associated primes of the k-th power, canonically ordered.

    One rule covers every nonzero regime: the primes on index lists
    i_1 < ... < i_L in [n] with i_j = j (mod 2) and L = n - 2t + 2*level, for
    every level from 1 to min(predicted_astab(n, t), k).  So t = 1 gives the
    maximal prime, n = 2t - 1 the odd singletons and n = 2t the (odd, even)
    pairs.  Output is in `sort_key` order, by prime size (equivalently level),
    then lexicographically: the length grows with the level, and each level's
    index lists come in lexicographic order.  `deadline` is an optional
    time.monotonic() instant, tested by `_check_deadline` before every
    _LISTS_PER_CHECK index lists.  A nonzero cell with n above
    MAX_PATH_VERTICES raises ValueError before any list is built.
    """
    _check_counts(k=k)
    top = min(predicted_astab(n, t), k)
    _check_vertex_cap(n)
    lists = chain.from_iterable(
        _parity_index_lists(n, n - 2 * t + 2 * level) for level in range(1, top + 1)
    )
    primes: list[VarPrime] = []
    while True:
        _check_deadline(deadline, "prediction")
        batch = [VarPrime._from_vars(n, idx) for idx in islice(lists, _LISTS_PER_CHECK)]
        if not batch:
            return tuple(primes)
        primes += batch


def _predicted_count(n: int, t: int, k: int) -> int:
    """len(predicted_ass(n, t, k)) without enumerating the primes.

    Level L contributes the nondecreasing sequences of length
    L = n - 2t + 2*level with entries in 0..(n - L)//2 (see
    `_parity_index_lists`), and there are C((n - L)//2 + L, L) of them.
    """
    top = min(predicted_astab(n, t), k)
    lengths = (n - 2 * t + 2 * level for level in range(1, top + 1))
    return sum(comb((n - length) // 2 + length, length) for length in lengths)


def predicted_astab(n: int, t: int) -> int:
    """Predicted index of stability: t when n > 2t, else 1."""
    if classify(n, t) is PathCase.ZERO:
        raise ZeroIdealError(n, t)
    return t if n > 2 * t else 1


def predicted_stable_set(n: int, t: int) -> tuple[VarPrime, ...]:
    """The stable set of associated primes: the prediction at k = t."""
    # at k = predicted_astab(n, t) <= t, which checks n and t before k is read
    return predicted_ass(n, t, predicted_astab(n, t))


def predicted_ntf(n: int, t: int) -> bool:
    """Normally torsion-free iff the index of stability is 1."""
    return predicted_astab(n, t) == 1


def predicted_decomposition_2t(t: int, k: int) -> tuple[IrreducibleComponent, ...]:
    """The closed-form decomposition of the k-th power when n = 2t, in `sort_key` order.

    Components are <x_i^r, x_j^{k+1-r}> over odd i < even j in [2t] and
    1 <= r <= k; there are exactly k * t(t+1)/2 of them.
    """
    _check_counts(t=t, k=k)
    n = 2 * t
    components = [
        IrreducibleComponent(n, ((i, r), (j, k + 1 - r)))
        for i, j in _parity_index_lists(n, 2)
        for r in range(1, k + 1)
    ]
    return tuple(sorted(components, key=lambda c: c.sort_key))


def witness_monomial(n: int, t: int, k: int, prime: VarPrime) -> Monomial:
    """Construct the monomial u with I^k : u equal to `prime` and u outside I^k.

    The prime must be a parity prime (see `predicted_ass`) on n variables of
    some level L <= min(predicted_astab(n, t), k).  With A the complement of
    its index set i_1 < i_2 < ... and x^A the squarefree monomial on A:

    * n = 2t - 1 (prime <x_j>): u is the k-th power of the odd-index product,
      divided by x_j.
    * level 1 otherwise: u = (x_{i_1} * x^A)^(k-1) * x^A.  This covers t = 1,
      where A is empty and u = x1^(k-1), and n = 2t, where every prime has
      level 1.
    * level L >= 2 (so n > 2t): with blocks built from the odd-position
      entries i_1, i_3, ..., i_{2L+1} of the prime,
          block_j = (x_{i_1} x_{i_3} ... x_{i_{2L+1}}) / x_{i_{2j-1}},
          tail    = x_{i_1} x_{i_3} ... x_{i_{2L-3}},
      u = (x^A * block_1)^(k-L+1) * prod_{j=2}^{L-1} (x^A * block_j) * (x^A * tail).
    """
    _check_counts(k=k)
    astab = predicted_astab(n, t)  # raises for a zero ideal before the prime is read
    level = _parity_level(n, t, prime.vars) if prime.nvars == n else None
    if level is None or level > astab:
        raise ValueError(f"{prime} is not a predicted associated prime for n={n}, t={t}, k={k}")
    if level > k:
        raise ValueError(f"prime of level {level} is not associated to the {k}-th power")

    if n == 2 * t - 1:
        exps = [k if i % 2 else 0 for i in range(1, n + 1)]
        exps[prime.vars[0] - 1] = k - 1
        return Monomial(exps)

    # the product above, exponent by exponent
    exps = [0 if i in prime.vars else k for i in range(1, n + 1)]
    if level == 1:
        exps[prime.vars[0] - 1] = k - 1
    else:
        exps[prime.vars[0] - 1] = level - 1
        for i in prime.vars[2 : 2 * level + 1 : 2]:
            exps[i - 1] = k - 1
    return Monomial(exps)
