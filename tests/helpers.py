"""Independent brute-force oracles used to cross-check the library.

Everything here deliberately avoids the library's own algorithms: membership
is raw divisibility over generator lists, minimization is the naive quadratic
pass, equality is exhaustive membership agreement on a finite exponent box,
witness primes come from enumerating all bounded colon quotients, minimal
primes of a squarefree ideal come from a set-based drop-one-vertex search,
witness monomials are built as the paper's products of monomials, and the
canonical text of a monomial is written from its exponent tuple.
"""

from __future__ import annotations

from itertools import combinations, product
from random import Random

from pathideal import Monomial, MonomialIdeal, VarPrime


def naive_minimize(exponent_tuples):
    """Quadratic minimal-generator filter over raw exponent tuples."""
    unique = sorted(set(exponent_tuples))
    kept = []
    for cand in unique:
        dominated = False
        for other in unique:
            if other != cand and all(a <= b for a, b in zip(other, cand)):
                dominated = True
                break
        if not dominated:
            kept.append(cand)
    return sorted(kept)


def naive_member(exponent_tuples, monomial_exponents):
    return any(
        all(a <= b for a, b in zip(g, monomial_exponents)) for g in exponent_tuples
    )


def reference_text(exponents) -> str:
    """Canonical text from an exponent tuple: x_i^e for e > 1, x_i for e = 1, "1" if none."""
    parts = []
    for i, e in enumerate(exponents, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


def exponent_box(nvars, bound):
    """All exponent tuples with entries 0..bound."""
    return product(range(bound + 1), repeat=nvars)


def ideals_equal_by_membership(ideal_a: MonomialIdeal, ideal_b: MonomialIdeal) -> bool:
    """Complete equality oracle for small rings: compare membership on a box
    large enough to contain every generator of either ideal."""
    assert ideal_a.nvars == ideal_b.nvars
    bound = 0
    for g in list(ideal_a.gens) + list(ideal_b.gens):
        bound = max(bound, max(g.exponents, default=0))
    gens_a = [g.exponents for g in ideal_a.gens]
    gens_b = [g.exponents for g in ideal_b.gens]
    for exps in exponent_box(ideal_a.nvars, bound):
        if naive_member(gens_a, exps) != naive_member(gens_b, exps):
            return False
    return True


def brute_independent_sets(n, t):
    """Independent t-sets of the n-path by filtering all t-subsets."""
    out = []
    for combo in combinations(range(1, n + 1), t):
        if all(b - a >= 2 for a, b in zip(combo, combo[1:])):
            out.append(combo)
    return out


def brute_witness_primes(ideal: MonomialIdeal, k: int, bound: int):
    """All variable primes of the form I^k : u with u in the exponent box.

    Sound by definition of associated primes; complete for these ideals once
    `bound` reaches the largest exponent a witness needs (k suffices here,
    callers pass k + 1 for margin).
    """
    power = ideal.power(k)
    gens = [g.exponents for g in power.gens]
    nvars = ideal.nvars
    primes = set()
    for exps in exponent_box(nvars, bound):
        if naive_member(gens, exps):
            continue
        quotients = {
            tuple(a - b if a > b else 0 for a, b in zip(g, exps)) for g in gens
        }
        minimal = naive_minimize(quotients)
        if all(sum(1 for e in q if e) == 1 and max(q) == 1 for q in minimal):
            vars_ = tuple(
                sorted(q.index(1) + 1 for q in minimal)
            )
            primes.add(VarPrime(nvars, vars_))
    return primes


def naive_minimal_transversals(ideal: MonomialIdeal) -> tuple[VarPrime, ...]:
    """Minimal primes of a squarefree ideal: every variable subset, as a set,
    that meets every generator's support while no one-vertex-smaller subset does."""
    supports = [g.support() for g in ideal.gens]
    universe = range(1, ideal.nvars + 1)

    def hits_all(subset):
        return all(subset & s for s in supports)

    found = []
    for size in range(1, ideal.nvars + 1):
        for combo in combinations(universe, size):
            subset = frozenset(combo)
            if hits_all(subset) and not any(hits_all(subset - {v}) for v in combo):
                found.append(VarPrime(ideal.nvars, combo))
    return tuple(sorted(found, key=lambda p: p.sort_key))


def random_squarefree_ideal(rng: Random, nvars: int, max_gens: int) -> MonomialIdeal:
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        size = rng.randint(1, nvars)
        gens.append(Monomial.from_support(rng.sample(range(1, nvars + 1), size), nvars))
    return MonomialIdeal(nvars, gens)


def random_ideal(rng: Random, nvars: int, max_gens: int, max_exp: int) -> MonomialIdeal:
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        exps = [rng.randint(0, max_exp) for _ in range(nvars)]
        if not any(exps):
            exps[rng.randrange(nvars)] = 1
        gens.append(Monomial(exps))
    return MonomialIdeal(nvars, gens)


def paper_witness(n: int, t: int, k: int, prime: VarPrime) -> Monomial:
    """The witness for a predicted prime of I(n, t)^k, as the paper's product.

    With A the complement of the prime's indices i_1 < i_2 < ... and L its
    level: for n = 2t - 1 the odd-index product to the k-th, divided by the
    prime's variable; at level 1, (x_{i_1} x^A)^(k-1) x^A; at level L >= 2,
    (x^A b_1)^(k-L+1) * prod_{j=2}^{L-1} (x^A b_j) * (x^A tail), where b_j is
    the product of x_{i_1}, x_{i_3}, ..., x_{i_{2L+1}} without x_{i_{2j-1}}
    and tail is x_{i_1} x_{i_3} ... x_{i_{2L-3}}.
    """
    if n == 2 * t - 1:
        odd = Monomial.from_support(range(1, n + 1, 2), n)
        return odd.power(k).quotient(Monomial.variable(prime.vars[0], n))
    xa = Monomial.from_support([v for v in range(1, n + 1) if v not in prime.vars], n)
    level = (len(prime.vars) - (n - 2 * t)) // 2
    if level == 1:
        return Monomial.variable(prime.vars[0], n).mul(xa).power(k - 1).mul(xa)
    odd_entries = [prime.vars[pos - 1] for pos in range(1, 2 * level + 2, 2)]
    odd_product = Monomial.from_support(odd_entries, n)
    blocks = [
        odd_product.quotient(Monomial.variable(odd_entries[j - 1], n)) for j in range(1, level)
    ]
    tail = Monomial.from_support(odd_entries[: level - 1], n)
    u = xa.mul(blocks[0]).power(k - level + 1)
    for block in blocks[1:]:
        u = u.mul(xa.mul(block))
    return u.mul(xa.mul(tail))
