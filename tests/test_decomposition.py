"""Splitting decomposition, irredundancy, associated primes, and witnesses."""

from random import Random

import pytest

from pathideal import (
    DecompositionCache,
    IrreducibleComponent,
    Monomial,
    MonomialIdeal,
    VarPrime,
    associated_primes,
    ind_ideal,
    intersect_components,
    irreducible_decomposition,
    minimal_primes_squarefree,
    verify_witness,
)
from pathideal.decomposition import (
    WITNESS_COLON_TOO_BIG,
    WITNESS_COLON_TOO_SMALL,
    WITNESS_IN_POWER,
    _ABSENT,
    _prune,
)

from helpers import brute_witness_primes, random_ideal, random_squarefree_ideal


def comp(nvars, **powers):
    return IrreducibleComponent(nvars, tuple((int(k[1:]), v) for k, v in powers.items()))


def primes_of(decomp):
    return sorted({c.radical_prime().vars for c in decomp})


class TestSplitting:
    def test_path_ideal_on_four_vertices(self):
        # oracle: minimal vertex covers of {{1,3},{1,4},{2,4}}
        comps = irreducible_decomposition(ind_ideal(4, 2))
        assert set(comps) == {comp(4, x1=1, x2=1), comp(4, x1=1, x4=1), comp(4, x3=1, x4=1)}

    def test_principal_mixed_square(self):
        comps = irreducible_decomposition(MonomialIdeal(3, [Monomial((2, 0, 2))]))
        assert set(comps) == {comp(3, x1=2), comp(3, x3=2)}

    def test_square_of_path_ideal(self):
        # closed-form instance t=2, k=2: six components <x_i^r, x_j^{3-r}>
        comps = irreducible_decomposition(ind_ideal(4, 2).power(2))
        expected = {
            comp(4, x1=r, x2=3 - r) for r in (1, 2)
        } | {
            comp(4, x1=r, x4=3 - r) for r in (1, 2)
        } | {
            comp(4, x3=r, x4=3 - r) for r in (1, 2)
        }
        assert set(comps) == expected
        assert intersect_components(comps, 4) == ind_ideal(4, 2).power(2)

    def test_path_ideal_on_five_vertices(self):
        # oracle: minimal vertex covers of the six generator supports
        comps = irreducible_decomposition(ind_ideal(5, 2))
        assert primes_of(comps) == [(1, 2, 3), (1, 2, 5), (1, 4, 5), (3, 4, 5)]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            irreducible_decomposition(MonomialIdeal.zero(3))

    def test_roundtrip_on_random_inputs(self):
        rng = Random(101)
        for _ in range(40):
            I = random_ideal(rng, 4, 4, 3)
            comps = irreducible_decomposition(I)
            assert intersect_components(comps, I.nvars) == I

    def test_removing_any_component_enlarges_intersection(self):
        for I in (ind_ideal(5, 2).power(2), ind_ideal(4, 2).power(3)):
            comps = irreducible_decomposition(I)
            for i in range(len(comps)):
                rest = comps[:i] + comps[i + 1 :]
                assert intersect_components(rest, I.nvars) != I

    def test_deterministic_across_cache_states(self):
        I = ind_ideal(6, 2).power(2)
        first = irreducible_decomposition(I, cache=DecompositionCache())
        warm_cache = DecompositionCache()
        irreducible_decomposition(I, cache=warm_cache)
        second = irreducible_decomposition(I, cache=warm_cache)
        tiny = irreducible_decomposition(I, cache=DecompositionCache(maxsize=8))
        assert first == second == tiny

    def test_split_node_counts_pinned(self):
        # misses are split nodes; the counts are deterministic for a fresh cache
        for n, t, k, misses, hits, count in [
            (6, 2, 3, 655, 318, 80),
            (7, 3, 3, 1866, 685, 97),
            (7, 3, 4, 6746, 2943, 230),
        ]:
            cache = DecompositionCache()
            comps = irreducible_decomposition(ind_ideal(n, t).power(k), cache=cache)
            assert (cache.misses, cache.hits, len(comps)) == (misses, hits, count)

    def test_cache_eviction_keeps_results_correct(self):
        I = ind_ideal(5, 2).power(2)
        unbounded = irreducible_decomposition(I, cache=DecompositionCache())
        assert irreducible_decomposition(I, cache=DecompositionCache(maxsize=2)) == unbounded


def assert_irredundant(comps, I):
    # no component contains another, and each one is needed for the intersection
    ideals = [c.as_ideal() for c in comps]
    for i, a in enumerate(ideals):
        for j, b in enumerate(ideals):
            assert i == j or not a.is_subset(b)
    assert intersect_components(comps, I.nvars) == I
    for i in range(len(comps)):
        rest = comps[:i] + comps[i + 1 :]
        assert intersect_components(rest, I.nvars) != I


class TestIrredundantFilter:
    # the engine's merge keeps its output irredundant, so no filter pass is needed
    def test_already_irredundant_unchanged(self):
        I = ind_ideal(4, 2)
        comps = irreducible_decomposition(I)
        assert_irredundant(comps, I)
        assert irreducible_decomposition(I) == comps

    def test_noop_on_engine_output(self):
        for I in (ind_ideal(5, 2).power(2), ind_ideal(6, 3).power(2)):
            assert_irredundant(irreducible_decomposition(I), I)


class TestPrune:
    # components as dense exponent vectors; _ABSENT marks an unused variable
    def test_containment_prune(self):
        # <x1, x2> contains <x1>, from either side
        x1, x1_x2 = (1, _ABSENT), (1, 1)
        assert _prune((x1,), (x1_x2,)) == (x1,)
        assert _prune((x1_x2,), (x1,)) == (x1,)

    def test_duplicate_kept_once(self):
        x1, x2, squares = (1, _ABSENT), (_ABSENT, 1), (2, 2)
        pruned = _prune((x1, x2), (x1, squares))
        assert sorted(pruned) == sorted([x1, x2, squares])

    def test_incomparable_supports_kept(self):
        left = ((1, _ABSENT, 2), (_ABSENT, 3, _ABSENT))
        right = ((_ABSENT, _ABSENT, 1), (2, 4, _ABSENT))
        assert sorted(_prune(left, right)) == sorted(left + right)


class TestAssociatedPrimes:
    def test_principal_squarefree(self):
        I = MonomialIdeal(5, [Monomial.parse("x1*x3*x5", 5)])
        assert associated_primes(I) == (
            VarPrime(5, (1,)),
            VarPrime(5, (3,)),
            VarPrime(5, (5,)),
        )

    def test_path_ideal_on_four_vertices(self):
        assert [p.vars for p in associated_primes(ind_ideal(4, 2))] == [
            (1, 2),
            (1, 4),
            (3, 4),
        ]

    def test_square_gains_maximal_prime(self):
        primes = associated_primes(ind_ideal(5, 2).power(2))
        assert [p.vars for p in primes] == [
            (1, 2, 3),
            (1, 2, 5),
            (1, 4, 5),
            (3, 4, 5),
            (1, 2, 3, 4, 5),
        ]

    def test_agrees_with_transversal_oracle_on_squarefree(self):
        rng = Random(211)
        for _ in range(60):
            I = random_squarefree_ideal(rng, rng.randint(2, 6), 4)
            assert associated_primes(I) == minimal_primes_squarefree(I)


class TestMinimalPrimes:
    def test_path_ideal_covers(self):
        assert [p.vars for p in minimal_primes_squarefree(ind_ideal(4, 2))] == [
            (1, 2),
            (1, 4),
            (3, 4),
        ]

    def test_single_generator(self):
        I = MonomialIdeal(5, [Monomial.parse("x1*x3*x5", 5)])
        assert [p.vars for p in minimal_primes_squarefree(I)] == [(1,), (3,), (5,)]

    def test_five_vertex_path_ideal(self):
        assert [p.vars for p in minimal_primes_squarefree(ind_ideal(5, 2))] == [
            (1, 2, 3),
            (1, 2, 5),
            (1, 4, 5),
            (3, 4, 5),
        ]

    def test_rejects_non_squarefree(self):
        with pytest.raises(ValueError):
            minimal_primes_squarefree(MonomialIdeal(2, [Monomial((2, 0))]))


class TestWitness:
    def test_valid_witness(self):
        I = ind_ideal(5, 2)
        check = verify_witness(I, 1, Monomial.parse("x4*x5", 5), VarPrime(5, (1, 2, 3)))
        assert check.ok and check.reason is None

    def test_maximal_prime_witness(self):
        I = ind_ideal(5, 2)
        u = Monomial.parse("x1*x3*x5", 5)
        assert verify_witness(I, 2, u, VarPrime(5, (1, 2, 3, 4, 5))).ok

    def test_member_fails_with_reason(self):
        I = ind_ideal(5, 2)
        check = verify_witness(I, 1, Monomial.parse("x1*x3", 5), VarPrime(5, (1, 2, 3)))
        assert not check.ok and check.reason == WITNESS_IN_POWER

    def test_colon_too_big(self):
        I = ind_ideal(5, 2)
        # I : x4*x5 is <x1,x2,x3>, strictly bigger than <x1,x2>
        check = verify_witness(I, 1, Monomial.parse("x4*x5", 5), VarPrime(5, (1, 2)))
        assert not check.ok and check.reason == WITNESS_COLON_TOO_BIG

    def test_colon_too_small(self):
        I = ind_ideal(5, 2)
        check = verify_witness(
            I, 1, Monomial.parse("x4*x5", 5), VarPrime(5, (1, 2, 3, 4))
        )
        assert not check.ok and check.reason == WITNESS_COLON_TOO_SMALL

    def test_bounded_search_oracle_matches_engine(self):
        # every bounded witness prime is associated, and every associated prime
        # is realized by some bounded witness
        for (n, t, k) in [(3, 2, 2), (4, 2, 1), (4, 2, 2), (5, 2, 1), (5, 2, 2)]:
            I = ind_ideal(n, t)
            engine = set(associated_primes(I.power(k)))
            oracle = brute_witness_primes(I, k, k + 1)
            assert oracle == engine
