"""Independent-set enumeration, ideal construction, and complement combinatorics."""

from math import comb

import pytest

from pathideal import (
    Monomial,
    MonomialIdeal,
    PathCase,
    VarPrime,
    ZeroIdealError,
    classify,
    complement_components,
    ind_ideal,
    independent_sets,
    parity_complement_checks,
)

from helpers import brute_independent_sets


class TestClassify:
    @pytest.mark.parametrize(
        "n,t,case",
        [
            (5, 1, PathCase.DEGENERATE_T1),
            (2, 2, PathCase.ZERO),
            (3, 2, PathCase.CASE_2T_MINUS_1),
            (4, 2, PathCase.CASE_2T),
            (5, 2, PathCase.CASE_GT_2T),
            (6, 3, PathCase.CASE_2T),
            (8, 3, PathCase.CASE_GT_2T),
        ],
    )
    def test_cases(self, n, t, case):
        assert classify(n, t) is case

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            classify(0, 1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 7.5, True, 0, -1])
    def test_non_counts_rejected(self, bad):
        # a NaN or fractional n once fell through every comparison to a regime
        for call in (classify, independent_sets, ind_ideal):
            for name, args in (("n", (bad, 2)), ("t", (7, bad))):
                with pytest.raises(ValueError) as refusal:
                    call(*args)
                assert str(refusal.value) == f"{name} must be a positive integer, got {bad!r}"


class TestIndependentSets:
    def test_small_example(self):
        assert independent_sets(4, 2) == [(1, 3), (1, 4), (2, 4)]

    def test_tight_case_single_set(self):
        for t in range(2, 6):
            assert independent_sets(2 * t - 1, t) == [tuple(range(1, 2 * t, 2))]

    def test_counts_match_enumeration_and_formula(self):
        for t in range(1, 7):
            for n in range(2 * t - 1, 13):
                sets = independent_sets(n, t)
                assert sets == brute_independent_sets(n, t)
                assert len(sets) == comb(n - t + 1, t)

    def test_lexicographic_order(self):
        sets = independent_sets(8, 3)
        assert sets == sorted(sets)

    def test_empty_below_threshold(self):
        assert independent_sets(3, 3) == []
        # a zero cell above the cap is zero, not refused
        assert independent_sets(30, 20) == []

    def test_enumeration_cap(self):
        with pytest.raises(ValueError):
            independent_sets(25, 2)

    def test_maximum_independent_sets_of_even_path(self):
        # the largest independent sets of the path on 2t vertices have t elements
        for t in range(1, 6):
            n = 2 * t
            assert brute_independent_sets(n, t)
            assert not brute_independent_sets(n, t + 1)


class TestIndIdeal:
    def test_tight_case(self):
        assert [g.text() for g in ind_ideal(3, 2).gens] == ["x1*x3"]

    def test_four_vertices(self):
        assert [g.text() for g in ind_ideal(4, 2).gens] == ["x1*x3", "x1*x4", "x2*x4"]

    def test_degenerate_t1(self):
        assert [g.text() for g in ind_ideal(3, 1).gens] == ["x1", "x2", "x3"]

    def test_zero_case(self):
        assert ind_ideal(2, 2).is_zero

    def test_squarefree_equigenerated(self):
        for (n, t) in [(5, 2), (7, 3), (9, 4)]:
            I = ind_ideal(n, t)
            assert I.is_squarefree
            assert all(g.degree == t for g in I.gens)
        # the packed build equals the ideal minimized from Monomials
        for n in range(1, 15):
            for t in range(1, 8):
                built = [Monomial.from_support(s, n) for s in independent_sets(n, t)]
                I = ind_ideal(n, t)
                assert I == MonomialIdeal(n, built)
                assert I.gens == MonomialIdeal(n, built).gens


class TestComplementComponents:
    def test_single_run(self):
        assert complement_components(5, VarPrime(5, (1, 2, 3))) == [2]

    def test_two_odd_runs(self):
        assert complement_components(5, VarPrime(5, (1, 2, 4))) == [1, 1]

    def test_full_prime(self):
        assert complement_components(4, VarPrime(4, (1, 2, 3, 4))) == []

    def test_leading_and_trailing_runs(self):
        assert complement_components(7, VarPrime(7, (3, 4))) == [2, 3]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            complement_components(3, VarPrime(5, (1, 5)))

    def test_prime_from_another_ring(self):
        with pytest.raises(ValueError):
            complement_components(5, VarPrime(8, (1, 2)))


class TestParityComplementChecks:
    def test_level_one_triple(self):
        checks = parity_complement_checks(5, 2, VarPrime(5, (1, 2, 3)), 1)
        assert checks == (True, True, True)

    def test_full_prime_level_two(self):
        checks = parity_complement_checks(6, 2, VarPrime(6, tuple(range(1, 7))), 2)
        assert checks == (True, True, True)

    def test_wrong_size_fails_first_part(self):
        checks = parity_complement_checks(6, 2, VarPrime(6, (1, 2, 3)), 1)
        assert not checks.size_ok

    def test_unfilled_prime_fails_fill(self):
        # A is empty and no single variable lies in I(5, 3), whose generator has degree 3
        checks = parity_complement_checks(5, 3, VarPrime(5, (1, 2, 3, 4, 5)), 1)
        assert checks == (False, True, False)

    def test_malformed_prime_rejected(self):
        with pytest.raises(ValueError):
            parity_complement_checks(4, 2, VarPrime(6, (1, 6)), 1)
        with pytest.raises(ValueError):
            parity_complement_checks(6, 2, VarPrime(6, (1, 2)), 3)

    def test_prime_from_another_ring(self):
        with pytest.raises(ValueError):
            parity_complement_checks(5, 2, VarPrime(9, (1, 2, 3)), 1)

    def test_zero_ideal_cell_rejected(self):
        with pytest.raises(ZeroIdealError) as info:
            parity_complement_checks(4, 3, VarPrime(4, (1, 2, 3, 4)), 3)
        assert (info.value.n, info.value.t) == (4, 3)
