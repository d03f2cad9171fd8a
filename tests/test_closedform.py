"""The parity rule, predicted associated primes, stability, and witness formulas."""

import time
from itertools import combinations

import pytest

from pathideal import (
    PathCase,
    VarPrime,
    ZeroIdealError,
    associated_primes,
    classify,
    complement_components,
    ind_ideal,
    intersect_components,
    irreducible_decomposition,
    parity_complement_checks,
    predicted_ass,
    predicted_astab,
    predicted_decomposition_2t,
    predicted_ntf,
    predicted_stable_set,
    verify_witness,
    witness_monomial,
)
from pathideal.closedform import _parity_level, _predicted_count
from pathideal.ideal import DeadlineExceeded

from helpers import paper_witness


def brute_parity_tuples(n, length):
    return [
        combo
        for combo in combinations(range(1, n + 1), length)
        if all((i - j) % 2 == 0 for j, i in enumerate(combo, start=1))
    ]


class TestParityLevel:
    def test_validation(self):
        assert _parity_level(5, 2, (1, 2, 3)) == 1
        assert _parity_level(5, 2, (2, 3, 4)) is None  # parity broken at position 1
        assert _parity_level(5, 2, (1, 2)) is None  # wrong length
        assert _parity_level(5, 2, (1, 2, 3, 4, 5, 6, 7)) is None  # indices beyond n

    @pytest.mark.parametrize("n, indices", [(2, (-1, 0)), (3, (-1, 0, 1))])
    def test_rejects_indices_below_one(self, n, indices):
        # the parity rule holds on these lists; only the range [1, n] fails
        assert _parity_level(n, 1, indices) is None

    def test_matches_brute_filter(self):
        for t in range(1, 6):
            for n in range(1, 11):
                for length in range(n + 1):
                    level, odd = divmod(length - (n - 2 * t), 2)
                    parity_lists = set(brute_parity_tuples(n, length))
                    for combo in combinations(range(1, n + 1), length):
                        expected = level if combo in parity_lists and not odd and level >= 1 else None
                        assert _parity_level(n, t, combo) == expected, (n, t, combo)


def indices_of_length(n, t, k, length):
    return [p.vars for p in predicted_ass(n, t, k) if len(p.vars) == length]


class TestPredictedAss:
    def test_five_two_level_one(self):
        assert indices_of_length(5, 2, 2, 3) == [(1, 2, 3), (1, 2, 5), (1, 4, 5), (3, 4, 5)]

    def test_five_two_level_two(self):
        assert indices_of_length(5, 2, 2, 5) == [(1, 2, 3, 4, 5)]

    def test_six_two_level_one(self):
        assert indices_of_length(6, 2, 2, 4) == [
            (1, 2, 3, 4),
            (1, 2, 3, 6),
            (1, 2, 5, 6),
            (1, 4, 5, 6),
            (3, 4, 5, 6),
        ]

    def test_matches_brute_filter(self):
        # n = 2t - 1 and n = 2t have their single level; wider cells have t
        cells = [(3, 2), (5, 3), (4, 2), (6, 3), (5, 2), (6, 2), (7, 2), (7, 3), (8, 3), (9, 4)]
        for (n, t) in cells:
            for level in range(1, predicted_astab(n, t) + 1):
                length = n - 2 * t + 2 * level
                assert indices_of_length(n, t, t, length) == brute_parity_tuples(n, length)

    def test_levels_stop_at_astab_and_k(self):
        # n = 2t has level 1 alone: no prime on all four variables at any k
        assert indices_of_length(4, 2, 2, 4) == []
        with pytest.raises(ValueError, match="is not a predicted associated prime"):
            witness_monomial(4, 2, 2, VarPrime(4, (1, 2, 3, 4)))
        # n = 2t - 1: the odd singletons, at level 1
        assert indices_of_length(3, 2, 1, 1) == [(1,), (3,)]
        assert [p.vars for p in predicted_ass(5, 3, 1)] == [(1,), (3,), (5,)]
        # n > 2t: levels run up to t, so k = t + 1 adds nothing
        assert predicted_ass(6, 2, 3) == predicted_ass(6, 2, 2)
        assert max(len(p.vars) for p in predicted_ass(6, 2, 3)) == 6 - 4 + 2 * 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 7.5, True, 0, -1])
    def test_non_counts_rejected(self, bad):
        # NaN and fractional parameters once gave a stability index and primes
        calls = [(predicted_ass, (5, 2, bad), "k")]
        for call in (predicted_astab, predicted_ntf):
            calls += [(call, (bad, 2), "n"), (call, (7, bad), "t")]
        for call, args, name in calls:
            with pytest.raises(ValueError) as refusal:
                call(*args)
            assert str(refusal.value) == f"{name} must be a positive integer, got {bad!r}"

    def test_tight_case_constant_in_k(self):
        for k in (1, 2, 5):
            assert [p.vars for p in predicted_ass(3, 2, k)] == [(1,), (3,)]

    def test_even_case(self):
        expected = [(1, 2), (1, 4), (3, 4)]
        for k in (1, 3):
            assert [p.vars for p in predicted_ass(4, 2, k)] == expected
        assert len(predicted_ass(6, 3, 2)) == 3 * 4 // 2

    def test_growth_then_saturation(self):
        assert len(predicted_ass(5, 2, 1)) == 4
        assert len(predicted_ass(5, 2, 2)) == 5
        assert predicted_ass(5, 2, 2) == predicted_ass(5, 2, 3)

    def test_degenerate_t1(self):
        assert [p.vars for p in predicted_ass(4, 1, 3)] == [(1, 2, 3, 4)]

    def test_one_parity_rule_for_every_regime(self):
        # t = 1, n = 2t - 1, n = 2t and n > 2t all follow the same index rule
        for t in range(1, 6):
            for n in range(2 * t - 1, 13):
                for k in range(1, t + 2):
                    top = min(t, k) if n > 2 * t else 1
                    expected = [
                        combo
                        for level in range(1, top + 1)
                        for combo in brute_parity_tuples(n, n - 2 * t + 2 * level)
                    ]
                    assert [p.vars for p in predicted_ass(n, t, k)] == sorted(
                        expected, key=lambda c: (len(c), c)
                    ), (n, t, k)

    def test_zero_rejected_with_tag(self):
        with pytest.raises(ZeroIdealError) as err:
            predicted_ass(2, 2, 1)
        assert err.value.case.value == "ZERO"
        # above the path-vertex cap a zero cell is still ZERO, and any other is refused
        with pytest.raises(ZeroIdealError):
            predicted_ass(60, 40, 2)
        with pytest.raises(ValueError, match="exceeds the enumeration cap 24"):
            predicted_ass(25, 1, 1)

    def test_formula_level_persistence(self):
        for (n, t) in [(5, 2), (6, 2), (7, 3), (8, 3)]:
            for k in range(1, t + 2):
                assert set(predicted_ass(n, t, k)) <= set(predicted_ass(n, t, k + 1))
        for (n, t) in [(5, 2), (7, 3)]:
            for k in range(1, t):
                assert set(predicted_ass(n, t, k)) < set(predicted_ass(n, t, k + 1))

    def test_saturates_at_t(self):
        for (n, t) in [(5, 2), (6, 2), (7, 3), (9, 4)]:
            for k in range(t, t + 3):
                assert predicted_ass(n, t, k) == predicted_ass(n, t, t)

    def test_count_matches_the_enumeration(self):
        cells = [
            (n, t, k)
            for n in range(1, 17)
            for t in range(1, 9)
            for k in range(1, 9)
            if classify(n, t) is not PathCase.ZERO
        ]
        assert len(cells) == 576
        for n, t, k in cells:
            assert _predicted_count(n, t, k) == len(predicted_ass(n, t, k)), (n, t, k)
        assert _predicted_count(24, 8, 8) == 56070

    def test_past_deadline_raises(self):
        with pytest.raises(DeadlineExceeded):
            predicted_ass(5, 2, 2, deadline=time.monotonic() - 1.0)
        assert predicted_ass(5, 2, 2, deadline=time.monotonic() + 60.0) == predicted_ass(5, 2, 2)

    def test_deadline_read_every_few_thousand_lists(self, monkeypatch):
        # levels 1 to 3 of this cell hold 19,448, 18,564 and 11,628 index lists,
        # so a check per level would read the clock 8 times in all
        reads = []
        real_clock = time.monotonic

        def clock():
            reads.append(None)
            return real_clock()

        monkeypatch.setattr(time, "monotonic", clock)
        primes = predicted_ass(24, 8, 8, deadline=real_clock() + 600.0)
        assert len(primes) == 56070 and len(reads) >= len(primes) // 5000


class TestStability:
    def test_even_and_tight_cases(self):
        assert predicted_astab(4, 2) == 1 and predicted_ntf(4, 2)
        assert predicted_astab(3, 2) == 1 and predicted_ntf(3, 2)

    def test_degenerate_t1(self):
        assert predicted_astab(5, 1) == predicted_astab(1, 1) == 1

    def test_wide_case(self):
        assert predicted_astab(5, 2) == 2 and not predicted_ntf(5, 2)
        assert predicted_astab(9, 3) == 3

    def test_stable_set_is_prediction_at_t(self):
        assert predicted_stable_set(9, 3) == predicted_ass(9, 3, 3)

    def test_zero_rejected(self):
        with pytest.raises(ZeroIdealError):
            predicted_astab(3, 3)

    def test_complement_runs_are_even(self):
        for t in (2, 3):
            for n in range(2 * t, 11):
                for p in predicted_stable_set(n, t):
                    level = (len(p.vars) - (n - 2 * t)) // 2
                    assert 1 <= level <= predicted_astab(n, t)
                    assert all(s % 2 == 0 for s in complement_components(n, p))


class TestPredictedDecomposition:
    def test_t2_k1_components(self):
        components = predicted_decomposition_2t(2, 1)
        assert isinstance(components, tuple)
        assert [tuple(c.powers) for c in components] == [
            ((1, 1), (2, 1)),
            ((1, 1), (4, 1)),
            ((3, 1), (4, 1)),
        ]
        assert intersect_components(components, 4) == ind_ideal(4, 2)

    def test_t2_k2_intersection(self):
        components = predicted_decomposition_2t(2, 2)
        assert len(components) == 6
        assert list(components) == sorted(components, key=lambda c: c.sort_key)
        assert intersect_components(components, 4) == ind_ideal(4, 2).power(2)

    def test_component_count_formula(self):
        for t in (2, 3, 4):
            pairs = [
                (i, j)
                for i in range(1, 2 * t, 2)
                for j in range(i + 1, 2 * t + 1)
                if j % 2 == 0
            ]
            assert len(pairs) == t * (t + 1) // 2
            for k in (1, 2, 3):
                assert len(predicted_decomposition_2t(t, k)) == k * len(pairs)

    def test_t1_matches_the_engine(self):
        # n = 2: I(2, 1) = <x1, x2>, whose k-th power has the k components <x1^r, x2^(k+1-r)>
        for k in (1, 2, 3, 4):
            expected = irreducible_decomposition(ind_ideal(2, 1).power(k))
            assert predicted_decomposition_2t(1, k) == expected

    def test_parameter_violations(self):
        with pytest.raises(ValueError):
            predicted_decomposition_2t(2, 0)


class TestWitnessMonomial:
    def test_level_one_example(self):
        u = witness_monomial(5, 2, 1, VarPrime(5, (1, 2, 3)))
        assert u.text() == "x4*x5"

    def test_level_two_example(self):
        u = witness_monomial(5, 2, 2, VarPrime(5, (1, 2, 3, 4, 5)))
        assert u.text() == "x1*x3*x5"

    def test_even_case_example(self):
        u = witness_monomial(4, 2, 2, VarPrime(4, (1, 4)))
        assert u.text() == "x1*x2^2*x3^2"

    def test_tight_case(self):
        u = witness_monomial(3, 2, 2, VarPrime(3, (3,)))
        assert u.text() == "x1^2*x3"

    @pytest.mark.parametrize(
        "n, t, k, indices, text",
        [
            (4, 1, 3, (1, 2, 3, 4), "x1^2"),
            (5, 1, 1, (1, 2, 3, 4, 5), "1"),
            (4, 2, 3, (1, 4), "x1^2*x2^3*x3^3"),
        ],
    )
    def test_level_one_formula_covers_t1_and_even_case(self, n, t, k, indices, text):
        assert witness_monomial(n, t, k, VarPrime(n, indices)).text() == text

    def test_matches_paper_product(self):
        for t in range(1, 7):
            for n in range(2 * t - 1, 13):
                for k in range(1, 6):
                    for prime in predicted_ass(n, t, k):
                        assert witness_monomial(n, t, k, prime) == paper_witness(n, t, k, prime), (
                            n, t, k, prime.vars
                        )

    def test_rejects_prime_from_another_ring(self):
        # read on n = 5 by its length alone, this prime would have level 3 > t
        with pytest.raises(ValueError, match="is not a predicted associated prime"):
            witness_monomial(5, 2, 1, VarPrime(8, tuple(range(1, 9))))

    def test_rejects_unpredicted_prime(self):
        with pytest.raises(ValueError):
            witness_monomial(5, 2, 1, VarPrime(5, (2, 3)))
        # level-2 prime is not associated at k=1
        with pytest.raises(ValueError):
            witness_monomial(5, 2, 1, VarPrime(5, (1, 2, 3, 4, 5)))

    def test_all_witnesses_verify_on_small_grid(self):
        for t in (2, 3):
            for n in range(2 * t - 1, 8):
                ideal = ind_ideal(n, t)
                for k in (1, 2, 3):
                    power = ideal.power(k)
                    for prime in predicted_ass(n, t, k):
                        u = witness_monomial(n, t, k, prime)
                        check = verify_witness(ideal, k, u, prime, power=power)
                        assert check.ok, (n, t, k, prime.vars, check.reason)

    def test_witnesses_for_degenerate_t1(self):
        ideal = ind_ideal(3, 1)
        prime = VarPrime(3, (1, 2, 3))
        for k in (1, 2, 3):
            u = witness_monomial(3, 1, k, prime)
            assert verify_witness(ideal, k, u, prime).ok


class TestAgainstEngine:
    def test_predictions_match_decomposition_on_spot_cells(self):
        for (n, t, k) in [(3, 2, 2), (4, 2, 2), (5, 2, 1), (5, 2, 2), (6, 2, 2), (7, 3, 2)]:
            computed = associated_primes(ind_ideal(n, t).power(k))
            assert computed == predicted_ass(n, t, k)

    def test_parity_primes_pass_complement_checks(self):
        for t in (2, 3):
            for n in range(2 * t, 9):
                for p in predicted_stable_set(n, t):
                    level = (len(p.vars) - (n - 2 * t)) // 2
                    assert parity_complement_checks(n, t, p, level) == (True, True, True)
