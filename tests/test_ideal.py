"""Ideal algebra: minimization, membership, sums/products/powers, colon, radical."""

import time
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from pathideal import (
    DimensionMismatch,
    ExponentOverflow,
    ImproperIdeal,
    Monomial,
    MonomialIdeal,
    ind_ideal,
)
from pathideal import ideal as ideal_module
from pathideal import monomial as monomial_module
from pathideal.ideal import DeadlineExceeded
from pathideal.monomial import EXPONENT_CAP, _pack, _unpack

from helpers import (
    exponent_box,
    ideals_equal_by_membership,
    naive_member,
    naive_minimize,
    random_ideal,
    reference_text,
)


def m(text, nvars):
    return Monomial.parse(text, nvars)


def ideal(nvars, *texts):
    return MonomialIdeal(nvars, [m(t, nvars) for t in texts])


class TestMinimize:
    def test_drops_multiples(self):
        assert ideal(4, "x1", "x1*x3", "x2*x4") == ideal(4, "x1", "x2*x4")

    def test_empty_is_zero(self):
        assert MonomialIdeal(4).is_zero

    def test_dedupes(self):
        assert ideal(4, "x1*x3", "x1*x3").gens == ideal(4, "x1*x3").gens

    def test_no_generator_divides_another(self):
        rng = Random(7)
        for _ in range(50):
            candidate = random_ideal(rng, 4, 6, 3)
            gens = candidate.gens
            for i, a in enumerate(gens):
                for j, b in enumerate(gens):
                    assert i == j or not a.divides(b)

    def test_matches_naive_minimize(self):
        rng = Random(11)
        for _ in range(50):
            raw = [
                tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(rng.randint(1, 7))
            ]
            raw = [t if any(t) else (1, 0, 0, 0) for t in raw]
            built = MonomialIdeal(4, [Monomial(t) for t in raw])
            assert sorted(g.exponents for g in built.gens) == naive_minimize(raw)

    def test_unit_ideal_unrepresentable(self):
        with pytest.raises(ImproperIdeal):
            MonomialIdeal(3, [Monomial.one(3)])

    def test_generator_from_another_ring_rejected(self):
        with pytest.raises(DimensionMismatch):
            MonomialIdeal(3, [Monomial((1, 0))])


class TestMembership:
    def test_path_ideal_contains(self):
        I = ind_ideal(4, 2)  # enumeration oracle: {x1*x3, x1*x4, x2*x4}
        assert I.contains(m("x1*x3*x4", 4))
        assert not I.contains(m("x2*x3", 4))

    def test_zero_contains_nothing(self):
        Z = MonomialIdeal.zero(3)
        for exps in exponent_box(3, 2):
            assert not Z.contains(Monomial(exps))


class TestSumProductPower:
    def test_principal_power(self):
        assert ideal(3, "x1*x3").power(2) == ideal(3, "x1^2*x3^2")

    def test_product_of_principals(self):
        assert ideal(2, "x1").product(ideal(2, "x2")) == ideal(2, "x1*x2")

    def test_square_of_path_ideal(self):
        # oracle: pairwise products of {x1*x3, x1*x4, x2*x4}, minimized by hand
        expected = ideal(
            4, "x1^2*x3^2", "x1^2*x3*x4", "x1*x2*x3*x4", "x1^2*x4^2", "x1*x2*x4^2", "x2^2*x4^2"
        )
        assert ind_ideal(4, 2).power(2) == expected

    def test_power_one_is_identity(self):
        I = ind_ideal(5, 2)
        assert I.power(1) == I

    def test_power_zero_rejected(self):
        with pytest.raises(ValueError):
            ind_ideal(4, 2).power(0)

    def test_power_deadline(self):
        I = ind_ideal(8, 3)
        with pytest.raises(DeadlineExceeded):
            I.power(4, deadline=time.monotonic() - 1.0)
        assert I.power(4, deadline=time.monotonic() + 60.0) == I.power(4)

    def test_power_deadline_covers_last_minimize(self, monkeypatch):
        # a deadline that passes during the final minimization stops the build
        I = ind_ideal(5, 2)
        real = ideal_module._minimize_raw

        def slow_minimize(exps):
            kept = real(exps)
            time.sleep(max(0.0, deadline - time.monotonic()) + 0.01)
            return kept

        monkeypatch.setattr(ideal_module, "_minimize_raw", slow_minimize)
        deadline = time.monotonic() + 0.05
        with pytest.raises(DeadlineExceeded):
            I.power(2, deadline=deadline)

    def test_past_deadline_raises_before_any_grouping(self, monkeypatch):
        I = ind_ideal(10, 3)
        real, calls = ideal_module._by_degree, []

        def counted(values):
            calls.append(1)
            return real(values)

        monkeypatch.setattr(ideal_module, "_by_degree", counted)
        with pytest.raises(DeadlineExceeded):
            I.power(8, deadline=time.monotonic() - 1.0)
        assert calls == []

    def test_exponent_overflow_at_the_cap(self):
        # products are packed sums, so the kernel itself must refuse a field past the cap
        x2 = Monomial((0, 1))
        over = MonomialIdeal(2, [Monomial((EXPONENT_CAP, 0)), x2])
        with pytest.raises(ExponentOverflow):
            over.product(over)
        with pytest.raises(ExponentOverflow):
            over.power(2)
        # neither a pure power nor a principal ideal, so the power reaches the kernel's test too
        with pytest.raises(ExponentOverflow):
            MonomialIdeal(2, [Monomial((EXPONENT_CAP, 1)), Monomial((1, 2))]).power(2)
        half = MonomialIdeal(2, [Monomial((EXPONENT_CAP // 2, 0)), x2])
        at_cap = Monomial((EXPONENT_CAP, 0))
        assert at_cap in half.product(half).gens
        assert at_cap in half.power(2).gens

    def test_minimization_of_nothing_and_of_the_unit(self):
        # the unit has no top variable, so its guard mask is empty
        assert ideal_module._minimize_raw({}) == []
        assert ideal_module._minimize_raw({0: {0}}) == [0]

    def test_pure_power_overflow_raises_before_any_product(self, monkeypatch):
        # x_i^(k * e) is a minimal generator of every power, so k * e past the cap is
        # known at once; the product loop would run 2^20 times before it overflowed
        calls = []

        def counted(*args):
            calls.append(1)
            raise AssertionError("a product was formed")

        monkeypatch.setattr(ideal_module, "_products", counted)
        # two generators: a principal ideal's power takes a shortcut of its own
        pure = MonomialIdeal(2, [Monomial((1, 0)), Monomial((0, 1))])
        with pytest.raises(ExponentOverflow):
            pure.power(EXPONENT_CAP + 1)
        with pytest.raises(ExponentOverflow):
            MonomialIdeal(2, [Monomial((2, 0)), Monomial((1, 1))]).power(EXPONENT_CAP // 2 + 1)
        # a spent budget is still reported as such
        with pytest.raises(DeadlineExceeded):
            pure.power(EXPONENT_CAP + 1, deadline=time.monotonic() - 1.0)
        assert calls == []
        with pytest.raises(AssertionError):  # k * e at the cap: the products run
            pure.power(EXPONENT_CAP)
        assert calls == [1]

    def test_principal_power_is_formed_at_once(self, monkeypatch):
        # <g>^k = <g^k>: no product is formed, and k * g_j past the cap is known at once
        calls = []

        def counted(*args):
            calls.append(1)
            raise AssertionError("a product was formed")

        monkeypatch.setattr(ideal_module, "_products", counted)
        path = ind_ideal(3, 2)  # <x1*x3>
        assert path.power(5) == ideal(3, "x1^5*x3^5")
        mixed = ideal(3, "x1^2*x2")
        assert mixed.power(EXPONENT_CAP // 2).gens == (
            Monomial((EXPONENT_CAP, EXPONENT_CAP // 2, 0)),
        )
        with pytest.raises(ExponentOverflow):
            path.power(EXPONENT_CAP + 1)
        with pytest.raises(ExponentOverflow):
            mixed.power(EXPONENT_CAP // 2 + 1)
        with pytest.raises(DeadlineExceeded):
            path.power(EXPONENT_CAP + 1, deadline=time.monotonic() - 1.0)
        assert calls == []

    def test_power_chain_descends(self):
        I = ind_ideal(5, 2)
        for k in range(1, 4):
            assert I.power(k + 1).is_subset(I.power(k))

    def test_product_contains_pairwise_products(self):
        rng = Random(3)
        for _ in range(20):
            I = random_ideal(rng, 4, 4, 2)
            J = random_ideal(rng, 4, 4, 2)
            prod = I.product(J)
            for u in I.gens:
                for v in J.gens:
                    assert prod.contains(u.mul(v))


class TestIntersect:
    def test_principal(self):
        assert ideal(2, "x1").intersect(ideal(2, "x2")) == ideal(2, "x1*x2")

    def test_three_primes_give_path_ideal(self):
        # oracle: (x1,x2) ∩ (x1,x4) = (x1, x2*x4), then lcm with (x3,x4)
        result = (
            ideal(4, "x1", "x2")
            .intersect(ideal(4, "x1", "x4"))
            .intersect(ideal(4, "x3", "x4"))
        )
        assert result == ind_ideal(4, 2)

    def test_idempotent(self):
        I = ind_ideal(5, 2)
        assert I.intersect(I) == I

    def test_is_meet(self):
        rng = Random(13)
        for _ in range(20):
            I = random_ideal(rng, 4, 4, 2)
            J = random_ideal(rng, 4, 4, 2)
            meet = I.intersect(J)
            assert meet.is_subset(I) and meet.is_subset(J)

    def test_meet_is_greatest_lower_bound(self):
        rng = Random(19)
        for _ in range(20):
            K = random_ideal(rng, 4, 3, 2)
            I = K.sum(random_ideal(rng, 4, 3, 2))
            J = K.sum(random_ideal(rng, 4, 3, 2))
            assert K.is_subset(I) and K.is_subset(J)
            assert K.is_subset(I.intersect(J))

    def test_membership_fuzz_exhaustive(self):
        # membership in the intersection == membership in both, over a full box
        rng = Random(17)
        for _ in range(25):
            nvars = rng.randint(2, 5)
            I = random_ideal(rng, nvars, 4, 2)
            J = random_ideal(rng, nvars, 4, 2)
            meet = I.intersect(J)
            gi = [g.exponents for g in I.gens]
            gj = [g.exponents for g in J.gens]
            gm = [g.exponents for g in meet.gens]
            for exps in exponent_box(nvars, 4):
                assert naive_member(gm, exps) == (
                    naive_member(gi, exps) and naive_member(gj, exps)
                )

    def test_zero_ideal_either_side(self):
        I, zero = ideal(3, "x1*x2", "x3^2"), MonomialIdeal.zero(3)
        assert I.intersect(zero) == zero
        assert zero.intersect(I) == zero

    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_matches_pairwise_lcms(self, data):
        # empty row lists are zero ideals; some entries sit at and near the cap
        n = data.draw(st.integers(1, 5))
        entry = st.sampled_from([0, 1, 2, 3, EXPONENT_CAP - 1, EXPONENT_CAP])
        row = st.lists(entry, min_size=n, max_size=n).filter(any)
        rows_i = data.draw(st.lists(row, max_size=5))
        rows_j = data.draw(st.lists(row, max_size=5))
        # multiples of I's generators: generators of J that lie in I
        for u in data.draw(st.lists(st.sampled_from(rows_i), max_size=3)) if rows_i else []:
            extra = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
            rows_j.append([min(a + b, EXPONENT_CAP) for a, b in zip(u, extra)])
        I = MonomialIdeal(n, [Monomial(r) for r in rows_i])
        J = MonomialIdeal(n, [Monomial(r) for r in rows_j])
        for (a, rows_a), (b, rows_b) in (((I, rows_i), (J, rows_j)), ((J, rows_j), (I, rows_i))):
            lcms = [tuple(map(max, u, v)) for u in rows_a for v in rows_b]
            assert sorted(g.exponents for g in a.intersect(b).gens) == naive_minimize(lcms)


class TestColon:
    def test_path_ideal_by_monomial(self):
        # oracle: divide the six generators of the (5,2) ideal by gcd with x4*x5
        I = ind_ideal(5, 2)
        assert I.colon_monomial(m("x4*x5", 5)) == ideal(5, "x1", "x2", "x3")

    def test_by_unit_is_identity(self):
        I = ind_ideal(4, 2)
        assert I.colon_monomial(Monomial.one(4)) == I

    def test_principal(self):
        assert ideal(3, "x1*x3").colon_monomial(m("x3", 3)) == ideal(3, "x1")

    def test_member_gives_improper(self):
        I = ind_ideal(4, 2)
        with pytest.raises(ImproperIdeal):
            I.colon_monomial(m("x1*x3", 4))

    def test_colon_ideal_single_generator(self):
        I = ind_ideal(5, 2)
        u = m("x4*x5", 5)
        assert I.colon_ideal(MonomialIdeal(5, [u])) == I.colon_monomial(u)

    def test_colon_ideal_two_generators(self):
        # oracle: two colon_monomial calls intersected by hand
        I = ideal(2, "x1*x2")
        J = ideal(2, "x1", "x2")
        assert I.colon_ideal(J) == ideal(2, "x1*x2")

    def test_colon_contains_ideal(self):
        rng = Random(29)
        for _ in range(20):
            I = random_ideal(rng, 4, 4, 2)
            u = Monomial(tuple(rng.randint(0, 2) for _ in range(4)))
            try:
                colon = I.colon_monomial(u)
            except ImproperIdeal:
                assert I.contains(u)
                continue
            assert I.is_subset(colon)
            for g in colon.gens:
                assert I.contains(g.mul(u))

    def test_colon_by_zero_rejected(self):
        with pytest.raises(ValueError):
            ind_ideal(4, 2).colon_ideal(MonomialIdeal.zero(4))


class TestRadicalAndEquality:
    def test_radical_of_power_of_principal(self):
        assert ideal(3, "x1^2*x3^2").radical() == ideal(3, "x1*x3")

    def test_radical_of_cube(self):
        I = ind_ideal(5, 2)
        assert I.power(3).radical() == I

    def test_radical_of_zero(self):
        assert MonomialIdeal.zero(3).radical().is_zero

    def test_equality_ignores_input_order(self):
        gens = [m("x1*x3", 4), m("x1*x4", 4), m("x2*x4", 4)]
        assert MonomialIdeal(4, gens) == MonomialIdeal(4, gens[::-1])

    def test_square_inside_ideal(self):
        rng = Random(31)
        for _ in range(20):
            I = random_ideal(rng, 4, 4, 2)
            assert I.power(2).is_subset(I)

    def test_radical_of_power_equals_radical(self):
        rng = Random(37)
        for _ in range(10):
            I = random_ideal(rng, 4, 3, 2)
            for k in (2, 3):
                assert I.power(k).radical() == I.radical()

    def test_canonical_generator_order(self):
        I = ind_ideal(4, 2).power(2)
        keys = [g.sort_key for g in I.gens]
        assert keys == sorted(keys)


class TestProtocol:
    def test_equals_within_a_ring(self):
        assert ideal(3, "x1", "x2*x3").equals(ideal(3, "x2*x3", "x1"))
        assert not ideal(3, "x1").equals(ideal(3, "x2"))

    def test_equals_across_rings_rejected(self):
        with pytest.raises(DimensionMismatch):
            ideal(3, "x1").equals(ideal(4, "x1"))

    def test_membership_operator(self):
        I = ideal(3, "x1*x2", "x3^2")
        assert m("x1*x2*x3", 3) in I
        assert m("x1*x3", 3) not in I
        with pytest.raises(DimensionMismatch):
            m("x1*x2", 4) in I

    def test_length_and_iteration_follow_generators(self):
        I = ideal(3, "x3^2", "x1*x2", "x1*x2*x3")
        assert len(I) == 2
        assert list(I) == list(I.gens) == [m("x1*x2", 3), m("x3^2", 3)]
        assert len(MonomialIdeal.zero(3)) == 0 and list(MonomialIdeal.zero(3)) == []

    def test_text_forms(self):
        I = ideal(3, "x3^2", "x1*x2")
        assert str(I) == "<x1*x2, x3^2>"
        assert repr(I) == "MonomialIdeal(nvars=3, gens=['x1*x2', 'x3^2'])"
        assert str(MonomialIdeal.zero(3)) == "<0>"
        assert repr(MonomialIdeal.zero(3)) == "MonomialIdeal(nvars=3, gens=[])"

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(1, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.lists(
                        st.sampled_from([0, 0, 1, 2, 3, EXPONENT_CAP]), min_size=n, max_size=n
                    ).filter(any),
                    max_size=6,
                ),
            )
        ),
        st.booleans(),
    )
    @example((12, [(0,) * 9 + (1, 0, 0), (0, 1) + (0,) * 10]), False)  # x10 sorts before x2
    @example((3, []), False)
    @example((3, []), True)
    @example((4, [(EXPONENT_CAP, 0, 0, 0), (0, 2, 3, 0), (0, 0, 1, 1)]), True)
    def test_packed_text_matches_monomials(self, shape, gens_first):
        # str, repr and is_squarefree read the packed generators, whether or not gens was built
        n, rows = shape
        I = MonomialIdeal(n, [Monomial(r) for r in rows])
        if gens_first:
            I.gens
        minimal = [Monomial(r) for r in naive_minimize([tuple(r) for r in rows])]
        texts = [g.text() for g in sorted(minimal, key=lambda g: g.sort_key)]
        assert str(I) == "<" + (", ".join(texts) or "0") + ">"
        assert repr(I) == f"MonomialIdeal(nvars={n}, gens={texts})"
        assert I.is_squarefree == all(g.is_squarefree for g in minimal)
        assert (I._gens is not None) == gens_first


# 1-12 variables, so x10 sorts before x2; rows may be the unit monomial
term_rows = st.integers(1, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(st.sampled_from([0, 0, 1, 2, 3, EXPONENT_CAP]), min_size=n, max_size=n),
            max_size=6,
        ),
    )
)


class TestTermLayout:
    @settings(deadline=None, max_examples=100)
    @given(term_rows)
    def test_monomials_carry_their_packed_value(self, shape):
        n, rows = shape
        for r in rows:
            packed = Monomial(r)._packed
            assert packed == _pack(r) and _unpack(packed, n) == tuple(r)

    @settings(deadline=None, max_examples=200)
    @given(term_rows)
    @example((12, [(0,) * 9 + (1, 0, 0), (0, 1) + (0,) * 10]))  # x10 sorts before x2
    @example((2, [(0, 0)]))  # the unit monomial, and the zero ideal
    @example((4, [(EXPONENT_CAP, 0, 0, 0), (0, 2, 3, 0), (0, 0, 1, 1), (1, 0, 0, 1)]))
    def test_one_formatter_matches_the_reference_text(self, shape):
        # Monomial.text, str, repr and the gens all write their terms through one
        # formatter over packed values; the reference writes from exponent tuples
        n, rows = shape
        for r in rows:
            assert Monomial(r).text() == reference_text(r)
        nonunit = [tuple(r) for r in rows if any(r)]
        I = MonomialIdeal(n, [Monomial(r) for r in nonunit])
        minimal = sorted(naive_minimize(nonunit), key=lambda e: (sum(e), reference_text(e)))
        texts = [reference_text(e) for e in minimal]
        assert str(I) == "<" + (", ".join(texts) or "0") + ">"
        assert repr(I) == f"MonomialIdeal(nvars={n}, gens={texts})"
        assert [g.text() for g in I.gens] == texts


small_ideals = st.integers(min_value=2, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any),
        min_size=1,
        max_size=4,
    ).map(lambda rows: MonomialIdeal(len(rows[0]), [Monomial(r) for r in rows]))
)


class TestHypothesisLaws:
    @settings(deadline=None, max_examples=60)
    @given(small_ideals, small_ideals.flatmap(lambda i: st.just(i)))
    def test_sum_is_union_upper_bound(self, I, J):
        if I.nvars != J.nvars:
            return
        total = I.sum(J)
        assert I.is_subset(total) and J.is_subset(total)

    @settings(deadline=None, max_examples=60)
    @given(small_ideals)
    def test_intersection_with_self(self, I):
        assert I.intersect(I) == I

    @settings(deadline=None, max_examples=40)
    @given(small_ideals)
    def test_square_membership_box(self, I):
        assert ideals_equal_by_membership(I.power(2), I.product(I))
