"""Monomial arithmetic, parsing, and algebraic laws."""

import pytest
from hypothesis import given, strategies as st

from pathideal import DimensionMismatch, ExponentOverflow, Monomial
from pathideal.monomial import EXPONENT_CAP


def m(text, nvars=5):
    return Monomial.parse(text, nvars)


class TestBasics:
    def test_mul_componentwise(self):
        assert m("x1*x3").mul(m("x2")) == m("x1*x2*x3")

    def test_mul_identity(self):
        u = m("x1^2*x4")
        assert u.mul(Monomial.one(5)) == u

    def test_mul_same_variable(self):
        assert m("x1").mul(m("x1")) == m("x1^2")

    def test_divides(self):
        assert m("x1*x3").divides(m("x1^2*x3*x5"))
        assert not m("x2").divides(m("x1*x3"))
        assert Monomial.one(5).divides(m("x1^2*x3*x5"))

    def test_gcd_lcm(self):
        assert m("x1*x3").gcd(m("x1*x4")) == m("x1")
        assert m("x1*x3").lcm(m("x1*x4")) == m("x1*x3*x4")
        assert m("x1*x3").gcd(Monomial.one(5)) == Monomial.one(5)

    def test_quotient(self):
        assert m("x1*x4").quotient(m("x4*x5")) == m("x1")
        assert m("x1*x4").quotient(m("x1*x4")) == Monomial.one(5)
        assert m("x1^2*x3").quotient(m("x1")) == m("x1*x3")

    def test_support_degree_squarefree(self):
        u = m("x1^2*x3")
        assert u.support() == frozenset({1, 3})
        assert m("x1*x3*x5").degree == 3
        assert Monomial((3, 2, 0, 0, 0)).squarefree_part() == m("x1*x2")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            m("x1", 3).mul(m("x1", 4))
        with pytest.raises(DimensionMismatch):
            m("x1", 3).divides(m("x1", 4))

    def test_exponent_cap(self):
        with pytest.raises(ExponentOverflow):
            Monomial((EXPONENT_CAP + 1,))
        big = Monomial((EXPONENT_CAP,))
        with pytest.raises(ExponentOverflow):
            big.mul(Monomial((1,)))

    def test_empty_exponent_vector_rejected(self):
        # no ideal holds a monomial on 0 variables
        with pytest.raises(ValueError, match="^a monomial needs at least one variable$"):
            Monomial(())

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial((1, -1))

    def test_boolean_exponents_rejected(self):
        # exponents are non-negative integers, so 0 stays valid, but True is not 1
        for build in (
            lambda: Monomial([True, 0]),
            lambda: Monomial([1, 0]).power(True),
            lambda: Monomial.variable(1, 2, exponent=True),
        ):
            with pytest.raises(ValueError):
                build()
        assert Monomial([1, 0]).power(0) == Monomial.one(2)


class TestText:
    @pytest.mark.parametrize(
        "text", ["1", "x1", "x3^2", "x1*x3^2", "x1*x2*x3*x4*x5", "x2^7*x5^3"]
    )
    def test_roundtrip(self, text):
        assert Monomial.parse(text, 5).text() == text

    def test_double_digit_indices(self):
        u = Monomial.parse("x2*x10^3", 12)
        assert u.exponents[1] == 1 and u.exponents[9] == 3
        assert u.text() == "x2*x10^3"
        assert repr(u) == "Monomial('x2*x10^3', nvars=12)"

    def test_equal_monomials_hash_equal(self):
        parsed, built = Monomial.parse("x1*x3^2", 3), Monomial((1, 0, 2))
        assert parsed == built and hash(parsed) == hash(built)
        assert len({parsed, built}) == 1

    @pytest.mark.parametrize("bad", ["x0", "x6", "x1*x1", "x3*x1", "y2", "x1^0", "x1**2"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            Monomial.parse(bad, 5)


exponent_vectors = st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=6)
vector_pairs = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 6), min_size=n, max_size=n),
        st.lists(st.integers(0, 6), min_size=n, max_size=n),
    )
)
vector_triples = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(
        *[st.lists(st.integers(0, 5), min_size=n, max_size=n) for _ in range(3)]
    )
)


class TestLaws:
    @given(vector_pairs)
    def test_lt_agrees_with_sort_key(self, pair):
        a, b = Monomial(pair[0]), Monomial(pair[1])
        assert (a < b) == (a.sort_key < b.sort_key)
        assert sorted([a, b]) == sorted([a, b], key=lambda x: x.sort_key)

    @given(vector_pairs)
    def test_mul_commutes(self, pair):
        a, b = Monomial(pair[0]), Monomial(pair[1])
        assert a.mul(b) == b.mul(a)

    @given(vector_triples)
    def test_mul_associates(self, triple):
        a, b, c = (Monomial(v) for v in triple)
        assert a.mul(b).mul(c) == a.mul(b.mul(c))

    @given(exponent_vectors)
    def test_unit_neutral(self, v):
        a = Monomial(v)
        assert a.mul(Monomial.one(a.nvars)) == a

    @given(vector_pairs)
    def test_quotient_of_product(self, pair):
        a, b = Monomial(pair[0]), Monomial(pair[1])
        assert a.mul(b).quotient(b) == a

    @given(vector_pairs)
    def test_divides_iff_gcd_lcm_fixpoints(self, pair):
        a, b = Monomial(pair[0]), Monomial(pair[1])
        d = a.divides(b)
        assert d == (a.lcm(b) == b)
        assert d == (a.gcd(b) == a)

    @given(vector_pairs)
    def test_absorption(self, pair):
        a, b = Monomial(pair[0]), Monomial(pair[1])
        assert a.lcm(a.gcd(b)) == a

    @given(exponent_vectors)
    def test_text_roundtrip(self, v):
        a = Monomial(v)
        assert Monomial.parse(a.text(), a.nvars) == a
