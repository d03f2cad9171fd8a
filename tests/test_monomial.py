"""Monomial arithmetic, parsing, and algebraic laws."""

import pytest
from hypothesis import given, settings, strategies as st

from pathideal import DimensionMismatch, ExponentOverflow, Monomial
from pathideal.monomial import EXPONENT_CAP, _by_degree, _excess, _field_table, _first_fields
from pathideal.monomial import _check_cap, _guards, _pack, _supports, _top, _unpack


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


# field values around 1 and the cap, with many zeros, so the zero vector shows up too
LAYOUT_FIELDS = st.sampled_from([0, 0, 0, 1, 2, EXPONENT_CAP - 1, EXPONENT_CAP])


class TestLayout:
    # each layout helper against a per-field reference read through _unpack; rings of
    # up to 40 variables reach past the 32 field table entries built at import
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_helpers_match_per_field_references(self, data):
        nvars = data.draw(st.integers(1, 40))
        vector = st.lists(LAYOUT_FIELDS, min_size=nvars, max_size=nvars).map(tuple)
        a, b = data.draw(vector), data.draw(vector)
        pa, pb, guards = _pack(a), _pack(b), _guards(nvars)
        assert _unpack(pa, nvars) == a
        assert _unpack(_excess(pa, pb, guards), nvars) == tuple(max(x - y, 0) for x, y in zip(a, b))
        assert _top(pa) == max((j + 1 for j, x in enumerate(a) if x), default=0)
        supports = _supports([pa, pb], nvars)
        assert [_unpack(s, nvars) for s in supports] == [tuple(min(x, 1) for x in v) for v in (a, b)]
        assert (supports[0] == pa) == all(x <= 1 for x in a)
        # a field holds the sum of two in-cap exponents, so a product is one addition
        total = tuple(x + y for x, y in zip(a, b))
        assert _unpack(pa + pb, nvars) == total
        for k in (1, 2, 3):  # the cap test of the k-th power of a vector and of a sum
            for v, pv in ((a, pa), (total, pa + pb)):
                if any(k * x > EXPONENT_CAP for x in v):
                    with pytest.raises(ExponentOverflow, match="a product exponent exceeds cap"):
                        _check_cap([0, pv], nvars, k)
                else:
                    _check_cap([0, pv], nvars, k)
        blocks = {}
        for v, p in ((a, pa), (b, pb)):
            blocks.setdefault(sum(v), set()).add(p)
        assert _by_degree([pa, pb]) == blocks
        m = data.draw(st.integers(0, nvars))
        mask, size = _first_fields(m)
        assert (pa <= mask) == (_top(pa) <= m) and (pa & mask) == _pack(a[:m] or (0,))
        assert mask.bit_length() <= 8 * size < mask.bit_length() + 8  # the fewest bytes
        table = _field_table(nvars)
        assert [j for j, _, _, _ in table] == list(range(nvars))
        assert sum(guard for _, _, guard, _ in table) == guards
        for j, field, guard, shift in table:
            assert (pa & field) >> shift == a[j]
            assert _unpack(pa & field, nvars) == tuple(x if i == j else 0 for i, x in enumerate(a))
            assert guard == field + (1 << shift)  # the bit just above the field

    def test_the_unit_has_no_top_variable(self):
        assert _top(0) == 0 and _first_fields(0) == (0, 0)
