"""Incremental decomposition, irredundancy, associated primes, and witnesses."""

import gc
import sys
import time
import tracemalloc
from itertools import product
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pathideal import (
    DecompositionCache,
    DimensionMismatch,
    IrreducibleComponent,
    Monomial,
    MonomialIdeal,
    VarPrime,
    associated_primes,
    ind_ideal,
    intersect_components,
    irreducible_decomposition,
    minimal_primes_squarefree,
    predicted_ass,
    verify_witness,
)
from pathideal import decomposition, ideal, monomial
from pathideal.decomposition import (
    WITNESS_COLON_TOO_BIG,
    WITNESS_COLON_TOO_SMALL,
    WITNESS_IN_POWER,
    _ABSENT,
    _Index,
    _add_generator,
    _field_table,
    _guards,
    _pack,
)
from pathideal.ideal import DeadlineExceeded
from pathideal.monomial import EXPONENT_CAP, ExponentOverflow

from helpers import (
    brute_witness_primes,
    naive_minimal_transversals,
    random_ideal,
    random_squarefree_ideal,
)


def comp(nvars, **powers):
    return IrreducibleComponent(nvars, tuple((int(k[1:]), v) for k, v in powers.items()))


def primes_of(decomp):
    return sorted({c.radical_prime().vars for c in decomp})


def packed(*vector):
    # a kernel component: a packed vector; _ABSENT marks an unused variable
    return _pack(vector)


def list_step(components, g, nvars):
    return _add_generator(components, g, _guards(nvars), _field_table(nvars))


def indexed_step(components, g, nvars):
    index = _Index(components, _field_table(nvars))
    index.add_generator(g)
    return list(index)


# the two forms of one kernel step; a call runs the second past _INDEX_WIDTH live components
STEPS = (list_step, indexed_step)


def leq(a, b):
    return all(x <= y for x, y in zip(a, b))


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

    def test_intersection_reads_its_nvars(self):
        # a component on 3 variables is not a component of the 7-variable ring
        with pytest.raises(DimensionMismatch):
            intersect_components([IrreducibleComponent(3, ((1, 1),))], 7)
        with pytest.raises(ValueError, match="empty family"):
            intersect_components([], 3)

    def test_rings_past_the_prebuilt_field_table(self, monkeypatch):
        # 40 variables: past the fields whose entries are built once; 128 components, so
        # the call moves into the index, and the list step alone gives the same
        pairs = [(j, 41 - j) for j in range(1, 8)]
        I = MonomialIdeal(40, [Monomial.from_support(p, 40) for p in pairs])
        expected = sorted(tuple(sorted(c)) for c in product(*pairs))
        comps = irreducible_decomposition(I)
        assert primes_of(comps) == expected
        monkeypatch.setattr(decomposition, "_INDEX_WIDTH", 1 << 20)
        assert irreducible_decomposition(I) == comps

    def test_removing_any_component_enlarges_intersection(self):
        for I in (ind_ideal(5, 2).power(2), ind_ideal(4, 2).power(3)):
            comps = irreducible_decomposition(I)
            for i in range(len(comps)):
                rest = comps[:i] + comps[i + 1 :]
                assert intersect_components(rest, I.nvars) != I

    def test_deterministic_across_cache_states(self, monkeypatch):
        I = ind_ideal(6, 2).power(2)
        first = irreducible_decomposition(I, cache=DecompositionCache())
        warm_cache = DecompositionCache()
        irreducible_decomposition(I, cache=warm_cache)
        second = irreducible_decomposition(I, cache=warm_cache)
        monkeypatch.setattr(decomposition, "_CACHE_SIZE", 8)
        tiny = irreducible_decomposition(I, cache=DecompositionCache())
        assert first == second == tiny

    def test_prefix_memo_counts_pinned(self):
        # each I(n,2)^3 misses at its own prefix and resumes from I(n-1,2)^3
        cache = DecompositionCache()
        counts = []
        for n in range(3, 9):
            irreducible_decomposition(ind_ideal(n, 2).power(3), cache=cache)
            counts.append((cache.misses, cache.hits, len(cache)))
        assert counts == [(1, 0, 1), (2, 1, 2), (3, 2, 3), (4, 3, 4), (5, 4, 5), (6, 5, 6)]
        for n, t, k, count in [(6, 2, 3, 80), (7, 3, 3, 97), (7, 3, 4, 230)]:
            assert len(irreducible_decomposition(ind_ideal(n, t).power(k))) == count

    def test_prefix_reuse_matches_fresh_calls(self):
        # ascending n, as a scan runs: each power resumes from the one on n - 1 vertices
        cache = DecompositionCache()
        for t in (2, 3):
            for n in range(2 * t - 1, 9):
                for k in (1, 2, 3):
                    power = ind_ideal(n, t).power(k)
                    fresh = irreducible_decomposition(power)
                    assert irreducible_decomposition(power, cache=cache) == fresh
        assert cache.hits > 0

    def test_prefix_reuse_across_variable_counts(self):
        # the copy of an ideal in one more variable stores an entry that leaves
        # x_{n+1} unused; the ideal itself and an extension by x_{n+1} read it back
        rng = Random(307)
        cache = DecompositionCache()
        for _ in range(60):
            nvars = rng.randint(1, 5)
            I = random_ideal(rng, nvars, 6, 3)
            wider = MonomialIdeal(nvars + 1, [Monomial(g.exponents + (0,)) for g in I.gens])
            top = [rng.randint(0, 2) for _ in range(nvars)] + [rng.randint(1, 3)]
            extended = wider + MonomialIdeal(nvars + 1, [Monomial(top)])
            for J in (wider, I, extended):
                assert irreducible_decomposition(J, cache=cache) == irreducible_decomposition(J)
        assert cache.hits >= 120

    def test_shared_cache_keeps_variable_counts_apart(self):
        # the packed generators of a 7-variable ideal and its copy in 8 variables agree
        seven = ind_ideal(7, 2).power(2)
        embedded = MonomialIdeal(8, [Monomial(g.exponents + (0,)) for g in seven.gens])
        ideals = [seven, ind_ideal(8, 2).power(2), embedded]
        fresh = [irreducible_decomposition(I, cache=DecompositionCache()) for I in ideals]
        shared = DecompositionCache()
        for i in (0, 1, 2, 2, 1, 0):
            assert irreducible_decomposition(ideals[i], cache=shared) == fresh[i]

    def test_memo_values_are_bytes_of_whole_components(self):
        # an entry is one bytes value holding a fixed-size piece per component,
        # narrowed to its prefix's variables; exponents at the cap fill a field
        rng = Random(419)
        cache = DecompositionCache()
        for _ in range(30):
            rows = [[rng.choice((0, 1, 2, EXPONENT_CAP)) for _ in range(7)] for _ in range(6)]
            rows = [row for row in rows if any(row)]
            top = [rng.choice((0, 1, EXPONENT_CAP)) for _ in range(7)] + [EXPONENT_CAP]
            seven = MonomialIdeal(7, [Monomial(row) for row in rows])
            eight = MonomialIdeal(8, [Monomial(row + [0]) for row in rows] + [Monomial(top)])
            for I in (seven, eight):
                fresh = irreducible_decomposition(I)
                assert irreducible_decomposition(I, cache=cache) == fresh
                assert irreducible_decomposition(I, cache=cache) == fresh
                size = (decomposition._top(I._packed[-1]) * ideal._W + 7) // 8
                assert len(cache._data[I._packed]) == len(fresh) * size
        assert cache.hits >= 60
        for key, value in cache._data.items():
            size = (decomposition._top(key[-1]) * ideal._W + 7) // 8
            assert isinstance(value, bytes) and value and len(value) % size == 0

    def test_either_step_alone_gives_the_same_components(self, monkeypatch):
        # the width that moves a call into the index changes nothing but speed
        rng = Random(211)
        ideals = [ind_ideal(7, 3).power(3), ind_ideal(6, 2).power(3)]
        ideals += [random_ideal(rng, 5, 12, 4) for _ in range(20)]
        default = [irreducible_decomposition(I) for I in ideals]
        assert max(len(c) for c in default) > decomposition._INDEX_WIDTH
        for width in (0, 10**9):
            monkeypatch.setattr(decomposition, "_INDEX_WIDTH", width)
            assert [irreducible_decomposition(I) for I in ideals] == default

    def test_deadline_overshoot_is_bounded(self):
        # a long step between deadline checks would show as a late DeadlineExceeded;
        # I(10,4)^4 decomposes in about a second, far past the budget
        power = ind_ideal(10, 4).power(4)
        deadline = time.monotonic() + 0.2
        with pytest.raises(DeadlineExceeded):
            irreducible_decomposition(power, cache=DecompositionCache(), deadline=deadline)
        assert time.monotonic() - deadline <= 2.0

    def test_past_deadline_stops_before_the_root(self):
        # a large power stops at its first generator, before any decomposition work
        power = ind_ideal(13, 4).power(3)
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            irreducible_decomposition(power, deadline=start - 1.0)
        assert time.monotonic() - start < 0.2

    def test_call_without_cache_leaves_no_memo(self):
        # the memo of a call without `cache` is dropped when the call returns
        power = ind_ideal(7, 3).power(3)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            comps = irreducible_decomposition(power)
            del comps
            gc.collect()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before < 64 * 1024

    def test_no_module_level_memo(self):
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "pathideal"]
        assert len(modules) > 1
        for module in modules:
            for name, value in vars(module).items():
                assert not isinstance(value, DecompositionCache), f"{module.__name__}.{name}"
                assert not hasattr(value, "cache_info"), f"{module.__name__}.{name}"

    def test_cache_eviction_keeps_results_correct(self, monkeypatch):
        I = ind_ideal(5, 2).power(2)
        unbounded = irreducible_decomposition(I, cache=DecompositionCache())
        monkeypatch.setattr(decomposition, "_CACHE_SIZE", 2)
        assert irreducible_decomposition(I, cache=DecompositionCache()) == unbounded


class TestMemoKeys:
    def test_keys_hold_one_int_per_generator_value(self):
        # each random ideal brings its own ints; the stored keys share one per value
        rng = Random(503)
        cache = DecompositionCache()
        ideals = [random_ideal(rng, 5, 8, 1) for _ in range(80)]
        for I in ideals:
            irreducible_decomposition(I, cache=cache)
            assert I._packed in cache._data
        values = [g for key in cache._data for g in key]
        assert len(values) > 2 * len(set(values))
        assert len({id(g) for g in values}) == len(set(values))

    def test_eviction_empties_the_table(self, monkeypatch):
        # a full cache keeps no canonical int that only evicted keys held
        rng = Random(509)
        monkeypatch.setattr(decomposition, "_CACHE_SIZE", 4)
        cache = DecompositionCache()
        for _ in range(40):
            irreducible_decomposition(random_ideal(rng, 6, 8, 3), cache=cache)
            assert len(cache) <= 4
            held = {id(g) for key in cache._data for g in key}
            assert {id(g) for g in cache._canonical.values()} <= held

    def test_store_into_a_full_cache_empties_it(self, monkeypatch):
        # three prefixes into a cache of two: the third store finds it full and
        # empties the entries and the table before it stores
        ideals = [ind_ideal(n, 2).power(2) for n in (4, 5, 6)]
        monkeypatch.setattr(decomposition, "_CACHE_SIZE", 2)
        cache = DecompositionCache()
        for n in (4, 5, 6):
            prefix = ind_ideal(n, 2)._packed
            cache.store(prefix, [_pack((1,) + (_ABSENT,) * (n - 1))])
        assert len(cache) == 1
        (key,) = cache._data
        assert key == ind_ideal(6, 2)._packed
        assert sorted(cache._canonical) == sorted(key)
        assert {id(g) for g in cache._canonical.values()} == {id(g) for g in key}
        cache = DecompositionCache()
        for I in ideals + ideals:
            assert irreducible_decomposition(I, cache=cache) == irreducible_decomposition(I)
            assert 1 <= len(cache) <= 2
        assert cache.hits > 0

    def test_index_never_holds_a_zero_field(self, monkeypatch):
        # the index tests only the fields of supp(g) for a miss, which relies on no
        # component field being 0: check every index after it is built and after each step
        monkeypatch.setattr(decomposition, "_INDEX_WIDTH", 0)
        build, step = _Index.__init__, _Index.add_generator
        checked = []

        def check(index):
            assert not any(0 in values for values in index._by_value)
            checked.append(index)

        def checked_build(index, components, table):
            build(index, components, table)
            check(index)

        def checked_step(index, g):
            step(index, g)
            check(index)

        monkeypatch.setattr(_Index, "__init__", checked_build)
        monkeypatch.setattr(_Index, "add_generator", checked_step)
        rng = Random(601)
        ideals = [
            ind_ideal(n, t).power(k) for t in (2, 3) for n in range(2 * t - 1, 8) for k in (1, 2, 3)
        ]
        ideals += [random_ideal(rng, 6, 10, 3) for _ in range(60)]
        cache = DecompositionCache()
        for I in ideals:
            assert irreducible_decomposition(I, cache=cache) == irreducible_decomposition(I)
        assert len(checked) > 1000


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
    # one step of the kernel, in both forms, on components in the kernel form
    def test_containment_prune(self):
        for step in STEPS:
            # <x1*x2^2> + <x1*x2>: the new <x1, x2^2> contains the kept <x1>
            x1, x2_2 = packed(1, _ABSENT), packed(_ABSENT, 2)
            out = step([x1, x2_2], _pack((1, 1)), 2)
            assert sorted(out) == sorted([x1, packed(_ABSENT, 1)])
            # <x1*x2^3, x2^3*x3^2> + <x2*x3>: the new <x1, x2, x3^2> contains the new <x2>
            out = step([packed(1, _ABSENT, 2), packed(_ABSENT, 3, _ABSENT)], _pack((0, 1, 1)), 3)
            expected = [packed(1, _ABSENT, 1), packed(_ABSENT, 1, _ABSENT), packed(_ABSENT, 3, 1)]
            assert sorted(out) == sorted(expected)

    def test_incomparable_supports_kept(self):
        for step in STEPS:
            zero = packed(_ABSENT, _ABSENT, _ABSENT)
            out = step([zero], _pack((2, 0, 1)), 3)
            assert sorted(out) == sorted([packed(2, _ABSENT, _ABSENT), packed(_ABSENT, _ABSENT, 1)])
            # <x1*x2> + <x3^2> = <x1, x3^2> & <x2, x3^2>
            x1, x2 = packed(1, _ABSENT, _ABSENT), packed(_ABSENT, 1, _ABSENT)
            out = step([x1, x2], _pack((0, 0, 2)), 3)
            assert sorted(out) == sorted([packed(1, _ABSENT, 2), packed(_ABSENT, 1, 2)])


# every field value a component holds: small exponents, the cap, absent; never 0,
# since a field is _ABSENT or lowered to a generator's positive exponent
FIELDS = st.one_of(st.integers(1, 4), st.just(EXPONENT_CAP), st.just(_ABSENT))
EXPONENTS = st.one_of(st.just(0), st.integers(1, 4), st.just(EXPONENT_CAP))


def vectors(draw, fields, nvars):
    return tuple(draw(st.lists(fields, min_size=nvars, max_size=nvars)))


def holds(q, g):
    # the component q contains the monomial g
    return any(e >= f for e, f in zip(g, q))


def step_reference(components, g):
    # componentwise: keep what contains g, lower one entry of the rest per variable
    # of g, and drop every candidate that contains another (c contains d iff c <= d)
    candidates = {q for q in components if holds(q, g)}
    for q in components:
        if not holds(q, g):
            candidates |= {q[:i] + (e,) + q[i + 1 :] for i, e in enumerate(g) if e}
    return {c for c in candidates if not any(d != c and leq(c, d) for d in candidates)}


# every component field value in increasing order
RANKED = (1, 2, 3, 4, EXPONENT_CAP, _ABSENT)


def antichain(draw, nvars, tries):
    # vectors whose positions in RANKED add up to one total are pairwise incomparable,
    # so they form an irredundant live set much wider than a filtered random draw
    total = draw(st.integers(2 * nvars, 4 * nvars))
    out = set()
    for _ in range(tries):
        ranks = draw(st.lists(st.integers(0, 5), min_size=nvars - 1, max_size=nvars - 1))
        if 0 <= total - sum(ranks) <= 5:
            out.add(tuple(RANKED[r] for r in ranks + [total - sum(ranks)]))
    return out


class TestGuardBits:
    # the packed tests of both kernel steps against componentwise <=
    def test_layout_has_one_owner(self):
        # every layout name either module reads is monomial's own object
        for module, names in (
            (decomposition, ("_pack", "_guards", "_W", "_FIELD")),
            (ideal, ("_pack", "_unpack", "_guards", "_W", "_FIELD")),
        ):
            for name in names:
                assert getattr(module, name) is getattr(monomial, name), name

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_membership_matches_componentwise(self, data):
        nvars = data.draw(st.integers(1, 12))
        q, g = vectors(data.draw, FIELDS, nvars), vectors(data.draw, EXPONENTS, nvars)
        assume(any(g))
        expected = sorted(packed(*v) for v in step_reference([q], g))
        for step in STEPS:
            assert sorted(step([packed(*q)], _pack(g), nvars)) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_containment_matches_componentwise(self, data):
        nvars = data.draw(st.integers(1, 6))
        drawn = {vectors(data.draw, FIELDS, nvars) for _ in range(data.draw(st.integers(1, 6)))}
        # the kernel's input is irredundant: no component contains another
        components = [c for c in drawn if not any(d != c and leq(c, d) for d in drawn)]
        g = vectors(data.draw, EXPONENTS, nvars)
        assume(any(g))
        expected = sorted(packed(*v) for v in step_reference(components, g))
        for step in STEPS:
            assert sorted(step([packed(*c) for c in components], _pack(g), nvars)) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_indexed_step_on_wide_live_sets(self, data):
        # up to about 40 live components, with missed ones and kept rivals in every field
        nvars = data.draw(st.integers(2, 6))
        components = sorted(antichain(data.draw, nvars, data.draw(st.integers(8, 60))))
        g = vectors(data.draw, EXPONENTS, nvars)
        assume(any(g))
        index = _Index([packed(*c) for c in components], _field_table(nvars))
        index.add_generator(_pack(g))
        after = step_reference(components, g)
        assert sorted(index) == sorted(packed(*v) for v in after)
        # the index stays consistent across steps: a second generator matches too
        h = vectors(data.draw, EXPONENTS, nvars)
        assume(any(h))
        index.add_generator(_pack(h))
        assert sorted(index) == sorted(packed(*v) for v in step_reference(after, h))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_index_slots_across_a_whole_ideal(self, data):
        # one index through every generator of a random ideal, so that slots are freed,
        # lowered in place and reused; each step matches the list step, and every
        # field's masks partition the live slots by their values in that field.  The
        # generators share one degree, so none divides another and the ideal keeps them all
        nvars, degree = data.draw(st.integers(3, 6)), data.draw(st.integers(3, 5))
        picks = st.lists(st.integers(0, nvars - 1), min_size=degree, max_size=degree)
        rows = data.draw(st.lists(picks, min_size=1, max_size=40))
        ideal = MonomialIdeal(nvars, [Monomial([r.count(j) for j in range(nvars)]) for r in rows])
        table = _field_table(nvars)
        expected = [packed(*(_ABSENT,) * nvars)]
        index = _Index(expected, table)
        for g in ideal._packed:
            expected = list_step(expected, g, nvars)
            index.add_generator(g)
            assert sorted(index) == sorted(expected)
            live = {slot: v for slot, v in enumerate(index._slots) if v is not None}
            assert sorted(index._free) == [s for s in range(len(index._slots)) if s not in live]
            for (_, field, _), by_value in zip(table, index._by_value):
                union = 0
                for mask in by_value.values():
                    assert mask and not union & mask
                    union |= mask
                assert union == sum(1 << slot for slot in live)
                for slot, v in live.items():
                    assert by_value[v & field] >> slot & 1


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

    @pytest.mark.parametrize("shared", [False, True])
    def test_are_the_radicals_of_the_components(self, shared):
        # non-squarefree ideals, a third of them with exponents at and near the cap
        rng = Random(223)
        cache = DecompositionCache() if shared else None
        checked = 0
        for number in range(60):
            nvars = rng.randint(1, 7)
            gens = []
            for _ in range(rng.randint(1, 6)):
                exponents = [rng.choice((0, 0, 1, 2, 3)) for _ in range(nvars)]
                if number % 3 == 0:
                    exponents[rng.randrange(nvars)] = rng.choice((EXPONENT_CAP - 1, EXPONENT_CAP))
                exponents[rng.randrange(nvars)] += not any(exponents)
                gens.append(Monomial(exponents))
            I = MonomialIdeal(nvars, gens)
            if I.is_squarefree:
                continue
            radicals = {c.radical_prime() for c in irreducible_decomposition(I)}
            primes = associated_primes(I, cache=cache)
            assert primes == tuple(sorted(radicals, key=lambda p: p.sort_key))
            checked += 1
        assert checked >= 45


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

    def test_rejects_zero_ideal(self):
        with pytest.raises(ValueError):
            minimal_primes_squarefree(MonomialIdeal.zero(3))

    def test_refuses_more_than_twenty_variables_at_once(self):
        # the 2^21-bit subset bitsets would take seconds to build
        I = MonomialIdeal(21, [Monomial.from_support([1, 21], 21)])
        start = time.perf_counter()
        with pytest.raises(ValueError, match="at most 20 variables, got 21"):
            minimal_primes_squarefree(I)
        assert time.perf_counter() - start < 0.1

    @settings(deadline=None, max_examples=150)
    @given(
        st.integers(1, 9).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(any),
                min_size=1,
                max_size=14,
            ).map(lambda rows: MonomialIdeal(n, [Monomial(r) for r in rows]))
        )
    )
    @example(MonomialIdeal(1, [Monomial((1,))]))
    def test_matches_naive_transversals(self, I):
        assert minimal_primes_squarefree(I) == naive_minimal_transversals(I)

    @pytest.mark.parametrize("nvars", [1, 10, 11, 12])
    def test_matches_naive_transversals_on_wide_rings(self, nvars):
        # the subset bitsets are 2^nvars bits long; the hypothesis test stops at 9
        rng = Random(nvars)
        sizes = [min(nvars, rng.randint(2, 3)) for _ in range(14)]
        supports = [rng.sample(range(1, nvars + 1), size) for size in sizes]
        I = MonomialIdeal(nvars, [Monomial.from_support(s, nvars) for s in supports])
        assert minimal_primes_squarefree(I) == naive_minimal_transversals(I)


class TestVarPrime:
    @pytest.mark.parametrize(
        "indices, message",
        [
            ((), "a variable prime needs at least one variable"),
            ((0, 2), "variable index 0 out of range [1, 3]"),
            ((1, 4), "variable index 4 out of range [1, 3]"),
            ((2, 2), "variable indices must be strictly increasing, got (2, 2)"),
            ((3, 1), "variable indices must be strictly increasing, got (3, 1)"),
            ((4, 1), "variable index 4 out of range [1, 3]"),
            ((2, 0), "variable index 0 out of range [1, 3]"),
        ],
    )
    def test_invalid_indices_rejected(self, indices, message):
        with pytest.raises(ValueError) as raised:
            VarPrime(3, indices)
        assert str(raised.value) == message

    @pytest.mark.parametrize("indices", [(True, 2), (1.0, 2), (1, float("nan")), (1, 2.5)])
    def test_non_integer_indices_rejected(self, indices):
        bad = next(v for v in indices if type(v) is not int)
        with pytest.raises(ValueError) as raised:
            VarPrime(3, indices)
        assert str(raised.value) == f"variable index {bad!r} out of range [1, 3]"

    def test_unvalidated_primes_equal_validated(self):
        # predicted_ass, associated_primes and minimal_primes_squarefree build
        # their primes through the unvalidated VarPrime._from_vars
        def check(primes):
            for p in primes:
                validated = VarPrime(p.nvars, p.vars)
                assert type(p.vars) is tuple
                assert p == validated and hash(p) == hash(validated) and str(p) == str(validated)

        for n in range(1, 13):
            for t in range(1, (n + 1) // 2 + 1):
                for k in range(1, t + 2):
                    check(predicted_ass(n, t, k))
        rng = Random(409)
        for _ in range(80):
            nvars = rng.randint(1, 8)
            check(associated_primes(random_ideal(rng, nvars, 6, 3)))
            squarefree = random_squarefree_ideal(rng, nvars, 5)
            check(associated_primes(squarefree))
            check(minimal_primes_squarefree(squarefree))


class TestAsIdeal:
    @settings(deadline=None, max_examples=80)
    @given(
        st.integers(1, 8).flatmap(
            lambda n: st.dictionaries(
                st.integers(1, n), st.sampled_from([1, 2, 5, EXPONENT_CAP]), min_size=1
            ).map(lambda powers: (n, sorted(powers.items())))
        )
    )
    @example((3, [(1, EXPONENT_CAP), (3, EXPONENT_CAP)]))
    def test_built_from_variable_powers(self, case):
        n, powers = case
        component = IrreducibleComponent(n, tuple(powers))
        assert component.as_ideal() == MonomialIdeal(
            n, [Monomial.variable(i, n, a) for i, a in powers]
        )
        prime = component.radical_prime()
        assert prime.as_ideal() == MonomialIdeal(
            n, [Monomial.variable(i, n) for i in prime.vars]
        )

    @pytest.mark.parametrize(
        "powers",
        [
            ((1, float("nan")),),
            ((1, 2.0),),
            ((1, True),),
            ((1.0, 2),),
            ((True, 2),),
            ((1, 0),),
            # a repeated index, also as True, which equals 1
            ((1, 2), (1, 3)),
            ((1, 2), (True, 3)),
            # checked before the pairs are sorted, so not a TypeError from sorted
            ((1, 2), (None, 3)),
            ((1, 2), ("a", 3)),
            # no pair at all
            (),
        ],
    )
    def test_non_integer_entries_rejected(self, powers):
        with pytest.raises(ValueError):
            IrreducibleComponent(2, powers)

    def test_pairs_stored_as_sorted_tuples(self):
        component = IrreducibleComponent(2, [[2, 1], [1, 2]])
        assert component == IrreducibleComponent(2, ((1, 2), (2, 1)))
        assert component.powers == ((1, 2), (2, 1)) and hash(component)

    def test_power_past_cap_rejected(self):
        with pytest.raises(ExponentOverflow):
            IrreducibleComponent(2, ((1, EXPONENT_CAP + 1),)).as_ideal()


class TestWitness:
    def test_valid_witness(self):
        I = ind_ideal(5, 2)
        check = verify_witness(I, 1, Monomial.parse("x4*x5", 5), VarPrime(5, (1, 2, 3)))
        assert check.ok and check.reason is None and check.prime == VarPrime(5, (1, 2, 3))

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

    def test_truth_value_is_ok(self):
        I = ind_ideal(5, 2)
        assert verify_witness(I, 1, Monomial.parse("x4*x5", 5), VarPrime(5, (1, 2, 3)))
        assert not verify_witness(I, 1, Monomial.parse("x1*x3", 5), VarPrime(5, (1, 2, 3)))

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
