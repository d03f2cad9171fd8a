"""Irreducible decomposition of monomial ideals by adding one generator at a time.

The public functions take and return MonomialIdeal, Monomial and
IrreducibleComponent objects.  The kernel runs on the packed integers of
`ideal` (the `monomial` module docstring has the layout): the ideal's packed
generators are read as they are, and the components are built once at the
end.

Inside the kernel a component is a packed vector in which an unused
variable holds _ABSENT, above every real exponent, so its support is the set
of fields below _ABSENT.  A component q contains a monomial g iff
g_i >= q_i for some i, and component c contains component d iff c <= d
componentwise.

The start is the zero ideal: one component with no variable.  Monomial
ideals form a distributive lattice, so (Q_1 & ... & Q_r) + <g> is the
intersection of the Q_j + <g>; and for a component Q that misses g (g lies
outside Q), Q + <g> is the intersection of the copies of Q with the x_i
entry lowered to g_i, one for each i in supp(g).  Each generator in turn
keeps the components that contain it and replaces the others by their
copies.  Each generator is minimal, so it lies outside the ideal of those
before it, and some live component always misses it.  A kept component
never contains a new one (it would contain the component the new one came
from), and no two new components coincide (their sources would be
comparable, or one would contain g).  So only a new component can be
redundant, and it is dropped when it contains another live component.
This is complete: a pure-power component Q contains an intersection of
others only if it contains one of them (the lcm of per-component witnesses
outside Q stays outside Q), so what survives is irredundant.

Two facts name every live d that the copy c of a missed q lowered at x_i
can lie below (c <= d, so c is dropped):
  - a kept d with d_i = g_i and d_j >= q_j for every j != i.  Proof: d
    contains g, so g_l >= d_l >= c_l for some l; every l != i has
    c_l = q_l > g_l, so l = i and g_i >= d_i >= c_i = g_i.
  - the copy lowered at the same x_i of another missed p with p_j >= q_j
    for every j != i.  Proof: a copy of p lowered at x_l != x_i has
    d_l = g_l < q_l = c_l.
Both kinds together are the live d that lie below q in field i alone and
have d >= m, for m the copy of q lowered at every variable of g: such a d
is at or above q off i and at or above g on supp(g), so it is of the first
kind when it contains g and of the second otherwise; and each kind has
d_i < q_i (the first as g_i < q_i, the second as no other live component
lies at or above q).  The list step tests every live d so.

A live set wider than _INDEX_WIDTH moves, for the rest of the call, into
an _Index: every component owns a slot, a bit position, and for each
variable a dict maps each value of that field to the mask of the slots
holding it.  The components that miss g are then an AND over supp(g) of the
ORs of the masks above g's field, and the two kinds of d an AND of masks
over the fields j != i.  Narrow live sets stay in the list step because the
index costs a dict per variable and a pass over every field of each missed
q, more than a plain pass over a few dozen components; past about 64 the
index is cheaper, and the path cells of a default scan spend most of their
steps there.

The generators are taken in their numeric order, which puts every generator
on x_1..x_m before any that uses x_{m+1}; for a path ideal the generators of
I(n, t)^k on x_1..x_{n-1} are exactly I(n-1, t)^k.  A DecompositionCache
memoizes the decomposition of every such prefix (its docstring has the
format), and a call resumes from the longest prefix it finds.  The
surviving vectors are wrapped into IrreducibleComponent objects without
re-validation (a vector holds each variable in range at most once, with a
positive entry), and associated primes are read off as their distinct
radicals (support sets).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Optional, Sequence

from .ideal import MonomialIdeal, _check_deadline
from .monomial import _FIELD, _W, EXPONENT_CAP, DimensionMismatch, ExponentOverflow, Monomial
from .monomial import _guards, _is_count, _pack, _terms

# The number of entries at which a DecompositionCache empties before a store.
_CACHE_SIZE = 1 << 16

# Kernel data (see the module docstring): a prefix is a run of packed minimal
# generators in numeric order; a component is a packed vector, and a memo
# entry holds a prefix's components as fixed-size little-endian pieces.
_Prefix = tuple[int, ...]
_Components = bytes

WITNESS_IN_POWER = "u in I^k"
WITNESS_COLON_TOO_BIG = "colon too big"
WITNESS_COLON_TOO_SMALL = "colon too small"


@dataclass(frozen=True)
class VarPrime:
    """A prime ideal generated by a subset of the variables (1-based indices)."""

    nvars: int
    vars: tuple[int, ...]

    def __post_init__(self):
        vs = tuple(self.vars)
        object.__setattr__(self, "vars", vs)
        if not _is_count(self.nvars):
            raise ValueError(f"nvars must be a positive integer, got {self.nvars!r}")
        if not vs:
            raise ValueError("a variable prime needs at least one variable")
        if any(isinstance(v, bool) or not isinstance(v, int) for v in vs):
            raise ValueError(f"variable indices must be integers, got {vs}")
        if any(not 1 <= v <= self.nvars for v in vs):
            raise ValueError(f"variable indices {vs} out of range [1, {self.nvars}]")
        if any(a >= b for a, b in zip(vs, vs[1:])):
            raise ValueError(f"variable indices must be strictly increasing, got {vs}")

    @classmethod
    def _from_vars(cls, nvars: int, vars: tuple[int, ...]) -> VarPrime:
        """Fast path for a nonempty tuple of indices strictly increasing in [1, nvars]."""
        prime = object.__new__(cls)
        object.__setattr__(prime, "nvars", nvars)
        object.__setattr__(prime, "vars", vars)
        return prime

    @property
    def sort_key(self) -> tuple:
        return (len(self.vars), self.vars)

    def as_ideal(self) -> MonomialIdeal:
        # distinct variables are already minimal generators
        return MonomialIdeal._from_packed(self.nvars, (1 << (i - 1) * _W for i in self.vars))

    def __str__(self) -> str:
        return "<" + ",".join(f"x{i}" for i in self.vars) + ">"


@dataclass(frozen=True)
class IrreducibleComponent:
    """An ideal generated by pure variable powers: <x_i^a : (i, a) in powers>."""

    nvars: int
    powers: tuple[tuple[int, int], ...]

    def __post_init__(self):
        items = tuple((i, a) for i, a in self.powers)
        if not _is_count(self.nvars):
            raise ValueError(f"nvars must be a positive integer, got {self.nvars!r}")
        if not items:
            raise ValueError("an irreducible component needs at least one variable power")
        for i, a in items:
            if not (_is_count(i) and i <= self.nvars):
                raise ValueError(f"variable index {i!r} must be an integer in [1, {self.nvars}]")
            if not _is_count(a):
                raise ValueError(f"pure power exponent must be an integer >= 1, got x{i}^{a!r}")
            if a > EXPONENT_CAP:
                raise ExponentOverflow(f"exponent {a} exceeds cap {EXPONENT_CAP}")
        if len({i for i, _ in items}) < len(items):
            raise ValueError(f"variable indices must be distinct, got {items}")
        object.__setattr__(self, "powers", tuple(sorted(items)))

    @classmethod
    def _from_kernel(cls, nvars: int, powers: tuple[tuple[int, int], ...]) -> IrreducibleComponent:
        """Fast path for powers already sorted by variable, in range and positive."""
        component = object.__new__(cls)
        object.__setattr__(component, "nvars", nvars)
        object.__setattr__(component, "powers", powers)
        return component

    @property
    def sort_key(self) -> tuple:
        return (len(self.powers), self.powers)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.powers)

    def radical_prime(self) -> VarPrime:
        return VarPrime(self.nvars, self.support())

    def as_ideal(self) -> MonomialIdeal:
        # pure powers of distinct variables are already minimal generators
        return MonomialIdeal._from_packed(
            self.nvars, (a << (i - 1) * _W for i, a in self.powers)
        )

    def gens_text(self) -> list[str]:
        return [text for _, text in _terms(a << (i - 1) * _W for i, a in self.powers)]

    def __str__(self) -> str:
        return "<" + ",".join(self.gens_text()) + ">"


class DecompositionCache:
    """Thread-safe memo from generator prefixes to their components, emptied when full.

    `irreducible_decomposition` asks `resume` where to start and hands `store`
    the live components at each cut, so the memo's format is this class's
    alone.  A cut i of an ideal's packed generators ends the ideal or the
    prefix packed[:i] of its generators on x_1..x_m (numeric order puts them
    first), for some m below its top variable; a prefix is the same in any
    number of variables.  `resume` looks the cuts up longest first, so a
    shared cache hands the decomposition of I(n-1, t)^k to I(n, t)^k.

    A value is one bytes object: each component, a kernel vector (the module
    docstring has the layout) narrowed to its first m fields, since every
    later field holds _ABSENT, written as (m * _W + 7) // 8 little-endian
    bytes, one after another; one bytes value costs a fraction of a tuple of
    ints.  `resume` reads the pieces back and fills the later fields in with
    _ABSENT.  A key is a tuple of the cache's canonical ints: a table maps
    each generator value to the one int object that every stored key holding
    it shares, since the ideals of different calls bring their own ints.

    `misses` counts the lookups that found nothing, `hits` those that resumed
    a call.  The cap _CACHE_SIZE bounds memory: a store into a full cache
    first empties both the entries and the table, so the table never keeps
    an int that no stored key holds.
    """

    def __init__(self):
        self._data: dict[_Prefix, _Components] = {}
        self._canonical: dict[int, int] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def resume(self, packed: _Prefix, nvars: int) -> tuple[set[int], int, Optional[list[int]]]:
        """The cuts of `packed`, the longest stored one and its components in `nvars` variables.

        Returns (cuts, start, live): `live` holds the components of
        packed[:start] as kernel vectors, or is None, with start 0, when no
        cut is stored.
        """
        # every m at or above the last generator's top variable would cut at the end
        top = _top(packed[-1])
        cuts = {bisect_left(packed, 1 << m * _W) for m in range(1, top)} - {0} | {len(packed)}
        with self._lock:
            for start in sorted(cuts, reverse=True):
                stored = self._data.get(packed[:start])
                if stored is not None:
                    self.hits += 1
                    break
                self.misses += 1
            else:
                return cuts, 0, None
        m = _top(packed[start - 1])
        size = (m * _W + 7) // 8
        fill = _pack((0,) * m + (_ABSENT,) * (nvars - m))
        return cuts, start, [
            int.from_bytes(stored[b : b + size], "little") + fill
            for b in range(0, len(stored), size)
        ]

    def store(self, prefix: _Prefix, components: Iterable[int]) -> None:
        """Memoize the components of the ideal generated by `prefix`, which ends at a cut."""
        m = _top(prefix[-1])
        narrow = (1 << m * _W) - 1
        size = (m * _W + 7) // 8
        # one join: building the value piece by piece is quadratic
        value = b"".join([(v & narrow).to_bytes(size, "little") for v in components])
        with self._lock:
            if len(self._data) >= _CACHE_SIZE:
                self._data.clear()
                self._canonical.clear()
            canonical = self._canonical
            self._data[tuple([canonical.setdefault(g, g) for g in prefix])] = value

    def __len__(self) -> int:
        return len(self._data)


# The exponent of a variable a component does not use.  Monomial exponents
# never exceed EXPONENT_CAP, so it compares above every real exponent.
_ABSENT = EXPONENT_CAP + 1

# The live width above which a call moves its components into an _Index.
_INDEX_WIDTH = 64


def intersect_components(
    components: Sequence[IrreducibleComponent], nvars: int
) -> MonomialIdeal:
    """Intersection of a family of components on `nvars` variables; zero components
    -> zero ideal is not meaningful here, so an empty family is rejected."""
    if not _is_count(nvars):
        raise ValueError(f"nvars must be a positive integer, got {nvars!r}")
    if not components:
        raise ValueError("cannot intersect an empty family of components")
    for c in components:
        if c.nvars != nvars:
            raise DimensionMismatch(f"a component has {c.nvars} variables, not {nvars}")
    ideals = [c.as_ideal() for c in components]
    return reduce(lambda a, b: a.intersect(b), ideals)


def _lowered(g: int) -> list[tuple[int, int, int]]:
    """(variable position j, field j's mask, g's field j) for each variable x_{j+1} of g."""
    out = []
    rest = g
    while rest:
        j = ((rest & -rest).bit_length() - 1) // _W
        field = _FIELD << j * _W
        out.append((j, field, g & field))
        rest &= ~field
    return out


def _add_generator(components: list[int], g: int, guards: int) -> list[int]:
    """The list step: the irredundant components of (the intersection of `components`) + <g>.

    `components` must be irredundant; the module docstring gives the rule.
    The copy of a missed q lowered at x_i is dropped when some live d has
    d >= m, for m the copy of q lowered at every variable of g, and lies below
    q in field i alone.
    """
    lowered = _lowered(g)
    high = g | guards
    kept = []
    missed = []
    for q in components:
        (kept if (high - q) & guards else missed).append(q)
    support = sum(field for _, field, _ in lowered)
    raised = [d | guards for d in components]
    for q in missed:
        m = q & ~support | g
        dead = 0
        for d in raised:
            if (d - m) & guards == guards:
                below = guards ^ (d - q) & guards
                if below & (below - 1) == 0:
                    dead |= below
        for j, field, value in lowered:
            if not dead & _FIELD + 1 << j * _W:  # the guard bit of field j
                kept.append(q & ~field | value)
    return kept


class _Index:
    """The indexed step: the live components of one call, with bitsets of their fields.

    Each component owns a slot, a bit position.  For each variable j,
    `_by_value[j]` maps every value of field j (isolated in place, _ABSENT
    included) to the mask of the slots holding it, so the components above
    or at a value in one field are an OR of masks, and those that satisfy
    bounds in several fields an AND of such ORs.
    """

    def __init__(self, components: Sequence[int], nvars: int):
        self._fields = [_FIELD << j * _W for j in range(nvars)]
        self._by_value: list[dict[int, int]] = [{} for _ in range(nvars)]
        self._slots: list[Optional[int]] = []
        self._free: list[int] = []
        for v in components:
            self._insert(v)

    def __iter__(self):
        return (v for v in self._slots if v is not None)

    def _insert(self, v: int) -> None:
        if self._free:
            slot = self._free.pop()
            self._slots[slot] = v
        else:
            slot = len(self._slots)
            self._slots.append(v)
        bit = 1 << slot
        for field, by_value in zip(self._fields, self._by_value):
            key = v & field
            by_value[key] = by_value.get(key, 0) | bit

    def _remove(self, slot: int) -> None:
        v = self._slots[slot]
        self._slots[slot] = None
        self._free.append(slot)
        bit = 1 << slot
        for field, by_value in zip(self._fields, self._by_value):
            key = v & field
            rest = by_value[key] ^ bit
            if rest:
                by_value[key] = rest
            else:
                del by_value[key]

    def add_generator(self, g: int) -> None:
        """Replace the live components by those of (their intersection) + <g>; g != 1."""
        lowered = _lowered(g)
        fields, by_value, slots = self._fields, self._by_value, self._slots
        # a component misses g when it lies above g in every field.  Off supp(g)
        # g's field is 0 and no component field is (each is at least 1), so only
        # the fields of supp(g) are tested: key > value iff key >= value + 1
        missed = -1
        for j, _, value in lowered:
            missed &= _at_least(by_value[j], value + 1)
        fresh = []
        rest = missed
        while rest:
            low = rest & -rest
            rest ^= low
            q = slots[low.bit_length() - 1]
            # a copy of q lowered at x_j lies below a kept d with d_j = g_j, or below the
            # copy of another missed p lowered at x_j, when d or p is >= q off field j
            at_least = [_at_least(values, q & f) for f, values in zip(fields, by_value)]
            others = _and_of_others(at_least)
            rivals = missed ^ low
            for j, field, value in lowered:
                if not others[j] & (by_value[j].get(value, 0) | rivals):
                    fresh.append(q & ~field | value)
        rest = missed
        while rest:
            low = rest & -rest
            rest ^= low
            self._remove(low.bit_length() - 1)
        for c in fresh:
            self._insert(c)


def _at_least(values: dict[int, int], value: int) -> int:
    """The slots of the masks in `values` whose key is at least `value`."""
    slots = 0
    for key, mask in values.items():
        if key >= value:
            slots |= mask
    return slots


def _and_of_others(masks: list[int]) -> list[int]:
    """For each position, the AND of every mask but the one there."""
    suffix = [-1]
    for mask in reversed(masks):
        suffix.append(suffix[-1] & mask)
    suffix.reverse()
    out = []
    prefix = -1
    for i, mask in enumerate(masks):
        out.append(prefix & suffix[i + 1])
        prefix &= mask
    return out


def _top(m: int) -> int:
    """The number of the highest variable of a packed monomial."""
    return (m.bit_length() - 1) // _W + 1


def irreducible_decomposition(
    ideal: MonomialIdeal,
    *,
    cache: Optional[DecompositionCache] = None,
    deadline: Optional[float] = None,
) -> tuple[IrreducibleComponent, ...]:
    """Irredundant irreducible decomposition of a nonzero monomial ideal.

    Deterministic: independent of cache state and thread count.  Without
    `cache` nothing is memoized; pass one DecompositionCache to share the
    decompositions of generator prefixes across calls (see its docstring).
    `deadline` is an optional time.monotonic() timestamp, checked once per
    generator; crossing it raises DeadlineExceeded.
    """
    if ideal.is_zero:
        raise ValueError("the zero ideal has no irreducible decomposition")
    nvars = ideal.nvars
    guards = _guards(nvars)
    packed = ideal._packed
    cuts: set[int] = set()
    start, stored = 0, None
    if cache is not None:
        cuts, start, stored = cache.resume(packed, nvars)
    # a stored prefix has at least one component; without one, start from the zero ideal
    live: list[int] | _Index = stored or [_pack((_ABSENT,) * nvars)]
    for i in range(start, len(packed)):
        _check_deadline(deadline, "decomposition")
        if isinstance(live, _Index):
            live.add_generator(packed[i])
        else:
            live = _add_generator(live, packed[i], guards)
            if len(live) > _INDEX_WIDTH:
                live = _Index(live, nvars)
        if i + 1 in cuts:
            cache.store(packed[: i + 1], live)

    shifts = [(j + 1, j * _W) for j in range(nvars)]
    powers_list = []
    for v in live:
        powers = []
        for j, shift in shifts:
            e = v >> shift & _FIELD
            if e != _ABSENT:
                powers.append((j, e))
        powers_list.append(tuple(powers))
    powers_list.sort(key=lambda powers: (len(powers), powers))
    return tuple(IrreducibleComponent._from_kernel(nvars, powers) for powers in powers_list)


def associated_primes(
    ideal: MonomialIdeal,
    *,
    cache: Optional[DecompositionCache] = None,
    deadline: Optional[float] = None,
) -> tuple[VarPrime, ...]:
    """Associated primes: radicals of the irredundant irreducible components.

    A component's radical is its support, and each distinct support becomes
    one VarPrime.
    """
    components = irreducible_decomposition(ideal, cache=cache, deadline=deadline)
    supports = sorted({c.support() for c in components}, key=lambda vs: (len(vs), vs))
    return tuple(VarPrime._from_vars(ideal.nvars, vs) for vs in supports)


@dataclass(frozen=True)
class WitnessCheck:
    """Outcome of a colon-witness check of `prime`, with a reason code on failure."""

    prime: VarPrime
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def verify_witness(
    ideal: MonomialIdeal,
    k: int,
    u: Monomial,
    prime: VarPrime,
    *,
    power: Optional[MonomialIdeal] = None,
) -> WitnessCheck:
    """Check that u realizes prime as I^k : u with u outside I^k.

    `power` may carry a precomputed I^k to avoid recomputation in sweeps.
    """
    if not _is_count(k):
        raise ValueError("k must be a positive integer")
    ik = power if power is not None else ideal.power(k)
    if ik.contains(u):
        return WitnessCheck(prime, False, WITNESS_IN_POWER)
    colon = ik.colon_monomial(u)
    prime_ideal = prime.as_ideal()
    if not colon.is_subset(prime_ideal):
        return WitnessCheck(prime, False, WITNESS_COLON_TOO_BIG)
    if not prime_ideal.is_subset(colon):
        return WitnessCheck(prime, False, WITNESS_COLON_TOO_SMALL)
    return WitnessCheck(prime, True)


def minimal_primes_squarefree(ideal: MonomialIdeal) -> tuple[VarPrime, ...]:
    """Minimal primes of a squarefree monomial ideal by exhaustive transversal search.

    The minimal primes of a squarefree ideal are the minimal vertex covers
    (transversals) of its generators' supports (Herzog-Hibi, Monomial
    Ideals, ch. 1).  All 2^n variable subsets are decided at once, one bit
    each: bit X of a subset bitset stands for the subset whose bit mask is X.
    `contains[v]`, the subsets holding vertex v, repeats 2^v clear bits then
    2^v set bits, so it has a closed form.  A subset meets a support when it
    holds one of its vertices, so the transversals T are the AND over the
    generators of the OR of `contains[v]` over the support.  T is closed
    upward, so a transversal X is minimal iff no X - {v} is one; shifting
    the transversals without v up by 2^v adds v to each, and the minimal
    transversals are T minus the OR of those shifts.

    Independent of the decomposition kernel: it reads each support as the
    set bits of a packed generator in `ideal._packed` (a squarefree field
    holds 0 or 1, so vertex v is bit v * _W) and shares no code with the
    components.
    """
    if ideal.is_zero:
        raise ValueError("the zero ideal has no minimal primes")
    if not ideal.is_squarefree:
        raise ValueError("minimal_primes_squarefree requires a squarefree ideal")
    nvars = ideal.nvars
    everything = (1 << (1 << nvars)) - 1
    # keyed by vertex v's bit in a packed generator: contains[v]
    contains = {
        1 << v * _W: everything // ((1 << (2 << v)) - 1) * (((1 << (1 << v)) - 1) << (1 << v))
        for v in range(nvars)
    }
    transversals = everything
    for g in ideal._packed:
        meets = 0
        while g:
            low = g & -g
            meets |= contains[low]
            g ^= low
        transversals &= meets
    shrinkable = 0
    for v, holding in enumerate(contains.values()):
        shrinkable |= (transversals & ~holding) << (1 << v)
    minimal = transversals & ~shrinkable
    found = []
    while minimal:
        low = minimal & -minimal
        subset = low.bit_length() - 1
        found.append(tuple(v + 1 for v in range(nvars) if subset >> v & 1))
        minimal ^= low
    found.sort(key=lambda vs: (len(vs), vs))
    return tuple(VarPrime._from_vars(nvars, vs) for vs in found)
