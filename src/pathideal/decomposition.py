"""Irreducible decomposition of monomial ideals by recursive splitting.

The public functions take and return MonomialIdeal, Monomial and
IrreducibleComponent objects.  The recursion between them runs on the packed
integers of `ideal` (see its module docstring for the layout): the ideal's
packed generators are read as they are, and the components are built once
at the end.

A node of the splitting tree is nvars followed by its minimal generators,
packed, in canonical order (degree, then canonical text).  The splitting rule
is deterministic: take the first generator g whose support has at least two
variables, peel off its smallest variable x_i^a, and recurse on
node + <x_i^a> and node + <g / x_i^a>, whose intersection is the node.  A
node whose generators are all pure powers is irreducible.  Results are
memoized per node in a bounded LRU cache keyed on the node tuple, whose
leading nvars keeps ideals on different variable counts apart; a call
without a cache memoizes in one of its own.  Associated primes are read off
as the radicals (support sets) of the surviving components.

Inside the recursion a component is a (support mask, packed vector) pair in
which an unused variable holds _ABSENT, above every real exponent, so
component c contains component d iff c <= d componentwise.  Merging a node's
two children drops every component that contains another, and keeps an
exact duplicate once.  This prune is complete: a pure-power component Q
contains an intersection of others only if it contains one of them (the lcm
of per-component witnesses outside Q stays outside Q), so what survives is
irredundant.  Each child's result is already irredundant, so no component
contains another from its own side and only pairs across the two sides are
compared.  Among those, c can contain d only if d's support is a subset of
c's, so components are grouped by support mask and only nested groups are
compared; within them, the rivals of c are sorted and scanned from c up.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left, insort
from collections import OrderedDict
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

# DeadlineExceeded and the packed layout are re-exported for existing importers.
from .ideal import _FIELD, _W, DeadlineExceeded, MonomialIdeal, _guards, _pack, _unpack
from .monomial import EXPONENT_CAP, ExponentOverflow, Monomial, exponent_text

DEFAULT_CACHE_SIZE = 1 << 16

# Kernel data (see the module docstring): a node is nvars followed by its
# packed minimal generators in canonical order; a component is a
# (support mask, packed vector) pair.
_Node = tuple[int, ...]
_Components = tuple[tuple[int, int], ...]

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
        if not vs:
            raise ValueError("a variable prime needs at least one variable")
        if any(not 1 <= v <= self.nvars for v in vs):
            raise ValueError(f"variable indices {vs} out of range [1, {self.nvars}]")
        if any(a >= b for a, b in zip(vs, vs[1:])):
            raise ValueError(f"variable indices must be strictly increasing, got {vs}")

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
        items = tuple(sorted(dict(self.powers).items()))
        object.__setattr__(self, "powers", items)
        if not items:
            raise ValueError("an irreducible component needs at least one variable power")
        for i, a in items:
            if not 1 <= i <= self.nvars:
                raise ValueError(f"variable index {i} out of range [1, {self.nvars}]")
            if a < 1:
                raise ValueError(f"pure power exponent must be >= 1, got x{i}^{a}")

    @property
    def sort_key(self) -> tuple:
        return (len(self.powers), self.powers)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.powers)

    def radical_prime(self) -> VarPrime:
        return VarPrime(self.nvars, self.support())

    def as_ideal(self) -> MonomialIdeal:
        # pure powers of distinct variables are already minimal generators
        for _, a in self.powers:
            if not isinstance(a, int):
                raise ValueError(f"exponents must be non-negative integers, got {a!r}")
            if a > EXPONENT_CAP:
                raise ExponentOverflow(f"exponent {a} exceeds cap {EXPONENT_CAP}")
        return MonomialIdeal._from_packed(
            self.nvars, (a << (i - 1) * _W for i, a in self.powers)
        )

    def gens_text(self) -> list[str]:
        return [f"x{i}^{a}" if a > 1 else f"x{i}" for i, a in self.powers]

    def __str__(self) -> str:
        return "<" + ",".join(self.gens_text()) + ">"


class DecompositionCache:
    """Bounded, thread-safe LRU memo from splitting-tree nodes to their components.

    The splitting recursion revisits identical subideals heavily; the cap
    bounds memory on large powers, with least-recently-used eviction.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE):
        if maxsize < 1:
            raise ValueError("cache size must be positive")
        self.maxsize = maxsize
        self._data: OrderedDict[_Node, _Components] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: _Node) -> Optional[_Components]:
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: _Node, value: _Components) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)


# The exponent of a variable a component does not use.  Monomial exponents
# never exceed EXPONENT_CAP, so it compares above every real exponent.
_ABSENT = EXPONENT_CAP + 1


class _SortKeys(dict):
    """Packed generator -> a key in Monomial.sort_key order, filled on demand: the
    degree zero-padded to the widest possible degree, then the canonical text."""

    def __init__(self, nvars: int):
        super().__init__()
        self.nvars = nvars
        self.width = len(str(nvars * EXPONENT_CAP))

    def __missing__(self, m: int) -> str:
        exponents = _unpack(m, self.nvars)
        key = self[m] = f"{sum(exponents):0{self.width}d}{exponent_text(exponents)}"
        return key


def intersect_components(
    components: Sequence[IrreducibleComponent], nvars: int
) -> MonomialIdeal:
    """Intersection of a family of components; zero components -> zero ideal is not
    meaningful here, so an empty family is rejected."""
    if not components:
        raise ValueError("cannot intersect an empty family of components")
    ideals = [c.as_ideal() for c in components]
    return reduce(lambda a, b: a.intersect(b), ideals)


def _split(node: _Node, guards: int, order: _SortKeys) -> Optional[tuple[_Node, _Node]]:
    """The two children of a node, or None when every generator is a pure power.

    The pivot g is the first generator in canonical order with at least two
    variables; with x_i its smallest variable and a its exponent there, the
    children are node + <x_i^a> and node + <g / x_i^a>.  Neither new
    generator lies in the node: a generator dividing it would divide g,
    against minimality.  So a child is the node without the generators the
    new one divides, plus the new one at its canonical place.
    """
    gens = node[1:]
    for g in gens:
        low = (g & -g).bit_length() - 1
        field = _FIELD << (low - low % _W)
        power = g & field
        rest = g - power
        if rest:
            break
    else:
        return None
    nvars = node[0]
    return (
        _insert_generator(nvars, [h for h in gens if h & field < power], power, order),
        _insert_generator(
            nvars, [h for h in gens if ((h | guards) - rest) & guards != guards], rest, order
        ),
    )


def _insert_generator(nvars: int, kept: list, m: int, order: _SortKeys) -> _Node:
    """The node of kept + [m] in canonical order."""
    insort(kept, m, key=order.__getitem__)
    return (nvars, *kept)


def _leaf(node: _Node) -> _Components:
    """The component of a node whose generators are all pure powers."""
    nvars = node[0]
    mask = 0
    vector = _pack((_ABSENT,) * nvars)
    for g in node[1:]:
        j = (g.bit_length() - 1) // _W
        mask |= 1 << j
        vector += g - (_ABSENT << (j * _W))
    return ((mask, vector),)


def _groups(components) -> tuple[dict[int, list], dict[int, list]]:
    """The components, and their packed vectors alone, grouped by support mask."""
    pairs: dict[int, list] = {}
    vectors: dict[int, list] = {}
    for pair in components:
        mask = pair[0]
        if mask in pairs:
            pairs[mask].append(pair)
            vectors[mask].append(pair[1])
        else:
            pairs[mask] = [pair]
            vectors[mask] = [pair[1]]
    return pairs, vectors


def _prune(left: _Components, right: _Components, guards: int) -> _Components:
    """The irredundant union of two irredundant decompositions.

    Each side is an antichain under containment, so only cross pairs can be
    redundant, and a component that contains another is dropped.  An exact
    duplicate is kept once.  A component contains another only if the
    other's support is a subset of its own, so only such support groups are
    compared; and c contains d only if c <= d as integers, so the scan over
    the sorted rivals starts at c.  The kept pairs are the input objects.
    """
    seen = set(left)
    left_pairs, left_vectors = _groups(left)
    right_pairs, right_vectors = _groups(d for d in right if d not in seen)
    kept: list = []
    for ours, theirs in ((left_pairs, right_vectors), (right_pairs, left_vectors)):
        for mask, pairs in ours.items():
            rivals: list = []
            for m, ds in theirs.items():
                if m & mask == m:
                    rivals += ds
            if not rivals:
                kept += pairs
                continue
            rivals.sort()
            for pair in pairs:
                c = pair[1]
                for d in rivals[bisect_left(rivals, c) :]:
                    if ((d | guards) - c) & guards == guards:
                        break
                else:
                    kept.append(pair)
    return tuple(kept)


def irreducible_decomposition(
    ideal: MonomialIdeal,
    *,
    cache: Optional[DecompositionCache] = None,
    deadline: Optional[float] = None,
) -> tuple[IrreducibleComponent, ...]:
    """Irredundant irreducible decomposition of a nonzero monomial ideal.

    Deterministic: independent of cache state and thread count.  Without
    `cache` the memo lives for this call only; pass one DecompositionCache to
    share work across calls.  `deadline` is an optional time.monotonic()
    timestamp; crossing it raises DeadlineExceeded.
    """
    if ideal.is_zero:
        raise ValueError("the zero ideal has no irreducible decomposition")
    if cache is None:
        cache = DecompositionCache()
    nvars = ideal.nvars
    guards = _guards(nvars)
    order = _SortKeys(nvars)
    for m in ideal._packed:
        # fills the canonical keys under the deadline: a large power's take seconds
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded("decomposition exceeded its time budget")
        order[m]
    root = (nvars, *sorted(ideal._packed, key=order.__getitem__))

    # Iterative post-order over the splitting tree.  Each frame pins its
    # children's results so LRU eviction can never force recomputation of a
    # value an in-flight parent still needs.
    # frame = [node, children (None until expanded), collected child results]
    root_result: Optional[_Components] = None
    stack: list[list] = [[root, None, []]]
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded("decomposition exceeded its time budget")
        frame = stack[-1]
        node, children, results = frame
        if children is None:
            value = cache.get(node)
            if value is None:
                children = _split(node, guards, order)
                if children is not None:
                    frame[1] = children
                    continue
                value = _leaf(node)
                cache.put(node, value)
        elif len(results) < len(children):
            stack.append([children[len(results)], None, []])
            continue
        else:
            value = _prune(*results, guards)
            cache.put(node, value)
        stack.pop()
        if stack:
            stack[-1][2].append(value)
        else:
            root_result = value

    assert root_result is not None
    components = (
        IrreducibleComponent(
            nvars, tuple((j, e) for j, e in enumerate(_unpack(v, nvars), start=1) if e != _ABSENT)
        )
        for _, v in root_result
    )
    return tuple(sorted(components, key=lambda c: c.sort_key))


def associated_primes(
    ideal: MonomialIdeal,
    *,
    cache: Optional[DecompositionCache] = None,
    deadline: Optional[float] = None,
) -> tuple[VarPrime, ...]:
    """Associated primes: radicals of the irredundant irreducible components."""
    components = irreducible_decomposition(ideal, cache=cache, deadline=deadline)
    primes = {c.radical_prime() for c in components}
    return tuple(sorted(primes, key=lambda p: p.sort_key))


@dataclass(frozen=True)
class WitnessCheck:
    """Outcome of a colon-witness check, with a reason code on failure."""

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
    if k < 1:
        raise ValueError("power exponent must be >= 1")
    ik = power if power is not None else ideal.power(k)
    if ik.contains(u):
        return WitnessCheck(False, WITNESS_IN_POWER)
    colon = ik.colon_monomial(u)
    prime_ideal = prime.as_ideal()
    if not colon.is_subset(prime_ideal):
        return WitnessCheck(False, WITNESS_COLON_TOO_BIG)
    if not prime_ideal.is_subset(colon):
        return WitnessCheck(False, WITNESS_COLON_TOO_SMALL)
    return WitnessCheck(True)


def minimal_primes_squarefree(ideal: MonomialIdeal) -> tuple[VarPrime, ...]:
    """Minimal primes of a squarefree monomial ideal by exhaustive transversal search.

    Independent of the splitting engine: enumerates every nonempty variable
    subset as a bit mask and keeps the inclusion-minimal ones hitting every
    generator's support.  A transversal is minimal iff each of its vertices
    is the only one meeting some support (a private vertex), so one pass over
    the supports decides both: the subset is a transversal when every meet is
    nonzero, and minimal when the single-vertex meets OR back to the subset.
    """
    if ideal.is_zero:
        raise ValueError("the zero ideal has no minimal primes")
    if not ideal.is_squarefree:
        raise ValueError("minimal_primes_squarefree requires a squarefree ideal")
    nvars = ideal.nvars
    supports = [sum(1 << (i - 1) for i in g.support()) for g in ideal.gens]
    found: list[VarPrime] = []
    for subset in range(1, 1 << nvars):
        private = 0
        for s in supports:
            meet = s & subset
            if not meet:
                break
            if meet & (meet - 1) == 0:
                private |= meet
        else:
            if private == subset:
                vars_ = tuple(i for i in range(1, nvars + 1) if subset >> (i - 1) & 1)
                found.append(VarPrime(nvars, vars_))
    return tuple(sorted(found, key=lambda p: p.sort_key))
