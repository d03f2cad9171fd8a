"""Irreducible decomposition of monomial ideals by recursive splitting.

The public functions take and return MonomialIdeal, Monomial and
IrreducibleComponent objects.  The recursion between them runs on raw
exponent tuples: the ideal's generators are read once at the start, and the
components are built once at the end.

A node of the splitting tree is the tuple of its minimal generators'
exponent tuples in canonical order (degree, then canonical text).  The
splitting rule is deterministic: take the first generator g whose support has
at least two variables, peel off its smallest variable x_i^a, and recurse on
node + <x_i^a> and node + <g / x_i^a>, whose intersection is the node.  A node
whose generators are all pure powers is irreducible.  Results are memoized
per node in a bounded LRU cache keyed on the node tuple, and associated primes
are read off as the radicals (support sets) of the surviving components.

Inside the recursion a component is a dense exponent vector in which an
unused variable reads as infinity, so component c contains component d iff
c <= d componentwise.  Merging a node's two children drops every component
that contains another, and keeps an exact duplicate once.  This prune is
complete: a pure-power component Q contains an intersection of others only if
it contains one of them (the lcm of per-component witnesses outside Q stays
outside Q), so what survives is irredundant.  Each child's result is already
irredundant, so no component contains another from its own side and only
pairs across the two sides are compared.  Among those, c can contain d only
if d's support is a subset of c's, so components are grouped by support mask
and only nested groups are compared.
"""

from __future__ import annotations

import threading
import time
from bisect import insort
from collections import OrderedDict
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import le
from typing import Mapping, Optional, Sequence

from .ideal import MonomialIdeal
from .monomial import EXPONENT_CAP, Monomial, exponent_text

DEFAULT_CACHE_SIZE = 1 << 16

# Kernel data (see the module docstring): a node is the exponent tuples of
# its minimal generators in canonical order; a component is a dense vector.
_Node = tuple[tuple[int, ...], ...]
_Components = tuple[tuple[int, ...], ...]

WITNESS_IN_POWER = "u in I^k"
WITNESS_COLON_TOO_BIG = "colon too big"
WITNESS_COLON_TOO_SMALL = "colon too small"


class DeadlineExceeded(RuntimeError):
    """A decomposition ran past its wall-clock deadline."""


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
        return MonomialIdeal._from_minimal(
            self.nvars, (Monomial.variable(i, self.nvars) for i in self.vars)
        )

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

    @classmethod
    def from_map(cls, nvars: int, powers: Mapping[int, int]) -> IrreducibleComponent:
        return cls(nvars, tuple(powers.items()))

    @property
    def sort_key(self) -> tuple:
        return (len(self.powers), self.powers)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.powers)

    def radical_prime(self) -> VarPrime:
        return VarPrime(self.nvars, self.support())

    def as_ideal(self) -> MonomialIdeal:
        return MonomialIdeal._from_minimal(
            self.nvars, (Monomial.variable(i, self.nvars, a) for i, a in self.powers)
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

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._data)


_default_cache = DecompositionCache()

# The exponent of a variable a component does not use.  Monomial exponents
# never exceed EXPONENT_CAP, so it compares above every real exponent.
_ABSENT = EXPONENT_CAP + 1


def intersect_components(
    components: Sequence[IrreducibleComponent], nvars: int
) -> MonomialIdeal:
    """Intersection of a family of components; zero components -> zero ideal is not
    meaningful here, so an empty family is rejected."""
    if not components:
        raise ValueError("cannot intersect an empty family of components")
    ideals = [c.as_ideal() for c in components]
    return reduce(lambda a, b: a.intersect(b), ideals)


def _split(node: _Node, order: dict) -> Optional[tuple[_Node, _Node]]:
    """The two children of a node, or None when every generator is a pure power.

    The pivot g is the first generator in canonical order with at least two
    variables; with x_i its smallest variable and a its exponent there, the
    children are node + <x_i^a> and node + <g / x_i^a>.  Neither new
    generator lies in the node: a generator dividing it would divide g,
    against minimality.  So a child is the node without the generators the
    new one divides, plus the new one at its canonical place.
    """
    for g in node:
        if len(g) - g.count(0) >= 2:
            break
    else:
        return None
    i = next(j for j, e in enumerate(g) if e)
    a = g[i]
    power = (0,) * i + (a,) + (0,) * (len(g) - i - 1)
    rest = g[:i] + (0,) + g[i + 1 :]
    return (
        _insert_generator([h for h in node if h[i] < a], power, order),
        _insert_generator([h for h in node if not all(map(le, rest, h))], rest, order),
    )


def _insert_generator(kept: list, m: tuple[int, ...], order: dict) -> _Node:
    """The node kept + [m] in canonical order.

    `order` maps exponent tuples to Monomial.sort_key values, filled on demand.
    """
    if m not in order:
        order[m] = (sum(m), exponent_text(m))
    insort(kept, m, key=order.__getitem__)
    return tuple(kept)


def _support_groups(components) -> dict[int, list]:
    """Components grouped by support, as a bit mask over variable positions."""
    groups: dict[int, list] = {}
    for c in components:
        mask = sum(1 << j for j, e in enumerate(c) if e != _ABSENT)
        groups.setdefault(mask, []).append(c)
    return groups


def _prune(left: _Components, right: _Components) -> _Components:
    """The irredundant union of two irredundant decompositions.

    Each side is an antichain under containment, so only cross pairs can be
    redundant, and a component that contains another is dropped.  An exact
    duplicate is kept once.  A component contains another only if the
    other's support is a subset of its own, so only such support groups are
    compared.
    """
    seen = set(left)
    right = [d for d in right if d not in seen]
    left_groups = _support_groups(left)
    right_groups = _support_groups(right)
    kept = []
    for ours, theirs in ((left_groups, right_groups), (right_groups, left_groups)):
        for mask, comps in ours.items():
            rivals = [d for m, ds in theirs.items() if m & mask == m for d in ds]
            kept.extend(c for c in comps if not any(all(map(le, c, d)) for d in rivals))
    return tuple(kept)


def irreducible_decomposition(
    ideal: MonomialIdeal,
    *,
    cache: Optional[DecompositionCache] = None,
    deadline: Optional[float] = None,
) -> tuple[IrreducibleComponent, ...]:
    """Irredundant irreducible decomposition of a nonzero monomial ideal.

    Deterministic: independent of cache state and thread count.  `deadline`
    is an optional time.monotonic() timestamp; crossing it raises
    DeadlineExceeded.
    """
    if ideal.is_zero:
        raise ValueError("the zero ideal has no irreducible decomposition")
    if cache is None:
        cache = _default_cache
    # canonical sort keys of the generators seen in this call
    order = {g.exponents: g.sort_key for g in ideal.gens}

    # Iterative post-order over the splitting tree.  Each frame pins its
    # children's results so LRU eviction can never force recomputation of a
    # value an in-flight parent still needs.
    # frame = [node, children (None until expanded), collected child results]
    root_result: Optional[_Components] = None
    stack: list[list] = [[tuple(g.exponents for g in ideal.gens), None, []]]
    while stack:
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded("decomposition exceeded its time budget")
        frame = stack[-1]
        node, children, results = frame
        if children is None:
            value = cache.get(node)
            if value is None:
                children = _split(node, order)
                if children is not None:
                    frame[1] = children
                    continue
                # every generator is a pure variable power: irreducible already
                value = (tuple(max(column) or _ABSENT for column in zip(*node)),)
                cache.put(node, value)
        elif len(results) < len(children):
            stack.append([children[len(results)], None, []])
            continue
        else:
            value = _prune(*results)
            cache.put(node, value)
        stack.pop()
        if stack:
            stack[-1][2].append(value)
        else:
            root_result = value

    assert root_result is not None
    components = (
        IrreducibleComponent(
            ideal.nvars, tuple((j, e) for j, e in enumerate(c, start=1) if e != _ABSENT)
        )
        for c in root_result
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

    Independent of the splitting engine: enumerates all variable subsets and
    keeps the inclusion-minimal ones hitting every generator's support.
    """
    if ideal.is_zero:
        raise ValueError("the zero ideal has no minimal primes")
    if not ideal.is_squarefree:
        raise ValueError("minimal_primes_squarefree requires a squarefree ideal")
    supports = [g.support() for g in ideal.gens]
    universe = range(1, ideal.nvars + 1)

    def hits_all(subset: frozenset[int]) -> bool:
        return all(subset & s for s in supports)

    found: list[VarPrime] = []
    for size in range(1, ideal.nvars + 1):
        for combo in combinations(universe, size):
            subset = frozenset(combo)
            if not hits_all(subset):
                continue
            if any(hits_all(subset - {v}) for v in combo):
                continue
            found.append(VarPrime(ideal.nvars, combo))
    return tuple(sorted(found, key=lambda p: p.sort_key))
