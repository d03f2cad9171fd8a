"""Exact arithmetic on monomials represented as non-negative integer exponent vectors.

Packed layout: inside the package an exponent vector is one integer in which
variable x_{j+1} owns the field of _W bits starting at bit j * _W.  The top
bit of each field is a guard bit, clear in every packed value; the width
comes from EXPONENT_CAP, so it is the same in every call.  With G the guard
bits of all fields, a <= b componentwise iff ((b | G) - a) & G == G: no
field borrows from its neighbour, and a field keeps its guard exactly when
b's entry is at least a's.  And a <= b componentwise implies a <= b as
integers.  A product is one integer addition, as a field holds the sum of
two exponents at the cap; _check_cap tests the minimal sums.  The clipped
difference max(a - b, 0) keeps the fields of (a | G) - b whose guard
survives, and lcm(a, b) is b plus that difference.

Every mask, guard bit, shift and field count of another module comes from
the functions below, but for the squarefree oracle in `decomposition`: it
reads vertex v as bit v * _W itself, to share no code with the kernel.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

# Exponents are plain Python ints, but anything past this cap is treated as a
# bug: degrees in this package are tiny and a runaway exponent would silently
# poison every downstream comparison.
EXPONENT_CAP = 1 << 20

# A field holds the sum of two exponents at the cap below its guard bit, so two
# in-cap vectors add with no test, and EXPONENT_CAP + 1 marks an unused variable.
_W = (2 * EXPONENT_CAP).bit_length() + 1
_FIELD = (1 << (_W - 1)) - 1

_TERM_RE = re.compile(r"x(\d+)(?:\^(\d+))?$")


def _is_count(value) -> bool:
    """A positive integer; booleans are ints to Python but not counts here.

    The one rule for every public count of the package (n, t, k, kmax,
    level and nvars): a value that fails it raises ValueError.
    """
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def _check_counts(**counts) -> None:
    """Raise ValueError naming the first of the keyword arguments that is not a count."""
    for name, value in counts.items():
        if not _is_count(value):
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _check_ring(nvars: int, indices: Iterable[int] = ()) -> None:
    """The one ring rule: nvars is a count and each variable index a count of at most nvars.

    Every value type that takes nvars checks it here; a value that breaks
    the rule raises ValueError.
    """
    _check_counts(nvars=nvars)
    for i in indices:
        if not (_is_count(i) and i <= nvars):
            raise ValueError(f"variable index {i!r} out of range [1, {nvars}]")


def _check_same_ring(nvars: int, other: int) -> None:
    """The one ring-agreement rule: operands on nvars and on `other` variables must agree."""
    if other != nvars:
        raise DimensionMismatch(f"operands have {nvars} and {other} variables")


def _pack_checked(exponents: Iterable[int], low: int) -> int:
    """The one exponent rule, packing as it checks: every exponent an int of at least
    `low` (0 in a monomial, 1 in a pure power) and at most EXPONENT_CAP."""
    packed = shift = 0
    for e in exponents:
        if not isinstance(e, int) or e < low or e.__class__ is bool:
            words = ("non-negative", "positive")[low]
            raise ValueError(f"exponents must be {words} integers, got {e!r}")
        if e > EXPONENT_CAP:
            raise ExponentOverflow(f"exponent {e} exceeds cap {EXPONENT_CAP}")
        packed |= e << shift
        shift += _W
    return packed


def _pack(exponents: Sequence[int]) -> int:
    value = 0
    for e in reversed(exponents):
        value = value << _W | e
    return value


def _pure_powers(powers: Iterable[tuple[int, int]]) -> list[int]:
    """The packed term x_i^a of each (i, a) pair, variables numbered from 1."""
    return [a << (i - 1) * _W for i, a in powers]


def _unpack(value: int, nvars: int) -> tuple[int, ...]:
    return tuple((value >> (j * _W)) & _FIELD for j in range(nvars))


def _guards(nvars: int) -> int:
    """The guard bits of the first nvars fields: the guard bit times 1 + 2^_W + ... ."""
    return (_FIELD + 1) * (((1 << nvars * _W) - 1) // ((1 << _W) - 1))


def _top(m: int) -> int:
    """The number of the highest variable of a packed vector; 0 for the unit."""
    return (m.bit_length() - 1) // _W + 1


def _first_fields(m: int) -> tuple[int, int]:
    """(mask, bytes) of the first m fields: a packed vector on x_1..x_m is at most mask."""
    return (1 << m * _W) - 1, (m * _W + 7) // 8


def _field_table(nvars: int) -> tuple[tuple[int, int, int, int], ...]:
    """(j, field j's mask, its guard bit, its shift) for each of the first nvars fields."""
    if nvars <= len(_FIELD_TABLE):
        return _FIELD_TABLE[:nvars]
    return tuple((j, _FIELD << j * _W, _FIELD + 1 << j * _W, j * _W) for j in range(nvars))


_FIELD_TABLE = ()
_FIELD_TABLE = _field_table(32)  # built once: a small call's time shows building its table


def _excess(a: int, b: int, guards: int) -> int:
    """a / gcd(a, b), the fieldwise max(a - b, 0); so lcm(a, b) = b + _excess(a, b)."""
    t = (a | guards) - b
    keep = t & guards  # the fields in which a >= b
    return t & (keep - (keep >> (_W - 1)))


def _check_cap(values: Iterable[int], nvars: int, k: int = 1) -> None:
    """The one cap rule of a product or power: ExponentOverflow if some packed v in
    `values` has a field e, below its guard bit, with k * e past EXPONENT_CAP."""
    guards = _guards(nvars)
    high = guards // (_FIELD + 1) * (EXPONENT_CAP // k) | guards  # cap // k in every field
    if any((high - v) & guards != guards for v in values):  # a field of v borrowed
        raise ExponentOverflow(f"a product exponent exceeds cap {EXPONENT_CAP}")


def _supports(values: Iterable[int], nvars: int) -> list[int]:
    """The support of each packed vector, 1 in each nonzero field: a squarefree one is its own."""
    # a field is nonzero iff adding _FIELD to it carries into its guard bit
    guards = _guards(nvars)
    fill = guards // (_FIELD + 1) * _FIELD
    return [((g + fill) & guards) >> (_W - 1) for g in values]


def _by_degree(values: Iterable[int]) -> dict[int, set[int]]:
    blocks: dict[int, set[int]] = {}
    for g in set(values):
        degree, rest = 0, g
        while rest:
            degree += rest & _FIELD
            rest >>= _W
        blocks.setdefault(degree, set()).add(g)
    return blocks


def _terms(values: Iterable[int]) -> list[tuple[int, str]]:
    """(degree, text) of each packed vector: x_i^e for e > 1, x_i for e = 1, "1" if none."""
    terms = []
    for value in values:
        degree, parts, rest, i = 0, [], value, 1
        while rest:
            e = rest & _FIELD
            if e:
                degree += e
                parts.append(f"x{i}^{e}" if e > 1 else f"x{i}")
            rest >>= _W
            i += 1
        terms.append((degree, "*".join(parts) or "1"))
    return terms


class DimensionMismatch(ValueError):
    """Two operands live in polynomial rings with different variable counts."""


class ExponentOverflow(OverflowError, ValueError):
    """An exponent exceeded EXPONENT_CAP; a bad input, so the command line exits 2."""


class Monomial:
    """An immutable monomial x1^a1 * ... * xn^an.

    Variable indices are 1-based everywhere in the public API and in the
    textual form; ``exponents[i-1]`` is the exponent of ``x_i``.  The
    all-zeros vector is the unit monomial ``1``.
    """

    __slots__ = ("exponents", "degree", "_packed")

    def __init__(self, exponents: Iterable[int]):
        exps = tuple(exponents)
        if not exps:
            raise ValueError("a monomial needs at least one variable")
        self._packed = _pack_checked(exps, 0)
        self.exponents = exps
        self.degree = sum(exps)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, nvars: int) -> Monomial:
        return cls.from_support((), nvars)

    @classmethod
    def variable(cls, index: int, nvars: int, exponent: int = 1) -> Monomial:
        _check_ring(nvars, (index,))
        exps = [0] * nvars
        exps[index - 1] = exponent
        return cls(exps)

    @classmethod
    def from_support(cls, indices: Iterable[int], nvars: int) -> Monomial:
        """Squarefree monomial x^F for a set F of variable indices."""
        support = tuple(indices)
        _check_ring(nvars, support)
        exps = [0] * nvars
        for i in support:
            exps[i - 1] = 1
        return cls(exps)

    @classmethod
    def parse(cls, text: str, nvars: int) -> Monomial:
        """Parse the canonical textual form, e.g. ``x1*x3^2`` or ``1``."""
        _check_ring(nvars)
        exps = [0] * nvars
        text = text.strip()
        if text == "1":
            return cls(exps)
        last = 0
        for term in text.split("*"):
            m = _TERM_RE.match(term.strip())
            if m is None:
                raise ValueError(f"malformed monomial term {term!r} in {text!r}")
            idx = int(m.group(1))
            exp = int(m.group(2)) if m.group(2) else 1
            if idx <= last:
                raise ValueError(f"variable indices must be strictly increasing in {text!r}")
            _check_ring(nvars, (idx,))
            if exp < 1:
                raise ValueError(f"exponent must be positive in {text!r}")
            exps[idx - 1] = exp
            last = idx
        return cls(exps)

    # -- basic protocol ----------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Monomial) and self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __lt__(self, other: Monomial) -> bool:
        return self.sort_key < other.sort_key

    @property
    def sort_key(self) -> tuple:
        # canonical order: by degree, then canonical text
        return (self.degree, self.text())

    def __repr__(self) -> str:
        return f"Monomial({self.text()!r}, nvars={self.nvars})"

    def __str__(self) -> str:
        return self.text()

    def text(self) -> str:
        """Canonical textual form: increasing indices, caret only for exponents > 1."""
        return _terms((self._packed,))[0][1]

    # -- arithmetic --------------------------------------------------------

    def mul(self, other: Monomial) -> Monomial:
        _check_same_ring(self.nvars, other.nvars)
        return Monomial(a + b for a, b in zip(self.exponents, other.exponents))

    __mul__ = mul

    def power(self, k: int) -> Monomial:
        if not isinstance(k, int) or k < 0 or k.__class__ is bool:
            raise ValueError(f"a monomial power must be a non-negative integer, got {k!r}")
        return Monomial(e * k for e in self.exponents)

    def divides(self, other: Monomial) -> bool:
        _check_same_ring(self.nvars, other.nvars)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def gcd(self, other: Monomial) -> Monomial:
        _check_same_ring(self.nvars, other.nvars)
        return Monomial(a if a < b else b for a, b in zip(self.exponents, other.exponents))

    def lcm(self, other: Monomial) -> Monomial:
        _check_same_ring(self.nvars, other.nvars)
        return Monomial(a if a > b else b for a, b in zip(self.exponents, other.exponents))

    def quotient(self, other: Monomial) -> Monomial:
        """self / gcd(self, other): exponents clip at zero."""
        _check_same_ring(self.nvars, other.nvars)
        return Monomial(
            a - b if a > b else 0 for a, b in zip(self.exponents, other.exponents)
        )

    # -- structure ---------------------------------------------------------

    def support(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.exponents, start=1) if e > 0)

    def squarefree_part(self) -> Monomial:
        return Monomial(1 if e > 0 else 0 for e in self.exponents)

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)
