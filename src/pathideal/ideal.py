"""Monomial ideals as canonical minimal generating sets, with the full operation algebra.

The generators are packed integers, in the layout of the `monomial` module docstring.
"""

from __future__ import annotations

import time
from functools import reduce
from typing import Iterable, Iterator, Optional, Sequence

from .monomial import EXPONENT_CAP, DimensionMismatch, ExponentOverflow, Monomial, _top, _unpack
from .monomial import _by_degree, _check_ring, _excess, _guards, _is_count, _spill, _supports, _terms


class DeadlineExceeded(RuntimeError):
    """A computation ran past its wall-clock deadline."""


def _check_deadline(deadline: Optional[float], what: str) -> None:
    """Raise DeadlineExceeded for `what` once time.monotonic() is past `deadline`.

    `deadline` is a time.monotonic() instant; None never fires.
    """
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlineExceeded(f"{what} exceeded its time budget")


class ImproperIdeal(ValueError):
    """An operation produced the unit ideal, which is deliberately unrepresentable.

    Associated primes are undefined for the unit ideal, so a colon (or
    minimization) whose result contains 1 raises instead of yielding a
    silently meaningless object.
    """


def _divides_some(gens: Iterable[int], high: int, guards: int) -> bool:
    """Whether some packed g in `gens` divides the packed u with high = u | guards.

    g divides u iff g_i <= u_i in every field, iff subtracting g from the
    guarded u borrows from no guard bit.
    """
    for g in gens:
        if (high - g) & guards == guards:
            return True
    return False


def _minimize_raw(blocks: dict[int, set[int]]) -> list[int]:
    """Minimal generators among packed vectors, given as degree -> set of vectors.

    Any strict divisor has strictly smaller degree, so a sweep in increasing
    degree that checks candidates only against already-kept vectors of smaller
    degree is exact.  Equigenerated inputs degenerate to pure deduplication.
    """
    top = max((max(block, default=0) for block in blocks.values()), default=0)
    guards = _guards(_top(top))
    kept: list[int] = []
    for _, block in sorted(blocks.items()):
        # the new block joins `kept` only once it is built
        kept += [t for t in block if not _divides_some(kept, t | guards, guards)]
    return kept


def _products(
    rows: Sequence[int], columns: Sequence[int], nvars: int, deadline: Optional[float] = None
) -> dict[int, set[int]]:
    """Every sum u + v, grouped by degree; `deadline` is checked once per row."""
    guards = _guards(nvars)
    top = reduce(lambda a, b: b + _excess(a, b, guards), columns, 0)  # fieldwise max
    spill = _spill(top, nvars)
    by_degree = _by_degree(columns)
    sums: dict[int, set[int]] = {}
    for du, us in _by_degree(rows).items():
        for u in us:
            _check_deadline(deadline, "building the power")
            # checked before the sum is formed: past the cap it could reach its guard bit
            if (u + spill) & guards:
                raise ExponentOverflow(f"a product exponent exceeds cap {EXPONENT_CAP}")
            for d, vs in by_degree.items():
                sums.setdefault(du + d, set()).update([u + v for v in vs])
    return sums


class MonomialIdeal:
    """A monomial ideal stored by its unique minimal generating set.

    Generators are kept minimized (no generator divides another), packed,
    and sorted numerically, so ideal equality is plain tuple equality.
    `gens` gives them as Monomials in canonical order (degree, then canonical
    text).  The empty generating set is the zero ideal; the unit ideal is
    not representable (see ImproperIdeal).
    """

    __slots__ = ("nvars", "_packed", "_gens")

    def __init__(self, nvars: int, gens: Iterable[Monomial] = ()):
        _check_ring(nvars)
        blocks: dict[int, set[int]] = {}
        for g in gens:
            if g.nvars != nvars:
                raise DimensionMismatch(
                    f"generator {g} has {g.nvars} variables, ideal has {nvars}"
                )
            blocks.setdefault(g.degree, set()).add(g._packed)
        self._store(nvars, _minimize_raw(blocks))

    def _store(self, nvars: int, minimal: Iterable[int]) -> MonomialIdeal:
        self.nvars = nvars
        self._packed = tuple(sorted(minimal))
        self._gens = None
        if self._packed[:1] == (0,):
            raise ImproperIdeal("the unit ideal is not representable")
        return self

    @classmethod
    def zero(cls, nvars: int) -> MonomialIdeal:
        return cls(nvars)

    @classmethod
    def _from_packed(cls, nvars: int, minimal: Iterable[int]) -> MonomialIdeal:
        """Fast path for packed generators already known to be minimal."""
        return object.__new__(cls)._store(nvars, minimal)

    @property
    def gens(self) -> tuple[Monomial, ...]:
        """The minimal generators in canonical order, built on first read."""
        if self._gens is None:
            monos = (Monomial(_unpack(g, self.nvars)) for g in self._packed)
            self._gens = tuple(sorted(monos, key=lambda m: m.sort_key))
        return self._gens

    # -- protocol ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._packed

    @property
    def is_squarefree(self) -> bool:
        return list(self._packed) == _supports(self._packed, self.nvars)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.nvars == other.nvars
            and self._packed == other._packed
        )

    def equals(self, other: MonomialIdeal) -> bool:
        self._check_same_ring(other)
        return self._packed == other._packed

    def __hash__(self) -> int:
        return hash((self.nvars, self._packed))

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.gens)

    def __len__(self) -> int:
        return len(self._packed)

    def _texts(self) -> list[str]:
        """The generators' canonical texts in canonical (degree, text) order."""
        return [text for _, text in sorted(_terms(self._packed))]

    def __repr__(self) -> str:
        return f"MonomialIdeal(nvars={self.nvars}, gens={self._texts()})"

    def __str__(self) -> str:
        return "<" + (", ".join(self._texts()) if self._packed else "0") + ">"

    def _check_same_ring(self, other: MonomialIdeal) -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatch(
                f"ideals have {self.nvars} and {other.nvars} variables"
            )

    def _check_monomial(self, m: Monomial) -> None:
        if m.nvars != self.nvars:
            raise DimensionMismatch(
                f"monomial has {m.nvars} variables, ideal has {self.nvars}"
            )

    # -- membership and containment -------------------------------------------

    def contains(self, m: Monomial) -> bool:
        self._check_monomial(m)
        guards = _guards(self.nvars)
        return _divides_some(self._packed, m._packed | guards, guards)

    def __contains__(self, m: Monomial) -> bool:
        return self.contains(m)

    def is_subset(self, other: MonomialIdeal) -> bool:
        self._check_same_ring(other)
        guards, theirs = _guards(self.nvars), other._packed
        return all(_divides_some(theirs, u | guards, guards) for u in self._packed)

    # -- algebra ---------------------------------------------------------------

    def sum(self, other: MonomialIdeal) -> MonomialIdeal:
        self._check_same_ring(other)
        packed = _by_degree(self._packed + other._packed)
        return MonomialIdeal._from_packed(self.nvars, _minimize_raw(packed))

    __add__ = sum

    def product(self, other: MonomialIdeal) -> MonomialIdeal:
        self._check_same_ring(other)
        prods = _products(self._packed, other._packed, self.nvars)
        return MonomialIdeal._from_packed(self.nvars, _minimize_raw(prods))

    __mul__ = product

    def power(self, k: int, *, deadline: Optional[float] = None) -> MonomialIdeal:
        """k-th power by iterated product, minimizing after every step.

        `deadline` is a `time.monotonic()` instant, checked on entry, once per row
        of the product loop and after every minimization: past it, DeadlineExceeded.
        The power of a principal ideal <g> is <g^k>, formed at once.  Otherwise a
        generator x_i^e with k * e past the cap raises ExponentOverflow at once,
        as x_i^(k * e) is a minimal generator of the power.
        """
        if not _is_count(k):
            raise ValueError("k must be a positive integer (the unit ideal is not modeled)")
        if self.is_zero or k == 1:
            return self
        _check_deadline(deadline, "building the power")
        if len(self._packed) == 1:
            (g,) = self._packed
            if k * max(_unpack(g, self.nvars)) > EXPONENT_CAP:
                raise ExponentOverflow(f"a product exponent exceeds cap {EXPONENT_CAP}")
            return MonomialIdeal._from_packed(self.nvars, (k * g,))
        for g, s in zip(self._packed, _supports(self._packed, self.nvars)):
            if s & (s - 1) == 0 and k * (g // s) > EXPONENT_CAP:
                raise ExponentOverflow(f"a product exponent exceeds cap {EXPONENT_CAP}")
        cur = self._packed
        for _ in range(k - 1):
            cur = _minimize_raw(_products(cur, self._packed, self.nvars, deadline))
            _check_deadline(deadline, "building the power")
        return MonomialIdeal._from_packed(self.nvars, cur)

    __pow__ = power

    def intersect(self, other: MonomialIdeal) -> MonomialIdeal:
        """Generated by the pairwise lcms, except that a generator u lying in
        `other` stands alone: every lcm(u, v) is a multiple of u.

        Such a u is a minimal generator of the result, kept without a test:
        an lcm(u', v) dividing u would make the generator u' divide u, so
        u' = u, and two of them never divide each other.  Only the lcms of
        the other generators are swept, in numeric order, since a divisor of
        a packed vector is never numerically larger: each is kept unless a
        kept generator below it divides it.
        """
        self._check_same_ring(other)
        guards, theirs = _guards(self.nvars), other._packed
        inside: list[int] = []
        lcms: set[int] = set()
        for u in self._packed:
            if _divides_some(theirs, u | guards, guards):
                inside.append(u)
            else:
                lcms.update([v + _excess(u, v, guards) for v in theirs])
        kept: list[int] = []
        below = 0  # inside[:below] have joined `kept`
        for t in sorted(lcms):
            while below < len(inside) and inside[below] < t:
                kept.append(inside[below])
                below += 1
            if not _divides_some(kept, t | guards, guards):
                kept.append(t)
        return MonomialIdeal._from_packed(self.nvars, kept + inside[below:])

    def colon_monomial(self, u: Monomial) -> MonomialIdeal:
        """I : u, generated by g / gcd(g, u) over the generators g.

        Raises ImproperIdeal if u lies in I (the colon would be the unit ideal).
        """
        self._check_monomial(u)
        return self._colon(u._packed, _guards(self.nvars))

    def _colon(self, v: int, guards: int) -> MonomialIdeal:
        quots = _by_degree({_excess(g, v, guards) for g in self._packed})
        return MonomialIdeal._from_packed(self.nvars, _minimize_raw(quots))

    def colon_ideal(self, other: MonomialIdeal) -> MonomialIdeal:
        """The intersection of the I : v over the generators v of `other`."""
        self._check_same_ring(other)
        if other.is_zero:
            raise ValueError("colon by the zero ideal is undefined")
        guards = _guards(self.nvars)
        pieces = (self._colon(v, guards) for v in other._packed)
        return reduce(lambda a, b: a.intersect(b), pieces)

    def radical(self) -> MonomialIdeal:
        supports = _by_degree(_supports(self._packed, self.nvars))
        return MonomialIdeal._from_packed(self.nvars, _minimize_raw(supports))
