"""Monomial ideals as canonical minimal generating sets, with the full operation algebra."""

from __future__ import annotations

from typing import Iterable, Iterator

from .monomial import DimensionMismatch, Monomial


class ImproperIdeal(ValueError):
    """An operation produced the unit ideal, which is deliberately unrepresentable.

    Associated primes are undefined for the unit ideal, so a colon (or
    minimization) whose result contains 1 raises instead of yielding a
    silently meaningless object.
    """


def _minimize_raw(exps: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Minimal generators among exponent tuples.

    Any strict divisor has strictly smaller degree, so a sweep in increasing
    degree that checks candidates only against already-kept tuples of smaller
    degree is exact.  Equigenerated inputs degenerate to pure deduplication.
    """
    ordered = sorted(set(exps), key=lambda t: (sum(t), t))
    kept: list[tuple[int, ...]] = []
    smaller: list[tuple[int, ...]] = []
    block_degree = -1
    for t in ordered:
        d = sum(t)
        if d != block_degree:
            smaller = list(kept)
            block_degree = d
        if not any(all(a <= b for a, b in zip(g, t)) for g in smaller):
            kept.append(t)
    return kept


class MonomialIdeal:
    """A monomial ideal stored by its unique minimal generating set.

    Generators are kept minimized (no generator divides another) and sorted
    canonically (degree, then canonical text), so ideal equality is plain
    tuple equality.  The empty generating set is the zero ideal; the unit
    ideal is not representable (see ImproperIdeal).
    """

    __slots__ = ("nvars", "gens", "_hash")

    def __init__(self, nvars: int, gens: Iterable[Monomial] = ()):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        monos = list(gens)
        for g in monos:
            if g.nvars != nvars:
                raise DimensionMismatch(
                    f"generator {g} has {g.nvars} variables, ideal has {nvars}"
                )
        minimal = _minimize_raw(g.exponents for g in monos)
        self.nvars = nvars
        self.gens = tuple(sorted((Monomial(t) for t in minimal), key=lambda m: m.sort_key))
        self._hash = None
        if self.gens and self.gens[0].is_unit:
            raise ImproperIdeal("the unit ideal is not representable")

    @classmethod
    def zero(cls, nvars: int) -> MonomialIdeal:
        return cls(nvars)

    @classmethod
    def _from_minimal(cls, nvars: int, gens: Iterable[Monomial]) -> MonomialIdeal:
        """Fast path for generator sets already known to be minimal."""
        self = object.__new__(cls)
        self.nvars = nvars
        self.gens = tuple(sorted(gens, key=lambda m: m.sort_key))
        self._hash = None
        if self.gens and self.gens[0].is_unit:
            raise ImproperIdeal("the unit ideal is not representable")
        return self

    # -- protocol ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_squarefree(self) -> bool:
        return all(g.is_squarefree for g in self.gens)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.nvars == other.nvars
            and self.gens == other.gens
        )

    def equals(self, other: MonomialIdeal) -> bool:
        self._check_same_ring(other)
        return self.gens == other.gens

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.nvars, self.gens))
        return h

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.gens)

    def __len__(self) -> int:
        return len(self.gens)

    def __repr__(self) -> str:
        return f"MonomialIdeal(nvars={self.nvars}, gens={[str(g) for g in self.gens]})"

    def __str__(self) -> str:
        return "<" + (", ".join(g.text() for g in self.gens) if self.gens else "0") + ">"

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
        return any(g.divides(m) for g in self.gens)

    def __contains__(self, m: Monomial) -> bool:
        return self.contains(m)

    def is_subset(self, other: MonomialIdeal) -> bool:
        self._check_same_ring(other)
        return all(other.contains(g) for g in self.gens)

    # -- algebra ---------------------------------------------------------------

    def sum(self, other: MonomialIdeal) -> MonomialIdeal:
        self._check_same_ring(other)
        return MonomialIdeal(self.nvars, self.gens + other.gens)

    __add__ = sum

    def product(self, other: MonomialIdeal) -> MonomialIdeal:
        self._check_same_ring(other)
        prods = {
            tuple(a + b for a, b in zip(u.exponents, v.exponents))
            for u in self.gens
            for v in other.gens
        }
        return MonomialIdeal._from_minimal(
            self.nvars, (Monomial(t) for t in _minimize_raw(prods))
        )

    __mul__ = product

    def power(self, k: int) -> MonomialIdeal:
        """k-th power by iterated product, minimizing after every step."""
        if k < 1:
            raise ValueError("power exponent must be >= 1 (the unit ideal is not modeled)")
        if self.is_zero or k == 1:
            return self
        base = [g.exponents for g in self.gens]
        cur = base
        for _ in range(k - 1):
            prods = {tuple(a + b for a, b in zip(u, v)) for u in cur for v in base}
            cur = _minimize_raw(prods)
        return MonomialIdeal._from_minimal(self.nvars, (Monomial(t) for t in cur))

    __pow__ = power

    def intersect(self, other: MonomialIdeal) -> MonomialIdeal:
        self._check_same_ring(other)
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.nvars)
        lcms = {
            tuple(a if a > b else b for a, b in zip(u.exponents, v.exponents))
            for u in self.gens
            for v in other.gens
        }
        return MonomialIdeal._from_minimal(
            self.nvars, (Monomial(t) for t in _minimize_raw(lcms))
        )

    def colon_monomial(self, u: Monomial) -> MonomialIdeal:
        """I : u, generated by g / gcd(g, u) over the generators g.

        Raises ImproperIdeal if u lies in I (the colon would be the unit ideal).
        """
        self._check_monomial(u)
        quots = {
            tuple(a - b if a > b else 0 for a, b in zip(g.exponents, u.exponents))
            for g in self.gens
        }
        return MonomialIdeal._from_minimal(
            self.nvars, (Monomial(t) for t in _minimize_raw(quots))
        )

    def colon_ideal(self, other: MonomialIdeal) -> MonomialIdeal:
        self._check_same_ring(other)
        if other.is_zero:
            raise ValueError("colon by the zero ideal is undefined")
        result = None
        for v in other.gens:
            piece = self.colon_monomial(v)
            result = piece if result is None else result.intersect(piece)
        return result

    def radical(self) -> MonomialIdeal:
        return MonomialIdeal(self.nvars, (g.squarefree_part() for g in self.gens))
