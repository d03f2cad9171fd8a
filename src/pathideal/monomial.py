"""Exact arithmetic on monomials represented as non-negative integer exponent vectors."""

from __future__ import annotations

import re
from typing import Iterable

# Exponents are plain Python ints, but anything past this cap is treated as a
# bug: degrees in this package are tiny and a runaway exponent would silently
# poison every downstream comparison.
EXPONENT_CAP = 1 << 20

_TERM_RE = re.compile(r"x(\d+)(?:\^(\d+))?$")


def exponent_text(exponents: tuple[int, ...]) -> str:
    """Canonical textual form of an exponent vector, as in ``Monomial.text``."""
    parts = []
    for i, e in enumerate(exponents, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


class DimensionMismatch(ValueError):
    """Two operands live in polynomial rings with different variable counts."""


class ExponentOverflow(OverflowError):
    """An exponent exceeded EXPONENT_CAP."""


class Monomial:
    """An immutable monomial x1^a1 * ... * xn^an.

    Variable indices are 1-based everywhere in the public API and in the
    textual form; ``exponents[i-1]`` is the exponent of ``x_i``.  The
    all-zeros vector is the unit monomial ``1``.
    """

    __slots__ = ("exponents", "degree", "_hash", "_text")

    def __init__(self, exponents: Iterable[int]):
        exps = tuple(exponents)
        for e in exps:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponents must be non-negative integers, got {e!r}")
            if e > EXPONENT_CAP:
                raise ExponentOverflow(f"exponent {e} exceeds cap {EXPONENT_CAP}")
        self.exponents = exps
        self.degree = sum(exps)
        self._hash = None
        self._text = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, nvars: int) -> Monomial:
        return cls((0,) * nvars)

    @classmethod
    def variable(cls, index: int, nvars: int, exponent: int = 1) -> Monomial:
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range [1, {nvars}]")
        exps = [0] * nvars
        exps[index - 1] = exponent
        return cls(exps)

    @classmethod
    def from_support(cls, indices: Iterable[int], nvars: int) -> Monomial:
        """Squarefree monomial x^F for a set F of variable indices."""
        exps = [0] * nvars
        for i in indices:
            if not 1 <= i <= nvars:
                raise ValueError(f"variable index {i} out of range [1, {nvars}]")
            exps[i - 1] = 1
        return cls(exps)

    @classmethod
    def parse(cls, text: str, nvars: int) -> Monomial:
        """Parse the canonical textual form, e.g. ``x1*x3^2`` or ``1``."""
        text = text.strip()
        if text == "1":
            return cls.one(nvars)
        exps = [0] * nvars
        last = 0
        for term in text.split("*"):
            m = _TERM_RE.match(term.strip())
            if m is None:
                raise ValueError(f"malformed monomial term {term!r} in {text!r}")
            idx = int(m.group(1))
            exp = int(m.group(2)) if m.group(2) else 1
            if idx <= last:
                raise ValueError(f"variable indices must be strictly increasing in {text!r}")
            if not 1 <= idx <= nvars:
                raise ValueError(f"variable index {idx} out of range [1, {nvars}]")
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
        h = self._hash
        if h is None:
            h = self._hash = hash(self.exponents)
        return h

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
        t = self._text
        if t is None:
            t = self._text = exponent_text(self.exponents)
        return t

    # -- arithmetic --------------------------------------------------------

    def _check_same_ring(self, other: Monomial) -> None:
        if len(self.exponents) != len(other.exponents):
            raise DimensionMismatch(
                f"operands have {len(self.exponents)} and {len(other.exponents)} variables"
            )

    def mul(self, other: Monomial) -> Monomial:
        self._check_same_ring(other)
        return Monomial(a + b for a, b in zip(self.exponents, other.exponents))

    __mul__ = mul

    def power(self, k: int) -> Monomial:
        if k < 0:
            raise ValueError("negative monomial power")
        return Monomial(e * k for e in self.exponents)

    def divides(self, other: Monomial) -> bool:
        self._check_same_ring(other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def gcd(self, other: Monomial) -> Monomial:
        self._check_same_ring(other)
        return Monomial(a if a < b else b for a, b in zip(self.exponents, other.exponents))

    def lcm(self, other: Monomial) -> Monomial:
        self._check_same_ring(other)
        return Monomial(a if a > b else b for a, b in zip(self.exponents, other.exponents))

    def quotient(self, other: Monomial) -> Monomial:
        """self / gcd(self, other): exponents clip at zero."""
        self._check_same_ring(other)
        return Monomial(
            a - b if a > b else 0 for a, b in zip(self.exponents, other.exponents)
        )

    # -- structure ---------------------------------------------------------

    def support(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.exponents, start=1) if e > 0)

    def squarefree_part(self) -> Monomial:
        return Monomial(1 if e > 0 else 0 for e in self.exponents)

    @property
    def is_unit(self) -> bool:
        return self.degree == 0

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)
