"""Exact scalars over the rationals and prime fields GF(p), and the edge where
the integer kernels meet them.

Scalars are plain values: ``fractions.Fraction`` for the rationals and ``int``
residues in ``[0, p)`` for GF(p).  A ``FieldSpec`` holds one fact, its
modulus, ``None`` for Q and a prime p for GF(p), and supplies what depends
on it: parsing, formatting, and the integer form every matrix and batch is
held in.  ``reduce_ints`` brings integers over a denominator to the
canonical form (over Q, a positive denominator with no factor common to
every entry; over GF(p), residues over 1), and
``reduce_row`` and ``pivot_row`` keep elimination rows small.  Scalars are
met only at the edges: ``to_ints`` reads a grid of them into integer form,
and ``from_ints`` builds them back for output; ``fmt_ints`` writes the text of
a whole grid straight from its integer form.

Scalar text grammar: integer ``-?[0-9]+``, rational ``-?[0-9]+/[1-9][0-9]*``,
prime-field residue ``[0-9]+``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from ._record import Record

__all__ = ["FieldSpec", "RATIONAL", "gf", "MAX_MODULUS", "ScalarTooLarge"]

_INTEGER_RE = re.compile(r"-?[0-9]+\Z")
_RATIONAL_RE = re.compile(r"(-?[0-9]+)/([1-9][0-9]*)\Z")
_RESIDUE_RE = re.compile(r"[0-9]+\Z")

_ZERO = Fraction(0)
_ONE = Fraction(1)

# Miller-Rabin with the first 13 prime bases is exact below the smallest
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86,
# 2017); larger moduli are refused rather than tested probabilistically.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3317044064679887385961981 - 1


class ScalarTooLarge(ValueError):
    """A scalar has more digits than Python turns into text (``sys.set_int_max_str_digits``)."""


def _is_prime(n: int) -> bool:
    """Deterministic for n <= MAX_MODULUS."""
    if n < 2 or n % 2 == 0:
        return n == 2
    if n in _MR_BASES:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec(Record):
    """The scalar field: Q when ``modulus`` is None, else GF(p) for the prime p = ``modulus``."""

    modulus: Optional[int] = None

    def _check(self):
        if self.modulus is None:
            return
        if not isinstance(self.modulus, int) or isinstance(self.modulus, bool):
            raise ValueError(f"modulus must be a prime integer, got {self.modulus!r}")
        if self.modulus > MAX_MODULUS:
            raise ValueError(f"modulus {self.modulus} is too large; the limit is {MAX_MODULUS}")
        if not _is_prime(self.modulus):
            raise ValueError(f"modulus must be a prime integer, got {self.modulus!r}")

    @property
    def is_rational(self) -> bool:
        return self.modulus is None

    def label(self) -> str:
        return "rational" if self.is_rational else f"gf({self.modulus})"

    # -- scalar construction ------------------------------------------------

    def zero(self):
        return _ZERO if self.is_rational else 0

    def one(self):
        return _ONE if self.is_rational else 1

    def from_int(self, n: int):
        return Fraction(n) if self.is_rational else n % self.modulus

    def coerce(self, x):
        """Accept an int, a scalar string, or an already-exact scalar; never a float."""
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, (bool, float)):
            raise TypeError(f"{type(x).__name__} is not an exact scalar: {x!r}")
        if isinstance(x, int):
            return self.from_int(x)
        if self.is_rational:
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into {self.label()}")

    # -- integer form: the edge of the kernels --------------------------------

    def to_ints(self, rows) -> tuple:
        """``(ints, den)`` with ``rows == ints / den``, ``den`` the least common
        denominator (over GF(p), 1).  The one way a grid of scalars enters integer
        form: entries must be ``int`` or, over Q, ``Fraction``, else TypeError."""
        kinds = {int, Fraction} if self.is_rational else {int}
        bad = {type(x) for row in rows for x in row} - kinds
        if bad:
            raise TypeError(f"not {self.label()} scalars: {sorted(t.__name__ for t in bad)}")
        ratios = [[x.as_integer_ratio() for x in row] for row in rows]
        den = lcm(*{q for row in ratios for _, q in row})
        return tuple([tuple([n * (den // q) for n, q in row]) for row in ratios]), den

    def from_ints(self, ints, den: int = 1) -> tuple:
        """The grid of reduced scalars ``ints / den``; ``den`` is a nonzero integer."""
        p = self.modulus
        if p is None:
            return tuple([tuple([Fraction(x, den) if x else _ZERO for x in row])
                          for row in ints])
        return self.reduce_ints(ints, den)[0]

    def reduce_ints(self, rows, den: int) -> tuple:
        """The canonical form ``(int row tuples, den)`` of the grid ``rows / den``,
        for a positive ``den``: over Q, the gcd of ``den`` and every entry is 1,
        so the form is unique; over GF(p), residues over 1.  It is the one
        place a grid is reduced mod p entry by entry, ``int_product``'s plain
        loop included; its packed loop reduces whole packed rows instead.

        The GF(p) branch for ``den != 1`` multiplies by the inverse of ``den``
        mod p.  No package path needs it: over GF(p) every product, stack,
        rref and exchange map has ``den == 1``.  It is for a caller that
        passes a rational grid to ``Mat.from_ints`` or ``FieldSpec.from_ints``
        over GF(p), to reduce it mod p, as the tests do (``den`` prime to p).
        """
        p = self.modulus
        if p is None:
            g = den
            for row in rows:
                if g == 1:
                    break
                g = gcd(g, *row)
            if g > 1:
                return tuple([tuple([x // g for x in row]) for row in rows]), den // g
            return tuple(map(tuple, rows)), den
        if den != 1:
            s = pow(den, -1, p)
            return tuple([tuple([x * s % p for x in row]) for row in rows]), 1
        return tuple([tuple([x % p for x in row]) for row in rows]), 1

    def reduce_row(self, row: dict) -> dict:
        """A sparse integer row (col -> nonzero int) scaled to a small multiple:
        divided by its content gcd over Q, reduced mod p over GF(p), zeros dropped."""
        p = self.modulus
        if p is None:
            g = gcd(*row.values())
            if g > 1:
                return {j: x // g for j, x in row.items()}
            return row
        return {j: r for j, x in row.items() if (r := x % p)}

    def pivot_row(self, row: dict, lead: int) -> dict:
        """A reduced row about to serve as a pivot: over GF(p) scaled to ``row[lead] == 1``,
        so that cancelling against it never scales the other row; over Q as it is."""
        p = self.modulus
        if p is None or row[lead] == 1:
            return row
        inv = pow(row[lead], -1, p)
        return {j: x * inv % p for j, x in row.items()}

    # -- text form ------------------------------------------------------------

    def parse(self, s: str):
        """Parse a scalar from its text form, strictly per the grammar."""
        if not isinstance(s, str):
            raise ValueError(f"scalar text must be a string, got {s!r}")
        if self.is_rational:
            m = _RATIONAL_RE.match(s)
            if m:
                return Fraction(int(m.group(1)), int(m.group(2)))
            if _INTEGER_RE.match(s):
                return Fraction(int(s))
            raise ValueError(f"not a rational scalar: {s!r}")
        if _RESIDUE_RE.match(s):
            return int(s) % self.modulus
        raise ValueError(f"not a {self.label()} residue: {s!r}")

    def fmt_ints(self, ints, den: int = 1) -> list:
        """The text of every scalar of the grid ``ints / den``, row by row, written
        from the integers without building scalars: for a positive ``den``,
        ``x // g``, or ``x // g`` and ``den // g`` joined by ``/``, with
        ``g = gcd(x, den)``.  Over GF(p) ``den`` is 1, so each residue is
        written as it is.  Each distinct integer is written once."""
        values = set().union(*ints)
        try:
            texts = {x: str(x // g) if (g := gcd(x, den)) == den else f"{x // g}/{den // g}"
                     for x in values}
        except ValueError as exc:  # past the int-to-text digit limit
            raise ScalarTooLarge(f"an output scalar is too large to write: {exc}") from None
        return [list(map(texts.__getitem__, row)) for row in ints]

    # -- JSON form --------------------------------------------------------------

    def to_dict(self) -> dict:
        if self.is_rational:
            return {"kind": "rational"}
        return {"kind": "gf", "modulus": self.modulus}

    @staticmethod
    def from_dict(obj) -> "FieldSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError(f"bad field description: {obj!r}")
        if obj["kind"] == "rational":
            if set(obj) - {"kind"}:
                raise ValueError(f"bad field description: {obj!r}")
            return RATIONAL
        if obj["kind"] == "gf":
            if set(obj) != {"kind", "modulus"}:
                raise ValueError(f"bad field description: {obj!r}")
            return gf(obj["modulus"])
        raise ValueError(f"unknown field kind {obj['kind']!r}")


RATIONAL = FieldSpec()


def gf(p: int) -> FieldSpec:
    """The prime field of integers modulo p; a None p is refused, not read as Q."""
    if p is None:
        raise ValueError("modulus must be a prime integer, got None")
    return FieldSpec(p)
