"""Exact scalars over the rationals and prime fields GF(p), and the edge where
the integer kernels meet them.

Scalars are plain values: ``fractions.Fraction`` for the rationals and ``int``
residues in ``[0, p)`` for GF(p).  A ``FieldSpec`` says which applies and
supplies what depends on it: parsing, formatting, and the integer form of the
kernels.  ``to_ints`` turns a grid of scalars into integer numerators over one
positive common denominator (over GF(p), the residues themselves over 1);
``from_ints`` turns an integer grid over a denominator back into reduced
scalars; ``reduce_row`` keeps an elimination row small (content gcd over Q,
mod p over GF(p)).

Scalar text grammar: integer ``-?[0-9]+``, rational ``-?[0-9]+/[1-9][0-9]*``,
prime-field residue ``[0-9]+``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

__all__ = ["FieldSpec", "RATIONAL", "gf", "MAX_MODULUS"]

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


@dataclass(frozen=True)
class FieldSpec:
    """The scalar field: ``kind`` is ``"rational"`` or ``"gf"`` (with prime modulus)."""

    kind: str
    modulus: Optional[int] = None

    def __post_init__(self):
        if self.kind == "rational":
            if self.modulus is not None:
                raise ValueError("rational field carries no modulus")
        elif self.kind == "gf":
            if not isinstance(self.modulus, int) or isinstance(self.modulus, bool):
                raise ValueError(f"modulus must be a prime integer, got {self.modulus!r}")
            if self.modulus > MAX_MODULUS:
                raise ValueError(
                    f"modulus {self.modulus} is too large; the limit is {MAX_MODULUS}")
            if not _is_prime(self.modulus):
                raise ValueError(f"modulus must be a prime integer, got {self.modulus!r}")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

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

    # -- scalar arithmetic the lazy operators and kernels need ------------------

    def sub(self, a, b):
        return a - b if self.is_rational else (a - b) % self.modulus

    def neg(self, a):
        return -a if self.is_rational else (-a) % self.modulus

    # -- integer form: the edge of the kernels --------------------------------

    def to_ints(self, rows) -> tuple:
        """``(ints, den)`` with ``rows == ints / den``: over Q ``den`` is the least
        common denominator; over GF(p) ``rows`` itself comes back, uncopied, over 1."""
        if self.modulus is not None:
            return rows, 1
        den = lcm(*{x.denominator for row in rows for x in row})
        return tuple([tuple([x.numerator * (den // x.denominator) for x in row])
                      for row in rows]), den

    def from_ints(self, ints, den: int = 1) -> tuple:
        """The grid of reduced scalars ``ints / den``; ``den`` is a nonzero integer."""
        p = self.modulus
        if p is None:
            return tuple([tuple([Fraction(x, den) if x else _ZERO for x in row])
                          for row in ints])
        mod = p.__rmod__  # x -> x % p
        if den != 1:
            scale = pow(den, -1, p).__mul__
            return tuple([tuple(map(mod, map(scale, row))) for row in ints])
        return tuple([tuple(map(mod, row)) for row in ints])

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

    def fmt(self, x) -> str:
        return str(x)

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
            return FieldSpec("gf", obj["modulus"])
        raise ValueError(f"unknown field kind {obj['kind']!r}")


RATIONAL = FieldSpec("rational")


def gf(p: int) -> FieldSpec:
    """The prime field of integers modulo p."""
    return FieldSpec("gf", p)
