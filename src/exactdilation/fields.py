"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Scalars are plain values rather than wrapper objects: ``gmpy2.mpq`` for the
rationals (arbitrary precision, always stored reduced with positive
denominator) and ``int`` residues in ``[0, p)`` for GF(p).  A ``FieldSpec``
pins down which interpretation applies and supplies the few operations that
depend on it (normalization, inversion, parsing, formatting).

Scalar text grammar: integer ``-?[0-9]+``, rational ``-?[0-9]+/[1-9][0-9]*``,
prime-field residue ``[0-9]+``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

try:
    from gmpy2 import mpq
except ImportError:  # pragma: no cover - gmpy2 is the declared dependency
    from fractions import Fraction as mpq

__all__ = ["FieldSpec", "RATIONAL", "gf", "mpq"]

_INTEGER_RE = re.compile(r"-?[0-9]+\Z")
_RATIONAL_RE = re.compile(r"(-?[0-9]+)/([1-9][0-9]*)\Z")
_RESIDUE_RE = re.compile(r"[0-9]+\Z")


def _is_prime(n: int) -> bool:
    # trial division; moduli are desk scale
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
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
            if not isinstance(self.modulus, int) or not _is_prime(self.modulus):
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
        return mpq(0) if self.is_rational else 0

    def one(self):
        return mpq(1) if self.is_rational else 1

    def from_int(self, n: int):
        return mpq(n) if self.is_rational else n % self.modulus

    def coerce(self, x):
        """Accept an int, a scalar string, or an already-exact scalar; never a float."""
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, (bool, float)):
            raise TypeError(f"{type(x).__name__} is not an exact scalar: {x!r}")
        if isinstance(x, int):
            return self.from_int(x)
        if self.is_rational:
            return mpq(x)
        raise TypeError(f"cannot coerce {x!r} into {self.label()}")

    # -- arithmetic ----------------------------------------------------------

    def normalize(self, x):
        """Canonical representative: reduce mod p; rationals are already reduced."""
        return x if self.is_rational else x % self.modulus

    def add(self, a, b):
        return a + b if self.is_rational else (a + b) % self.modulus

    def sub(self, a, b):
        return a - b if self.is_rational else (a - b) % self.modulus

    def neg(self, a):
        return -a if self.is_rational else (-a) % self.modulus

    def mul(self, a, b):
        return a * b if self.is_rational else (a * b) % self.modulus

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("scalar has no inverse")
        return 1 / a if self.is_rational else pow(a, -1, self.modulus)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    # -- text form ------------------------------------------------------------

    def parse(self, s: str):
        """Parse a scalar from its text form, strictly per the grammar."""
        if not isinstance(s, str):
            raise ValueError(f"scalar text must be a string, got {s!r}")
        if self.is_rational:
            m = _RATIONAL_RE.match(s)
            if m:
                return mpq(int(m.group(1)), int(m.group(2)))
            if _INTEGER_RE.match(s):
                return mpq(int(s))
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
