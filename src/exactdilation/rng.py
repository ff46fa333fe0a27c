"""Seeded randomness for pair generation and trial vectors.

The generator is SplitMix64 (Steele, Lea and Flood's 64-bit mix, the seeding
generator of the xoshiro family).  It is tiny, fully specified by its two
multiplier constants, and trivially portable, which is what matters here:
test corpora must be reproducible from the seed alone, across machines and
languages.  Statistical quality beyond that is irrelevant.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import FieldSpec

__all__ = ["SplitMix64", "rand_scalar", "rand_column", "rand_matrix"]

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 stream; ``next_u64`` yields the reference output sequence."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish draw from [0, n) by reduction; deterministic and portable."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        """Draw from the inclusive range [lo, hi]."""
        return lo + self.below(hi - lo + 1)


def rand_scalar(rng: SplitMix64, field: FieldSpec, height: int = 5):
    """Random scalar; rationals have numerator and denominator of bounded height."""
    if field.is_rational:
        return Fraction(rng.randint(-height, height), rng.randint(1, height))
    return rng.below(field.modulus)


def rand_column(rng: SplitMix64, field: FieldSpec, d: int, height: int = 5) -> tuple:
    return tuple(rand_scalar(rng, field, height) for _ in range(d))


def rand_matrix(rng: SplitMix64, field: FieldSpec, d: int, height: int = 5):
    from .linalg import Mat

    rows = tuple(rand_column(rng, field, d, height) for _ in range(d))
    return Mat(field, d, d, rows)
