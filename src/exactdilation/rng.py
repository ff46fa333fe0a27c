"""Seeded randomness for pair generation and trial vectors.

The generator is SplitMix64 (Steele, Lea and Flood's 64-bit mix, the seeding
generator of the xoshiro family).  It is tiny, fully specified by its two
multiplier constants, and trivially portable, which is what matters here:
test corpora must be reproducible from the seed alone, across machines and
languages.  Statistical quality beyond that is irrelevant.

Draws come in the integer form every matrix is held in (``rand_ints``), so
a random matrix is built from its integers; only ``rand_column`` builds field
scalars, for callers that want them.
"""

from __future__ import annotations

from math import lcm

from .fields import FieldSpec
from .linalg import Mat

__all__ = ["SplitMix64", "rand_ints", "rand_column", "rand_matrix"]

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


def rand_ints(rng: SplitMix64, field: FieldSpec, count: int, height: int = 5) -> tuple:
    """``count`` random scalars as ``(ints, den)``: over Q each a numerator of height
    at most ``height`` and then a positive denominator of at most ``height``, all over
    the lcm of the denominators; over GF(p), residues over 1."""
    if not field.is_rational:
        return [rng.below(field.modulus) for _ in range(count)], 1
    draws = [(rng.randint(-height, height), rng.randint(1, height)) for _ in range(count)]
    den = lcm(*(q for _, q in draws))
    return [n * (den // q) for n, q in draws], den


def rand_column(rng: SplitMix64, field: FieldSpec, d: int, height: int = 5) -> tuple:
    """``d`` random scalars, drawn as ``rand_ints`` draws them."""
    ints, den = rand_ints(rng, field, d, height)
    return field.from_ints([ints], den)[0]


def rand_matrix(rng: SplitMix64, field: FieldSpec, d: int, height: int = 5) -> Mat:
    """A random d x d matrix, its entries drawn row by row."""
    ints, den = rand_ints(rng, field, d * d, height)
    return Mat.from_ints(field, d, d, [ints[i * d:(i + 1) * d] for i in range(d)], den)
