"""Deterministic generation of commuting matrix pairs, and the commutation test.

All recipe kinds except ``explicit`` produce pairs that commute by
construction; the generator checks this before returning.  Same recipe and
seed give bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .fields import FieldSpec
from .linalg import DimensionMismatch, Mat, is_invertible, inverse, zeros
from .rng import SplitMix64, rand_matrix, rand_scalar

__all__ = ["PairRecipe", "InvalidRecipe", "RECIPE_KINDS", "gen_pair", "check_commute",
           "matrix_polynomial"]

RECIPE_KINDS = ("polynomial", "upper_triangular", "diagonal", "idempotent", "explicit")


class InvalidRecipe(ValueError):
    """Recipe fails validation (unknown kind, bad dimension, missing matrices)."""


@dataclass(frozen=True)
class PairRecipe:
    """How to produce one commuting pair (T, S) of d x d matrices.

    Kinds: ``polynomial`` draws a random d x d matrix A and two polynomials of
    degree <= ``degree`` with coefficients of height <= ``height`` and returns
    (p(A), q(A)); ``upper_triangular`` does the same with an upper-triangular
    A, so the pair is triangular; ``diagonal`` draws two diagonal matrices;
    ``idempotent`` conjugates two random 0/1 diagonals by one random invertible
    matrix; ``explicit`` passes the supplied matrices through unchecked.
    """

    kind: str
    dim: int
    field: FieldSpec
    seed: int = 0
    degree: int = 3
    height: int = 5
    explicit: Optional[tuple] = None  # (T, S), kind "explicit" only

    def validate(self):
        if self.kind not in RECIPE_KINDS:
            raise InvalidRecipe(f"unknown recipe kind {self.kind!r}")
        if self.dim < 0:
            raise InvalidRecipe("negative dimension")
        if self.degree < 0 or self.height < 1:
            raise InvalidRecipe("degree must be >= 0 and height >= 1")
        if self.kind == "explicit":
            if self.explicit is None or len(self.explicit) != 2:
                raise InvalidRecipe("explicit recipe needs a (T, S) pair")
        elif self.explicit is not None:
            raise InvalidRecipe(f"{self.kind} recipe does not take explicit matrices")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "seed": self.seed,
                "degree": self.degree, "height": self.height}


def matrix_polynomial(a: Mat, coeffs: Sequence) -> Mat:
    """Evaluate sum(coeffs[k] * a^k) by Horner's rule; coeffs[0] is constant."""
    field, n = a.field, a.rows
    zero = field.zero()
    acc = zeros(field, n, n)
    for c in reversed([field.coerce(c) for c in coeffs]):
        acc = acc @ a
        if c != 0:
            acc = acc + Mat(field, n, n, tuple(tuple(c if i == j else zero for j in range(n))
                                                for i in range(n)))
    return acc


def _rand_poly(rng: SplitMix64, field: FieldSpec, degree: int, height: int) -> list:
    return [rand_scalar(rng, field, height) for _ in range(degree + 1)]


def _rand_upper_triangular(rng: SplitMix64, field: FieldSpec, d: int, height: int) -> Mat:
    zero = field.zero()
    rows = tuple(
        tuple(rand_scalar(rng, field, height) if j >= i else zero for j in range(d))
        for i in range(d)
    )
    return Mat(field, d, d, rows)


def _rand_invertible(rng: SplitMix64, field: FieldSpec, d: int, height: int) -> Mat:
    for _ in range(1000):
        m = rand_matrix(rng, field, d, height)
        if is_invertible(m):
            return m
    raise InvalidRecipe("could not draw an invertible matrix")  # pragma: no cover


def _rand_01_diagonal(rng: SplitMix64, field: FieldSpec, d: int) -> Mat:
    one, zero = field.one(), field.zero()
    rows = tuple(
        tuple((one if rng.below(2) else zero) if i == j else zero for j in range(d))
        for i in range(d)
    )
    return Mat(field, d, d, rows)


def gen_pair(recipe: PairRecipe) -> tuple[Mat, Mat]:
    """Produce (T, S) from the recipe; reproducible from the seed alone."""
    recipe.validate()
    field, d = recipe.field, recipe.dim
    rng = SplitMix64(recipe.seed)
    if recipe.kind == "explicit":
        t, s = recipe.explicit
        if not (t.is_square() and s.is_square() and t.rows == s.rows == d
                and t.field == s.field == field):
            raise InvalidRecipe("explicit matrices do not match the declared shape or field")
        return t, s
    if recipe.kind == "polynomial":
        a = rand_matrix(rng, field, d, recipe.height)
        t = matrix_polynomial(a, _rand_poly(rng, field, recipe.degree, recipe.height))
        s = matrix_polynomial(a, _rand_poly(rng, field, recipe.degree, recipe.height))
    elif recipe.kind == "upper_triangular":
        a = _rand_upper_triangular(rng, field, d, recipe.height)
        t = matrix_polynomial(a, _rand_poly(rng, field, recipe.degree, recipe.height))
        s = matrix_polynomial(a, _rand_poly(rng, field, recipe.degree, recipe.height))
    elif recipe.kind == "diagonal":
        zero = field.zero()
        def diag():
            return Mat(field, d, d, tuple(
                tuple(rand_scalar(rng, field, recipe.height) if i == j else zero
                      for j in range(d))
                for i in range(d)))
        t, s = diag(), diag()
    else:  # idempotent
        m = _rand_invertible(rng, field, d, recipe.height)
        m_inv = inverse(m)
        t = m @ _rand_01_diagonal(rng, field, d) @ m_inv
        s = m @ _rand_01_diagonal(rng, field, d) @ m_inv
    if not check_commute(t, s):  # a raise, not an assert, so that it survives python -O
        raise AssertionError("generated pair fails to commute")
    return t, s


def check_commute(t: Mat, s: Mat) -> bool:
    """Exact test T S == S T."""
    if t.field != s.field:
        raise DimensionMismatch("matrices over different fields")
    if not (t.is_square() and s.is_square() and t.rows == s.rows):
        raise DimensionMismatch(
            f"commutation needs equal square shapes, got {t.rows}x{t.cols} and {s.rows}x{s.cols}"
        )
    return t @ s == s @ t
