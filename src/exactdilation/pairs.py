"""Deterministic generation of commuting matrix pairs, and the commutation test.

Every recipe kind produces pairs that commute by construction; the
generator checks this before returning.  A recipe validates itself when it
is made, so ``gen_pair`` only ever sees valid ones.  Same recipe and seed
give bit-identical output.
"""

from __future__ import annotations

from typing import Sequence

from ._record import Record
from .fields import FieldSpec
from .linalg import Mat, Singular, _require_shape, inverse, zeros
from .rng import SplitMix64, rand_ints, rand_matrix

__all__ = ["PairRecipe", "InvalidRecipe", "RECIPE_KINDS", "gen_pair", "check_commute",
           "matrix_polynomial"]

RECIPE_KINDS = ("polynomial", "upper_triangular", "diagonal", "idempotent")


class InvalidRecipe(ValueError):
    """Recipe fails validation (unknown kind, a field that is not a ``FieldSpec``, a number
    that is not an int or out of range)."""


def _is_int(x) -> bool:
    # JSON true/false load as bool, which Python counts as int
    return isinstance(x, int) and not isinstance(x, bool)


class PairRecipe(Record):
    """How to produce one commuting pair (T, S) of d x d matrices.

    Kinds: ``polynomial`` draws a random d x d matrix A and two polynomials of
    degree <= ``degree`` with coefficients of height <= ``height`` and returns
    (p(A), q(A)); ``upper_triangular`` does the same with an upper-triangular
    A, so the pair is triangular; ``diagonal`` draws two diagonal matrices;
    ``idempotent`` conjugates two random 0/1 diagonals by one random invertible
    matrix.
    """

    kind: str
    dim: int
    field: FieldSpec
    seed: int = 0
    degree: int = 3
    height: int = 5

    def _check(self):
        if self.kind not in RECIPE_KINDS:
            raise InvalidRecipe(f"recipe kind must be one of {sorted(RECIPE_KINDS)}, "
                                f"got {self.kind!r}")
        if not isinstance(self.field, FieldSpec):
            raise InvalidRecipe(f"recipe field must be a FieldSpec, got {self.field!r}")
        for key in ("dim", "seed", "degree", "height"):
            if not _is_int(getattr(self, key)):
                raise InvalidRecipe(f"recipe '{key}' must be an integer")
        if self.dim < 0:
            raise InvalidRecipe("recipe 'dim' must be a nonnegative integer")
        if self.degree < 0 or self.height < 1:
            raise InvalidRecipe("degree must be >= 0 and height >= 1")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "seed": self.seed,
                "degree": self.degree, "height": self.height}


def matrix_polynomial(a: Mat, coeffs: Sequence) -> Mat:
    """Evaluate sum(coeffs[k] * a^k) by Horner's rule; coeffs[0] is constant.  The
    coefficients are read into integer form once."""
    (ints,), den = a.field.to_ints([[a.field.coerce(c) for c in coeffs]])
    return _int_polynomial(a, ints, den)


def _int_polynomial(a: Mat, ints: Sequence[int], den: int) -> Mat:
    """Evaluate sum(ints[k] / den * a^k) by Horner's rule; ints[0] is constant."""
    field, n = a.field, a.rows
    acc = zeros(field, n, n)
    for c in reversed(ints):
        acc = acc @ a
        if c:
            acc = acc + _diagonal(field, [c] * n, den)
    return acc


def _diagonal(field: FieldSpec, diag: Sequence[int], den: int = 1) -> Mat:
    """The square matrix with the integers ``diag`` over ``den`` on its diagonal."""
    n = len(diag)
    return Mat.from_ints(field, n, n, [[x if i == j else 0 for j in range(n)]
                                       for i, x in enumerate(diag)], den)


def _rand_upper_triangular(rng: SplitMix64, field: FieldSpec, d: int, height: int) -> Mat:
    """A random upper-triangular matrix, its d(d+1)/2 entries drawn row by row."""
    ints, den = rand_ints(rng, field, d * (d + 1) // 2, height)
    draws = iter(ints)
    return Mat.from_ints(field, d, d, [[next(draws) if j >= i else 0 for j in range(d)]
                                       for i in range(d)], den)


def _rand_invertible(rng: SplitMix64, field: FieldSpec, d: int, height: int) -> tuple:
    """A random invertible matrix and its inverse; a singular draw is drawn again."""
    for _ in range(1000):
        m = rand_matrix(rng, field, d, height)
        try:
            return m, inverse(m)
        except Singular:
            pass
    raise InvalidRecipe("could not draw an invertible matrix")


def gen_pair(recipe: PairRecipe) -> tuple[Mat, Mat]:
    """Produce (T, S) from the recipe; reproducible from the seed alone."""
    field, d, height = recipe.field, recipe.dim, recipe.height
    rng = SplitMix64(recipe.seed)
    if recipe.kind in ("polynomial", "upper_triangular"):
        draw = rand_matrix if recipe.kind == "polynomial" else _rand_upper_triangular
        a = draw(rng, field, d, height)
        t, s = (_int_polynomial(a, *rand_ints(rng, field, recipe.degree + 1, height))
                for _ in range(2))
    elif recipe.kind == "diagonal":
        t, s = (_diagonal(field, *rand_ints(rng, field, d, height)) for _ in range(2))
    else:  # idempotent: two random 0/1 diagonals, conjugated by one invertible matrix
        m, m_inv = _rand_invertible(rng, field, d, height)
        t, s = (m @ _diagonal(field, [rng.below(2) for _ in range(d)]) @ m_inv
                for _ in range(2))
    if not check_commute(t, s):  # a raise, not an assert, so that it survives python -O
        raise AssertionError("generated pair fails to commute")
    return t, s


def _require_square_pair(t: Mat, s: Mat):
    _require_shape("T", t, t.field, t.rows)
    _require_shape("S", s, t.field, t.rows)


def check_commute(t: Mat, s: Mat) -> bool:
    """Exact test T S == S T."""
    _require_square_pair(t, s)
    return t @ s == s @ t
