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
from .linalg import Mat, _require_shape, is_invertible, inverse, zeros
from .rng import SplitMix64, rand_matrix, rand_scalar

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
    """Evaluate sum(coeffs[k] * a^k) by Horner's rule; coeffs[0] is constant."""
    field, n = a.field, a.rows
    acc = zeros(field, n, n)
    for c in reversed([field.coerce(c) for c in coeffs]):
        acc = acc @ a
        if c != 0:
            acc = acc + _diagonal(field, [c] * n)
    return acc


def _diagonal(field: FieldSpec, diag: Sequence) -> Mat:
    """The square matrix with the scalars ``diag`` on its diagonal."""
    zero, n = field.zero(), len(diag)
    return Mat(field, n, n, tuple(tuple(x if i == j else zero for j in range(n))
                                  for i, x in enumerate(diag)))


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


def gen_pair(recipe: PairRecipe) -> tuple[Mat, Mat]:
    """Produce (T, S) from the recipe; reproducible from the seed alone."""
    field, d = recipe.field, recipe.dim
    rng = SplitMix64(recipe.seed)
    if recipe.kind in ("polynomial", "upper_triangular"):
        draw = rand_matrix if recipe.kind == "polynomial" else _rand_upper_triangular
        a = draw(rng, field, d, recipe.height)
        t = matrix_polynomial(a, _rand_poly(rng, field, recipe.degree, recipe.height))
        s = matrix_polynomial(a, _rand_poly(rng, field, recipe.degree, recipe.height))
    elif recipe.kind == "diagonal":
        def diag():
            return _diagonal(field, [rand_scalar(rng, field, recipe.height) for _ in range(d)])
        t, s = diag(), diag()
    else:  # idempotent
        m = _rand_invertible(rng, field, d, recipe.height)
        m_inv = inverse(m)
        def projection():  # conjugate of a random 0/1 diagonal
            return m @ _diagonal(field, [field.from_int(rng.below(2)) for _ in range(d)]) @ m_inv
        t, s = projection(), projection()
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
