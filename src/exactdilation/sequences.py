"""Finite-support sequences of vectors: elements of the direct sum of countably
many copies of F^d.

An ``FsVec`` stores only its nonzero coordinate blocks, sorted by index, so
structural equality is semantic equality.  Coordinate 0 is the distinguished
copy of F^d used by ``embed`` and ``project``.

A ``Batch`` holds ``width`` such sequences side by side in integer form, the
shape the lazy operators act on: the field is met only when a batch is made
from ``FsVec`` values or read back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Mapping, Sequence

from .fields import FieldSpec
from .linalg import DimensionMismatch

__all__ = ["FsVec", "Batch", "fsvec", "zero_fsvec", "embed", "project", "block", "to_coords",
           "from_coords"]


@dataclass(frozen=True)
class FsVec:
    """Finitely many nonzero blocks of an infinite sequence (x_0, x_1, ...)."""

    field: FieldSpec
    dim: int
    blocks: tuple  # ((index, column tuple), ...) strictly increasing, columns nonzero

    def __post_init__(self):
        last = -1
        for n, col in self.blocks:
            if n <= last:
                raise ValueError("block indices must be strictly increasing")
            if n < 0:
                raise ValueError("negative coordinate index")
            if len(col) != self.dim:
                raise ValueError(f"block at {n} has height {len(col)}, expected {self.dim}")
            if all(x == 0 for x in col):
                raise ValueError(f"zero block stored at coordinate {n}")
            last = n

    def max_support(self) -> int:
        """Largest coordinate carrying a nonzero block; -1 when zero."""
        return self.blocks[-1][0] if self.blocks else -1

    def is_zero(self) -> bool:
        return not self.blocks


class Batch:
    """``width`` finite-support sequences as columns, in integer form.

    ``blocks`` maps each coordinate where some column is nonzero, in
    increasing order, to ``dim`` rows of ``width`` ints; the sequences are
    those ints over ``den`` (over GF(p), residues over 1).  A batch of width 1
    is one ``FsVec``.  Batches are never modified once made.  (A plain class:
    a dataclass would cost a millisecond of every import.)
    """

    __slots__ = ("field", "dim", "width", "blocks", "den")

    def __init__(self, field: FieldSpec, dim: int, width: int, blocks: dict, den: int = 1):
        self.field, self.dim, self.width, self.blocks, self.den = field, dim, width, blocks, den

    @classmethod
    def reduced(cls, field: FieldSpec, dim: int, width: int, blocks: dict, den: int,
                written: Iterable[int]) -> "Batch":
        """The batch of ``blocks`` (a new dict, taken over) over ``den`` in lowest terms,
        zero coordinates dropped.

        Only the coordinates in ``written`` may hold new values.  Over Q every
        coordinate takes part in the common gcd; over GF(p), where every batch
        and matrix is over 1, the others hold residues already and are kept.
        """
        redo = list(blocks) if field.is_rational else [n for n in written if n in blocks]
        flat, den = field.reduce_ints([row for n in redo for row in blocks[n]], den)
        blocks.update((n, flat[k * dim:(k + 1) * dim]) for k, n in enumerate(redo))
        return cls(field, dim, width,
                   {n: blocks[n] for n in sorted(blocks) if any(map(any, blocks[n]))}, den)

    @classmethod
    def of(cls, field: FieldSpec, dim: int, vecs) -> "Batch":
        """The columns ``vecs``, each an ``FsVec`` over ``field`` with blocks of height ``dim``."""
        vecs = list(vecs)
        for w in vecs:
            if w.field != field or w.dim != dim:
                raise DimensionMismatch(
                    f"sequence over {w.field.label()}^{w.dim} in a batch over "
                    f"{field.label()}^{dim}")
        coords = sorted({n for w in vecs for n, _ in w.blocks})
        at = {n: k * dim for k, n in enumerate(coords)}
        zero = field.zero()
        grid = [[zero] * len(vecs) for _ in range(dim * len(coords))]
        for c, w in enumerate(vecs):
            for n, col in w.blocks:
                for i, x in enumerate(col, at[n]):
                    grid[i][c] = x
        ints, den = field.to_ints(grid)
        return cls(field, dim, len(vecs),
                   {n: ints[k * dim:(k + 1) * dim] for k, n in enumerate(coords)}, den)

    @classmethod
    def basis(cls, field: FieldSpec, dim: int, coords: Sequence[int]) -> "Batch":
        """The standard basis vectors at increasing ``coords``: column ``k*dim + i``
        is e_i at ``coords[k]``."""
        width = dim * len(coords)
        blocks = {}
        for k, n in enumerate(coords):
            rows = [[0] * width for _ in range(dim)]
            for i, row in enumerate(rows):
                row[k * dim + i] = 1
            if rows:
                blocks[n] = rows
        return cls(field, dim, width, blocks)

    def head(self) -> tuple:
        """Coordinate 0 of every column: ``dim`` rows of ``width`` scalars."""
        rows = self.blocks.get(0, [[0] * self.width] * self.dim)
        return self.field.from_ints(rows, self.den)

    def supports(self) -> list:
        """Largest coordinate carrying a nonzero entry, per column; -1 for a zero column."""
        top = [-1] * self.width
        index = range(self.width)
        for n, rows in self.blocks.items():
            for row in rows:
                for c in compress(index, row):
                    top[c] = n
        return top

    def columns(self) -> list:
        """The columns as ``FsVec`` values."""
        coords = list(self.blocks)
        d = self.dim
        vals = self.field.from_ints([row for rows in self.blocks.values() for row in rows],
                                    self.den)
        out = []
        for c in range(self.width):
            blocks = []
            for k, n in enumerate(coords):
                col = tuple(row[c] for row in vals[k * d:(k + 1) * d])
                if any(col):
                    blocks.append((n, col))
            out.append(FsVec(self.field, d, tuple(blocks)))
        return out


def fsvec(field: FieldSpec, dim: int, items: Mapping[int, Iterable] | Iterable) -> FsVec:
    """Convenience constructor: coerces entries, drops zero blocks, sorts."""
    pairs = items.items() if isinstance(items, Mapping) else items
    blocks = []
    for n, col in pairs:
        col = tuple(field.coerce(x) for x in col)
        if len(col) != dim:
            raise DimensionMismatch(f"block at {n} has height {len(col)}, expected {dim}")
        if any(x != 0 for x in col):
            blocks.append((n, col))
    blocks.sort(key=lambda item: item[0])
    return FsVec(field, dim, tuple(blocks))


def zero_fsvec(field: FieldSpec, dim: int) -> FsVec:
    return FsVec(field, dim, ())


def embed(field: FieldSpec, x: Iterable) -> FsVec:
    """Place x in coordinate 0, nothing elsewhere."""
    col = tuple(field.coerce(v) for v in x)
    if any(v != 0 for v in col):
        return FsVec(field, len(col), ((0, col),))
    return FsVec(field, len(col), ())


def project(w: FsVec) -> tuple:
    """Read coordinate 0 back into F^d."""
    return block(w, 0)


def block(w: FsVec, n: int) -> tuple:
    for idx, col in w.blocks:
        if idx == n:
            return col
        if idx > n:
            break
    return tuple(w.field.zero() for _ in range(w.dim))


def to_coords(w: FsVec, n_coords: int) -> tuple:
    """Flatten coordinates 0..n_coords-1 into one column of height dim*n_coords."""
    if w.blocks and w.blocks[-1][0] >= n_coords:
        raise ValueError(
            f"support reaches coordinate {w.blocks[-1][0]}, beyond the first {n_coords}"
        )
    out = [w.field.zero()] * (w.dim * n_coords)
    for n, col in w.blocks:
        out[n * w.dim:(n + 1) * w.dim] = col
    return tuple(out)


def from_coords(field: FieldSpec, dim: int, coords) -> FsVec:
    coords = tuple(coords)
    if dim == 0:
        if coords:
            raise DimensionMismatch("nonempty coordinates with dim 0")
        return zero_fsvec(field, dim)
    if len(coords) % dim != 0:
        raise DimensionMismatch(f"{len(coords)} coordinates do not split into blocks of {dim}")
    return fsvec(field, dim,
                 [(n, coords[n * dim:(n + 1) * dim]) for n in range(len(coords) // dim)])
