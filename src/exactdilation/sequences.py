"""Finite-support sequences of vectors: elements of the direct sum of countably
many copies of F^d.

A ``Batch`` holds ``width`` such sequences side by side, the shape the lazy
operators act on.  It stores only the coordinates where some column is
nonzero, in increasing order, each as the ``dim x width`` ``Mat`` of the
columns there, in canonical integer form; so ``==`` on the blocks is equality
of the sequences.  One sequence is a batch of width 1: ``fsvec``, ``embed``
and ``from_coords`` build one, and ``project``, ``block`` and ``to_coords``
read one back as field scalars.  Coordinate 0 is the distinguished copy of
F^d used by ``embed`` and ``project``.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .fields import FieldSpec
from .linalg import DimensionMismatch, Mat, _unit_cols, from_cols, hstack, zeros

__all__ = ["Batch", "side_by_side", "fsvec", "zero_fsvec", "embed", "project", "block",
           "to_coords", "from_coords"]


class Batch:
    """``width`` finite-support sequences as columns.

    ``blocks`` maps each coordinate where some column is nonzero, in
    increasing order, to a nonzero ``dim x width`` ``Mat``.  The constructor
    takes ``blocks`` as they are; ``Batch.of`` checks, sorts and drops zero
    blocks.  Batches and their blocks are never modified once made, so an
    action may hand a block on unchanged.
    """

    __slots__ = ("field", "dim", "width", "blocks")

    def __init__(self, field: FieldSpec, dim: int, width: int, blocks: dict):
        self.field, self.dim, self.width, self.blocks = field, dim, width, blocks

    @classmethod
    def of(cls, field: FieldSpec, dim: int, width: int, blocks: Mapping[int, Mat]) -> "Batch":
        """The batch of ``blocks`` (coordinate -> ``dim x width`` ``Mat`` over ``field``)."""
        for n, m in blocks.items():
            if n < 0:
                raise ValueError(f"negative coordinate index {n}")
            if m.field != field or (m.rows, m.cols) != (dim, width):
                raise DimensionMismatch(
                    f"{m.rows}x{m.cols} block over {m.field.label()} at coordinate {n} of "
                    f"a batch of {width} sequences over {field.label()}^{dim}")
        return cls(field, dim, width,
                   {n: blocks[n] for n in sorted(blocks) if not blocks[n].is_zero()})

    @classmethod
    def basis(cls, field: FieldSpec, dim: int, coords: Sequence[int]) -> "Batch":
        """The standard basis vectors at increasing ``coords``: column ``k*dim + i``
        is e_i at ``coords[k]``."""
        width = dim * len(coords)
        return cls(field, dim, width,
                   {n: _unit_cols(field, dim, width, zip(range(dim), range(k * dim, width)))
                    for k, n in enumerate(coords) if dim})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Batch):
            return NotImplemented
        return (self.field == other.field and self.dim == other.dim
                and self.width == other.width and self.blocks == other.blocks)

    def __repr__(self) -> str:
        return f"Batch({self.field!r}, {self.dim}, {self.width}, {self.blocks!r})"

    def max_support(self) -> int:
        """Largest coordinate carrying a nonzero entry; -1 when every column is zero."""
        return next(reversed(self.blocks), -1)


def side_by_side(batches: Sequence[Batch]) -> Batch:
    """One batch whose columns are those of ``batches``, in order: at least one
    batch, all over one field and dimension.  Each coordinate's blocks are joined
    by ``hstack`` over the lcm of their denominators, so they stay canonical."""
    field, dim = batches[0].field, batches[0].dim
    if any(b.field != field or b.dim != dim for b in batches):
        raise DimensionMismatch("side_by_side needs batches over one field and dimension")
    zero = [zeros(field, dim, b.width) for b in batches]
    return Batch(field, dim, sum(b.width for b in batches),
                 {n: hstack(*[b.blocks.get(n, z) for b, z in zip(batches, zero)])
                  for n in sorted({n for b in batches for n in b.blocks})})


def fsvec(field: FieldSpec, dim: int, items: Mapping[int, Iterable] | Iterable) -> Batch:
    """One sequence from ``(coordinate, column)`` pairs: coerces entries, drops zero
    blocks, sorts."""
    pairs = items.items() if isinstance(items, Mapping) else items
    blocks = {}
    for n, col in pairs:
        col = tuple(field.coerce(x) for x in col)
        if len(col) != dim:
            raise DimensionMismatch(f"block at {n} has height {len(col)}, expected {dim}")
        if n in blocks:
            raise ValueError(f"coordinate {n} given twice")
        blocks[n] = from_cols(field, dim, [col])
    return Batch.of(field, dim, 1, blocks)


def zero_fsvec(field: FieldSpec, dim: int) -> Batch:
    return Batch(field, dim, 1, {})


def embed(field: FieldSpec, x: Iterable) -> Batch:
    """Place x in coordinate 0, nothing elsewhere."""
    x = tuple(x)
    return fsvec(field, len(x), {0: x})


def _one_sequence(w: Batch):
    if w.width != 1:
        raise DimensionMismatch(f"a batch of {w.width} sequences is not one sequence")


def project(w: Batch) -> tuple:
    """Read coordinate 0 back into F^d."""
    return block(w, 0)


def block(w: Batch, n: int) -> tuple:
    """Coordinate ``n`` of one sequence, as field scalars."""
    _one_sequence(w)
    m = w.blocks.get(n)
    return tuple(w.field.zero() for _ in range(w.dim)) if m is None else m.col(0)


def to_coords(w: Batch, n_coords: int) -> tuple:
    """Flatten coordinates 0..n_coords-1 of one sequence into one column of height
    dim*n_coords."""
    _one_sequence(w)
    if w.max_support() >= n_coords:
        raise ValueError(f"support reaches coordinate {w.max_support()}, beyond the first "
                         f"{n_coords}")
    out = [w.field.zero()] * (w.dim * n_coords)
    for n, m in w.blocks.items():
        out[n * w.dim:(n + 1) * w.dim] = m.col(0)
    return tuple(out)


def from_coords(field: FieldSpec, dim: int, coords) -> Batch:
    coords = tuple(coords)
    if dim == 0:
        if coords:
            raise DimensionMismatch("nonempty coordinates with dim 0")
        return zero_fsvec(field, dim)
    if len(coords) % dim != 0:
        raise DimensionMismatch(f"{len(coords)} coordinates do not split into blocks of {dim}")
    return fsvec(field, dim,
                 [(n, coords[n * dim:(n + 1) * dim]) for n in range(len(coords) // dim)])
