"""Dense exact matrices and the elimination kernel.

Everything here is a pure function on immutable ``Mat`` values.  Kernels
compute on Python ints: a matrix enters as integer numerators over one
common denominator (``Mat.ints``) and a result leaves through
``FieldSpec.from_ints`` once per call.  One fraction-free elimination kernel,
``_echelon_insert``, serves rank, column ranks, basis completion, reduced row
echelon form, kernels and inverses.  Degenerate shapes (0 x n, n x 0) are
legal with the obvious conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from math import gcd
from typing import Iterable, Optional, Sequence

from .fields import FieldSpec

__all__ = [
    "Mat",
    "DimensionMismatch",
    "NotSquare",
    "Singular",
    "NotIndependent",
    "mat",
    "identity",
    "zeros",
    "from_cols",
    "hstack",
    "vstack",
    "matvec",
    "int_product",
    "rref",
    "rank",
    "column_ranks",
    "kernel_basis",
    "complete_basis",
    "is_invertible",
    "inverse",
]


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes or live in different fields."""


class NotSquare(ValueError):
    """A square matrix was required."""


class Singular(ArithmeticError):
    """Inverse requested of a non-invertible matrix."""


class NotIndependent(ValueError):
    """Columns expected to be linearly independent are not."""


@dataclass(frozen=True)
class Mat:
    """Dense row-major matrix over an exact field."""

    field: FieldSpec
    rows: int
    cols: int
    entries: tuple  # tuple of row tuples

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise ValueError("entry grid does not match declared shape")

    @classmethod
    def from_ints(cls, field: FieldSpec, rows: int, cols: int, ints, den: int = 1) -> "Mat":
        """The matrix ``ints / den``, with that integer form kept as its ``ints``."""
        m = cls(field, rows, cols, field.from_ints(ints, den))
        m.__dict__["ints"] = (ints, den)
        return m

    # -- access ---------------------------------------------------------------

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def leading(self, rows: int, cols: int) -> "Mat":
        """The top-left ``rows x cols`` block; its integer form is sliced, not rebuilt."""
        if (rows, cols) == (self.rows, self.cols):
            return self
        if rows > self.rows or cols > self.cols:
            raise DimensionMismatch(
                f"no {rows}x{cols} leading block in a {self.rows}x{self.cols} matrix")
        m = Mat(self.field, rows, cols, tuple(r[:cols] for r in self.entries[:rows]))
        ints, den = self.ints
        m.__dict__["ints"] = (tuple(r[:cols] for r in ints[:rows]), den)
        return m

    @cached_property
    def ints(self) -> tuple:
        """``(int rows, den)`` with ``entries == int rows / den``; see ``FieldSpec.to_ints``."""
        return self.field.to_ints(self.entries)

    @cached_property
    def _col_terms(self) -> list:
        """For each column, the ``(row, int)`` pairs of its nonzero entries in ``ints``."""
        cols = [[] for _ in range(self.cols)]
        index = range(self.cols)
        for i, row in enumerate(self.ints[0]):
            for k in compress(index, row):
                cols[k].append((i, row[k]))
        return cols

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        return self._plus(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._plus(other, -1)

    def _plus(self, other: "Mat", sign: int) -> "Mat":
        """``self + sign * other``, computed on the integer forms."""
        if self.field != other.field:
            raise DimensionMismatch("matrices over different fields")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        (a, aden), (b, bden) = self.ints, other.ints
        sums = [[x * bden + sign * y * aden for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        return Mat(self.field, self.rows, self.cols, self.field.from_ints(sums, aden * bden))

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.field != other.field:
            raise DimensionMismatch("matrices over different fields")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        b, bden = other.ints
        return Mat(self.field, self.rows, other.cols,
                   self.field.from_ints(int_product(self, b, other.cols), self.ints[1] * bden))


# -- construction ---------------------------------------------------------------


def mat(field: FieldSpec, rows: Iterable[Iterable]) -> Mat:
    """Build a Mat, coercing ints and scalar strings entry by entry."""
    grid = tuple(tuple(field.coerce(x) for x in r) for r in rows)
    nrows = len(grid)
    ncols = len(grid[0]) if grid else 0
    if any(len(r) != ncols for r in grid):
        raise ValueError("ragged rows")
    return Mat(field, nrows, ncols, grid)


def identity(field: FieldSpec, n: int) -> Mat:
    one, zero = field.one(), field.zero()
    rows = tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))
    return Mat(field, n, n, rows)


def zeros(field: FieldSpec, nrows: int, ncols: int) -> Mat:
    zero = field.zero()
    return Mat(field, nrows, ncols, tuple(tuple(zero for _ in range(ncols)) for _ in range(nrows)))


def from_cols(field: FieldSpec, height: int, cols: Sequence[Sequence]) -> Mat:
    cols = [tuple(c) for c in cols]
    if any(len(c) != height for c in cols):
        raise DimensionMismatch("column height mismatch")
    rows = tuple(tuple(c[i] for c in cols) for i in range(height))
    return Mat(field, height, len(cols), rows)


def hstack(a: Mat, b: Mat) -> Mat:
    if a.field != b.field or a.rows != b.rows:
        raise DimensionMismatch("hstack needs equal row counts over one field")
    return Mat(a.field, a.rows, a.cols + b.cols,
               tuple(ra + rb for ra, rb in zip(a.entries, b.entries)))


def vstack(*mats: Mat) -> Mat:
    first = mats[0]
    if any(m.field != first.field or m.cols != first.cols for m in mats):
        raise DimensionMismatch("vstack needs equal column counts over one field")
    rows = tuple(r for m in mats for r in m.entries)
    return Mat(first.field, len(rows), first.cols, rows)


# -- vector ops --------------------------------------------------------------------


def int_product(a: Mat, b: Sequence[Sequence[int]], width: int) -> list:
    """The integer grid ``a.ints[0] @ b``, for ``b`` with ``a.cols`` rows of ``width`` ints.

    The one product loop: ``@``, ``matvec`` and the lazy operators all run on
    it.  It accumulates ``C[i][j] += A[i][k] * B[k][j]``
    and skips zero entries of both sides, which pays off on the
    near-permutation truncated operators.
    """
    acc = [[0] * width for _ in range(a.rows)]
    index = range(width)
    for colk, brow in zip(a._col_terms, b):
        if not colk:
            continue
        for j in compress(index, brow):
            y = brow[j]
            for i, x in colk:
                acc[i][j] += x * y
    return acc


def matvec(m: Mat, x: Sequence) -> tuple:
    if len(x) != m.cols:
        raise DimensionMismatch(f"matvec: {m.rows}x{m.cols} applied to length {len(x)}")
    (xi,), xden = m.field.to_ints((x,))
    y = int_product(m, [[xj] for xj in xi], 1)
    (out,) = m.field.from_ints(([yi for yi, in y],), m.ints[1] * xden)
    return out


# -- elimination kernel ---------------------------------------------------------------


def _cancel(row: dict, piv: dict, c: int, field: FieldSpec) -> dict:
    """``a*row - f*piv``, reduced by the field, with ``a = piv[c]`` and ``f = row[c]``
    over their gcd, so column ``c`` cancels.  ``row`` may be consumed."""
    a, f = piv[c], row[c]
    if f % a:
        g = gcd(a, f)
        a, f = a // g, f // g
        row = {j: a * x for j, x in row.items()}
    else:
        f //= a
    for j, x in piv.items():
        nx = row.get(j, 0) - f * x
        if nx:
            row[j] = nx
        else:
            del row[j]
    return field.reduce_row(row)


def _echelon_insert(pivot_rows: dict, row: dict, field: FieldSpec) -> Optional[int]:
    """Reduce a sparse integer row against an echelon set; insert and return its lead, or None.

    Rows are dicts col -> nonzero int; ``pivot_rows`` maps each leading column
    to its row.  Only the line through a row matters, so the rows of a matrix
    may come over any common denominator.  ``row`` is consumed.
    """
    while row:
        lead = min(row)
        piv = pivot_rows.get(lead)
        if piv is None:
            pivot_rows[lead] = row
            return lead
        row = _cancel(row, piv, lead, field)
    return None


def _row_echelon(m: Mat) -> dict:
    """Echelon set of the rows of ``m``: leading column -> sparse integer row."""
    pivot_rows: dict = {}
    for raw in m.ints[0]:
        _echelon_insert(pivot_rows, {j: x for j, x in enumerate(raw) if x}, m.field)
    return pivot_rows


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns (strictly increasing).

    The echelon set of the rows is back-substituted bottom up with the same
    cancellation step, then each row is divided by its lead, once.
    """
    field = m.field
    pivot_rows = _row_echelon(m)
    pivots = sorted(pivot_rows)
    for i in range(len(pivots) - 2, -1, -1):
        row = pivot_rows[pivots[i]]
        for c in pivots[i + 1:]:
            if c in row:
                row = _cancel(row, pivot_rows[c], c, field)
        pivot_rows[pivots[i]] = row
    rows = []
    for c in pivots:
        dense = [0] * m.cols
        for j, x in pivot_rows[c].items():
            dense[j] = x
        rows.extend(field.from_ints((dense,), dense[c]))
    rows.extend([(field.zero(),) * m.cols] * (m.rows - len(pivots)))
    return Mat(field, m.rows, m.cols, tuple(rows)), tuple(pivots)


def rank(m: Mat) -> int:
    """Rank of ``m`` (the pivot count of its reduced row echelon form)."""
    return len(_row_echelon(m))


def column_ranks(m: Mat, widths: Iterable[int]) -> list:
    """Rank of the leading ``w`` columns of ``m`` for each ``w`` in ``widths``.

    ``widths`` must be nondecreasing; one elimination inserts the columns in
    order and reads the rank off at each width.
    """
    pivot_rows: dict = {}
    done = 0
    out = []
    for w in widths:
        if not done <= w <= m.cols:
            raise ValueError(f"widths must be nondecreasing and at most {m.cols}")
        for terms in m._col_terms[done:w]:
            _echelon_insert(pivot_rows, dict(terms), m.field)
        done = w
        out.append(len(pivot_rows))
    return out


def kernel_basis(m: Mat) -> Mat:
    """Columns spanning ker(m); count is always cols(m) - rank(m)."""
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    zero, one = m.field.zero(), m.field.one()
    neg = m.field.neg
    cols = []
    for fc in range(m.cols):
        if fc in pivot_set:
            continue
        vec = [zero] * m.cols
        vec[fc] = one
        for r_idx, pc in enumerate(pivots):
            vec[pc] = neg(reduced.entries[r_idx][fc])
        cols.append(tuple(vec))
    return from_cols(m.field, m.cols, cols)


def complete_basis(basis_cols: Mat, ambient_dim: int, scan: str = "forward") -> Mat:
    """Greedy pivot completion of independent columns to a basis of F^ambient_dim.

    Scans standard basis vectors in index order (``scan="forward"``) or in
    reversed index order (``scan="reverse"``) and keeps each one that enlarges
    the span.  Deterministic given the inputs and the scan direction.
    """
    if scan not in ("forward", "reverse"):
        raise ValueError(f"unknown scan order {scan!r}")
    if basis_cols.rows != ambient_dim:
        raise DimensionMismatch(
            f"columns of height {basis_cols.rows} cannot complete F^{ambient_dim}"
        )
    field = basis_cols.field
    pivot_rows: dict = {}
    for j, terms in enumerate(basis_cols._col_terms):
        if _echelon_insert(pivot_rows, dict(terms), field) is None:
            raise NotIndependent(f"input column {j} depends on the previous ones")
    order = range(ambient_dim) if scan == "forward" else range(ambient_dim - 1, -1, -1)
    kept = []
    for i in order:
        if len(pivot_rows) == ambient_dim:
            break
        if _echelon_insert(pivot_rows, {i: 1}, field) is not None:
            kept.append(i)
    ident = identity(field, ambient_dim)
    return from_cols(field, ambient_dim, [ident.col(i) for i in kept])


def is_invertible(m: Mat) -> bool:
    if not m.is_square():
        raise NotSquare(f"{m.rows}x{m.cols} matrix cannot be inverted")
    return rank(m) == m.rows


def inverse(m: Mat) -> Mat:
    """Exact inverse; raises Singular when none exists."""
    if not m.is_square():
        raise NotSquare(f"{m.rows}x{m.cols} matrix cannot be inverted")
    n = m.rows
    reduced, pivots = rref(hstack(m, identity(m.field, n)))
    if tuple(c for c in pivots if c < n) != tuple(range(n)):
        raise Singular("matrix is not invertible")
    rows = tuple(r[n:] for r in reduced.entries[:n])
    return Mat(m.field, n, n, rows)
