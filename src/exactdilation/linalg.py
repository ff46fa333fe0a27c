"""Dense exact matrices and the elimination kernel.

Everything here is a pure function on immutable ``Mat`` values; all
arithmetic is exact in the matrix's field.  Degenerate shapes (0 x n, n x 0)
are legal with the obvious conventions.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    # -- access ---------------------------------------------------------------

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    # -- arithmetic -------------------------------------------------------------

    def _require_same_shape(self, other: "Mat"):
        if self.field != other.field:
            raise DimensionMismatch("matrices over different fields")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "Mat") -> "Mat":
        self._require_same_shape(other)
        norm = self.field.normalize
        rows = tuple(
            tuple(norm(a + b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        )
        return Mat(self.field, self.rows, self.cols, rows)

    def __sub__(self, other: "Mat") -> "Mat":
        self._require_same_shape(other)
        norm = self.field.normalize
        rows = tuple(
            tuple(norm(a - b) for a, b in zip(ra, rb))
            for ra, rb in zip(self.entries, other.entries)
        )
        return Mat(self.field, self.rows, self.cols, rows)

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.field != other.field:
            raise DimensionMismatch("matrices over different fields")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        p = self.field.modulus
        # accumulate C[i][j] += A[i][k] * B[k][j], skipping zero A-columns /
        # B-entries; pays off on the near-permutation truncated operators
        acc = [[0] * other.cols for _ in range(self.rows)]
        a_cols_nz = [[] for _ in range(self.cols)]
        for i, arow in enumerate(self.entries):
            for k, a in enumerate(arow):
                if a != 0:
                    a_cols_nz[k].append((i, a))
        for k, brow in enumerate(other.entries):
            colk = a_cols_nz[k]
            if not colk:
                continue
            for j, b in enumerate(brow):
                if b == 0:
                    continue
                for i, a in colk:
                    acc[i][j] += a * b
        if p is None:
            rows = tuple(tuple(r) for r in acc)
        else:
            rows = tuple(tuple(x % p for x in r) for r in acc)
        return Mat(self.field, self.rows, other.cols, rows)


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


def matvec(m: Mat, x: Sequence) -> tuple:
    if len(x) != m.cols:
        raise DimensionMismatch(f"matvec: {m.rows}x{m.cols} applied to length {len(x)}")
    p = m.field.modulus
    nz = [(j, xj) for j, xj in enumerate(x) if xj != 0]
    out = []
    for row in m.entries:
        s = 0
        for j, xj in nz:
            a = row[j]
            if a != 0:
                s += a * xj
        out.append(s if p is None else s % p)
    return tuple(out)


# -- elimination kernel ---------------------------------------------------------------


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns (strictly increasing)."""
    p = m.field.modulus
    rows = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        pv = prow[c]
        if pv != 1:
            inv = m.field.inv(pv)
            if p is None:
                for j in range(c, ncols):
                    prow[j] = prow[j] * inv
            else:
                for j in range(c, ncols):
                    prow[j] = (prow[j] * inv) % p
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f == 0:
                continue
            rowi = rows[i]
            if p is None:
                for j in range(c, ncols):
                    rowi[j] = rowi[j] - f * prow[j]
            else:
                for j in range(c, ncols):
                    rowi[j] = (rowi[j] - f * prow[j]) % p
        pivots.append(c)
        r += 1
    return Mat(m.field, nrows, ncols, tuple(tuple(row) for row in rows)), tuple(pivots)


def _echelon_insert(pivot_rows: dict, row: dict, field: FieldSpec) -> Optional[int]:
    """Reduce a sparse row against an echelon set; insert and return its lead, or None.

    ``pivot_rows`` maps leading column -> sparse row (dict col -> scalar) whose
    leading coefficient is one.
    """
    p = field.modulus
    while row:
        lead = min(row)
        piv = pivot_rows.get(lead)
        if piv is None:
            inv = field.inv(row[lead])
            if p is None:
                row = {j: v * inv for j, v in row.items()}
            else:
                row = {j: (v * inv) % p for j, v in row.items()}
            pivot_rows[lead] = row
            return lead
        f = row[lead]
        if p is None:
            for j, v in piv.items():
                nv = row.get(j, 0) - f * v
                if nv == 0:
                    row.pop(j, None)
                else:
                    row[j] = nv
        else:
            for j, v in piv.items():
                nv = (row.get(j, 0) - f * v) % p
                if nv == 0:
                    row.pop(j, None)
                else:
                    row[j] = nv
    return None


def rank(m: Mat) -> int:
    """Rank of ``m`` (the pivot count of its reduced row echelon form)."""
    pivot_rows: dict = {}
    for raw in m.entries:
        row = {j: v for j, v in enumerate(raw) if v != 0}
        if row:
            _echelon_insert(pivot_rows, row, m.field)
    return len(pivot_rows)


def column_ranks(m: Mat, widths: Iterable[int]) -> list:
    """Rank of the leading ``w`` columns of ``m`` for each ``w`` in ``widths``.

    ``widths`` must be nondecreasing; one elimination inserts the columns in
    order and reads the rank off at each width.
    """
    cols = [{} for _ in range(m.cols)]
    for i, raw in enumerate(m.entries):
        for j, v in enumerate(raw):
            if v != 0:
                cols[j][i] = v
    pivot_rows: dict = {}
    done = 0
    out = []
    for w in widths:
        if not done <= w <= m.cols:
            raise ValueError(f"widths must be nondecreasing and at most {m.cols}")
        for col in cols[done:w]:
            if col:
                _echelon_insert(pivot_rows, col, m.field)
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
    for j in range(basis_cols.cols):
        row = {i: v for i, v in enumerate(basis_cols.col(j)) if v != 0}
        if not row or _echelon_insert(pivot_rows, row, field) is None:
            raise NotIndependent(f"input column {j} depends on the previous ones")
    order = range(ambient_dim) if scan == "forward" else range(ambient_dim - 1, -1, -1)
    one = field.one()
    kept = []
    for i in order:
        if len(pivot_rows) == ambient_dim:
            break
        if _echelon_insert(pivot_rows, {i: one}, field) is not None:
            kept.append(i)
    zero = field.zero()
    cols = []
    for i in kept:
        col = [zero] * ambient_dim
        col[i] = one
        cols.append(tuple(col))
    return from_cols(field, ambient_dim, cols)


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
