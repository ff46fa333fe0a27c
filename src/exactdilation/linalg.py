"""Exact matrices and the elimination kernel.

A ``Mat`` is held in one canonical integer form, ``ints / den`` (see
``FieldSpec.reduce_ints``): over Q, ``den > 0`` with no factor common to
every entry; over GF(p), residues over 1.  The form is unique, so equality
and hashing read it directly.  Every kernel computes on it and returns it.
The integers come as a grid, ``ints``, or by columns, ``_col_terms``, the
``(row, int)`` pairs of each column's nonzero entries; a matrix is built in
one form and the other is a view built when it is read.  The sparse
truncated operators are built, ranked and multiplied by columns alone.
Stacks, unit matrices and truncations are canonical as built, each by a
lemma stated where it is built, and so are products over GF(p), whose loops
leave residues; every other matrix (a sum, a product over Q, a random
draw) is brought to the form by ``reduce_ints`` alone, through
``from_ints``.  Field scalars are read only at the public edge (``Mat``,
``mat`` and ``from_cols`` take a grid of them), and their grid,
``entries``, is built only when it is read, for output.  One
fraction-free elimination loop, ``_echelon``, serves rank, column ranks,
basis completion, reduced row echelon form, kernels and inverses; it is
fed rows or columns as each job needs, with the dimension of their space,
and stops once its pivots span it, since no later vector could enlarge the
span.  Products keep two
loops, each shaped for its operands: ``int_product`` multiplies a matrix
into the small dense blocks of a batch, and ``column_product`` multiplies
the column-sparse truncated operators.  ``int_product`` sums, in one call,
the products of several runs of the matrix's columns with their int rows,
each scaled, so the block exchange feeds each nonzero block of a 4-block
straight in, over the group's common denominator, with no zero rows and no
rescaled copies.  Over GF(p), when the sums fit slots of at most 64 bits,
it packs each row of residues into one int, so a column term costs one
multiply-add for the whole row, and reduces each output row mod p once,
every slot at a time; over Q, and for larger primes, it runs the plain
scalar loop.  One loop over column terms for both was tried and ran 23-35%
fewer problems per second on the ``ando`` and ``sznagy-deep`` benchmark
workloads: gathering the column terms of the dense blocks cost twice their
products.
Degenerate shapes (0 x n, n x 0) are legal with the obvious conventions.
Products are shared where they are made: ``@`` keeps its last two, keyed
by the operands' values (see ``Mat.__matmul__``), so the dilation records
find the product the lazy action has just made, and ``ando()``'s
commutation test the two that ``gen_pair``'s self-check made.  A ``Mat``
keeps its hash once taken; ``@`` and the block exchange key their memos by it.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property, lru_cache
from itertools import compress
from math import gcd, lcm
from struct import Struct
from typing import Iterable, Sequence

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
    "column_product",
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


class Mat:
    """Matrix over an exact field: the grid ``ints / den``.

    ``ints`` is a tuple of ``rows`` row tuples of ``cols`` ints and ``den`` an
    int, in the field's canonical form; neither is ever modified.
    ``Mat(field, rows, cols, entries)`` reads a grid of field scalars;
    ``from_ints`` takes the grid and ``from_col_terms`` the columns.
    """

    def __init__(self, field: FieldSpec, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match declared shape")
        self.field, self.rows, self.cols = field, rows, cols
        self.ints, self.den = field.reduce_ints(*field.to_ints(entries))

    @classmethod
    def from_ints(cls, field: FieldSpec, rows: int, cols: int, ints, den: int = 1,
                  canonical: bool = False) -> "Mat":
        """The matrix ``ints / den``, ``den`` a positive int; ``canonical`` says that
        ``(ints, den)`` is already the canonical form, with row tuples."""
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        m = cls.__new__(cls)
        m.field, m.rows, m.cols = field, rows, cols
        m.ints, m.den = (ints, den) if canonical else field.reduce_ints(ints, den)
        return m

    @classmethod
    def from_col_terms(cls, field: FieldSpec, rows: int, cols: int, terms: list,
                       den: int = 1) -> "Mat":
        """The matrix whose column j holds the ``(row, int)`` pairs ``terms[j]``, in
        increasing row order, over ``den``; ``(terms, den)`` is already canonical."""
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        m = cls.__new__(cls)
        m.field, m.rows, m.cols, m._col_terms, m.den = field, rows, cols, terms, den
        return m

    @cached_property
    def ints(self) -> tuple:
        """The integer grid of a matrix built by columns, on first read."""
        return tuple(map(tuple, self._grid(self.rows, self.cols)))

    def _grid(self, rows: int, cols: int) -> list:
        """The top-left ``rows x cols`` block of the integers, as row lists, cut from
        the column terms."""
        grid = [[0] * cols for _ in range(rows)]
        for j, terms in zip(range(cols), self._col_terms):
            for i, x in terms:
                if i >= rows:
                    break
                grid[i][j] = x
        return grid

    @cached_property
    def entries(self) -> tuple:
        """The grid of field scalars, as a tuple of row tuples, built on first read."""
        return self.field.from_ints(self.ints, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.field == other.field and self.rows == other.rows
                and self.cols == other.cols and self.den == other.den
                and self.ints == other.ints)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """Hashed once: a ``Mat`` is never modified, and ``@`` and the block exchange key
        their memos by it."""
        return hash((self.field, self.rows, self.cols, self.den, self.ints))

    def __repr__(self) -> str:
        return f"Mat({self.field!r}, {self.rows}, {self.cols}, {self.entries!r})"

    # -- access ---------------------------------------------------------------

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(map(any, self.ints))

    def ints_over(self, den: int) -> tuple:
        """The int rows rescaled to the multiple ``den`` of the denominator."""
        s = den // self.den
        return self.ints if s == 1 else tuple([tuple([s * x for x in r]) for r in self.ints])

    @cached_property
    def _col_terms(self) -> list:
        """For each column, the ``(row, int)`` pairs of its nonzero entries in ``ints``,
        in increasing row order."""
        cols = [[] for _ in range(self.cols)]
        _add_terms(cols, self.ints)
        return cols

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        return self._plus(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._plus(other, -1)

    def _plus(self, other: "Mat", sign: int) -> "Mat":
        """``self + sign * other``, over the lcm of the two denominators."""
        if self.field != other.field:
            raise DimensionMismatch("matrices over different fields")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, sign * den // other.den
        sums = [[x * sa + y * sb for x, y in zip(ra, rb)]
                for ra, rb in zip(self.ints, other.ints)]
        return Mat.from_ints(self.field, self.rows, self.cols, sums, den)

    @lru_cache(maxsize=2)
    def __matmul__(self, other: "Mat") -> "Mat":
        """The product, kept for the last two operand pairs asked.

        The memo is keyed by the operands' values: ``hash`` and ``==`` read
        the canonical integer form, so a hit is exactly the product ``@``
        would make, whichever equal matrices are asked.  Two entries, not one,
        so the commutation test ``t @ s == s @ t`` finds both of its products
        when it is asked again of the same pair.  Every ``@`` hashes both
        operands, and hashing a matrix built by columns (a truncation) builds
        its integer grid, so truncations are multiplied by ``column_product``,
        never by ``@``.  The memo holds its two operand pairs and their
        results alive.  A mismatch raises each time: errors are not kept.
        """
        if self.field != other.field:
            raise DimensionMismatch("matrices over different fields")
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return Mat.from_ints(self.field, self.rows, other.cols,
                             int_product(self, [(0, other.ints, 1)], other.cols),
                             self.den * other.den, canonical=not self.field.is_rational)


def _require_shape(name: str, m: Mat, field: FieldSpec, n: int):
    """Raise DimensionMismatch unless the matrix ``m``, called ``name``, is n x n over ``field``."""
    if (m.field, m.rows, m.cols) != (field, n, n):
        raise DimensionMismatch(f"{name} must be {n}x{n} over {field.label()}, "
                                f"got {m.rows}x{m.cols} over {m.field.label()}")


# -- construction ---------------------------------------------------------------


def mat(field: FieldSpec, rows: Iterable[Iterable]) -> Mat:
    """Build a Mat, coercing ints and scalar strings entry by entry.  The shape is
    ``Mat``'s to check: a ragged grid raises its ``ValueError``."""
    grid = tuple(tuple(field.coerce(x) for x in r) for r in rows)
    nrows = len(grid)
    ncols = len(grid[0]) if grid else 0
    return Mat(field, nrows, ncols, grid)


def _add_terms(cols: list, ints, first: int = 0, scale: int = 1) -> None:
    """Append the nonzero entries of the int rows ``ints``, numbered from ``first`` and
    multiplied by ``scale``, to the ``(row, int)`` term lists ``cols``, one per column."""
    index = range(len(cols))
    for i, row in enumerate(ints, first):
        for c in compress(index, row):
            cols[c].append((i, scale * row[c]))


def _unit_cols(field: FieldSpec, rows: int, cols: int, units: Iterable) -> Mat:
    """The ``rows x cols`` matrix with a 1 at each ``(row, col)`` of ``units``, at most
    one per column, and 0 elsewhere: each column is a standard basis vector or zero."""
    grid = [[0] * cols for _ in range(rows)]
    for i, j in units:
        grid[i][j] = 1
    return Mat.from_ints(field, rows, cols, tuple(map(tuple, grid)), 1, canonical=True)


def identity(field: FieldSpec, n: int) -> Mat:
    return _unit_cols(field, n, n, zip(range(n), range(n)))


def zeros(field: FieldSpec, nrows: int, ncols: int) -> Mat:
    return Mat.from_ints(field, nrows, ncols, ((0,) * ncols,) * nrows, 1, canonical=True)


def from_cols(field: FieldSpec, height: int, cols: Sequence[Sequence]) -> Mat:
    cols = [tuple(c) for c in cols]
    if any(len(c) != height for c in cols):
        raise DimensionMismatch("column height mismatch")
    rows = tuple(tuple(c[i] for c in cols) for i in range(height))
    return Mat(field, height, len(cols), rows)


def hstack(*mats: Mat) -> Mat:
    first = mats[0]
    if any(m.field != first.field or m.rows != first.rows for m in mats):
        raise DimensionMismatch("hstack needs equal row counts over one field")
    # canonical forms over the lcm of their denominators combine into a canonical form
    den = lcm(*(m.den for m in mats))
    rows = tuple(sum(r, ()) for r in zip(*(m.ints_over(den) for m in mats)))
    return Mat.from_ints(first.field, first.rows, sum(m.cols for m in mats), rows, den,
                         canonical=True)


def vstack(*mats: Mat) -> Mat:
    first = mats[0]
    if any(m.field != first.field or m.cols != first.cols for m in mats):
        raise DimensionMismatch("vstack needs equal column counts over one field")
    den = lcm(*(m.den for m in mats))
    rows = tuple(r for m in mats for r in m.ints_over(den))
    return Mat.from_ints(first.field, len(rows), first.cols, rows, den, canonical=True)


# -- vector ops --------------------------------------------------------------------


@lru_cache(maxsize=64)
def _packing(p: int | None, inner: int, width: int) -> tuple | None:
    """How ``int_product`` packs a row of ``width`` residues mod p into one int, for a
    product that sums ``inner`` right-operand rows: the ``Struct`` of a row and the
    function that reduces a packed output row mod p and unpacks it, or None for
    the plain loop (over Q, or when no slot of at most 64 bits holds the bound).

    Each output slot sums at most ``inner`` products of residues, so it stays
    below 2**b, b the bit length of (p-1)**2 * inner.  The slot is the smallest
    of 16, 32 and 64 bits that holds 2b + bits(p) + 1.  With k = b + bits(p) and
    m = ceil(2**k / p) <= 2**(b+1), ``(z * m) >> k`` is ``z // p`` for every
    z < 2**b (Granlund and Montgomery, PLDI 1994), and z * m < 2**(2b+1) fits a
    slot.  So no carry crosses a slot, neither in the sums nor in ``z * m``, and
    after the shift the low (slot - k) bits of each slot, the mask ``low``, hold
    its exact quotient; the bits above them, the next slot's fraction bits, are
    dropped.
    """
    if p is None:
        return None
    b = ((p - 1) ** 2 * inner).bit_length()
    slot = next((s for s in (16, 32, 64) if s >= 2 * b + p.bit_length() + 1), None)
    if slot is None:
        return None
    row, k = Struct(f"<{width}{'HIQ'[slot // 32]}"), b + p.bit_length()
    m = -(-(1 << k) // p)
    low = int.from_bytes(((1 << slot - k) - 1).to_bytes(slot // 8, "little") * width, "little")
    return row, lambda z: row.unpack((z - p * ((z * m >> k) & low)).to_bytes(row.size, "little"))


def int_product(a: Mat, parts: Sequence, width: int) -> list | tuple:
    """The integer grid of the sum of ``scale * A @ b`` over the ``(first, b, scale)``
    of ``parts``: ``b`` has rows of ``width`` ints, and A is the ``len(b)`` columns
    of ``a.ints`` from column ``first`` on.  Over GF(p) the result is a tuple of
    residue row tuples, the canonical form; there every denominator is 1, so
    every scale is 1.

    The product loop of ``@`` and the block exchange, whose right operands are
    small dense grids.  Over GF(p), when ``_packing`` finds a slot, each row of
    ``b`` is packed into one int and each column term ``(i, x)`` of A adds ``x``
    times it to output row i's int: one multiply-add per term, not one per term
    and entry.  Each output int is reduced mod p once, every slot at a time, and
    unpacked once (Kronecker substitution with simultaneous modular reduction:
    Dumas, Fousse and Salvy, J. Symbolic Comput. 46(7), 2011).  A zero sum is
    neither: its row is the one zero tuple the call shares.  Otherwise, over
    Q and for a prime past the 64-bit slot, the plain loop accumulates
    ``C[i][j] += A[i][k] * B[k][j]`` and skips zero entries of both sides; over
    GF(p), ``FieldSpec.reduce_ints`` reduces its sums, as it does every grid.
    """
    p = a.field.modulus
    packing = _packing(p, sum(len(b) for _, b, _ in parts), width)
    if packing is None:
        acc = [[0] * width for _ in range(a.rows)]
        index = range(width)
        for first, b, scale in parts:
            for colk, brow in zip(a._col_terms[first:], b):
                if not colk:
                    continue
                for j in compress(index, brow):
                    y = scale * brow[j]
                    for i, x in colk:
                        acc[i][j] += x * y
        return acc if p is None else a.field.reduce_ints(acc, 1)[0]
    row, reduce = packing
    acc = [0] * a.rows
    for first, b, _ in parts:
        for colk, brow in zip(a._col_terms[first:], b):
            if colk:
                y = int.from_bytes(row.pack(*brow), "little")
                for i, x in colk:
                    acc[i] += x * y
    zero = (0,) * width
    # built from a list: a tuple grown from a generator keeps ando-gf7's peak 0.6 MB higher
    return tuple([reduce(z) if z else zero for z in acc])


def column_product(a: Mat, b: Mat, width: int) -> list:
    """The first ``width`` columns of ``a @ b`` over ``a.den * b.den``, each a dict
    row -> nonzero int, reduced mod p over GF(p); read off the column terms of both.

    Those columns of ``b`` must lie in its first ``a.cols`` rows.  For the
    near-permutation truncated operators this costs what their nonzeros do.
    """
    if a.field != b.field:
        raise DimensionMismatch("matrices over different fields")
    if width > b.cols:
        raise DimensionMismatch(f"no {width} columns in a {b.rows}x{b.cols} matrix")
    p, a_cols = a.field.modulus, a._col_terms
    out = []
    for terms in b._col_terms[:width]:
        if terms and terms[-1][0] >= a.cols:
            raise DimensionMismatch(f"a column reaching row {terms[-1][0]} cannot be "
                                    f"multiplied by a {a.rows}x{a.cols} matrix")
        acc: dict = {}
        for k, y in terms:
            for i, x in a_cols[k]:
                acc[i] = acc.get(i, 0) + x * y
        out.append({i: r for i, x in acc.items() if (r := x if p is None else x % p)})
    return out


def matvec(m: Mat, x: Sequence) -> tuple:
    if len(x) != m.cols:
        raise DimensionMismatch(f"matvec: {m.rows}x{m.cols} applied to length {len(x)}")
    return (m @ from_cols(m.field, m.cols, [x])).col(0)


# -- elimination kernel ---------------------------------------------------------------


def _cancel(row: dict, piv: dict, c: int, field: FieldSpec) -> dict:
    """``a*row - f*piv``, reduced by the field, with ``a = piv[c]`` and ``f = row[c]``
    over their gcd, so column ``c`` cancels; ``row`` is scaled only when ``a`` is
    not 1.  Over GF(p) pivots lead with 1, so this is one subtraction pass.  Over
    Q ``a`` is negative when the pivot leads negative, -1 included: only the
    row's line matters to ``_echelon``, and ``rref`` divides each row by its
    lead, so no result depends on its sign.  ``row`` may be consumed."""
    a, f = piv[c], row[c]
    g = gcd(a, f)
    a, f = a // g, f // g
    if a != 1:
        row = {j: a * x for j, x in row.items()}
    for j, x in piv.items():
        nx = row.get(j, 0) - f * x
        if nx:
            row[j] = nx
        else:
            del row[j]
    return field.reduce_row(row)


def _echelon(vectors: Iterable[dict], field: FieldSpec, dim: int) -> tuple[list, dict]:
    """One elimination of sparse integer vectors of F^dim, in order: the positions of
    those that enlarge the span, and the echelon set, leading index -> vector.

    Vectors are dicts index -> nonzero int, with indices below ``dim``, and each
    is consumed.  Each is reduced against the set, and inserted at its lead
    unless it cancels to zero; pivots are kept in the field's ``pivot_row``
    form.  Only the line through a vector matters, so those of a matrix may
    come over any common denominator.  Once ``dim`` pivots span F^dim, no more
    vectors are drawn: none could enlarge the span, so the result is a full
    pass's.
    """
    pivot_rows: dict = {}
    kept = []
    for pos, row in enumerate(vectors):
        while row:
            lead = min(row)
            piv = pivot_rows.get(lead)
            if piv is None:
                pivot_rows[lead] = field.pivot_row(row, lead)
                kept.append(pos)
                if len(kept) == dim:
                    return kept, pivot_rows
                break
            row = _cancel(row, piv, lead, field)
    return kept, pivot_rows


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and its pivot columns (strictly increasing).

    When every column is a pivot, the form is the unit block (identity over the
    first ``cols`` rows, zeros below) with no back-substitution, as the reduced
    form of a full-column-rank matrix is unique.  Otherwise the echelon set of
    the rows is back-substituted bottom up with the same cancellation step; row
    i, divided by its lead, is then brought over the lcm of the leads.
    """
    field = m.field
    _, pivot_rows = _echelon(({j: x for j, x in enumerate(raw) if x} for raw in m.ints),
                             field, m.cols)
    if len(pivot_rows) == m.cols:
        return _unit_cols(field, m.rows, m.cols, enumerate(range(m.cols))), tuple(range(m.cols))
    pivots = sorted(pivot_rows)
    for i in range(len(pivots) - 2, -1, -1):
        row = pivot_rows[pivots[i]]
        for c in pivots[i + 1:]:
            if c in row:
                row = _cancel(row, pivot_rows[c], c, field)
        pivot_rows[pivots[i]] = row
    den = lcm(*(pivot_rows[c][c] for c in pivots))
    rows = [[0] * m.cols for _ in range(m.rows)]
    for dense, c in zip(rows, pivots):
        row = pivot_rows[c]
        s = den // row[c]
        for j, x in row.items():
            dense[j] = s * x
    return Mat.from_ints(field, m.rows, m.cols, rows, den), tuple(pivots)


def rank(m: Mat) -> int:
    """Rank of ``m``: the number of its columns that enlarge the span of those before."""
    return len(_echelon(map(dict, m._col_terms), m.field, m.rows)[0])


def column_ranks(m: Mat, widths: Iterable[int]) -> list:
    """Rank of the leading ``w`` columns of ``m`` for each ``w`` in ``widths``.

    ``widths`` must be nondecreasing; one elimination of the leading
    ``max(widths)`` columns, in order, gives the columns that enlarge the span,
    and the rank at width ``w`` is the number of them before ``w``.  It runs on
    flipped coordinates, as ``_span``'s forward scan does: a column of a
    truncated operator mostly ends one row lower than every column before it,
    so it leads on a new pivot and inserts with no cancellation.  Ranks do not
    depend on the pivot rule.
    """
    widths = list(widths)
    if any(a > b for a, b in zip([0] + widths, widths + [m.cols])):
        raise ValueError(f"widths must be nondecreasing, from 0 to at most {m.cols}")
    top, width = m.rows - 1, max(widths, default=0)
    kept, _ = _echelon(({top - i: x for i, x in terms} for terms in m._col_terms[:width]),
                       m.field, m.rows)
    return [bisect_left(kept, w) for w in widths]


def kernel_basis(m: Mat) -> Mat:
    """Columns spanning ker(m); count is always cols(m) - rank(m).

    With R = rref(m) over its denominator r, the column for free column f is
    r e_f minus R's column f placed at the pivot columns, over r.  Of a
    full-column-rank matrix, ``rref`` reads only the pivot rows, so the empty
    kernel costs only those.
    """
    reduced, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    rows = [[0] * len(free) for _ in range(m.cols)]
    for k, f in enumerate(free):
        rows[f][k] = reduced.den
        for r_idx, pc in enumerate(pivots):
            rows[pc][k] = -reduced.ints[r_idx][f]
    return Mat.from_ints(m.field, m.cols, len(free), rows, reduced.den)


def _span(m: Mat, scan: str) -> tuple[list, list, list]:
    """The greedy completion of the span of the columns of ``m``, by one elimination
    of them in order: the columns that enlarge the span (its pivot columns), the
    span's leads in ascending order, and ``kept``, the unit vectors that complete
    it, in the order of ``scan``.  This is the one place the completion rule lives.

    ``scan="forward"`` tries e_0, e_1, ... and ``scan="reverse"`` e_(n-1), ...,
    e_0, each kept when it enlarges the span.  The forward scan skips e_i exactly
    when some vector of the span ends at i, so it eliminates on flipped
    coordinates; the reverse scan skips e_i when one starts at i.  Either way the
    kept unit vectors are the complement of the leads.
    """
    if scan not in ("forward", "reverse"):
        raise ValueError(f"unknown scan order {scan!r}")
    top, forward = m.rows - 1, scan == "forward"
    cols = (({top - i: x for i, x in terms} for terms in m._col_terms) if forward
            else map(dict, m._col_terms))
    pivots, pivot_rows = _echelon(cols, m.field, m.rows)
    leads = {top - c for c in pivot_rows} if forward else set(pivot_rows)
    order = range(m.rows) if forward else range(top, -1, -1)
    return pivots, sorted(leads), [i for i in order if i not in leads]


def complete_basis(basis_cols: Mat, ambient_dim: int, scan: str = "forward") -> Mat:
    """Greedy pivot completion of independent columns to a basis of F^ambient_dim.

    Scans standard basis vectors in index order (``scan="forward"``) or in
    reversed index order (``scan="reverse"``) and keeps each one that enlarges
    the span.  Deterministic given the inputs and the scan direction.  The kept
    vectors, in scan order, are ``_span``'s, the rule's one owner.
    """
    pivots, _, kept = _span(basis_cols, scan)
    if basis_cols.rows != ambient_dim:
        raise DimensionMismatch(
            f"columns of height {basis_cols.rows} cannot complete F^{ambient_dim}"
        )
    if len(pivots) < basis_cols.cols:
        j = next((j for j, p in enumerate(pivots) if j != p), len(pivots))
        raise NotIndependent(f"input column {j} depends on the previous ones")
    return _unit_cols(basis_cols.field, ambient_dim, len(kept),
                      [(i, k) for k, i in enumerate(kept)])


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
    return Mat.from_ints(m.field, n, n, [r[n:] for r in reduced.ints[:n]], reduced.den)
