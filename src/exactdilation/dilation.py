"""The two dilation constructions on the direct-sum sequence space.

One linear map T on V = F^d dilates to an injective map U on the space W of
finite-support sequences over V: U pushes the tail down one slot and replaces
the head with (T x0, (I - T) x0).  Compressing U^n back to coordinate 0
reproduces T^n exactly.

Two commuting maps T, S dilate to commuting injective maps U, V on W.  The
construction runs through half-shift operators W1, W2 (same head surgery, but
shifting the tail by two slots), and a block exchange map W acting by an
invertible v on each 4-block of coordinates past the head.  U is W after W1,
V is W2 after the inverse of W.  The exchange map v is determined on the span
of the generator columns ((I-T)S e_i, 0, (I-S) e_i, 0) -- it must send them to
((I-S)T e_i, 0, (I-T) e_i, 0) -- and is extended to all of F^(4d) by
completing both column families to bases (greedy scan, direction selectable).

Operators act lazily on finite-support sequences, which is exact and total.
The seven public functions (``apply_u`` .. ``sznagy_apply_u``) are the actions
themselves, each written once; ``apply_batch`` looks one up by its tag, and the
audit's applications go through it.  They act on a ``Batch`` of columns,
whose coordinate blocks are canonical ``Mat``s; one sequence is the width-1
case.  The head surgery multiplies coordinate 0 alone and hands the tail
blocks on unchanged; ``@`` keeps its product (see ``Mat.__matmul__``).  The
block exchange makes one integer product per distinct 4-block group, from
the group's nonzero blocks alone, and builds only its nonzero output blocks.
That product depends on v and the group's blocks alone, so a small
fixed-size cache keyed by their values (``_group_product``; a ``Mat`` keeps
its hash) serves every repeat.  Matrices exist only as restrictions to
truncations.  The truncation at level K is the subspace supported on
coordinates 0..4K, and every operator here maps it into the truncation at
level K+1.  ``truncated_matrix`` feeds every level past 0 the same unit
blocks, re-keyed, so the group products of levels 2..K are those of level 1.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

from ._record import Record
from .fields import FieldSpec
from .linalg import (
    DimensionMismatch,
    Mat,
    _add_terms,
    _require_shape,
    _span,
    identity,
    int_product,
    inverse,
    vstack,
    zeros,
)
from .pairs import _require_square_pair, check_commute
from .sequences import Batch

__all__ = [
    "NotCommuting",
    "ExtensionFailure",
    "SupportOverflow",
    "SzNagyOperators",
    "AndoOperators",
    "Generators",
    "sznagy",
    "ando",
    "build_generators",
    "build_v",
    "sznagy_apply_u",
    "apply_w1",
    "apply_w2",
    "apply_w",
    "apply_w_inv",
    "apply_u",
    "apply_v",
    "apply_batch",
    "OPERATOR_TAGS",
    "truncated_matrix",
    "level_shape",
]


class NotCommuting(ValueError):
    """The two-map construction requires T S = S T exactly."""


class ExtensionFailure(AssertionError):
    """The exchange map cannot extend to a bijection."""


class SupportOverflow(AssertionError):
    """A truncated operator image escaped the next truncation level."""


class _ShapeOfT:
    """The size ``d`` and the ``field`` of an operator tuple, read off its square T,
    never stored.  A plain mixin: ``Record`` refuses a subclass without fields."""

    @property
    def d(self) -> int:
        return self.T.rows

    @property
    def field(self) -> FieldSpec:
        return self.T.field


class SzNagyOperators(_ShapeOfT, Record):
    """Single-map dilation data: just the map itself, square."""

    T: Mat

    def _check(self):
        _require_shape("T", self.T, self.field, self.d)


class AndoOperators(_ShapeOfT, Record):
    """Two-map dilation data: the commuting pair, d x d, and the block exchange
    map and its inverse, 4d x 4d, all over the field of T."""

    T: Mat
    S: Mat
    v: Mat
    v_inv: Mat

    def _check(self):
        for name, n in (("T", self.d), ("S", self.d), ("v", 4 * self.d), ("v_inv", 4 * self.d)):
            _require_shape(name, getattr(self, name), self.field, n)


class Generators(Record):
    """Generator columns of the two spans the exchange map must match up.

    Column i of G is ((I-T)S e_i, 0, (I-S) e_i, 0); column i of H is
    ((I-S)T e_i, 0, (I-T) e_i, 0).  Both are 4d x d.
    """

    G: Mat
    H: Mat

    def _check(self):
        if (self.G.field, self.G.rows, self.G.cols) != (self.H.field, self.H.rows, self.H.cols):
            raise DimensionMismatch("G and H need one shape over one field")


def sznagy(t: Mat) -> SzNagyOperators:
    return SzNagyOperators(t)


@lru_cache(maxsize=1)  # ando() and the audit of its operators ask for the same pair
def build_generators(t: Mat, s: Mat) -> Generators:
    """Generator columns G and H of the pair (T, S), kept for the last pair asked.

    ker G = ker H = ker(I-T) ∩ ker(I-S) for any square T and S, so the
    correspondence G e_i -> H e_i is always well defined: a kernel vector x of
    G has (I-S)x = 0, hence (I-T)x = (I-T)Sx = 0, and likewise for H.  As
    polynomials in non-commuting t and s, with P = 1-t and Q = 1-s, that is
    1-t = G1 + P G3, H3 = 1-t and H1 = G3 - Q(1-t), and the mirror with G and
    H swapped: ``test_kernel_lemma_is_an_identity`` in ``tests/test_dilation.py``
    checks these, and that the blocks built here are those polynomials.  The
    lemma is not re-checked here; the ``well_definedness`` record of every
    two-map report checks it on the pair under audit.
    """
    _require_square_pair(t, s)
    d = t.rows
    ident = identity(t.field, d)
    pad = zeros(t.field, d, d)
    g = vstack((ident - t) @ s, pad, ident - s, pad)
    h = vstack((ident - s) @ t, pad, ident - t, pad)
    return Generators(g, h)


def _exchange(src: Mat, dst: Mat, pivots: list, leads: list, kept: list, dst_kept: list) -> Mat:
    """The map sending the columns P = ``pivots`` of ``src`` to those of ``dst``, and
    each unit vector of ``kept`` to the one at the same place in ``dst_kept``: the
    two families' completions, in scan order, as ``_span`` gives them.

    With L = ``leads`` (ascending), A = src[L, P] is r x r and invertible, and
    x = src[:, P] a + E_kept b has a = A^-1 x[L] and b = x[kept] - src[kept, P] a.
    So the map is (dst[:, P] - E_dst_kept src[kept, P]) A^-1 on the coordinates L,
    plus the unit moves kept[i] -> dst_kept[i].
    """
    field, n = src.field, src.rows
    den = lcm(src.den, dst.den)
    s_src, s_dst = den // src.den, den // dst.den
    m = [[s_dst * dst.ints[i][j] for j in pivots] for i in range(n)]
    for i, k in zip(kept, dst_kept):
        m[k] = [x - s_src * src.ints[i][j] for x, j in zip(m[k], pivots)]
    a = Mat.from_ints(field, len(leads), len(pivots),
                      [[src.ints[i][j] for j in pivots] for i in leads], src.den)
    c = Mat.from_ints(field, n, len(pivots), m, den) @ inverse(a)
    grid = [[0] * n for _ in range(n)]
    for out, row in zip(grid, c.ints):
        for i, x in zip(leads, row):
            out[i] = x
    for i, k in zip(kept, dst_kept):
        grid[k][i] = c.den
    return Mat.from_ints(field, n, n, grid, c.den)


def build_v(gens: Generators, completion: str = "forward") -> tuple[Mat, Mat]:
    """Extend the generator correspondence to an invertible map on F^(4d).

    One elimination of G's columns and one of H's (``_span``, which owns the
    completion rule) give each family's pivot columns P, which must agree (else
    ExtensionFailure), its leads, and the unit vectors ``completion``'s scan
    keeps to complete the basis P of its span to one of F^(4d).  v is the
    change of basis from G's completed family to H's (``_exchange``); v_inv is
    the same construction with G and H swapped, computed independently of v.
    Returns (v, v_inv).
    """
    (pivots, g_leads, g_kept), (h_pivots, h_leads, h_kept) = (
        _span(gens.G, completion), _span(gens.H, completion))
    if pivots != h_pivots:
        raise ExtensionFailure("the generators have different pivot columns")
    return (_exchange(gens.G, gens.H, pivots, g_leads, g_kept, h_kept),
            _exchange(gens.H, gens.G, pivots, h_leads, h_kept, g_kept))


def ando(t: Mat, s: Mat, completion: str = "forward") -> AndoOperators:
    """Build the two-map dilation; rejects non-commuting input up front.

    This is the package's one refusal of a pair that does not commute; the
    self-check in ``gen_pair`` guards that generator, not this input.  It only
    refuses and builds: ``v G = H`` and ``v_inv v = I`` are left to the
    ``v_coherence`` record of every two-map report, the one place either is
    checked.
    """
    if not check_commute(t, s):
        raise NotCommuting("T and S do not commute; no dilation is constructed")
    v, v_inv = build_v(build_generators(t, s), completion=completion)
    return AndoOperators(t, s, v, v_inv)


# -- lazy actions on finite-support sequences -----------------------------------


def _head_surgery(m: Mat, b: Batch, shift: int) -> Batch:
    """(x_n) -> (M x0, (I-M) x0, then x1, x2, ... moved up by ``shift``), per column.

    The tail blocks are handed on as they are, only re-keyed.  The map is
    injective, as M x0 + (I-M) x0 = x0: ``test_head_surgery_is_injective_as_an_identity``
    in ``tests/test_dilation.py`` checks t + (1-t) = 1, and
    ``test_head_surgery_blocks_are_m_and_one_minus_m`` that these are the blocks
    that ``SzNagyU``, ``W1`` and ``W2`` make."""
    head = {}
    x0 = b.blocks.get(0)
    if x0 is not None:
        mx = m @ x0
        head = {n: y for n, y in ((0, mx), (1, x0 - mx)) if not y.is_zero()}
    return Batch(b.field, b.dim, b.width,
                 head | {n + shift: x for n, x in b.blocks.items() if n})


@lru_cache(maxsize=2)  # a fixed size: the groups of one truncation level, which later levels repeat
def _group_product(vmat: Mat, xs: tuple) -> tuple:
    """vmat applied to one 4-block group: ``xs`` holds its four blocks, None for a
    zero one and at least one present, and the result the nonzero output blocks
    as ``(k, block)`` pairs, k in 0..3, as wide as the present blocks.

    The present blocks enter one ``int_product`` call, one part each, over the
    lcm of their denominators, each scaled inside the product.  Over GF(p) the
    product comes out as residues, the canonical form, so an output block
    that vanishes mod p is never built; over Q only output blocks with a
    nonzero integer grid are brought to canonical form.  The result depends on
    the values of the arguments alone, so one product serves every equal group
    while it stays in the cache; the width is read off the blocks, so it is no
    part of the key.
    """
    present = [(k, x) for k, x in enumerate(xs) if x is not None]
    d, den, width = vmat.rows // 4, lcm(*(x.den for _, x in present)), present[0][1].cols
    grid = int_product(vmat, [(k * d, x.ints, den // x.den) for k, x in present], width)
    return tuple((k, Mat.from_ints(vmat.field, d, width, grid[k * d:(k + 1) * d], den * vmat.den,
                                   canonical=not vmat.field.is_rational))
                 for k in range(4) if any(map(any, grid[k * d:(k + 1) * d])))


def _block_exchange(vmat: Mat, b: Batch) -> Batch:
    """Apply vmat to each 4-block of coordinates (4g+1 .. 4g+4) of every column, head
    untouched, by one ``_group_product`` per 4-block holding a nonzero block."""
    blocks = {0: b.blocks[0]} if 0 in b.blocks else {}
    for g in dict.fromkeys((n - 1) // 4 for n in b.blocks if n):
        xs = tuple(b.blocks.get(n) for n in range(4 * g + 1, 4 * g + 5))
        blocks.update((4 * g + 1 + k, y) for k, y in _group_product(vmat, xs))
    return Batch(b.field, b.dim, b.width, blocks)


def _operator(ops, kind: type, name: str, b: Batch) -> Mat:
    """``ops.<name>``, once ``ops`` is a ``kind`` and ``b`` lies in the space it acts on.
    Every action asks here before it reads an operand, so the wrong operator tuple
    is a TypeError, never an AttributeError."""
    if not isinstance(ops, kind):
        raise TypeError(f"{name} is read off {kind.__name__}, not {type(ops).__name__}")
    if b.dim != ops.d or b.field != ops.field:
        raise DimensionMismatch(f"sequence over {b.field.label()}^{b.dim} fed to operators on "
                                f"{ops.field.label()}^{ops.d}")
    return getattr(ops, name)


def sznagy_apply_u(ops: SzNagyOperators, w: Batch) -> Batch:
    """(x_n) -> (T x0, (I-T) x0, x1, x2, ...)."""
    return _head_surgery(_operator(ops, SzNagyOperators, "T", w), w, 1)


def apply_w1(ops: AndoOperators, w: Batch) -> Batch:
    """(x_n) -> (T x0, (I-T) x0, 0, x1, x2, ...)."""
    return _head_surgery(_operator(ops, AndoOperators, "T", w), w, 2)


def apply_w2(ops: AndoOperators, w: Batch) -> Batch:
    """(x_n) -> (S x0, (I-S) x0, 0, x1, x2, ...)."""
    return _head_surgery(_operator(ops, AndoOperators, "S", w), w, 2)


def apply_w(ops: AndoOperators, w: Batch) -> Batch:
    """v on each 4-block of coordinates past the head."""
    return _block_exchange(_operator(ops, AndoOperators, "v", w), w)


def apply_w_inv(ops: AndoOperators, w: Batch) -> Batch:
    """v_inv on each 4-block of coordinates past the head."""
    return _block_exchange(_operator(ops, AndoOperators, "v_inv", w), w)


def apply_u(ops: AndoOperators, w: Batch) -> Batch:
    """U = W after W1."""
    return apply_w(ops, apply_w1(ops, w))


def apply_v(ops: AndoOperators, w: Batch) -> Batch:
    """V = W2 after the inverse of W."""
    return apply_w2(ops, apply_w_inv(ops, w))


# the operator of each tag is its public action, so every caller runs one definition
_ACTIONS = {"U": apply_u, "V": apply_v, "W1": apply_w1, "W2": apply_w2, "W": apply_w,
            "Winv": apply_w_inv, "SzNagyU": sznagy_apply_u}

OPERATOR_TAGS = tuple(_ACTIONS)


def apply_batch(tag: str, ops, b: Batch) -> Batch:
    """The operator named ``tag`` (one of ``OPERATOR_TAGS``) applied to every column of ``b``.
    The audit's applications go through here; the public functions are the actions."""
    if tag not in _ACTIONS:
        raise ValueError(f"unknown operator tag {tag!r}")
    return _ACTIONS[tag](ops, b)


# -- truncated matrix realizations ------------------------------------------------


def level_shape(d: int, k: int) -> tuple[int, int]:
    """``(rows, cols)`` of the level-k truncated matrix: coordinates 0..4k+4 by 0..4k."""
    return d * (4 * k + 5), d * (4 * k + 1)


def truncated_matrix(tag: str, ops, trunc: int) -> Mat:
    """Matrix of one operator from the truncation at level K into level K+1.

    Input space: coordinates 0..4K (dimension d(4K+1)); output space:
    coordinates 0..4K+4.  Columns are the lazy images of the embedded standard
    basis vectors, one batch per level's new coordinates (coordinate 0, then
    4k-3..4k), so the matrix realization can be checked against the lazy one
    entry by entry.  The matrix is built by columns (``Mat.from_col_terms``):
    the operators are near-permutations, and no grid is built unless read.

    Truncations nest.  The image of coordinate n must lie below coordinate
    4k+5, where k = ceil(n/4) is the lowest level holding n; otherwise
    SupportOverflow is raised (read off the column's last row).  So for every
    k <= K the level-k matrix is exactly the leading ``level_shape(d, k)`` block
    of the level-K matrix, with zeros below it, and one build serves every
    lower level.
    """
    if trunc < 0:
        raise ValueError("truncation level must be >= 0")
    d, field = ops.d, ops.field
    # every level past 0 feeds the same four unit blocks, re-keyed, so the block
    # exchange finds the group products of level 1 in its cache
    units = Batch.basis(field, d, range(1, 5)).blocks
    images = []
    for level in range(trunc + 1):
        coords = range(4 * level - 3, 4 * level + 1) if level else range(1)
        basis = (Batch(field, d, 4 * d, {n + coords[0] - 1: x for n, x in units.items()})
                 if level else Batch.basis(field, d, coords))
        images.append((coords, apply_batch(tag, ops, basis)))
    # each block is in lowest terms, so over the lcm of their denominators the
    # columns are in the canonical form of FieldSpec.reduce_ints already
    den = lcm(*(x.den for _, img in images for x in img.blocks.values()))
    cols = []
    for level, (coords, img) in enumerate(images):
        terms = [[] for _ in range(img.width)]
        for n, x in img.blocks.items():
            _add_terms(terms, x.ints, n * d, den // x.den)
        rows = level_shape(d, level)[0]
        for c, col in enumerate(terms):
            if col and col[-1][0] >= rows:
                raise SupportOverflow(f"{tag} pushed coordinate {coords[c // d]} to "
                                      f"{col[-1][0] // d}, past level {level + 1}")
        cols += terms
    return Mat.from_col_terms(field, *level_shape(d, trunc), cols, den)
