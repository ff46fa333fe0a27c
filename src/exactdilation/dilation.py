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

Operators act lazily on ``FsVec`` values, which is exact and total; matrices
exist only as restrictions to truncations.  The truncation at level K is the
subspace supported on coordinates 0..4K, and every operator here maps it into
the truncation at level K+1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FieldSpec
from .linalg import (
    DimensionMismatch,
    Mat,
    complete_basis,
    from_cols,
    hstack,
    identity,
    inverse,
    matvec,
    rank,
    rref,
    vstack,
    zeros,
)
from .pairs import check_commute
from .sequences import FsVec, project, to_coords

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
    "OPERATOR_TAGS",
    "truncated_matrix",
]


class NotCommuting(ValueError):
    """The two-map construction requires T S = S T exactly."""


class ExtensionFailure(AssertionError):
    """The exchange map cannot extend to a bijection, or its inverse is wrong."""


class SupportOverflow(AssertionError):
    """A truncated operator image escaped the next truncation level."""


@dataclass(frozen=True)
class SzNagyOperators:
    """Single-map dilation data: just the map itself."""

    d: int
    field: FieldSpec
    T: Mat


@dataclass(frozen=True)
class AndoOperators:
    """Two-map dilation data: the commuting pair and the block exchange map."""

    d: int
    field: FieldSpec
    T: Mat
    S: Mat
    v: Mat
    v_inv: Mat


@dataclass(frozen=True)
class Generators:
    """Generator columns of the two spans the exchange map must match up.

    Column i of G is ((I-T)S e_i, 0, (I-S) e_i, 0); column i of H is
    ((I-S)T e_i, 0, (I-T) e_i, 0).  Both are 4d x d.
    """

    G: Mat
    H: Mat


def _require_square_pair(t: Mat, s: Mat):
    if t.field != s.field:
        raise DimensionMismatch("T and S over different fields")
    if not (t.is_square() and s.is_square() and t.rows == s.rows):
        raise DimensionMismatch(
            f"need two square matrices of one size, got {t.rows}x{t.cols} and {s.rows}x{s.cols}"
        )


def sznagy(t: Mat) -> SzNagyOperators:
    if not t.is_square():
        raise DimensionMismatch(f"T must be square, got {t.rows}x{t.cols}")
    return SzNagyOperators(t.rows, t.field, t)


def build_generators(t: Mat, s: Mat) -> Generators:
    """Generator columns G and H of the pair (T, S).

    ker G = ker H = ker(I-T) ∩ ker(I-S) for any square T and S, so the
    correspondence G e_i -> H e_i is always well defined: a kernel vector x of
    G has (I-S)x = 0, hence (I-T)x = (I-T)Sx = 0, and likewise for H.  That
    identity is not re-checked here; the ``well_definedness`` record of every
    two-map report checks it on the pair under audit.
    """
    _require_square_pair(t, s)
    d = t.rows
    ident = identity(t.field, d)
    pad = zeros(t.field, d, d)
    g = vstack((ident - t) @ s, pad, ident - s, pad)
    h = vstack((ident - s) @ t, pad, ident - t, pad)
    return Generators(g, h)


def build_v(gens: Generators, completion: str = "forward") -> tuple[Mat, Mat]:
    """Extend the generator correspondence to an invertible map on F^(4d).

    Pivot columns of G form a basis of the source span; the same columns of H
    form a basis of the target span.  Both are completed to bases of F^(4d)
    by greedy standard-vector scan, and v is the change of basis sending one
    completed family to the other.  Returns (v, v_inv), both exact.
    """
    g, h = gens.G, gens.H
    dim4 = g.rows
    _, pivots = rref(g)
    if rank(h) != len(pivots):
        raise ExtensionFailure("generator ranks differ")
    g_basis = from_cols(g.field, dim4, [g.col(j) for j in pivots])
    h_basis = from_cols(h.field, dim4, [h.col(j) for j in pivots])
    source = hstack(g_basis, complete_basis(g_basis, dim4, scan=completion))
    target = hstack(h_basis, complete_basis(h_basis, dim4, scan=completion))
    v = target @ inverse(source)
    return v, inverse(v)


def ando(t: Mat, s: Mat, completion: str = "forward") -> AndoOperators:
    """Build the two-map dilation; rejects non-commuting input up front.

    ``v G = H`` is left to the ``v_coherence`` record of every two-map report.
    ``v v_inv = I`` is checked nowhere else, so a failure raises
    ExtensionFailure instead of tripping an assert that ``python -O`` strips.
    """
    _require_square_pair(t, s)
    if not check_commute(t, s):
        raise NotCommuting("T and S do not commute; no dilation is constructed")
    v, v_inv = build_v(build_generators(t, s), completion=completion)
    d = t.rows
    if v @ v_inv != identity(t.field, 4 * d):
        raise ExtensionFailure("exchange map inverse is wrong")
    return AndoOperators(d, t.field, t, s, v, v_inv)


# -- lazy actions on finite-support sequences -----------------------------------


def _require_dim(ops, w: FsVec):
    if w.dim != ops.d or w.field != ops.field:
        raise DimensionMismatch(
            f"sequence over {w.field.label()}^{w.dim} fed to operators on "
            f"{ops.field.label()}^{ops.d}"
        )


def _head_surgery(ops, m: Mat, w: FsVec, shift: int) -> FsVec:
    """(x_n) -> (M x0, (I-M) x0, then x1, x2, ... moved up by ``shift``)."""
    _require_dim(ops, w)
    x0 = project(w)
    mx = matvec(m, x0)
    cx = tuple(ops.field.sub(a, b) for a, b in zip(x0, mx))
    blocks = [(n, col) for n, col in ((0, mx), (1, cx)) if any(col)]
    blocks.extend((n + shift, col) for n, col in w.blocks if n >= 1)
    return FsVec(ops.field, ops.d, tuple(blocks))


def sznagy_apply_u(ops: SzNagyOperators, w: FsVec) -> FsVec:
    """(x_n) -> (T x0, (I-T) x0, x1, x2, ...)."""
    return _head_surgery(ops, ops.T, w, 1)


def apply_w1(ops: AndoOperators, w: FsVec) -> FsVec:
    """(x_n) -> (T x0, (I-T) x0, 0, x1, x2, ...)."""
    return _head_surgery(ops, ops.T, w, 2)


def apply_w2(ops: AndoOperators, w: FsVec) -> FsVec:
    """(x_n) -> (S x0, (I-S) x0, 0, x1, x2, ...)."""
    return _head_surgery(ops, ops.S, w, 2)


def _block_exchange(ops: AndoOperators, vmat: Mat, w: FsVec) -> FsVec:
    """Apply vmat to each 4-block of coordinates (4b+1 .. 4b+4), head untouched."""
    _require_dim(ops, w)
    d = ops.d
    if d == 0:
        return w
    zero = ops.field.zero()
    out = [(0, w.blocks[0][1])] if (w.blocks and w.blocks[0][0] == 0) else []
    groups: dict[int, list] = {}
    for n, col in w.blocks:
        if n >= 1:
            groups.setdefault((n - 1) // 4, []).append((n, col))
    for b, members in groups.items():  # blocks are sorted, so b increases
        x = [zero] * (4 * d)
        for n, col in members:
            off = (n - 1) % 4 * d
            x[off:off + d] = col
        y = matvec(vmat, x)
        for k in range(4):
            sub = y[k * d:(k + 1) * d]
            if any(sub):
                out.append((4 * b + 1 + k, sub))
    return FsVec(ops.field, d, tuple(out))


def apply_w(ops: AndoOperators, w: FsVec) -> FsVec:
    return _block_exchange(ops, ops.v, w)


def apply_w_inv(ops: AndoOperators, w: FsVec) -> FsVec:
    return _block_exchange(ops, ops.v_inv, w)


def apply_u(ops: AndoOperators, w: FsVec) -> FsVec:
    """U = W after W1."""
    return apply_w(ops, apply_w1(ops, w))


def apply_v(ops: AndoOperators, w: FsVec) -> FsVec:
    """V = W2 after the inverse of W."""
    return apply_w2(ops, apply_w_inv(ops, w))


# -- truncated matrix realizations ------------------------------------------------

OPERATOR_TAGS = ("U", "V", "W1", "W2", "W", "Winv", "SzNagyU")

_ANDO_ACTIONS = {
    "U": apply_u,
    "V": apply_v,
    "W1": apply_w1,
    "W2": apply_w2,
    "W": apply_w,
    "Winv": apply_w_inv,
}


def truncated_matrix(tag: str, ops, trunc: int) -> Mat:
    """Matrix of one operator from the truncation at level K into level K+1.

    Input space: coordinates 0..4K (dimension d(4K+1)); output space:
    coordinates 0..4K+4.  Columns are the lazy images of the embedded standard
    basis vectors, so the matrix realization can be checked against the lazy
    one entry by entry.

    Truncations nest.  The image of coordinate n must lie below coordinate
    4k+5, where k = ceil(n/4) is the lowest level holding n; otherwise
    SupportOverflow is raised.  So for every k <= K the level-k matrix is
    exactly the leading d(4k+5) x d(4k+1) block of the level-K matrix, with
    zeros below it, and one build serves every lower level.
    """
    if trunc < 0:
        raise ValueError("truncation level must be >= 0")
    if tag == "SzNagyU":
        if not isinstance(ops, SzNagyOperators):
            raise TypeError("tag 'SzNagyU' needs SzNagyOperators")
        action = sznagy_apply_u
    elif tag in _ANDO_ACTIONS:
        if not isinstance(ops, AndoOperators):
            raise TypeError(f"tag {tag!r} needs AndoOperators")
        action = _ANDO_ACTIONS[tag]
    else:
        raise ValueError(f"unknown operator tag {tag!r}")
    d, field = ops.d, ops.field
    n_in, n_out = 4 * trunc + 1, 4 * trunc + 5
    one = field.one()
    cols = []
    for n in range(n_in):
        level = (n + 3) // 4
        for i in range(d):
            e = tuple(one if k == i else field.zero() for k in range(d))
            img = action(ops, FsVec(field, d, ((n, e),)))
            if img.max_support() >= 4 * level + 5:
                raise SupportOverflow(
                    f"{tag} pushed coordinate {n} to {img.max_support()}, past level {level + 1}"
                )
            cols.append(to_coords(img, n_out))
    return from_cols(field, d * n_out, cols)
