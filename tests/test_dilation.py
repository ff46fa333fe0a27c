import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exactdilation.dilation as dilation_mod
from exactdilation.dilation import (
    AndoOperators,
    Generators,
    NotCommuting,
    OPERATOR_TAGS,
    SupportOverflow,
    ando,
    apply_batch,
    apply_u,
    apply_v,
    apply_w,
    apply_w1,
    apply_w2,
    apply_w_inv,
    build_generators,
    build_v,
    level_shape,
    sznagy,
    sznagy_apply_u,
    truncated_matrix,
)
from exactdilation.fields import RATIONAL, gf
from exactdilation.linalg import (
    DimensionMismatch,
    Mat,
    from_cols,
    hstack,
    identity,
    inverse,
    kernel_basis,
    mat,
    matvec,
    rank,
    rref,
    vstack,
    zeros,
    _span,
)
from exactdilation.pairs import RECIPE_KINDS, PairRecipe, gen_pair
from exactdilation.rng import SplitMix64, rand_column, rand_matrix
from exactdilation.sequences import (
    Batch,
    embed,
    fsvec,
    project,
    side_by_side,
    to_coords,
)
from exactdilation.verify import CheckParams, check_ando

from oracles import (
    col_to_plain,
    lazy_action,
    plain_complete_basis,
    plain_matvec,
    plain_pow_vec,
    to_plain,
)
from test_linalg import assert_canonical

GF7 = gf(7)
FIELDS = (RATIONAL, GF7)

JORDAN = mat(RATIONAL, [[1, 1], [0, 1]])

SINGLE_ACTIONS = {"U": apply_u, "V": apply_v, "W1": apply_w1, "W2": apply_w2, "W": apply_w,
                  "Winv": apply_w_inv, "SzNagyU": sznagy_apply_u}


def rand_fsvec(rng, field, d, max_coord, density=2):
    items = []
    for n in range(max_coord + 1):
        if rng.below(density) == 0:
            items.append((n, rand_column(rng, field, d, height=4)))
    return fsvec(field, d, items)


def columns(b):
    """The columns of a batch, each as one sequence."""
    return [Batch.of(b.field, b.dim, 1, {n: from_cols(b.field, b.dim, [x.col(c)])
                                         for n, x in b.blocks.items()})
            for c in range(b.width)]


# -- single-map action ------------------------------------------------------------


def test_sznagy_apply_identity_map():
    ops = sznagy(identity(RATIONAL, 2))
    w = embed(RATIONAL, (1, 2))
    assert sznagy_apply_u(ops, w) == w  # (I-T) = 0 kills coordinate 1


def test_sznagy_apply_zero_map():
    ops = sznagy(zeros(RATIONAL, 2, 2))
    got = sznagy_apply_u(ops, embed(RATIONAL, (1, 2)))
    assert got == fsvec(RATIONAL, 2, {1: (1, 2)})


def test_sznagy_apply_jordan_block():
    # T x = (1,1), (I-T) x = (-1,0) for x = (0,1)
    ops = sznagy(JORDAN)
    got = sznagy_apply_u(ops, embed(RATIONAL, (0, 1)))
    assert got == fsvec(RATIONAL, 2, {0: (1, 1), 1: (-1, 0)})


def test_sznagy_apply_shifts_tail_by_one():
    ops = sznagy(zeros(RATIONAL, 1, 1))
    got = sznagy_apply_u(ops, fsvec(RATIONAL, 1, {0: (5,), 1: (7,), 3: (9,)}))
    assert got == fsvec(RATIONAL, 1, {1: (5,), 2: (7,), 4: (9,)})


def test_sznagy_dimension_mismatch():
    ops = sznagy(identity(RATIONAL, 2))
    with pytest.raises(DimensionMismatch):
        sznagy_apply_u(ops, embed(RATIONAL, (1,)))
    with pytest.raises(DimensionMismatch):
        sznagy_apply_u(ops, embed(GF7, (1, 1)))
    with pytest.raises(DimensionMismatch, match="T must be 2x2 over rational, got 2x3"):
        sznagy(zeros(RATIONAL, 2, 3))


@pytest.mark.parametrize("field", FIELDS)
def test_sznagy_dilation_equation_random(field):
    rng = SplitMix64(11)
    for _ in range(10):
        d = rng.randint(0, 4)
        t = rand_matrix(rng, field, d)
        ops = sznagy(t)
        tp = to_plain(t)
        for _ in range(3):
            x = rand_column(rng, field, d)
            w = embed(field, x)
            for n in range(7):
                want = plain_pow_vec(tp, n, col_to_plain(field, x), field.modulus)
                assert list(project(w)) == want
                w = sznagy_apply_u(ops, w)


@pytest.mark.parametrize("field", FIELDS)
def test_sznagy_truncations_injective(field):
    rng = SplitMix64(12)
    for _ in range(6):
        d = rng.randint(0, 4)
        ops = sznagy(rand_matrix(rng, field, d))
        for k in range(4):
            m = truncated_matrix("SzNagyU", ops, k)
            assert m.rows == d * (4 * k + 5) and m.cols == d * (4 * k + 1)
            assert rank(m) == m.cols


# -- half-shift actions ---------------------------------------------------------------


def _ando_identity(field, d):
    ident = identity(field, d)
    return ando(ident, ident)


def test_half_shift_examples():
    ops = _ando_identity(RATIONAL, 2)
    w = embed(RATIONAL, (1, 2))
    assert apply_w1(ops, w) == w
    assert apply_w2(ops, w) == w

    zero2 = zeros(RATIONAL, 2, 2)
    ops0 = ando(zero2, zero2)
    assert apply_w1(ops0, w) == fsvec(RATIONAL, 2, {1: (1, 2)})
    got = apply_w1(ops0, fsvec(RATIONAL, 2, {0: (1, 2), 1: (3, 4)}))
    assert got == fsvec(RATIONAL, 2, {1: (1, 2), 3: (3, 4)})  # tail shifts by two


def test_half_shift_dimension_mismatch():
    ops = _ando_identity(RATIONAL, 2)
    with pytest.raises(DimensionMismatch):
        apply_w1(ops, embed(RATIONAL, (1, 2, 3)))


@pytest.mark.parametrize("tag", OPERATOR_TAGS)
def test_every_action_rejects_wrong_dimension_or_field(tag):
    ops = sznagy(identity(RATIONAL, 2)) if tag == "SzNagyU" else _ando_identity(RATIONAL, 2)
    single = SINGLE_ACTIONS[tag]
    for bad in (embed(RATIONAL, (1, 2, 3)), embed(GF7, (1, 1)), fsvec(GF7, 2, {}),
                side_by_side([embed(GF7, (1, 1)), embed(GF7, (0, 1))])):
        with pytest.raises(DimensionMismatch):
            single(ops, bad)
        with pytest.raises(DimensionMismatch):
            apply_batch(tag, ops, bad)
    with pytest.raises(DimensionMismatch):  # one batch holds one field and one dimension
        Batch.of(RATIONAL, 2, 1, {0: embed(RATIONAL, (1, 2)).blocks[0],
                                  1: embed(GF7, (1, 1)).blocks[0]})


@pytest.mark.parametrize("tag", OPERATOR_TAGS)
def test_the_action_table_holds_the_public_actions(tag):
    # one definition per operator: the audit, truncated_matrix and callers of the
    # public names all run the same function
    assert dilation_mod._ACTIONS[tag] is SINGLE_ACTIONS[tag]


@pytest.mark.parametrize("tag", OPERATOR_TAGS)
def test_every_action_refuses_the_other_kind_before_reading_it(tag):
    # the kind is checked before any operand is read, so the wrong tuple is a
    # TypeError through either entry, never an AttributeError
    sops, ops = sznagy(identity(RATIONAL, 2)), _ando_identity(RATIONAL, 2)
    wrong = ops if tag == "SzNagyU" else sops
    for w in (embed(RATIONAL, (1, 2)), fsvec(RATIONAL, 2, {3: (1, 0), 6: (0, 1)})):
        with pytest.raises(TypeError):
            SINGLE_ACTIONS[tag](wrong, w)
        with pytest.raises(TypeError):
            apply_batch(tag, wrong, w)


# -- generators --------------------------------------------------------------------------


def test_generators_identity_pair_vanish():
    ident = identity(RATIONAL, 3)
    gens = build_generators(ident, ident)
    assert gens.G == zeros(RATIONAL, 12, 3)
    assert gens.H == zeros(RATIONAL, 12, 3)


def test_generators_zero_pair():
    zero = zeros(GF7, 2, 2)
    gens = build_generators(zero, zero)
    expected = vstack(zeros(GF7, 2, 2), zeros(GF7, 2, 2), identity(GF7, 2), zeros(GF7, 2, 2))
    assert gens.G == expected and gens.H == expected


def test_generators_match_defining_formula():
    # independent recomputation with stdlib Fractions
    t, s = JORDAN, JORDAN @ JORDAN
    gens = build_generators(t, s)
    tp, sp = to_plain(t), to_plain(s)
    d = 2
    eye = [[Fraction(i == j) for j in range(d)] for i in range(d)]
    for i in range(d):
        e = [Fraction(k == i) for k in range(d)]
        se = plain_matvec(sp, e)
        te = plain_matvec(tp, e)
        g_top = [se[r] - sum(tp[r][c] * se[c] for c in range(d)) for r in range(d)]
        g_mid = [e[r] - se[r] for r in range(d)]
        h_top = [te[r] - sum(sp[r][c] * te[c] for c in range(d)) for r in range(d)]
        h_mid = [e[r] - te[r] for r in range(d)]
        assert col_to_plain(RATIONAL, gens.G.col(i)) == g_top + [0] * d + g_mid + [0] * d
        assert col_to_plain(RATIONAL, gens.H.col(i)) == h_top + [0] * d + h_mid + [0] * d


def _same_span(a, b):
    return rank(a) == rank(b) == rank(hstack(a, b))


def _pairs_with_common_fixed_vectors(field, rng, d):
    """Random pairs, mostly not commuting, that share a fixed space of dim >= 1:
    Q diag(1, A) Q^-1 and Q diag(1, B) Q^-1 with A, B, Q random."""
    one, zero = field.one(), field.zero()

    def bordered(a):
        rows = [(one,) + (zero,) * (d - 1)]
        rows += [(zero,) + row for row in a.entries]
        return mat(field, rows)

    q = rand_matrix(rng, field, d)
    while rank(q) < d:
        q = rand_matrix(rng, field, d)
    q_inv = inverse(q)
    a, b = rand_matrix(rng, field, d - 1), rand_matrix(rng, field, d - 1)
    return q @ bordered(a) @ q_inv, q @ bordered(b) @ q_inv


@pytest.mark.parametrize("field", FIELDS)
def test_generator_kernels_agree_on_random_pairs(field):
    # ker G = ker H = ker(I-T) ∩ ker(I-S) for every square pair, commuting or
    # not, which is why build_generators needs no kernel tripwire; a column is a
    # pivot exactly when no kernel vector ends at it, so G and H share their pivot
    # columns in either scan, and build_v extends G e_i -> H e_i on every pair
    rng = SplitMix64(31)
    pairs = [gen_pair(PairRecipe(kind, d, field, seed=seed))
             for kind in ("polynomial", "idempotent", "diagonal")
             for d in (1, 3) for seed in range(3)]
    pairs += [(rand_matrix(rng, field, 3), rand_matrix(rng, field, 3)) for _ in range(4)]
    pairs += [_pairs_with_common_fixed_vectors(field, rng, d) for d in (1, 2, 3) for _ in range(3)]
    pairs += [(identity(field, 2), identity(field, 2)),
              (mat(field, [[1, 1], [0, 1]]), identity(field, 2))]
    nontrivial = noncommuting = 0
    for t, s in pairs:
        ident = identity(field, t.rows)
        fixed = kernel_basis(vstack(ident - t, ident - s))
        gens = build_generators(t, s)
        assert _same_span(kernel_basis(gens.G), fixed)
        assert _same_span(kernel_basis(gens.H), fixed)
        for scan in ("forward", "reverse"):
            assert _span(gens.G, scan)[0] == _span(gens.H, scan)[0]
            v, v_inv = build_v(t, s, completion=scan)
            assert v @ gens.G == gens.H
            assert v_inv @ v == identity(field, 4 * t.rows)
        nontrivial += fixed.cols > 0
        noncommuting += t @ s != s @ t
    assert nontrivial >= 10 and noncommuting >= 5


# Polynomials of the free algebra Z<t, s>, where ts != st: dicts from a word (a
# string over "ts", read left to right as a product) to a nonzero int.  Sorting
# each word (``_commuted``) maps them onto Z[t, s], where ts = st.


def _poly_add(*polys):
    out = {}
    for p in polys:
        for w, c in p.items():
            out[w] = out.get(w, 0) + c
    return {w: c for w, c in out.items() if c}


def _poly_mul(*polys):
    out = {"": 1}
    for p in polys:
        out = _poly_add(*({w + v: c * e} for w, c in out.items() for v, e in p.items()))
    return out


def _poly_neg(p):
    return {w: -c for w, c in p.items()}


def _commuted(blocks):
    """A block matrix of polynomials, as lists of rows, mapped onto Z[t, s]."""
    return [[_poly_add(*({"".join(sorted(w)): c} for w, c in p.items())) for p in row]
            for row in blocks]


def _block_mul(a, b):
    """The product of two block matrices of polynomials, as lists of rows."""
    return [[_poly_add(*(_poly_mul(x, y) for x, y in zip(row, col))) for col in zip(*b)]
            for row in a]


_ONE, _T, _S = {"": 1}, {"t": 1}, {"s": 1}
_P, _Q = _poly_add(_ONE, _poly_neg(_T)), _poly_add(_ONE, _poly_neg(_S))  # 1 - t, 1 - s
# the four block rows of G and of H, as build_generators states them
_G = [_poly_mul(_P, _S), {}, _Q, {}]
_H = [_poly_mul(_Q, _T), {}, _P, {}]


def test_kernel_lemma_is_an_identity():
    # ker G = ker H for any square T and S: each block row of H is a left combination
    # of the block rows of G, and back, in Z<t, s>, so with no commutation at all
    assert _poly_mul(_T, _S) != _poly_mul(_S, _T)
    one_minus_t = _poly_add(_G[0], _poly_mul(_P, _G[2]))
    assert one_minus_t == _P
    assert _H[2] == one_minus_t
    assert _H[0] == _poly_add(_G[2], _poly_neg(_poly_mul(_Q, one_minus_t)))
    one_minus_s = _poly_add(_H[0], _poly_mul(_Q, _H[2]))  # the mirror, G and H swapped
    assert one_minus_s == _Q
    assert _G[2] == one_minus_s
    assert _G[0] == _poly_add(_H[2], _poly_neg(_poly_mul(_P, one_minus_s)))
    assert [_H[1], _H[3], _G[1], _G[3]] == [{}] * 4


def _at(p, t, s, blocks=None):
    """The matrix p(T, S), each further letter read as its d x d matrix in ``blocks``."""
    field, d = t.field, t.rows
    letters = {"t": t, "s": s, **(blocks or {})}
    out = zeros(field, d, d)
    for w, c in p.items():
        m = identity(field, d)
        for letter in w:
            m = m @ letters[letter]
        out = out + Mat.from_ints(field, d, d, [[c * x for x in r] for r in m.ints], m.den)
    return out


@pytest.mark.parametrize("field", FIELDS)
def test_kernel_lemma_polynomials_are_the_built_generators(field):
    # the identity above is about the matrices build_generators makes: its block
    # polynomials, evaluated at non-commuting pairs, are G and H
    rng, pairs = SplitMix64(37), []
    while len(pairs) < 4:
        t, s = (rand_matrix(rng, field, 2 + len(pairs) % 3) for _ in range(2))
        if t @ s != s @ t:
            pairs.append((t, s))
    for t, s in pairs:
        gens = build_generators(t, s)
        assert gens.G == vstack(*(_at(p, t, s) for p in _G))
        assert gens.H == vstack(*(_at(p, t, s) for p in _H))


def test_head_surgery_is_injective_as_an_identity():
    # SzNagyU, W1 and W2 send x0 to M x0 at coordinate 0 and (1 - M) x0 at
    # coordinate 1, with M = t or s; the two sum to x0, so x0 is read back off
    # the head, and the tail is handed on, re-keyed: each action is injective
    for m in (_T, _S):
        assert _poly_add(m, _poly_add(_ONE, _poly_neg(m))) == _ONE


@pytest.mark.parametrize("field", FIELDS)
def test_head_surgery_blocks_are_m_and_one_minus_m(field):
    # the identity above is about the actions the package runs: evaluated at
    # non-commuting pairs, the head blocks are M and 1 - M, summing to I (a
    # missing block reads as zero), and the tail blocks only move up; one pair at
    # each d in 1..4, not commuting from d 2 on
    rng, pairs = SplitMix64(10), []
    while len(pairs) < 4:
        t, s = (rand_matrix(rng, field, len(pairs) + 1) for _ in range(2))
        if t.rows == 1 or t @ s != s @ t:
            pairs.append((t, s))
    for t, s in pairs:
        d, eye = t.rows, identity(field, 4 * t.rows)
        two_maps = AndoOperators(t, s, eye, eye)  # W1 and W2 read T and S alone
        for tag, ops, m, shift in (("SzNagyU", sznagy(t), _T, 1), ("W1", two_maps, _T, 2),
                                   ("W2", two_maps, _S, 2)):
            image = apply_batch(tag, ops, Batch.basis(field, d, [0])).blocks
            assert set(image) <= {0, 1}
            head = [image.get(n, zeros(field, d, d)) for n in (0, 1)]
            assert head == [_at(m, t, s), _at(_poly_add(_ONE, _poly_neg(m)), t, s)]
            assert head[0] + head[1] == identity(field, d)
            tail = Batch.basis(field, d, range(1, 5))
            assert apply_batch(tag, ops, tail).blocks == {
                n + shift: x for n, x in tail.blocks.items()}


# A closed-form exchange map: with P = 1 - t and Q = 1 - s, v and v_inv are 4 x 4
# block matrices of polynomials, rows over the four slots of a group, that need
# no elimination.  Slot 4 is left alone.
_Z, _MINUS_ONE = {}, {"": -1}
_V = [[_Z, _MINUS_ONE, _T, _Z],
      [_Q, _MINUS_ONE, _poly_neg(_poly_mul(_P, _S)), _Z],
      [_ONE, _Z, _P, _Z],
      [_Z, _Z, _Z, _ONE]]
_V_INV = [[_poly_neg(_P), _P, _poly_add(_ONE, _poly_neg(_poly_mul(_P, _Q))), _Z],
          [_poly_neg(_P), _poly_neg(_T), _poly_mul(_T, _Q), _Z],
          [_ONE, _MINUS_ONE, _Q, _Z],
          [_Z, _Z, _Z, _ONE]]
_EYE = [[_ONE if i == j else _Z for j in range(4)] for i in range(4)]
_CLOSED_FORM_PARAMS = CheckParams(3, 2, 3, 1)


def test_closed_form_exchange_map_is_an_identity():
    # v G = H, v v_inv = I and v_inv v = I hold in Z[t, s], so for every commuting
    # pair over every field; each needs ts = st, and fails in Z<t, s>
    claims = ((_block_mul(_V, [[g] for g in _G]), [[h] for h in _H]),
              (_block_mul(_V, _V_INV), _EYE), (_block_mul(_V_INV, _V), _EYE))
    for got, want in claims:
        assert _commuted(got) == _commuted(want)
        assert got != want
    # a sign flipped in any nonzero block of v_inv breaks v v_inv = I
    for i, j in itertools.product(range(4), repeat=2):
        if _V_INV[i][j]:
            flipped = [row[:] for row in _V_INV]
            flipped[i][j] = _poly_neg(flipped[i][j])
            assert _commuted(_block_mul(_V, flipped)) != _EYE


def _closed_form(blocks, t, s):
    """The block matrix of polynomials ``blocks`` evaluated at (T, S)."""
    return vstack(*(hstack(*(_at(p, t, s) for p in row)) for row in blocks))


@pytest.mark.parametrize("field", (RATIONAL, GF7, gf(2)))
def test_closed_form_exchange_map_is_built_and_audited(field):
    # the identities tied to the code: on commuting recipe pairs, the evaluated
    # map sends build_generators' G to its H, v_inv is its inverse, and the
    # tuple passes every record of check_ando
    for kind, d, seed in itertools.product(RECIPE_KINDS, range(5), range(2)):
        t, s = gen_pair(PairRecipe(kind, d, field, seed=seed))
        v, v_inv = _closed_form(_V, t, s), _closed_form(_V_INV, t, s)
        gens = build_generators(t, s)
        assert v @ gens.G == gens.H
        assert v @ v_inv == identity(field, 4 * d) == v_inv @ v
        assert check_ando(AndoOperators(t, s, v, v_inv), _CLOSED_FORM_PARAMS).passed


def test_closed_form_exchange_map_negative_controls():
    # the audit tells the closed form from v = v_inv = I and from v and v_inv
    # swapped, on the Q polynomial pairs (a swap can pass elsewhere, say over GF(2))
    for d, seed in itertools.product(range(1, 5), range(2)):
        t, s = gen_pair(PairRecipe("polynomial", d, RATIONAL, seed=seed))
        v, v_inv = _closed_form(_V, t, s), _closed_form(_V_INV, t, s)
        eye = identity(RATIONAL, 4 * d)
        report = check_ando(AndoOperators(t, s, eye, eye), _CLOSED_FORM_PARAMS)
        assert not {c.name: c for c in report.checks}["v_coherence"].passed
        assert not check_ando(AndoOperators(t, s, v_inv, v), _CLOSED_FORM_PARAMS).passed


# The reduction lemma.  The 16 blocks of v are the letters a-p and those of v_inv
# the letters A-P, row by row, so no two of the 34 letters commute.  The actions
# below are the package's, written once more on sequences of polynomials: dicts
# from a coordinate to its nonzero block, applied to the unit block x.
_VB = [[{chr(ord("a") + 4 * i + j): 1} for j in range(4)] for i in range(4)]
_VB_INV = [[{chr(ord("A") + 4 * i + j): 1} for j in range(4)] for i in range(4)]


def _seq_add(*seqs):
    out = {}
    for q in seqs:
        for n, p in q.items():
            out[n] = _poly_add(out.get(n, {}), p)
    return {n: p for n, p in out.items() if p}


def _seq_neg(q):
    return {n: _poly_neg(p) for n, p in q.items()}


def _sym_head(m, x):
    """W1 (m = t) or W2 (m = s): the head surgery, and the tail moved up two."""
    one_minus_m = _poly_add(_ONE, _poly_neg(m))
    head = {0: _poly_mul(m, x[0]), 1: _poly_mul(one_minus_m, x[0])} if 0 in x else {}
    return _seq_add(head, {n + 2: p for n, p in x.items() if n})


def _sym_exchange(blocks, x):
    """W (``_VB``) or W_inv (``_VB_INV``) on every 4-block group past the head."""
    out = {0: x[0]} if 0 in x else {}
    for g in {(n - 1) // 4 for n in x if n}:
        image = _block_mul(blocks, [[x.get(4 * g + 1 + j, {})] for j in range(4)])
        out = _seq_add(out, {4 * g + 1 + k: p for k, (p,) in enumerate(image)})
    return out


def _sym_u(x):
    return _sym_exchange(_VB, _sym_head(_T, x))


def _sym_v(x):
    return _sym_head(_S, _sym_exchange(_VB_INV, x))


def _minus_eye(blocks):
    return [[_poly_add(p, _poly_neg(e)) for p, e in zip(row, eye)]
            for row, eye in zip(blocks, _EYE)]


def _defect_terms(n):
    """UV - VU on the unit block at coordinate n, as four terms: TS - ST at 0 and
    vG - H on 1..4, for n = 0 alone; column j of v v_inv - I on group g + 1, for
    n = 4g + j + 1; and minus v_inv v - I applied to the group W1 puts x in,
    moved up two coordinates: slot j' of group g' for n + 2 = 4g' + j' + 1, or
    (1 - t) at slot 0 of group 0 for n = 0."""
    terms = [{}, {}, {}, {}]
    if n == 0:
        terms[0] = {0: _poly_add(_poly_mul(_T, _S), _poly_neg(_poly_mul(_S, _T)))}
        vg = _block_mul(_VB, [[g] for g in _G])
        terms[1] = {1 + k: _poly_add(p, _poly_neg(h)) for k, ((p,), h) in enumerate(zip(vg, _H))}
    else:
        g, j = divmod(n - 1, 4)
        vvi = _minus_eye(_block_mul(_VB, _VB_INV))
        terms[3] = {4 * g + 5 + k: vvi[k][j] for k in range(4)}
    g, j = divmod(n + 1, 4) if n else (0, 0)
    viv = _minus_eye(_block_mul(_VB_INV, _VB))
    c = _ONE if n else _P
    terms[2] = {4 * g + 3 + k: _poly_neg(_poly_mul(viv[k][j], c)) for k in range(4)}
    return [_seq_add(term) for term in terms]


def test_reduction_lemma_is_an_identity():
    # UV - VU is exactly the four defect terms in Z<t, s, a..p, A..P>, at every slot
    # of the first three groups; TS = ST, vG = H and v_inv v = I zero each term (v
    # v_inv = I follows over a field, v being square), so they give UV = VU on all
    # of W.  Dropping or negating any one term breaks the identity.
    needed = set()
    for n in range(13):
        x = {n: _ONE}
        commutator = _seq_add(_sym_u(_sym_v(x)), _seq_neg(_sym_v(_sym_u(x))))
        terms = _defect_terms(n)
        assert commutator == _seq_add(*terms)
        for i, term in enumerate(terms):
            if term:
                needed.add(i)
                for changed in ({}, _seq_neg(term)):
                    assert commutator != _seq_add(*terms[:i], changed, *terms[i + 1:])
    assert needed == {0, 1, 2, 3}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("d", (1, 2, 3))
def test_reduction_lemma_terms_are_the_lazy_commutator(field, d):
    # the identity above is about the actions the package runs: at T and S that do
    # not commute (from d 2 on) and v and v_inv that are not inverse, the four
    # terms, evaluated through Mat, are UV - VU as apply_batch makes it, on the
    # unit block at every slot of the first groups and of a group far out
    rng = SplitMix64(150 + d)
    while True:
        t, s = (rand_matrix(rng, field, d) for _ in range(2))
        vb, vb_inv = ([[rand_matrix(rng, field, d) for _ in range(4)] for _ in range(4)]
                      for _ in range(2))
        v, v_inv = (vstack(*(hstack(*row) for row in b)) for b in (vb, vb_inv))
        if (d == 1 or t @ s != s @ t) and v_inv @ v != identity(field, 4 * d):
            break
    blocks = {chr(ord(first) + 4 * i + j): b[i][j] for first, b in (("a", vb), ("A", vb_inv))
              for i, j in itertools.product(range(4), repeat=2)}
    ops, zero = AndoOperators(t, s, v, v_inv), zeros(field, d, d)
    for n in [*range(9), *range(2**40, 2**40 + 4)]:
        unit = Batch.basis(field, d, [n])
        uv, vu = (apply_batch(a, ops, apply_batch(b, ops, unit)).blocks for a, b in ("UV", "VU"))
        got = {k: uv.get(k, zero) - vu.get(k, zero) for k in uv.keys() | vu.keys()}
        want = {k: _at(p, t, s, blocks) for k, p in _seq_add(*_defect_terms(n)).items()}
        assert {k: m for k, m in got.items() if not m.is_zero()} == {
            k: m for k, m in want.items() if not m.is_zero()} != {}


def test_generators_shape_validation():
    with pytest.raises(DimensionMismatch):
        build_generators(identity(RATIONAL, 2), identity(RATIONAL, 3))
    with pytest.raises(DimensionMismatch):
        build_generators(identity(RATIONAL, 2), identity(GF7, 2))
    with pytest.raises(DimensionMismatch):
        build_generators(zeros(RATIONAL, 2, 3), zeros(RATIONAL, 2, 3))


# -- the exchange map ---------------------------------------------------------------------


def test_build_v_identity_pair_gives_identity():
    ident = identity(RATIONAL, 2)
    v, v_inv = build_v(ident, ident)
    assert v == identity(RATIONAL, 8)
    assert v_inv == identity(RATIONAL, 8)


def test_build_v_fixes_generators_when_equal():
    t = JORDAN
    gens = build_generators(t, t)  # G == H, so v must fix every generator column
    v, _ = build_v(t, t)
    assert v @ gens.G == gens.G


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("completion", ["forward", "reverse"])
def test_build_v_coherent_and_invertible(field, completion):
    t = mat(field, [[1, 1], [0, 1]])
    s = t @ t
    gens = build_generators(t, s)
    v, v_inv = build_v(t, s, completion=completion)
    assert v @ gens.G == gens.H
    assert v_inv @ gens.H == gens.G
    assert v @ v_inv == identity(field, 8)
    assert v_inv @ v == identity(field, 8)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["polynomial", "upper_triangular", "diagonal", "idempotent"]),
       d=st.integers(0, 5), seed=st.integers(0, 2**32))
@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("completion", ["forward", "reverse"])
def test_build_v_is_the_plain_change_of_basis(field, completion, kind, d, seed):
    # v = target source^-1 and v_inv = v^-1, with both 4d x 4d inverses taken
    # whole and both families completed by the greedy oracle
    t, s = gen_pair(PairRecipe(kind=kind, dim=d, field=field, seed=seed))
    for t, s in ((t, s), (s, t), (t, t), (identity(field, d), zeros(field, d, d))):
        gens = build_generators(t, s)
        _, pivots = rref(gens.G)
        source, target = (from_cols(field, 4 * d, cols + [
            [int(i == k) for i in range(4 * d)] for k in plain_complete_basis(
                cols, 4 * d, field.modulus, reverse=completion == "reverse")])
            for cols in ([m.col(j) for j in pivots] for m in (gens.G, gens.H)))
        v, v_inv = build_v(t, s, completion=completion)
        assert v == target @ inverse(source)
        assert v_inv == inverse(v)


def _mod(m, p):
    """The reduction mod p of a Q matrix whose denominator p does not divide."""
    return Mat.from_ints(gf(p), m.rows, m.cols, m.ints, m.den)


def test_reduction_mod_p_commutes_with_the_construction():
    # metamorphic relation: where p divides no denominator of T, S, v or v_inv and
    # G and H span alike mod p, building over GF(p) and reducing the Q build agree
    params = CheckParams(max_power=2, max_trunc=1, trials=2)
    in_scope = 0
    for kind, d, seed in itertools.product(RECIPE_KINDS, (1, 2, 3), range(3)):
        t, s = gen_pair(PairRecipe(kind, d, RATIONAL, seed=seed))
        ops, gens = ando(t, s), build_generators(t, s)
        tops = tuple(truncated_matrix(tag, ops, 2) for tag in "UV")
        for p in (3, 7, 101):
            if any(m.den % p == 0 for m in (t, s, ops.v, ops.v_inv)):
                continue
            t_p, s_p = _mod(t, p), _mod(s, p)
            gens_p = build_generators(t_p, s_p)
            if any(_span(m, "forward") != _span(m_p, "forward")
                   for m, m_p in ((gens.G, gens_p.G), (gens.H, gens_p.H))):
                continue
            in_scope += 1
            ops_p = ando(t_p, s_p)
            assert (ops_p.v, ops_p.v_inv) == (_mod(ops.v, p), _mod(ops.v_inv, p))
            tops_p = tuple(truncated_matrix(tag, ops_p, 2) for tag in "UV")
            assert tops_p == tuple(_mod(m, p) for m in tops)
            reports = (check_ando(ops, params, truncations=tops),
                       check_ando(ops_p, params, truncations=tops_p))
            assert all(r.passed for r in reports)
            ranks = [[c.params for c in r.checks if c.name.startswith("injectivity")]
                     for r in reports]
            assert ranks[0] == ranks[1]
    assert in_scope >= 60


def test_generators_of_different_shapes_or_fields_rejected():
    g = mat(RATIONAL, [[1], [0], [0], [0]])
    for h in (mat(RATIONAL, [[1]] + [[0]] * 7), mat(GF7, [[1], [0], [0], [0]]),
              mat(RATIONAL, [[1, 0], [0, 0], [0, 0], [0, 0]])):
        with pytest.raises(DimensionMismatch):
            Generators(g, h)


def test_build_v_rejects_an_unknown_completion():
    with pytest.raises(ValueError):
        build_v(JORDAN, JORDAN, completion="sideways")


def test_ando_rejects_noncommuting_input():
    t = mat(RATIONAL, [[0, 1], [0, 0]])
    s = mat(RATIONAL, [[0, 0], [1, 0]])
    with pytest.raises(NotCommuting):
        ando(t, s)
    with pytest.raises(DimensionMismatch):
        ando(identity(RATIONAL, 2), identity(GF7, 2))


# -- block exchange action -----------------------------------------------------------------


def test_apply_w_identity_exchange_is_identity():
    ops = _ando_identity(RATIONAL, 2)
    rng = SplitMix64(21)
    for _ in range(5):
        w = rand_fsvec(rng, RATIONAL, 2, 9)
        assert apply_w(ops, w) == w


def test_apply_w_acts_blockwise():
    t = JORDAN
    ops = ando(t, t @ t)
    x = [Fraction(v) for v in (1, 2, 3, 4, 5, 6, 7, 8)]
    w = fsvec(RATIONAL, 2, {1: x[0:2], 2: x[2:4], 3: x[4:6], 4: x[6:8]})
    got = apply_w(ops, w)
    assert project(got) == (Fraction(0), Fraction(0))  # head untouched (and absent)
    y = matvec(ops.v, tuple(x))
    assert to_coords(got, 5)[2:] == y


def test_apply_w_round_trip():
    for field in FIELDS:
        t = mat(field, [[1, 1], [0, 1]])
        ops = ando(t, t @ t)
        rng = SplitMix64(22)
        for _ in range(5):
            w = rand_fsvec(rng, field, 2, 10)
            assert apply_w_inv(ops, apply_w(ops, w)) == w
            assert apply_w(ops, apply_w_inv(ops, w)) == w


# -- the dilating pair --------------------------------------------------------------------


def test_apply_u_identity_pair_fixes_embeddings():
    ops = _ando_identity(RATIONAL, 3)
    w = embed(RATIONAL, (1, 2, 3))
    assert apply_u(ops, w) == w
    assert apply_v(ops, w) == w


def test_zero_pair_compresses_to_zero():
    zero = zeros(RATIONAL, 2, 2)
    ops = ando(zero, zero)
    w = embed(RATIONAL, (3, 5))
    assert project(w) == (Fraction(3), Fraction(5))            # n = m = 0
    assert project(apply_u(ops, w)) == (Fraction(0), Fraction(0))
    assert project(apply_v(ops, w)) == (Fraction(0), Fraction(0))
    assert project(apply_u(ops, apply_v(ops, w))) == (Fraction(0), Fraction(0))


@pytest.mark.parametrize("field", FIELDS)
def test_projected_u_is_t(field):
    rng = SplitMix64(23)
    for seed in range(3):
        t, s = gen_pair(PairRecipe("polynomial", 3, field, seed=seed))
        ops = ando(t, s)
        for _ in range(4):
            x = rand_column(rng, field, 3)
            assert project(apply_u(ops, embed(field, x))) == matvec(t, x)
            assert project(apply_v(ops, embed(field, x))) == matvec(s, x)


@pytest.mark.parametrize("field", FIELDS)
def test_bivariate_dilation_equation_jordan(field):
    t = mat(field, [[1, 1], [0, 1]])
    s = t @ t
    ops = ando(t, s)
    tp, sp = to_plain(t), to_plain(s)
    rng = SplitMix64(24)
    xs = [(field.one(), field.zero()), (field.zero(), field.one())]
    xs += [rand_column(rng, field, 2) for _ in range(3)]
    for x in xs:
        wv = embed(field, x)
        for m in range(4):
            w = wv
            for n in range(4):
                want = plain_pow_vec(tp, n, plain_pow_vec(sp, m, col_to_plain(field, x),
                                                          field.modulus), field.modulus)
                assert list(project(w)) == want
                w = apply_u(ops, w)
            wv = apply_v(ops, wv)


def test_support_discipline():
    t = JORDAN
    ops = ando(t, t @ t)
    rng = SplitMix64(25)
    for _ in range(4):
        x = rand_column(rng, RATIONAL, 2)
        for m in range(4):
            for n in range(4):
                w = embed(RATIONAL, x)
                for _ in range(m):
                    w = apply_v(ops, w)
                for _ in range(n):
                    w = apply_u(ops, w)
                assert w.max_support() <= 4 * (n + m) + 4


# -- truncated realizations ----------------------------------------------------------------


def test_truncated_w_identity_exchange():
    ops = _ando_identity(RATIONAL, 2)
    for k in (0, 1):
        d_in = 2 * (4 * k + 1)
        m = truncated_matrix("W", ops, k)
        assert m == vstack(identity(RATIONAL, d_in), zeros(RATIONAL, 8, d_in))


def test_truncated_sznagy_identity():
    ops = sznagy(identity(RATIONAL, 2))
    m = truncated_matrix("SzNagyU", ops, 0)
    assert m == vstack(identity(RATIONAL, 2), zeros(RATIONAL, 8, 2))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("tag", [t for t in OPERATOR_TAGS if t != "SzNagyU"])
def test_lazy_and_truncated_actions_agree(field, tag):
    t = mat(field, [[1, 1], [0, 1]])
    ops = ando(t, t @ t)
    action = SINGLE_ACTIONS[tag]

    rng = SplitMix64(26)
    k = 2
    m = truncated_matrix(tag, ops, k)
    for _ in range(8):
        w = rand_fsvec(rng, field, 2, 4 * k)
        lazy = to_coords(action(ops, w), 4 * k + 5)
        via_matrix = matvec(m, to_coords(w, 4 * k + 1))
        assert lazy == via_matrix


def test_lazy_and_truncated_sznagy_agree():
    ops = sznagy(JORDAN)
    rng = SplitMix64(27)
    k = 2
    m = truncated_matrix("SzNagyU", ops, k)
    for _ in range(8):
        w = rand_fsvec(rng, RATIONAL, 2, 4 * k)
        assert to_coords(sznagy_apply_u(ops, w), 4 * k + 5) == matvec(m, to_coords(w, 4 * k + 1))


@pytest.mark.parametrize("field", FIELDS)
def test_truncated_commutation_and_injectivity(field):
    for seed in (2, 5):
        t, s = gen_pair(PairRecipe("polynomial", 2, field, seed=seed))
        ops = ando(t, s)
        tu = {k: truncated_matrix("U", ops, k) for k in range(4)}
        tv = {k: truncated_matrix("V", ops, k) for k in range(4)}
        for k in range(3):
            assert tu[k + 1] @ tv[k] == tv[k + 1] @ tu[k]
        for k in range(4):
            assert rank(tu[k]) == tu[k].cols
            assert rank(tv[k]) == tv[k].cols


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("completion", ["forward", "reverse"])
def test_truncations_nest(field, completion):
    # the level-k matrix is the leading block of level k+1, zeros below: the
    # windowed records read every level off one build
    t, s = gen_pair(PairRecipe("polynomial", 2, field, seed=4))
    ando_ops, sznagy_ops = ando(t, s, completion=completion), sznagy(t)
    for tag in OPERATOR_TAGS:
        ops = sznagy_ops if tag == "SzNagyU" else ando_ops
        mats = [truncated_matrix(tag, ops, k) for k in range(5)]
        for low, high in zip(mats, mats[1:]):
            assert tuple(r[:low.cols] for r in high.entries[:low.rows]) == low.entries
            assert all(x == 0 for r in high.entries[low.rows:] for x in r[:low.cols])


def test_support_overflow_checks_each_column_at_its_own_level(monkeypatch):
    # a fake W that pushes coordinate 1 to 9: still inside the level-2 output
    # range (0..12), but past level 1 (0..8), the lowest level holding it
    def far_shift(ops, b):
        return Batch(b.field, b.dim, b.width,
                     {n + 8 if n else 0: x for n, x in b.blocks.items()})

    monkeypatch.setitem(dilation_mod._ACTIONS, "W", far_shift)
    ops = _ando_identity(RATIONAL, 1)
    truncated_matrix("W", ops, 0)
    for k in (1, 2, 5):
        with pytest.raises(SupportOverflow, match="coordinate 1 to 9, past level 2"):
            truncated_matrix("W", ops, k)


def test_wrong_inverse_fails_v_coherence_under_python_O(tmp_path):
    # v_inv v = I is checked by the v_coherence record alone, not by an assert
    # that python -O strips: the audit fails it, and the CLI reports the failure
    script = tmp_path / "wrong_inverse.py"
    script.write_text(
        "import json\n"
        "import exactdilation.dilation as dil\n"
        "from exactdilation import cli\n"
        "from exactdilation.fields import RATIONAL\n"
        "from exactdilation.linalg import mat, zeros\n"
        "from exactdilation.problems import problem_to_dict\n"
        "from exactdilation.verify import CheckParams, check_ando\n"
        "if __debug__:\n"
        "    raise SystemExit('not running under -O')\n"
        "real_build_v = dil.build_v\n"
        "def wrong_inverse(t, s, completion='forward'):\n"
        "    v, _ = real_build_v(t, s, completion)\n"
        "    return v, zeros(v.field, v.rows, v.cols)\n"
        "dil.build_v = wrong_inverse\n"
        "t = mat(RATIONAL, [[1, 1], [0, 1]])\n"
        "def coherence(report):\n"
        "    return next(c for c in report['checks'] if c['name'] == 'v_coherence')\n"
        "report = check_ando(dil.ando(t, t @ t), CheckParams(1, 1, 1)).to_dict()\n"
        "if coherence(report).get('counterexample', {}).get('which') != 'v_inv*v':\n"
        "    raise SystemExit('check_ando passed a wrong inverse')\n"
        "with open('problem.json', 'w') as fh:\n"
        "    json.dump(problem_to_dict(RATIONAL, t, t @ t), fh)\n"
        "code = cli.main(['ando', '--input', 'problem.json', '--out', 'report.json',\n"
        "                 '--max-power', '1', '--trunc', '1', '--trials', '1'])\n"
        "with open('report.json') as fh:\n"
        "    written = json.load(fh)\n"
        "if code != 1 or coherence(written) != coherence(report):\n"
        "    raise SystemExit(f'the CLI exited {code} without the v_inv*v failure')\n",
        encoding="utf-8")
    src_dir = Path(dilation_mod.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    proc = subprocess.run([sys.executable, "-O", str(script)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_truncated_matrix_argument_validation():
    ops = _ando_identity(RATIONAL, 1)
    with pytest.raises(ValueError):
        truncated_matrix("U", ops, -1)
    with pytest.raises(ValueError):
        truncated_matrix("Q", ops, 0)
    with pytest.raises(TypeError):
        truncated_matrix("SzNagyU", ops, 0)
    with pytest.raises(TypeError):
        truncated_matrix("U", sznagy(identity(RATIONAL, 1)), 0)


# -- degenerate dimension ---------------------------------------------------------------------


def test_dimension_zero_everything_is_trivial():
    empty = mat(RATIONAL, [])
    ops = ando(empty, empty)
    w = fsvec(RATIONAL, 0, {})
    assert apply_u(ops, w) == w and apply_v(ops, w) == w
    assert project(apply_u(ops, embed(RATIONAL, ()))) == ()
    m = truncated_matrix("U", ops, 2)
    assert m.rows == 0 and m.cols == 0 and rank(m) == 0

    sops = sznagy(empty)
    assert sznagy_apply_u(sops, w) == w
    assert truncated_matrix("SzNagyU", sops, 1).rows == 0


# -- completion strategy does not matter for the theorem-level claims -------------------------


@pytest.mark.parametrize("field", FIELDS)
def test_reverse_completion_still_dilates(field):
    t, s = gen_pair(PairRecipe("polynomial", 2, field, seed=3))
    ops = ando(t, s, completion="reverse")
    tp, sp = to_plain(t), to_plain(s)
    rng = SplitMix64(28)
    for _ in range(3):
        x = rand_column(rng, field, 2)
        wv = embed(field, x)
        for m in range(3):
            w = wv
            for n in range(3):
                want = plain_pow_vec(tp, n, plain_pow_vec(sp, m, col_to_plain(field, x),
                                                          field.modulus), field.modulus)
                assert list(project(w)) == want
                w = apply_u(ops, w)
            wv = apply_v(ops, wv)
    tu = {k: truncated_matrix("U", ops, k) for k in range(3)}
    tv = {k: truncated_matrix("V", ops, k) for k in range(3)}
    for k in range(2):
        assert tu[k + 1] @ tv[k] == tv[k + 1] @ tu[k]


# -- lazy actions against the plain-list oracle -------------------------------------------------


def _commuting_pair(kind, field, d, rng):
    if kind == "recipe":
        recipe_kind = ("polynomial", "upper_triangular", "diagonal", "idempotent")[rng.below(4)]
        return gen_pair(PairRecipe(recipe_kind, d, field, seed=rng.below(1000)))
    a = rand_matrix(rng, field, d)
    if kind == "nilpotent":
        t = mat(field, [[a.entries[i][j] if j > i else 0 for j in range(d)] for i in range(d)])
        return t, t @ t + t
    if kind == "singular":
        t = mat(field, [[0, *row[1:]] for row in a.entries])
        return t, t @ t - t
    return a, a  # T = S


def _plain_seq(field, w):
    return {n: col_to_plain(field, x.col(0)) for n, x in w.blocks.items()}


@settings(deadline=None, max_examples=30)
@given(field=st.sampled_from(FIELDS), d=st.integers(0, 3),
       completion=st.sampled_from(["forward", "reverse"]),
       kind=st.sampled_from(["recipe", "nilpotent", "singular", "T = S"]),
       seed=st.integers(0, 2**31))
def test_lazy_actions_match_plain_oracle(field, d, completion, kind, seed):
    # the lazy actions and the truncated matrices share one kernel, so both are
    # checked against an oracle that shares no code with the package
    rng = SplitMix64(seed)
    t, s = _commuting_pair(kind, field, d, rng)
    ops, sops = ando(t, s, completion=completion), sznagy(t)
    p = field.modulus
    plain = [to_plain(m) for m in (t, s, ops.v, ops.v_inv)]
    k = 2
    n_in, n_out = 4 * k + 1, 4 * k + 5
    ws = [rand_fsvec(rng, field, d, n_in - 1) for _ in range(3)]
    for tag in OPERATOR_TAGS:
        tag_ops = sops if tag == "SzNagyU" else ops
        single = SINGLE_ACTIONS[tag]
        for w in ws:
            got = _plain_seq(field, single(tag_ops, w))
            assert got == lazy_action(tag, *plain, _plain_seq(field, w), p), (tag, w)
        m = truncated_matrix(tag, tag_ops, k)
        for n in range(n_in):
            for i in range(d):
                e = {n: [1 if j == i else 0 for j in range(d)]}
                want = [0] * (d * n_out)
                for idx, col in lazy_action(tag, *plain, e, p).items():
                    want[idx * d:(idx + 1) * d] = col
                assert list(m.col(n * d + i)) == want, (tag, n, i)
        out = apply_batch(tag, tag_ops, side_by_side(ws))
        assert columns(out) == [single(tag_ops, w) for w in ws], tag
        # a batch stores exactly the coordinates where some column is nonzero
        assert list(out.blocks) == sorted({n for w in columns(out) for n in w.blocks})


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("d", range(5))
def test_truncated_matrix_grid_matches_plain_oracle(field, d):
    # built by columns; its integer grid, a view built when read, is assembled
    # here from the plain-list lazy oracle
    t, s = gen_pair(PairRecipe("polynomial", d, field, seed=30 + d))
    ops, sops = ando(t, s), sznagy(t)
    p = field.modulus
    plain = [to_plain(m) for m in (t, s, ops.v, ops.v_inv)]
    k = 2
    n_in, n_out = 4 * k + 1, 4 * k + 5
    for tag in OPERATOR_TAGS:
        m = truncated_matrix(tag, sops if tag == "SzNagyU" else ops, k)
        assert "ints" not in m.__dict__
        grid = [[0] * (d * n_in) for _ in range(d * n_out)]
        for n in range(n_in):
            for i in range(d):
                e = {n: [1 if j == i else 0 for j in range(d)]}
                for idx, col in lazy_action(tag, *plain, e, p).items():
                    for r, x in enumerate(col):
                        grid[idx * d + r][n * d + i] = m.den * x
        assert all(x == int(x) for row in grid for x in row)
        assert m.ints == tuple(tuple(int(x) for x in row) for row in grid), tag
        assert_canonical(m)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("d", range(5))
def test_levels_of_a_column_form_matrix_are_its_dense_slices(field, d):
    t, s = gen_pair(PairRecipe("polynomial", d, field, seed=40 + d))
    ops, top = ando(t, s), 3
    for tag in ("U", "V", "W"):
        m = truncated_matrix(tag, ops, top)
        for k in range(top + 1):
            rows, cols = level_shape(d, k)
            dense = Mat.from_ints(field, rows, cols, [r[:cols] for r in m.ints[:rows]], m.den)
            want = truncated_matrix(tag, ops, k)
            assert dense == want and hash(dense) == hash(want), (tag, k)
            assert_canonical(dense)


@pytest.mark.parametrize("field", FIELDS)
def test_deep_sznagy_truncation_matches_plain_oracle(field):
    # the level the deep single-map windows reach (max_trunc 14), column by
    # column in integer form, against the plain-list lazy oracle
    d, k = 3, 14
    t, _ = gen_pair(PairRecipe("polynomial", d, field, seed=8))
    m = truncated_matrix("SzNagyU", sznagy(t), k)
    n_in, n_out = 4 * k + 1, 4 * k + 5
    assert (m.rows, m.cols) == (d * n_out, d * n_in)
    plain_t = to_plain(t)
    for n in range(n_in):
        for i in range(d):
            e = {n: [1 if j == i else 0 for j in range(d)]}
            want = [0] * (d * n_out)
            for idx, col in lazy_action("SzNagyU", plain_t, None, None, None, e,
                                        field.modulus).items():
                want[idx * d:(idx + 1) * d] = [m.den * x for x in col]
            assert all(x == int(x) for x in want)
            assert [row[n * d + i] for row in m.ints] == want, (n, i)


@settings(deadline=None, max_examples=20)
@given(field=st.sampled_from(FIELDS), d=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_every_action_keeps_its_batch_in_lowest_terms(field, d, seed):
    # each block of a batch is a canonical Mat of its own, kept as it is when an
    # action hands it on, so every block of every result is checked here
    rng = SplitMix64(seed)
    t, s = gen_pair(PairRecipe("polynomial", d, field, seed=seed))
    ops, sops = ando(t, s), sznagy(t)
    start = side_by_side([rand_fsvec(rng, field, d, 8) for _ in range(3)])
    for tag in OPERATOR_TAGS:
        out = start
        for _ in range(3):
            out = apply_batch(tag, sops if tag == "SzNagyU" else ops, out)
            assert (out.field, out.dim, out.width) == (field, d, 3), tag
            assert list(out.blocks) == sorted(out.blocks)
            for x in out.blocks.values():
                assert_canonical(x)
                assert x.field == field and (x.rows, x.cols) == (d, 3), tag
                assert not x.is_zero(), tag


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("tag, shift", [("W1", 2), ("W2", 2), ("SzNagyU", 1)])
def test_head_surgery_hands_the_tail_on_unchanged(field, tag, shift):
    # only coordinate 0 is multiplied: every tail block comes back as the same
    # object, re-keyed, whatever the denominators of T and of the head
    q = field.is_rational
    t = mat(field, [["1/3", 2], [0, "5/7"]] if q else [[3, 2], [0, 5]])
    ops = sznagy(t) if tag == "SzNagyU" else ando(t, t @ t)
    half, fifth, ninth = ("1/2", "1/5", "2/9") if q else (4, 3, 5)
    w = side_by_side([fsvec(field, 2, {0: (half, 1), 1: (3, fifth), 6: (0, 2)}),
                                fsvec(field, 2, {0: (4, 0), 3: (ninth, 0), 6: (1, 1)})])
    out = apply_batch(tag, ops, w)
    assert [n for n in out.blocks if n > 1] == [n + shift for n in w.blocks if n]
    for n, x in w.blocks.items():
        if n:
            assert out.blocks[n + shift] is x, (tag, n)
    assert out.blocks[0] == (ops.S if tag == "W2" else t) @ w.blocks[0]


# -- the block exchange: one product per distinct 4-block group ----------------------------


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("warm", [False, True], ids=["cleared", "warm"])
def test_truncations_match_plain_oracle_level_by_level_with_group_cache(field, warm,
                                                                        monkeypatch):
    # every level past 0 finds level 1's group products in the cache; each level is
    # checked against the oracle, the cache cleared before the build or filled by an
    # identical build first; each level's basis goes through apply_batch, once
    d, k = 2, 3
    t, s = gen_pair(PairRecipe("polynomial", d, field, seed=61))
    ops, p = ando(t, s), field.modulus
    plain = [to_plain(m) for m in (t, s, ops.v, ops.v_inv)]
    calls, apply_batch = [], dilation_mod.apply_batch
    monkeypatch.setattr(dilation_mod, "apply_batch",
                        lambda *args: calls.append(args[0]) or apply_batch(*args))
    for tag in ("U", "V", "W", "Winv"):
        dilation_mod._group_product.cache_clear()
        if warm:
            truncated_matrix(tag, ops, k)
        calls.clear()
        m = truncated_matrix(tag, ops, k)
        assert calls == [tag] * (k + 1)
        for level in range(k + 1):
            for n in range(4 * level - 3, 4 * level + 1) if level else range(1):
                for i in range(d):
                    want = [0] * (d * (4 * k + 5))
                    e = {n: [1 if j == i else 0 for j in range(d)]}
                    for idx, col in lazy_action(tag, *plain, e, p).items():
                        want[idx * d:(idx + 1) * d] = col
                    assert list(m.col(n * d + i)) == want, (tag, level, n, i)
            rows, cols = level_shape(d, level)
            dense = Mat.from_ints(field, rows, cols, [r[:cols] for r in m.ints[:rows]], m.den)
            assert dense == truncated_matrix(tag, ops, level), (tag, level)


@pytest.mark.parametrize("field, c", [(RATIONAL, -1), (GF7, 6)], ids=["zero", "zero-mod-7"])
def test_block_exchange_stores_no_zero_block(field, c, monkeypatch):
    # v sends (x1, x2, x3, x4) to (x1 + c x2, x2, x3, x4): at x1 = x2 = 1 the first
    # output block is 0, over GF(7) only once the integer product 7 is reduced mod 7,
    # which the packed product does before any block is built: a zero block, over Q
    # as integers and over GF(7) as residues, is never brought to canonical form
    v = mat(field, [[1, c, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    one = identity(field, 1)
    ops = AndoOperators(one, one, v, v)
    w = fsvec(field, 1, {1: (1,), 2: (1,), 7: (1,)})
    assert sum(v.ints[0][:2]) == (7 if field.modulus else 0)
    grids = []
    from_ints = Mat.from_ints
    monkeypatch.setattr(Mat, "from_ints", lambda *a, **k: grids.append(a[3]) or from_ints(*a, **k))
    for b in (w, side_by_side([w, w])):
        dilation_mod._group_product.cache_clear()
        grids.clear()
        out = apply_w(ops, b)
        assert list(out.blocks) == [2, 7]
        assert len(grids) == 2
        assert all(any(map(any, g)) for g in grids)
        for tag in OPERATOR_TAGS[:-1]:
            assert all(not x.is_zero() for x in apply_batch(tag, ops, b).blocks.values()), tag


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("tag, groups", [("U", 2), ("V", 1), ("W", 1), ("Winv", 1),
                                         ("W1", 0), ("W2", 0)])
def test_group_cache_hits_are_the_repeated_levels(field, tag, groups, monkeypatch):
    # every level k >= 1 feeds the same unit blocks, re-keyed: W1 moves them to
    # 4k-1 .. 4k+2, two groups, and V, W and Winv see one group, 4k-3 .. 4k.  Level 1
    # computes its groups and levels 2..K find them; U's level 0 has one group of its
    # own, (I-T) e at coordinate 1
    d, top = 2, 4
    t, s = gen_pair(PairRecipe("polynomial", d, field, seed=62))
    assert not (identity(field, d) - t).is_zero()
    ops = ando(t, s)
    fed = []
    action = dilation_mod._ACTIONS[tag]
    monkeypatch.setitem(dilation_mod._ACTIONS, tag, lambda o, b: fed.append(b) or action(o, b))
    dilation_mod._group_product.cache_clear()
    truncated_matrix(tag, ops, top)
    info = dilation_mod._group_product.cache_info()
    assert (info.hits, info.misses) == (groups * (top - 1), groups + (tag == "U"))
    # the same block objects, so a cache lookup reads their kept hashes and finds
    # its key by identity
    assert len(fed) == top + 1
    assert all(list(map(id, b.blocks.values())) == list(map(id, fed[1].blocks.values()))
               for b in fed[2:])
