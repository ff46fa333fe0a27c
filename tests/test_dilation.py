import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import exactdilation.dilation as dilation_mod
from exactdilation.dilation import (
    ExtensionFailure,
    Generators,
    NotCommuting,
    OPERATOR_TAGS,
    SupportOverflow,
    ando,
    apply_u,
    apply_v,
    apply_w,
    apply_w1,
    apply_w2,
    apply_w_inv,
    build_generators,
    build_v,
    sznagy,
    sznagy_apply_u,
    truncated_matrix,
)
from exactdilation.fields import RATIONAL, gf
from exactdilation.linalg import (
    DimensionMismatch,
    from_cols,
    hstack,
    identity,
    inverse,
    kernel_basis,
    mat,
    matvec,
    rank,
    vstack,
    zeros,
)
from exactdilation.pairs import PairRecipe, gen_pair
from exactdilation.rng import SplitMix64, rand_column, rand_matrix
from exactdilation.sequences import embed, fsvec, project, to_coords, zero_fsvec

from oracles import col_to_plain, plain_matvec, plain_pow_vec, to_plain

GF7 = gf(7)
FIELDS = (RATIONAL, GF7)

JORDAN = mat(RATIONAL, [[1, 1], [0, 1]])


def rand_fsvec(rng, field, d, max_coord, density=2):
    items = []
    for n in range(max_coord + 1):
        if rng.below(density) == 0:
            items.append((n, rand_column(rng, field, d, height=4)))
    return fsvec(field, d, items)


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
    # not, which is why build_generators needs no kernel tripwire
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
        nontrivial += fixed.cols > 0
        noncommuting += t @ s != s @ t
    assert nontrivial >= 10 and noncommuting >= 5


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
    v, v_inv = build_v(build_generators(ident, ident))
    assert v == identity(RATIONAL, 8)
    assert v_inv == identity(RATIONAL, 8)


def test_build_v_fixes_generators_when_equal():
    t = JORDAN
    gens = build_generators(t, t)  # G == H, so v must fix every generator column
    v, _ = build_v(gens)
    assert v @ gens.G == gens.G


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("completion", ["forward", "reverse"])
def test_build_v_coherent_and_invertible(field, completion):
    t = mat(field, [[1, 1], [0, 1]])
    s = t @ t
    gens = build_generators(t, s)
    v, v_inv = build_v(gens, completion=completion)
    assert v @ gens.G == gens.H
    assert v_inv @ gens.H == gens.G
    assert v @ v_inv == identity(field, 8)
    assert v_inv @ v == identity(field, 8)


def test_build_v_rank_mismatch_rejected():
    # handcrafted generator matrices with different ranks (unreachable via
    # build_generators, which forces equal kernels)
    zero4 = tuple(Fraction(0) for _ in range(4))
    e0 = (Fraction(1), Fraction(0), Fraction(0), Fraction(0))
    gens = Generators(from_cols(RATIONAL, 4, [e0]), from_cols(RATIONAL, 4, [zero4]))
    with pytest.raises(ExtensionFailure):
        build_v(gens)


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
    from exactdilation.dilation import _ANDO_ACTIONS

    rng = SplitMix64(26)
    k = 2
    m = truncated_matrix(tag, ops, k)
    for _ in range(8):
        w = rand_fsvec(rng, field, 2, 4 * k)
        lazy = to_coords(_ANDO_ACTIONS[tag](ops, w), 4 * k + 5)
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
    def far_shift(ops, w):
        return fsvec(ops.field, ops.d, [(n + 8 if n else 0, col) for n, col in w.blocks])

    monkeypatch.setitem(dilation_mod._ANDO_ACTIONS, "W", far_shift)
    ops = _ando_identity(RATIONAL, 1)
    truncated_matrix("W", ops, 0)
    for k in (1, 2, 5):
        with pytest.raises(SupportOverflow, match="coordinate 1 to 9, past level 2"):
            truncated_matrix("W", ops, k)


def test_inverse_check_survives_python_O(tmp_path):
    # v v_inv = I is checked nowhere but in ando(), so it must not be an assert
    script = tmp_path / "wrong_inverse.py"
    script.write_text(
        "import exactdilation.dilation as dil\n"
        "from exactdilation.fields import RATIONAL\n"
        "from exactdilation.linalg import mat, zeros\n"
        "if __debug__:\n"
        "    raise SystemExit('not running under -O')\n"
        "real_build_v = dil.build_v\n"
        "def wrong_inverse(gens, completion='forward'):\n"
        "    v, _ = real_build_v(gens, completion)\n"
        "    return v, zeros(v.field, v.rows, v.cols)\n"
        "dil.build_v = wrong_inverse\n"
        "t = mat(RATIONAL, [[1, 1], [0, 1]])\n"
        "try:\n"
        "    dil.ando(t, t @ t)\n"
        "except dil.ExtensionFailure:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('ando accepted a wrong inverse')\n",
        encoding="utf-8")
    src_dir = Path(dilation_mod.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    proc = subprocess.run([sys.executable, "-O", str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
    w = zero_fsvec(RATIONAL, 0)
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
