from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactdilation.fields import RATIONAL, gf
from exactdilation.linalg import (
    DimensionMismatch,
    Mat,
    NotIndependent,
    NotSquare,
    Singular,
    column_ranks,
    complete_basis,
    from_cols,
    hstack,
    identity,
    inverse,
    is_invertible,
    kernel_basis,
    mat,
    matvec,
    rank,
    rref,
    vstack,
    zeros,
)
from exactdilation.rng import SplitMix64, rand_matrix

from oracles import col_to_plain, gauss_rank, plain_matvec, plain_mult, plain_rref, to_plain

GF7 = gf(7)
GF_M61 = gf(2**61 - 1)
FIELDS = (RATIONAL, GF7, GF_M61)
BIG = 2**64


def _zero_col(field, n):
    return tuple(field.zero() for _ in range(n))


def rand_entry(rng, field):
    """Over Q, n/d with d in 1..9 and now and then d >= 2**64; over GF(p), a
    small integer or now and then any residue."""
    n = rng.randint(-9, 9)
    if not field.is_rational:
        return field.from_int(n if rng.below(4) else rng.below(field.modulus))
    return Fraction(n, rng.randint(1, 9) if rng.below(8) else BIG + rng.below(BIG))


def rand_grid(rng, field, r, c):
    return tuple(tuple(rand_entry(rng, field) for _ in range(c)) for _ in range(r))


def random_mats(field, seed, count, max_rows=5, max_cols=6):
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        r, c = rng.below(max_rows + 1), rng.below(max_cols + 1)
        out.append(Mat(field, r, c, rand_grid(rng, field, r, c)))
    return out


# -- construction -----------------------------------------------------------------


def test_mat_coerces_entries():
    m = mat(RATIONAL, [[1, "1/2"], [0, -3]])
    assert m.entries[0][1] == Fraction(1, 2)
    m = mat(GF7, [[-1, "9"]])
    assert m.entries[0] == (6, 2)


def test_mat_shape_validation():
    with pytest.raises(ValueError):
        mat(RATIONAL, [[1, 2], [3]])
    with pytest.raises(ValueError):
        Mat(RATIONAL, 2, 2, ((Fraction(1),),))


def test_stack_and_access():
    a = mat(RATIONAL, [[1, 2], [3, 4]])
    assert a.col(1) == (Fraction(2), Fraction(4))
    assert hstack(a, identity(RATIONAL, 2)).cols == 4
    assert vstack(a, a).rows == 4
    with pytest.raises(DimensionMismatch):
        hstack(a, identity(RATIONAL, 3))
    with pytest.raises(DimensionMismatch):
        vstack(a, zeros(RATIONAL, 1, 3))
    with pytest.raises(DimensionMismatch):
        hstack(a, identity(GF7, 2))


# -- products against the plain oracle ----------------------------------------------


@pytest.mark.parametrize("field", FIELDS)
def test_matmul_matches_oracle(field):
    rng = SplitMix64(71)
    p = field.modulus
    for _ in range(40):
        n, k, m2 = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a = Mat(field, n, k, rand_grid(rng, field, n, k))
        b = Mat(field, k, m2, rand_grid(rng, field, k, m2))
        got = to_plain(a @ b)
        want = plain_mult(to_plain(a), to_plain(b), p, out_cols=m2)
        assert got == want


@pytest.mark.parametrize("field", FIELDS)
def test_matvec_matches_oracle(field):
    rng = SplitMix64(72)
    for _ in range(40):
        n, k = rng.randint(0, 4), rng.randint(0, 4)
        a = Mat(field, n, k, rand_grid(rng, field, n, k))
        (x,) = rand_grid(rng, field, 1, k)
        got = list(matvec(a, x))
        want = plain_matvec(to_plain(a), col_to_plain(field, x), field.modulus)
        assert got == want
    with pytest.raises(DimensionMismatch):
        matvec(identity(field, 2), (field.zero(),))


# -- rref -----------------------------------------------------------------------------


def test_rref_identity():
    r, pivots = rref(identity(RATIONAL, 3))
    assert r == identity(RATIONAL, 3)
    assert pivots == (0, 1, 2)


def test_rref_zero():
    r, pivots = rref(zeros(GF7, 2, 3))
    assert r == zeros(GF7, 2, 3)
    assert pivots == ()


def test_rref_hand_example():
    # hand reduction: R1 <- R1/2 gives [1,2]; R2 <- R2 - R1 gives [0,0]
    m = mat(RATIONAL, [[2, 4], [1, 2]])
    r, pivots = rref(m)
    assert r == mat(RATIONAL, [[1, 2], [0, 0]])
    assert pivots == (0,)
    # cross-check by re-multiplying the recorded elementary operations
    scale_row_0 = mat(RATIONAL, [["1/2", 0], [0, 1]])
    subtract_row_0 = mat(RATIONAL, [[1, 0], [-1, 1]])
    assert subtract_row_0 @ scale_row_0 @ m == r


@pytest.mark.parametrize("field", FIELDS)
def test_rref_idempotent_and_preserves_row_space(field):
    for m in random_mats(field, seed=101, count=40):
        r, pivots = rref(m)
        assert (to_plain(r), list(pivots)) == plain_rref(to_plain(m), field.modulus)
        r2, pivots2 = rref(r)
        assert r2 == r and pivots2 == pivots
        assert list(pivots) == sorted(set(pivots))
        # same row space: stacking changes no rank
        assert rank(vstack(m, r)) == rank(m) == rank(r) == len(pivots)


# -- rank --------------------------------------------------------------------------------


def test_rank_trivial_cases():
    assert rank(identity(RATIONAL, 4)) == 4
    assert rank(zeros(GF7, 3, 5)) == 0
    assert rank(mat(RATIONAL, [[1, 1], [1, 1]])) == 1
    assert rank(zeros(RATIONAL, 0, 3)) == 0
    assert rank(zeros(RATIONAL, 3, 0)) == 0


@pytest.mark.parametrize("field", FIELDS)
def test_rank_matches_independent_elimination(field):
    for m in random_mats(field, seed=202, count=60):
        assert rank(m) == gauss_rank(to_plain(m), field.modulus)


@pytest.mark.parametrize("field", FIELDS)
def test_column_ranks_match_prefix_ranks(field):
    for m in random_mats(field, seed=203, count=60):
        plain = to_plain(m)
        widths = list(range(m.cols + 1))
        assert column_ranks(m, widths) == [
            gauss_rank([row[:w] for row in plain], field.modulus) for w in widths]
    with pytest.raises(ValueError):
        column_ranks(identity(field, 3), [2, 1])
    with pytest.raises(ValueError):
        column_ranks(identity(field, 3), [4])


# -- kernel ------------------------------------------------------------------------------


def test_kernel_trivial_cases():
    assert kernel_basis(identity(RATIONAL, 3)).cols == 0
    assert kernel_basis(zeros(GF7, 4, 4)) == identity(GF7, 4)
    k = kernel_basis(mat(RATIONAL, [[1, 2]]))
    assert k.cols == 1
    # proportional to (-2, 1)
    a, b = k.col(0)
    assert a == -2 * b and b != 0


@pytest.mark.parametrize("field", FIELDS)
def test_kernel_and_rank_nullity(field):
    for m in random_mats(field, seed=303, count=40):
        k = kernel_basis(m)
        assert rank(m) + k.cols == m.cols
        zero = _zero_col(field, m.rows)
        for j in range(k.cols):
            assert matvec(m, k.col(j)) == zero
        assert rank(k) == k.cols  # columns independent


# -- complete_basis -----------------------------------------------------------------------


def test_complete_basis_trivial_cases():
    assert complete_basis(zeros(RATIONAL, 3, 0), 3) == identity(RATIONAL, 3)
    assert complete_basis(identity(GF7, 4), 4).cols == 0
    got = complete_basis(from_cols(RATIONAL, 2, [(Fraction(1), Fraction(1))]), 2)
    assert got == mat(RATIONAL, [[1], [0]])  # greedy scan keeps e0 and stops


def test_complete_basis_reverse_scan():
    ones = from_cols(RATIONAL, 2, [(Fraction(1), Fraction(1))])
    got = complete_basis(ones, 2, scan="reverse")
    assert got == mat(RATIONAL, [[0], [1]])  # e1 tried first
    full = complete_basis(zeros(RATIONAL, 3, 0), 3, scan="reverse")
    assert full == mat(RATIONAL, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    with pytest.raises(ValueError):
        complete_basis(zeros(RATIONAL, 2, 0), 2, scan="sideways")


def test_complete_basis_rejects_dependent_input():
    cols = from_cols(RATIONAL, 2, [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))])
    with pytest.raises(NotIndependent):
        complete_basis(cols, 2)
    with pytest.raises(DimensionMismatch):
        complete_basis(zeros(RATIONAL, 2, 0), 3)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("scan", ["forward", "reverse"])
def test_complete_basis_property(field, scan):
    rng = SplitMix64(606)
    for _ in range(30):
        n = rng.randint(1, 6)
        m = rand_matrix(rng, field, n, height=4)
        # keep an independent subset of m's columns as the partial basis
        r, pivots = rref(m)
        basis = from_cols(field, n, [m.col(j) for j in pivots])
        comp = complete_basis(basis, n, scan=scan)
        assert comp.cols == n - basis.cols
        assert rank(hstack(basis, comp)) == n


# -- inverse ---------------------------------------------------------------------------------


def test_inverse_trivial_cases():
    assert is_invertible(identity(RATIONAL, 3))
    assert inverse(identity(GF7, 3)) == identity(GF7, 3)
    assert not is_invertible(zeros(RATIONAL, 2, 2))
    assert inverse(mat(RATIONAL, [[1, 1], [0, 1]])) == mat(RATIONAL, [[1, -1], [0, 1]])
    with pytest.raises(Singular):
        inverse(mat(RATIONAL, [[1, 1], [1, 1]]))
    with pytest.raises(NotSquare):
        inverse(zeros(RATIONAL, 2, 3))
    with pytest.raises(NotSquare):
        is_invertible(zeros(RATIONAL, 2, 3))


@pytest.mark.parametrize("field", FIELDS)
def test_inverse_round_trip(field):
    rng = SplitMix64(707)
    found = 0
    while found < 20:
        n = rng.randint(1, 5)
        m = rand_matrix(rng, field, n, height=4)
        if not is_invertible(m):
            continue
        found += 1
        mi = inverse(m)
        assert m @ mi == identity(field, n)
        assert mi @ m == identity(field, n)


def test_degenerate_shapes():
    assert kernel_basis(zeros(RATIONAL, 0, 3)) == identity(RATIONAL, 3)
    assert kernel_basis(zeros(RATIONAL, 3, 0)).cols == 0
    assert inverse(identity(RATIONAL, 0)) == identity(RATIONAL, 0)
    assert is_invertible(identity(GF7, 0))
    r, pivots = rref(zeros(GF7, 0, 4))
    assert pivots == () and r.rows == 0


# -- hypothesis property sweeps -----------------------------------------------------------


def small_entries(field):
    if field.is_rational:
        return st.builds(Fraction, st.integers(-9, 9),
                         st.one_of(st.integers(1, 9), st.integers(BIG, 2 * BIG)))
    return st.integers(-9, 9).map(field.from_int)


@st.composite
def small_mats(draw, field):
    r = draw(st.integers(0, 4))
    c = draw(st.integers(0, 4))
    grid = draw(st.lists(st.lists(small_entries(field), min_size=c, max_size=c),
                         min_size=r, max_size=r))
    return Mat(field, r, c, tuple(tuple(row) for row in grid))


@settings(deadline=None, max_examples=40)
@given(small_mats(RATIONAL))
def test_rank_nullity_hypothesis_rational(m):
    assert rank(m) + kernel_basis(m).cols == m.cols


@settings(deadline=None, max_examples=40)
@given(small_mats(GF7))
def test_rank_nullity_hypothesis_gf(m):
    assert rank(m) + kernel_basis(m).cols == m.cols


@settings(deadline=None, max_examples=40)
@given(small_mats(RATIONAL))
def test_rref_idempotent_hypothesis(m):
    r, _ = rref(m)
    assert rref(r)[0] == r
