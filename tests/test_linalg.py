import operator
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exactdilation.linalg as linalg_mod
from exactdilation.dilation import OPERATOR_TAGS, ando, sznagy, truncated_matrix
from exactdilation.fields import RATIONAL, gf
from exactdilation.linalg import (
    DimensionMismatch,
    Mat,
    NotIndependent,
    NotSquare,
    Singular,
    column_product,
    column_ranks,
    complete_basis,
    from_cols,
    hstack,
    identity,
    int_product,
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
from exactdilation.linalg import _packing
from exactdilation.pairs import PairRecipe, gen_pair
from exactdilation.rng import SplitMix64, rand_matrix
from exactdilation.verify import CheckParams

from oracles import (
    col_to_plain,
    gauss_rank,
    plain_complete_basis,
    plain_matvec,
    plain_mult,
    plain_rref,
    to_plain,
)

GF7 = gf(7)
GF_M61 = gf(2**61 - 1)
FIELDS = (RATIONAL, GF7, GF_M61)
# the primes of the packed product's tests: slots of 16, 32 and 64 bits, and past them
PRIMES = (2, 3, 7, 251, 65521, 2**31 - 1, 2**61 - 1)
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


def tall_mats(field, seed, count):
    """Random matrices with c = 1..4 columns and c to 3c rows; every other one repeats
    column 0 as its last column, so its rank is below its column count."""
    rng = SplitMix64(seed)
    out = []
    for k in range(count):
        c = 1 + rng.below(4)
        r = c + rng.below(2 * c + 1)
        grid = rand_grid(rng, field, r, c)
        if k % 2 and c > 1:
            grid = tuple(row[:-1] + row[:1] for row in grid)
        out.append(Mat(field, r, c, grid))
    return out


# -- construction -----------------------------------------------------------------


def test_mat_coerces_entries():
    m = mat(RATIONAL, [[1, "1/2"], [0, -3]])
    assert m.entries[0][1] == Fraction(1, 2)
    m = mat(GF7, [[-1, "9"]])
    assert m.entries[0] == (6, 2)


@pytest.mark.parametrize("field, x", [
    (RATIONAL, 0.1), (RATIONAL, True), (GF7, 0.5), (GF7, False), (GF7, Fraction(1, 2)),
], ids=["q-float", "q-bool", "gf7-float", "gf7-bool", "gf7-fraction"])
def test_grids_of_non_scalars_are_refused(field, x):
    # Mat, from_cols and matvec take field scalars as they are, with no coerce: the
    # integer form refuses what coerce would, a float that is no exact scalar among them
    one = identity(field, 1).entries[0][0]
    for build in (lambda: Mat(field, 1, 2, ((one, x),)),
                  lambda: from_cols(field, 1, [(one,), (x,)]),
                  lambda: matvec(identity(field, 1), (x,))):
        with pytest.raises(TypeError, match=re.escape(
                f"not {field.label()} scalars: ['{type(x).__name__}']")):
            build()
    with pytest.raises(TypeError):
        field.coerce(x)


def test_mat_shape_validation():
    with pytest.raises(ValueError):
        mat(RATIONAL, [[1, 2], [3]])
    with pytest.raises(ValueError):
        Mat(RATIONAL, 2, 2, ((Fraction(1),),))


def test_stack_and_access():
    a = mat(RATIONAL, [[1, 2], [3, 4]])
    assert a.col(1) == (Fraction(2), Fraction(4))
    assert hstack(a, identity(RATIONAL, 2)).cols == 4
    assert hstack(a, mat(RATIONAL, [["1/2"], ["1/3"]]), a) == mat(
        RATIONAL, [[1, 2, "1/2", 1, 2], [3, 4, "1/3", 3, 4]])
    assert vstack(a, a).rows == 4
    with pytest.raises(DimensionMismatch):
        hstack(a, identity(RATIONAL, 3))
    with pytest.raises(DimensionMismatch):
        vstack(a, zeros(RATIONAL, 1, 3))
    with pytest.raises(DimensionMismatch):
        hstack(a, identity(GF7, 2))
    with pytest.raises(DimensionMismatch):
        hstack(a, a, identity(RATIONAL, 3))
    with pytest.raises(DimensionMismatch):
        from_cols(RATIONAL, 2, [(1, 2), (1,)])
    for other in (identity(GF7, 2), zeros(RATIONAL, 3, 2)):  # another field, another shape
        for op in (operator.add, operator.sub, operator.matmul):
            with pytest.raises(DimensionMismatch):
                op(a, other)
    with pytest.raises(DimensionMismatch):
        column_product(a, identity(GF7, 2), 0)


# -- products against the plain oracle ----------------------------------------------


@pytest.mark.parametrize("field", FIELDS + tuple(gf(p) for p in PRIMES if p not in (7, 2**61 - 1)))
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


def _slot(p, inner, width=1):
    """The bits per slot of the packed product of ``inner`` rows mod p, 0 for the plain loop."""
    packing = _packing(p, inner, width)
    return 8 * packing[0].size // width if packing else 0


@pytest.mark.parametrize("p", PRIMES)
def test_packed_product_matches_plain_loop(p, monkeypatch):
    # several parts at their column offsets, as the block exchange feeds a group:
    # the packed loop against the plain one, at width 0, inner 0 and all-zero rows
    field, rng = gf(p), SplitMix64(p % 1000)
    cases = [(2, 0, [0]), (0, 3, [1, 2]), (3, 2, [0, 0]), (2, 3, [2, 0, 1])]
    cases += [(rng.randint(0, 4), rng.randint(0, 5), [rng.randint(0, 3) for _ in range(3)])
              for _ in range(30)]
    products, packed = [], 0
    for rows, width, sizes in cases:
        a = Mat(field, rows, sum(sizes), rand_grid(rng, field, rows, sum(sizes)))
        bs = [rand_grid(rng, field, n, width) if rng.below(3) else ((0,) * width,) * n
              for n in sizes]
        parts = [(sum(sizes[:i]), b, 1) for i, b in enumerate(bs)]
        packed += _packing(p, sum(sizes), width) is not None
        products.append((a, parts, width, int_product(a, parts, width)))
    assert packed >= (4 if p <= 251 else 1)
    monkeypatch.setattr(linalg_mod, "_packing", lambda *args: None)
    for a, parts, width, got in products:
        assert got == int_product(a, parts, width)
        b = [r for _, rows, _ in parts for r in rows]
        assert [list(r) for r in got] == plain_mult(to_plain(a), b, p, out_cols=width)


@pytest.mark.parametrize("p", PRIMES)
def test_packed_product_is_exact_at_each_slot_bound(p):
    # every entry p-1, at the largest inner whose bound 2b + bits(p) + 1 still fits
    # each slot (b the bit length of (p-1)**2 * inner), and at one more: the sums of
    # the slots carry into no neighbour, and the packed reduction is exact on the
    # largest sum, on the largest sums below it that are 0 and -1 mod p, and on p - 1
    field, width, below = gf(p), 4, -1
    for slot in (16, 32, 64):
        top = (slot - p.bit_length() - 1) // 2  # the largest b that fits the slot
        largest = ((1 << top) - 1) // (p - 1) ** 2 if top >= 0 else -1
        if largest == below:  # no inner takes this slot
            continue
        below = largest
        assert _slot(p, largest) == slot and _slot(p, largest + 1) in (0, 2 * slot, 4 * slot)
        for inner in (largest, largest + 1):
            if not _slot(p, inner):
                continue
            row, reduce = _packing(p, inner, width)
            z = inner * (p - 1) * int.from_bytes(row.pack(*[p - 1] * width), "little")
            top_sum = (p - 1) ** 2 * inner
            assert row.unpack(z.to_bytes(row.size, "little")) == (top_sum,) * width
            assert reduce(z) == (top_sum % p,) * width
            sums = (top_sum, top_sum - top_sum % p, max(top_sum - (top_sum + 1) % p, 0),
                    min(p - 1, top_sum))
            assert reduce(int.from_bytes(row.pack(*sums), "little")) == tuple(x % p for x in sums)
            if inner <= 20000:
                a = Mat.from_ints(field, 2, inner, ((p - 1,) * inner,) * 2, canonical=True)
                b = Mat.from_ints(field, inner, width, ((p - 1,) * width,) * inner,
                                  canonical=True)
                assert (a @ b).ints == ((top_sum % p,) * width,) * 2


def test_benchmark_shapes_take_the_packed_loop():
    # the benchmark workloads and the acceptance corpus reach d <= 10, products that
    # sum d to 4d rows (T x0, and one 4-block group of the exchange), and batches up
    # to (max_power+1)(d+trials) columns at default windows: over GF(7) every one
    # runs packed, over Q and GF(2**61-1) none does
    params = CheckParams()
    for d in range(1, 11):
        for inner in range(d, 4 * d + 1):
            for width in (1, (params.max_power + 1) * (d + params.trials)):
                assert _packing(7, inner, width) is not None
                assert _packing(None, inner, width) is None
                assert _packing(2**61 - 1, inner, width) is None


def _copy(m):
    """A matrix equal to ``m`` but a distinct object, built from its integer form."""
    return Mat.from_ints(m.field, m.rows, m.cols, m.ints, m.den)


@pytest.mark.parametrize("field", (RATIONAL, GF7))
def test_matmul_memo_is_keyed_by_value(field):
    # @ keeps its last two products, keyed by the operands' values: over a seeded
    # run of repeated pairs, swapped operands and equal but distinct copies, each
    # product is the one an unkept product gives, and the memo hits exactly when
    # the pair equals one of the last two pairs asked
    rng, memo = SplitMix64(73), Mat.__matmul__
    pool = [Mat(field, 2, 2, rand_grid(rng, field, 2, 2)) for _ in range(3)]
    a, b = pool[0], pool[1]
    memo.cache_clear()
    kept = []  # the last two pairs asked, the latest last
    for _ in range(200):
        move = rng.below(4)
        if move == 0:
            a, b = pool[rng.below(3)], pool[rng.below(3)]
        elif move == 1:
            a, b = b, a
        elif move == 2:
            a, b = _copy(a), _copy(b)
        hits = memo.cache_info().hits
        assert a @ b == memo.__wrapped__(a, b)
        assert memo.cache_info().hits == hits + ((a, b) in kept)
        kept = [pair for pair in kept if pair != (a, b)][-1:] + [(a, b)]
    # a mismatch is never kept: it raises on every repeat
    other = GF7 if field.is_rational else RATIONAL
    wide = Mat(field, 2, 3, rand_grid(rng, field, 2, 3))
    alien = Mat(other, 2, 2, rand_grid(rng, other, 2, 2))
    for x, y in ((wide, wide), (pool[0], alien), (alien, pool[0])):
        for _ in range(3):
            with pytest.raises(DimensionMismatch):
                x @ y


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
    for m in random_mats(field, seed=101, count=40) + tall_mats(field, seed=102, count=20):
        r, pivots = rref(m)
        assert (to_plain(r), list(pivots)) == plain_rref(to_plain(m), field.modulus)
        r2, pivots2 = rref(r)
        assert r2 == r and pivots2 == pivots
        assert list(pivots) == sorted(set(pivots))
        # same row space: stacking changes no rank
        assert rank(vstack(m, r)) == rank(m) == rank(r) == len(pivots)


# -- the stop rule: an elimination ends once its pivots span the space ------------------


@pytest.mark.parametrize("field", (RATIONAL, GF7))
def test_rref_of_identity_over_any_rows_cancels_nothing(field, monkeypatch):
    # the n identity rows span F^n, so no row of R is read and no back-substitution runs
    cancels, inner = [], linalg_mod._cancel
    monkeypatch.setattr(linalg_mod, "_cancel", lambda *args: cancels.append(args) or inner(*args))
    rng = SplitMix64(41)
    for n in range(1, 5):
        k = 1 + rng.below(3 * n)
        r, pivots = rref(vstack(identity(field, n), Mat(field, k, n, rand_grid(rng, field, k, n))))
        assert r == vstack(identity(field, n), zeros(field, k, n))
        assert pivots == tuple(range(n))
    assert cancels == []


def _drawn(vectors, draws):
    """Yield each vector of ``vectors`` as a fresh dict, counting the draws in ``draws``."""
    for v in vectors:
        draws.append(v)
        yield dict(v)


@pytest.mark.parametrize("field", (RATIONAL, GF7))
def test_echelon_draws_no_vector_once_its_pivots_span_dim(field):
    rng = SplitMix64(42)
    for dim in range(1, 6):
        m = Mat(field, 3 * dim, dim, rand_grid(rng, field, 3 * dim, dim))
        vectors = [{j: x for j, x in enumerate(row) if x} for row in m.ints]
        plain = to_plain(m)
        full = [i for i in range(len(plain))
                if gauss_rank(plain[:i + 1], field.modulus) > gauss_rank(plain[:i], field.modulus)]
        assert len(full) == dim and full[-1] < len(vectors) - 1  # spanned before the end
        draws = []
        kept, pivot_rows = linalg_mod._echelon(_drawn(vectors, draws), field, dim)
        # the dim-th pivot is the last vector drawn, and the result is a full pass's
        assert kept == full and len(draws) == full[-1] + 1
        assert pivot_rows == linalg_mod._echelon(_drawn(vectors, []), field, dim + 1)[1]


@pytest.mark.parametrize("field", (RATIONAL, GF7))
def test_rank_deficient_tall_rref_reads_every_row(field, monkeypatch):
    # column 2 repeats column 0, so the pivots never span F^3 and no row is skipped
    draws = []
    inner = linalg_mod._echelon
    monkeypatch.setattr(linalg_mod, "_echelon",
                        lambda vectors, *args: inner(_drawn(vectors, draws), *args))
    rng = SplitMix64(43)
    for rows in (3, 6, 9):
        grid = tuple(row[:2] + row[:1] for row in rand_grid(rng, field, rows, 2))
        m = Mat(field, rows, 3, grid)
        draws.clear()
        r, pivots = rref(m)
        assert len(draws) == rows
        assert (to_plain(r), list(pivots)) == plain_rref(to_plain(m), field.modulus)
        assert len(pivots) < 3


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


@pytest.mark.parametrize("field", (RATIONAL, GF7))
def test_column_ranks_of_column_form_matrices(field):
    # the injectivity path: truncations at level 2, ranked at the widths d(4k+1),
    # k = 0, 1, and a matrix whose column 1 is three times column 0 and column 2 zero
    t, s = gen_pair(PairRecipe("polynomial", 2, field, seed=7))
    ando_ops = ando(t, s)
    cases = [(truncated_matrix(tag, ops, 2), [2, 10])
             for tag, ops in (("U", ando_ops), ("V", ando_ops), ("SzNagyU", sznagy(t)))]
    cases.append((Mat.from_col_terms(field, 3, 4, [[(0, 1), (2, 2)], [(0, 3), (2, 6)], [],
                                                   [(1, 5)]]), [0, 1, 2, 3, 4]))
    for m, widths in cases:
        ranks, full = column_ranks(m, widths), rank(m)
        assert "ints" not in m.__dict__  # ranked from the columns alone
        plain = to_plain(m)
        assert ranks == [gauss_rank([row[:w] for row in plain], field.modulus) for w in widths]
        assert full == gauss_rank(plain, field.modulus)


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
    for m in random_mats(field, seed=303, count=40) + tall_mats(field, seed=304, count=20):
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


def _draw_columns(draw, field, n, count):
    """``count`` columns of height n over ``field`` as plain lists, a quarter of them
    (past the first) combinations of the earlier ones."""
    entry = (st.fractions(min_value=-4, max_value=4, max_denominator=5) if field.is_rational
             else st.integers(0, 6))
    cols = []
    for _ in range(count):
        if cols and draw(st.integers(0, 3)) == 0:
            coefs = [field.coerce(draw(entry)) for _ in cols]
            cols.append([field.coerce(sum(a * c[i] for a, c in zip(coefs, cols)))
                         for i in range(n)])
        else:
            cols.append([field.coerce(draw(entry)) for _ in range(n)])
    return cols


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from([RATIONAL, GF7]), st.sampled_from(["forward", "reverse"]))
def test_complete_basis_matches_greedy_oracle(data, field, scan):
    n = data.draw(st.integers(0, 6))
    cols = _draw_columns(data.draw, field, n, data.draw(st.integers(0, n)))
    basis = from_cols(field, n, cols)
    p = field.modulus
    dependent = next((j for j in range(len(cols)) if gauss_rank(cols[:j + 1], p) <= j), None)
    if dependent is not None:
        with pytest.raises(NotIndependent, match=f"input column {dependent} "):
            complete_basis(basis, n, scan=scan)
        return
    kept = plain_complete_basis(cols, n, p, reverse=scan == "reverse")
    fill = complete_basis(basis, n, scan=scan)
    assert fill == from_cols(field, n, [[int(i == k) for i in range(n)] for k in kept])


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


# -- the canonical integer form -----------------------------------------------------------


def assert_canonical(m):
    """``m`` holds the unique integer form of its field: ``rows`` tuples of ``cols`` ints
    over a positive ``den`` sharing no factor with all of them (Q), or residues over 1."""
    assert isinstance(m.ints, tuple) and len(m.ints) == m.rows
    assert all(isinstance(r, tuple) and len(r) == m.cols for r in m.ints)
    assert all(type(x) is int for r in m.ints for x in r) and type(m.den) is int
    p = m.field.modulus
    if p is None:
        assert m.den > 0 and gcd(m.den, *(x for r in m.ints for x in r)) == 1
        assert m.entries == tuple(tuple(Fraction(x, m.den) for x in r) for r in m.ints)
    else:
        assert m.den == 1 and all(0 <= x < p for r in m.ints for x in r)
        assert m.entries == m.ints
    # the column terms, whichever form the matrix was built in, agree with the grid
    assert m._col_terms == [[(i, r[j]) for i, r in enumerate(m.ints) if r[j]]
                            for j in range(m.cols)]


def shaped_mats(field, r, c, entries=None):
    if entries is None:
        entries = small_entries(field)
    return st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r).map(
        lambda grid: Mat(field, r, c, tuple(map(tuple, grid))))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from((RATIONAL, GF7)), st.data())
def test_every_constructor_and_operation_is_canonical(field, data):
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, a2 = data.draw(shaped_mats(field, r, k)), data.draw(shaped_mats(field, r, k))
    b, sq = data.draw(shaped_mats(field, k, c)), data.draw(shaped_mats(field, k, k))
    results = [a, mat(field, [[str(x) for x in row] for row in a.entries]),
               identity(field, k), zeros(field, r, c),
               from_cols(field, r, [a.col(j) for j in range(k)]),
               hstack(a, a2, a), vstack(a, a2, a),
               a + a2, a - a2, a - a, a @ b, rref(a)[0], kernel_basis(a)]
    if is_invertible(sq):
        results.append(inverse(sq))
    for m in results:
        assert_canonical(m)


@settings(deadline=None, max_examples=15)
@given(st.sampled_from((RATIONAL, GF7)), st.integers(1, 3), st.integers(0, 2**32))
def test_truncated_matrices_are_canonical(field, d, seed):
    t, s = gen_pair(PairRecipe("polynomial", d, field, seed=seed))
    ops = {"SzNagyU": sznagy(t)}
    ando_ops = ando(t, s)
    for tag in OPERATOR_TAGS:
        m = truncated_matrix(tag, ops.get(tag, ando_ops), 2)
        assert_canonical(m)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from((RATIONAL, GF7)), st.data())
def test_column_product_matches_plain_product(field, data):
    # column j of a @ b over a.den * b.den, for b taller than a is wide: its
    # leading columns are zero below a.cols
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, top = data.draw(shaped_mats(field, r, k)), data.draw(shaped_mats(field, k, c))
    b = vstack(top, zeros(field, 2, c)) if c else zeros(field, k + 2, 0)
    width = data.draw(st.integers(0, c))
    got = column_product(a, b, width)
    want = plain_mult(to_plain(a), to_plain(top), field.modulus, out_cols=c)
    den = a.den * b.den
    assert len(got) == width
    for j, col in enumerate(got):
        assert all(x for x in col.values())
        if field.is_rational:
            assert {i: Fraction(x, den) for i, x in col.items()} == {
                i: row[j] for i, row in enumerate(want) if row[j]}
        else:
            assert col == {i: row[j] for i, row in enumerate(want) if row[j]}
    if c:
        tall = vstack(zeros(field, k + 1, c), data.draw(shaped_mats(field, 1, c)))
        if not tall.is_zero():
            with pytest.raises(DimensionMismatch):
                column_product(a, tall, c)
    with pytest.raises(DimensionMismatch):
        column_product(a, b, c + 1)


@pytest.mark.parametrize("build", [
    lambda: Mat(RATIONAL, -1, 2, ()),
    lambda: Mat.from_ints(RATIONAL, -1, 2, ()),
    lambda: Mat.from_ints(GF7, 2, -1, ((), ()), canonical=True),
    lambda: Mat.from_col_terms(RATIONAL, 2, -1, []),
    lambda: Mat.from_col_terms(GF7, -3, 1, [[]]),
    lambda: identity(RATIONAL, -2),
    lambda: zeros(RATIONAL, -1, 3),
    lambda: zeros(GF7, 3, -1),
], ids=["Mat", "from_ints_rows", "from_ints_cols", "from_col_terms_cols",
        "from_col_terms_rows", "identity", "zeros_rows", "zeros_cols"])
def test_every_constructor_refuses_negative_sizes(build):
    with pytest.raises(ValueError, match="^negative matrix dimension$"):
        build()


@settings(deadline=None, max_examples=80)
@given(st.sampled_from((RATIONAL, GF7)), st.data())
def test_equality_and_hash_follow_the_entries(field, data):
    # few distinct entries, so that equal matrices are drawn often
    few = st.sampled_from([field.coerce(x) for x in ("0", "1", "3")]
                          + ([Fraction(1, 2), Fraction(-3, 2**70)] if field.is_rational else []))
    r, c = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    a, b = data.draw(shaped_mats(field, r, c, few)), data.draw(shaped_mats(field, r, c, few))
    # a sliced back out of a larger matrix whose extra entries change its denominator
    big = vstack(hstack(a, data.draw(shaped_mats(field, r, 1, few))),
                 data.draw(shaped_mats(field, 1, c + 1, few)))
    sliced = Mat.from_ints(field, r, c, [row[:c] for row in big.ints[:r]], big.den)
    assert_canonical(sliced)
    for x, y in ((a, b), (a, sliced), (b, sliced), (a, a + zeros(field, r, c)),
                 (a, b @ identity(field, c))):
        assert (x == y) == (x.entries == y.entries)
        if x == y:
            assert hash(x) == hash(y)
    assert a == sliced


@pytest.mark.parametrize("field", (RATIONAL, GF7))
def test_equal_mats_built_by_ints_or_by_column_terms_hash_alike(field):
    # a Mat keys the block exchange's product cache: its hash is taken once, and a
    # matrix built by columns hashes as the same matrix built as a grid
    if field.is_rational:  # halves: the integer form is over 2
        by_grid = mat(field, [["1/2", 0, 2], [0, 0, "3/2"]])
        terms = [[(0, 1)], [], [(0, 4), (1, 3)]]
    else:
        by_grid = mat(field, [[4, 0, 2], [0, 0, 5]])
        terms = [[(0, 4)], [], [(0, 2), (1, 5)]]
    by_cols = Mat.from_col_terms(field, 2, 3, terms, by_grid.den)
    assert "ints" not in by_cols.__dict__ and "_hash" not in by_cols.__dict__
    assert by_cols == by_grid and hash(by_cols) == hash(by_grid)
    assert by_cols.__dict__["_hash"] == hash(by_cols) == hash(Mat.from_col_terms(
        field, 2, 3, terms, by_grid.den))
    assert {by_grid: 1}[by_cols] == 1
    # a leading block cuts each column's terms at its last row
    assert by_cols._grid(1, 3) == [list(by_grid.ints[0])]


def test_from_ints_over_gf_divides_by_its_denominator():
    # over GF(p) dividing by a denominator multiplies by its inverse mod p: 1/3 = 5 mod 7
    m = Mat.from_ints(GF7, 2, 2, [[1, -2], [0, 9]], den=3)
    assert m == mat(GF7, [[5, 4], [0, 3]]) and m.den == 1
    assert_canonical(m)
    assert Mat.from_ints(GF7, 1, 2, [[3, 20]], den=10) == Mat.from_ints(GF7, 1, 2, [[1, 2]])
    with pytest.raises(ValueError):  # 14 = 0 mod 7 has no inverse
        Mat.from_ints(GF7, 1, 1, [[1]], den=14)
