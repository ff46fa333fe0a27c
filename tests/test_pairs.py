import pytest

from exactdilation.fields import RATIONAL, gf
from exactdilation.linalg import DimensionMismatch, identity, mat, zeros
from exactdilation.pairs import (
    InvalidRecipe,
    PairRecipe,
    RECIPE_KINDS,
    check_commute,
    gen_pair,
    matrix_polynomial,
)
from exactdilation.rng import SplitMix64

GF7 = gf(7)
FIELDS = (RATIONAL, GF7)
GENERATING_KINDS = [k for k in RECIPE_KINDS if k != "explicit"]


# -- the generator stream -----------------------------------------------------------


def test_splitmix64_reference_vectors():
    # published outputs of SplitMix64; pins the stream across platforms
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    r = SplitMix64(1234567)
    assert [r.next_u64() for _ in range(3)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_splitmix64_helpers():
    r = SplitMix64(99)
    assert all(0 <= r.below(10) < 10 for _ in range(50))
    assert all(-3 <= r.randint(-3, 3) <= 3 for _ in range(50))
    with pytest.raises(ValueError):
        r.below(0)
    assert SplitMix64(5).next_u64() == SplitMix64(5).next_u64()
    assert SplitMix64(2**64 + 5).next_u64() == SplitMix64(5).next_u64()  # masked seed


# -- recipes ----------------------------------------------------------------------------


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("kind", GENERATING_KINDS)
def test_every_kind_commutes(field, kind):
    for seed in range(6):
        t, s = gen_pair(PairRecipe(kind, 3, field, seed=seed))
        assert t.rows == t.cols == s.rows == s.cols == 3
        assert check_commute(t, s)


@pytest.mark.parametrize("kind", GENERATING_KINDS)
def test_same_seed_same_pair(kind):
    recipe = PairRecipe(kind, 4, RATIONAL, seed=77)
    assert gen_pair(recipe) == gen_pair(recipe)


def test_different_seeds_differ():
    a = gen_pair(PairRecipe("polynomial", 3, RATIONAL, seed=1))
    b = gen_pair(PairRecipe("polynomial", 3, RATIONAL, seed=2))
    assert a != b


def test_polynomial_seed_42_has_zero_commutator():
    t, s = gen_pair(PairRecipe("polynomial", 3, RATIONAL, seed=42))
    assert t @ s - s @ t == zeros(RATIONAL, 3, 3)


def test_diagonal_pairs_are_diagonal():
    t, s = gen_pair(PairRecipe("diagonal", 3, GF7, seed=5))
    for m in (t, s):
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert m.entries[i][j] == 0


def test_diagonal_dim_one_is_scalars():
    t, s = gen_pair(PairRecipe("diagonal", 1, RATIONAL, seed=4))
    assert t.rows == 1 and check_commute(t, s)


def test_upper_triangular_pairs_are_triangular():
    t, s = gen_pair(PairRecipe("upper_triangular", 4, RATIONAL, seed=9))
    for m in (t, s):
        for i in range(4):
            for j in range(i):
                assert m.entries[i][j] == 0
    assert check_commute(t, s)


@pytest.mark.parametrize("field", FIELDS)
def test_idempotent_pairs_are_idempotent(field):
    for seed in (0, 3):
        t, s = gen_pair(PairRecipe("idempotent", 3, field, seed=seed))
        assert t @ t == t
        assert s @ s == s
        assert check_commute(t, s)


def test_polynomials_in_one_matrix_commute():
    # equal coefficient lists force T == S
    rng = SplitMix64(31)
    from exactdilation.rng import rand_matrix

    a = rand_matrix(rng, RATIONAL, 3)
    coeffs = [1, 0, 2]
    t = matrix_polynomial(a, coeffs)
    s = matrix_polynomial(a, coeffs)
    assert t == s
    assert check_commute(t, s)
    assert matrix_polynomial(a, [0]) == zeros(RATIONAL, 3, 3)
    assert matrix_polynomial(a, [3]) == mat(RATIONAL, [[3, 0, 0], [0, 3, 0], [0, 0, 3]])
    assert matrix_polynomial(a, [0, 1]) == a


def test_explicit_recipe_passthrough():
    t = mat(RATIONAL, [[0, 1], [0, 0]])
    s = mat(RATIONAL, [[0, 0], [1, 0]])
    recipe = PairRecipe("explicit", 2, RATIONAL, explicit=(t, s))
    got_t, got_s = gen_pair(recipe)
    assert got_t == t and got_s == s
    assert not check_commute(got_t, got_s)  # explicit pairs may violate commutation


def test_invalid_recipes():
    with pytest.raises(InvalidRecipe):
        gen_pair(PairRecipe("funky", 2, RATIONAL))
    with pytest.raises(InvalidRecipe):
        gen_pair(PairRecipe("diagonal", -1, RATIONAL))
    with pytest.raises(InvalidRecipe):
        gen_pair(PairRecipe("polynomial", 2, RATIONAL, degree=-1))
    with pytest.raises(InvalidRecipe):
        gen_pair(PairRecipe("polynomial", 2, RATIONAL, height=0))
    with pytest.raises(InvalidRecipe):
        gen_pair(PairRecipe("explicit", 2, RATIONAL))
    with pytest.raises(InvalidRecipe):
        gen_pair(PairRecipe("diagonal", 2, RATIONAL,
                            explicit=(identity(RATIONAL, 2), identity(RATIONAL, 2))))
    with pytest.raises(InvalidRecipe):
        gen_pair(PairRecipe("explicit", 3, RATIONAL,
                            explicit=(identity(RATIONAL, 2), identity(RATIONAL, 2))))


def test_small_prime_field_recipes():
    # gf(2) stresses the invertible-matrix search in the idempotent kind
    f2 = gf(2)
    for seed in range(4):
        t, s = gen_pair(PairRecipe("idempotent", 3, f2, seed=seed))
        assert check_commute(t, s) and t @ t == t


# -- commutation test --------------------------------------------------------------------


def test_check_commute_identity_always():
    rng = SplitMix64(32)
    from exactdilation.rng import rand_matrix

    for field in FIELDS:
        s = rand_matrix(rng, field, 3)
        assert check_commute(identity(field, 3), s)


def test_check_commute_shift_pair_fails():
    t = mat(RATIONAL, [[0, 1], [0, 0]])
    s = mat(RATIONAL, [[0, 0], [1, 0]])
    assert not check_commute(t, s)
    # commutator is diag(1, -1), nonzero
    assert (t @ s - s @ t) == mat(RATIONAL, [[1, 0], [0, -1]])


def test_check_commute_powers_commute():
    t = mat(GF7, [[1, 2], [3, 4]])
    assert check_commute(t, t @ t @ t)


def test_check_commute_shape_errors():
    with pytest.raises(DimensionMismatch):
        check_commute(identity(RATIONAL, 2), identity(RATIONAL, 3))
    with pytest.raises(DimensionMismatch):
        check_commute(identity(RATIONAL, 2), identity(GF7, 2))
    with pytest.raises(DimensionMismatch):
        check_commute(zeros(RATIONAL, 2, 3), zeros(RATIONAL, 2, 3))
