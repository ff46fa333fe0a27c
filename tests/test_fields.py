import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactdilation.fields import MAX_MODULUS, RATIONAL, FieldSpec, ScalarTooLarge, gf
from exactdilation.linalg import Mat, inverse

GF7 = gf(7)
MERSENNE_61 = 2**61 - 1
# a strong pseudoprime to the first 12 prime bases 2..37; only base 41 exposes it
PSI_12 = 318665857834031151167461


# -- construction and validation -------------------------------------------------


def test_rational_spec():
    assert RATIONAL.is_rational
    assert RATIONAL.label() == "rational"


@pytest.mark.parametrize("p", [2, 3, 7, 101, 7919, 2**31 - 1, MERSENNE_61])
def test_prime_moduli_accepted(p):
    assert gf(p).modulus == p
    assert not gf(p).is_rational


@pytest.mark.parametrize("p", [-7, 0, 1, 4, 6, 9, 91,
                               561,  # Carmichael number
                               3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
                               PSI_12, (2**31 - 1) * (2**19 - 1), MERSENNE_61 + 2])
def test_non_prime_moduli_rejected(p):
    with pytest.raises(ValueError):
        gf(p)


def test_large_moduli_are_decided_fast():
    # trial division needs about 10**9 steps for 2**61 - 1
    start = time.perf_counter()
    for p in (2**31 - 1, MERSENNE_61, PSI_12):
        try:
            gf(p)
        except ValueError:
            pass
    assert time.perf_counter() - start < 1.0


def test_moduli_above_the_ceiling_rejected():
    # MAX_MODULUS + 1 is a strong pseudoprime to all 13 bases of the prime
    # test, so above the ceiling a deterministic answer would be wrong
    for p in (MAX_MODULUS + 1, 2**89 - 1):
        with pytest.raises(ValueError, match="too large"):
            gf(p)
    with pytest.raises(ValueError):
        FieldSpec(True)


def test_bad_kinds_rejected():
    # a field is its modulus alone, but its JSON form still names its kind, and
    # a gf kind with a null modulus is refused, never read as Q
    for obj in ({"kind": "rational", "modulus": 7}, {"kind": "real"}, {"kind": "gf"},
                {"kind": "gf", "modulus": None}, {"kind": "gf", "modulus": "7"},
                {"modulus": 7}, [7]):
        with pytest.raises(ValueError):
            FieldSpec.from_dict(obj)
    with pytest.raises(ValueError):
        gf(None)


def test_field_is_its_modulus():
    assert FieldSpec() == RATIONAL and FieldSpec(7) == GF7 and FieldSpec._fields == ("modulus",)
    for field in (RATIONAL, GF7):
        assert FieldSpec.from_dict(field.to_dict()) == field
    assert GF7.to_dict() == {"kind": "gf", "modulus": 7}
    assert RATIONAL.to_dict() == {"kind": "rational"}


# -- text grammar ------------------------------------------------------------------


@pytest.mark.parametrize("text,num,den", [
    ("0", 0, 1), ("-0", 0, 1), ("17", 17, 1), ("-3", -3, 1),
    ("1/2", 1, 2), ("-7/2", -7, 2), ("6/4", 3, 2), ("0/5", 0, 1),
])
def test_rational_parse(text, num, den):
    x = RATIONAL.parse(text)
    assert x == Fraction(num, den)
    assert x.numerator == num and x.denominator == den  # stored reduced


@pytest.mark.parametrize("text", ["", " 1", "1 ", "+3", "1/0", "1/-2", "1/04", "3.5", "a", "1/ 2", 3])
def test_rational_parse_rejects(text):
    with pytest.raises(ValueError):
        RATIONAL.parse(text)


def test_residue_parse():
    assert GF7.parse("0") == 0
    assert GF7.parse("6") == 6
    assert GF7.parse("9") == 2  # reduced into [0, p)


@pytest.mark.parametrize("text", ["-1", "1/2", "", "3.0", " 4"])
def test_residue_parse_rejects(text):
    with pytest.raises(ValueError):
        GF7.parse(text)


def test_fmt_is_canonical_and_round_trips():
    assert RATIONAL.fmt_ints([[3]], 2) == [["3/2"]]
    assert RATIONAL.fmt_ints([[-10]], 4) == [["-5/2"]]
    assert RATIONAL.fmt_ints([[4]]) == [["4"]]
    assert GF7.fmt_ints([[5]]) == [["5"]]
    for text in ["-5/2", "4", "0"]:
        assert RATIONAL.fmt_ints(*RATIONAL.to_ints([[RATIONAL.parse(text)]])) == [[text]]


_RATIO_GRIDS = st.integers(1, 4).flatmap(lambda c: st.lists(
    st.lists(st.integers(-60, 60), min_size=c, max_size=c), min_size=0, max_size=4))


@settings(max_examples=60, deadline=None)
@given(_RATIO_GRIDS, st.integers(1, 12), st.integers(1, 5))
def test_fmt_ints_writes_the_text_of_each_reduced_scalar(rows, den, scale):
    # scaling by a multiple of den makes some entries reduce to integers
    rows = [[x * (den if (i + j) % 3 == 0 else 1) * scale for j, x in enumerate(row)]
            for i, row in enumerate(rows)]
    ints, d = RATIONAL.reduce_ints(rows, den * scale)
    assert RATIONAL.fmt_ints(ints, d) == [[str(Fraction(x, den * scale)) for x in row]
                                          for row in rows]
    residues = GF7.reduce_ints(rows, 1)
    assert GF7.fmt_ints(*residues) == [[str(x % 7) for x in row] for row in rows]
    for field, (ints, d) in ((RATIONAL, (ints, d)), (GF7, residues)):
        m = Mat.from_ints(field, len(ints), len(ints[0]) if ints else 0, ints, d)
        assert field.fmt_ints(m.ints, m.den) == [[str(x) for x in row] for row in m.entries]


def test_fmt_ints_refuses_scalars_past_the_digit_limit():
    big = 10 ** 4400 + 1
    assert RATIONAL.fmt_ints(((1, 3),), 2) == [["1/2", "3/2"]]
    with pytest.raises(ScalarTooLarge):
        RATIONAL.fmt_ints(((big, 1),), 1)
    with pytest.raises(ScalarTooLarge):
        RATIONAL.fmt_ints(((1, 0),), big)


def test_coerce():
    assert RATIONAL.coerce(-3) == Fraction(-3)
    assert RATIONAL.coerce("1/2") == Fraction(1, 2)
    assert RATIONAL.coerce(Fraction(1, 3)) == Fraction(1, 3)
    assert GF7.coerce(-1) == 6
    assert GF7.coerce("12") == 5
    # bools and floats are refused: 0.1 would become 3602879701896397/36028797018963968
    for field in (RATIONAL, GF7):
        for bad in (True, False, 0.1, 0.5, 2.0):
            with pytest.raises(TypeError):
                field.coerce(bad)
    with pytest.raises(TypeError):
        GF7.coerce(Fraction(1, 2))


def test_integer_form():
    rows = ((Fraction(1, 6), Fraction(-3, 4)), (Fraction(0), Fraction(5, 2**64)))
    ints, den = RATIONAL.to_ints(rows)
    assert den == 3 * 2**64
    assert ints == ((2**63, -9 * 2**62), (0, 15))
    assert RATIONAL.from_ints(ints, den) == rows
    assert RATIONAL.from_ints(((4, -6),), -8) == ((Fraction(-1, 2), Fraction(3, 4)),)
    residues = ((3, 0), (6, 1))
    ints, den = GF7.to_ints(residues)
    assert ints is residues and den == 1  # no copy over GF(p)
    assert GF7.from_ints(((10, -1),)) == ((3, 6),)
    assert GF7.from_ints(((3, 1),), 2) == ((5, 4),)  # 2 * 4 = 1 mod 7


def test_reduce_row():
    assert RATIONAL.reduce_row({0: 6, 3: -4}) == {0: 3, 3: -2}
    assert RATIONAL.reduce_row({2: -5, 4: 7}) == {2: -5, 4: 7}
    assert GF7.reduce_row({0: 14, 2: 9, 5: -1}) == {2: 2, 5: 6}
    assert GF7.reduce_row({1: 7}) == {}


def test_json_round_trip():
    for field in (RATIONAL, GF7):
        assert FieldSpec.from_dict(field.to_dict()) == field
    with pytest.raises(ValueError):
        FieldSpec.from_dict({"kind": "gf"})
    with pytest.raises(ValueError):
        FieldSpec.from_dict({"kind": "rational", "modulus": 7})
    with pytest.raises(ValueError):
        FieldSpec.from_dict(["rational"])


# -- field axioms (spot checks), on the arithmetic the kernels do -------------------

rationals = st.builds(lambda n, d: Fraction(n, d), st.integers(-50, 50), st.integers(1, 50))
residues = st.integers(0, 6)


def _scalar(field, x):
    """x as a 1 x 1 matrix: scalar arithmetic runs through the matrix kernels."""
    return Mat(field, 1, 1, ((x,),))


def _check_axioms(field, a, b, c):
    A, B, C = (_scalar(field, x) for x in (a, b, c))
    assert A + (B + C) == (A + B) + C
    assert A @ (B @ C) == (A @ B) @ C
    assert A @ (B + C) == A @ B + A @ C
    assert A - A == _scalar(field, field.zero())
    assert A + _scalar(field, -a) == _scalar(field, field.zero())  # -a read mod p
    if a != 0:
        assert A @ inverse(A) == _scalar(field, field.one())


@settings(deadline=None, max_examples=60)
@given(rationals, rationals, rationals)
def test_rational_axioms(a, b, c):
    _check_axioms(RATIONAL, a, b, c)


@settings(deadline=None, max_examples=60)
@given(residues, residues, residues)
def test_gf7_axioms(a, b, c):
    _check_axioms(GF7, a, b, c)


# -- GF(p) agrees with rational arithmetic reduced mod p ------------------------------------


def _hom(x, p):
    """Reduction map for rationals with denominator coprime to p."""
    return (x.numerator % p) * pow(x.denominator % p, -1, p) % p


@settings(deadline=None, max_examples=80)
@given(st.integers(-30, 30), st.integers(1, 30), st.integers(-30, 30), st.integers(1, 30))
def test_gf_matches_reduced_rational_arithmetic(an, ad, bn, bd):
    p = 7
    if ad % p == 0 or bd % p == 0:
        return
    F = gf(p)
    a, b = Fraction(an, ad), Fraction(bn, bd)
    qa, qb = _scalar(RATIONAL, a), _scalar(RATIONAL, b)
    ha, hb = _scalar(F, _hom(a, p)), _scalar(F, _hom(b, p))
    for q, h in ((qa + qb, ha + hb), (qa - qb, ha - hb), (qa @ qb, ha @ hb)):
        assert _hom(q.entries[0][0], p) == h.entries[0][0]
    if b != 0 and _hom(b, p) != 0:
        assert _hom(a / b, p) == (ha @ inverse(hb)).entries[0][0]
