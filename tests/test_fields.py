from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactdilation.fields import RATIONAL, FieldSpec, gf, mpq

GF7 = gf(7)


# -- construction and validation -------------------------------------------------


def test_rational_spec():
    assert RATIONAL.is_rational
    assert RATIONAL.label() == "rational"


@pytest.mark.parametrize("p", [2, 3, 7, 101, 7919])
def test_prime_moduli_accepted(p):
    assert gf(p).modulus == p
    assert not gf(p).is_rational


@pytest.mark.parametrize("p", [-7, 0, 1, 4, 6, 9, 91])
def test_non_prime_moduli_rejected(p):
    with pytest.raises(ValueError):
        gf(p)


def test_bad_kinds_rejected():
    with pytest.raises(ValueError):
        FieldSpec("rational", 7)
    with pytest.raises(ValueError):
        FieldSpec("real")
    with pytest.raises(ValueError):
        FieldSpec("gf")


# -- text grammar ------------------------------------------------------------------


@pytest.mark.parametrize("text,num,den", [
    ("0", 0, 1), ("-0", 0, 1), ("17", 17, 1), ("-3", -3, 1),
    ("1/2", 1, 2), ("-7/2", -7, 2), ("6/4", 3, 2), ("0/5", 0, 1),
])
def test_rational_parse(text, num, den):
    x = RATIONAL.parse(text)
    assert x == mpq(num, den)
    assert x.numerator == num and x.denominator == den  # stored reduced


@pytest.mark.parametrize("text", ["", " 1", "1 ", "+3", "1/0", "1/-2", "1/04", "3.5", "a", "1/ 2"])
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
    assert RATIONAL.fmt(mpq(3, 2)) == "3/2"
    assert RATIONAL.fmt(mpq(-10, 4)) == "-5/2"
    assert RATIONAL.fmt(mpq(4)) == "4"
    assert GF7.fmt(5) == "5"
    for text in ["-5/2", "4", "0"]:
        assert RATIONAL.fmt(RATIONAL.parse(text)) == text


def test_coerce():
    assert RATIONAL.coerce(-3) == mpq(-3)
    assert RATIONAL.coerce("1/2") == mpq(1, 2)
    assert RATIONAL.coerce(Fraction(1, 3)) == mpq(1, 3)
    assert GF7.coerce(-1) == 6
    assert GF7.coerce("12") == 5
    # bools and floats are refused: 0.1 would become 3602879701896397/36028797018963968
    for field in (RATIONAL, GF7):
        for bad in (True, False, 0.1, 0.5, 2.0):
            with pytest.raises(TypeError):
                field.coerce(bad)


def test_json_round_trip():
    for field in (RATIONAL, GF7):
        assert FieldSpec.from_dict(field.to_dict()) == field
    with pytest.raises(ValueError):
        FieldSpec.from_dict({"kind": "gf"})
    with pytest.raises(ValueError):
        FieldSpec.from_dict({"kind": "rational", "modulus": 7})
    with pytest.raises(ValueError):
        FieldSpec.from_dict(["rational"])


# -- field axioms (spot checks) -------------------------------------------------------

rationals = st.builds(lambda n, d: mpq(n, d), st.integers(-50, 50), st.integers(1, 50))
residues = st.integers(0, 6)


@settings(deadline=None, max_examples=60)
@given(rationals, rationals, rationals)
def test_rational_axioms(a, b, c):
    F = RATIONAL
    assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == F.zero()
    if a != 0:
        assert F.mul(a, F.inv(a)) == F.one()


@settings(deadline=None, max_examples=60)
@given(residues, residues, residues)
def test_gf7_axioms(a, b, c):
    F = GF7
    assert F.add(a, F.add(b, c)) == F.add(F.add(a, b), c)
    assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == 0
    if a != 0:
        assert F.mul(a, F.inv(a)) == 1


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
    a, b = mpq(an, ad), mpq(bn, bd)
    ha, hb = _hom(a, p), _hom(b, p)
    assert _hom(a + b, p) == F.add(ha, hb)
    assert _hom(a - b, p) == F.sub(ha, hb)
    assert _hom(a * b, p) == F.mul(ha, hb)
    if b != 0 and hb != 0:
        assert _hom(a / b, p) == F.div(ha, hb)
