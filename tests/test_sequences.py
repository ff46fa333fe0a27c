from fractions import Fraction

import pytest

from exactdilation.fields import RATIONAL, gf
from exactdilation.linalg import DimensionMismatch
from exactdilation.sequences import (
    FsVec,
    block,
    embed,
    from_coords,
    fsvec,
    project,
    to_coords,
    zero_fsvec,
)

GF7 = gf(7)


def test_embed_zero_gives_empty():
    w = embed(RATIONAL, (0, 0))
    assert w.blocks == () and w.is_zero()
    assert w.max_support() == -1


def test_embed_places_at_coordinate_zero():
    w = embed(RATIONAL, (1, 0))
    assert w.blocks == ((0, (Fraction(1), Fraction(0))),)
    w = embed(RATIONAL, (3, "-1/2"))
    assert w.blocks == ((0, (Fraction(3), Fraction(-1, 2))),)


def test_project_round_trip():
    for x in [(Fraction(0), Fraction(0)), (Fraction(3), Fraction(-1, 2))]:
        assert project(embed(RATIONAL, x)) == x


def test_project_reads_coordinate_zero_only():
    w = fsvec(RATIONAL, 1, {0: (5,), 3: (7,)})
    assert project(w) == (Fraction(5),)
    assert project(fsvec(RATIONAL, 2, {2: (1, 1)})) == (Fraction(0), Fraction(0))
    assert project(zero_fsvec(RATIONAL, 2)) == (Fraction(0), Fraction(0))


def test_fsvec_canonicalizes():
    w = fsvec(GF7, 2, [(5, (0, 0)), (2, (1, 6)), (0, (7, 1))])
    assert w.blocks == ((0, (0, 1)), (2, (1, 6)))


def test_block_lookup():
    w = fsvec(RATIONAL, 1, {1: (2,), 4: (3,)})
    assert block(w, 1) == (Fraction(2),)
    assert block(w, 2) == (Fraction(0),)
    assert block(w, 4) == (Fraction(3),)
    assert w.max_support() == 4


def test_fsvec_validation():
    with pytest.raises(ValueError):
        FsVec(RATIONAL, 1, ((0, (Fraction(1),)), (0, (Fraction(2),))))  # duplicate index
    with pytest.raises(ValueError):
        FsVec(RATIONAL, 1, ((1, (Fraction(1),)), (0, (Fraction(2),))))  # out of order
    with pytest.raises(ValueError):
        FsVec(RATIONAL, 1, ((-1, (Fraction(1),)),))
    with pytest.raises(ValueError):
        FsVec(RATIONAL, 1, ((0, (Fraction(0),)),))  # stored zero block
    with pytest.raises(ValueError):
        FsVec(RATIONAL, 2, ((0, (Fraction(1),)),))  # wrong height
    with pytest.raises(DimensionMismatch):
        fsvec(RATIONAL, 2, {0: (1, 2, 3)})


def test_coords_round_trip():
    w = fsvec(RATIONAL, 2, {0: (1, 2), 3: (0, 5)})
    flat = to_coords(w, 5)
    assert len(flat) == 10
    assert flat[0:2] == (Fraction(1), Fraction(2))
    assert flat[6:8] == (Fraction(0), Fraction(5))
    assert from_coords(RATIONAL, 2, flat) == w
    with pytest.raises(ValueError):
        to_coords(w, 3)  # support reaches coordinate 3
    with pytest.raises(DimensionMismatch):
        from_coords(RATIONAL, 2, (Fraction(1),) * 5)


def test_dim_zero():
    w = embed(RATIONAL, ())
    assert w.dim == 0 and w.is_zero()
    assert project(w) == ()
    assert to_coords(w, 4) == ()
    assert from_coords(RATIONAL, 0, ()) == w
