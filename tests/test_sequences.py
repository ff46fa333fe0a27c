from fractions import Fraction

import pytest

from exactdilation.fields import RATIONAL, gf
from exactdilation.linalg import DimensionMismatch, from_cols, mat, zeros
from exactdilation.sequences import (
    Batch,
    embed,
    fsvec,
    project,
    side_by_side,
    to_coords,
)

from test_linalg import assert_canonical

GF7 = gf(7)


def test_embed_zero_gives_empty():
    w = embed(RATIONAL, (0, 0))
    assert w.blocks == {} and w == fsvec(RATIONAL, 2, {})
    assert (w.dim, w.width) == (2, 1)
    assert w.max_support() == -1


def test_embed_places_at_coordinate_zero():
    w = embed(RATIONAL, (1, 0))
    assert list(w.blocks) == [0] and w.blocks[0] == mat(RATIONAL, [[1], [0]])
    w = embed(RATIONAL, (3, "-1/2"))
    assert w.blocks == {0: mat(RATIONAL, [[3], ["-1/2"]])}
    assert w.blocks[0].ints == ((6,), (-1,)) and w.blocks[0].den == 2


def test_project_round_trip():
    for x in [(Fraction(0), Fraction(0)), (Fraction(3), Fraction(-1, 2))]:
        assert project(embed(RATIONAL, x)) == x


def test_project_reads_coordinate_zero_only():
    w = fsvec(RATIONAL, 1, {0: (5,), 3: (7,)})
    assert project(w) == (Fraction(5),)
    assert project(fsvec(RATIONAL, 2, {2: (1, 1)})) == (Fraction(0), Fraction(0))
    assert project(fsvec(RATIONAL, 2, {})) == (Fraction(0), Fraction(0))


def test_fsvec_canonicalizes():
    w = fsvec(GF7, 2, [(5, (0, 0)), (2, (1, 6)), (0, (7, 1))])
    assert list(w.blocks) == [0, 2]  # sorted, the zero block at 5 dropped
    assert w.blocks == {0: mat(GF7, [[0], [1]]), 2: mat(GF7, [[1], [6]])}
    # equal sequences are equal however their entries are written
    assert fsvec(RATIONAL, 1, {0: ("2/4",)}) == embed(RATIONAL, ("1/2",))
    assert fsvec(RATIONAL, 1, {0: ("2/4",)}) != embed(RATIONAL, ("1/3",))
    for w in (fsvec(RATIONAL, 2, {1: ("2/4", "3/9"), 4: (6, 0)}), fsvec(GF7, 2, {0: (9, 14)})):
        for m in w.blocks.values():
            assert_canonical(m)
            assert (m.rows, m.cols) == (2, 1)


def test_batch_repr_and_comparison_with_other_types():
    w = fsvec(GF7, 1, {2: (3,)})
    assert repr(w) == f"Batch({GF7!r}, 1, 1, {{2: {w.blocks[2]!r}}})"
    assert w.__eq__((3,)) is NotImplemented
    assert w != (3,) and w != w.blocks and not w == None  # noqa: E711


def test_block_lookup():
    w = fsvec(RATIONAL, 1, {1: (2,), 4: (3,)})
    flat = to_coords(w, 5)
    assert flat[1:2] == (Fraction(2),)
    assert flat[2:3] == (Fraction(0),)
    assert flat[4:5] == (Fraction(3),)
    assert w.max_support() == 4


def test_fsvec_validation():
    with pytest.raises(ValueError):
        fsvec(RATIONAL, 1, [(0, (1,)), (0, (2,))])  # duplicate index
    with pytest.raises(ValueError):
        fsvec(RATIONAL, 1, {-1: (1,)})
    with pytest.raises(ValueError):
        fsvec(RATIONAL, 1, {-1: (0,)})  # negative even when zero
    with pytest.raises(DimensionMismatch):
        fsvec(RATIONAL, 2, {0: (1, 2, 3)})  # wrong height
    with pytest.raises(DimensionMismatch):
        fsvec(RATIONAL, 2, {0: (1,)})
    # Batch.of checks every block against the batch's field and shape
    with pytest.raises(DimensionMismatch):
        Batch.of(RATIONAL, 2, 1, {0: from_cols(GF7, 2, [(1, 1)])})
    with pytest.raises(DimensionMismatch):
        Batch.of(RATIONAL, 2, 2, {0: from_cols(RATIONAL, 2, [(1, 1)])})
    with pytest.raises(ValueError):
        Batch.of(RATIONAL, 2, 1, {-3: from_cols(RATIONAL, 2, [(1, 1)])})
    two = Batch.of(RATIONAL, 2, 2, {4: zeros(RATIONAL, 2, 2), 1: mat(RATIONAL, [[1, 0], [0, 2]])})
    assert list(two.blocks) == [1] and two.max_support() == 1


def test_one_sequence_readers_reject_other_widths():
    two = Batch.of(RATIONAL, 2, 2, {0: mat(RATIONAL, [[1, 0], [0, 2]])})
    none = Batch(RATIONAL, 2, 0, {})
    for w in (two, none):
        with pytest.raises(DimensionMismatch):
            project(w)
        with pytest.raises(DimensionMismatch):
            to_coords(w, 4)


def test_side_by_side_joins_columns_in_order_in_lowest_terms():
    # over Q the blocks at coordinate 0 are over 2 and 3 and the one at 2 over 5;
    # each joined block is over the lcm of its parts, which stays canonical
    a = fsvec(RATIONAL, 2, {0: ("1/2", 0), 2: (1, "2/5")})
    b = Batch.of(RATIONAL, 2, 2, {0: mat(RATIONAL, [["1/3", 0], [0, 1]]),
                                  3: mat(RATIONAL, [[4, 0], [0, 0]])})
    w = side_by_side([a, b, fsvec(RATIONAL, 2, {})])
    assert (w.field, w.dim, w.width) == (RATIONAL, 2, 4)
    assert list(w.blocks) == [0, 2, 3]
    assert w.blocks[0] == mat(RATIONAL, [["1/2", "1/3", 0, 0], [0, 0, 1, 0]])
    assert w.blocks[2] == mat(RATIONAL, [[1, 0, 0, 0], ["2/5", 0, 0, 0]])
    assert w.blocks[3] == mat(RATIONAL, [[0, 4, 0, 0], [0, 0, 0, 0]])
    for x in w.blocks.values():
        assert_canonical(x)
    assert side_by_side([a]) == a
    assert side_by_side([embed(RATIONAL, ()), embed(RATIONAL, ())]) == Batch(RATIONAL, 0, 2, {})
    for other in (embed(GF7, (1, 0)), embed(RATIONAL, (1, 0, 0))):
        with pytest.raises(DimensionMismatch):
            side_by_side([a, other])


def test_coords_round_trip():
    w = fsvec(RATIONAL, 2, {0: (1, 2), 3: (0, 5)})
    flat = to_coords(w, 5)
    assert len(flat) == 10
    assert flat[0:2] == (Fraction(1), Fraction(2))
    assert flat[6:8] == (Fraction(0), Fraction(5))
    with pytest.raises(ValueError):
        to_coords(w, 3)  # support reaches coordinate 3


def test_dim_zero():
    w = embed(RATIONAL, ())
    assert w.dim == 0 and w.blocks == {}
    assert project(w) == ()
    assert to_coords(w, 4) == ()
