"""The eight value classes: construction, equality, hashing, immutability,
validation, ``replace`` and repr.

Each class is checked against a frozen dataclass made here with the same
name, fields and defaults, the form the classes had before they were built
on ``exactdilation._record``: repr, ``==`` and ``hash`` must agree with it.
"""

import __future__
import dataclasses
import re
import sys

import pytest

from exactdilation._record import Record
from exactdilation.dilation import AndoOperators, SzNagyOperators
from exactdilation.fields import RATIONAL, FieldSpec, gf
from exactdilation.linalg import DimensionMismatch, identity, mat, zeros
from exactdilation.pairs import InvalidRecipe, PairRecipe
from exactdilation.problems import Problem, ProblemError
from exactdilation.verify import CheckParams, CheckRecord, Report

REQUIRED = object()
GF7 = gf(7)
A = mat(RATIONAL, [[1, 2], [0, 1]])
B = mat(RATIONAL, [[3, 0], [0, 3]])
RECIPE = PairRecipe("polynomial", 2, RATIONAL)
I8 = identity(RATIONAL, 8)
OPS = AndoOperators(A, B, I8, I8)

# class -> (field, default or REQUIRED) in order, and two different full
# sets of field values
CASES = {
    FieldSpec: ((("modulus", None),), (None,), (7,)),
    PairRecipe: ((("kind", REQUIRED), ("dim", REQUIRED), ("field", REQUIRED), ("seed", 0),
                  ("degree", 3), ("height", 5)),
                 ("polynomial", 2, RATIONAL, 0, 3, 5),
                 ("diagonal", 3, GF7, 1, 2, 4)),
    Problem: ((("field", REQUIRED), ("dim", REQUIRED), ("T", REQUIRED), ("S", REQUIRED),
               ("recipe", REQUIRED)),
              (RATIONAL, 2, A, B, None), (RATIONAL, 2, None, None, RECIPE)),
    SzNagyOperators: ((("T", REQUIRED),), (A,), (B,)),
    AndoOperators: ((("T", REQUIRED), ("S", REQUIRED), ("v", REQUIRED), ("v_inv", REQUIRED)),
                    (A, B, identity(RATIONAL, 8), identity(RATIONAL, 8)),
                    (B, A, identity(RATIONAL, 8), identity(RATIONAL, 8))),
    CheckParams: ((("max_power", 4), ("max_trunc", 5), ("trials", 8), ("seed", 0)),
                  (4, 5, 8, 0), (1, 0, 1, 7)),
    CheckRecord: ((("name", REQUIRED), ("params", REQUIRED), ("counterexample", None)),
                  ("commutation", {"max_trunc": 1}, None),
                  ("commutation", {"max_trunc": 1}, {"trunc": 0})),
    Report: ((("meta", REQUIRED), ("checks", REQUIRED)),
             ({"kind": "ando"}, ()), ({"kind": "sznagy"}, ())),
}
CLASSES = list(CASES)


def _reference(cls):
    """The frozen dataclass the class was, with its name, fields and defaults."""
    spec = [name if default is REQUIRED else (name, object, dataclasses.field(default=default))
            for name, default in CASES[cls][0]]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_in_order_with_their_defaults(cls):
    spec, values, _ = CASES[cls]
    names = tuple(name for name, _ in spec)
    assert issubclass(cls, Record) and cls._fields == names
    positional = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert [getattr(positional, n) for n in names] == list(values)
    assert by_keyword == positional
    required = [v for (_, default), v in zip(spec, values) if default is REQUIRED]
    defaults = {n: d for n, d in spec if d is not REQUIRED}
    only_required = cls(*required)
    assert {n: getattr(only_required, n) for n in defaults} == defaults


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_bad_arguments_raise_type_error(cls):
    # the binder's four messages, each checked ahead of the ones below it
    spec, values, _ = CASES[cls]
    names = [name for name, _ in spec]
    name = cls.__name__
    once = f"{name}() takes {len(names)} fields, each given once"
    for args, kwargs in [((*values, values[0]), {}),  # one too many
                         ((*values, values[0]), {"no_such_field": 1}),
                         (values[:1], {names[0]: values[0]}),  # a positional field again
                         (values, {names[-1]: values[-1]}),
                         (values, {names[-1]: values[-1], "no_such_field": 1})]:
        with pytest.raises(TypeError, match=re.escape(once)):
            cls(*args, **kwargs)
    required = [n for n, default in spec if default is REQUIRED]
    if required:  # a missing field is reported before an unknown keyword
        given = {n: v for n, v in zip(names, values) if n != required[-1]}
        with pytest.raises(TypeError, match=re.escape(
                f"{name}() is missing the field {required[-1]!r}")):
            cls(**given, no_such_field=1)
        with pytest.raises(TypeError, match=re.escape(
                f"{name}() is missing the field {required[0]!r}")):
            cls(zz=1)
    if spec[-1][1] is REQUIRED:
        with pytest.raises(TypeError, match=re.escape(
                f"{name}() is missing the field {names[-1]!r}")):
            cls(*values[:-1])  # one missing
    with pytest.raises(TypeError, match=re.escape(f"{name}() has no field 'no_such_field'")):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError, match=re.escape(f"{name}() has no field 'aa'")):
        cls(**dict(zip(names, values)), zz=1, aa=2)  # the first unknown name, sorted


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equality_hash_and_repr_are_the_dataclass_ones(cls):
    _, values, other = CASES[cls]
    ref = _reference(cls)
    a, b, c = cls(*values), cls(*values), cls(*other)
    assert a == b and not a != b and a is not b
    assert a != c and not a == c
    assert a != ref(*values) and a != values  # another type is never equal
    assert repr(a) == repr(ref(*values)) and repr(c) == repr(ref(*other))
    assert repr(a).startswith(f"{cls.__name__}({CASES[cls][0][0][0]}=")
    if _hashable(values):
        assert hash(a) == hash(b) == hash(ref(*values)) == hash(values)
        assert len({a, b, c}) == 2
    else:  # a dict field, as in the dataclass
        with pytest.raises(TypeError):
            hash(a)
        with pytest.raises(TypeError):
            hash(ref(*values))


def test_field_spec_equality_tries_identity_first():
    # FieldSpec is compared on every matrix operation, nearly always with itself
    class Incomparable:
        def __eq__(self, other):
            raise AssertionError("fields compared by value")

    f = gf(7)
    object.__setattr__(f, "_values", Incomparable())
    assert f == f and not f != f
    assert RATIONAL == RATIONAL and FieldSpec.from_dict({"kind": "rational"}) is RATIONAL
    assert gf(7) == gf(7) and gf(7) is not gf(7) and hash(gf(7)) == hash(gf(7))
    assert gf(7) != gf(11) and gf(7) != RATIONAL


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    spec, values, other = CASES[cls]
    a = cls(*values)
    for (name, _), new in zip(spec, other):
        with pytest.raises(AttributeError):
            setattr(a, name, new)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.no_such_field = 1
    assert a == cls(*values)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_replace_changes_the_named_fields_only(cls):
    spec, values, other = CASES[cls]
    a = cls(*values)
    assert a.replace() == a and a.replace() is not a
    for k, ((name, _), new) in enumerate(zip(spec, other)):
        # the same value, or the same error, as constructing it afresh
        changed = (*values[:k], new, *values[k + 1:])
        try:
            expected = cls(*changed)
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                a.replace(**{name: new})
        else:
            assert a.replace(**{name: new}) == expected
    assert a.replace(**dict(zip((n for n, _ in spec), other))) == cls(*other)
    assert a == cls(*values)
    with pytest.raises(TypeError):
        a.replace(no_such_field=1)


# -- validation, on construction and on replace -------------------------------------


INVALID = {
    "gf-without-modulus": (lambda: gf(None), ValueError,
                           "modulus must be a prime integer, got None"),
    "gf-null-modulus-from-dict": (lambda: FieldSpec.from_dict({"kind": "gf", "modulus": None}),
                                  ValueError, "modulus must be a prime integer, got None"),
    "gf-composite": (lambda: FieldSpec(8), ValueError,
                     "modulus must be a prime integer, got 8"),
    "gf-bool": (lambda: FieldSpec(True), ValueError,
                "modulus must be a prime integer, got True"),
    "gf-too-large": (lambda: FieldSpec(2 ** 89 - 1), ValueError,
                     "is too large; the limit is"),
    "replace-gf-composite": (lambda: GF7.replace(modulus=9), ValueError,
                             "modulus must be a prime integer, got 9"),
    "recipe-unknown-kind": (lambda: PairRecipe("funky", 2, RATIONAL), InvalidRecipe,
                            "recipe kind must be one of"),
    "recipe-explicit-kind": (lambda: PairRecipe("explicit", 2, RATIONAL), InvalidRecipe,
                             "recipe kind must be one of"),
    "recipe-bool-dim": (lambda: PairRecipe("diagonal", True, RATIONAL), InvalidRecipe,
                        "recipe 'dim' must be an integer"),
    "recipe-str-seed": (lambda: PairRecipe("diagonal", 2, RATIONAL, seed="x"), InvalidRecipe,
                        "recipe 'seed' must be an integer"),
    "recipe-float-degree": (lambda: PairRecipe("polynomial", 2, RATIONAL, degree=2.0),
                            InvalidRecipe, "recipe 'degree' must be an integer"),
    "recipe-negative-dim": (lambda: PairRecipe("diagonal", -1, RATIONAL), InvalidRecipe,
                            "recipe 'dim' must be a nonnegative integer"),
    "replace-recipe-explicit-kind": (lambda: RECIPE.replace(kind="explicit"), InvalidRecipe,
                                     "recipe kind must be one of"),
    "replace-recipe-bool-dim": (lambda: RECIPE.replace(dim=False), InvalidRecipe,
                                "recipe 'dim' must be an integer"),
    "replace-recipe-str-seed": (lambda: RECIPE.replace(seed="x"), InvalidRecipe,
                                "recipe 'seed' must be an integer"),
    "replace-recipe-float-degree": (lambda: RECIPE.replace(degree=3.0), InvalidRecipe,
                                    "recipe 'degree' must be an integer"),
    "replace-recipe-height": (lambda: RECIPE.replace(height=0), InvalidRecipe,
                              "degree must be >= 0 and height >= 1"),
    "recipe-str-field": (lambda: PairRecipe("diagonal", 2, "rational"), InvalidRecipe,
                         "recipe field must be a FieldSpec, got 'rational'"),
    "replace-recipe-none-field": (lambda: RECIPE.replace(field=None), InvalidRecipe,
                                  "recipe field must be a FieldSpec, got None"),
    "problem-t-of-another-dim-and-field": (
        lambda: Problem(GF7, 5, identity(RATIONAL, 2), None, None), DimensionMismatch,
        "T must be 5x5 over gf(7), got 2x2 over rational"),
    "problem-s-of-another-shape": (lambda: Problem(RATIONAL, 2, A, zeros(RATIONAL, 2, 3), None),
                                   DimensionMismatch,
                                   "S must be 2x2 over rational, got 2x3 over rational"),
    "problem-str-field": (lambda: Problem("rational", 2, None, None, RECIPE), ProblemError,
                          "problem field must be a FieldSpec, got 'rational'"),
    "problem-bool-dim": (lambda: Problem(RATIONAL, True, None, None, RECIPE), ProblemError,
                         "problem needs a nonnegative integer 'dim'"),
    "problem-negative-dim": (lambda: Problem(RATIONAL, -1, None, None, RECIPE), ProblemError,
                             "problem needs a nonnegative integer 'dim'"),
    "problem-neither-t-nor-recipe": (lambda: Problem(RATIONAL, 2, None, None, None),
                                     ProblemError, "problem needs exactly one of"),
    "problem-t-and-recipe": (lambda: Problem(RATIONAL, 2, A, None, RECIPE), ProblemError,
                             "problem needs exactly one of"),
    "problem-s-without-t": (lambda: Problem(RATIONAL, 2, None, B, RECIPE), ProblemError,
                            "problem needs exactly one of"),
    "problem-recipe-of-another-dim": (lambda: Problem(RATIONAL, 3, None, None, RECIPE),
                                      ProblemError, "recipe must be over rational with 'dim' 3"),
    "problem-recipe-of-another-field": (lambda: Problem(GF7, 2, None, None, RECIPE),
                                        ProblemError, "recipe must be over gf(7) with 'dim' 2"),
    "replace-problem-dim": (lambda: Problem(RATIONAL, 2, A, B, None).replace(dim=3),
                            DimensionMismatch, "T must be 3x3 over rational, got 2x2"),
    # d and field are read off T: T must be square, and the rest must fit it
    "sznagy-ops-d": (lambda: SzNagyOperators(zeros(RATIONAL, 3, 2)), DimensionMismatch,
                     "T must be 3x3 over rational, got 3x2 over rational"),
    "replace-sznagy-ops-field": (lambda: SzNagyOperators(A).replace(field=GF7), TypeError,
                                 "SzNagyOperators() has no field 'field'"),
    "ando-ops-d-and-field": (lambda: AndoOperators(A, B, identity(GF7, 12), identity(GF7, 12)),
                             DimensionMismatch,
                             "v must be 8x8 over rational, got 12x12 over gf(7)"),
    "ando-ops-s": (lambda: AndoOperators(A, zeros(RATIONAL, 2, 3), I8, I8),
                   DimensionMismatch, "S must be 2x2 over rational, got 2x3 over rational"),
    "ando-ops-s-field": (lambda: AndoOperators(A, identity(GF7, 2), I8, I8),
                         DimensionMismatch, "S must be 2x2 over rational, got 2x2 over gf(7)"),
    "ando-ops-non-square-t": (lambda: AndoOperators(zeros(RATIONAL, 2, 3), B, I8, I8),
                              DimensionMismatch, "T must be 2x2 over rational, got 2x3"),
    "replace-ando-ops-v": (lambda: OPS.replace(v=identity(RATIONAL, 9),
                                               v_inv=identity(RATIONAL, 9)),
                           DimensionMismatch, "v must be 8x8 over rational, got 9x9 over rational"),
    "replace-ando-ops-v-inv": (lambda: OPS.replace(v_inv=identity(GF7, 8)), DimensionMismatch,
                               "v_inv must be 8x8 over rational, got 8x8 over gf(7)"),
    "params-max-power": (lambda: CheckParams(max_power=0), ValueError,
                         "max_power must be >= 1"),
    "params-max-trunc": (lambda: CheckParams(max_trunc=-1), ValueError,
                         "max_trunc must be >= 0"),
    "params-trials": (lambda: CheckParams(trials=0), ValueError, "trials must be >= 1"),
    "replace-params-max-power": (lambda: CheckParams().replace(max_power=0), ValueError,
                                 "max_power must be >= 1"),
    "replace-params-trials": (lambda: CheckParams(1, 0, 1).replace(trials=-2), ValueError,
                              "trials must be >= 1"),
}


@pytest.mark.parametrize("case", INVALID)
def test_validation_raises(case):
    make, error, message = INVALID[case]
    with pytest.raises(error, match=re.escape(message)):
        make()


def test_valid_replacements_pass_validation():
    assert GF7.replace(modulus=11) == gf(11)
    assert GF7.replace(modulus=None) == RATIONAL and RATIONAL.replace(modulus=7) == GF7
    assert RECIPE.replace(kind="diagonal", dim=1) == PairRecipe("diagonal", 1, RATIONAL)
    assert CheckParams().replace(trials=1) == CheckParams(4, 5, 1, 0)
    failing = CheckRecord("x", {}).replace(counterexample={"a": 1})
    assert (failing.passed, failing.counterexample) == (False, {"a": 1})
    assert OPS.replace(T=B, S=A).d == 2 and SzNagyOperators(identity(GF7, 3)).field == GF7


def test_pair_recipe_is_validated_when_made():
    # a recipe that could not be generated is never made, so gen_pair needs no check
    with pytest.raises(InvalidRecipe):
        PairRecipe("no such kind", -1, RATIONAL)
    with pytest.raises(InvalidRecipe):
        RECIPE.replace(dim=-1)


def test_a_subclass_without_fields_is_refused():
    with pytest.raises(TypeError, match="annotates no fields"):
        class Empty(Record):
            pass


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_are_read_from_text_annotations(cls):
    # the fields are the annotations, read as the class is made: kept as text
    # by the future import, they are never evaluated
    assert getattr(sys.modules[cls.__module__], "annotations", None) is __future__.annotations
    assert all(isinstance(a, str) for a in cls.__annotations__.values())
