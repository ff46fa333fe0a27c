"""Problem files: the JSON input format of the command-line interface.

A problem carries a field, and either explicit matrices::

    {"field": {"kind": "rational"}, "dim": 2,
     "T": [["1", "1/2"], ["0", "1"]],
     "S": [["1", "0"], ["0", "1"]]}        # S optional

or a generation recipe::

    {"field": {"kind": "gf", "modulus": 7},
     "recipe": {"kind": "polynomial", "dim": 3, "seed": 42,
                "degree": 3, "height": 5}}  # degree/height optional

Exactly one of the two forms must be present.  All scalars are strings in
the exact text grammar; nothing here ever touches floating point.
"""

from __future__ import annotations

import json
from typing import Optional

from ._record import Record
from .fields import FieldSpec
from .linalg import Mat, _require_shape
from .pairs import InvalidRecipe, PairRecipe, _is_int, gen_pair

__all__ = ["Problem", "ProblemError", "parse_problem", "load_problem",
           "problem_to_dict", "mat_to_grid", "grid_to_mat", "resolve_pair"]


class ProblemError(ValueError):
    """Problem file fails to parse or validate."""


class Problem(Record):
    """A field, a dimension ``dim``, and either explicit matrices (``T``, and ``S`` or
    None) or a generation ``recipe``, never both.  Each matrix is ``dim x dim`` over
    the field, and the recipe is over the field and of the dimension."""

    field: FieldSpec
    dim: int
    T: Optional[Mat]
    S: Optional[Mat]
    recipe: Optional[PairRecipe]

    def _check(self):
        if not isinstance(self.field, FieldSpec):
            raise ProblemError(f"problem field must be a FieldSpec, got {self.field!r}")
        _require_dim(self.dim)
        if (self.T is None) == (self.recipe is None) or (self.S is not None and self.T is None):
            raise ProblemError("problem needs exactly one of: explicit 'T' (with optional 'S'), "
                               "or a 'recipe'")
        for name, m in (("T", self.T), ("S", self.S)):
            if m is not None:
                _require_shape(name, m, self.field, self.dim)
        r = self.recipe
        if r is not None and (r.field, r.dim) != (self.field, self.dim):
            raise ProblemError(f"recipe must be over {self.field.label()} with 'dim' {self.dim}")


def _require_dim(dim):
    if not _is_int(dim) or dim < 0:
        raise ProblemError("problem needs a nonnegative integer 'dim'")


def mat_to_grid(m: Mat) -> list:
    return m.field.fmt_ints(m.ints, m.den)


def grid_to_mat(field: FieldSpec, dim: int, grid, name: str) -> Mat:
    if not isinstance(grid, list) or len(grid) != dim or any(
            not isinstance(r, list) or len(r) != dim for r in grid):
        raise ProblemError(f"{name} must be a {dim}x{dim} grid of scalar strings")
    try:
        rows = tuple(tuple(field.parse(x) for x in r) for r in grid)
    except ValueError as exc:
        raise ProblemError(f"{name}: {exc}") from exc
    return Mat(field, dim, dim, rows)


def parse_problem(obj) -> Problem:
    if not isinstance(obj, dict):
        raise ProblemError("problem must be a JSON object")
    unknown = set(obj) - {"field", "dim", "T", "S", "recipe"}
    if unknown:
        raise ProblemError(f"unknown problem keys: {sorted(unknown)}")
    if "field" not in obj:
        raise ProblemError("problem needs a 'field'")
    try:
        field = FieldSpec.from_dict(obj["field"])
    except ValueError as exc:
        raise ProblemError(str(exc)) from exc

    recipe = None
    if "recipe" in obj:
        entry = obj["recipe"]
        if not isinstance(entry, dict):
            raise ProblemError("'recipe' must be an object")
        unknown = set(entry) - {"kind", "dim", "seed", "degree", "height"}
        if unknown:
            raise ProblemError(f"unknown recipe keys: {sorted(unknown)}")
        for key in ("kind", "dim", "seed"):
            if key not in entry:
                raise ProblemError(f"recipe needs '{key}'")
        try:
            recipe = PairRecipe(field=field, **entry)
        except InvalidRecipe as exc:
            raise ProblemError(str(exc)) from exc
    dim = obj.get("dim", None if recipe is None else recipe.dim)
    _require_dim(dim)  # before the grids are read at this size
    t, s = (grid_to_mat(field, dim, obj[k], k) if k in obj else None for k in ("T", "S"))
    # the Problem refuses T with a recipe, S without T, and a recipe of another dim
    return Problem(field, dim, t, s, recipe)


def load_problem(path) -> Problem:
    try:
        fh = open(path, "r", encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a path with a NUL byte
        raise ProblemError(f"cannot read {path}: {exc}") from exc
    with fh:
        try:
            obj = json.load(fh)
        except OSError as exc:
            raise ProblemError(f"cannot read {path}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ProblemError(f"{path} is not valid JSON: {exc}") from exc
        except ValueError as exc:  # an integer past Python's int-from-text digit limit
            raise ProblemError(f"{path} holds a number too long to read: {exc}") from exc
        except RecursionError:
            raise ProblemError(f"{path} is nested too deeply to read") from None
    return parse_problem(obj)


def resolve_pair(problem: Problem) -> tuple[Mat, Optional[Mat]]:
    """Explicit matrices, or the pair the recipe generates."""
    if problem.recipe is not None:
        return gen_pair(problem.recipe)
    return problem.T, problem.S


def problem_to_dict(field: FieldSpec, t: Mat, s: Mat) -> dict:
    return {"field": field.to_dict(), "dim": t.rows,
            "T": mat_to_grid(t), "S": mat_to_grid(s)}
