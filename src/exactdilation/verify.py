"""Executable form of every dilation claim, producing a structured report.

Each check is recorded, never raised: a report collects one record per claim
(dilation equations, commutation, injectivity, exchange-map coherence,
well-definedness), with a minimal counterexample attached to any failure.
All comparisons are exact; there is no tolerance anywhere.  The
dilation-equation records step every trial vector at once, as one
``Batch``, and compare its coordinate 0 with the plain matrix products
``T^n X`` and ``T^n S^m X`` of the matrix ``X`` of trial vectors; the
bivariate one steps every ``V^m X`` at once, side by side.

The audit takes operators, built or tampered, and never calls ``ando()``:
refusing a pair that does not commute is the builder's job, done once there.
"""

from __future__ import annotations

import json
from typing import Optional

from ._jsontext import json_text
from ._record import Record
from .dilation import (
    AndoOperators,
    apply_batch,
    build_generators,
    level_shape,
    sznagy,
    truncated_matrix,
)
from .fields import FieldSpec
from .linalg import (
    DimensionMismatch,
    Mat,
    column_product,
    column_ranks,
    hstack,
    identity,
    kernel_basis,
    zeros,
)
from .pairs import PairRecipe
from .rng import SplitMix64, rand_ints
from .sequences import Batch, side_by_side

__all__ = ["CheckParams", "CheckRecord", "Report", "check_sznagy", "check_ando",
           "report_from_json"]


class CheckParams(Record):
    """Finite windows for the quantifiers: exponents up to ``max_power``,
    truncation levels up to ``max_trunc``, ``trials`` random vectors per check
    on top of the full standard basis."""

    max_power: int = 4
    max_trunc: int = 5
    trials: int = 8
    seed: int = 0

    def _check(self):
        if self.max_power < 1:
            raise ValueError("max_power must be >= 1")
        if self.max_trunc < 0:
            raise ValueError("max_trunc must be >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self._values))


class CheckRecord(Record):
    """One claim's record; it passes exactly when it carries no counterexample."""

    name: str
    params: dict
    counterexample: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    def to_dict(self) -> dict:
        out = {"name": self.name, "params": self.params, "pass": self.passed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


class Report(Record):
    """The records of one audit; its verdict is read off them, never stored."""

    meta: dict
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"meta": self.meta, "checks": [c.to_dict() for c in self.checks],
                "pass": self.passed}

    def to_json(self) -> str:
        return json_text(self.to_dict())


def _make_report(meta: dict, records) -> Report:
    return Report(meta, tuple(sorted(records, key=lambda r: r.name)))


def report_from_json(text: str) -> Report:
    """The report written as ``text`` by ``Report.to_json``.

    Any other shape raises ValueError, with one message: a top level that is
    not an object with the keys meta (an object), checks (a list) and pass (a
    bool), or a record that is not an object with the keys name (a string),
    params (an object) and pass (a bool) and at most counterexample (an
    object) besides.  So do, each with its own ``malformed report: ...``
    message, a record whose pass disagrees with whether it carries a
    counterexample, and a top-level pass that is not its records' verdict.
    """
    obj = json.loads(text)
    records = obj.get("checks") if isinstance(obj, dict) else None
    if not (isinstance(records, list) and set(obj) == {"meta", "checks", "pass"}
            and isinstance(obj["meta"], dict) and isinstance(obj["pass"], bool)
            and all(map(_is_record, records))):
        raise ValueError("malformed report: expected {meta, checks, pass} with checks a "
                         "list of records {name, params, pass[, counterexample]}")
    if any(c["pass"] == ("counterexample" in c) for c in records):
        raise ValueError("malformed report: a record's pass disagrees with whether it "
                         "carries a counterexample")
    report = Report(obj["meta"], tuple(CheckRecord(c["name"], c["params"], c.get("counterexample"))
                                       for c in records))
    if report.passed != obj["pass"]:
        raise ValueError("malformed report: pass disagrees with the verdict of its records")
    return report


def _is_record(c) -> bool:
    """Whether ``c`` has the keys and value types of ``CheckRecord.to_dict()``."""
    return (isinstance(c, dict) and {"name", "params", "pass"} <= set(c)
            <= {"name", "params", "pass", "counterexample"}
            and isinstance(c["name"], str) and isinstance(c["params"], dict)
            and isinstance(c["pass"], bool) and isinstance(c.get("counterexample", {}), dict))


# -- shared helpers ------------------------------------------------------------


def _trial_vectors(field: FieldSpec, d: int, params: CheckParams) -> Mat:
    """The matrix X of the trial vectors: the standard basis of F^d, then ``trials``
    random columns drawn from ``seed``, one after the other."""
    ints, den = rand_ints(SplitMix64(params.seed), field, d * params.trials)
    trials = Mat.from_ints(field, d, params.trials, [ints[i::d] for i in range(d)], den)
    return hstack(identity(field, d), trials)


def _meta(kind: str, ops, params: CheckParams, recipe: Optional[PairRecipe]) -> dict:
    return {"kind": kind, "field": ops.field.to_dict(), "dim": ops.d,
            "params": params.to_dict(),
            "recipe": recipe.to_dict() if recipe is not None else None}


def _column_text(m: Mat, j: int, rows=None) -> list:
    """The text of column ``j`` of ``m``, or of its ``rows`` only, from the integer form."""
    rows = range(m.rows) if rows is None else rows
    return [text for (text,) in m.field.fmt_ints([(m.ints[i][j],) for i in rows], m.den)]


def _dilation_record(name: str, tag: str, ops, w: Batch, tx: Mat, x: Mat,
                     params: CheckParams) -> CheckRecord:
    """Step ``w`` by the operator ``tag`` of ``ops`` and its expected coordinate 0,
    ``tx``, by ``ops.T``, ``max_power`` times, comparing the two in integer form at
    every step; the record carries the failure of the first trial vector that has
    one.  Both sides read T off the one ``ops``, so no caller hands in a second T.

    ``x`` is the matrix of the ``k`` trial vectors.  A ``w`` wider than ``x``
    holds ``V^m X`` for m = 0, 1, ... side by side: column ``c`` is trial
    vector ``c % k`` at exponent ``m = c // k``, and the counterexample names
    m.  A vector's failure is from its lowest failing m, at that column's
    first failing n: the first failure a vector-by-vector loop over m, then n,
    with early exit would meet.

    While the record passes, ``T @ tx`` is the product the action's head
    surgery has just made, and ``@`` keeps it; ``_bivariate_record`` shares
    V's ``S x0`` alike.  That checks nothing less: an action that goes wrong
    (a bumped T, a wrong head block) has multiplied other operands, so the
    record makes its own product.
    """
    k, zero = x.cols, zeros(w.field, w.dim, w.width)
    first = {}  # column -> (n, expected, actual) at its first failing step
    for n in range(params.max_power + 1):
        if n:
            w, tx = apply_batch(tag, ops, w), ops.T @ tx
        got = w.blocks.get(0, zero)
        for _, c in _mismatches(got, tx):
            first.setdefault(c, (n, tx, got))
    counterexample = None
    if first:
        c = min(first, key=lambda c: (c % k, c))
        n, want, got = first[c]
        counterexample = {"m": c // k} if w.width > k else {}
        counterexample.update(n=n, x=_column_text(x, c % k), expected=_column_text(want, c),
                              actual=_column_text(got, c))
    return CheckRecord(name, {"max_power": params.max_power, "trials": params.trials,
                              "seed": params.seed}, counterexample)


def _injectivity_record(name: str, m: Mat, d: int, params: CheckParams) -> CheckRecord:
    """Full column rank at every level k <= max_trunc, read off ``m`` at a higher level."""
    levels = range(params.max_trunc + 1)
    shapes = [level_shape(d, k) for k in levels]
    ranks = []
    counterexample = None
    for k, (rows, cols), r in zip(levels, shapes, column_ranks(m, [c for _, c in shapes])):
        ranks.append({"trunc": k, "rows": rows, "cols": cols, "rank": r})
        if r != cols and counterexample is None:
            counterexample = {"trunc": k, "cols": cols, "rank": r}
    return CheckRecord(name, {"max_trunc": params.max_trunc, "ranks": ranks}, counterexample)


# -- single-map suite ------------------------------------------------------------


def check_sznagy(t: Mat, params: CheckParams = CheckParams(),
                 recipe: Optional[PairRecipe] = None) -> Report:
    """Dilation equation T^n = P U^n on coordinate 0, plus injectivity of U."""
    ops = sznagy(t)
    field, d = ops.field, ops.d
    x = _trial_vectors(field, d, params)
    b = Batch.of(field, d, x.cols, {0: x})
    top = truncated_matrix("SzNagyU", ops, params.max_trunc)
    records = [_dilation_record("dilation_equation", "SzNagyU", ops, b, x, x, params),
               _injectivity_record("injectivity_u", top, d, params)]
    return _make_report(_meta("sznagy", ops, params, recipe), records)


# -- two-map suite ------------------------------------------------------------------


def _bivariate_record(ops: AndoOperators, params: CheckParams) -> CheckRecord:
    """P U^n V^m = T^n S^m P for n, m <= max_power, all trial vectors as one batch.

    ``V^m X`` for every m lie side by side in one batch, so ``U`` is applied
    ``max_power`` times in all, and ``T^n S^m X`` is one matrix of the same width.
    """
    field, d = ops.field, ops.d
    x = _trial_vectors(field, d, params)
    ws, sxs = [Batch.of(field, d, x.cols, {0: x})], [x]
    for _ in range(params.max_power):
        ws.append(apply_batch("V", ops, ws[-1]))
        sxs.append(ops.S @ sxs[-1])
    return _dilation_record("bivariate_dilation_equation", "U", ops, side_by_side(ws),
                            hstack(*sxs), x, params)


def _mismatches(a: Mat, b: Mat) -> list:
    """Positions where a and b differ, in row-major order, read off the integer forms."""
    if a == b:
        return []
    return [(i, j) for i, (ra, rb) in enumerate(zip(a.ints, b.ints))
            for j, (x, y) in enumerate(zip(ra, rb)) if x * b.den != y * a.den]


def _commutation_record(ops: AndoOperators, params: CheckParams,
                        u: Mat, v: Mat) -> CheckRecord:
    """U_{k+1} V_k = V_{k+1} U_k for every k <= max_trunc, from one product per side.

    ``u`` and ``v`` are at level max_trunc + 1 or higher.  The level-k products
    are the leading d(4k+1) columns of ``U_{K+1} V_K`` and ``V_{K+1} U_K``, with
    zeros below, for K = max_trunc; both are built by columns over
    ``u.den * v.den``.  So the first failing level is the lowest one whose
    columns hold a mismatch, and the reported cell is the first in row-major
    order among that level's columns.
    """
    d = ops.d
    width = level_shape(d, params.max_trunc)[1]
    uv, vu = column_product(u, v, width), column_product(v, u, width)
    counterexample = None
    first = next((j for j in range(width) if uv[j] != vu[j]), None)
    if first is not None:
        k = (first // d + 3) // 4
        i, j = min((i, j) for j in range(first, level_shape(d, k)[1])
                   for i in uv[j].keys() | vu[j].keys() if uv[j].get(i) != vu[j].get(i))
        texts = ops.field.fmt_ints([(uv[j].get(i, 0),), (vu[j].get(i, 0),)], u.den * v.den)
        counterexample = {"trunc": k, "row": i, "col": j, "uv": texts[0][0], "vu": texts[1][0]}
    return CheckRecord("commutation", {"max_trunc": params.max_trunc}, counterexample)


def _coherence_record(ops: AndoOperators, g: Mat, h: Mat) -> CheckRecord:
    """The exchange map's two identities, ``v G = H`` and then ``v_inv v = I``; the
    first failing cell is reported.

    With ``TS = ST`` the two give ``UV = VU`` on all of W, as
    ``test_reduction_lemma_is_an_identity`` checks.  On the tail
    (coordinates 1 and up) U is the half shift P by two coordinates, then v
    on every 4-block group, and V is v_inv on every group, then P; so
    ``UV = v P^2 v_inv = P^2 = VU`` there, as v commutes with the shift P^2
    by one group.  For x at coordinate 0, ``UVx - VUx`` is ``(TS - ST)x``
    at coordinate 0 and ``(vG - H)x`` on coordinates 1..4.  They also give
    ``ker G = ker H``, v being invertible.  ``v_inv H = G`` follows, as
    ``v_inv v G``, so it is not compared.  ``build_v`` computes v_inv apart
    from v, so ``v_inv v = I`` compares two computations.
    """
    counterexample = None
    for label, got, want in (("v*G", ops.v @ g, h),
                             ("v_inv*v", ops.v_inv @ ops.v, identity(ops.field, 4 * ops.d))):
        if mism := _mismatches(got, want):
            i, j = mism[0]
            counterexample = {"which": label, "row": i, "col": j,
                              "expected": _column_text(want, j, [i])[0],
                              "actual": _column_text(got, j, [i])[0]}
            break
    return CheckRecord("v_coherence", {}, counterexample)


def _well_definedness_record(g: Mat, h: Mat) -> CheckRecord:
    kg, kh = kernel_basis(g), kernel_basis(h)
    params = {"kernel_dim_g": kg.cols, "kernel_dim_h": kh.cols}
    counterexample = None
    if kg.cols != kh.cols:
        counterexample = {"reason": "kernel dimensions differ"}
    else:
        # with equal dimensions, ker G inside ker H already makes them equal
        hk = h @ kg
        j = next((j for j in range(kg.cols) if any(r[j] for r in hk.ints)), None)
        if j is not None:
            counterexample = {"direction": "ker(G) not in ker(H)",
                              "coefficients": _column_text(kg, j)}
    return CheckRecord("well_definedness", params, counterexample)


def check_ando(ops: AndoOperators, params: CheckParams = CheckParams(),
               recipe: Optional[PairRecipe] = None,
               truncations: Optional[tuple] = None) -> Report:
    """All claims of the two-map construction on the operators ``ops`` alone: those
    ``ando`` builds, which refuses a pair that does not commute before any check
    can run, or a deliberately tampered tuple.

    ``truncations`` may supply the truncated matrices of U and V at one level
    above ``max_trunc`` or higher, when the caller needs them too; every level
    is read off their leading columns in place, and lower truncations raise
    DimensionMismatch.
    """
    top = params.max_trunc + 1
    u, v = truncations or (truncated_matrix("U", ops, top), truncated_matrix("V", ops, top))
    rows, cols = level_shape(ops.d, top)
    if any(m.rows < rows or m.cols < cols for m in (u, v)):
        raise DimensionMismatch(f"U and V must be truncated at level {top} or higher")
    g, h = build_generators(ops.T, ops.S)
    records = [
        _bivariate_record(ops, params),
        _commutation_record(ops, params, u, v),
        _injectivity_record("injectivity_u", u, ops.d, params),
        _injectivity_record("injectivity_v", v, ops.d, params),
        _coherence_record(ops, g, h),
        _well_definedness_record(g, h),
    ]
    return _make_report(_meta("ando", ops, params, recipe), records)

