"""Executable form of every dilation claim, producing a structured report.

Each check is recorded, never raised: a report collects one record per claim
(dilation equations, commutation, injectivity, exchange-map coherence,
well-definedness), with a minimal counterexample attached to any failure.
All comparisons are exact; there is no tolerance anywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .dilation import (
    AndoOperators,
    Generators,
    NotCommuting,
    ando,
    apply_u,
    apply_v,
    build_generators,
    sznagy,
    sznagy_apply_u,
    truncated_matrix,
)
from .fields import FieldSpec
from .linalg import Mat, column_ranks, kernel_basis, matvec
from .pairs import PairRecipe, check_commute
from .rng import SplitMix64, rand_column
from .sequences import embed, project

__all__ = ["CheckParams", "CheckRecord", "Report", "check_sznagy", "check_ando",
           "check_negative", "report_from_json"]


@dataclass(frozen=True)
class CheckParams:
    """Finite windows for the quantifiers: exponents up to ``max_power``,
    truncation levels up to ``max_trunc``, ``trials`` random vectors per check
    on top of the full standard basis."""

    max_power: int = 4
    max_trunc: int = 5
    trials: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.max_power < 1:
            raise ValueError("max_power must be >= 1")
        if self.max_trunc < 0:
            raise ValueError("max_trunc must be >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    def to_dict(self) -> dict:
        return {"max_power": self.max_power, "max_trunc": self.max_trunc,
                "trials": self.trials, "seed": self.seed}


@dataclass(frozen=True)
class CheckRecord:
    name: str
    params: dict
    passed: bool
    counterexample: Optional[dict] = None

    def __post_init__(self):
        if self.passed and self.counterexample is not None:
            raise ValueError("passing record cannot carry a counterexample")
        if not self.passed and self.counterexample is None:
            raise ValueError("failing record must carry a counterexample")

    def to_dict(self) -> dict:
        out = {"name": self.name, "params": self.params, "pass": self.passed}
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass(frozen=True)
class Report:
    meta: dict
    checks: tuple
    passed: bool

    def to_dict(self) -> dict:
        return {"meta": self.meta, "checks": [c.to_dict() for c in self.checks],
                "pass": self.passed}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _make_report(meta: dict, records) -> Report:
    records = tuple(sorted(records, key=lambda r: r.name))
    return Report(meta, records, all(r.passed for r in records))


def report_from_json(text: str) -> Report:
    obj = json.loads(text)
    if set(obj) != {"meta", "checks", "pass"}:
        raise ValueError(f"unexpected report keys: {sorted(obj)}")
    checks = []
    for c in obj["checks"]:
        extra = set(c) - {"name", "params", "pass", "counterexample"}
        if extra:
            raise ValueError(f"unexpected record keys: {sorted(extra)}")
        checks.append(CheckRecord(c["name"], c["params"], c["pass"],
                                  c.get("counterexample")))
    return Report(obj["meta"], tuple(checks), obj["pass"])


# -- shared helpers ------------------------------------------------------------


def _fmt_col(field: FieldSpec, col) -> list:
    return [field.fmt(x) for x in col]


def _trial_vectors(field: FieldSpec, d: int, params: CheckParams) -> list:
    one, zero = field.one(), field.zero()
    vectors = [tuple(one if k == i else zero for k in range(d)) for i in range(d)]
    rng = SplitMix64(params.seed)
    vectors.extend(rand_column(rng, field, d) for _ in range(params.trials))
    return vectors


def _meta(kind: str, field: FieldSpec, d: int, params: CheckParams,
          recipe: Optional[PairRecipe]) -> dict:
    return {"kind": kind, "field": field.to_dict(), "dim": d,
            "params": params.to_dict(),
            "recipe": recipe.to_dict() if recipe is not None else None}


def _level_block(m: Mat, d: int, k: int) -> Mat:
    """The level-k truncated matrix, read as the leading block of a higher level."""
    rows, cols = d * (4 * k + 5), d * (4 * k + 1)
    return Mat(m.field, rows, cols, tuple(r[:cols] for r in m.entries[:rows]))


def _injectivity_record(name: str, m: Mat, d: int, params: CheckParams) -> CheckRecord:
    """Full column rank at every level k <= max_trunc, read off ``m`` at a higher level."""
    levels = range(params.max_trunc + 1)
    widths = [d * (4 * k + 1) for k in levels]
    ranks = []
    counterexample = None
    for k, cols, r in zip(levels, widths, column_ranks(m, widths)):
        ranks.append({"trunc": k, "rows": d * (4 * k + 5), "cols": cols, "rank": r})
        if r != cols and counterexample is None:
            counterexample = {"trunc": k, "cols": cols, "rank": r}
    return CheckRecord(name, {"max_trunc": params.max_trunc, "ranks": ranks},
                       counterexample is None, counterexample)


# -- single-map suite ------------------------------------------------------------


def check_sznagy(t: Mat, params: CheckParams = CheckParams(),
                 recipe: Optional[PairRecipe] = None) -> Report:
    """Dilation equation T^n = P U^n on coordinate 0, plus injectivity of U."""
    ops = sznagy(t)
    field, d = ops.field, ops.d
    n_max = params.max_power

    counterexample = None
    for x in _trial_vectors(field, d, params):
        w, tx = embed(field, x), x
        for n in range(n_max + 1):
            if project(w) != tx:
                counterexample = {"n": n, "x": _fmt_col(field, x),
                                  "expected": _fmt_col(field, tx),
                                  "actual": _fmt_col(field, project(w))}
                break
            if n < n_max:
                w, tx = sznagy_apply_u(ops, w), matvec(t, tx)
        if counterexample:
            break
    dilation_rec = CheckRecord(
        "dilation_equation",
        {"max_power": n_max, "trials": params.trials, "seed": params.seed},
        counterexample is None, counterexample)

    top = truncated_matrix("SzNagyU", ops, params.max_trunc)
    records = [dilation_rec, _injectivity_record("injectivity_u", top, d, params)]
    return _make_report(_meta("sznagy", field, d, params, recipe), records)


# -- two-map suite ------------------------------------------------------------------


def _bivariate_record(ops: AndoOperators, params: CheckParams) -> CheckRecord:
    field, t, s = ops.field, ops.T, ops.S
    n_max = params.max_power
    counterexample = None
    for x in _trial_vectors(field, ops.d, params):
        wv, sx = embed(field, x), x
        for m_exp in range(n_max + 1):
            if m_exp > 0:
                wv, sx = apply_v(ops, wv), matvec(s, sx)
            w, tx = wv, sx
            for n_exp in range(n_max + 1):
                if n_exp > 0:
                    w, tx = apply_u(ops, w), matvec(t, tx)
                if project(w) != tx:
                    counterexample = {"n": n_exp, "m": m_exp, "x": _fmt_col(field, x),
                                      "expected": _fmt_col(field, tx),
                                      "actual": _fmt_col(field, project(w))}
                    break
            if counterexample:
                break
        if counterexample:
            break
    return CheckRecord(
        "bivariate_dilation_equation",
        {"max_power": n_max, "trials": params.trials, "seed": params.seed},
        counterexample is None, counterexample)


def _mismatches(a: Mat, b: Mat) -> list:
    """Positions where a and b differ, in row-major order."""
    return [(i, j) for i, (ra, rb) in enumerate(zip(a.entries, b.entries)) if ra != rb
            for j, (x, y) in enumerate(zip(ra, rb)) if x != y]


def _commutation_record(ops: AndoOperators, params: CheckParams,
                        u: Mat, v: Mat) -> CheckRecord:
    """U_{k+1} V_k = V_{k+1} U_k for every k <= max_trunc, from one product per side.

    ``u`` and ``v`` are at level max_trunc + 1.  The level-k products are the
    leading d(4k+1) columns of the top ones, with zeros below, so the first
    failing level is the lowest one whose columns hold a mismatch.
    """
    field, d, top = ops.field, ops.d, params.max_trunc
    uv = u @ _level_block(v, d, top)
    vu = v @ _level_block(u, d, top)
    mismatches = _mismatches(uv, vu)
    counterexample = None
    if mismatches:
        k = (min(j for _, j in mismatches) // d + 3) // 4
        i, j = next((i, j) for i, j in mismatches if j < d * (4 * k + 1))
        counterexample = {"trunc": k, "row": i, "col": j,
                          "uv": field.fmt(uv.entries[i][j]),
                          "vu": field.fmt(vu.entries[i][j])}
    return CheckRecord("commutation", {"max_trunc": params.max_trunc},
                       counterexample is None, counterexample)


def _coherence_record(ops: AndoOperators, gens: Generators) -> CheckRecord:
    field = ops.field
    counterexample = None
    for label, got, want in (("v*G", ops.v @ gens.G, gens.H),
                             ("v_inv*H", ops.v_inv @ gens.H, gens.G)):
        mism = _mismatches(got, want)
        if mism:
            i, j = mism[0]
            counterexample = {"which": label, "row": i, "col": j,
                              "expected": field.fmt(want.entries[i][j]),
                              "actual": field.fmt(got.entries[i][j])}
            break
    return CheckRecord("v_coherence", {}, counterexample is None, counterexample)


def _well_definedness_record(gens: Generators) -> CheckRecord:
    field = gens.G.field
    kg, kh = kernel_basis(gens.G), kernel_basis(gens.H)
    params = {"kernel_dim_g": kg.cols, "kernel_dim_h": kh.cols}
    zero = tuple(field.zero() for _ in range(gens.G.rows))
    counterexample = None
    if kg.cols != kh.cols:
        counterexample = {"reason": "kernel dimensions differ"}
    else:
        # with equal dimensions, ker G inside ker H already makes them equal
        for j in range(kg.cols):
            if matvec(gens.H, kg.col(j)) != zero:
                counterexample = {"direction": "ker(G) not in ker(H)",
                                  "coefficients": _fmt_col(field, kg.col(j))}
                break
    return CheckRecord("well_definedness", params, counterexample is None, counterexample)


def check_ando(t: Mat, s: Mat, params: CheckParams = CheckParams(),
               recipe: Optional[PairRecipe] = None, completion: str = "forward",
               ops: Optional[AndoOperators] = None) -> Report:
    """All claims of the two-map construction on one commuting pair.

    Raises NotCommuting (from the builder) before any check runs when the
    input pair does not commute.  ``ops`` may be supplied to audit a
    pre-built or deliberately tampered operator tuple.
    """
    if ops is None:
        ops = ando(t, s, completion=completion)
    u = truncated_matrix("U", ops, params.max_trunc + 1)
    v = truncated_matrix("V", ops, params.max_trunc + 1)
    gens = build_generators(ops.T, ops.S)
    records = [
        _bivariate_record(ops, params),
        _commutation_record(ops, params, u, v),
        _injectivity_record("injectivity_u", u, ops.d, params),
        _injectivity_record("injectivity_v", v, ops.d, params),
        _coherence_record(ops, gens),
        _well_definedness_record(gens),
    ]
    return _make_report(_meta("ando", ops.field, ops.d, params, recipe), records)


def check_negative(t: Mat, s: Mat) -> CheckRecord:
    """Contrapositive probe: a non-commuting pair must be rejected up front."""
    if check_commute(t, s):
        return CheckRecord("noncommuting_rejection",
                           {"commutes": True, "skipped": True}, True)
    try:
        ando(t, s)
    except NotCommuting:
        return CheckRecord("noncommuting_rejection",
                           {"commutes": False, "skipped": False}, True)
    return CheckRecord("noncommuting_rejection", {"commutes": False, "skipped": False},
                       False, {"error": "builder accepted a non-commuting pair"})
