import json

import pytest

import exactdilation.dilation as dilation_mod
import exactdilation.verify as verify_mod
from exactdilation.dilation import (
    AndoOperators,
    NotCommuting,
    ando,
    apply_batch,
    build_generators,
    sznagy,
    truncated_matrix,
)
from exactdilation.fields import RATIONAL, FieldSpec, gf
from exactdilation.linalg import (
    DimensionMismatch,
    Mat,
    from_cols,
    hstack,
    identity,
    mat,
    matvec,
    zeros,
)
from exactdilation.pairs import PairRecipe, check_commute, gen_pair
from exactdilation.rng import SplitMix64, rand_column, rand_matrix
from exactdilation.sequences import Batch, embed, project
from exactdilation.verify import (
    CheckParams,
    CheckRecord,
    _column_text,
    _mismatches,
    _trial_vectors,
    _well_definedness_record,
    check_ando,
    check_sznagy,
    report_from_json,
)

from oracles import gauss_rank, to_plain

GF7 = gf(7)
JORDAN = mat(RATIONAL, [[1, 1], [0, 1]])
FAST = CheckParams(max_power=3, max_trunc=2, trials=3, seed=1)


# -- parameters and record plumbing ------------------------------------------------


def test_check_params_validation():
    with pytest.raises(ValueError):
        CheckParams(max_power=0)
    with pytest.raises(ValueError):
        CheckParams(max_trunc=-1)
    with pytest.raises(ValueError):
        CheckParams(trials=0)
    assert CheckParams().to_dict() == {"max_power": 4, "max_trunc": 5, "trials": 8, "seed": 0}


def test_check_record_invariants():
    # the verdict is read off the counterexample, never given
    assert CheckRecord("x", {}).passed and CheckRecord("x", {}, None).to_dict()["pass"]
    rec = CheckRecord("x", {}, {"bad": "1"})
    assert not rec.passed
    assert rec.to_dict() == {"name": "x", "params": {}, "pass": False,
                             "counterexample": {"bad": "1"}}
    with pytest.raises(TypeError):
        CheckRecord("x", {}, True, {"oops": 1})
    with pytest.raises(AttributeError):
        rec.passed = True


# -- single-map suite ------------------------------------------------------------------


@pytest.mark.parametrize("t", [identity(RATIONAL, 2), zeros(RATIONAL, 2, 2), JORDAN])
def test_sznagy_suite_passes(t):
    report = check_sznagy(t, FAST)
    assert report.passed
    assert [r.name for r in report.checks] == ["dilation_equation", "injectivity_u"]
    assert all(r.counterexample is None for r in report.checks)
    assert report.meta["kind"] == "sznagy"
    assert report.meta["dim"] == 2


def test_sznagy_report_carries_ranks():
    report = check_sznagy(JORDAN, FAST)
    inj = report.checks[1]
    ranks = inj.params["ranks"]
    assert len(ranks) == FAST.max_trunc + 1
    for k, entry in enumerate(ranks):
        assert entry["trunc"] == k
        assert entry["cols"] == 2 * (4 * k + 1)
        assert entry["rows"] == 2 * (4 * k + 5)
        assert entry["rank"] == entry["cols"]


# -- two-map suite ----------------------------------------------------------------------


ANDO_CHECK_NAMES = [
    "bivariate_dilation_equation",
    "commutation",
    "injectivity_u",
    "injectivity_v",
    "v_coherence",
    "well_definedness",
]


@pytest.mark.parametrize("field", (RATIONAL, GF7))
def test_ando_suite_trivial_pairs(field):
    ident = identity(field, 2)
    report = check_ando(ando(ident, ident), FAST)
    assert report.passed
    assert [r.name for r in report.checks] == ANDO_CHECK_NAMES

    zero = zeros(field, 2, 2)
    report = check_ando(ando(zero, zero), FAST)
    assert report.passed


def test_ando_suite_derived_pair():
    report = check_ando(ando(JORDAN, JORDAN @ JORDAN),
                        CheckParams(max_power=3, max_trunc=4, trials=4, seed=2))
    assert report.passed


def test_ando_rejects_noncommuting():
    t = mat(RATIONAL, [[0, 1], [0, 0]])
    s = mat(RATIONAL, [[0, 0], [1, 0]])
    with pytest.raises(NotCommuting):
        check_ando(ando(t, s), FAST)


def test_tampered_operators_produce_counterexamples():
    # swapping in the identity exchange map leaves the dilation equation intact
    # (no block exchange ever touches the head coordinate) but must break
    # commutation and generator coherence
    t, s = JORDAN, JORDAN @ JORDAN
    bad_ops = AndoOperators(t, s, identity(RATIONAL, 8), identity(RATIONAL, 8))
    report = check_ando(bad_ops, FAST)
    assert not report.passed
    by_name = {r.name: r for r in report.checks}
    assert by_name["bivariate_dilation_equation"].passed
    commutation = by_name["commutation"]
    assert not commutation.passed
    assert set(commutation.counterexample) == {"trunc", "row", "col", "uv", "vu"}
    coherence = by_name["v_coherence"]
    assert not coherence.passed
    assert set(coherence.counterexample) == {"which", "row", "col", "expected", "actual"}
    # the failing report still serializes and round-trips
    assert report_from_json(report.to_json()).to_dict() == report.to_dict()


def test_singular_exchange_map_breaks_injectivity():
    t, s = JORDAN, JORDAN @ JORDAN
    crushed = AndoOperators(t, s, zeros(RATIONAL, 8, 8), zeros(RATIONAL, 8, 8))
    report = check_ando(crushed, FAST)
    by_name = {r.name: r for r in report.checks}
    inj = by_name["injectivity_u"]
    assert not inj.passed
    assert set(inj.counterexample) == {"trunc", "cols", "rank"}
    assert inj.counterexample["rank"] < inj.counterexample["cols"]


@pytest.mark.parametrize("field", (RATIONAL, GF7))
@pytest.mark.parametrize("d", (1, 2))
def test_v_coherence_fails_an_exchange_inverse_that_is_not_inverse(field, d):
    # T = S = I gives G = H = 0, so v G = H holds and U, V commute and are
    # injective for v = I and v_inv = 2I; only v_inv v = I can fail
    eye = identity(field, 4 * d)
    ops = AndoOperators(identity(field, d), identity(field, d), eye, eye + eye)
    by_name = {r.name: r for r in check_ando(ops, FAST).checks}
    assert by_name.pop("v_coherence").counterexample == {
        "which": "v_inv*v", "row": 0, "col": 0, "expected": "1", "actual": "2"}
    assert all(r.passed for r in by_name.values())


@pytest.mark.parametrize("field", (RATIONAL, GF7))
@pytest.mark.parametrize("kind", ("polynomial", "idempotent"))
def test_v_coherence_fails_every_single_entry_change_of_v(field, kind):
    # (v + E_ij) G - H is row j of G placed at row i, so the record fails at
    # v*G in row i when that row of G is nonzero; otherwise v G = H still holds
    # and v_inv (v + E_ij) - I is column i of v_inv, nonzero, placed at column j
    seen = set()
    for d in (1, 2, 3):
        ops = ando(*gen_pair(PairRecipe(kind, d, field, seed=5)))
        g, h = build_generators(ops.T, ops.S)
        n = 4 * d
        for i in range(n):
            for j in range(n):
                bump = mat(field, [[int((r, c) == (i, j)) for c in range(n)] for r in range(n)])
                tampered = AndoOperators(ops.T, ops.S, ops.v + bump, ops.v_inv)
                cx = verify_mod._coherence_record(tampered, g, h).counterexample
                assert cx is not None, (d, i, j)
                if any(g.ints[j]):
                    assert (cx["which"], cx["row"]) == ("v*G", i), (d, i, j, cx)
                else:
                    assert (cx["which"], cx["col"]) == ("v_inv*v", j), (d, i, j, cx)
                seen.add(cx["which"])
    assert seen == {"v*G", "v_inv*v"}


def _windowed_records_per_level(ops, max_trunc):
    """Reference for the commutation and injectivity records: every level is
    built on its own, ranked on its own, and multiplied level by level."""
    field = ops.field
    tu = [truncated_matrix("U", ops, k) for k in range(max_trunc + 2)]
    tv = [truncated_matrix("V", ops, k) for k in range(max_trunc + 2)]
    commutation = {"name": "commutation", "params": {"max_trunc": max_trunc}, "pass": True}
    for k in range(max_trunc + 1):
        uv, vu = tu[k + 1] @ tv[k], tv[k + 1] @ tu[k]
        diff = [(i, j) for i in range(uv.rows) for j in range(uv.cols)
                if uv.entries[i][j] != vu.entries[i][j]]
        if diff:
            i, j = diff[0]
            commutation["pass"] = False
            commutation["counterexample"] = {
                "trunc": k, "row": i, "col": j,
                "uv": str(uv.entries[i][j]), "vu": str(vu.entries[i][j])}
            break
    out = {"commutation": commutation}
    for name, mats in (("injectivity_u", tu), ("injectivity_v", tv)):
        ranks = [{"trunc": k, "rows": m.rows, "cols": m.cols,
                  "rank": gauss_rank(to_plain(m), field.modulus)}
                 for k, m in enumerate(mats[:max_trunc + 1])]
        rec = {"name": name, "params": {"max_trunc": max_trunc, "ranks": ranks}, "pass": True}
        for r in ranks:
            if r["rank"] != r["cols"]:
                rec["pass"] = False
                rec["counterexample"] = {"trunc": r["trunc"], "cols": r["cols"], "rank": r["rank"]}
                break
        out[name] = rec
    return out


def _tamperings(ops, rng):
    f, d, t, s = ops.field, ops.d, ops.T, ops.S
    eye, zero = identity(f, 4 * d), zeros(f, 4 * d, 4 * d)
    return {
        "honest": ops,
        "identity v": AndoOperators(t, s, eye, eye),
        "zero v": AndoOperators(t, s, zero, zero),
        "v and v_inv swapped": AndoOperators(t, s, ops.v_inv, ops.v),
        "random v": AndoOperators(t, s, rand_matrix(rng, f, 4 * d), ops.v_inv),
        "random v_inv": AndoOperators(t, s, ops.v, rand_matrix(rng, f, 4 * d)),
        "T and S swapped": AndoOperators(s, t, ops.v, ops.v_inv),
    }


@pytest.mark.parametrize("field", (RATIONAL, GF7))
def test_windowed_records_match_per_level_reference(field):
    rng = SplitMix64(71)
    failing_levels = set()
    for d in (1, 2, 3):
        pairs = [gen_pair(PairRecipe(kind, d, field, seed=d))
                 for kind in ("polynomial", "idempotent")]
        # G = H = 0 for T = S = I, so level 0 commutes whatever v and v_inv are
        for t, s in pairs + [(identity(field, d), identity(field, d))]:
            for label, ops in _tamperings(ando(t, s), rng).items():
                for max_trunc in (0, 1, 3):
                    params = CheckParams(max_power=1, max_trunc=max_trunc, trials=1)
                    got = {r.name: r.to_dict() for r in check_ando(ops, params).checks}
                    want = _windowed_records_per_level(ops, max_trunc)
                    for name, rec in want.items():
                        assert got[name] == rec, (d, t, label, max_trunc, name)
                        if not rec["pass"]:
                            failing_levels.add((name, rec["counterexample"]["trunc"]))
    # the tampered operators reach failures past level 0, not only at it
    assert {("commutation", 0), ("injectivity_u", 0)} <= failing_levels
    assert any(k > 0 for name, k in failing_levels if name == "commutation")
    assert any(k > 0 for name, k in failing_levels if name != "commutation")


@pytest.mark.parametrize("field", (RATIONAL, GF7))
@pytest.mark.parametrize("d", range(5))
def test_commutation_record_matches_per_level_reference(field, d):
    # the record is built by columns, the reference by dense products per level
    rng = SplitMix64(90 + d)
    t, s = gen_pair(PairRecipe("polynomial", d, field, seed=d))
    params = CheckParams(max_power=1, max_trunc=2, trials=1)
    failed = 0
    for label, ops in _tamperings(ando(t, s), rng).items():
        got = {r.name: r.to_dict() for r in check_ando(ops, params).checks}
        assert got["commutation"] == _windowed_records_per_level(ops, 2)["commutation"], label
        failed += not got["commutation"]["pass"]
    assert failed if d else not failed


def _dense_slice(m, rows, cols):
    """The top-left ``rows x cols`` block of ``m``, cut from its integer grid."""
    return Mat.from_ints(m.field, rows, cols, [r[:cols] for r in m.ints[:rows]], m.den)


def test_check_ando_reads_supplied_truncations_at_any_higher_level():
    t, s = gen_pair(PairRecipe("polynomial", 2, GF7, seed=5))
    ops = ando(t, s)
    want = check_ando(ops, FAST).to_json()
    for level in (FAST.max_trunc + 1, FAST.max_trunc + 3):
        truncs = (truncated_matrix("U", ops, level), truncated_matrix("V", ops, level))
        assert check_ando(ops, FAST, truncations=truncs).to_json() == want
    # a level too low, or one row or column short of the level, is refused up front
    low = (truncated_matrix("U", ops, FAST.max_trunc), truncated_matrix("V", ops, FAST.max_trunc))
    u, v = (truncated_matrix(tag, ops, FAST.max_trunc + 1) for tag in "UV")
    for short in (low, (_dense_slice(u, u.rows - 1, u.cols), v),
                  (u, _dense_slice(v, v.rows, v.cols - 1))):
        with pytest.raises(DimensionMismatch, match="truncated at level 3 or higher"):
            check_ando(ops, FAST, truncations=short)


def _scalar_view_log(monkeypatch):
    """Record every matrix product, every truncation the audit builds and the
    integer grid behind every scalar view built (``FieldSpec.from_ints``)."""
    log = {"products": [], "truncations": [], "views": []}
    from_ints, matmul = FieldSpec.from_ints, Mat.__matmul__

    def viewed(self, ints, den=1):
        log["views"].append(ints)
        return from_ints(self, ints, den)

    def product(a, b):
        log["products"].append(matmul(a, b))
        return log["products"][-1]

    def truncation(*args):
        log["truncations"].append(truncated_matrix(*args))
        return log["truncations"][-1]

    monkeypatch.setattr(FieldSpec, "from_ints", viewed)
    monkeypatch.setattr(Mat, "__matmul__", product)
    monkeypatch.setattr(verify_mod, "truncated_matrix", truncation)
    return log


@pytest.mark.parametrize("field", [RATIONAL, GF7])
def test_passing_audits_read_truncations_only_in_integer_form(field, monkeypatch):
    # scalars are built for output alone, and a passing audit builds, ranks and
    # commutes its truncated U and V by columns: no integer grid of them, no
    # scalar view of them, and no product as tall as they are
    d = 3
    t, s = gen_pair(PairRecipe("polynomial", d, field, seed=11))
    for audit in (lambda: check_sznagy(t, CheckParams(max_power=16, max_trunc=14)),
                  lambda: check_ando(ando(t, s))):
        log = _scalar_view_log(monkeypatch)
        assert audit().passed
        assert len(log["truncations"]) in (1, 2)  # U for sznagy; U and V for ando
        assert all("ints" not in m.__dict__ for m in log["truncations"])
        assert all(m.rows <= 4 * d for m in log["products"])
        assert all(len(ints) <= 4 * d for ints in log["views"])
        monkeypatch.undo()


@pytest.mark.parametrize("field", [RATIONAL, GF7])
def test_trial_vectors_are_the_basis_then_random_columns_in_draw_order(field):
    # one draw laid out column by column: each trial vector is the next d scalars
    for d in range(5):
        for params in (CheckParams(), CheckParams(trials=3, seed=d)):
            rng = SplitMix64(params.seed)
            want = hstack(identity(field, d), from_cols(
                field, d, [rand_column(rng, field, d) for _ in range(params.trials)]))
            assert _trial_vectors(field, d, params) == want


def _per_vector_dilation_records(ops, sops, params):
    """Reference for the two dilation-equation records: each trial vector on
    its own, one lazy application per step, stopping at the first failure.
    Each step goes through ``apply_batch``, so ``_bump_actions`` bumps it too."""
    field = ops.field
    n_max = params.max_power
    x_mat = _trial_vectors(field, ops.d, params)
    xs = [x_mat.col(j) for j in range(x_mat.cols)]
    bivariate = None
    for x in xs:
        wv, sx = embed(field, x), x
        for m in range(n_max + 1):
            if m:
                wv, sx = apply_batch("V", ops, wv), matvec(ops.S, sx)
            w, tx = wv, sx
            for n in range(n_max + 1):
                if n:
                    w, tx = apply_batch("U", ops, w), matvec(ops.T, tx)
                if project(w) != tx:
                    bivariate = {"n": n, "m": m, "x": [str(a) for a in x],
                                 "expected": [str(a) for a in tx],
                                 "actual": [str(a) for a in project(w)]}
                    break
            if bivariate:
                break
        if bivariate:
            break
    single = None
    for x in xs:
        w, tx = embed(field, x), x
        for n in range(n_max + 1):
            if project(w) != tx:
                single = {"n": n, "x": [str(a) for a in x],
                          "expected": [str(a) for a in tx],
                          "actual": [str(a) for a in project(w)]}
                break
            if n < n_max:
                w, tx = apply_batch("SzNagyU", sops, w), matvec(sops.T, tx)
        if single:
            break
    return bivariate, single


def _bump_actions(monkeypatch, actions, bumped, bump):
    """Restore the operator actions ``actions``, then make each tag in ``bumped``
    act with ``bump`` added to its T (S for V)."""
    for tag in actions:
        monkeypatch.setitem(dilation_mod._ACTIONS, tag, actions[tag])
    for tag in bumped:
        which = "S" if tag == "V" else "T"
        monkeypatch.setitem(
            dilation_mod._ACTIONS, tag,
            lambda o, b, _a=actions[tag], _w=which:
                _a(o.replace(**{_w: getattr(o, _w) + bump}), b))


@pytest.mark.parametrize("field", (RATIONAL, GF7))
def test_batched_dilation_records_match_per_vector_reference(field, monkeypatch):
    # the tampered exchange maps leave coordinate 0 alone, so their records
    # pass; bumping T or S inside the actions makes columns fail at different
    # steps, and the batched records must still report the first failure of
    # the first failing trial vector
    rng = SplitMix64(83)
    actions = dict(dilation_mod._ACTIONS)
    failing = set()
    for d in (1, 2, 3):
        bump = mat(field, [[1 if (i, j) == (0, d - 1) else 0 for j in range(d)]
                           for i in range(d)])
        pairs = [gen_pair(PairRecipe(kind, d, field, seed=d))
                 for kind in ("polynomial", "idempotent")]
        jordan = mat(field, [[1 if j in (i, i + 1) else 0 for j in range(d)] for i in range(d)])
        for t, s in pairs + [(jordan, jordan)]:
            honest = ando(t, s)
            f = honest.field
            tampered = {
                "honest": honest,
                "identity v": honest.replace(v=identity(f, 4 * d), v_inv=identity(f, 4 * d)),
                "v and v_inv swapped": honest.replace(v=honest.v_inv, v_inv=honest.v),
                "random v": honest.replace(v=rand_matrix(rng, f, 4 * d)),
            }
            for bumped in ((), ("U",), ("V",), ("U", "V", "SzNagyU")):
                _bump_actions(monkeypatch, actions, bumped, bump)
                for label, ops in tampered.items():
                    params = CheckParams(max_power=3, trials=3, seed=rng.below(100))
                    bivariate, single = _per_vector_dilation_records(ops, sznagy(t), params)
                    got = {r.name: r for r in check_ando(ops, params).checks}
                    rec = got["bivariate_dilation_equation"]
                    assert (rec.passed, rec.counterexample) == (bivariate is None, bivariate), \
                        (d, label, bumped)
                    rec = check_sznagy(t, params).checks[0]
                    assert rec.name == "dilation_equation"
                    assert (rec.passed, rec.counterexample) == (single is None, single), \
                        (d, label, bumped)
                    for name, cex in (("bivariate", bivariate), ("single", single)):
                        if cex is not None:
                            failing.add((name, d, tuple(cex["x"]), cex.get("m", 0) + cex["n"]))
    # e_{d-1} meets the bump at the first step, e_0 only later: a report of
    # e_0 failing past step 1 shows the first vector chosen over the first step
    assert {name for name, _, _, _ in failing} == {"bivariate", "single"}
    for name in ("bivariate", "single"):
        assert any(x == ("1",) + ("0",) * (d - 1) and steps > 1
                   for n, d, x, steps in failing if n == name and d > 1), name


def test_well_definedness_record_counterexamples():
    # unreachable from build_generators (ker G = ker H always), so handcrafted
    rec = _well_definedness_record(mat(RATIONAL, [[1, 0]]), mat(RATIONAL, [[0, 1]]))
    assert not rec.passed
    assert rec.params == {"kernel_dim_g": 1, "kernel_dim_h": 1}
    assert rec.counterexample == {"direction": "ker(G) not in ker(H)",
                                  "coefficients": ["0", "1"]}

    g, h = mat(RATIONAL, [[1, 0], [0, 0]]), mat(RATIONAL, [[1, 0], [0, 1]])
    rec = _well_definedness_record(g, h)
    assert not rec.passed
    assert rec.params == {"kernel_dim_g": 1, "kernel_dim_h": 0}
    assert rec.counterexample == {"reason": "kernel dimensions differ"}
    assert _well_definedness_record(g, g).passed


def test_extension_strategy_flag():
    report = check_ando(ando(JORDAN, JORDAN @ JORDAN, completion="reverse"), FAST)
    assert report.passed


# -- refusal of a non-commuting pair: ando() alone makes it ------------------------------


def test_negative_probe_never_reaches_construction(monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("construction must not run on non-commuting input")

    monkeypatch.setattr(dilation_mod, "build_v", explode)
    monkeypatch.setattr(dilation_mod, "build_generators", explode)
    t = mat(RATIONAL, [[0, 1], [0, 0]])
    s = mat(RATIONAL, [[0, 0], [1, 0]])
    with pytest.raises(NotCommuting):  # RuntimeError if construction started
        ando(t, s)


def test_negative_records_from_rejection_sampling():
    rng = SplitMix64(1312)
    found = 0
    while found < 5:
        t = rand_matrix(rng, RATIONAL, 3)
        s = rand_matrix(rng, RATIONAL, 3)
        if check_commute(t, s):
            continue
        found += 1
        with pytest.raises(NotCommuting):
            ando(t, s)


def _bivariate_record_per_m(ops, params):
    """The bivariate record with one pass of U per exponent m: the loop the record
    ran before it laid every V^m X side by side, kept as its oracle.  Each
    column's failure is from its first failing (m, n) in loop order."""
    field, d, n_max = ops.field, ops.d, params.max_power
    x = sx = _trial_vectors(field, d, params)
    wv = Batch.of(field, d, x.cols, {0: sx})
    zero = zeros(field, d, x.cols)
    failures = {}
    for m in range(n_max + 1):
        if m:
            wv, sx = apply_batch("V", ops, wv), ops.S @ sx
        w, tx = wv, sx
        for n in range(n_max + 1):
            if n:
                w, tx = apply_batch("U", ops, w), ops.T @ tx
            got = w.blocks.get(0, zero)
            for c in sorted({j for _, j in _mismatches(got, tx)} - failures.keys()):
                failures[c] = {"m": m, "n": n, "x": _column_text(x, c),
                               "expected": _column_text(tx, c), "actual": _column_text(got, c)}
    counterexample = failures[min(failures)] if failures else None
    return CheckRecord("bivariate_dilation_equation",
                       {"max_power": n_max, "trials": params.trials, "seed": params.seed},
                       counterexample).to_dict()


@pytest.mark.parametrize("field", (RATIONAL, GF7))
def test_bivariate_record_matches_per_m_oracle(field, monkeypatch):
    # U is applied to all V^m X at once; with U or V bumped, columns fail at
    # different m and n, and the record must keep each vector's lowest failing m
    rng = SplitMix64(97)
    actions = dict(dilation_mod._ACTIONS)
    failing_m = set()
    for d in (1, 2, 3):
        bump = mat(field, [[1 if (i, j) == (0, d - 1) else 0 for j in range(d)]
                           for i in range(d)])
        for kind in ("polynomial", "idempotent"):
            t, s = gen_pair(PairRecipe(kind, d, field, seed=d))
            tampered = _tamperings(ando(t, s), rng)
            for bumped in ((), ("U",), ("V",), ("U", "V")):
                _bump_actions(monkeypatch, actions, bumped, bump)
                for label, ops in tampered.items():
                    for max_power in (1, 2, 3):
                        params = CheckParams(max_power=max_power, trials=2, seed=rng.below(100))
                        want = _bivariate_record_per_m(ops, params)
                        assert verify_mod._bivariate_record(ops, params).to_dict() == want, \
                            (d, kind, bumped, label, max_power)
                        if not want["pass"]:
                            failing_m.add(want["counterexample"]["m"])
    assert 0 in failing_m and any(m >= 1 for m in failing_m)


@pytest.mark.parametrize("max_power", (1, 4))
def test_bivariate_record_applies_u_and_v_max_power_times(max_power, monkeypatch):
    # U and V are built from given truncations, so every action call is the record's
    t, s = gen_pair(PairRecipe("polynomial", 3, GF7, seed=4))
    params = CheckParams(max_power=max_power, max_trunc=1, trials=2)
    ops = ando(t, s)
    truncs = (truncated_matrix("U", ops, 2), truncated_matrix("V", ops, 2))
    calls = []
    for tag, action in dict(dilation_mod._ACTIONS).items():
        monkeypatch.setitem(dilation_mod._ACTIONS, tag,
                            lambda o, b, _a=action, _t=tag: calls.append((_t, b.width)) or _a(o, b))
    assert check_ando(ops, params, truncations=truncs).passed
    k = _trial_vectors(GF7, 3, params).cols
    assert calls == [("V", k)] * max_power + [("U", k * (max_power + 1))] * max_power


@pytest.mark.parametrize("field", (RATIONAL, GF7))
def test_each_dilation_step_makes_one_product(field):
    # a real product of @ is a miss of its memo.  gen_pair's self-check leaves TS
    # and ST in @'s memo, so commuting the pair again makes none.  The head surgery
    # makes T x0 (S x0 inside V) and the record's expected side asks @ for the same
    # operands, so each step makes one product; check_sznagy makes one more, for
    # coordinate 0 of its truncation
    memo = Mat.__matmul__
    t, s = gen_pair(PairRecipe("polynomial", 3, field, seed=2))
    misses = memo.cache_info().misses
    assert check_commute(t, s) and memo.cache_info().misses == misses
    params = CheckParams(max_power=5, max_trunc=2, trials=2)
    ops = ando(t, s)
    for audit, count in ((lambda: check_sznagy(t, params), 6),
                         (lambda: verify_mod._bivariate_record(ops, params), 10)):
        memo.cache_clear()
        assert audit().passed
        assert memo.cache_info().misses == count


# -- report serialization ------------------------------------------------------------------


def test_report_json_round_trip_is_fixed_point():
    report = check_ando(ando(JORDAN, JORDAN @ JORDAN), FAST,
                        recipe=PairRecipe("polynomial", 2, RATIONAL, seed=9))
    text = report.to_json()
    assert report_from_json(text).to_json() == text
    obj = json.loads(text)
    assert set(obj) == {"meta", "checks", "pass"}
    assert obj["pass"] is True
    assert obj["meta"]["recipe"]["kind"] == "polynomial"
    for check in obj["checks"]:
        assert set(check) <= {"name", "params", "pass", "counterexample"}


def test_report_bytes_deterministic():
    a = check_ando(ando(JORDAN, JORDAN @ JORDAN), FAST).to_json()
    b = check_ando(ando(JORDAN, JORDAN @ JORDAN), FAST).to_json()
    assert a == b


def test_report_checks_sorted_by_name():
    report = check_ando(ando(identity(GF7, 1), identity(GF7, 1)), FAST)
    names = [r.name for r in report.checks]
    assert names == sorted(names)


def test_report_from_json_rejects_unknown_keys():
    report = check_sznagy(JORDAN, FAST)
    obj = report.to_dict()
    obj["timestamp"] = "now"
    with pytest.raises(ValueError):
        report_from_json(json.dumps(obj))


def _spoil_record(obj, **changes):
    """``obj`` with ``changes`` made to its first record."""
    return dict(obj, checks=[dict(obj["checks"][0], **changes)] + obj["checks"][1:])


@pytest.mark.parametrize("spoil", [
    lambda obj: [obj],
    lambda obj: dict(obj, checks=3),
    lambda obj: dict(obj, checks=[3]),
    lambda obj: dict(obj, checks=[{k: v for k, v in c.items() if k != "name"}
                                  for c in obj["checks"]]),
    lambda obj: dict(obj, meta=5),
    lambda obj: dict(obj, **{"pass": "no"}),
    lambda obj: dict(obj, **{"pass": 1}),
    lambda obj: _spoil_record(obj, name=7),
    lambda obj: _spoil_record(obj, params=None),
    lambda obj: _spoil_record(obj, **{"pass": "yes"}),
    lambda obj: _spoil_record(obj, **{"pass": False}, counterexample=["n", 1]),
    lambda obj: _spoil_record(obj, **{"pass": False}, counterexample=None),
    lambda obj: {"meta": 5, "checks": [{"name": 7, "params": None, "pass": "yes"}],
                 "pass": "no"},
    lambda obj: dict(obj, **{"pass": False}),
    lambda obj: _spoil_record(obj, **{"pass": False}),
    lambda obj: _spoil_record(obj, counterexample={"n": 1}),
    lambda obj: _spoil_record(obj, **{"pass": False}, counterexample={"n": 1}),
], ids=["top_level_not_object", "checks_not_list", "record_not_object", "record_missing_key",
        "meta_not_object", "pass_not_bool", "pass_an_int", "name_not_string",
        "params_not_object", "record_pass_not_bool", "counterexample_a_list",
        "counterexample_null", "every_value_mistyped", "pass_not_the_records_verdict",
        "failing_record_without_counterexample", "passing_record_with_counterexample",
        "failing_record_under_pass_true"])
def test_report_from_json_rejects_malformed_reports(spoil):
    obj = check_sznagy(JORDAN, FAST).to_dict()
    with pytest.raises(ValueError, match="^malformed report: "):
        report_from_json(json.dumps(spoil(obj)))


def test_recipe_pair_report_passes_end_to_end():
    recipe = PairRecipe("idempotent", 3, GF7, seed=6)
    t, s = gen_pair(recipe)
    report = check_ando(ando(t, s), FAST, recipe=recipe)
    assert report.passed
    assert report.meta["recipe"]["seed"] == 6
