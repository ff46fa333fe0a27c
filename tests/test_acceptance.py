"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact; the only numeric parameters are the exponent and
truncation windows fixed below, and wall-clock budgets.
"""

import json
import time

from exactdilation.cli import main
from exactdilation.dilation import (
    ando,
    apply_u,
    apply_v,
    apply_w,
    apply_w1,
    apply_w2,
    truncated_matrix,
)
from exactdilation.fields import RATIONAL, gf
from exactdilation.linalg import (
    Mat,
    identity,
    inverse,
    is_invertible,
    kernel_basis,
    matvec,
    rank,
    rref,
    zeros,
)
from exactdilation.pairs import PairRecipe, check_commute, gen_pair
from exactdilation.rng import SplitMix64, rand_matrix
from exactdilation.sequences import fsvec, to_coords
from exactdilation.verify import CheckParams, check_ando, check_sznagy

GF7 = gf(7)
FIELDS = (RATIONAL, GF7)
KINDS = ("polynomial", "upper_triangular", "diagonal", "idempotent")


def _finish(num, label, failures, elapsed, budget):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {num} ({label}): {status} in {elapsed:.2f}s "
          f"(budget {budget:.0f}s)")
    assert not failures, failures[:3]
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


def _nilpotent_jordan(field, d):
    one, zero = field.one(), field.zero()
    return Mat(field, d, d, tuple(
        tuple(one if j == i + 1 else zero for j in range(d)) for i in range(d)))


def test_criterion_1_sznagy_suite():
    t0 = time.monotonic()
    failures = []
    params = CheckParams(max_power=8, max_trunc=6, trials=8, seed=0)
    for fi, field in enumerate(FIELDS):
        for d in range(5):
            maps = [zeros(field, d, d), identity(field, d), _nilpotent_jordan(field, d)]
            maps += [rand_matrix(SplitMix64(10_000 + 1_000 * fi + 100 * d + k), field, d)
                     for k in range(20)]
            for idx, t in enumerate(maps):
                report = check_sznagy(t, params)
                if not report.passed:
                    failures.append((field.label(), d, idx))
    _finish(1, "single-map suite", failures, time.monotonic() - t0, 10.0)


def test_criterion_2_ando_suite():
    t0 = time.monotonic()
    failures = []
    params = CheckParams(max_power=4, max_trunc=5, trials=8, seed=0)
    for fi, field in enumerate(FIELDS):
        for d in range(1, 7):
            pairs = []
            for k in range(20):
                recipe = PairRecipe(KINDS[k % len(KINDS)], d, field,
                                    seed=20_000 + 1_000 * fi + 100 * d + k)
                pairs.append(gen_pair(recipe))
            ident, zero = identity(field, d), zeros(field, d, d)
            t_special = rand_matrix(SplitMix64(30_000 + 100 * fi + d), field, d)
            pairs += [(ident, ident), (zero, zero), (t_special, t_special),
                      (t_special, t_special @ t_special), (zero, ident)]
            for idx, (t, s) in enumerate(pairs):
                report = check_ando(ando(t, s), params)
                if not report.passed:
                    failures.append((field.label(), d, idx,
                                     [r.name for r in report.checks if not r.passed]))
    _finish(2, "two-map suite", failures, time.monotonic() - t0, 60.0)


def test_criterion_3_dual_path_oracle():
    t0 = time.monotonic()
    failures = []
    trunc = 2
    n_in, n_out = 4 * trunc + 1, 4 * trunc + 5
    d = 3
    for fi, field in enumerate(FIELDS):
        t, s = gen_pair(PairRecipe("polynomial", d, field, seed=40_000 + fi))
        ops = ando(t, s)
        actions = {"U": apply_u, "V": apply_v, "W1": apply_w1, "W2": apply_w2, "W": apply_w}
        for tag, action in actions.items():
            matrix = truncated_matrix(tag, ops, trunc)
            rng = SplitMix64(41_000 + 10 * fi + ord(tag[0]))
            for _ in range(50):  # 50 per field, 100 per operator
                items = [(n, tuple(field.from_int(rng.randint(-5, 5)) for _ in range(d)))
                         for n in range(n_in)]
                w = fsvec(field, d, items)
                lazy = to_coords(action(ops, w), n_out)
                if lazy != matvec(matrix, to_coords(w, n_in)):
                    failures.append((field.label(), tag))
    _finish(3, "dual-path oracle", failures, time.monotonic() - t0, 5.0)


def test_criterion_4_extension_independence():
    t0 = time.monotonic()
    failures = []
    params = CheckParams(max_power=4, max_trunc=5, trials=8, seed=0)
    for fi, field in enumerate(FIELDS):
        for d in range(1, 4):
            pairs = []
            for k in range(20):
                recipe = PairRecipe(KINDS[k % len(KINDS)], d, field,
                                    seed=20_000 + 1_000 * fi + 100 * d + k)
                pairs.append(gen_pair(recipe))
            ident, zero = identity(field, d), zeros(field, d, d)
            t_special = rand_matrix(SplitMix64(30_000 + 100 * fi + d), field, d)
            pairs += [(ident, ident), (zero, zero), (t_special, t_special),
                      (t_special, t_special @ t_special), (zero, ident)]
            for idx, (t, s) in enumerate(pairs):
                report = check_ando(ando(t, s, completion="reverse"), params)
                if not report.passed:
                    failures.append((field.label(), d, idx))
    _finish(4, "reversed-completion suite", failures, time.monotonic() - t0, 30.0)


def test_criterion_5_negative_path(tmp_path, capsys):
    t0 = time.monotonic()
    failures = []
    rng = SplitMix64(51_000)
    produced = 0
    while produced < 20:
        d = rng.randint(2, 4)
        t = rand_matrix(rng, RATIONAL, d)
        s = rand_matrix(rng, RATIONAL, d)
        if check_commute(t, s):
            continue
        produced += 1
        from exactdilation.problems import mat_to_grid

        path = tmp_path / f"neg{produced}.json"
        path.write_text(json.dumps({
            "field": {"kind": "rational"}, "dim": d,
            "T": mat_to_grid(t), "S": mat_to_grid(s)}), encoding="utf-8")
        out = tmp_path / f"neg{produced}.report.json"
        code = main(["ando", "--input", str(path), "--out", str(out)])
        if code != 3 or out.exists():
            failures.append((produced, code))
    capsys.readouterr()  # swallow the expected rejection diagnostics
    _finish(5, "negative path", failures, time.monotonic() - t0, 2.0)


def test_criterion_6_determinism(tmp_path, capsys):
    t0 = time.monotonic()
    problem = {"field": {"kind": "rational"},
               "recipe": {"kind": "polynomial", "dim": 3, "seed": 42}}
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["ando", "--input", str(path), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    failures = [] if outs[0] == outs[1] else ["reports differ"]
    _finish(6, "byte-identical reports", failures, time.monotonic() - t0, 60.0)


def test_criterion_7_linalg_kernel():
    t0 = time.monotonic()
    failures = []

    def random_mat(rng, field, max_dim=5):
        r, c = rng.below(max_dim + 1), rng.below(max_dim + 1)
        return Mat(field, r, c, tuple(
            tuple(field.from_int(rng.randint(-9, 9)) for _ in range(c)) for _ in range(r)))

    # rank-nullity
    rng = SplitMix64(71_000)
    for i in range(500):
        m = random_mat(rng, FIELDS[i % 2])
        if rank(m) + kernel_basis(m).cols != m.cols:
            failures.append(("rank-nullity", i))
    # rref idempotence
    rng = SplitMix64(72_000)
    for i in range(500):
        m = random_mat(rng, FIELDS[i % 2])
        r, _ = rref(m)
        if rref(r)[0] != r:
            failures.append(("rref-idempotence", i))
    # inverse round-trip
    rng = SplitMix64(73_000)
    for i in range(500):
        field = FIELDS[i % 2]
        n = rng.randint(0, 4)
        m = rand_matrix(rng, field, n)
        if is_invertible(m):
            mi = inverse(m)
            if mi @ m != identity(field, n) or m @ mi != identity(field, n):
                failures.append(("inverse-round-trip", i))
        else:
            try:
                inverse(m)
                failures.append(("inverse-should-raise", i))
            except ArithmeticError:
                pass
    # GF(p) arithmetic is rational arithmetic reduced mod p
    rng = SplitMix64(74_000)
    p = 7
    for i in range(500):
        n = rng.randint(0, 4)
        a_rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        b_rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        aq = Mat(RATIONAL, n, n, tuple(tuple(RATIONAL.from_int(x) for x in r) for r in a_rows))
        bq = Mat(RATIONAL, n, n, tuple(tuple(RATIONAL.from_int(x) for x in r) for r in b_rows))
        ag = Mat(GF7, n, n, tuple(tuple(GF7.from_int(x) for x in r) for r in a_rows))
        bg = Mat(GF7, n, n, tuple(tuple(GF7.from_int(x) for x in r) for r in b_rows))

        def reduced(m):
            return tuple(tuple(int(x.numerator) * pow(int(x.denominator), -1, p) % p
                               for x in row) for row in m.entries)

        if reduced(aq @ bq) != (ag @ bg).entries or reduced(aq + bq) != (ag + bg).entries:
            failures.append(("gf-vs-rational", i))
    _finish(7, "elimination kernel identities", failures, time.monotonic() - t0, 10.0)
