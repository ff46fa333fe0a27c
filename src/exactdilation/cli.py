"""Command-line interface.

Commands: ``sznagy`` (single-map suite), ``ando`` (two-map suite), ``gen``
(write a problem file from a recipe).  Exit codes: 0 all checks pass, 1 a
check failed (report still written), 2 input error (among them an invalid
recipe, an output scalar past Python's int-to-text digit limit, when nothing
is written, and a destination that cannot be written), 3 non-commuting
input.  ``sznagy`` and ``ando`` refuse a bad flag (exit 2, one stderr line)
before they read the problem file or generate its pair.  Reports are
byte-identical across runs on the same input and flags.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache

from ._jsontext import json_text
from .dilation import NotCommuting, ando, level_shape, truncated_matrix
from .fields import RATIONAL, FieldSpec, ScalarTooLarge, gf
from .pairs import RECIPE_KINDS, InvalidRecipe, PairRecipe, gen_pair
from .problems import ProblemError, load_problem, mat_to_grid, problem_to_dict, resolve_pair
from .verify import CheckParams, Report, check_ando, check_sznagy

__all__ = ["main", "entry"]

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NOT_COMMUTING = 3


def _parse_field(text: str) -> FieldSpec:
    if text == "rational":
        return RATIONAL
    m = re.fullmatch(r"gf:?([0-9]+)", text)
    if m:
        try:
            return gf(int(m.group(1)))
        except ValueError as exc:
            raise ProblemError(str(exc)) from exc
    raise ProblemError(f"unknown field {text!r}; use 'rational' or 'gfP' with P prime")


def _add_check_flags(sub: argparse.ArgumentParser):
    sub.add_argument("--input", required=True, help="problem file (JSON)")
    sub.add_argument("--out", help="report destination (default: stdout)")
    sub.add_argument("--max-power", type=int, default=CheckParams.max_power, metavar="N",
                     help="largest exponent checked (default %(default)s)")
    sub.add_argument("--trunc", type=int, default=CheckParams.max_trunc, metavar="K",
                     help="largest truncation level checked (default %(default)s)")
    sub.add_argument("--trials", type=int, default=CheckParams.trials,
                     help="random trial vectors per check (default %(default)s)")
    sub.add_argument("--seed", type=int, default=CheckParams.seed,
                     help="trial-vector seed (default %(default)s)")
    sub.add_argument("--format", choices=("json", "text"), default="json")


@cache  # built on the first call, then shared: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactdilation",
        description="Exact dilation of linear maps, with full verification reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sznagy = sub.add_parser("sznagy", help="single-map dilation suite")
    _add_check_flags(p_sznagy)

    p_ando = sub.add_parser("ando", help="two-commuting-maps dilation suite")
    _add_check_flags(p_ando)
    p_ando.add_argument("--dump-operators", type=int, metavar="K",
                        help="also write truncated U, V and the exchange map at level K")

    p_gen = sub.add_parser("gen", help="generate a commuting-pair problem file")
    p_gen.add_argument("--kind", required=True, choices=RECIPE_KINDS)
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--field", default="rational", help="'rational' or 'gfP' (default rational)")
    p_gen.add_argument("--seed", type=int, default=PairRecipe.seed)
    p_gen.add_argument("--degree", type=int, default=PairRecipe.degree)
    p_gen.add_argument("--height", type=int, default=PairRecipe.height)
    p_gen.add_argument("--out", help="problem destination (default: stdout)")
    return parser


def _params(args) -> CheckParams:
    """The check parameters; every flag of ``sznagy`` and ``ando`` is refused here,
    before the problem file is read."""
    k = getattr(args, "dump_operators", None)
    if k is not None and args.out is None:
        raise ProblemError("--dump-operators needs --out to name the dump file")
    if k is not None and k < 0:
        raise ProblemError("--dump-operators level must be >= 0")
    try:
        return CheckParams(max_power=args.max_power, max_trunc=args.trunc,
                           trials=args.trials, seed=args.seed)
    except ValueError as exc:
        raise ProblemError(str(exc)) from exc


def _render_text(report: Report) -> str:
    meta = report.meta
    field_label = FieldSpec.from_dict(meta["field"]).label()
    lines = [f"suite: {meta['kind']}  field: {field_label}  dim: {meta['dim']}"]
    params = meta["params"]
    lines.append("params: " + "  ".join(f"{k}={params[k]}" for k in sorted(params)))
    for rec in report.checks:
        lines.append(f"{'PASS' if rec.passed else 'FAIL'} {rec.name}")
        if rec.counterexample is not None:
            lines.append(f"  counterexample: {json.dumps(rec.counterexample, sort_keys=True)}")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _write(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ProblemError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _emit(report: Report, args, *dump) -> int:
    """Write the report and, given ``(text, path)``, a dump; both are rendered first."""
    text = report.to_json() if args.format == "json" else _render_text(report)
    for content, path in ((text, args.out), *dump):
        _write(content, path)
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILED


def _cmd_sznagy(args, params: CheckParams, problem, t, s) -> int:
    code = _emit(check_sznagy(t, params, recipe=problem.recipe), args)
    # warned once the report is written, so an exit-2 run writes its error line alone
    if problem.S is not None:
        print("warning: 'S' present in input is ignored by the single-map suite",
              file=sys.stderr)
    return code


def _cmd_ando(args, params: CheckParams, problem, t, s) -> int:
    if s is None:
        raise ProblemError("the two-map suite needs both 'T' and 'S' (or a recipe)")
    ops = ando(t, s)
    k = args.dump_operators
    truncations = None
    if k is not None:
        # one build of U and V serves the audit and the dump: truncations nest
        top = max(params.max_trunc + 1, k)
        truncations = (truncated_matrix("U", ops, top), truncated_matrix("V", ops, top))
    report = check_ando(ops, params, recipe=problem.recipe, truncations=truncations)
    if k is None:
        return _emit(report, args)
    # level K is the leading block of the top build; fmt_ints writes each entry
    # in lowest terms, so the text is that of the canonical level-K matrix
    u, v = (ops.field.fmt_ints(m._grid(*level_shape(ops.d, k)), m.den) for m in truncations)
    dump = {"trunc": k, "U": u, "V": v, "v": mat_to_grid(ops.v)}
    return _emit(report, args, (json_text(dump), str(args.out) + ".operators.json"))


def _cmd_gen(args) -> int:
    field = _parse_field(args.field)
    t, s = gen_pair(PairRecipe(kind=args.kind, dim=args.dim, field=field, seed=args.seed,
                               degree=args.degree, height=args.height))
    _write(json_text(problem_to_dict(field, t, s)), args.out)
    return EXIT_PASS


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        # the one front door of both audits: flags first, then the input, read once
        params = _params(args)
        problem = load_problem(args.input)
        command = _cmd_sznagy if args.command == "sznagy" else _cmd_ando
        return command(args, params, problem, *resolve_pair(problem))
    except (ProblemError, InvalidRecipe, ScalarTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except NotCommuting as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_COMMUTING


def entry():  # console-script hook
    raise SystemExit(main())
