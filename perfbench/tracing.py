"""Span tracing for the per-layer metrics, installed from outside the package.

``Tracer.install`` replaces the public functions listed in ``LAYERS`` by timing
wrappers in every ``exactdilation`` module namespace (and module-level dict)
that refers to them, and ``uninstall`` puts the originals back, so the package
source is never edited.  Each call records one span (name, start, end, parent
span, problem) kept in memory, and per-layer aggregates for the current
corpus pass: call counts, inclusive time (outermost call of a layer only),
self time (inclusive minus traced children), and the size counters of
``_HOOKS``.  A span's parent is the innermost traced call it ran in.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer); several functions may share one layer
LAYERS = (
    ("cli", "main", "cli"),
    ("problems", "load_problem", "problems.load"),
    ("problems", "resolve_pair", "problems.load"),
    ("pairs", "check_commute", "pairs.check_commute"),
    ("verify", "check_ando", "verify"),
    ("verify", "check_sznagy", "verify"),
    ("dilation", "ando", "dilation.ando"),
    ("dilation", "build_generators", "dilation.build_generators"),
    ("dilation", "build_v", "dilation.build_v"),
    ("dilation", "apply_u", "dilation.apply"),
    ("dilation", "apply_v", "dilation.apply"),
    ("dilation", "sznagy_apply_u", "dilation.apply"),
    ("dilation", "truncated_matrix", "dilation.truncated_matrix"),
    ("linalg", "Mat.__matmul__", "linalg.matmul"),
    ("linalg", "matvec", "linalg.matvec"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "complete_basis", "linalg.complete_basis"),
    ("linalg", "inverse", "linalg.inverse"),
)


def _bits(x) -> int:
    if isinstance(x, int):
        return x.bit_length()
    return max(int(x.numerator).bit_length(), int(x.denominator).bit_length())


def _matmul_hook(agg, args, result):
    a, b = args
    agg["linalg.matmul_madds"] += a.rows * a.cols * b.cols


def _rank_hook(agg, args, result):
    agg["linalg.rank_cells"] += args[0].rows * args[0].cols


def _truncated_hook(agg, args, result):
    agg["dilation.truncated_cols"] += result.cols


def _apply_hook(agg, args, result):
    agg["dilation.support_max"] = max(agg["dilation.support_max"], result.max_support())


def _ando_hook(agg, args, result):
    bits = max((_bits(x) for m in (result.v, result.v_inv) for row in m.entries for x in row),
               default=0)
    agg["fields.v_max_bits"] = max(agg["fields.v_max_bits"], bits)


_HOOKS = {
    "linalg.matmul": _matmul_hook,
    "linalg.rank": _rank_hook,
    "dilation.truncated_matrix": _truncated_hook,
    "dilation.apply": _apply_hook,
    "dilation.ando": _ando_hook,
}


class Tracer:
    def __init__(self):
        # one span per traced call, in columns: a pass can hold a million spans
        self.names = []
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")  # index of the caller's span, or -1
        self.span_problem = array("l")
        self.problem = -1
        self.agg = defaultdict(float)
        self._stack = []  # [span index, traced child time] per open span
        self._depth = defaultdict(int)
        self._sites = []  # (container, key, original, wrapper)

    def _wrap(self, fn, name, layer):
        hook = _HOOKS.get(layer)
        name_id = len(self.names)
        self.names.append(name)
        stack, depth = self._stack, self._depth
        span_start, span_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            frame = [len(span_end), 0.0]
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_problem.append(self.problem)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(frame)
            depth[layer] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[layer] -= 1
                elapsed = end - start
                span_start[frame[0]], span_end[frame[0]] = start, end
                agg = self.agg
                agg[layer + ".calls"] += 1
                agg[layer + ".self_s"] += elapsed - frame[1]
                if not depth[layer]:
                    agg[layer + "_s"] += elapsed
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(self.agg, args, result)
            return result

        return traced

    def prepare(self):
        """Find every reference to a traced function; call after the final import."""
        modules = [m for k, m in sys.modules.items()
                   if k == "exactdilation" or k.startswith("exactdilation.")]
        for modname, attr, layer in LAYERS:
            module = sys.modules[f"exactdilation.{modname}"]
            if attr.startswith("Mat."):
                original = getattr(module.Mat, attr[4:])
                wrapper = self._wrap(original, f"{modname}.{attr}", layer)
                self._sites.append((module.Mat, attr[4:], original, wrapper))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, f"{modname}.{attr}", layer)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        self._sites.append((vars(mod), key, original, wrapper))
                    elif isinstance(value, dict) and not key.startswith("__"):
                        self._sites.extend((value, k, original, wrapper)
                                           for k, v in value.items() if v is original)

    def _set(self, use_wrapper: bool):
        for container, key, original, wrapper in self._sites:
            value = wrapper if use_wrapper else original
            if isinstance(container, dict):
                container[key] = value
            else:
                setattr(container, key, value)

    def install(self):
        self._set(True)

    def uninstall(self):
        self._set(False)

    def take_pass(self) -> dict:
        """The aggregates since the last call, then start a new pass."""
        out, self.agg = dict(self.agg), defaultdict(float)
        return out

    def write(self, path, t0: float):
        """All spans as tab-separated text, times in seconds from ``t0``."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tproblem\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent, problem) in enumerate(zip(
                    self.span_name, self.span_start, self.span_end, self.span_parent,
                    self.span_problem)):
                fh.write(f"{i}\t{parent}\t{problem}\t{self.names[name]}\t"
                         f"{start - t0:.7f}\t{end - t0:.7f}\n")
