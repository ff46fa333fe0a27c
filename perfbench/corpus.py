"""Seeded problem corpora for the benchmark workloads.

Each workload is a list of strata.  A stratum is one kind of problem (a recipe
kind at one dimension, a special pair, a random map, ...) with a fixed pool of
members; member ``i`` is a pure function of the workload, the stratum and
``i``, so the expected outputs of every pool member can be frozen once
(``expected.json``, written by ``freeze.py``).  The benchmark seed picks
``per_pass`` members of every stratum and shuffles them: one corpus pass.
Different seeds give different corpora of the same shape, so their costs are
comparable run to run.

Explicit matrices are drawn and multiplied here, with the standard library
only, so the inputs do not depend on the package under test.  Recipe problems
leave the matrices to the package's own generator, which is part of the
measured load layer.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

RECIPE_KINDS = ("polynomial", "upper_triangular", "diagonal", "idempotent")
SPECIAL_PAIRS = ("I,I", "0,0", "T,T", "T,T^2", "0,I")
HEIGHT = 5  # numerator and denominator bound of random rationals, as in the package

ANDO_DEFAULT = ("ando", "--max-power", "4", "--trunc", "5", "--trials", "8")
SZNAGY_DEEP = ("sznagy", "--max-power", "16", "--trunc", "14")
ANDO_CONSTRUCT = ("ando", "--max-power", "1", "--trunc", "0", "--trials", "1",
                  "--dump-operators", "1")


@dataclass(frozen=True)
class Stratum:
    label: str
    per_pass: int
    pool: int
    make: Callable[[random.Random], dict]  # problem object from a member's own rng


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple
    strata: tuple


@dataclass(frozen=True)
class Problem:
    id: str
    text: str  # problem file contents

    @property
    def sha(self) -> str:
        return digest(self.text.encode())


def digest(data: Optional[bytes]) -> Optional[str]:
    return None if data is None else hashlib.sha256(data).hexdigest()[:20]


# -- exact arithmetic on plain grids ----------------------------------------------


def _field_obj(p: Optional[int]) -> dict:
    return {"kind": "rational"} if p is None else {"kind": "gf", "modulus": p}


def _scalar(rng: random.Random, p: Optional[int]):
    if p is None:
        return Fraction(rng.randint(-HEIGHT, HEIGHT), rng.randint(1, HEIGHT))
    return rng.randrange(p)


def _reduce(x, p):
    return x if p is None else x % p


def _eye(d, p, c=1):
    return [[_reduce(c if i == j else 0, p) for j in range(d)] for i in range(d)]


def _mul(a, b, p):
    return [[_reduce(sum(a[i][k] * b[k][j] for k in range(len(b))), p)
             for j in range(len(b[0]))] for i in range(len(a))]


def _rand_matrix(rng, d, p, upper=False):
    return [[_scalar(rng, p) if (j >= i or not upper) else _reduce(0, p) for j in range(d)]
            for i in range(d)]


def _poly_q(a, coeffs):
    """sum(coeffs[k] * a^k) over Q, with the powers of ``a`` taken in integers."""
    d = len(a)
    den = math.lcm(*(x.denominator for row in a for x in row))
    num = [[int(x * den) for x in row] for row in a]
    power, scale = _eye(d, None), 1
    acc = [[Fraction(0)] * d for _ in range(d)]
    for c in coeffs:
        acc = [[x + c * Fraction(y, scale) for x, y in zip(ra, rp)] for ra, rp in zip(acc, power)]
        power, scale = _mul(power, num, None), scale * den
    return acc


def _grid(m) -> list:
    return [[str(x) for x in row] for row in m]


def _explicit(p, t, s=None) -> dict:
    obj = {"field": _field_obj(p), "dim": len(t), "T": _grid(t)}
    if s is not None:
        obj["S"] = _grid(s)
    return obj


# -- problem makers -----------------------------------------------------------------


def _recipe(kind, d, p):
    def make(rng):
        return {"field": _field_obj(p),
                "recipe": {"kind": kind, "dim": d, "seed": rng.getrandbits(62)}}
    return make


def _special(name, d, p):
    def make(rng):
        t = _rand_matrix(rng, d, p)
        ident, zero = _eye(d, p), _eye(d, p, 0)
        pair = {"I,I": (ident, ident), "0,0": (zero, zero), "T,T": (t, t),
                "T,T^2": (t, _mul(t, t, p)), "0,I": (zero, ident)}[name]
        return _explicit(p, *pair)
    return make


def _noncommuting(d, p):
    def make(rng):
        while True:
            t, s = _rand_matrix(rng, d, p), _rand_matrix(rng, d, p)
            if _mul(t, s, p) != _mul(s, t, p):
                return _explicit(p, t, s)
    return make


def _random_map(d, p):
    return lambda rng: _explicit(p, _rand_matrix(rng, d, p))


def _commuting_rational(kind, d):
    """A commuting pair over Q: two cubics in one random matrix, or two diagonals."""
    def make(rng):
        if kind == "diagonal":
            t, s = ([[_scalar(rng, None) if i == j else Fraction(0) for j in range(d)]
                     for i in range(d)] for _ in range(2))
        else:
            a = _rand_matrix(rng, d, None, upper=(kind == "upper_triangular"))
            t = _poly_q(a, [_scalar(rng, None) for _ in range(4)])
            s = _poly_q(a, [_scalar(rng, None) for _ in range(4)])
        return _explicit(None, t, s)
    return make


# -- workloads -------------------------------------------------------------------------


def _ando_strata(p, per_recipe):
    strata = [Stratum(f"{kind}-d{d}", per_recipe, 2 * per_recipe, _recipe(kind, d, p))
              for kind in RECIPE_KINDS for d in range(1, 7)]
    strata += [Stratum(f"special-{name}-d{d}", 1, 4 if "T" in name else 1,
                       _special(name, d, p))
               for name in SPECIAL_PAIRS for d in (2, 4)]
    strata += [Stratum(f"noncommuting-d{d}", 1, 4, _noncommuting(d, p)) for d in (2, 4, 6)]
    return tuple(strata)


# Each corpus pass takes about PASS_S seconds of wall time.  One pass of
# many distinct problems, rather than many passes of a few, keeps the median
# and the tail from resting on a handful of inputs.
PASS_S = 20.0

WORKLOADS = {w.name: w for w in (
    Workload("ando-rational", ANDO_DEFAULT, _ando_strata(None, 3)),
    Workload("ando-gf7", ANDO_DEFAULT, _ando_strata(7, 16)),
    # five Q maps at d 6 and eleven of every other kind: the tail (the 11th
    # slowest call) then falls mid-way through the Q maps at d 5, not on the
    # gap between two strata
    Workload("sznagy-deep", SZNAGY_DEEP, tuple(
        Stratum(f"map-{'q' if p is None else 'gf7'}-d{d}", 5 if (p, d) == (None, 6) else 11, 22,
                _random_map(d, p))
        for p in (None, 7) for d in range(3, 7))),
    Workload("ando-construct", ANDO_CONSTRUCT, tuple(
        Stratum(f"{kind}-d{d}", 6, 12, _commuting_rational(kind, d))
        for kind in ("polynomial", "upper_triangular", "diagonal") for d in (8, 9, 10))),
)}


def member(workload: Workload, stratum: Stratum, i: int) -> Problem:
    pid = f"{workload.name}/{stratum.label}/{i}"
    rng = random.Random(int.from_bytes(hashlib.sha256(pid.encode()).digest()[:8], "big"))
    return Problem(pid, json.dumps(stratum.make(rng), sort_keys=True) + "\n")


def pool(workload: Workload) -> list:
    """Every problem the workload can draw, in a fixed order."""
    return [member(workload, st, i) for st in workload.strata for i in range(st.pool)]


def corpus(workload: Workload, seed: int) -> list:
    """One corpus pass for ``seed``: ``per_pass`` members of every stratum, shuffled."""
    rng = random.Random(seed)
    chosen = [member(workload, st, i) for st in workload.strata
              for i in sorted(rng.sample(range(st.pool), st.per_pass))]
    rng.shuffle(chosen)
    return chosen
