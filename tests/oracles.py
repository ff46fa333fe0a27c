"""Independent brute-force oracles for expected values.

Everything here works on plain lists of stdlib Fractions (or small ints mod
p), deliberately sharing no code or scalar representation with the package
under test.
"""

from fractions import Fraction


def to_plain(m):
    """Package matrix -> list-of-lists of Fraction (rational) or int (mod p)."""
    if m.field.is_rational:
        return [[Fraction(int(x.numerator), int(x.denominator)) for x in row]
                for row in m.entries]
    return [[int(x) for x in row] for row in m.entries]


def col_to_plain(field, col):
    if field.is_rational:
        return [Fraction(int(x.numerator), int(x.denominator)) for x in col]
    return [int(x) for x in col]


def plain_mult(a, b, p=None, out_cols=None):
    n = len(a)
    inner = len(b)
    m = out_cols if out_cols is not None else (len(b[0]) if inner else 0)
    out = [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0) if p is None else 0)
            for j in range(m)] for i in range(n)]
    if p is not None:
        out = [[x % p for x in row] for row in out]
    return out


def plain_matvec(a, x, p=None):
    out = [sum((row[j] * x[j] for j in range(len(x))), Fraction(0) if p is None else 0)
           for row in a]
    if p is not None:
        out = [v % p for v in out]
    return out


def plain_eye(n, p=None):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def plain_pow_vec(a, n, x, p=None):
    """a^n applied to x by repeated multiplication."""
    for _ in range(n):
        x = plain_matvec(a, x, p)
    return x


def gauss_rank(rows, p=None):
    """Rank by forward Gaussian elimination on a copy; counts nonzero rows."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c] == 0:
                continue
            if p is None:
                f = Fraction(rows[i][c], 1) / Fraction(pr[c], 1)
                rows[i] = [rows[i][j] - f * pr[j] for j in range(ncols)]
            else:
                f = (rows[i][c] * pow(pr[c], -1, p)) % p
                rows[i] = [(rows[i][j] - f * pr[j]) % p for j in range(ncols)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def plain_complete_basis(vectors, n, p=None, reverse=False):
    """Greedy completion of ``vectors`` (plain lists of length n) to a basis of F^n:
    the indices i, in scan order, whose e_i makes ``gauss_rank`` grow."""
    rows = [list(v) for v in vectors]
    kept = []
    for i in (range(n - 1, -1, -1) if reverse else range(n)):
        unit = [1 if j == i else 0 for j in range(n)]
        if gauss_rank(rows + [unit], p) > gauss_rank(rows, p):
            rows.append(unit)
            kept.append(i)
    return kept


def plain_rref(rows, p=None):
    """Reduced row echelon form by Gauss-Jordan elimination on a copy, and its pivots."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        if p is None:
            inv = 1 / Fraction(rows[r][c])
            rows[r] = [x * inv for x in rows[r]]
        else:
            inv = pow(rows[r][c], -1, p)
            rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f != 0:
                rows[i] = [x - f * y if p is None else (x - f * y) % p
                           for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _nonzero_blocks(seq):
    return {n: col for n, col in sorted(seq.items()) if any(x != 0 for x in col)}


def lazy_head_surgery(m, w, shift, p=None):
    """(x_n) -> (M x0, (I-M) x0, then x1, x2, ... moved up by shift).

    ``w`` maps coordinates to plain lists; so does the result, zero blocks dropped.
    """
    x0 = w.get(0, [0] * len(m))
    mx = plain_matvec(m, x0, p)
    out = {n + shift: list(col) for n, col in w.items() if n >= 1}
    out[0] = mx
    out[1] = [a - b if p is None else (a - b) % p for a, b in zip(x0, mx)]
    return _nonzero_blocks(out)


def lazy_block_exchange(v, w, p=None):
    """v on each 4-block of coordinates 4b+1 .. 4b+4, coordinate 0 untouched."""
    d = len(v) // 4
    out = {0: list(w[0])} if 0 in w else {}
    for b in {(n - 1) // 4 for n in w if n >= 1}:
        x = [e for k in range(1, 5) for e in w.get(4 * b + k, [0] * d)]
        y = plain_matvec(v, x, p)
        for k in range(4):
            out[4 * b + 1 + k] = y[k * d:(k + 1) * d]
    return _nonzero_blocks(out)


def lazy_action(tag, t, s, v, v_inv, w, p=None):
    """The operator named ``tag`` on ``w``, from plain matrices T, S, v, v_inv."""
    if tag == "SzNagyU":
        return lazy_head_surgery(t, w, 1, p)
    if tag == "W1":
        return lazy_head_surgery(t, w, 2, p)
    if tag == "W2":
        return lazy_head_surgery(s, w, 2, p)
    if tag == "W":
        return lazy_block_exchange(v, w, p)
    if tag == "Winv":
        return lazy_block_exchange(v_inv, w, p)
    if tag == "U":
        return lazy_block_exchange(v, lazy_head_surgery(t, w, 2, p), p)
    if tag == "V":
        return lazy_head_surgery(s, lazy_block_exchange(v_inv, w, p), 2, p)
    raise ValueError(f"unknown operator tag {tag!r}")
