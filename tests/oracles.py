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
