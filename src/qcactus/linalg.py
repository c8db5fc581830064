"""Exact linear algebra over the rational-function field.

The operator matrices downstream decompose into small blocks connected by
shared rows/columns, so `invert` splits a matrix into connected components of
its nonzero pattern and runs a fraction-free elimination inside each block:
all intermediate entries are Laurent polynomials, with a single division by
the final pivot at the end.  Pivots are chosen by lowest exponent span.

Row-reduction utilities (`rref`, `rank`, `nullspace`) work directly over
RatFunc; they only ever see small weight-block systems.
"""

from __future__ import annotations

from . import qarith
from .qarith import LaurentPoly, ONE, RatFunc

Matrix = list[list[RatFunc]]


def identity(n: int) -> Matrix:
    one, zero = RatFunc.one(), RatFunc.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, mid, m = len(a), len(b), len(b[0])
    zero = RatFunc.zero()
    out = [[zero] * m for _ in range(n)]
    for i in range(n):
        row = a[i]
        acc = out[i]
        for k in range(mid):
            x = row[k]
            if x.is_zero():
                continue
            brow = b[k]
            for j in range(m):
                y = brow[j]
                if not y.is_zero():
                    acc[j] = acc[j] + x * y
    return out


def is_identity(a: Matrix) -> bool:
    n = len(a)
    for i in range(n):
        for j in range(n):
            entry = a[i][j]
            if i == j:
                if not entry.is_one():
                    return False
            elif not entry.is_zero():
                return False
    return True


def _components(a: Matrix) -> list[list[int]]:
    """Connected components of indices under 'share a nonzero off-diagonal'."""
    n = len(a)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(n):
            if i != j and not a[i][j].is_zero():
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values())


def invert(a: Matrix) -> Matrix:
    """Exact inverse; raises ValueError on a singular matrix."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    zero = RatFunc.zero()
    out = [[zero] * n for _ in range(n)]
    for comp in _components(a):
        block = [[a[i][j] for j in comp] for i in comp]
        inv = _invert_block(block)
        for bi, i in enumerate(comp):
            for bj, j in enumerate(comp):
                out[i][j] = inv[bi][bj]
    return out


def _span(p: LaurentPoly) -> int:
    return p.span if not p.is_zero() else -1


def _invert_block(a: Matrix) -> Matrix:
    """Fraction-free Gauss-Jordan on [A | I] after clearing row denominators."""
    n = len(a)
    rows: list[list[LaurentPoly]] = []
    for i in range(n):
        den = ONE
        for x in a[i]:
            if not x.den.is_one():
                den = den * x.den.divexact(qarith.poly_gcd(den, x.den))
        row = [x.num * den.divexact(x.den) if not x.is_zero() else x.num for x in a[i]]
        aug = [den if j == i else LaurentPoly() for j in range(n)]
        rows.append(row + aug)
    prev = ONE
    for col in range(n):
        pivot = None
        best = -1
        for r in range(col, n):
            entry = rows[r][col]
            if not entry.is_zero():
                s = _span(entry)
                if pivot is None or s < best:
                    pivot, best = r, s
        if pivot is None:
            raise ValueError("matrix is singular")
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
        p = rows[col][col]
        for r in range(n):
            if r == col:
                continue
            f = rows[r][col]
            if f.is_zero():
                rows[r] = [(p * x).divexact(prev) for x in rows[r]]
            else:
                prow = rows[col]
                rows[r] = [
                    (p * x - f * y).divexact(prev) for x, y in zip(rows[r], prow)
                ]
        prev = p
    det = rows[n - 1][n - 1]
    inv_det = RatFunc(ONE, det)
    return [[RatFunc(rows[i][n + j], ONE) * inv_det for j in range(n)] for i in range(n)]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over RatFunc plus the pivot columns."""
    m = [row[:] for row in a]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for col in range(ncols):
        if r >= nrows:
            break
        best = None
        for i in range(r, nrows):
            if not m[i][col].is_zero():
                s = _span(m[i][col].num) + _span(m[i][col].den)
                if best is None or s < best[1]:
                    best = (i, s)
        if best is None:
            continue
        i = best[0]
        m[r], m[i] = m[i], m[r]
        inv = m[r][col].inverse()
        m[r] = [x * inv for x in m[r]]
        for i2 in range(nrows):
            if i2 != r and not m[i2][col].is_zero():
                f = m[i2][col]
                m[i2] = [x - f * y for x, y in zip(m[i2], m[r])]
        pivots.append(col)
        r += 1
    return m, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def nullspace(a: Matrix) -> list[list[RatFunc]]:
    """Basis of the right kernel, one vector per free column."""
    red, pivots = rref(a)
    ncols = len(a[0]) if a else 0
    free = [c for c in range(ncols) if c not in pivots]
    zero, one = RatFunc.zero(), RatFunc.one()
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis
