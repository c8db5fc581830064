"""Exact linear algebra over the rational-function field.

One elimination routine, `rref`, a Gauss-Jordan over RatFunc, serves every
solver: `rank` and `nullspace` read its pivots, and `invert` reduces [A | I]
and returns the right half.  The pivot is the diagonal entry when it is
nonzero, so a triangular matrix is reduced without row swaps or fill; only
when it is zero is the entry of lowest exponent span below it swapped up.  A
pivot row is scaled and a row update applied only at the columns where the
pivot row is nonzero, and a product visits only the nonzero entries of both
factors, so the sparse change-of-basis matrices downstream are handled
without visiting their zeros.

The entries of these matrices take few distinct values, so within one call
each distinct piece of arithmetic is formed once: `mat_mul` keys each dot
product by its factor pairs, and `rref` keys each update by (old entry,
factor, pivot entry).  RatFunc equality is structural on the canonical form,
so equal keys are equal values and every result is exact; the memos are
local to the call.
"""

from __future__ import annotations

from .qarith import LaurentPoly, RatFunc

Matrix = list[list[RatFunc]]


def identity(n: int) -> Matrix:
    one, zero = RatFunc.one(), RatFunc.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product; raises ValueError when a row of `a` is not len(b) long.
    Entries with the same nonzero factor pairs share one sum."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("matrix shapes do not match for a product")
    m = len(b[0]) if b else 0
    zero = RatFunc.zero()
    # the nonzero entries of each row of b, so the inner loop skips its zeros
    b_support = [[(j, y) for j, y in enumerate(brow) if not y.is_zero()] for brow in b]
    dots: dict[tuple, RatFunc] = {}
    out = []
    for row in a:
        factors: list[list[RatFunc]] = [[] for _ in range(m)]
        for x, brow in zip(row, b_support):
            if brow and not x.is_zero():
                for j, y in brow:
                    factors[j] += (x, y)
        acc = [zero] * m
        for j, pairs in enumerate(factors):
            if pairs:
                key = tuple(pairs)
                if key not in dots:
                    total = zero
                    for x, y in zip(pairs[::2], pairs[1::2]):
                        total = total + x * y
                    dots[key] = total
                acc[j] = dots[key]
        out.append(acc)
    return out


def is_identity(a: Matrix) -> bool:
    n = len(a)
    if any(len(row) != n for row in a):
        return False
    for i in range(n):
        for j in range(n):
            entry = a[i][j]
            if i == j:
                if not entry.is_one():
                    return False
            elif not entry.is_zero():
                return False
    return True


def invert(a: Matrix) -> Matrix:
    """Exact inverse, the right half of rref([A | I]); raises ValueError on a
    singular matrix."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    red, pivots = rref([row + e for row, e in zip(a, identity(n))])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


def _span(p: LaurentPoly) -> int:
    return p.span if not p.is_zero() else -1


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over RatFunc plus the pivot columns."""
    m = [row[:] for row in a]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    # row updates already formed in this call, by (old entry, factor, pivot entry)
    updates: dict[tuple, RatFunc] = {}
    r = 0
    for col in range(ncols):
        if r >= nrows:
            break
        if m[r][col].is_zero():
            # off the diagonal, the entry of lowest exponent span
            best = None
            for i in range(r + 1, nrows):
                if not m[i][col].is_zero():
                    s = _span(m[i][col].num) + _span(m[i][col].den)
                    if best is None or s < best[1]:
                        best = (i, s)
            if best is None:
                continue
            i = best[0]
            m[r], m[i] = m[i], m[r]
        inv = m[r][col].inverse()
        prow = m[r]
        support = [j for j, y in enumerate(prow) if not y.is_zero()]
        for j in support:
            prow[j] = prow[j] * inv
        for i2 in range(nrows):
            f = m[i2][col]
            if i2 != r and not f.is_zero():
                row = m[i2]
                for j in support:
                    key = (row[j], f, prow[j])
                    if key not in updates:
                        updates[key] = row[j] - f * prow[j]
                    row[j] = updates[key]
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
