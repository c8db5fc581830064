"""Exact linear algebra over the rational-function field, on sparse rows.

A matrix is a list of `Row`s, dicts {col: RatFunc} that store no zeros and
read zero off their support, so every routine visits only the stored entries
of the change-of-basis matrices downstream, a few per row.

One elimination routine, `rref`, a Gauss-Jordan over RatFunc, serves every
solver: `rank` and `nullspace` read its pivots, and `invert` reduces [A | I]
and returns the right half.  The pivot is the diagonal entry when it is
nonzero, so a triangular matrix is reduced without row swaps or fill; only
when it is zero is the entry of lowest exponent span below it swapped up.

`rref` keeps no memo: each elimination of the sweep runs on one weight block
of a few rows, where reusing row updates does not pay.  `mat_mul` keys each
dot product by its factor pairs in one dict that lives for the process: the
modules of a sweep share their weight blocks, so a process (each pool worker,
or the whole of a serial sweep) reuses the sums of every module it has
already multiplied; `repmodule.matrix_N` keeps whole N1 blocks apart, so
this memo serves mostly the products of the checks.  It is emptied when it
reaches `DOT_MEMO_CAP` entries, so a long-lived process stays bounded.
RatFunc equality is structural on the canonical form, so equal keys are
equal values and every result is exact, whatever the memo held before.
"""

from __future__ import annotations

from collections import defaultdict

from .qarith import RatFunc

_ZERO = RatFunc.zero()

# the larger worker of a degree-16 sweep on two workers holds 28,400-29,900
# entries, by the modules it draws; rounded up to a power of two
DOT_MEMO_CAP = 1 << 15
# dot products formed so far in this process, by their factor pairs
_DOTS: dict[tuple, RatFunc] = {}


class Row(dict):
    """A sparse matrix row {col: RatFunc}: no zeros stored, zero off the support."""

    __slots__ = ()

    def __missing__(self, col: int) -> RatFunc:
        return _ZERO


Matrix = list[Row]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product; raises ValueError when a column key of `a` does not
    index a row of `b`.  Entries with the same factor pairs share one sum,
    with each other and with every earlier product in the process."""
    n = len(b)
    dots = _DOTS
    out = []
    for row in a:
        if row and max(row) >= n:
            raise ValueError("matrix shapes do not match for a product")
        factors: dict[int, list[RatFunc]] = defaultdict(list)
        for k, x in row.items():
            for j, y in b[k].items():
                factors[j] += (x, y)
        acc = Row()
        for j, pairs in factors.items():
            key = tuple(pairs)
            total = dots.get(key)
            if total is None:
                total = _ZERO
                for x, y in zip(pairs[::2], pairs[1::2]):
                    total = total + x * y
                if len(dots) >= DOT_MEMO_CAP:
                    dots.clear()
                dots[key] = total
            if not total.is_zero():
                acc[j] = total
        out.append(acc)
    return out


def permute(a: Matrix, perm: list[int]) -> Matrix:
    """Q A Q^{-1} for the permutation matrix Q that sends basis vector j to
    perm[j]: entry (i, j) moves to (perm[i], perm[j]), with no arithmetic."""
    out = [Row() for _ in a]
    for i, row in enumerate(a):
        out[perm[i]] = Row({perm[j]: x for j, x in row.items()})
    return out


def is_identity(a: Matrix) -> bool:
    return all(len(row) == 1 and row[i].is_one() for i, row in enumerate(a))


def invert(a: Matrix) -> Matrix:
    """Exact inverse, the right half of rref([A | I]); raises ValueError on a
    singular matrix."""
    n = len(a)
    if any(row and max(row) >= n for row in a):
        raise ValueError("matrix must be square")
    one = RatFunc.one()
    red, pivots = rref([{**row, n + i: one} for i, row in enumerate(a)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [Row({j - n: x for j, x in row.items() if j >= n}) for row in red]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over RatFunc plus the pivot columns."""
    m = [Row(row) for row in a]
    nrows = len(m)
    pivots = []
    r = 0
    # elimination fills only columns where a pivot row is nonzero, so no
    # column outside the original support ever holds a pivot
    for col in sorted(set().union(*m)):
        if r >= nrows:
            break
        if col not in m[r]:
            # off the diagonal, the entry of lowest exponent span, the first on a tie
            below = [(m[i][col].num.span + m[i][col].den.span, i)
                     for i in range(r + 1, nrows) if col in m[i]]
            if not below:
                continue
            i = min(below)[1]
            m[r], m[i] = m[i], m[r]
        inv = m[r][col].inverse()
        m[r] = prow = Row({j: y * inv for j, y in m[r].items()})
        for i2 in range(nrows):
            row = m[i2]
            f = row.get(col)
            if i2 != r and f is not None:
                for j, y in prow.items():
                    new = row[j] - f * y
                    if new.is_zero():
                        row.pop(j, None)
                    else:
                        row[j] = new
        pivots.append(col)
        r += 1
    return m, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def nullspace(a: Matrix, ncols: int) -> Matrix:
    """Basis of the right kernel of a matrix with `ncols` columns, one vector
    per free column."""
    red, pivots = rref(a)
    one = RatFunc.one()
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = Row({fc: one})
        for r, pc in enumerate(pivots):
            if fc in red[r]:
                vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis
