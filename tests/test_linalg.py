import random

import pytest

from qcactus import linalg, repmodule
from qcactus.qarith import LaurentPoly, RatFunc


def sparse(rows):
    """Dense rows of RatFunc as linalg rows, dropping the zeros."""
    return [linalg.Row({j: x for j, x in enumerate(row) if not x.is_zero()}) for row in rows]


def dense(a, ncols):
    return [[row[j] for j in range(ncols)] for row in a]


def stores_no_zero(a):
    return all(not x.is_zero() for row in a for x in row.values())


def rnd_entry(rng, density=0.7):
    if rng.random() > density:
        return RatFunc.zero()
    num = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(2)})
    return RatFunc.of_poly(num) if not num.is_zero() else RatFunc.one()


def identity(n):
    return [linalg.Row({i: RatFunc.one()}) for i in range(n)]


def test_identity_and_multiply():
    eye = identity(3)
    assert linalg.is_identity(eye)
    assert linalg.mat_mul(eye, eye) == eye
    assert dense(eye, 3) == [[RatFunc.one() if i == j else RatFunc.zero() for j in range(3)]
                             for i in range(3)]


def test_row_reads_zero_off_its_support():
    v = RatFunc.monomial(1)
    row = linalg.Row({2: v})
    assert row[2] == v
    assert row[0].is_zero() and row[7].is_zero()
    # reading off the support stores nothing
    assert row == {2: v}


def test_invert_random_matrices():
    rng = random.Random(7)
    built = 0
    while built < 12:
        n = rng.randint(1, 5)
        a = sparse([[rnd_entry(rng) for _ in range(n)] for _ in range(n)])
        try:
            inv = linalg.invert(a)
        except ValueError:
            continue
        built += 1
        assert linalg.is_identity(linalg.mat_mul(a, inv))
        assert linalg.is_identity(linalg.mat_mul(inv, a))


def test_invert_with_denominators():
    v = RatFunc.monomial(1)
    q2 = RatFunc(LaurentPoly({0: 1}), LaurentPoly({1: 1, 0: 1}))
    a = sparse([[v, q2], [RatFunc.zero(), RatFunc.one()]])
    inv = linalg.invert(a)
    assert linalg.is_identity(linalg.mat_mul(a, inv))


def test_invert_block_diagonal_components():
    # two decoupled blocks: row updates restricted to the pivot row's support
    # must leave every entry between the blocks zero
    one, zero, v = RatFunc.one(), RatFunc.zero(), RatFunc.monomial(1)
    a = sparse([
        [v, zero, one],
        [zero, one + one, zero],
        [zero, zero, one],
    ])
    inv = linalg.invert(a)
    assert linalg.is_identity(linalg.mat_mul(a, inv))
    assert all(1 not in inv[i] and i not in inv[1] for i in (0, 2))


def test_singular_raises():
    one = RatFunc.one()
    with pytest.raises(ValueError):
        linalg.invert(sparse([[one, one], [one, one]]))


def test_singular_middle_column_raises():
    # the middle column repeats the first, so the third pivot of [A | I]
    # falls into the identity half
    one, zero = RatFunc.one(), RatFunc.zero()
    a = sparse([[one, one, zero], [zero, zero, one], [one, one, one]])
    with pytest.raises(ValueError, match="singular"):
        linalg.invert(a)


def test_non_square_raises():
    one = RatFunc.one()
    with pytest.raises(ValueError, match="square"):
        linalg.invert(sparse([[one, one]]))


def test_invert_lower_triangular_pivot_below_diagonal():
    # column 0 has its shortest-span entry in the last row, but the diagonal
    # entries are nonzero, so elimination pivots on the diagonal throughout,
    # swaps no rows, and the inverse stays lower triangular
    one, zero, v = RatFunc.one(), RatFunc.zero(), RatFunc.monomial(1)
    a = sparse([
        [one + v * v * v, zero, zero],
        [v + v * v, one + v * v, zero],
        [one, v, v],
    ])
    inv = linalg.invert(a)
    assert linalg.is_identity(linalg.mat_mul(a, inv))
    assert linalg.is_identity(linalg.mat_mul(inv, a))
    assert all(max(row) <= i for i, row in enumerate(inv))


def test_zero_diagonal_pivots_on_the_lowest_span_entry_below(monkeypatch):
    # the diagonal of column 0 is zero: of the two entries below it, the one
    # of span 0 in the last row is swapped up and inverted first
    one, zero, v = RatFunc.one(), RatFunc.zero(), RatFunc.monomial(1)
    a = sparse([
        [zero, one, zero],
        [one + v * v * v, zero, one],
        [one + one, v, v],
    ])
    inverted = []
    inverse = RatFunc.inverse
    monkeypatch.setattr(RatFunc, "inverse", lambda x: inverted.append(x) or inverse(x))
    inv = linalg.invert(a)
    assert inverted[0] == one + one
    assert linalg.is_identity(linalg.mat_mul(a, inv))
    assert linalg.is_identity(linalg.mat_mul(inv, a))


def transpose(a):
    out = [linalg.Row() for _ in a]
    for i, row in enumerate(a):
        for j, x in row.items():
            out[j][i] = x
    return out


def test_invert_lower_triangular_c2_matches_its_upper_transpose():
    # C2 is lower triangular in basis order and its transpose upper triangular:
    # both are reduced on the diagonal, and the inverses must agree
    c2 = repmodule.ModuleVLambda(3, 3).matrix("C2")
    assert all(max(row) <= i for i, row in enumerate(c2))
    assert linalg.invert(c2) == transpose(linalg.invert(transpose(c2)))


def test_rank_and_nullspace():
    one, zero = RatFunc.one(), RatFunc.zero()
    v = RatFunc.monomial(1)
    a = sparse([[one, v], [v, v * v]])
    assert linalg.rank(a) == 1
    basis = linalg.nullspace(a, 2)
    assert len(basis) == 1
    for row in a:
        total = RatFunc.zero()
        for j, entry in row.items():
            total = total + entry * basis[0][j]
        assert total.is_zero()
    # a column with no entries is free, so with no rows every column is
    assert linalg.nullspace(sparse([[one, zero]]), 2) == [{1: one}]
    assert linalg.nullspace([], 3) == [{0: one}, {1: one}, {2: one}]


def test_mat_mul_rejects_mismatched_shapes():
    # a column key of a must index a row of b
    one = RatFunc.one()
    with pytest.raises(ValueError, match="shapes"):
        linalg.mat_mul(sparse([[one, one]]), sparse([[one]]))
    with pytest.raises(ValueError, match="shapes"):
        linalg.mat_mul([linalg.Row(), linalg.Row({2: one})], sparse([[one], [one]]))


def test_is_identity_rejects_non_square():
    one, zero = RatFunc.one(), RatFunc.zero()
    assert not linalg.is_identity(sparse([[one, one]]))
    assert not linalg.is_identity(sparse([[one], [zero]]))
    assert not linalg.is_identity(sparse([[zero, one], [one, zero]]))


# -- reference arithmetic without memos, for mat_mul's dot memo and rref --------


def pool_matrix(rng, nrows, ncols):
    # entries from a small pool holding each value with its negative, so dot
    # products and row updates repeat and some dot products cancel to zero
    v = RatFunc.monomial(1)
    q = RatFunc(LaurentPoly({0: 1}), LaurentPoly({0: 1, 1: 1}))
    base = [RatFunc.one(), v, q, v * q + RatFunc.one()]
    pool = base + [-x for x in base] + [RatFunc.zero()] * 4
    return [[rng.choice(pool) for _ in range(ncols)] for _ in range(nrows)]


def ref_mul(a, b):
    out = []
    for row in a:
        acc = []
        for j in range(len(b[0])):
            total = RatFunc.zero()
            for k, x in enumerate(row):
                total = total + x * b[k][j]
            acc.append(total)
        out.append(acc)
    return out


def ref_rref(a):
    # Gauss-Jordan on the first nonzero entry of each column; the reduced row
    # echelon form is unique, so any pivot rule gives the same matrix
    m = [row[:] for row in a]
    pivots, r = [], 0
    for col in range(len(m[0])):
        rows = [i for i in range(r, len(m)) if not m[i][col].is_zero()]
        if not rows:
            continue
        m[r], m[rows[0]] = m[rows[0]], m[r]
        inv = m[r][col].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots


def test_memoized_mat_mul_equals_reference_product():
    rng = random.Random(11)
    cancelled = 0
    for _ in range(30):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        a, b = pool_matrix(rng, n, k), pool_matrix(rng, k, m)
        expected = ref_mul(a, b)
        product = linalg.mat_mul(sparse(a), sparse(b))
        assert dense(product, m) == expected
        assert stores_no_zero(product)
        cancelled += sum(
            expected[i][j].is_zero()
            and any(not a[i][t].is_zero() and not b[t][j].is_zero() for t in range(k))
            for i in range(n) for j in range(m)
        )
    assert cancelled > 0


def test_rref_and_invert_equal_reference_gauss_jordan():
    rng = random.Random(5)
    for _ in range(30):
        ncols = rng.randint(1, 6)
        a = pool_matrix(rng, rng.randint(1, 5), ncols)
        red, pivots = linalg.rref(sparse(a))
        assert (dense(red, ncols), pivots) == ref_rref(a)
        assert stores_no_zero(red)
    inverted = 0
    while inverted < 10:
        n = rng.randint(2, 5)
        a = pool_matrix(rng, n, n)
        ref, pivots = ref_rref([row + e for row, e in zip(a, dense(identity(n), n))])
        if pivots == list(range(n)):
            inv = linalg.invert(sparse(a))
            assert dense(inv, n) == [row[n:] for row in ref]
            assert stores_no_zero(inv)
            inverted += 1


def test_mat_mul_forms_a_repeated_row_once(monkeypatch):
    # b has distinct columns and no zeros, so on the test's empty memo each dot
    # product of one row is new, and the second copy of that row repeats all of them
    rng = random.Random(3)
    row = [RatFunc.monomial(e, c) for e, c in ((0, 2), (1, -1), (2, 3))]
    b = [[RatFunc.monomial(rng.randint(-2, 2), rng.randint(1, 9)) for _ in range(4)]
         for _ in range(3)]
    assert len({tuple(b[k][j] for k in range(3)) for j in range(4)}) == 4
    calls = []
    mul = RatFunc.__mul__
    monkeypatch.setattr(RatFunc, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    expected = ref_mul([row, row], b)
    reference_calls = len(calls)
    calls.clear()
    assert dense(linalg.mat_mul(sparse([row, row]), sparse(b)), 4) == expected
    assert 2 * len(calls) == reference_calls == 24


def test_permute_commutes_with_products_and_inverses():
    # Q A Q^{-1} for random A, B and a random permutation Q, against the
    # products with the permutation matrix Q itself
    rng = random.Random(11)
    checked = 0
    while checked < 8:
        n = rng.randint(2, 5)
        a, b = (sparse([[rnd_entry(rng) for _ in range(n)] for _ in range(n)]) for _ in range(2))
        perm = rng.sample(range(n), n)
        q = [linalg.Row() for _ in range(n)]
        for j, i in enumerate(perm):
            q[i][j] = RatFunc.one()
        q_inv = [linalg.Row({i: RatFunc.one()}) for i in perm]
        moved = linalg.permute(a, perm)
        assert moved == linalg.mat_mul(linalg.mat_mul(q, a), q_inv)
        assert stores_no_zero(moved)
        assert linalg.permute(linalg.mat_mul(a, b), perm) == linalg.mat_mul(
            moved, linalg.permute(b, perm))
        try:
            a_inv = linalg.invert(a)
        except ValueError:
            continue
        assert linalg.permute(a_inv, perm) == linalg.invert(moved)
        checked += 1


def test_permute_by_an_involution_twice_returns_the_matrix():
    rng = random.Random(5)
    n = 6
    a = sparse([[rnd_entry(rng) for _ in range(n)] for _ in range(n)])
    swap = [1, 0, 2, 5, 4, 3]
    assert linalg.permute(a, swap) != a
    assert linalg.permute(linalg.permute(a, swap), swap) == a


# -- the dot memo that lives for the process ---------------------------------


def pool_products(rng, count):
    """`count` factor pairs of random shapes over the small pool of values."""
    pairs = []
    for _ in range(count):
        n, k, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        pairs.append((pool_matrix(rng, n, k), pool_matrix(rng, k, m)))
    return pairs


def test_products_on_a_warm_memo_equal_the_reference(monkeypatch):
    rng = random.Random(17)
    first, second = pool_products(rng, 30), pool_products(rng, 30)
    expected = [ref_mul(a, b) for a, b in first + second]
    for a, b in first:
        linalg.mat_mul(sparse(a), sparse(b))
    adds = []
    add = RatFunc.__add__
    monkeypatch.setattr(RatFunc, "__add__", lambda x, y: adds.append(1) or add(x, y))

    def products(pairs):
        adds.clear()
        return [linalg.mat_mul(sparse(a), sparse(b)) for a, b in pairs], len(adds)

    # the products already formed take every sum from the memo, and the new
    # ones form fewer sums than they would on an empty memo
    again, again_adds = products(first)
    new, warm_adds = products(second)
    monkeypatch.setattr(linalg, "_DOTS", {})
    assert again_adds == 0 and warm_adds < products(second)[1]
    for (a, b), product, ref in zip(first + second, again + new, expected):
        assert dense(product, len(b[0])) == ref
        assert stores_no_zero(product)


def test_a_dot_sum_that_raises_part_way_stores_nothing(monkeypatch):
    rng = random.Random(23)
    a, b = pool_matrix(rng, 4, 5), pool_matrix(rng, 5, 4)
    expected = ref_mul(a, b)
    add = RatFunc.__add__
    for fail_at in range(1, 12):
        dots = {}
        monkeypatch.setattr(linalg, "_DOTS", dots)
        count = []

        def failing_add(x, y):
            count.append(1)
            if len(count) == fail_at:
                raise ArithmeticError("injected")
            return add(x, y)

        monkeypatch.setattr(RatFunc, "__add__", failing_add)
        with pytest.raises(ArithmeticError):
            linalg.mat_mul(sparse(a), sparse(b))
        monkeypatch.setattr(RatFunc, "__add__", add)
        # every stored sum is whole: each equals its pairs summed afresh
        assert len(dots) < fail_at
        for key, total in dots.items():
            assert total == sum((x * y for x, y in zip(key[::2], key[1::2])), RatFunc.zero())
        assert dense(linalg.mat_mul(sparse(a), sparse(b)), 4) == expected


def test_the_memo_never_exceeds_its_cap(monkeypatch):
    cap = 8
    sizes = []

    class Watched(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            sizes.append(len(self))

    monkeypatch.setattr(linalg, "DOT_MEMO_CAP", cap)
    monkeypatch.setattr(linalg, "_DOTS", Watched())
    rng = random.Random(29)
    for a, b in pool_products(rng, 20):
        assert dense(linalg.mat_mul(sparse(a), sparse(b)), len(b[0])) == ref_mul(a, b)
    # the memo filled to its cap, was emptied and filled again
    assert max(sizes) == cap and sizes.count(1) > 1 and len(sizes) > 2 * cap
