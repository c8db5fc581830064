import random

import pytest

from qcactus import linalg, repmodule
from qcactus.qarith import LaurentPoly, RatFunc


def rnd_entry(rng, density=0.7):
    if rng.random() > density:
        return RatFunc.zero()
    num = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(2)})
    return RatFunc.of_poly(num) if not num.is_zero() else RatFunc.one()


def test_identity_and_multiply():
    eye = linalg.identity(3)
    assert linalg.is_identity(eye)
    assert linalg.mat_mul(eye, eye) == eye


def test_invert_random_matrices():
    rng = random.Random(7)
    built = 0
    while built < 12:
        n = rng.randint(1, 5)
        a = [[rnd_entry(rng) for _ in range(n)] for _ in range(n)]
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
    a = [[v, q2], [RatFunc.zero(), RatFunc.one()]]
    inv = linalg.invert(a)
    assert linalg.is_identity(linalg.mat_mul(a, inv))


def test_invert_block_diagonal_components():
    # two decoupled blocks: row updates restricted to the pivot row's support
    # must leave every entry between the blocks zero
    one, zero, v = RatFunc.one(), RatFunc.zero(), RatFunc.monomial(1)
    a = [
        [v, zero, one],
        [zero, one + one, zero],
        [zero, zero, one],
    ]
    inv = linalg.invert(a)
    assert linalg.is_identity(linalg.mat_mul(a, inv))


def test_singular_raises():
    one = RatFunc.one()
    with pytest.raises(ValueError):
        linalg.invert([[one, one], [one, one]])


def test_singular_middle_column_raises():
    # the middle column repeats the first, so the third pivot of [A | I]
    # falls into the identity half
    one, zero = RatFunc.one(), RatFunc.zero()
    a = [[one, one, zero], [zero, zero, one], [one, one, one]]
    with pytest.raises(ValueError, match="singular"):
        linalg.invert(a)


def test_non_square_raises():
    one = RatFunc.one()
    with pytest.raises(ValueError, match="square"):
        linalg.invert([[one, one]])


def test_invert_lower_triangular_pivot_below_diagonal():
    # column 0 has its shortest-span entry in the last row, but the diagonal
    # entries are nonzero, so elimination pivots on the diagonal throughout,
    # swaps no rows, and the inverse stays lower triangular
    one, zero, v = RatFunc.one(), RatFunc.zero(), RatFunc.monomial(1)
    a = [
        [one + v * v * v, zero, zero],
        [v + v * v, one + v * v, zero],
        [one, v, v],
    ]
    inv = linalg.invert(a)
    assert linalg.is_identity(linalg.mat_mul(a, inv))
    assert linalg.is_identity(linalg.mat_mul(inv, a))
    assert all(inv[i][j].is_zero() for i in range(3) for j in range(i + 1, 3))


def test_zero_diagonal_pivots_on_the_lowest_span_entry_below(monkeypatch):
    # the diagonal of column 0 is zero: of the two entries below it, the one
    # of span 0 in the last row is swapped up and inverted first
    one, zero, v = RatFunc.one(), RatFunc.zero(), RatFunc.monomial(1)
    a = [
        [zero, one, zero],
        [one + v * v * v, zero, one],
        [one + one, v, v],
    ]
    inverted = []
    inverse = RatFunc.inverse
    monkeypatch.setattr(RatFunc, "inverse", lambda x: inverted.append(x) or inverse(x))
    inv = linalg.invert(a)
    assert inverted[0] == one + one
    assert linalg.is_identity(linalg.mat_mul(a, inv))
    assert linalg.is_identity(linalg.mat_mul(inv, a))


def transpose(a):
    return [list(col) for col in zip(*a)]


def test_invert_lower_triangular_c2_matches_its_upper_transpose():
    # C2 is lower triangular in basis order and its transpose upper triangular:
    # both are reduced on the diagonal, and the inverses must agree
    c2 = repmodule.ModuleVLambda(3, 3).matrix("C2").rows
    assert all(c2[i][j].is_zero() for i in range(len(c2)) for j in range(i + 1, len(c2)))
    assert linalg.invert(c2) == transpose(linalg.invert(transpose(c2)))


def test_rank_and_nullspace():
    one, zero = RatFunc.one(), RatFunc.zero()
    v = RatFunc.monomial(1)
    a = [[one, v], [v, v * v]]
    assert linalg.rank(a) == 1
    basis = linalg.nullspace(a)
    assert len(basis) == 1
    x = basis[0]
    for row in a:
        total = RatFunc.zero()
        for entry, coord in zip(row, x):
            total = total + entry * coord
        assert total.is_zero()
