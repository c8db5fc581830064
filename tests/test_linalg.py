import random

import pytest

from qcactus import linalg
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
    # column 0 has its shortest-span entry in the last row, so elimination
    # pivots below the diagonal before the rows settle back in order
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
