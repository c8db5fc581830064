"""Independent oracle: RatFunc canonical forms cross-checked against sympy.

sympy is a test-only dependency; the library itself imports nothing outside
the standard library.
"""

import math
import random

import pytest

from qcactus.qarith import LaurentPoly, RatFunc

sympy = pytest.importorskip("sympy")
V = sympy.Symbol("v")


def rnd_poly(rng):
    while True:
        p = LaurentPoly({rng.randint(-5, 5): rng.randint(-4, 4) for _ in range(rng.randint(1, 4))})
        if not p.is_zero():
            return p


def to_sympy(p: LaurentPoly):
    return sum((sympy.Rational(c) * V**k for k, c in p.items()), sympy.Integer(0))


def assert_canonical(r: RatFunc, expected):
    num, den = to_sympy(r.num), to_sympy(r.den)
    assert sympy.cancel(num / den - expected) == 0
    coeffs = [c for p in (r.num, r.den) for _, c in p.items()]
    assert all(type(c) is int for c in coeffs)
    assert r.den.valuation == 0  # an ordinary polynomial with den(0) != 0
    assert r.den.coefficient(r.den.degree) > 0
    assert math.gcd(*coeffs) == 1
    if not r.num.is_zero():
        # over the field QQ the gcd is monic, so coprime means exactly 1
        shifted = sympy.Poly(num * V ** -r.num.valuation, V, domain="QQ")
        assert sympy.gcd(shifted, sympy.Poly(den, V, domain="QQ")).as_expr() == 1


def test_ratfunc_matches_sympy():
    rng = random.Random(11)
    # a small pool of shared factors, so that numerators and denominators
    # often have common factors and the gcd-reducing paths run
    pool = [rnd_poly(rng) for _ in range(3)]
    for _ in range(15):
        na, da, nb, db = (rng.choice(pool) * rnd_poly(rng) for _ in range(4))
        a, b = RatFunc(na, da), RatFunc(nb, db)
        ea, eb = to_sympy(na) / to_sympy(da), to_sympy(nb) / to_sympy(db)
        assert_canonical(a, ea)
        assert_canonical(b, eb)
        assert_canonical(a + b, ea + eb)
        assert_canonical(a * b, ea * eb)
        assert_canonical(a * b.inverse(), ea / eb)
