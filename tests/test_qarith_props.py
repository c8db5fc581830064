"""Property tests for the canonical forms of qarith.

Dividends have int-only or mixed int/Fraction coefficients, and divisors have
a unit (±1) or a non-unit leading coefficient, so exact division runs both in
int and in Fraction arithmetic.  `derandomize` makes every run draw the same
examples.
"""

from fractions import Fraction

import pytest

from qcactus.qarith import LaurentPoly, RatFunc, _divmod_poly

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

try:
    import sympy
except ImportError:
    sympy = None

PROPS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

INTS = st.integers(-6, 6)
MIXED = st.one_of(INTS, st.fractions(min_value=-6, max_value=6, max_denominator=5))
UNIT = st.sampled_from([1, -1])
NONUNIT = st.one_of(
    st.sampled_from([2, -3, 5]),
    st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(lambda x: x not in (0, 1, -1)),
)


def polys(coeffs):
    return st.dictionaries(st.integers(-3, 3), coeffs, max_size=4).map(LaurentPoly)


def divisors(coeffs, lead):
    """Nonzero polynomials whose leading coefficient is drawn from `lead`."""
    return st.builds(
        lambda low, top, shift: LaurentPoly({**low, 4: top}).shift(shift),
        st.dictionaries(st.integers(0, 3), coeffs, max_size=3),
        lead,
        st.integers(-3, 3),
    )


DIVIDENDS = st.one_of(polys(INTS), polys(MIXED))
DIVISORS = st.one_of(
    divisors(INTS, UNIT), divisors(INTS, NONUNIT), divisors(MIXED, UNIT), divisors(MIXED, NONUNIT)
)


def assert_stored_canonical(p: LaurentPoly):
    """Every stored coefficient is a nonzero int or a Fraction that is not an integer."""
    for _, c in p.items():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


def assert_canonical(r: RatFunc):
    assert_stored_canonical(r.num)
    assert_stored_canonical(r.den)
    assert r.den.valuation == 0
    assert r.den.coefficient(r.den.degree) == 1
    if sympy is not None and not r.num.is_zero():
        v = sympy.Symbol("v")

        def to_poly(p):
            return sympy.Poly(
                sum(sympy.Rational(c) * v ** (k - p.valuation) for k, c in p.items()), v, domain="QQ"
            )

        assert sympy.gcd(to_poly(r.num), to_poly(r.den)).as_expr() == 1


@PROPS
@given(DIVIDENDS, DIVISORS)
def test_divexact_inverts_product(a, b):
    prod = a * b
    q = prod.divexact(b)
    assert q == a
    assert_stored_canonical(prod)
    assert_stored_canonical(q)


@PROPS
@given(DIVIDENDS, DIVISORS)
def test_divmod_reconstructs_dividend(a, b):
    q, r = _divmod_poly(a, b)
    assert q * b + r == a
    # the remainder lies in [val(a), val(a) + span(b)), below b's leading term
    assert r.is_zero() or (r.valuation >= a.valuation and r.degree < a.valuation + b.span)
    assert_stored_canonical(q)
    assert_stored_canonical(r)


@PROPS
@given(DIVIDENDS, DIVIDENDS)
def test_sums_and_products_store_canonical_coefficients(a, b):
    for p in (a + b, a + a, a - b, a * b, a * Fraction(1, 2), a * 2):
        assert_stored_canonical(p)


@PROPS
@given(DIVIDENDS, DIVISORS, DIVIDENDS, DIVISORS)
def test_ratfunc_canonical_form(n1, d1, n2, d2):
    a, b = RatFunc(n1, d1), RatFunc(n2, d2)
    s, p = a + b, a * b
    # cross-multiplied values, without the gcd code under test
    assert s.num * a.den * b.den == (a.num * b.den + b.num * a.den) * s.den
    assert p.num * a.den * b.den == a.num * b.num * p.den
    results = [a, b, s, p, a - b]
    if not b.is_zero():
        results.append(a / b)
    for r in results:
        assert_canonical(r)
