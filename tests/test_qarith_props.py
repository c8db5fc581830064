"""Property tests for the canonical forms of qarith.

Dividends have int-only or mixed int/Fraction coefficients, and divisors have
a unit (±1) or a non-unit leading coefficient, so exact division runs both in
int and in Fraction arithmetic.  The gcd is checked against `sympy` on pairs
with a planted common factor, through the heuristic and through the
pseudo-remainder fallback.  `derandomize` makes every run draw the same
examples.
"""

from fractions import Fraction

import pytest

from qcactus import qarith
from qcactus.qarith import ONE, LaurentPoly, RatFunc, _divmod_poly, poly_gcd

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


FACTORS = st.one_of(polys(INTS), polys(MIXED)).filter(lambda p: not p.is_zero())


def oracle_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The monic gcd in Q[v] of a and b with their v-powers removed, by sympy."""
    if sympy is None:
        pytest.skip("sympy is not installed")
    v = sympy.Symbol("v")

    def to_poly(p):
        return sympy.Poly([sympy.Rational(p.coefficient(k)) for k in range(p.degree, p.valuation - 1, -1)],
                          v, domain="QQ")

    g = sympy.gcd(to_poly(a), to_poly(b)).monic()
    return LaurentPoly({k: Fraction(int(c.p), int(c.q)) for (k,), c in g.terms()})


@PROPS
@given(FACTORS, FACTORS, FACTORS)
def test_gcd_of_a_planted_common_factor(g, p, q):
    a, b = g * p, g * q
    expected = oracle_gcd(a, b)
    assert poly_gcd(a, b) == expected
    assert poly_gcd(b, a) == expected
    assert_stored_canonical(expected)


@PROPS
@given(FACTORS, FACTORS, FACTORS)
def test_gcd_fallback_agrees_with_the_heuristic(g, p, q):
    a, b = g * p, g * q
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qarith, "_heu_gcd", lambda fa, fb: None)
        fallback = poly_gcd(a, b)
    assert fallback == poly_gcd(a, b) == oracle_gcd(a, b)


@PROPS
@given(st.integers(-5, 5), st.one_of(UNIT, NONUNIT), FACTORS)
def test_gcd_with_a_single_term_operand_is_one(exp, coeff, p):
    mono = LaurentPoly.monomial(exp, coeff)
    assert poly_gcd(mono, p) == ONE
    assert poly_gcd(p, mono) == ONE


def lp(*coeffs) -> LaurentPoly:
    return LaurentPoly(dict(enumerate(coeffs)))


def test_gcd_candidate_that_does_not_divide_is_rejected():
    # at the first evaluation point 31, gcd(a(31), b(31)) = 37 reads back as
    # v + 6 = b, which does not divide a: the operands are coprime
    a, b = lp(1, 0, 1), lp(6, 1)
    assert poly_gcd(a, b) == ONE
    assert qarith._heu_gcd([1, 0, 1], [6, 1]) == [1]


def test_gcd_candidate_is_made_primitive(monkeypatch):
    # the cofactors (v+1)(v+2) and (v+3)(v+4) are even at every integer, so
    # every evaluated gcd carries a spurious integer content
    def no_fallback(fa, fb):
        raise AssertionError("the pseudo-remainder fallback ran")

    monkeypatch.setattr(qarith, "_prs_gcd", no_fallback)
    g = lp(2, 0, 1)
    a, b = g * lp(1, 1) * lp(2, 1), g * lp(3, 1) * lp(4, 1)
    assert poly_gcd(a.shift(-3), b.shift(2)) == g
