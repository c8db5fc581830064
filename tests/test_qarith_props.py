"""Property tests for the canonical forms of qarith.

Coefficients are drawn as ints or as mixed int/Fraction values.  A
polynomial with Fraction coefficients p / d is used as its integer numerator
p, which carries a content, and as the RatFunc p / d, so exact division runs
over every kind of content and the canonical form over every rational value.
Divisors have a unit (±1) or a non-unit leading coefficient.  The gcd and its
cofactors are checked against `sympy` and by multiplication on pairs with a
planted common factor, on operands in v, v^2 and v^3 and with mixed strides,
through the heuristic and through the pseudo-remainder fallback.
`derandomize` makes every run draw the same examples.
"""

import math
from fractions import Fraction

import pytest

from qcactus import qarith
from qcactus.qarith import ONE, LaurentPoly, RatFunc, _of_form, poly_gcd

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


def cleared(coeffs: dict) -> tuple[LaurentPoly, int]:
    """(p, d) with sum(c v^k) = p / d: d > 0 the lcm of the coefficient
    denominators, so that p has integer coefficients."""
    d = math.lcm(*(Fraction(c).denominator for c in coeffs.values()))
    return LaurentPoly({k: int(c * d) for k, c in coeffs.items()}), d


def quotient(num: dict, den: dict) -> RatFunc:
    """The quotient of two polynomials with rational coefficients."""
    (p, a), (q, b) = cleared(num), cleared(den)
    return RatFunc(p * b, q * a)


def coeff_dicts(coeffs):
    return st.dictionaries(st.integers(-3, 3), coeffs, max_size=4)


def divisor_dicts(coeffs, lead):
    """Nonzero polynomials whose leading coefficient is drawn from `lead`."""
    return st.builds(
        lambda low, top, shift: {k + shift: c for k, c in {**low, 4: top}.items()},
        st.dictionaries(st.integers(0, 3), coeffs, max_size=3),
        lead,
        st.integers(-3, 3),
    )


NUM_DICTS = st.one_of(coeff_dicts(INTS), coeff_dicts(MIXED))
DEN_DICTS = st.one_of(
    divisor_dicts(INTS, UNIT), divisor_dicts(INTS, NONUNIT),
    divisor_dicts(MIXED, UNIT), divisor_dicts(MIXED, NONUNIT),
)
# integer numerators: a Fraction coefficient leaves a content
DIVIDENDS = NUM_DICTS.map(lambda c: cleared(c)[0])
DIVISORS = DEN_DICTS.map(lambda c: cleared(c)[0])
# the rational values themselves
QUOTIENTS = st.builds(quotient, NUM_DICTS, DEN_DICTS)
NONZERO_INTS = st.integers(-30, 30).filter(bool)


def assert_stored_canonical(p: LaurentPoly):
    """Every stored coefficient is a nonzero int."""
    for _, c in p.items():
        assert type(c) is int and c != 0, repr(c)


def assert_canonical(r: RatFunc):
    """Integer coefficients, den(0) != 0, a positive leading coefficient of den,
    no common integer factor and, over QQ, no common polynomial factor."""
    assert_stored_canonical(r.num)
    assert_stored_canonical(r.den)
    assert r.den.valuation == 0
    assert r.den.coefficient(r.den.degree) > 0
    assert math.gcd(*(c for p in (r.num, r.den) for _, c in p.items())) == 1
    if sympy is not None and not r.num.is_zero():
        v = sympy.Symbol("v")

        def to_poly(p):
            return sympy.Poly(
                sum(sympy.Rational(c) * v ** (k - p.valuation) for k, c in p.items()), v, domain="QQ"
            )

        assert sympy.gcd(to_poly(r.num), to_poly(r.den)).as_expr() == 1


STRIDES = st.sampled_from([1, 2, 3])


def strided(p: LaurentPoly, s: int, k: int = 0) -> LaurentPoly:
    """p(v^s) v^k."""
    return p.compose_monomial(s).shift(k)


def assert_form_rebuilds(p: LaurentPoly):
    """The cached strided form, if any, is p itself, primitive in its stride."""
    if p._form is not None:
        val, s, content, ints = p._form
        assert _of_form(val, s, content, ints) == p
        assert ints[0] and ints[-1] and math.gcd(*ints) == 1


@PROPS
@given(DIVIDENDS, DIVISORS, STRIDES, STRIDES)
def test_divexact_inverts_product(a, b, s, t):
    a, b = strided(a, s), strided(b, s * t)
    prod = a * b
    q = prod.divexact(b)
    assert q == a
    assert_stored_canonical(prod)
    assert_stored_canonical(q)
    # the quotient carries its form, and dividing by it again uses that form
    assert_form_rebuilds(q)
    if not a.is_zero():
        assert (-q * 6).divexact(-q * 3).shift(5) == LaurentPoly.monomial(5, 2)
        # the quotient 3/2 is not in Z[v, 1/v]
        with pytest.raises(ValueError):
            (-q * 3).divexact(-q * 2)
        assert prod.divexact(q) == b


@PROPS
@given(DIVIDENDS, DIVISORS, st.integers(-4, 12), st.one_of(UNIT, NONUNIT), STRIDES)
def test_divexact_raises_on_an_inexact_division(a, b, e, c, s):
    # b is not a single term, so it does not divide c v^e, nor a b + c v^e,
    # nor d (a b + c v^e) for c = n / d
    a, b = strided(a, s), strided(b, s)
    if len(b.items()) < 2:
        return
    n, d = Fraction(c).as_integer_ratio()
    with pytest.raises(ValueError):
        (a * b * d + LaurentPoly.monomial(e, n)).divexact(b)


@pytest.mark.parametrize("num, den, quotient", [
    ({0: 2, 1: 2}, {0: 1, 1: 1}, {0: 2}),
    ({0: 3, 1: 5, 2: 2}, {0: 3, 1: 2}, {0: 1, 1: 1}),
    ({0: 1, 6: 1}, {0: 1, 2: 1}, {0: 1, 2: -1, 4: 1}),
    ({-3: 3, 3: 3}, {-1: 1, 1: 1}, {-2: 3, 0: -3, 2: 3}),
    ({4: 14}, {1: -2}, {3: -7}),
])
def test_divexact_examples(num, den, quotient):
    q = LaurentPoly(num).divexact(LaurentPoly(den))
    assert q == LaurentPoly(quotient)
    assert_form_rebuilds(q)


@pytest.mark.parametrize("num, den", [
    ({0: 1, 2: 1}, {0: 1, 1: 1}),
    # each is 1 + w in its own stride, but 1 + v^2 does not divide 1 + v^4
    ({0: 1, 4: 1}, {0: 1, 2: 1}),
    ({0: 1, 1: 1}, {0: 2, 1: 1}),
    ({0: 3, 1: 5, 2: 4}, {0: 3, 1: 2}),
    ({0: 1, 1: 1}, {0: 1, 1: 1, 2: 1}),
    # the quotients 1/2 and -7/2 v^3 are not in Z[v, 1/v]
    ({0: 1, 1: 1}, {0: 2, 1: 2}),
    ({4: 7}, {1: -2}),
])
def test_divexact_rejects_inexact_examples(num, den):
    with pytest.raises(ValueError):
        LaurentPoly(num).divexact(LaurentPoly(den))


@PROPS
@given(DIVIDENDS, st.integers(-3, 3), NONZERO_INTS)
def test_cached_form_rebuilds_its_polynomial(p, k, c):
    if p.is_zero():
        return
    p._strided()
    for q in (p, -p, p.shift(k), p * c, p * LaurentPoly.monomial(k, c), strided(p, 2)):
        q._strided()
        assert_form_rebuilds(q)
        assert q == LaurentPoly(dict(q.items()))


@PROPS
@given(DIVIDENDS, DIVIDENDS)
def test_sums_and_products_store_canonical_coefficients(a, b):
    for p in (a + b, a + a, a - b, a * b, a * -3, a * 2):
        assert_stored_canonical(p)


@PROPS
@given(QUOTIENTS, QUOTIENTS)
def test_ratfunc_canonical_form(a, b):
    s, p = a + b, a * b
    # cross-multiplied values, without the gcd code under test
    assert s.num * a.den * b.den == (a.num * b.den + b.num * a.den) * s.den
    assert p.num * a.den * b.den == a.num * b.num * p.den
    results = [a, b, s, p, a - b]
    if not b.is_zero():
        results.append(a / b)
    for r in results:
        assert_canonical(r)


@PROPS
@given(DIVIDENDS, DIVISORS, NONZERO_INTS, st.integers(-4, 4))
def test_ratfunc_ignores_a_common_monomial(p, q, c, k):
    a, b = RatFunc(p, q), RatFunc(p * LaurentPoly.monomial(k, c), q * LaurentPoly.monomial(k, c))
    assert (a.num, a.den) == (b.num, b.den)
    assert hash(a) == hash(b)
    assert_canonical(b)


RATFUNCS = st.one_of(
    # c v^k over 1, a rational constant times v^k, a polynomial over 1, and a
    # general quotient
    st.builds(RatFunc.monomial, st.integers(-4, 4), st.one_of(UNIT, st.sampled_from([2, -3, 5]))),
    st.builds(lambda k, c: RatFunc.monomial(k) * RatFunc.scalar(c), st.integers(-4, 4), NONUNIT),
    DIVIDENDS.map(RatFunc.of_poly),
    QUOTIENTS,
)

# a polynomial p g over 1 and a quotient n / (g d): their product must cancel g
PLANTED = st.builds(
    lambda p, g, n, d: (RatFunc.of_poly(p * g), RatFunc(n, g * d)),
    DIVIDENDS, DIVISORS, DIVIDENDS, DIVISORS,
)


@PROPS
@given(st.one_of(st.tuples(RATFUNCS, RATFUNCS), PLANTED))
def test_ratfunc_product_is_the_normalized_quotient(pair):
    # a product with a unit factor or of two polynomials skips the gcd; it is
    # still the canonical form of (a.num b.num) / (a.den b.den)
    for a, b in (pair, pair[::-1]):
        p = a * b
        assert p == qarith.rf_normalize(a.num * b.num, a.den * b.den)
        assert_canonical(p)


FACTORS = DIVIDENDS.filter(lambda p: not p.is_zero())


def planted(g, p, q, s, t, k):
    """a = (g p)(v^s) and b = g(v^s) q(v^(s t)) v^k: strides s and s, 2s or 3s."""
    return strided(g * p, s), strided(g, s) * strided(q, s * t, k)


def assert_gcd_triple(a, b, triple, expected):
    g, ca, cb = triple
    assert g == expected
    assert g * ca == a
    assert g * cb == b
    for p in (g, ca, cb):
        assert_stored_canonical(p)
        assert_form_rebuilds(p)


def oracle_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The gcd in Q[v] of a and b with their v-powers removed, by sympy, made
    primitive in Z[v] with a positive leading coefficient."""
    if sympy is None:
        pytest.skip("sympy is not installed")
    v = sympy.Symbol("v")

    def to_poly(p):
        return sympy.Poly([sympy.Rational(p.coefficient(k)) for k in range(p.degree, p.valuation - 1, -1)],
                          v, domain="QQ")

    g = sympy.gcd(to_poly(a), to_poly(b)).monic()
    p, _ = cleared({k: Fraction(int(c.p), int(c.q)) for (k,), c in g.terms()})
    content = math.gcd(*(c for _, c in p.items()))
    return LaurentPoly({k: c // content for k, c in p.items()})


@PROPS
@given(FACTORS, FACTORS, FACTORS, STRIDES, STRIDES, st.integers(-3, 3))
def test_gcd_of_a_planted_common_factor(g, p, q, s, t, k):
    a, b = planted(g, p, q, s, t, k)
    expected = oracle_gcd(a, b)
    assert_gcd_triple(a, b, poly_gcd(a, b), expected)
    assert_gcd_triple(b, a, poly_gcd(b, a), expected)
    assert_stored_canonical(expected)


@PROPS
@given(FACTORS, FACTORS, FACTORS, STRIDES, STRIDES, st.integers(-3, 3))
def test_gcd_fallback_agrees_with_the_heuristic(g, p, q, s, t, k):
    a, b = planted(g, p, q, s, t, k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qarith, "_heu_gcd", lambda *args: None)
        fallback = poly_gcd(a, b)
    assert fallback == poly_gcd(a, b)
    assert_gcd_triple(a, b, fallback, oracle_gcd(a, b))


@PROPS
@given(st.integers(-5, 5), NONZERO_INTS, FACTORS, STRIDES)
def test_gcd_with_a_single_term_operand_is_one(exp, coeff, p, s):
    mono, p = LaurentPoly.monomial(exp, coeff), strided(p, s)
    assert poly_gcd(mono, p) == (ONE, mono, p)
    assert poly_gcd(p, mono) == (ONE, p, mono)


@PROPS
@given(FACTORS, STRIDES)
def test_gcd_with_zero_is_the_primitive_other_operand(p, s):
    p = strided(p, s)
    zero = LaurentPoly()
    for a, b in ((zero, p), (p, zero)):
        assert_gcd_triple(a, b, poly_gcd(a, b), oracle_gcd(p, p))


@pytest.mark.parametrize("a, b, g", [
    # strides 2 and 3: joint stride 1, gcd 1 + v
    ({0: 1, 2: -1}, {0: 1, 3: 1}, {0: 1, 1: 1}),
    # strides 4 and 6: in w = v^2, gcd(w^2 - 1, w^3 - 1) = w - 1
    ({0: -1, 4: 1}, {0: -1, 6: 1}, {0: -1, 2: 1}),
    # strides 3 and 3 with a non-unit content: (3 + 3v^3) / (2 + 2v^3)
    ({1: 3, 4: 3}, {-2: 2, 1: 2}, {0: 1, 3: 1}),
    # stride 2 against stride 1: v^2 + 1 is not a factor of v^3 + 1
    ({0: 1, 2: 1}, {0: 1, 3: 1}, {0: 1}),
    # -(2v + 1)(v + 1) and (2v + 1)(2v - 2): the gcd is primitive, not monic
    ({0: -1, 1: -3, 2: -2}, {0: -2, 1: -2, 2: 4}, {0: 1, 1: 2}),
])
def test_gcd_across_strides(a, b, g):
    a, b = LaurentPoly(a), LaurentPoly(b)
    assert_gcd_triple(a, b, poly_gcd(a, b), LaurentPoly(g))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qarith, "_heu_gcd", lambda *args: None)
        assert_gcd_triple(a, b, poly_gcd(a, b), LaurentPoly(g))


def lp(*coeffs) -> LaurentPoly:
    return LaurentPoly(dict(enumerate(coeffs)))


def test_gcd_candidate_that_does_not_divide_is_rejected():
    # at the first evaluation point 31, gcd(a(31), b(31)) = 37 reads back as
    # v + 6 = b, which does not divide a: the operands are coprime
    a, b = lp(1, 0, 1), lp(6, 1)
    assert poly_gcd(a, b) == (ONE, a, b)
    assert qarith._heu_gcd(a, b, 1, [1, 0, 1], [6, 1]) == (ONE, a, b)


def test_gcd_candidate_is_made_primitive(monkeypatch):
    # the cofactors (v+1)(v+2) and (v+3)(v+4) are even at every integer, so
    # every evaluated gcd carries a spurious integer content
    def no_fallback(fa, fb):
        raise AssertionError("the pseudo-remainder fallback ran")

    monkeypatch.setattr(qarith, "_prs_gcd", no_fallback)
    g = lp(2, 0, 1)
    a, b = g * lp(1, 1) * lp(2, 1), g * lp(3, 1) * lp(4, 1)
    assert poly_gcd(a.shift(-3), b.shift(2))[0] == g


POINTS = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.fractions(min_value=-9, max_value=9, max_denominator=60).filter(bool),
    st.floats(min_value=-9, max_value=9, allow_nan=False, allow_infinity=False).filter(bool),
)


def fraction_sum(p: LaurentPoly, x) -> Fraction:
    """The value of p at x as a sum of Fraction terms."""
    x = Fraction(x)
    return sum((Fraction(a) * x**k for k, a in p.items()), Fraction(0))


@PROPS
@given(NUM_DICTS, NUM_DICTS, POINTS, STRIDES)
def test_evaluate_is_the_fraction_sum(a, b, x, s):
    (a, da), (b, db) = cleared(a), cleared(b)
    a = strided(a, s, -4)
    value = a.evaluate(x)
    assert type(value) is Fraction and value == fraction_sum(a, x)
    if b.is_zero():
        return
    # the rational value (a / da) / (b / db)
    f = RatFunc(a * db, b * da)
    den = fraction_sum(f.den, x)
    if den == 0:
        with pytest.raises(ZeroDivisionError, match="denominator vanishes"):
            f.evaluate(x)
        return
    value = f.evaluate(x)
    assert type(value) is Fraction and value == fraction_sum(f.num, x) / den
    if fraction_sum(b, x):
        assert value == fraction_sum(a, x) / da / (fraction_sum(b, x) / db)
