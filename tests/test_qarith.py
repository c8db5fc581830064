import random
from fractions import Fraction

import pytest

from qcactus import qarith
from qcactus.qarith import (
    LaurentPoly,
    ONE,
    RatFunc,
    ZERO,
    cg_coeff,
    kash_coeff,
    kash_coeff_underline,
    q2_binomial,
    q_binomial,
    q_factorial,
    q_int,
    rf_normalize,
)


def poly(d):
    return LaurentPoly(d)


def over(p: LaurentPoly, d: int) -> RatFunc:
    """The rational polynomial p / d, for an integer d != 0."""
    return RatFunc(p, LaurentPoly.const(d))


class TestLaurentPoly:
    def test_zero_coefficients_stripped(self):
        p = poly({3: 0, 1: 2})
        assert p == poly({1: 2})

    def test_identities(self):
        p = poly({2: 4, -1: 3})
        assert p + ZERO == p
        assert p * ONE == p
        assert (p - p).is_zero()
        r = over(p, 4)  # v^2 + (3/4) v^-1
        assert r + RatFunc.zero() == r
        assert r * RatFunc.one() == r
        assert (r - r).is_zero()

    def test_randomized_ring_axioms(self):
        rng = random.Random(0)

        def rnd():
            return poly({rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(4)})

        for _ in range(100):
            a, b, c = rnd(), rnd(), rnd()
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_divexact(self):
        a = poly({2: 1, 0: -1})
        b = poly({1: 1, 0: -1})
        assert a.divexact(b) == poly({1: 1, 0: 1})
        with pytest.raises(ValueError):
            poly({2: 1, 0: 1}).divexact(b)

    def test_evaluate_matches_structure(self):
        p = over(poly({2: 2, 0: -6, -1: 1}), 2)  # v^2 - 3 + (1/2) v^-1
        x = Fraction(3, 2)
        assert p.evaluate(x) == x**2 - 3 + Fraction(1, 2) / x
        assert p.num.evaluate(x) == 2 * x**2 - 6 + 1 / x

    def test_exponent_keys_must_be_integers(self):
        for bad in (1.5, 2.0, Fraction(1, 2), "1"):
            with pytest.raises(TypeError):
                poly({bad: 1})
        with pytest.raises(TypeError):
            poly({1.5: 0})
        assert poly({True: 3, False: 1}) == poly({1: 3, 0: 1})

    def test_to_json_lists_exponents_in_order(self):
        p = poly({5: -4, -2: 1})
        assert p.to_json() == [[-2, "1"], [5, "-4"]]
        # a rational coefficient lives in the RatFunc's integer denominator
        assert over(poly({5: -12, -2: 1}), 3).to_json() == {
            "num": [[-2, "1"], [5, "-12"]], "den": [[0, "3"]]}

    def test_integral_sum_of_fractions_stores_int(self):
        half = over(poly({0: 1, 1: -1}), 2)
        for r in (half + half, half - (-half), half * RatFunc.scalar(2), RatFunc.scalar(2) * half):
            assert r == RatFunc.of_poly(poly({0: 1, 1: -1}))
            assert r.den.is_one()
            assert all(type(c) is int for p in (r.num, r.den) for _, c in p.items())

    def test_coefficients_must_be_integers(self):
        for bad in (Fraction(1, 2), Fraction(4, 2), 1.0, "1"):
            with pytest.raises(TypeError):
                poly({0: bad})
            with pytest.raises(TypeError):
                poly({0: 1}) * bad
        p = poly({0: True, 2: -3})
        assert all(type(c) is int for _, c in p.items())


class TestRatFunc:
    def test_normalize_division_oracle(self):
        # oracle: direct polynomial division
        num = poly({2: 1, 0: -1})
        den = poly({1: 1, 0: -1})
        assert rf_normalize(num, den) == RatFunc.of_poly(num.divexact(den))

    def test_normalize_zero_and_canonical(self):
        assert rf_normalize(ZERO, poly({3: 1})).is_zero()
        p = poly({1: 1, -1: 1})
        assert rf_normalize(p, ONE) == RatFunc.of_poly(p)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            rf_normalize(ONE, ZERO)

    def test_product_with_one_is_the_other_factor(self):
        r = RatFunc(poly({1: 1, 0: 1}), poly({1: 1, 0: 2}))
        assert r * RatFunc.one() is r
        assert RatFunc.one() * r is r

    def test_canonical_denominator_shape(self):
        # den(0) != 0, a positive leading coefficient, no common integer factor
        r = RatFunc(poly({0: 7}), poly({3: 2, 5: 4}))
        assert (r.num, r.den) == (poly({-3: 7}), poly({0: 2, 2: 4}))
        r = RatFunc(poly({0: 6, 1: -6}), poly({3: -2, 5: 4}))
        assert (r.num, r.den) == (poly({-3: 3, -2: -3}), poly({0: -1, 2: 2}))
        r = RatFunc(poly({0: 6}), poly({1: -4}))
        assert (r.num, r.den) == (poly({-1: -3}), poly({0: 2}))

    def test_scalar_takes_an_int_or_a_fraction(self):
        assert RatFunc.scalar(-3) == RatFunc.of_poly(poly({0: -3}))
        assert RatFunc.scalar(Fraction(-6, 4)) == over(poly({0: -3}), 2)
        assert RatFunc.scalar(Fraction(0)).is_zero()
        # a non-unit monomial times a rational constant is reduced: (1/2) * 2 is 1, not 2/2
        for a, b, num, den in ((Fraction(1, 2), RatFunc.monomial(0, 2), ONE, ONE),
                               (Fraction(2, 3), RatFunc.monomial(3, -6), poly({3: -4}), ONE),
                               (Fraction(-1, 4), RatFunc.monomial(-1, 6), poly({-1: -3}), poly({0: 2}))):
            for p in (RatFunc.scalar(a) * b, b * RatFunc.scalar(a)):
                assert (p.num, p.den) == (num, den)

    def test_field_axioms_with_specialization(self):
        rng = random.Random(1)

        def rnd():
            den = ZERO
            while den.is_zero():
                den = poly({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(3)})
            return RatFunc(poly({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(3)}), den)

        spots = [Fraction(3, 2), Fraction(-5, 7)]
        for _ in range(60):
            a, b, c = rnd(), rnd(), rnd()
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero():
                assert (a * a.inverse()).is_one()
            for x in spots:
                try:
                    assert (a * b - c).evaluate(x) == a.evaluate(x) * b.evaluate(x) - c.evaluate(x)
                except ZeroDivisionError:
                    pass

    def test_equality_matches_specialization(self):
        a = RatFunc(poly({2: 1, 0: -1}), poly({1: 1, 0: -1}))
        b = RatFunc.of_poly(poly({1: 1, 0: 1}))
        assert a == b
        assert a.evaluate(Fraction(3, 2)) == b.evaluate(Fraction(3, 2))

    def test_value_at_zero(self):
        r = RatFunc(poly({1: 2, 0: 5}), poly({0: 1, 1: 3}))
        assert r.order_at_zero() == 0
        assert RatFunc.monomial(2).order_at_zero() == 2


class TestQCombinatorics:
    def test_q_int_against_division_oracle(self):
        for n in range(1, 10):
            quotient = poly({n: 1, -n: -1}).divexact(poly({1: 1, -1: -1}))
            assert q_int(n) == quotient

    def test_q_int_examples(self):
        assert q_int(0).is_zero()
        assert q_int(1).is_one()
        assert q_int(3) == poly({2: 1, 0: 1, -2: 1})
        for n in range(8):
            assert q_int(-n) == -q_int(n)

    def test_q_binomial_conventions(self):
        for n in range(7):
            assert q_binomial(n, 0).is_one()
        assert q_binomial(2, 1) == q_int(2)
        assert q_binomial(1, 2).is_zero()
        assert q_binomial(-1, 0).is_zero()
        assert q_binomial(3, -1).is_zero()

    def test_q_binomial_product_oracle(self):
        # oracle: the defining product, evaluated at generic rational points
        x = Fraction(3, 2)
        for n in range(1, 9):
            for k in range(n + 1):
                value = Fraction(1)
                for s in range(1, k + 1):
                    value *= q_int(n - s + 1).evaluate(x) / q_int(s).evaluate(x)
                assert q_binomial(n, k).evaluate(x) == value

    def test_symmetry_and_pascal(self):
        for n in range(10):
            for k in range(n + 1):
                assert q_binomial(n, k) == q_binomial(n, n - k)
        for n in range(1, 10):
            for k in range(1, n):
                assert q_binomial(n, k) == q_binomial(n - 1, k - 1).shift(n - k) + q_binomial(
                    n - 1, k
                ).shift(-k)

    def test_factorial_is_binomial_denominator(self):
        assert q_factorial(0).is_one()
        assert q_factorial(3) == q_int(1) * q_int(2) * q_int(3)
        with pytest.raises(ValueError):
            q_factorial(-1)


def _fraction_sum(p: LaurentPoly, x) -> Fraction:
    """The value of p at x as a sum of Fraction terms."""
    x = Fraction(x)
    return sum((Fraction(a) * x**k for k, a in p.items()), Fraction(0))


class TestEvaluate:
    # (p, d): the rational polynomial p / d, e.g. v^2 - 3 + (1/2) v^-1 as
    # (2 v^2 - 6 + v^-1) / 2
    RATIONAL = [
        (ZERO, 1),
        (ONE, 1),
        (poly({-3: 2}), 1),
        (poly({2: 2, 0: -6, -1: 1}), 2),
        (poly({-5: -14, -2: 24, 4: 5}), 6),
        (poly({-4: 9, -2: 1}), 9),
        (poly({3: 2, 7: -5}), 5),
        (q_binomial(7, 3), 1),
        (q_factorial(5), 1),
    ]
    POINTS = [1, -1, 3, -2, Fraction(3, 2), Fraction(-5, 7), Fraction(1, 60), 0.5, -1.25, 3.0]

    def test_matches_a_fraction_sum(self):
        for p, d in self.RATIONAL:
            for x in self.POINTS:
                value = p.evaluate(x)
                assert type(value) is Fraction
                assert value == _fraction_sum(p, x), (p, x)
                assert over(p, d).evaluate(x) == value / d

    def test_zero_point_raises(self):
        for p in (ZERO, ONE, poly({-1: 2})):
            for zero in (0, Fraction(0), 0.0):
                with pytest.raises(ZeroDivisionError):
                    p.evaluate(zero)

    def test_rational_function(self):
        # (num / a) / (den / b) = (b num) / (a den)
        for num, a in self.RATIONAL:
            for den, b in self.RATIONAL[1:]:
                f = RatFunc(num * b, den * a)
                for x in self.POINTS:
                    d = _fraction_sum(den, x) / b
                    if d == 0:
                        continue
                    value = f.evaluate(x)
                    assert type(value) is Fraction
                    assert value == _fraction_sum(num, x) / a / d

    def test_vanishing_denominator(self):
        f = RatFunc(ONE, poly({1: 1, 0: -2}))  # 1/(v - 2)
        for x in (2, Fraction(2), 2.0):
            with pytest.raises(ZeroDivisionError, match="denominator vanishes at v = 2"):
                f.evaluate(x)
        g = RatFunc(ONE, poly({2: 1, 0: 1}))  # 1/(v^2 + 1) over -2
        assert g.evaluate(-2) == Fraction(1, 5)

    def test_reads_only_the_coefficients(self, monkeypatch):
        # ((1/3) v^-2 + 4 v) / (1 - (1/2) v^3)
        f = RatFunc(poly({-2: 2, 1: 24}), poly({0: 6, 3: -3}))
        expected = f.evaluate(Fraction(-3, 4))

        def forbidden(*args, **kwargs):
            raise AssertionError("evaluation reached the gcd path")

        monkeypatch.setattr(LaurentPoly, "_strided", forbidden)
        monkeypatch.setattr(LaurentPoly, "divexact", forbidden)
        monkeypatch.setattr(qarith, "poly_gcd", forbidden)
        g = RatFunc(f.num, f.den, _canonical=True)
        assert g.evaluate(Fraction(-3, 4)) == expected
        assert g.num.evaluate(5) == _fraction_sum(g.num, 5)


class TestStringCoefficients:
    def test_unknown_kind_raises_inside_and_outside_the_domain(self):
        for f in (kash_coeff, kash_coeff_underline):
            for args in ((2, 1, 0), (0, 5, 0), (1, 2, 0), (2, 1, 2)):
                with pytest.raises(ValueError, match="unknown coefficient kind: 'bogus'"):
                    f("bogus", *args)

    def test_domain(self):
        # 0 <= k <= l and k - l <= s <= k
        for kind in ("low", "up"):
            for f in (kash_coeff, kash_coeff_underline):
                assert not f(kind, 2, 1, 1).is_zero()
                assert not f(kind, 2, 2, 0).is_zero()
                assert not f(kind, 2, 0, -2).is_zero()
                assert f(kind, 1, 2, 0).is_zero()
                assert f(kind, 2, -1, 0).is_zero()
                assert f(kind, 2, 1, 2).is_zero()
                assert f(kind, 2, 1, -2).is_zero()

    def test_examples(self):
        assert kash_coeff("low", 2, 1, 1) == RatFunc.one()
        assert kash_coeff("up", 1, 1, 1) == RatFunc.one()
        assert kash_coeff("low", 1, 2, 0).is_zero()
        assert kash_coeff("up", 1, 2, 0).is_zero()

    def test_underline_examples(self):
        for l in range(5):
            for k in range(l + 1):
                for s in range(k - l, k + 1):
                    assert kash_coeff_underline("low", l, k, s).is_one()
        expected = RatFunc(ONE, poly({1: 1, -1: 1}))
        assert kash_coeff_underline("up", 2, 2, 1) == expected
        for l in range(8):
            assert kash_coeff_underline("up", l, 0, -l).is_one()

    def test_underline_from_definition(self):
        # the division normalization times the factorial ratio recovers kash_coeff
        for l in range(6):
            for k in range(l + 1):
                for s in range(k - l, k + 1):
                    for kind in ("low", "up"):
                        lhs = kash_coeff_underline(kind, l, k, s)
                        ratio = RatFunc.of_poly(q_factorial(k - s)) / RatFunc.of_poly(
                            q_factorial(k)
                        )
                        assert lhs == kash_coeff(kind, l, k, s) * ratio

    def test_cancelled_ratio_equals_the_full_ratio(self):
        # the full factorial ratios, with no shared factor cancelled
        def ratio(parts_num, parts_den):
            num = den = ONE
            for n in parts_num:
                num = num * q_factorial(n)
            for n in parts_den:
                den = den * q_factorial(n)
            return RatFunc(num, den)

        for l in range(13):
            for k in range(l + 1):
                for s in range(k - l, k + 1):
                    t = (l, k, s)
                    assert kash_coeff("low", *t) == ratio([k], [k - s])
                    assert kash_coeff("up", *t) == ratio([l - k + s], [l - k])
                    assert kash_coeff_underline("low", *t).is_one()
                    assert kash_coeff_underline("up", *t) == ratio([l - k + s, k - s], [l - k, k])

    def test_equal_coefficients_at_other_lengths_are_one_object(self):
        # cached by the factorial ratio's parts, not by the string triple
        assert kash_coeff("low", 5, 3, 1) is kash_coeff("low", 9, 3, 1)
        assert kash_coeff("up", 5, 2, 2) is kash_coeff("low", 7, 5, 2)
        assert kash_coeff_underline("up", 6, 2, 1) is kash_coeff_underline("up", 6, 2, 1)

    def test_symmetry(self):
        for l in range(13):
            for k in range(l + 1):
                for s in range(k - l, k + 1):
                    for kind in ("low", "up"):
                        assert kash_coeff_underline(kind, l, k, s) == (
                            kash_coeff_underline(kind, l, l - k, -s)
                        )

    def test_composition_law(self):
        for l in range(7):
            for k in range(l + 1):
                for s in range(-l, l + 1):
                    for t in range(-l, l + 1):
                        if s * t < 0:
                            continue
                        for kind in ("low", "up"):
                            assert kash_coeff(kind, l, k, s + t) == (
                                kash_coeff(kind, l, k, s) * kash_coeff(kind, l, k - s, t)
                            )


class TestCGCoefficient:
    def test_examples(self):
        assert cg_coeff(1, 1, 0, 2).is_zero()
        assert cg_coeff(1, 1, 1, 3).is_one()
        assert cg_coeff(1, 1, 1, 1).is_zero()

    def test_branches_exercise_zero_conventions(self):
        # d - c >= r branch with both binomials nonzero
        assert cg_coeff(2, 1, 1, 4) == (q_binomial(1, 1) * q_binomial(3, 1)).compose_monomial(2)
        # d - c < r branch
        assert cg_coeff(2, 2, 3, 4) == (q_binomial(1, 2) * q_binomial(2, 2)).compose_monomial(2)

    def test_substitution_after_the_product(self):
        # cg_coeff multiplies the cached v -> v^2 images; the substitution is a
        # ring map, so this is the product substituted afterwards
        for n in range(-1, 9):
            for k in range(-1, n + 2):
                assert q2_binomial(n, k) == q_binomial(n, k).compose_monomial(2)
        for r in range(1, 6):
            for t in range(1, r + 1):
                for c in range(7):
                    for d in range(c, 9):
                        if d - c >= r:
                            p = q_binomial(c, t) * q_binomial(d - t, r - t)
                        else:
                            p = q_binomial(d - c, t) * q_binomial(d - t, r)
                        assert cg_coeff(r, t, c, d) == p.compose_monomial(2), (r, t, c, d)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            cg_coeff(0, 1, 0, 0)
        with pytest.raises(ValueError):
            cg_coeff(2, 3, 0, 0)
