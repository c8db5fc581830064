import itertools
import random
from fractions import Fraction

import pytest
import sympy

from qcactus import cartan as ct
from qcactus import coxeter as cx


@pytest.fixture(scope="module")
def d():
    return ct.sl3()


def test_form_values(d):
    w1 = (1, 0)
    a1 = d.simple_root(1)
    assert ct.form(d, w1, w1) == Fraction(2, 3)
    assert ct.form(d, a1, a1) == 2
    assert ct.form_with_root(d, w1, 1) == 1


def test_symmetrizers_minimal():
    b2 = ct.CartanDatum.from_type("B2")
    assert b2.d == (2, 1)
    g2 = ct.CartanDatum.from_type("G2")
    assert g2.d == (3, 1)
    assert ct.sl3().d == (1, 1)


def test_a_cartan_datum_is_the_coxeter_datum_of_its_matrix(d):
    assert isinstance(d, cx.CoxeterDatum)
    assert cx.longest_element(ct.sl3(), (1, 2)).datum is ct.sl3()
    b2 = ct.CartanDatum.from_type("B2")
    assert type(b2) is ct.CartanDatum and b2.type_name == "B2"
    assert type(cx.CoxeterDatum.from_type("A2")) is cx.CoxeterDatum


def test_weyl_act(d):
    w1 = (1, 0)
    assert d.reflect(1, w1) == (-1, 1)
    assert d.reflect(1, (0, 5)) == (0, 5)
    w0 = cx.longest_element(d, (1, 2))
    assert ct.weyl_act(d, w0, w1) == (0, -1)


def test_form_invariance(d):
    rng = random.Random(3)
    for _ in range(30):
        lam = (rng.randint(-4, 4), rng.randint(-4, 4))
        mu = (rng.randint(-4, 4), rng.randint(-4, 4))
        for g in d.elements():
            assert ct.form(d, ct.weyl_act(d, g, lam), ct.weyl_act(d, g, mu)) == ct.form(
                d, lam, mu
            )


@pytest.mark.parametrize("name", ["B2", "G2", "A3"])
def test_weight_arithmetic_off_the_symmetric_case(name):
    # B2 and G2 have non-symmetric Cartan matrices and A3 has rank 3, so a
    # row/column mix-up or a 0/1-based index slip in reflect, form or
    # form_with_root shows here, where on sl3 it could pass
    d = ct.CartanDatum.from_type(name)
    for i in d.indices:
        alpha = d.simple_root(i)
        assert d.reflect(i, alpha) == tuple(-x for x in alpha), i
        for lam in itertools.product(range(-2, 3), repeat=d.n):
            image = d.reflect(i, lam)
            assert d.reflect(i, image) == lam, (i, lam)
            if lam[i - 1] == 0:
                assert image == lam, (i, lam)
            assert ct.form_with_root(d, lam, i) == ct.form(d, lam, alpha), (i, lam)
    grid = list(itertools.product(range(-1, 2), repeat=d.n))
    for g in d.elements():
        images = [ct.weyl_act(d, g, lam) for lam in grid]
        for lam, g_lam in zip(grid, images):
            for mu, g_mu in zip(grid, images):
                assert ct.form(d, g_lam, g_mu) == ct.form(d, lam, mu), (name, lam, mu)
    # the extremal exponents add up to lam - w(lam) along the word
    zero = (0,) * d.n
    for lam in (d.rho(), d.rho((1,)), d.rho((d.n,)), tuple(range(d.n, 0, -1))):
        for w in d.elements():
            word = cx.reduced_word(w)
            total = zero
            for i, a in zip(word, ct.extremal_exponents(d, word, lam)):
                total = ct.shift(total, d.simple_root(i), a)
            assert total == ct.shift(lam, ct.weyl_act(d, w, lam), -1), (lam, word)


def test_rho_functionals(d):
    full = (1, 2)
    a1 = d.simple_root(1)
    assert ct.rho_functionals(d, full, a1) == 1
    assert ct.rho_functionals(d, full, (1, 0)) == 1
    assert ct.rho_functionals(d, (), (1, 0)) == 0
    # rho_J^vee lands in (1/2)Z on the weight lattice
    for mu in [(1, 0), (0, 1), (2, -1), (-3, 5)]:
        for J in ((1,), (2,), (1, 2)):
            value = ct.rho_functionals(d, J, mu)
            assert (2 * value).denominator == 1


def _rho_functionals_per_call(d, J, mu):
    # the J Gram system solved afresh for the weight mu, by sympy over the rationals
    J = sorted(set(J))
    gram = sympy.Matrix([[sympy.Rational(ct.form(d, d.simple_root(a), d.simple_root(b)))
                          for b in J] for a in J])
    rhs = sympy.Matrix([ct.form_with_root(d, mu, i) for i in J])
    total = sum(gram.LUsolve(rhs))
    return Fraction(int(total.p), int(total.q))


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "A3"])
def test_rho_functionals_match_a_per_call_solve(name):
    d = ct.CartanDatum.from_type(name)
    subsets = [J for k in range(1, d.n + 1) for J in itertools.combinations(d.indices, k)]
    subsets.append(tuple(reversed(d.indices)))
    for mu in itertools.product(range(-2, 3), repeat=d.n):
        for J in subsets:
            assert ct.rho_functionals(d, J, mu) == _rho_functionals_per_call(d, J, mu), (J, mu)


def test_extremal_exponents(d):
    w1 = (1, 0)
    rho = d.rho()
    assert ct.extremal_exponents(d, (1, 2, 1), w1) == (0, 1, 1)
    assert ct.extremal_exponents(d, (1, 2, 1), rho) == (1, 2, 1)
    assert ct.extremal_exponents(d, (1,), (5, 0)) == (5,)
    assert ct.extremal_exponents(d, (), rho) == ()


def test_extremal_exponents_nonnegative(d):
    for lam in [(0, 0), (1, 0), (2, 3), (4, 1)]:
        for w in d.elements():
            word = cx.reduced_word(w)
            exps = ct.extremal_exponents(d, word, lam)
            assert all(a >= 0 for a in exps)


def test_extremal_exponent_errors(d):
    with pytest.raises(ValueError):
        ct.extremal_exponents(d, (1, 1), (1, 0))
    with pytest.raises(ValueError):
        ct.extremal_exponents(d, (1,), (-1, 0))


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "G2", "A1xA2"])
def test_cartan_inverse_matches_sympy(name):
    d = ct.CartanDatum.from_type(name)
    inv = sympy.Matrix(d.cartan).inv()
    assert d.cartan_inverse == tuple(
        tuple(Fraction(int(x.p), int(x.q)) for x in inv.row(i)) for i in range(d.n))


def test_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        ct.CartanDatum([[2, 1], [1, 2]])
    with pytest.raises(ValueError):
        ct.CartanDatum([[2, -2], [-2, 2]])
    with pytest.raises(ValueError):
        ct.CartanDatum([[1, 0], [0, 2]])
    # affine A2: every a_ij a_ji is 1, but the Weyl group is infinite
    with pytest.raises(ValueError, match="255 roots"):
        ct.CartanDatum([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


@pytest.mark.parametrize("build", [
    lambda: ct.CartanDatum([[2, -1.5], [-1, 2]]),
    lambda: cx.CoxeterDatum([[2, -1.9], [-1, 2]]),
], ids=["cartan", "coxeter"])
def test_non_integer_input_is_rejected_not_truncated(build):
    with pytest.raises(ValueError, match="expected integer entries"):
        build()

