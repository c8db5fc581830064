import dataclasses
import itertools
import pickle
import random
from fractions import Fraction

import pytest
import sympy

from qcactus import cartan as ct
from qcactus import coxeter as cx
from qcactus.cartan import Weight


@pytest.fixture(scope="module")
def d():
    return ct.sl3()


def test_form_values(d):
    w1 = Weight((1, 0))
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
    w1 = Weight((1, 0))
    assert d.reflect(1, w1) == Weight((-1, 1))
    assert d.reflect(1, Weight((0, 5))) == Weight((0, 5))
    w0 = cx.longest_element(d, (1, 2))
    assert ct.weyl_act(d, w0, w1) == Weight((0, -1))


def test_form_invariance(d):
    rng = random.Random(3)
    for _ in range(30):
        lam = Weight((rng.randint(-4, 4), rng.randint(-4, 4)))
        mu = Weight((rng.randint(-4, 4), rng.randint(-4, 4)))
        for g in d.elements():
            assert ct.form(d, ct.weyl_act(d, g, lam), ct.weyl_act(d, g, mu)) == ct.form(
                d, lam, mu
            )


def test_rho_functionals(d):
    full = (1, 2)
    a1 = d.simple_root(1)
    assert ct.rho_functionals(d, full, a1) == 1
    assert ct.rho_functionals(d, full, Weight((1, 0))) == 1
    assert ct.rho_functionals(d, (), Weight((1, 0))) == 0
    # rho_J^vee lands in (1/2)Z on the weight lattice
    for coords in [(1, 0), (0, 1), (2, -1), (-3, 5)]:
        for J in ((1,), (2,), (1, 2)):
            value = ct.rho_functionals(d, J, Weight(coords))
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
    for coords in itertools.product(range(-2, 3), repeat=d.n):
        mu = Weight(coords)
        for J in subsets:
            assert ct.rho_functionals(d, J, mu) == _rho_functionals_per_call(d, J, mu), (J, coords)


def test_extremal_exponents(d):
    w1 = Weight((1, 0))
    rho = d.rho()
    assert ct.extremal_exponents(d, (1, 2, 1), w1) == (0, 1, 1)
    assert ct.extremal_exponents(d, (1, 2, 1), rho) == (1, 2, 1)
    assert ct.extremal_exponents(d, (1,), Weight((5, 0))) == (5,)
    assert ct.extremal_exponents(d, (), rho) == ()


def test_extremal_exponents_nonnegative(d):
    for coords in [(0, 0), (1, 0), (2, 3), (4, 1)]:
        lam = Weight(coords)
        for w in d.elements():
            word = cx.reduced_word(w)
            exps = ct.extremal_exponents(d, word, lam)
            assert all(a >= 0 for a in exps)


def test_extremal_exponent_errors(d):
    with pytest.raises(ValueError):
        ct.extremal_exponents(d, (1, 1), Weight((1, 0)))
    with pytest.raises(ValueError):
        ct.extremal_exponents(d, (1,), Weight((-1, 0)))


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
    lambda: Weight((Fraction(1, 2), 2.9)),
], ids=["cartan", "coxeter", "weight"])
def test_non_integer_input_is_rejected_not_truncated(build):
    with pytest.raises(ValueError, match="expected integer entries"):
        build()


def test_a_weight_is_an_immutable_value():
    @dataclasses.dataclass(frozen=True)
    class DataclassWeight:  # the dataclass a Weight was, for its hash
        coords: tuple

    w = Weight([1, -2])
    assert w.coords == (1, -2) and type(w.coords) is tuple
    assert hash(w) == hash(DataclassWeight((1, -2))) == hash(((1, -2),))
    assert w == Weight(coords=(1, -2)) and w != Weight((1, 2))
    assert repr(w) == "Weight(coords=(1, -2))"

    class Shifted(Weight):
        __slots__ = ()

    # equal only to a weight: not to its coordinates, nor to a subclass
    assert w != (1, -2) and w != DataclassWeight((1, -2)) and w != Shifted((1, -2))
    for change in (lambda: setattr(w, "coords", (0, 0)), lambda: delattr(w, "coords"),
                   lambda: setattr(w, "label", "new")):
        with pytest.raises(AttributeError):
            change()
    assert w.coords == (1, -2)
    assert pickle.loads(pickle.dumps(w)) == w
