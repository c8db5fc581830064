"""Exact arithmetic in Q(v) with v = q^(1/2), and q-combinatorial coefficients.

A LaurentPoly is a finite sum of integer multiples of integer powers of a
single formal variable v, an element of Z[v, 1/v].  Half-integral powers of q
never appear: every exponent of q is stored as the doubled exponent of v.
RatFunc is a quotient of two Laurent polynomials kept in a canonical reduced
form, so equality of values is equality of representations; a rational
constant lives in its integer numerator and denominator.

Exact division and the gcd work on a cached strided primitive form
c * v^e * I(v^s), c > 0 and I a primitive integer polynomial: one long
division in Z[w] per quotient.  The gcd has one algorithm, the heuristic
gcd GCDHEU, which tries evaluation points until a candidate divides both
operands; `poly_gcd` returns the cofactors that this check computed, so
reducing a rational function divides once.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd
from operator import index


class LaurentPoly:
    """A Laurent polynomial in v over Z, stored as {exponent: coefficient}.

    Instances are immutable; all operations return new objects.  Stored
    coefficients are never zero.  `_form` caches `_strided`.
    """

    __slots__ = ("_c", "_hash", "_form")

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for k, a in coeffs.items():
                k, a = index(k), index(a)
                if a:
                    c[k] = a
        self._c = c
        self._hash = None
        self._form = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def monomial(exp: int, coeff=1) -> "LaurentPoly":
        return LaurentPoly({exp: coeff})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._c == {0: 1}

    def is_unit(self) -> bool:
        """True for ±v^k, the units of Z[v, 1/v]."""
        return list(self._c.values()) in ([1], [-1])

    def items(self):
        return self._c.items()

    def coefficient(self, exp: int):
        return self._c.get(exp, 0)

    @property
    def degree(self) -> int:
        """Largest exponent; raises on zero."""
        return max(self._c)

    @property
    def valuation(self) -> int:
        """Smallest exponent; raises on zero."""
        return min(self._c)

    @property
    def span(self) -> int:
        """degree - valuation, or -1 for the zero polynomial."""
        if not self._c:
            return -1
        return max(self._c) - min(self._c)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._c:
            return other
        if not other._c:
            return self
        c = dict(self._c)
        for k, a in other._c.items():
            s = c.get(k, 0) + a
            if s:
                c[k] = s
            else:
                c.pop(k, None)
        return _lp(c)

    def __neg__(self):
        return _lp({k: -a for k, a in self._c.items()})

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._c or not other._c:
            return ZERO
        if len(other._c) == 1:
            (k2, a2), = other._c.items()
            return _lp({k + k2: a * a2 for k, a in self._c.items()})
        c = {}
        for k1, a1 in self._c.items():
            for k2, a2 in other._c.items():
                k = k1 + k2
                s = c.get(k, 0) + a1 * a2
                if s:
                    c[k] = s
                else:
                    c.pop(k, None)
        return _lp(c)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by v^k."""
        if k == 0 or not self._c:
            return self
        return _lp({e + k: a for e, a in self._c.items()})

    def compose_monomial(self, c: int) -> "LaurentPoly":
        """Substitute v -> v^c (c a nonzero integer)."""
        if c == 0:
            raise ValueError("substitution exponent must be nonzero")
        return _lp({e * c: a for e, a in self._c.items()})

    def evaluate(self, x) -> Fraction:
        """Evaluate at a nonzero rational v = x (an int, float or Fraction)."""
        return Fraction(*self._evaluate_ints(*x.as_integer_ratio()))

    def _evaluate_ints(self, p: int, q: int) -> tuple[int, int]:
        """(n, d) with self(p/q) = n/d and d != 0, by one homogeneous integer
        Horner pass: n0 = sum(a_k p^(k - val) q^(deg - k)) and
        self(p/q) = n0 p^val / q^deg.  Reads only the coefficients."""
        if not p:
            raise ZeroDivisionError("cannot evaluate a Laurent polynomial at 0")
        c = self._c
        if not c:
            return 0, 1
        terms = sorted(c.items(), reverse=True)
        deg = val = terms[0][0]
        n, qpow = 0, 1
        for k, a in terms:
            gap = val - k
            qpow *= q**gap
            n = n * p**gap + a * qpow
            val = k
        # self(p/q) = n p^val / q^deg, each negative power moved to the other side
        return n * p**max(val, 0) * q**max(-deg, 0), p**max(-val, 0) * q**max(deg, 0)

    def _strided(self):
        """The form (val, s, content, ints) with self = content * v^val * I(v^s),
        I(w) = sum(ints[i] w^i) a primitive integer polynomial with I(0) != 0,
        s the gcd of the exponent offsets (0 for a single term) and content the
        positive gcd of the coefficients.  Computed once and cached; nonzero
        polynomials only."""
        if self._form is None:
            c = self._c
            val = min(c)
            s = _int_gcd(*[k - val for k in c])
            g = _int_gcd(*c.values())
            step = s or 1
            ints = [0] * ((max(c) - val) // step + 1)
            for k, x in c.items():
                ints[(k - val) // step] = x if g == 1 else x // g
            self._form = (val, s, g, ints)
        return self._form

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division in Z[v, 1/v]; raises ValueError if the quotient is
        not in it.

        The contents divide in Z, and the primitive forms, spread to their
        joint stride, by integer long division.  By Gauss's lemma an exact
        quotient of primitive integer polynomials is primitive, so the
        quotient is created with its form."""
        if not other._c:
            raise ZeroDivisionError("polynomial division by zero")
        if not self._c:
            return ZERO
        va, sa, ca, fa = self._strided()
        vb, sb, cb, fb = other._strided()
        if ca % cb:
            raise ValueError("division is not exact")
        s = _int_gcd(sa, sb)
        fq = _div_ints(_spread(fa, sa // (s or 1)), _spread(fb, sb // (s or 1)))
        return _of_form(va - vb, s, ca // cb, fq)

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._c.items())))
        return self._hash

    # -- presentation --------------------------------------------------------

    def __repr__(self):
        return f"LaurentPoly({self})"

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for k in sorted(self._c, reverse=True):
            a = self._c[k]
            if k == 0:
                parts.append(str(a))
            else:
                mono = "v" if k == 1 else f"v^{k}"
                if a == 1:
                    parts.append(mono)
                elif a == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{a}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def to_json(self) -> list:
        """Ordered [exponent, "n"] pairs by ascending exponent."""
        return [[k, str(a)] for k, a in sorted(self._c.items())]


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})


# -- polynomial division and gcd ---------------------------------------------


def _lp(c: dict, form=None) -> LaurentPoly:
    """A LaurentPoly over the canonical dict c, with its strided form if known."""
    out = LaurentPoly.__new__(LaurentPoly)
    out._c = c
    out._hash = None
    out._form = form
    return out


def _of_form(val: int, s: int, content: int, ints: list[int]) -> LaurentPoly:
    """The polynomial content * v^val * I(v^s), created with that form."""
    return _lp({val + s * i: x * content for i, x in enumerate(ints) if x}, (val, s, content, ints))


def _spread(ints: list[int], k: int) -> list[int]:
    """The list of I(w^k); k = 0 stands for a single term."""
    if k < 2:
        return ints
    out = [0] * ((len(ints) - 1) * k + 1)
    out[::k] = ints
    return out


def _div_ints(a: list[int], b: list[int]) -> list[int]:
    """Quotient of a by b in Z[w], lowest term first, by long division from the
    top; raises ValueError unless b divides a exactly."""
    db = len(b) - 1
    if len(a) <= db or a[0] % b[0]:
        raise ValueError("division is not exact")
    lead, low = b[-1], b[:-1]
    r = list(a)
    q = [0] * (len(a) - db)
    for base in range(len(a) - 1 - db, -1, -1):
        f, rem = divmod(r[base + db], lead)
        if rem:
            raise ValueError("division is not exact")
        if f:
            q[base] = f
            r[base:base + db] = [x - f * y for x, y in zip(r[base:base + db], low)]
    if any(r[:db]):
        raise ValueError("division is not exact")
    return q


def _primitive(a: list[int]) -> list[int]:
    g = _int_gcd(*a)
    if g > 1:
        a = [c // g for c in a]
    return a


def poly_gcd(a: LaurentPoly, b: LaurentPoly):
    """(g, a/g, b/g): the gcd g of the nonzero a and b, and the two cofactors.
    g is the gcd in Q[v] up to v-units, taken primitive in Z[v] with a
    positive leading coefficient, so by Gauss's lemma the cofactors lie in
    Z[v, 1/v].

    A single-term operand is a unit.  Otherwise the gcd is taken of the
    primitive integer forms in w = v^s, s the joint stride of a and b, since
    gcd(A(v^s), B(v^s)) = G(v^s), by the heuristic gcd `_heu_gcd`, the one
    gcd algorithm.  The two exact divisions that accept g are the cofactors.
    """
    if len(a._c) == 1 or len(b._c) == 1:
        return ONE, a, b
    _, sa, _, fa = a._strided()
    _, sb, _, fb = b._strided()
    s = _int_gcd(sa, sb)
    return _heu_gcd(a, b, s, _spread(fa, sa // s), _spread(fb, sb // s))


def _heu_gcd(a: LaurentPoly, b: LaurentPoly, s: int, fa: list[int], fb: list[int]):
    """GCDHEU (Char, Geddes and Gonnet, 1989) on the primitive integer lists
    fa, fb of a and b in w = v^s; returns the triple of `poly_gcd`.

    h = gcd(fa(xi), fb(xi)) is read back as a polynomial from its balanced
    base-xi digits.  For xi >= 2 min(|fa|, |fb|) + 2 that candidate, made
    primitive, is the gcd if and only if it divides both fa and fb in Z[w],
    so it is accepted only when both divisions are exact; otherwise xi grows
    and the next point is tried.

    The loop ends.  Write fa = G A* and fb = G B* with G the gcd.  Then
    h = |G(xi)| gamma, where gamma = gcd(A*(xi), B*(xi)) divides the
    resultant Res(A*, B*), which is nonzero as A* and B* are coprime.  Once
    xi > 2 |Res| |G|, each coefficient of gamma G is smaller than xi / 2, so
    the balanced digits read back gamma G, and its primitive part G divides
    both operands.
    """
    # the theorem's bound 2 min(|a|, |b|) + 2, with a margin
    xi = 2 * min(max(map(abs, fa)), max(map(abs, fb))) + 29
    while True:
        h = _int_gcd(_horner(fa, xi), _horner(fb, xi))
        # balanced digits; h > 0, so the leading digit is positive and g needs no sign fix
        g = []
        while h:
            d = h % xi
            if d > xi // 2:
                d -= xi
            g.append(d)
            h = (h - d) // xi
        g = _primitive(g)
        if len(g) == 1:
            return ONE, a, b
        gcd = _of_form(0, s, 1, g)
        try:
            return gcd, a.divexact(gcd), b.divexact(gcd)
        except ValueError:
            xi = xi * 73794 // 27011  # grow by about 2.73, the usual GCDHEU step


def _horner(a: list[int], x: int) -> int:
    value = 0
    for c in reversed(a):
        value = value * x + c
    return value


# -- rational functions --------------------------------------------------------


class RatFunc:
    """A rational function num/den in canonical form.

    Canonical form: num and den have integer coefficients; den is an ordinary
    polynomial in v with nonzero constant term and a positive leading
    coefficient; num and den have no common nonunit polynomial factor and no
    common integer factor.  Equality and hashing are structural.

    `RatFunc(num, den)` reduces any num/den with den != 0 to that form;
    internal callers that already hold it pass `_canonical=True`.  Every
    operation keeps the gcd's operands nonzero: a zero numerator returns
    before any gcd.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: LaurentPoly, den: LaurentPoly, _canonical=False):
        if not _canonical:  # reduce by the gcd, then over Z and by v-powers
            if den.is_zero():
                raise ZeroDivisionError("zero denominator")
            c = _unit_normalize(*poly_gcd(num, den)[1:]) if num._c else _RF_ZERO
            num, den = c.num, c.den
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "RatFunc":
        return _RF_ZERO

    @staticmethod
    def one() -> "RatFunc":
        return _RF_ONE

    @staticmethod
    def of_poly(p: LaurentPoly) -> "RatFunc":
        return RatFunc(p, ONE, _canonical=True)

    @staticmethod
    def scalar(a) -> "RatFunc":
        """The constant a, an int or a Fraction."""
        return _unit_normalize(LaurentPoly({0: a.numerator}), LaurentPoly({0: a.denominator}))

    @staticmethod
    def monomial(exp: int, coeff=1) -> "RatFunc":
        return RatFunc.of_poly(LaurentPoly.monomial(exp, coeff))

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num._c

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den.is_one() and other.den.is_one():
            return RatFunc(self.num + other.num, ONE, _canonical=True)
        if self.den == other.den:
            num = self.num + other.num
            if not num._c:
                return _RF_ZERO
            _, num, den = poly_gcd(num, self.den)
            return _unit_normalize(num, den)
        # common factor of the two denominators bounds the reduction needed
        d, qa, qb = poly_gcd(self.den, other.den)
        g, t, dg = poly_gcd(self.num * qb + other.num * qa, d)
        # the sum is t / (qa qb dg)
        return _unit_normalize(t, qa * other.den if g.is_one() else qa * qb * dg)

    def __neg__(self):
        return RatFunc(-self.num, self.den, _canonical=True)

    def __sub__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return _RF_ZERO
        if self.is_one():
            return other
        if other.is_one():
            return self
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        # no gcd if both are polynomials or one is the unit ±v^k: the form stays canonical
        if d2.is_one() and (d1.is_one() or n2.is_unit()):
            return RatFunc(n1 * n2, d1, _canonical=True)
        if d1.is_one() and n1.is_unit():
            return RatFunc(n2 * n1, d2, _canonical=True)
        if not d2.is_one():
            _, n1, d2 = poly_gcd(n1, d2)
        if not d1.is_one():
            _, n2, d1 = poly_gcd(n2, d1)
        return _unit_normalize(n1 * n2, d1 * d2)

    def inverse(self) -> "RatFunc":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return _unit_normalize(self.den, self.num)

    # -- evaluation ----------------------------------------------------------------

    def evaluate(self, x) -> Fraction:
        """Evaluate at a nonzero rational v = x: one Fraction from the two
        integer pairs of `LaurentPoly._evaluate_ints`."""
        p, q = x.as_integer_ratio()
        dn, dd = self.den._evaluate_ints(p, q)
        if not dn:
            raise ZeroDivisionError(f"denominator vanishes at v = {x}")
        nn, nd = self.num._evaluate_ints(p, q)
        return Fraction(nn * dd, nd * dn)

    def order_at_zero(self) -> int:
        """Order of vanishing at v = 0 (negative for a pole); the canonical
        denominator never vanishes at 0."""
        if self.num.is_zero():
            raise ValueError("order at zero of the zero function is undefined")
        return self.num.valuation

    # -- comparisons ------------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self):
        if self.den.is_one():
            return f"RatFunc({self.num})"
        return f"RatFunc(({self.num})/({self.den}))"

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}


def _unit_normalize(num: LaurentPoly, den: LaurentPoly) -> RatFunc:
    """Shift v-powers out of den, then divide num and den by the gcd of all
    their coefficients, negated if den's leading coefficient is negative;
    assumes num/den reduced."""
    if num.is_zero():
        return _RF_ZERO
    val = den.valuation
    if val:
        den = den.shift(-val)
        num = num.shift(-val)
    lead = den.coefficient(den.degree)
    if lead != 1:  # a leading 1 leaves no common integer factor
        g = _int_gcd(*num._c.values(), *den._c.values())
        if lead < 0:
            g = -g
        if g != 1:
            num = _lp({k: a // g for k, a in num._c.items()})
            den = _lp({k: a // g for k, a in den._c.items()})
    return RatFunc(num, den, _canonical=True)


_RF_ZERO = RatFunc(ZERO, ONE, _canonical=True)
_RF_ONE = RatFunc(ONE, ONE, _canonical=True)


# -- q-combinatorics -------------------------------------------------------------------


@lru_cache(maxsize=None)
def q_int(n: int) -> LaurentPoly:
    """(n)_v = (v^n - v^-n)/(v - v^-1), a symmetric Laurent polynomial."""
    if n < 0:
        return -q_int(-n)
    return LaurentPoly({n - 1 - 2 * j: 1 for j in range(n)})


@lru_cache(maxsize=None)
def q_factorial(n: int) -> LaurentPoly:
    """(n)_v! for n >= 0."""
    if n < 0:
        raise ValueError("q-factorial requires n >= 0")
    if n == 0:
        return ONE
    return q_factorial(n - 1) * q_int(n)


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> LaurentPoly:
    """Gaussian binomial in v; zero when k < 0 or n < k."""
    if k < 0 or n < k:
        return ZERO
    if k == 0 or k == n:
        return ONE
    num = ONE
    for s in range(1, k + 1):
        num = num * q_int(n - s + 1)
    return num.divexact(q_factorial(k))


@lru_cache(maxsize=None)
def q2_binomial(n: int, k: int) -> LaurentPoly:
    """q_binomial(n, k) under v -> v^2, the Gaussian binomial in q = v^2."""
    return q_binomial(n, k).compose_monomial(2)


@lru_cache(maxsize=None)
def _factorial_ratio(parts_num: tuple, parts_den: tuple) -> RatFunc:
    """prod (n)_v! over parts_num divided by prod (n)_v! over parts_den.

    The (j)_v factors that both sides share are cancelled before the one gcd,
    so (k)_v!/(k-s)_v! is a plain product; the canonical form is unique, so
    the value is the one the full ratio reduces to.  Cached by the part
    tuples, so a string coefficient that recurs at another length l is the
    same object."""
    count = Counter()
    for sign, parts in ((1, parts_num), (-1, parts_den)):
        for n in parts:
            for j in range(2, n + 1):
                count[j] += sign
    num = den = ONE
    for j, e in count.items():
        for _ in range(e):
            num = num * q_int(j)
        for _ in range(-e):
            den = den * q_int(j)
    return RatFunc(num, den)


def kash_coeff(kind: str, l: int, k: int, s: int) -> RatFunc:
    """String-shift coefficient of the given kind ("low" or "up") for length
    l, depth k and shift s; zero outside the domain 0 <= k <= l,
    k - l <= s <= k.  An unknown kind raises ValueError everywhere."""
    if kind not in ("low", "up"):
        raise ValueError(f"unknown coefficient kind: {kind!r}")
    if not (0 <= k <= l and k - l <= s <= k):
        return RatFunc.zero()
    if kind == "low":
        return _factorial_ratio((k,), (k - s,))
    return _factorial_ratio((l - k + s,), (l - k,))


def kash_coeff_underline(kind: str, l: int, k: int, s: int) -> RatFunc:
    """Divided-power normalization of kash_coeff; identically 1 for "low"
    inside the domain."""
    if kind not in ("low", "up"):
        raise ValueError(f"unknown coefficient kind: {kind!r}")
    if not (0 <= k <= l and k - l <= s <= k):
        return RatFunc.zero()
    if kind == "low":
        return RatFunc.one()
    return _factorial_ratio((l - k + s, k - s), (l - k, k))


def cg_coeff(r: int, t: int, c: int, d: int) -> LaurentPoly:
    """Correction coefficient C^(r)_t(c, d) of the divided-power action, with
    q = v^2.

    The two branches split on d - c >= r; the zero conventions of q_binomial
    do the rest.
    """
    if r < 1 or t < 1 or t > r:
        raise ValueError(f"need r >= 1 and 1 <= t <= r, got r={r}, t={t}")
    if d - c >= r:
        return q2_binomial(c, t) * q2_binomial(d - t, r - t)
    return q2_binomial(d - c, t) * q2_binomial(d - t, r)
