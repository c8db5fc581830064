"""Cartan data for finite types: weights, the Weyl action, the bilinear form,
rho-type functionals and extremal-monomial exponents.

A weight is a plain tuple of ints in fundamental-weight coordinates on the
semisimple lattice, so pairing lam against the i-th simple coroot is the
read-off lam[i - 1], `shift` does the lattice arithmetic, and the symmetric
form takes exact rational values through the inverse Cartan matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import coxeter, linalg
from .coxeter import CoxeterDatum, GroupElement
from .qarith import RatFunc


Weight = tuple[int, ...]


def shift(lam: Weight, alpha: Weight, c: int = 1) -> Weight:
    """lam + c alpha, coordinate by coordinate."""
    return tuple(a + c * b for a, b in zip(lam, alpha))


def _solve(a, b) -> tuple[tuple[Fraction, ...], ...]:
    """a^-1 b over Q for a nonsingular a: the right half of linalg.rref([a | b])."""
    n = len(a)
    red, _ = linalg.rref([{j: RatFunc.scalar(x) for j, x in enumerate((*a[i], *b[i])) if x}
                          for i in range(n)])
    return tuple(tuple(Fraction(row[j].num.coefficient(0), row[j].den.coefficient(0))
                       for j in range(n, n + len(b[0])))
                 for row in red)


def _minimal_symmetrizers(a) -> tuple[int, ...]:
    n = len(a)
    d = [0] * n
    for start in range(n):
        if d[start]:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if a[i][j] != 0 and i != j and not d[j]:
                    # d_i a_ij = d_j a_ji
                    d[j] = d[i] * Fraction(a[i][j], a[j][i])
                    stack.append(j)
    lcm_den = math.lcm(*(x.denominator for x in d))
    ints = [int(x * lcm_den) for x in d]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


class CartanDatum(CoxeterDatum):
    """The CoxeterDatum of a finite-type Cartan matrix, with its inverse and
    minimal symmetrizers."""

    def __init__(self, cartan):
        # the group tests the entries, the sign pattern and, by its order table
        # and root cap, finite type; a finite type is nonsingular
        super().__init__(cartan)
        eye = [[int(i == j) for j in range(self.n)] for i in range(self.n)]
        self.cartan_inverse = _solve(self.cartan, eye)
        self.d = _minimal_symmetrizers(self.cartan)

    # -- weights -------------------------------------------------------------

    def simple_root(self, j: int) -> Weight:
        """alpha_j in fundamental-weight coordinates (column j of the Cartan matrix)."""
        return tuple(row[j - 1] for row in self.cartan)

    def rho(self, J=None) -> Weight:
        J = set(self.indices if J is None else J)
        return tuple(1 if i in J else 0 for i in self.indices)

    def reflect(self, i: int, lam: Weight) -> Weight:
        """s_i(lam) = lam - lam(alpha_i^vee) alpha_i."""
        c = lam[i - 1]
        if c == 0:
            return lam
        return shift(lam, self.simple_root(i), -c)


def form(d: CartanDatum, lam: Weight, mu: Weight) -> Fraction:
    """The W-invariant symmetric form (lam, mu), exact rational."""
    inv = d.cartan_inverse
    total = Fraction(0)
    for i in range(d.n):
        if lam[i]:
            row = inv[i]
            s = sum(row[k] * mu[k] for k in range(d.n) if mu[k])
            total += d.d[i] * lam[i] * s
    return total


def form_with_root(d: CartanDatum, lam: Weight, i: int) -> int:
    """(lam, alpha_i) = d_i lam(alpha_i^vee), always an integer."""
    return d.d[i - 1] * lam[i - 1]


def weyl_act(d: CartanDatum, w: GroupElement, lam: Weight) -> Weight:
    """Apply w through its deterministic reduced word."""
    out = lam
    for i in reversed(coxeter.reduced_word(w)):
        out = d.reflect(i, out)
    return out


@lru_cache(maxsize=None)
def _rho_coroot(d: CartanDatum, J: tuple[int, ...]) -> tuple[Fraction, ...]:
    """G^-1 (1, ..., 1) for the Gram matrix G = ((alpha_a, alpha_b))_{a,b in J}.

    G is symmetric and positive definite, so nonsingular, and the coefficient
    sum of G^-1 x is the pairing of this vector with x."""
    gram = [[form(d, d.simple_root(a), d.simple_root(b)) for b in J] for a in J]
    return tuple(c for (c,) in _solve(gram, [[1]] * len(J)))


def rho_functionals(d: CartanDatum, J, mu: Weight) -> Fraction:
    """rho_J^vee(mu), under the name perfbench traces.

    rho_J^vee takes the J-root-span component of mu and sums its coefficients;
    it kills everything orthogonal to the alpha_j, j in J.  The coefficients
    solve sum_j c_j (alpha_j, alpha_i) = (mu, alpha_i) for i in J.
    """
    J = tuple(sorted(set(J)))
    if not J:
        return Fraction(0)
    pairing = zip(_rho_coroot(d, J), J)
    return sum((w * form_with_root(d, mu, i) for w, i in pairing), Fraction(0))


def extremal_exponents(d: CartanDatum, word, lam: Weight) -> tuple[int, ...]:
    """Divided-power exponents (a_1, ..., a_m) of the extremal monomial for a
    reduced word and a dominant weight: a_k is the pairing of the partial
    reflection s_{i_{k+1}} ... s_{i_m}(lam) with alpha_{i_k}^vee."""
    word = tuple(word)
    if any(c < 0 for c in lam):
        raise ValueError(f"weight {lam} is not dominant")
    if coxeter.length(coxeter.from_word(d, word)) != len(word):
        raise ValueError(f"word {word} is not reduced")
    exps = [0] * len(word)
    mu = lam
    for k in range(len(word) - 1, -1, -1):
        i = word[k]
        exps[k] = mu[i - 1]
        mu = d.reflect(i, mu)
    return tuple(exps)


@lru_cache(maxsize=None)
def sl3() -> CartanDatum:
    """The rank-2 datum used by the crystal and module layers."""
    return CartanDatum.from_type("A2")
