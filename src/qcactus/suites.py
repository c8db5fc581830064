"""Seeded verification suites driving every relation the library implements.

Each suite returns a list of check records {name, anchor, status, witness?,
seconds}, where `seconds` is the CPU time the check took in its process; the
CLI assembles them into reports and the test suite asserts on them.  Anchors
state the identity being verified.
"""

from __future__ import annotations

import functools
import os
import random
import time
from fractions import Fraction

from . import cartan, coxeter, crystal, gkmodel, linalg, repmodule
from .cartan import Weight
from .crystal import Pattern
from .qarith import (
    LaurentPoly,
    RatFunc,
    kash_coeff,
    kash_coeff_underline,
    q2_binomial,
    q_binomial,
)

COXETER_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "G2", "A1xA1", "A1xA2")
#: random triples per field-axiom run; largest string length of the coefficient laws
FIELD_SAMPLES = 80
MAX_STRING_LENGTH = 12
#: random patterns per crystal identity; random words or monomials per model-algebra law
CRYSTAL_SAMPLES = 10_000
GK_WORDS = 1000


def _run(checks: list, name: str, anchor: str, fn) -> None:
    t0 = time.process_time()
    try:
        witness = fn()
        status = "pass" if witness is None else "fail"
    except Exception as exc:  # a crash is a failing check, not a crashed run
        witness = {"error": repr(exc)}
        status = "fail"
    record = {
        "name": name,
        "anchor": anchor,
        "status": status,
        "seconds": round(time.process_time() - t0, 4),
    }
    if witness:
        record["witness"] = witness
    checks.append(record)


def _skip(checks: list, name: str, anchor: str, reason: str) -> None:
    checks.append(
        {"name": name, "anchor": anchor, "status": "skipped", "witness": {"reason": reason},
         "seconds": 0.0}
    )


# -- exact arithmetic ------------------------------------------------------------


def qarith_suite(seed: int = 1) -> list[dict]:
    checks: list[dict] = []
    rng = random.Random(seed)

    def rnd_poly():
        return LaurentPoly(
            {rng.randint(-5, 5): rng.randint(-6, 6) for _ in range(rng.randint(0, 5))}
        )

    def rnd_rf():
        den = rnd_poly()
        while den.is_zero():
            den = rnd_poly()
        return RatFunc(rnd_poly(), den)

    spots = [Fraction(3, 2), Fraction(-5, 7)] + [
        Fraction(rng.randint(1, 60), rng.randint(1, 60)) * rng.choice((1, -1))
        for _ in range(18)
    ]

    def field_axioms():
        for k in range(FIELD_SAMPLES):
            a, b, c = rnd_rf(), rnd_rf(), rnd_rf()
            if (a + b) + c != a + (b + c):
                return {"law": "add-assoc", "iteration": k}
            if a * (b + c) != a * b + a * c:
                return {"law": "distributive", "iteration": k}
            if (a * b) * c != a * (b * c):
                return {"law": "mul-assoc", "iteration": k}
            if a + b != b + a or a * b != b * a:
                return {"law": "commutative", "iteration": k}
            if not a.is_zero() and not (a * a.inverse()).is_one():
                return {"law": "inverse", "iteration": k}
            abc = a * b + c
            for x in spots:
                try:
                    if abc.evaluate(x) != a.evaluate(x) * b.evaluate(x) + c.evaluate(x):
                        return {"law": "specialization", "at": str(x), "iteration": k}
                except ZeroDivisionError:
                    continue
        return None

    def binomial_symmetry():
        for n in range(13):
            for k in range(n + 1):
                if q_binomial(n, k) != q_binomial(n, n - k):
                    return {"n": n, "k": k}
        return None

    def pascal():
        for n in range(1, 13):
            for k in range(1, n):
                lhs = q_binomial(n, k)
                rhs = q_binomial(n - 1, k - 1).shift(n - k) + q_binomial(n - 1, k).shift(-k)
                if lhs != rhs:
                    return {"n": n, "k": k}
        return None

    def underline_symmetry():
        for l in range(MAX_STRING_LENGTH + 1):
            for k in range(l + 1):
                for s in range(k - l, k + 1):
                    for kind in ("low", "up"):
                        a = kash_coeff_underline(kind, l, k, s)
                        b = kash_coeff_underline(kind, l, l - k, -s)
                        if a != b:
                            return {"kind": kind, "l": l, "k": k, "s": s}
        return None

    def composition_law():
        # a factor pair's product is formed once; equality is structural, so a
        # later occurrence compares against the lhs the product matched, which
        # is a cached coefficient, and no product is kept
        matched = {}
        for l in range(MAX_STRING_LENGTH + 1):
            for k in range(l + 1):
                for s in range(-l, l + 1):
                    first = {kind: kash_coeff(kind, l, k, s) for kind in ("low", "up")}
                    for t in range(-l, l + 1):
                        if s * t < 0:
                            continue
                        for kind in ("low", "up"):
                            lhs = kash_coeff(kind, l, k, s + t)
                            pair = (first[kind], kash_coeff(kind, l, k - s, t))
                            known = matched.get(pair)
                            if known is None:
                                if lhs != pair[0] * pair[1]:
                                    return {"kind": kind, "l": l, "k": k, "s": s, "t": t}
                                matched[pair] = lhs
                            elif lhs != known:
                                return {"kind": kind, "l": l, "k": k, "s": s, "t": t}
        return None

    _run(checks, "field-axioms", "RatFunc is a field, symbolically and at 20 rational points",
         field_axioms)
    _run(checks, "binomial-symmetry", "[n choose k] = [n choose n-k]", binomial_symmetry)
    _run(checks, "pascal", "[n,k] = v^(n-k)[n-1,k-1] + v^(-k)[n-1,k]", pascal)
    _run(checks, "underline-symmetry", "c(l,k,s) = c(l,l-k,-s) after division normalization",
         underline_symmetry)
    _run(checks, "composition-law", "c(l,k,s+t) = c(l,k,s) c(l,k-s,t) for st >= 0",
         composition_law)
    return checks


# -- Coxeter groups ---------------------------------------------------------------


def _subsets(indices):
    items = list(indices)
    for mask in range(1 << len(items)):
        yield frozenset(items[k] for k in range(len(items)) if mask >> k & 1)


def coxeter_suite(seed: int = 1) -> list[dict]:
    checks: list[dict] = []
    rng = random.Random(seed)
    data = {name: coxeter.CoxeterDatum.from_type(name) for name in COXETER_TYPES}

    def kernels():
        for name, d in data.items():
            for J in _subsets(d.indices):
                a = coxeter.kernel_parabolic(d, J, "formula")
                b = coxeter.kernel_parabolic(d, J, "bruteforce")
                if a != b:
                    return {"type": name, "J": sorted(J)}
        return None

    def intersections():
        for name, d in data.items():
            groups = {J: frozenset(d.subgroup_elements(J)) for J in _subsets(d.indices)}
            for J in groups:
                for K in groups:
                    if groups[J] & groups[K] != groups[J & K]:
                        return {"type": name, "J": sorted(J), "K": sorted(K)}
        return None

    def factorization():
        for name, d in data.items():
            for J in _subsets(d.indices):
                closure, _, perp = coxeter.topology(d, J)
                if closure != J:
                    continue
                wj = d.subgroup_elements(J)
                wperp = d.subgroup_elements(perp)
                products = {}
                for u in wj:
                    for u2 in wperp:
                        key = u * u2
                        if key in products:
                            return {"type": name, "J": sorted(J), "collision": True}
                        products[key] = (u, u2)
                if len(products) != len(d.elements()):
                    return {"type": name, "J": sorted(J), "incomplete": True}
        return None

    def reduced_words():
        for name, d in data.items():
            elements = list(d.elements())
            sample = elements if len(elements) <= 60 else rng.sample(elements, 60)
            for w in sample:
                word = coxeter.reduced_word(w)
                if len(word) != coxeter.length(w):
                    return {"type": name, "word": word}
                if coxeter.from_word(d, word) != w:
                    return {"type": name, "word": word, "roundtrip": False}
        return None

    def star():
        for name, d in data.items():
            for J in _subsets(d.indices):
                if not J:
                    continue
                for j in J:
                    js = coxeter.star_involution(d, J, j)
                    if coxeter.star_involution(d, J, js) != j:
                        return {"type": name, "J": sorted(J), "j": j}
                for j in J:
                    for k in J:
                        js = coxeter.star_involution(d, J, j)
                        ks = coxeter.star_involution(d, J, k)
                        if d.m[js - 1][ks - 1] != d.m[j - 1][k - 1]:
                            return {"type": name, "J": sorted(J), "pair": (j, k)}
        return None

    _run(checks, "kernel-agreement", "coset-action kernel: formula = brute force, all J",
         kernels)
    _run(checks, "parabolic-intersections", "W_J intersect W_K = W_(J cap K)", intersections)
    _run(checks, "closed-factorization", "closed J: W = W_J x W_(J perp), uniquely",
         factorization)
    _run(checks, "reduced-words", "reduced_word has length l(w) and reassembles to w",
         reduced_words)
    _run(checks, "star-involution", "j -> j* is an involution preserving the orders m",
         star)
    return checks


# -- crystal combinatorics -----------------------------------------------------------


def _randint(rng):
    """rng.randint as a closure over rng.getrandbits, drawing the same stream:
    the rejection loop of Random._randbelow, without randrange's checks."""
    getrandbits = rng.getrandbits

    def randint(a, b):
        n = b - a + 1
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return a + r

    return randint


def _random_pattern(rng, randint, bound=20):
    if rng.random() < 0.5:
        m1, m2 = randint(0, bound), 0
    else:
        m1, m2 = 0, randint(0, bound)
    return Pattern(m1, m2, *(randint(-bound, bound) for _ in range(4)))


def weyl_dimension(l1: int, l2: int) -> int:
    """Independent dimension oracle: the Weyl formula over the positive roots."""
    d = cartan.sl3()
    lam_rho = Weight((l1 + 1, l2 + 1))
    rho = d.rho()
    num = den = Fraction(1)
    for root in d.positive_roots:
        alpha = Weight((0, 0))
        for j, c in enumerate(root, start=1):
            if c:
                alpha = alpha + d.simple_root(j).scale(c)
        num *= cartan.form(d, lam_rho, alpha)
        den *= cartan.form(d, rho, alpha)
    value = num / den
    assert value.denominator == 1
    return int(value)


def crystal_suite(seed: int = 1) -> list[dict]:
    checks: list[dict] = []
    rng = random.Random(seed)
    randint = _randint(rng)  # rng.choice((1, 2)) is randint(1, 2)

    def operator_identities():
        for it in range(CRYSTAL_SAMPLES):
            m = _random_pattern(rng, randint)
            r, s = randint(-10, 10), randint(-10, 10)
            i = randint(1, 2)
            j = 3 - i
            if crystal.e_pow(i, r, crystal.e_pow(i, s, m)) != crystal.e_pow(i, r + s, m):
                return {"law": "composition", "m": str(m), "i": i, "r": r, "s": s}
            lhs = crystal.e_pow(1, r, crystal.e_pow(2, r + s, crystal.e_pow(1, s, m)))
            rhs = crystal.e_pow(2, s, crystal.e_pow(1, r + s, crystal.e_pow(2, r, m)))
            if lhs != rhs:
                return {"law": "verma", "m": str(m), "r": r, "s": s}
            image = crystal.e_pow(i, r, m)
            if (image.l1, image.l2) != (m.l1, m.l2):
                return {"law": "component", "m": str(m), "i": i, "r": r}
        return None

    def involution_identities():
        for it in range(CRYSTAL_SAMPLES):
            m = _random_pattern(rng, randint)
            r = randint(-10, 10)
            i = randint(1, 2)
            j = 3 - i
            if crystal.sigma_i(i, crystal.sigma_i(i, m)) != m:
                return {"law": "involution", "m": str(m), "i": i}
            if crystal.sigma_i(i, crystal.e_pow(i, r, m)) != crystal.e_pow(
                i, -r, crystal.sigma_i(i, m)
            ):
                return {"law": "sigma-e", "m": str(m), "i": i, "r": r}
            if crystal.sigma_outer(crystal.e_pow(i, r, m)) != crystal.e_pow(
                j, -r, crystal.sigma_outer(m)
            ):
                return {"law": "outer-e", "m": str(m), "i": i, "r": r}
            if crystal.sigma_i(1, crystal.sigma_i(2, crystal.sigma_i(1, m))) != crystal.sigma_i(
                2, crystal.sigma_i(1, crystal.sigma_i(2, m))
            ):
                return {"law": "braid", "m": str(m)}
            if crystal.sigma_i(i, crystal.sigma_outer(m)) != crystal.sigma_outer(
                crystal.sigma_i(j, m)
            ):
                return {"law": "mixed", "m": str(m), "i": i}
            if crystal.sigma_outer(crystal.sigma_outer(m)) != m:
                return {"law": "outer-involution", "m": str(m)}
        return None

    def bijection_roundtrip():
        for it in range(CRYSTAL_SAMPLES):
            m = _random_pattern(rng, randint)
            if crystal.khat_inv(crystal.khat(m)) != m:
                return {"m": str(m)}
        return None

    def component_count():
        for l1 in range(13):
            for l2 in range(13 - l1):
                expected = (l1 + 1) * (l2 + 1) * (l1 + l2 + 2) // 2
                if weyl_dimension(l1, l2) != expected:
                    return {"l1": l1, "l2": l2, "oracle": "weyl"}
                if len(crystal.enumerate_component(l1, l2)) != expected:
                    return {"l1": l1, "l2": l2, "oracle": "enumeration"}
        return None

    def zero_weight_count():
        for l1 in range(11):
            for l2 in range(11 - l1):
                count = sum(
                    1
                    for m in crystal.enumerate_component(l1, l2)
                    if crystal.weight_pair(m) == (0, 0)
                )
                expected = min(l1, l2) + 1 if (l1 - l2) % 3 == 0 else 0
                if count != expected:
                    return {"l1": l1, "l2": l2, "count": count, "expected": expected}
        return None

    _run(checks, "string-operators",
         "e_i^r e_i^s = e_i^(r+s); the Verma relation; components preserved",
         operator_identities)
    _run(checks, "involutions",
         "involutivity, conjugation of e_i^r, braid and mixed relations",
         involution_identities)
    _run(checks, "array-bijection", "pattern <-> array roundtrip", bijection_roundtrip)
    _run(checks, "component-count",
         "|component(l1,l2)| = (l1+1)(l2+1)(l1+l2+2)/2, against the Weyl formula",
         component_count)
    _run(checks, "zero-weight-count",
         "zero-weight multiplicity min(l1,l2)+1 when l1 = l2 mod 3, else 0",
         zero_weight_count)
    return checks


# -- the symbolic modules ----------------------------------------------------------------


def lambdas(max_degree: int) -> list[tuple[int, int]]:
    """Every (l1, l2) with l1 + l2 <= max_degree, by total degree, then by l1."""
    return [(l1, total - l1) for total in range(max_degree + 1) for l1 in range(total + 1)]


def commutator_failure(act, x) -> dict | None:
    """The first (i, j) with [E_i, F_j] x != delta_ij (K_i - K_i^-1)/(q_i - q_i^-1) x,
    for a divided-power action `act(i, kind, r, x)` on an element keyed by patterns."""
    for i in (1, 2):
        for j in (1, 2):
            lhs = act(i, "E", 1, act(j, "F", 1, x)) - act(j, "F", 1, act(i, "E", 1, x))
            rhs = repmodule.ModuleVector()
            if i == j:
                for m, c in x.items():
                    rhs.add(m, c * repmodule.cartan_scalar(i, m))
            if lhs != rhs:
                return {"i": i, "j": j}
    return None


def serre_failure(act, x) -> dict | None:
    """The first (kind, i) with sum_r (-1)^r X_i^(r) X_j X_i^(2-r) x != 0, where
    X = E or F and j = 3 - i, for an action as in `commutator_failure`."""
    for kind in ("E", "F"):
        for i in (1, 2):
            total = repmodule.ModuleVector()
            for r in range(3):
                term = act(i, kind, r, act(3 - i, kind, 1, act(i, kind, 2 - r, x)))
                total = total - term if r % 2 else total + term
            if not total.is_zero():
                return {"kind": kind, "i": i}
    return None


def relations_checks(mod: repmodule.ModuleVLambda) -> list[dict]:
    """The commutator, both Serre relations and divided-power composition on
    every basis vector of one module; one record per relation."""
    checks: list[dict] = []
    act = repmodule.act_divided

    def on_basis(failure, relation):
        for m in mod.basis:
            fail = failure(act, mod.basis_vector(m))
            if fail:
                return {"relation": relation, **fail, "pattern": str(m)}
        return None

    def divided():
        bound = mod.l1 + mod.l2 + 2
        for m in mod.basis:
            b = mod.basis_vector(m)
            for kind in ("E", "F"):
                for i in (1, 2):
                    powers = [act(i, kind, k, b) for k in range(bound + 1)]
                    for r in range(bound + 1):
                        for s in range(bound + 1 - r):
                            lhs = act(i, kind, r, powers[s])
                            rhs = powers[r + s].scale(RatFunc.of_poly(q2_binomial(r + s, r)))
                            if lhs != rhs:
                                return {
                                    "relation": "divided-power composition",
                                    "kind": kind,
                                    "i": i,
                                    "r": r,
                                    "s": s,
                                    "pattern": str(m),
                                }
        return None

    _run(checks, "commutator", "[E_i,F_j] = delta_ij (K_i - K_i^-1)/(q_i - q_i^-1)",
         lambda: on_basis(commutator_failure, "[E_i,F_j]"))
    _run(checks, "serre", "quantum Serre relations", lambda: on_basis(serre_failure, "serre"))
    _run(checks, "divided-power", "E_i^(r)E_i^(s) = [r+s choose r] E_i^(r+s)", divided)
    return checks


def sigma_checks(modules, label: str = "") -> list[dict]:
    """The sigma checks that hold module by module, each run over every module
    in `modules`; `label` is appended to each check name."""
    checks: list[dict] = []

    def over_modules(check):
        def fn():
            for mod in modules:
                witness = check(mod)
                if witness is not None:
                    return {"lambda": [mod.l1, mod.l2], **witness}
            return None

        return fn

    def sigma(mod, J):
        return mod.matrix("sigma" + "".join(map(str, J)))

    def three_way(mod):
        for i in (1, 2):
            n, flip, t = mod.matrix(f"N{i}"), mod.matrix(f"flip{i}"), sigma(mod, (i,))
            if flip == n and flip == t:
                continue
            # the first column, in basis order, where either pair differs;
            # at one column "string/N" sorts before "string/T"
            j, pair = min((j, pair) for other, pair in ((n, "string/N"), (t, "string/T"))
                          for a, b in zip(flip, other)
                          for j in a.keys() | b.keys() if a[j] != b[j])
            return {"i": i, "m": str(mod.basis[j]), "pair": pair}
        return None

    def involutions(mod):
        for J in ((1,), (2,), (1, 2)):
            s = sigma(mod, J)
            if not linalg.is_identity(linalg.mat_mul(s, s)):
                return {"J": list(J)}
        return None

    def conjugation(mod):
        full, one, two = (sigma(mod, J) for J in ((1, 2), (1,), (2,)))
        if linalg.mat_mul(full, one) != linalg.mat_mul(two, full):
            return {"relation": "sigma^I sigma^1 = sigma^2 sigma^I"}
        if linalg.mat_mul(full, two) != linalg.mat_mul(one, full):
            return {"relation": "sigma^I sigma^2 = sigma^1 sigma^I"}
        return None

    def braid(mod):
        for sign in ("+", "-"):
            t1, t2 = mod.matrix(f"T1{sign}"), mod.matrix(f"T2{sign}")
            lhs = linalg.mat_mul(t1, linalg.mat_mul(t2, t1))
            if lhs != linalg.mat_mul(t2, linalg.mat_mul(t1, t2)):
                return {"sign": sign}
        return None

    # single-module reports (module verify) carry the short anchor
    involution_anchor = "sigma^J o sigma^J = 1" + ("" if label else " for J in {1},{2},{1,2}")
    _run(checks, f"three-way-agreement{label}",
         "string flips = conjugated permutation = normalized braid symmetry",
         over_modules(three_way))
    _run(checks, f"involutions{label}", involution_anchor, over_modules(involutions))
    _run(checks, f"star-conjugation{label}", "sigma^I sigma^K = sigma^(K*) sigma^I",
         over_modules(conjugation))
    _run(checks, f"T-braid{label}", "T1 T2 T1 = T2 T1 T2, both signs", over_modules(braid))
    return checks


def module_suite() -> list[dict]:
    """Every module with l1 + l2 <= 4, each built once: the quantum relations on
    each, named `relations(l1,l2):check`, then the sigma checks over all of them
    and the weight, crystal and extremal-vector checks."""
    modules = {lam: repmodule.ModuleVLambda(*lam) for lam in lambdas(4)}
    checks = [dict(rec, name=f"relations({l1},{l2}):{rec['name']}")
              for (l1, l2), mod in modules.items() for rec in relations_checks(mod)]
    checks += sigma_checks(modules.values())

    def weight_bookkeeping():
        for (l1, l2), mod in modules.items():
            d = mod.datum
            for m in mod.basis:
                b = mod.basis_vector(m)
                beta = mod.weight_of(m)
                for i in (1, 2):
                    img = repmodule.act_divided(i, "E", 1, b)
                    target = beta + d.simple_root(i)
                    if any(mod.weight_of(mm) != target for mm in img):
                        return {"lambda": [l1, l2], "op": "E", "i": i, "m": str(m)}
            for i in (1, 2):
                for row, entries in enumerate(mod.matrix(f"T{i}+")):
                    for col in entries:
                        if mod.weights[row] != d.reflect(i, mod.weights[col]):
                            return {"lambda": [l1, l2], "op": "T", "i": i,
                                    "m": str(mod.basis[col])}
        return None

    def crystal_shadow():
        for (l1, l2), mod in modules.items():
            for i in (1, 2):
                lead_row = [mod.index[crystal.sigma_i(i, m)] for m in mod.basis]
                for row, entries in enumerate(mod.matrix(f"N{i}")):
                    for col, entry in entries.items():
                        m = mod.basis[col]
                        if row == lead_row[col]:
                            delta = entry - RatFunc.one()
                            if not delta.is_zero() and delta.order_at_zero() <= 0:
                                return {"lambda": [l1, l2], "i": i, "m": str(m),
                                        "entry": str(entry)}
                        elif entry.order_at_zero() <= 0:
                            return {"lambda": [l1, l2], "i": i, "m": str(m), "row": row,
                                    "entry": str(entry)}
        return None

    def extremal_checks():
        d = cartan.sl3()
        w0_words = ((1, 2, 1), (2, 1, 2))
        for lam in ((1, 0), (0, 1), (1, 1), (2, 2)):
            mod = modules[lam]
            vectors = [repmodule.descend(word, mod, mod.highest_vector()) for word in w0_words]
            if vectors[0] != vectors[1]:
                return {"lambda": list(lam), "law": "reduced-word independence"}
        mod = modules[(1, 1)]
        for w in d.elements():
            ev = repmodule.extremal_vector(w, mod)
            for i in (1, 2):
                if repmodule.sigma_J((i,), mod, ev) != repmodule.extremal_vector(
                    d.generators[i] * w, mod
                ):
                    return {"law": "sigma translation", "w": coxeter.reduced_word(w), "i": i}
        # linear independence of the extremal family
        family = [repmodule.extremal_vector(w, mod) for w in d.elements()]
        distinct = []
        for v in family:
            if all(v != u for u in distinct):
                distinct.append(v)
        rank = linalg.rank([linalg.Row({mod.index[m]: c for m, c in v.items()})
                            for v in distinct])
        if rank != len(distinct):
            return {"law": "extremal independence", "rank": rank}
        return None

    def extremal_T():
        mod = modules[(1, 1)]
        d = mod.datum
        lam = mod.highest_weight
        rho = d.rho()
        for w in d.elements():
            for w2 in d.elements():
                if coxeter.length(w * w2) != coxeter.length(w) + coxeter.length(w2):
                    continue
                ev = repmodule.extremal_vector(w2, mod)
                lhs = repmodule.lusztig_T_word(coxeter.reduced_word(w), "+", ev)
                exponent = cartan.form(d, cartan.weyl_act(d, w2, lam), rho) - cartan.form(
                    d, cartan.weyl_act(d, w2, lam), cartan.weyl_act(d, w.inverse(), rho)
                )
                if exponent.denominator != 1:
                    return {"law": "T-extremal exponent", "w": coxeter.reduced_word(w)}
                rhs = repmodule.extremal_vector(w * w2, mod).scale(
                    RatFunc.monomial(int(exponent))
                )
                if lhs != rhs:
                    return {
                        "law": "T-extremal",
                        "w": coxeter.reduced_word(w),
                        "w2": coxeter.reduced_word(w2),
                    }
        return None

    def degree_bookkeeping():
        d = cartan.sl3()
        for lam in ((1, 0), (2, 1), (3, 2)):
            weight = Weight(lam)
            for w in d.elements():
                word = coxeter.reduced_word(w)
                exps = cartan.extremal_exponents(d, word, weight)
                total = Weight((0, 0))
                for i, a in zip(word, exps):
                    total = total + d.simple_root(i).scale(a)
                if total != weight - cartan.weyl_act(d, w, weight):
                    return {"lambda": list(lam), "w": word}
        return None

    def word_independence_operators():
        d = cartan.sl3()
        for lam in ((1, 1), (2, 1)):
            mod = modules[lam]
            for w in d.elements():
                words = _all_reduced_words(d, w)
                if len(words) < 2:
                    continue
                images = [
                    [repmodule.descend(word, mod, mod.basis_vector(m)) for m in mod.basis]
                    for word in words
                ]
                if any(other != images[0] for other in images[1:]):
                    return {"lambda": list(lam), "w": words[0]}
        return None

    _skip(checks, "orthogonal-union",
          "sigma^(J u J') = sigma^J sigma^J' for orthogonal J, J'",
          "vacuous in rank 2: no orthogonal pair of nonempty subsets")
    _run(checks, "weight-bookkeeping",
         "E_i raises weight by alpha_i; T_i maps the beta space to s_i(beta)",
         weight_bookkeeping)
    _run(checks, "crystal-shadow",
         "N columns specialize at v=0 to the crystal involution",
         crystal_shadow)
    _run(checks, "extremal-vectors",
         "reduced-word independence, sigma translation, linear independence",
         extremal_checks)
    _run(checks, "T-extremal",
         "T_w on extremal vectors with additive lengths gains the half-weight power",
         extremal_T)
    _run(checks, "degree-bookkeeping", "sum a_k alpha_(i_k) = lambda - w lambda",
         degree_bookkeeping)
    _run(checks, "operator-word-independence",
         "divided-power descents agree for all reduced words",
         word_independence_operators)
    return checks


def _all_reduced_words(dc, w):
    lw = coxeter.length(w)
    if lw == 0:
        return [()]
    out = []
    for i in range(1, dc.n + 1):
        u = dc.generators[i] * w
        if coxeter.length(u) < lw:
            out.extend([(i,) + rest for rest in _all_reduced_words(dc, u)])
    return out


def conjecture_checks(mod: repmodule.ModuleVLambda) -> list[dict]:
    """Involutivity, the braid relation and the sixth-power identity of the
    composed involutions on one module, exactly."""
    l1, l2 = mod.l1, mod.l2
    checks: list[dict] = []

    def n(i):
        return mod.matrix(f"N{i}")

    def involution(i):
        def fn():
            if not linalg.is_identity(linalg.mat_mul(n(i), n(i))):
                return {"lambda": [l1, l2], "i": i}
            return None

        return fn

    @functools.cache
    def shared():
        # L = N1 N2 N1 and R = N2 N1 N2, shared by braid and cube.  N2 is
        # P N1 P (repmodule.matrix_N), so R = P L P is L with its entries moved;
        # a crash is not cached, so it fails both checks
        left = linalg.mat_mul(linalg.mat_mul(n(1), n(2)), n(1))
        return left, linalg.permute(left, repmodule.basis_permutation(crystal.sigma_outer, mod))

    def braid():
        left, right = shared()
        if left != right:
            return {"lambda": [l1, l2]}
        return None

    def cube():
        # (N1 N2)^3 = N1 N2 N1 R, formed right to left so that every product
        # has a factor N_i, whose entries are small
        chain = shared()[1]
        for i in (1, 2, 1):
            chain = linalg.mat_mul(n(i), chain)
        if not linalg.is_identity(chain):
            return {"lambda": [l1, l2]}
        return None

    _run(checks, f"involution-N1({l1},{l2})", "(N1)^2 = 1", involution(1))
    _run(checks, f"involution-N2({l1},{l2})", "(N2)^2 = 1", involution(2))
    _run(checks, f"braid({l1},{l2})", "N1 N2 N1 = N2 N1 N2", braid)
    _run(checks, f"cube({l1},{l2})", "(N1 N2)^3 = 1", cube)
    return checks


#: the check families that run on one module, in report order
MODULE_FAMILIES = {
    "relations": relations_checks,
    "sigma": lambda mod: sigma_checks([mod], f"({mod.l1},{mod.l2})"),
    "conjecture": conjecture_checks,
}


def _task_result(lam: tuple[int, int], families: tuple[str, ...]) -> dict:
    t0 = time.perf_counter()
    mod = repmodule.ModuleVLambda(*lam)
    checks = [rec for family in families for rec in MODULE_FAMILIES[family](mod)]
    return {"lambda": list(lam), "dim": mod.dim, "checks": checks,
            "seconds": round(time.perf_counter() - t0, 4)}


def module_task(lam: tuple[int, int], families: tuple[str, ...]) -> dict:
    """Build the module of highest weight `lam` and run the named families of
    MODULE_FAMILIES on it, in the order given; `seconds` is wall time.  It
    empties the N1 block memo first, so a module proved on its own forms every
    block of its N1 from its own C1 and P1."""
    repmodule.N1_BLOCKS.clear()
    return _task_result(lam, families)


def conjecture_task(lam: tuple[int, int]) -> dict:
    """The conjecture checks of one module, proved on that module alone."""
    return module_task(lam, ("conjecture",))


def conjecture_pair_task(lam: tuple[int, int]) -> list[dict]:
    """One sweep task for l1 <= l2: the conjecture checks of V(l1,l2) and, when
    l1 < l2, of V(l2,l1), each proved on its own module.  The N1 block memo is
    kept: every weight block of V(l2,l1) is a block of V(l1,l2), and a pool
    worker reuses the blocks of the tasks it has already run."""
    l1, l2 = lam
    return [_task_result(mirror, ("conjecture",))
            for mirror in dict.fromkeys([(l1, l2), (l2, l1)])]


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    reports one, otherwise the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_map(fn, items, jobs: int) -> list:
    """`fn` on every item, results in the order given, on `jobs` worker
    processes clamped to between 1 and the smaller of the number of items and
    the usable CPUs.  With one worker it runs in this process.  Each worker
    keeps its own `linalg` dot memo and `repmodule` N1 block memo for its
    lifetime, so it reuses the dot products and blocks of every item it has
    already run (`module_task` empties the block memo); a serial run keeps
    one of each over all the items."""
    items = list(items)
    jobs = max(1, min(jobs, len(items), usable_cpus()))
    if jobs == 1:
        return [fn(item) for item in items]
    # imported here: the process pool is half the import time of the CLI
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def gk_suite(seed: int = 1) -> list[dict]:
    checks: list[dict] = []
    rng = random.Random(seed)

    def rnd_word(maxlen=6):
        return tuple(rng.randrange(6) for _ in range(rng.randint(0, maxlen)))

    def rnd_monomial(maxdeg=3):
        return gkmodel.normal_form([(RatFunc.one(), rnd_word(maxdeg))])

    def confluence():
        for k in range(GK_WORDS):
            w = rnd_word()
            a = gkmodel.normal_form([(RatFunc.one(), w)], "leftmost")
            b = gkmodel.normal_form([(RatFunc.one(), w)], "rightmost")
            if a != b:
                return {"word": [gkmodel.GEN_NAMES[g] for g in w]}
        return None

    def associativity():
        for k in range(GK_WORDS):
            a, b, c = rnd_monomial(), rnd_monomial(), rnd_monomial()
            if gkmodel.multiply(gkmodel.multiply(a, b), c) != gkmodel.multiply(
                a, gkmodel.multiply(b, c)
            ):
                return {"iteration": k}
        return None

    def anti_homomorphism():
        for k in range(GK_WORDS):
            a, b = rnd_monomial(), rnd_monomial()
            if gkmodel.sigma_hat(gkmodel.multiply(a, b)) != gkmodel.multiply(
                gkmodel.sigma_hat(b), gkmodel.sigma_hat(a)
            ):
                return {"iteration": k}
        return None

    def involution_and_grading():
        for k in range(GK_WORDS):
            a = rnd_monomial(4)
            if gkmodel.sigma_hat(gkmodel.sigma_hat(a)) != a:
                return {"iteration": k, "law": "involution"}
            for mono in a:
                w = crystal.weight_pair(mono)
                img = gkmodel.sigma_hat(repmodule.ModuleVector({mono: RatFunc.one()}))
                if not img.is_zero() and gkmodel.weight(img) != (-w[1], -w[0]):
                    return {"iteration": k, "law": "grading"}
        return None

    def basis_compatibility():
        for l1 in range(5):
            for l2 in range(5 - l1):
                for m in crystal.enumerate_component(l1, l2):
                    if sum(m) > 4:
                        continue
                    if gkmodel.sigma_hat(gkmodel.b_monomial(m)) != gkmodel.b_monomial(
                        crystal.sigma_outer(m)
                    ):
                        return {"m": str(m)}
        return None

    def embedding():
        mismatches = gkmodel.embed_module(1, 1)
        if mismatches:
            return mismatches[0]
        return None

    def product_support():
        basis11 = {mono for m in crystal.enumerate_component(1, 1)
                   for mono in gkmodel.b_monomial(m)}
        for ma in crystal.enumerate_component(1, 0):
            for mb in crystal.enumerate_component(0, 1):
                prod = gkmodel.multiply(gkmodel.b_monomial(ma), gkmodel.b_monomial(mb))
                for mono in prod:
                    if mono not in basis11:
                        return {"a": str(ma), "b": str(mb),
                                "monomial": gkmodel.monomial_str(mono)}
        return None

    def operator_relations():
        for k in range(200):
            x = rnd_monomial(4)
            fail = commutator_failure(gkmodel.act_divided, x)
            if fail:
                return {"iteration": k, "relation": "[E,F]", **fail}
            fail = serre_failure(gkmodel.act_divided, x)
            if fail:
                return {"iteration": k, "relation": "serre", **fail}
        return None

    _run(checks, "confluence", "normal form independent of reduction order", confluence)
    _run(checks, "associativity", "straightened product is associative", associativity)
    _run(checks, "anti-homomorphism", "twist reverses products", anti_homomorphism)
    _run(checks, "twist-involution", "twist squares to the identity and flips the grading",
         involution_and_grading)
    _run(checks, "basis-compatibility", "twist permutes the distinguished basis",
         basis_compatibility)
    _run(checks, "module-embedding", "generator action matches the symbolic module",
         embedding)
    _run(checks, "product-of-components", "component products land in the sum component",
         product_support)
    _run(checks, "operator-relations", "[E,F] and Serre hold for the derivation action",
         operator_relations)
    return checks


SUITES = {
    "qarith": qarith_suite,
    "coxeter": coxeter_suite,
    "crystal": crystal_suite,
    "module": lambda seed: module_suite(),
    "gk": gk_suite,
}


def _family(task: tuple[str, int]) -> list[dict]:
    """The records of one family of `run_suite("all", seed)`, named `key:check`.
    Only the key and the seed cross to a worker process."""
    key, seed = task
    return [dict(rec, name=f"{key}:{rec['name']}") for rec in SUITES[key](seed)]


def run_suite(name: str, seed: int = 1, jobs: int = 1) -> list[dict]:
    """The records of one named suite, or of every family in `SUITES` order for
    `all`.  `all` runs its families on up to `jobs` worker processes, and its
    records do not depend on `jobs`; a single suite runs in this process."""
    if name == "all":
        families = pool_map(_family, [(key, seed) for key in SUITES], jobs)
        return [rec for records in families for rec in records]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name](seed)
