"""The seeded property suites: exact arithmetic, Coxeter groups, crystal
combinatorics, the symbolic modules of degree at most 4 and the model algebra.

Each suite returns check records as `suites` describes them, through its one
check runner `suites._run`.  Only the `suite` command runs them, so only it
imports this module (and through it `gkmodel`); the module commands import
`suites` alone.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import cartan, coxeter, crystal, gkmodel, linalg, repmodule, suites
from .crystal import Pattern
from .qarith import LaurentPoly, RatFunc, kash_coeff, kash_coeff_underline, q_binomial

COXETER_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "G2", "A1xA1", "A1xA2")
#: random triples per field-axiom run; largest string length of the coefficient laws
FIELD_SAMPLES = 80
MAX_STRING_LENGTH = 12
#: random patterns per crystal identity; random words or monomials per model-algebra law
CRYSTAL_SAMPLES = 10_000
GK_WORDS = 1000


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

    suites._run(checks, "field-axioms",
                "RatFunc is a field, symbolically and at 20 rational points", field_axioms)
    suites._run(checks, "binomial-symmetry", "[n choose k] = [n choose n-k]", binomial_symmetry)
    suites._run(checks, "pascal", "[n,k] = v^(n-k)[n-1,k-1] + v^(-k)[n-1,k]", pascal)
    suites._run(checks, "underline-symmetry", "c(l,k,s) = c(l,l-k,-s) after division normalization",
                underline_symmetry)
    suites._run(checks, "composition-law", "c(l,k,s+t) = c(l,k,s) c(l,k-s,t) for st >= 0",
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

    suites._run(checks, "kernel-agreement", "coset-action kernel: formula = brute force, all J",
                kernels)
    suites._run(checks, "parabolic-intersections", "W_J intersect W_K = W_(J cap K)", intersections)
    suites._run(checks, "closed-factorization", "closed J: W = W_J x W_(J perp), uniquely",
                factorization)
    suites._run(checks, "reduced-words", "reduced_word has length l(w) and reassembles to w",
                reduced_words)
    suites._run(checks, "star-involution", "j -> j* is an involution preserving the orders m",
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
    lam_rho = (l1 + 1, l2 + 1)
    rho = d.rho()
    num = den = Fraction(1)
    for root in d.positive_roots:
        alpha = (0, 0)
        for j, c in enumerate(root, start=1):
            alpha = cartan.shift(alpha, d.simple_root(j), c)
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

    suites._run(checks, "string-operators",
                "e_i^r e_i^s = e_i^(r+s); the Verma relation; components preserved",
                operator_identities)
    suites._run(checks, "involutions",
                "involutivity, conjugation of e_i^r, braid and mixed relations",
                involution_identities)
    suites._run(checks, "array-bijection", "pattern <-> array roundtrip", bijection_roundtrip)
    suites._run(checks, "component-count",
                "|component(l1,l2)| = (l1+1)(l2+1)(l1+l2+2)/2, against the Weyl formula",
                component_count)
    suites._run(checks, "zero-weight-count",
                "zero-weight multiplicity min(l1,l2)+1 when l1 = l2 mod 3, else 0",
                zero_weight_count)
    return checks


# -- the symbolic modules ----------------------------------------------------------------


def module_suite() -> list[dict]:
    """Every module with l1 + l2 <= 4, each built once: the quantum relations on
    each, named `relations(l1,l2):check`, then the sigma checks over all of them
    and the weight, crystal and extremal-vector checks."""
    modules = {lam: repmodule.ModuleVLambda(*lam) for lam in suites.lambdas(4)}
    checks = [dict(rec, name=f"relations({l1},{l2}):{rec['name']}")
              for (l1, l2), mod in modules.items() for rec in suites.relations_checks(mod)]
    checks += suites.sigma_checks(modules.values())

    def weight_bookkeeping():
        for (l1, l2), mod in modules.items():
            d = mod.datum
            for m in mod.basis:
                b = mod.basis_vector(m)
                beta = mod.weight_of(m)
                for i in (1, 2):
                    img = repmodule.act_divided(i, "E", 1, b)
                    target = cartan.shift(beta, d.simple_root(i))
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
            for w in d.elements():
                word = coxeter.reduced_word(w)
                exps = cartan.extremal_exponents(d, word, lam)
                total = (0, 0)
                for i, a in zip(word, exps):
                    total = cartan.shift(total, d.simple_root(i), a)
                if total != cartan.shift(lam, cartan.weyl_act(d, w, lam), -1):
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

    suites._skip(checks, "orthogonal-union",
                 "sigma^(J u J') = sigma^J sigma^J' for orthogonal J, J'",
                 "vacuous in rank 2: no orthogonal pair of nonempty subsets")
    suites._run(checks, "weight-bookkeeping",
                "E_i raises weight by alpha_i; T_i maps the beta space to s_i(beta)",
                weight_bookkeeping)
    suites._run(checks, "crystal-shadow",
                "N columns specialize at v=0 to the crystal involution",
                crystal_shadow)
    suites._run(checks, "extremal-vectors",
                "reduced-word independence, sigma translation, linear independence",
                extremal_checks)
    suites._run(checks, "T-extremal",
                "T_w on extremal vectors with additive lengths gains the half-weight power",
                extremal_T)
    suites._run(checks, "degree-bookkeeping", "sum a_k alpha_(i_k) = lambda - w lambda",
                degree_bookkeeping)
    suites._run(checks, "operator-word-independence",
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


# -- the model algebra -----------------------------------------------------------------


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
            fail = suites.commutator_failure(gkmodel.act_divided, x)
            if fail:
                return {"iteration": k, "relation": "[E,F]", **fail}
            fail = suites.serre_failure(gkmodel.act_divided, x)
            if fail:
                return {"iteration": k, "relation": "serre", **fail}
        return None

    suites._run(checks, "confluence", "normal form independent of reduction order", confluence)
    suites._run(checks, "associativity", "straightened product is associative", associativity)
    suites._run(checks, "anti-homomorphism", "twist reverses products", anti_homomorphism)
    suites._run(checks, "twist-involution", "twist squares to the identity and flips the grading",
                involution_and_grading)
    suites._run(checks, "basis-compatibility", "twist permutes the distinguished basis",
                basis_compatibility)
    suites._run(checks, "module-embedding", "generator action matches the symbolic module",
                embedding)
    suites._run(checks, "product-of-components", "component products land in the sum component",
                product_support)
    suites._run(checks, "operator-relations", "[E,F] and Serre hold for the derivation action",
                operator_relations)
    return checks


#: each suite by its name in `suites.SUITE_NAMES`, in that order
SUITES = dict(zip(suites.SUITE_NAMES, (qarith_suite, coxeter_suite, crystal_suite,
                                       lambda seed: module_suite(), gk_suite)))
