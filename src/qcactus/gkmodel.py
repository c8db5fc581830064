"""The rank-2 model algebra on six generators with a straightening rewriter.

Monomials are normal-ordered words z1 < z2 < z12 < z21 < v1 < v2, and an
element is a ModuleVector keyed by the crystal.Pattern of each monomial's
exponents (m1, m2, m12, m21, m01, m02): they are nonnegative and m1*m2 = 0,
so the distinguished basis monomial of a crystal pattern has that pattern as
its key.  The defining relations, oriented toward that order, terminate
(each step either reduces inversions or removes a mixed z1/z2 pair) and are
confluent on the span.  The raising/lowering operators act as
half-weight-twisted derivations determined by their values on generators,
and the quantum-twist anti-involution acts by reversing words and swapping
v's with the opposite composite z's.
"""

from __future__ import annotations

import re

from . import repmodule
from .crystal import Pattern, weight_pair, wt
from .repmodule import ModuleVector
from .qarith import RatFunc, q_factorial

Z1, Z2, Z12, Z21, V1, V2 = range(6)
GEN_NAMES = ("z1", "z2", "z12", "z21", "v1", "v2")

#: weight of each generator in fundamental coordinates
GEN_WEIGHT = {
    Z1: (-1, 1),
    Z2: (1, -1),
    Z12: (-1, 0),
    Z21: (0, -1),
    V1: (1, 0),
    V2: (0, 1),
}

_Q = RatFunc.monomial(2)
_QINV = RatFunc.monomial(-2)
_ONE = RatFunc.one()

#: adjacent-pair rewrite rules g,h -> sum of coeff * word
_RULES: dict[tuple[int, int], tuple[tuple[RatFunc, tuple[int, ...]], ...]] = {
    (Z1, Z2): ((_Q, (V1, Z12)), (_QINV, (Z21, V2))),
    (Z2, Z1): ((_Q, (V2, Z21)), (_QINV, (Z12, V1))),
    (Z12, Z1): ((_ONE, (Z1, Z12)),),
    (Z12, Z2): ((_Q, (Z2, Z12)),),
    (Z21, Z1): ((_Q, (Z1, Z21)),),
    (Z21, Z2): ((_ONE, (Z2, Z21)),),
    (Z21, Z12): ((_ONE, (Z12, Z21)),),
    (V1, Z1): ((_QINV, (Z1, V1)),),
    (V1, Z2): ((_ONE, (Z2, V1)),),
    (V1, Z12): ((_QINV, (Z12, V1)),),
    (V1, Z21): ((_QINV, (Z21, V1)),),
    (V2, Z1): ((_ONE, (Z1, V2)),),
    (V2, Z2): ((_QINV, (Z2, V2)),),
    (V2, Z12): ((_QINV, (Z12, V2)),),
    (V2, Z21): ((_QINV, (Z21, V2)),),
    (V2, V1): ((_ONE, (V1, V2)),),
}

REWRITE_BUDGET = 1_000_000
#: largest divided-power exponent compared by embed_module
EMBED_RMAX = 2


def word(m: Pattern) -> tuple[int, ...]:
    """The normal-ordered word z1^m1 z2^m2 z12^m12 z21^m21 v1^m01 v2^m02 of
    a monomial's exponent pattern."""
    return tuple(g for g, mult in enumerate(m) for _ in range(mult))


def monomial_str(m: Pattern) -> str:
    """The monomial as a product of powers of generators, "1" for the unit."""
    return "*".join(GEN_NAMES[g] + (f"^{mult}" if mult > 1 else "")
                    for g, mult in enumerate(m) if mult) or "1"


def weight(x: ModuleVector) -> tuple[int, int]:
    """Common weight of a homogeneous element; raises if mixed."""
    weights = set(map(weight_pair, x))
    if len(weights) != 1:
        raise ValueError("element is not weight-homogeneous")
    return weights.pop()


def to_json(x: ModuleVector) -> list:
    return [
        {"monomial": list(m), "coeff": c.to_json()}
        for m, c in sorted(x.items(), key=lambda kv: kv[0])
    ]


class RewriteBudgetExhausted(RuntimeError):
    """A straightening needs more than REWRITE_BUDGET rewriting steps."""


def normal_form(
    words: list[tuple[RatFunc, tuple[int, ...]]], strategy: str = "leftmost"
) -> ModuleVector:
    """Rewrite a combination of words into normal-ordered monomials.

    `strategy` picks which reducible adjacent pair fires first ("leftmost" or
    "rightmost"); past REWRITE_BUDGET steps it raises RewriteBudgetExhausted.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    work = list(words)
    fuel = REWRITE_BUDGET
    done = ModuleVector()
    while work:
        coeff, word = work.pop()
        if coeff.is_zero():
            continue
        positions = range(len(word) - 1)
        if strategy == "rightmost":
            positions = reversed(positions)
        hit = None
        for p in positions:
            rule = _RULES.get((word[p], word[p + 1]))
            if rule is not None:
                hit = (p, rule)
                break
        if hit is None:
            # an irreducible word is sorted with no z1 z2 pair: a valid Pattern
            done.add(Pattern(*map(word.count, range(6))), coeff)
            continue
        fuel -= 1
        if fuel < 0:
            raise RewriteBudgetExhausted(f"rewriting budget of {REWRITE_BUDGET:,} steps exhausted")
        p, rule = hit
        head, tail = word[:p], word[p + 2:]
        for rc, repl in rule:
            work.append((coeff * rc, head + repl + tail))
    return done


def multiply(a: ModuleVector, b: ModuleVector) -> ModuleVector:
    """Concatenate monomial words and straighten."""
    return normal_form([(ca * cb, word(ma) + word(mb))
                        for ma, ca in a.items() for mb, cb in b.items()])


# -- the module-algebra action ---------------------------------------------------


#: generator images under E_k and F_k; missing entries act as zero
_E_TABLE = {
    (1, Z1): V1,
    (2, Z2): V2,
    (1, Z12): Z2,
    (2, Z21): Z1,
}
_F_TABLE = {
    (1, V1): Z1,
    (2, V2): Z2,
    (2, Z1): Z21,
    (1, Z2): Z12,
}


def act_gen(k: int, kind: str, x: ModuleVector) -> ModuleVector:
    """E_k or F_k as a half-weight-twisted derivation."""
    if k not in (1, 2):
        raise ValueError(f"index must be 1 or 2, got {k}")
    table = _E_TABLE if kind == "E" else _F_TABLE if kind == "F" else None
    if table is None:
        raise ValueError(f"kind must be 'E' or 'F', got {kind!r}")
    words = []
    for mono, coeff in x.items():
        letters = word(mono)
        pre = 0  # (alpha_k, weight of the prefix), weights in fundamental coordinates
        total = wt(k, mono)
        for t, g in enumerate(letters):
            g_pair = GEN_WEIGHT[g][k - 1]
            image = table.get((k, g))
            if image is not None:
                post = total - pre - g_pair
                exp = post - pre
                new_word = letters[:t] + (image,) + letters[t + 1:]
                words.append((coeff * RatFunc.monomial(exp), new_word))
            pre += g_pair
    return normal_form(words) if words else ModuleVector()


def act_divided(k: int, kind: str, r: int, x: ModuleVector) -> ModuleVector:
    """Divided power: r-fold action divided by the q_k-factorial."""
    if r < 0:
        raise ValueError("divided-power exponent must be nonnegative")
    for _ in range(r):
        x = act_gen(k, kind, x)
    if r > 1:
        x = x.scale(RatFunc.of_poly(q_factorial(r).compose_monomial(2)).inverse())
    return x


# -- distinguished basis and the anti-involution ------------------------------------


def b_monomial(m: Pattern) -> ModuleVector:
    """The scalar-normalized basis monomial for a crystal pattern; zero off
    the crystal."""
    if not m.in_crystal:
        return ModuleVector()
    exp = (
        m.m1 * (m.m21 - m.m01)
        + m.m2 * (m.m12 - m.m02)
        - (m.m12 + m.m21) * (m.m01 + m.m02)
    )
    return ModuleVector({m: RatFunc.monomial(exp)})


_TWIST = {V1: Z21, V2: Z12, Z1: Z1, Z2: Z2, Z12: V2, Z21: V1}


def sigma_hat(x: ModuleVector) -> ModuleVector:
    """The anti-involution: reverse each word and map generators through
    v_i -> z_{ji}, z_i -> z_i, z_{ij} -> v_j."""
    words = []
    for mono, coeff in x.items():
        twisted = tuple(_TWIST[g] for g in reversed(word(mono)))
        words.append((coeff, twisted))
    return normal_form(words)


def embed_module(l1: int, l2: int) -> list[dict]:
    """Cross-validate the generator action against the symbolic module:
    divided powers on basis monomials must reproduce the pattern-basis
    coefficients exactly.  Returns a witness list (empty = agreement)."""
    mod = repmodule.ModuleVLambda(l1, l2)
    mismatches = []
    for m in mod.basis:
        for i in (1, 2):
            for kind in ("E", "F"):
                for r in range(1, EMBED_RMAX + 1):
                    gk = act_divided(i, kind, r, b_monomial(m))
                    sym = repmodule.act_divided(i, kind, r, mod.basis_vector(m))
                    expected = ModuleVector()
                    for target, coeff in sym.items():
                        expected = expected + b_monomial(target).scale(coeff)
                    if gk != expected:
                        mismatches.append(
                            {
                                "pattern": str(m),
                                "i": i,
                                "kind": kind,
                                "r": r,
                                "model": str(gk),
                                "module": str(expected),
                            }
                        )
    return mismatches


# -- expression parsing for the CLI ---------------------------------------------------


_FACTOR = re.compile(
    r"\s*(?P<star>\*\s*)?(?:q\^\{(?P<snum>-?\d+)(?P<shalf>/2)?\}|(?P<int>(?P<neg>-)?\d+)"
    r"|(?P<gen>z12|z21|z1|z2|v1|v2)(?!\d)(?:\s*\^\s*(?P<power>-?\d+))?)\s*",
    re.ASCII,
)


def parse_expr(text: str) -> ModuleVector:
    """Parse a product of factors q^{k}, q^{k/2}, integers and generators with
    optional powers g^n, joined by '*' or juxtaposed; a negative integer after
    a factor needs the '*', and a digit right after a generator name is an
    error ('z12' is a generator, 'z1 2' and 'z1*2' are 2·z1, 'z123' and 'v12'
    do not parse).  The product may have at most REWRITE_BUDGET letters."""
    coeff = RatFunc.one()
    runs = []  # (generator, power) in order
    pos = 0
    while pos == 0 or pos < len(text):  # the empty text fails its one step
        m = _FACTOR.match(text, pos)
        # '*' stands between two factors; a negative integer after a factor needs it
        if m is None or (m["star"] if pos == 0 else m["neg"] and not m["star"]):
            raise ValueError(f"cannot parse {text[pos:]!r}")
        if m["gen"]:
            power = int(m["power"] or 1)
            if power < 0:
                raise ValueError("generator powers must be nonnegative")
            runs.append((GEN_NAMES.index(m["gen"]), power))
        elif m["int"]:
            coeff = coeff * RatFunc.scalar(int(m["int"]))
        else:
            num = int(m["snum"])
            coeff = coeff * RatFunc.monomial(num if m["shalf"] else 2 * num)
        pos = m.end()
    length = sum(power for _, power in runs)
    if length > REWRITE_BUDGET:
        raise ValueError(f"expression has {length:,} letters; at most {REWRITE_BUDGET:,} allowed")
    word = tuple(g for g, power in runs for _ in range(power))
    try:
        return normal_form([(coeff, word)])
    except RewriteBudgetExhausted as exc:
        raise ValueError(str(exc)) from None
