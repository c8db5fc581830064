"""Rank-2 crystal combinatorics on six-entry patterns.

The ambient set consists of integer 6-tuples (m1, m2, m12, m21, m01, m02)
with m1, m2 >= 0 and m1*m2 = 0; the crystal proper is the subset with all
entries nonnegative.  String operators e_i^r, the outer involution, the
per-index involutions and a bijection onto Gelfand-Tsetlin-style arrays all
act on the ambient set and preserve the component indices

    l1 = m01 + m1 + m21,    l2 = m02 + m2 + m12.

A Pattern is a validated tuple of its six entries: it hashes as that tuple
but equals only another Pattern.  A crystal pattern is also the exponent
vector of a normal-ordered monomial of the model algebra, and gkmodel keys
its elements by Pattern.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter

from .coxeter import parse_int

_new = tuple.__new__


class _Entries(tuple):
    """An immutable integer tuple with named `_fields`; it hashes as the tuple
    but equals only its own type, never a plain tuple or another _Entries type."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not (type(other) is type(self) and tuple.__eq__(self, other))

    __hash__ = tuple.__hash__

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map('{}={}'.format, self._fields, self))})"


class Pattern(_Entries):
    """Validated on construction; the operators below build their results,
    which are valid by construction, with `_new`."""

    __slots__ = ()
    _fields = ("m1", "m2", "m12", "m21", "m01", "m02")
    m1, m2, m12, m21, m01, m02 = (property(itemgetter(k)) for k in range(6))

    def __new__(cls, m1: int, m2: int, m12: int, m21: int, m01: int, m02: int):
        self = _new(cls, (m1, m2, m12, m21, m01, m02))
        if m1 < 0 or m2 < 0:
            raise ValueError(f"m1, m2 must be nonnegative: {self}")
        if m1 and m2:
            raise ValueError(f"m1*m2 must vanish: {self}")
        return self

    @property
    def in_crystal(self) -> bool:
        """All six entries nonnegative."""
        return min(self[2:]) >= 0

    @property
    def l1(self) -> int:
        return self[4] + self[0] + self[3]

    @property
    def l2(self) -> int:
        return self[5] + self[1] + self[2]

    def __str__(self):
        return ",".join(map(str, self))

    @staticmethod
    def parse(text: str) -> "Pattern":
        parts = [parse_int(x) for x in text.split(",")]
        if len(parts) != 6 or None in parts:
            raise ValueError(f"expected six comma-separated integers, got {text!r}")
        return Pattern(*parts)


class GTArray(_Entries):
    __slots__ = ()
    _fields = ("a1", "a2", "a3", "l1", "l2")
    a1, a2, a3, l1, l2 = (property(itemgetter(k)) for k in range(5))

    def __new__(cls, a1: int, a2: int, a3: int, l1: int, l2: int):
        return _new(cls, (a1, a2, a3, l1, l2))


#: Offsets along which the change-of-basis corrections move, one per index.
STRING_SHIFT = {1: (0, 0, -1, 1, -1, 1), 2: (0, 0, 1, -1, 1, -1)}


def shift(m: Pattern, i: int, t: int) -> Pattern:
    """Translate by t times the index-i string shift (stays in the ambient set)."""
    return _new(Pattern, [x + t * d for x, d in zip(m, STRING_SHIFT[i])])


def wt(i: int, m: Pattern) -> int:
    """The i-weight m_{0i} - m_i + m_j - m_{ij}."""
    if i == 1:
        return m[4] - m[0] + m[1] - m[2]
    if i == 2:
        return m[5] - m[1] + m[0] - m[3]
    raise ValueError(f"index must be 1 or 2, got {i}")


def weight_pair(m: Pattern) -> tuple[int, int]:
    return wt(1, m), wt(2, m)


def e_pow(i: int, r: int, m: Pattern) -> Pattern:
    """The string operator e_i^r on the ambient set; e_i^0 is the identity.
    With x = m_i - m_j - r, (m_i, m_j) become (max(x, 0), max(-x, 0)), and m_ij
    and m_0i - r gain min(m_i - r, m_j), which is m_j exactly when x >= 0."""
    m1, m2, m12, m21, m01, m02 = m
    if i == 1:
        x = m1 - m2 - r
        if x >= 0:
            return _new(Pattern, (x, 0, m12 + m2, m21, m01 + r + m2, m02))
        return _new(Pattern, (0, -x, m12 + m1 - r, m21, m01 + m1, m02))
    if i == 2:
        x = m2 - m1 - r
        if x >= 0:
            return _new(Pattern, (0, x, m12, m21 + m1, m01, m02 + r + m1))
        return _new(Pattern, (-x, 0, m12, m21 + m2 - r, m01, m02 + m2))
    raise ValueError(f"index must be 1 or 2, got {i}")


def sigma_outer(m: Pattern) -> Pattern:
    """(m1, m2, m12, m21, m01, m02) -> (m1, m2, m02, m01, m21, m12)."""
    return _new(Pattern, (m[0], m[1], m[5], m[4], m[3], m[2]))


def sigma_i(i: int, m: Pattern) -> Pattern:
    """The involution e_i^{-wt_i(m)}; negates the i-weight."""
    return e_pow(i, -wt(i, m), m)


def khat(m: Pattern) -> GTArray:
    m1, m2, m12, m21, m01, m02 = m
    return GTArray(m1 + m21, m2 + m12 + m21, m12, m01 + m1 + m21, m02 + m2 + m12)


def khat_inv(g: GTArray) -> Pattern:
    m1 = max(g.a1 + g.a3 - g.a2, 0)
    m2 = max(g.a2 - g.a1 - g.a3, 0)
    m12 = g.a3
    m21 = min(g.a1, g.a2 - g.a3)
    m01 = g.l1 - g.a1
    m02 = g.l2 - g.a2 + m21
    try:
        m = Pattern(m1, m2, m12, m21, m01, m02)
    except ValueError as exc:
        raise ValueError(f"{g} is not in the image of the pattern bijection") from exc
    if khat(m) != g:
        raise ValueError(f"{g} is not in the image of the pattern bijection")
    return m


def enumerate_component(l1: int, l2: int) -> list[Pattern]:
    """All crystal patterns with the given component indices, sorted
    lexicographically on (m1, m2, m12, m21, m01, m02).

    This order is the basis order used by every operator matrix downstream.
    """
    if l1 < 0 or l2 < 0:
        raise ValueError("component indices must be nonnegative")
    out = []
    for m1 in range(l1 + 1):
        for m21 in range(l1 - m1 + 1):
            m01 = l1 - m1 - m21
            m2_top = 0 if m1 > 0 else l2
            for m2 in range(m2_top + 1):
                for m12 in range(l2 - m2 + 1):
                    m02 = l2 - m2 - m12
                    out.append(_new(Pattern, (m1, m2, m12, m21, m01, m02)))
    out.sort()
    return out


def parse_ops(text: str) -> list:
    """The operators of a comma-separated list, in the order they apply:
    right to left.

    Tokens: "sigma", "sigma1", "sigma2", "e1^r", "e2^r" (r any integer),
    "e1", "e2".  Raises ValueError on any other token, or if there is none.
    """
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValueError("no operators given")
    ops = []
    for token in reversed(tokens):
        if token == "sigma":
            ops.append(sigma_outer)
        elif token in ("sigma1", "sigma2"):
            ops.append(partial(sigma_i, int(token[-1])))
        elif token.startswith(("e1^", "e2^")):
            r = parse_int(token[3:])
            if r is None:
                raise ValueError(f"non-integer power in operator token {token!r}")
            ops.append(partial(e_pow, int(token[1]), r))
        elif token in ("e1", "e2"):
            ops.append(partial(e_pow, int(token[1]), 1))
        else:
            raise ValueError(f"unknown operator token {token!r}")
    return ops
