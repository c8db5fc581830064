"""Rank-2 crystal combinatorics on six-entry patterns.

The ambient set consists of integer 6-tuples (m1, m2, m12, m21, m01, m02)
with m1, m2 >= 0 and m1*m2 = 0; the crystal proper is the subset with all
entries nonnegative.  String operators e_i^r, the outer involution, the
per-index involutions and a bijection onto Gelfand-Tsetlin-style arrays all
act on the ambient set and preserve the component indices

    l1 = m01 + m1 + m21,    l2 = m02 + m2 + m12.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial


@dataclass(frozen=True, slots=True)
class Pattern:
    m1: int
    m2: int
    m12: int
    m21: int
    m01: int
    m02: int

    def __post_init__(self):
        if self.m1 < 0 or self.m2 < 0:
            raise ValueError(f"m1, m2 must be nonnegative: {self}")
        if self.m1 and self.m2:
            raise ValueError(f"m1*m2 must vanish: {self}")

    @property
    def in_crystal(self) -> bool:
        """All six entries nonnegative."""
        return min(self.m12, self.m21, self.m01, self.m02) >= 0

    @property
    def l1(self) -> int:
        return self.m01 + self.m1 + self.m21

    @property
    def l2(self) -> int:
        return self.m02 + self.m2 + self.m12

    def entries(self) -> tuple[int, int, int, int, int, int]:
        return (self.m1, self.m2, self.m12, self.m21, self.m01, self.m02)

    def __str__(self):
        return ",".join(str(x) for x in self.entries())

    @staticmethod
    def parse(text: str) -> "Pattern":
        parts = [int(x) for x in text.split(",")]
        if len(parts) != 6:
            raise ValueError(f"expected six comma-separated integers, got {text!r}")
        return Pattern(*parts)


@dataclass(frozen=True, slots=True)
class GTArray:
    a1: int
    a2: int
    a3: int
    l1: int
    l2: int


#: Offsets along which the change-of-basis corrections move, one per index.
STRING_SHIFT = {1: (0, 0, -1, 1, -1, 1), 2: (0, 0, 1, -1, 1, -1)}


def shift(m: Pattern, i: int, t: int) -> Pattern:
    """Translate by t times the index-i string shift (stays in the ambient set)."""
    v = STRING_SHIFT[i]
    e = m.entries()
    return Pattern(*(e[k] + t * v[k] for k in range(6)))


def wt(i: int, m: Pattern) -> int:
    """The i-weight m_{0i} - m_i + m_j - m_{ij}."""
    e = m.entries()
    if i == 1:
        return e[4] - e[0] + e[1] - e[2]
    if i == 2:
        return e[5] - e[1] + e[0] - e[3]
    raise ValueError(f"index must be 1 or 2, got {i}")


def weight_pair(m: Pattern) -> tuple[int, int]:
    return wt(1, m), wt(2, m)


def e_pow(i: int, r: int, m: Pattern) -> Pattern:
    """The string operator e_i^r on the ambient set; e_i^0 is the identity."""
    if i not in (1, 2):
        raise ValueError(f"index must be 1 or 2, got {i}")
    mi = m.m1 if i == 1 else m.m2
    mj = m.m2 if i == 1 else m.m1
    new_i = max(mi - mj - r, 0)
    new_j = max(mj - mi + r, 0)
    corr = min(mi - r, mj)
    if i == 1:
        return Pattern(
            new_i, new_j, m.m12 + corr, m.m21, m.m01 + r + corr, m.m02
        )
    return Pattern(
        new_j, new_i, m.m12, m.m21 + corr, m.m01, m.m02 + r + corr
    )


def sigma_outer(m: Pattern) -> Pattern:
    """(m1, m2, m12, m21, m01, m02) -> (m1, m2, m02, m01, m21, m12)."""
    return Pattern(m.m1, m.m2, m.m02, m.m01, m.m21, m.m12)


def sigma_i(i: int, m: Pattern) -> Pattern:
    """The involution e_i^{-wt_i(m)}; negates the i-weight."""
    return e_pow(i, -wt(i, m), m)


def khat(m: Pattern) -> GTArray:
    a1 = m.m1 + m.m21
    a2 = m.m2 + m.m12 + m.m21
    a3 = m.m12
    return GTArray(a1, a2, a3, m.l1, m.l2)


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
                    out.append(Pattern(m1, m2, m12, m21, m01, m02))
    out.sort(key=Pattern.entries)
    return out


def parse_ops(text: str) -> list:
    """The operators of a comma-separated list, in the order they apply:
    right to left.

    Tokens: "sigma", "sigma1", "sigma2", "e1^r", "e2^r" (r any integer),
    "e1", "e2".  Raises ValueError on any other token.
    """
    ops = []
    for token in reversed([t.strip() for t in text.split(",") if t.strip()]):
        if token == "sigma":
            ops.append(sigma_outer)
        elif token in ("sigma1", "sigma2"):
            ops.append(partial(sigma_i, int(token[-1])))
        elif token.startswith(("e1^", "e2^")):
            ops.append(partial(e_pow, int(token[1]), int(token[3:])))
        elif token in ("e1", "e2"):
            ops.append(partial(e_pow, int(token[1]), 1))
        else:
            raise ValueError(f"unknown operator token {token!r}")
    return ops


def apply_ops(m: Pattern, ops: str) -> Pattern:
    """Apply a comma-separated operator list right to left; see parse_ops."""
    for op in parse_ops(ops):
        m = op(m)
    return m
