"""Finite Coxeter groups through their action on a crystallographic root system.

An element is the permutation it induces on the roots, so a product is a
gather, equality is structural and the length function is a count of
positive roots sent negative.  Only finite crystallographic types (and
products of them) are supported; construction fails loudly on a matrix that
is not an integer generalized Cartan matrix, or if the roots or the
enumeration exceed their caps.
"""

from __future__ import annotations

import re
from operator import index


DEFAULT_CAP = 10_000
MAX_ROOTS = 255


def integers(values) -> tuple[int, ...]:
    """`values` as ints; ValueError on an entry without `__index__`, as 1.5."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(f"expected integer entries, got {values!r}") from None


def parse_int(text: str) -> int | None:
    """`text` as an int if it is an optional sign and ASCII digits, with
    surrounding whitespace, else None; int() also reads underscores and
    non-ASCII digits."""
    return int(text) if re.fullmatch(r"\s*[+-]?\d+\s*", text, re.ASCII) else None


# Cartan matrices of the supported irreducible types, a[i][j] = alpha_j(alpha_i^vee).
def _cartan_A(n):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]


def _cartan_B(n):
    a = _cartan_A(n)
    a[n - 1][n - 2] = -2
    return a


def _cartan_G2():
    return [[2, -1], [-3, 2]]


_TYPE_BUILDERS = {
    "A1": lambda: _cartan_A(1),
    "A2": lambda: _cartan_A(2),
    "A3": lambda: _cartan_A(3),
    "A4": lambda: _cartan_A(4),
    "B2": lambda: _cartan_B(2),
    "B3": lambda: _cartan_B(3),
    "G2": _cartan_G2,
}


def cartan_matrix_of_type(name: str) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix for a type string like "A2" or a product "A1xA2"."""
    blocks = []
    for part in name.split("x"):
        part = part.strip()
        if part not in _TYPE_BUILDERS:
            raise ValueError(f"unknown type {part!r} in {name!r}; known: {sorted(_TYPE_BUILDERS)}")
        blocks.append(_TYPE_BUILDERS[part]())
    n = sum(len(b) for b in blocks)
    a = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                a[off + i][off + j] = x
        off += len(b)
    return tuple(tuple(row) for row in a)


def _orders_from_cartan(a) -> tuple[tuple[int, ...], ...]:
    """The orders m_ij; ValueError unless `a` is a generalized Cartan matrix
    whose every pair a_ij a_ji is below 4."""
    n = len(a)
    m = [[1] * n for _ in range(n)]
    table = {0: 2, 1: 3, 2: 4, 3: 6}
    for i in range(n):
        if a[i][i] != 2:
            raise ValueError("diagonal Cartan entries must be 2")
        for j in range(n):
            if i != j:
                if a[i][j] > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (a[i][j] == 0) != (a[j][i] == 0):
                    raise ValueError("zero pattern must be symmetric")
                prod = a[i][j] * a[j][i]
                if prod not in table:
                    raise ValueError("Cartan matrix is not of finite type")
                m[i][j] = table[prod]
    return tuple(tuple(row) for row in m)


def _reflect(a, i: int, root: tuple[int, ...]) -> tuple[int, ...]:
    """s_i on simple-root coordinates: s_i(alpha_j) = alpha_j - a_ij alpha_i."""
    return root[:i] + (root[i] - sum(x * y for x, y in zip(a[i], root)),) + root[i + 1:]


def _close_roots(a) -> tuple[tuple[int, ...], ...]:
    """The positive roots, sorted: the orbit of the simple roots under the
    reflections.  Elements are byte permutations, so at most MAX_ROOTS roots."""
    n = len(a)
    simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(simple)
    queue = list(simple)
    while queue:
        root = queue.pop()
        for i in range(n):
            img = _reflect(a, i, root)
            if img not in seen:
                seen.add(img)
                queue.append(img)
        if len(seen) > MAX_ROOTS:
            raise ValueError(f"more than {MAX_ROOTS} roots; group too large or not finite")
    return tuple(sorted(r for r in seen if all(x >= 0 for x in r)))


class GroupElement:
    """A group element as the permutation it induces on the roots.

    perm[k] is the index in datum.roots of w(root_k).  The roots span the
    lattice, so the permutation determines w; equality and hash compare it.
    Immutable: assigning or deleting a slot after `__init__` raises.
    """

    __slots__ = ("perm", "datum")

    def __init__(self, perm: bytes, datum: "CoxeterDatum"):
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "datum", datum)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.perm == other.perm

    def __hash__(self):
        return hash((self.perm,))

    def __repr__(self):
        return f"GroupElement(perm={self.perm!r})"

    def __reduce__(self):
        return GroupElement, (self.perm, self.datum)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        # self acts after other
        return GroupElement(bytes(map(self.perm.__getitem__, other.perm)), self.datum)

    def inverse(self) -> "GroupElement":
        p = self.perm
        return GroupElement(bytes(sorted(range(len(p)), key=p.__getitem__)), self.datum)


class CoxeterDatum:
    """A finite Coxeter group presented by orders m_ij, realized on the root
    system of a crystallographic Cartan matrix."""

    def __init__(self, cartan):
        self.cartan = tuple(map(integers, cartan))
        n = len(self.cartan)
        if any(len(row) != n for row in self.cartan):
            raise ValueError("Cartan matrix must be square")
        self.n = n
        self.indices = tuple(range(1, n + 1))
        self.m = _orders_from_cartan(self.cartan)
        # root coordinates are read only to number each generator's permutation
        self.positive_roots = _close_roots(self.cartan)
        self.roots = self.positive_roots + tuple(tuple(-x for x in r) for r in self.positive_roots)
        index = {r: k for k, r in enumerate(self.roots)}
        self.identity = GroupElement(bytes(range(len(self.roots))), self)
        self.generators = {
            i + 1: GroupElement(bytes(index[_reflect(self.cartan, i, r)] for r in self.roots), self)
            for i in range(n)
        }
        self._elements = None

    @classmethod
    def from_type(cls, name: str):
        d = cls(cartan_matrix_of_type(name))
        d.type_name = name
        return d

    def elements(self) -> tuple[GroupElement, ...]:
        """All group elements, enumerated once and cached."""
        if self._elements is None:
            self._elements = self.subgroup_elements(self.indices)
        return self._elements

    def subgroup_elements(self, J) -> tuple[GroupElement, ...]:
        """Elements of the standard parabolic subgroup generated by J."""
        J = sorted(set(J))
        for j in J:
            if j not in self.generators:
                raise ValueError(f"unknown generator index {j}")
        seen = {self.identity.perm: self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for w in frontier:
                for j in J:
                    u = self.generators[j] * w
                    if u.perm not in seen:
                        seen[u.perm] = u
                        nxt.append(u)
            if len(seen) > DEFAULT_CAP:
                raise ValueError(f"more than {DEFAULT_CAP} elements; enumeration cap exceeded")
            frontier = nxt
        return tuple(seen.values())


def from_word(d: CoxeterDatum, word) -> GroupElement:
    """Product of simple reflections, left to right."""
    out = d.identity
    for i in word:
        if i not in d.generators:
            raise ValueError(f"unknown generator index {i}")
        out = out * d.generators[i]
    return out


def length(w: GroupElement) -> int:
    """Number of positive roots sent to negative roots."""
    n = len(w.datum.positive_roots)
    return sum(map(n.__le__, w.perm[:n]))


def reduced_word(w: GroupElement) -> tuple[int, ...]:
    """Deterministic reduced word by peeling the smallest left descent."""
    word = []
    d = w.datum
    cur = w
    lw = length(cur)
    while lw > 0:
        for i in range(1, d.n + 1):
            nxt = d.generators[i] * cur
            ln = length(nxt)
            if ln < lw:
                word.append(i)
                cur, lw = nxt, ln
                break
        else:
            raise RuntimeError("no descent found for a non-identity element")
    return tuple(word)


def longest_element(d: CoxeterDatum, J) -> GroupElement:
    """Longest element of the parabolic subgroup W_J, by greedy ascent."""
    J = sorted(set(J))
    w = d.identity
    lw = 0
    progress = True
    while progress:
        progress = False
        for j in J:
            nxt = d.generators[j] * w
            ln = length(nxt)
            if ln > lw:
                w, lw = nxt, ln
                progress = True
                break
        if lw > len(d.positive_roots):
            raise RuntimeError("ascent exceeded the root count; W_J not finite?")
    return w


def star_involution(d: CoxeterDatum, J, j: int) -> int:
    """The index j* in J with s_{j*} = w0(J) s_j w0(J)."""
    J = sorted(set(J))
    if j not in J:
        raise ValueError(f"index {j} not in J={J}")
    w0 = longest_element(d, J)
    conj = w0 * d.generators[j] * w0
    for k in J:
        if conj == d.generators[k]:
            return k
    raise RuntimeError("conjugate of a generator is not a generator of W_J")


def topology(d: CoxeterDatum, J):
    """(closure, boundary, perp) of J in the graph topology where i ~ j
    iff m_ij > 2."""
    J = frozenset(J)
    closure = set(J)
    frontier = list(J)
    while frontier:
        i = frontier.pop()
        for j in d.indices:
            if j not in closure and d.m[i - 1][j - 1] > 2:
                closure.add(j)
                frontier.append(j)
    boundary = frozenset(closure - J)
    perp = frozenset(
        i for i in d.indices if i not in J and all(d.m[i - 1][j - 1] == 2 for j in J)
    )
    return frozenset(closure), boundary, perp


def kernel_parabolic(d: CoxeterDatum, J, mode: str = "formula") -> frozenset:
    """Kernel of the W-action on the coset space W/W_J.

    "formula" mode returns the parabolic subgroup on the complement of the
    closure of I\\J; "bruteforce" enumerates the coset action.
    """
    J = frozenset(J)
    if mode == "formula":
        complement = frozenset(d.indices) - J
        closure, _, _ = topology(d, complement)
        j0 = frozenset(d.indices) - closure
        return frozenset(d.subgroup_elements(j0))
    if mode == "bruteforce":
        perms = [w.perm for w in d.elements()]
        wj = [h.perm for h in d.subgroup_elements(J)]
        # bare perms keep elements out of the hot loop; the least perm in w W_J names it
        coset = {w: min(bytes(map(w.__getitem__, h)) for h in wj) for w in perms}
        return frozenset(
            k for k in d.elements()
            if all(coset[bytes(map(k.perm.__getitem__, w))] == coset[w] for w in perms)
        )
    raise ValueError(f"unknown mode {mode!r}")


def parse_subset(text: str) -> frozenset:
    """Parse a comma-separated index subset like "1,3"; empty means the empty set."""
    text = text.strip()
    if not text:
        return frozenset()
    parts = [parse_int(part) for part in text.split(",")]
    if None in parts:
        raise ValueError(f"expected comma-separated integer indices, got {text!r}")
    repeated = sorted({j for j in parts if parts.count(j) > 1})
    if repeated:
        raise ValueError(f"repeated subset indices {repeated}")
    return frozenset(parts)
