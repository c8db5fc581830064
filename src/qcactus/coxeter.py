"""Finite Coxeter groups through their integer action on the root lattice.

Elements are integer matrices in the simple-root basis, so equality is
structural and the length function is a count of positive roots sent
negative.  Only finite crystallographic types (and products of them) are
supported; construction fails loudly if enumeration exceeds the cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field


DEFAULT_CAP = 10_000

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
            raise ValueError(f"unknown type {part!r}; known: {sorted(_TYPE_BUILDERS)}")
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
    n = len(a)
    m = [[1] * n for _ in range(n)]
    table = {0: 2, 1: 3, 2: 4, 3: 6}
    for i in range(n):
        for j in range(n):
            if i != j:
                prod = a[i][j] * a[j][i]
                if prod not in table:
                    raise ValueError("Cartan matrix is not of finite type")
                m[i][j] = table[prod]
    return tuple(tuple(row) for row in m)


@dataclass(frozen=True)
class GroupElement:
    """A group element as its integer matrix on the root lattice.

    Column j of the matrix is the image of the j-th simple root.
    """

    matrix: tuple[tuple[int, ...], ...]
    datum: "CoxeterDatum" = field(compare=False, hash=False, repr=False)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(_mat_mul(self.matrix, other.matrix), self.datum)

    def apply(self, root: tuple[int, ...]) -> tuple[int, ...]:
        m = self.matrix
        n = len(root)
        return tuple(sum(m[k][j] * root[j] for j in range(n)) for k in range(n))

    def inverse(self) -> "GroupElement":
        word = reduced_word(self)
        return from_word(self.datum, tuple(reversed(word)))

    def is_identity(self) -> bool:
        return self.matrix == self.datum.identity.matrix


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


class CoxeterDatum:
    """A finite Coxeter group presented by orders m_ij, realized on the root
    lattice of a crystallographic Cartan matrix."""

    def __init__(self, cartan):
        self.cartan = tuple(tuple(int(x) for x in row) for row in cartan)
        n = len(self.cartan)
        if any(len(row) != n for row in self.cartan):
            raise ValueError("Cartan matrix must be square")
        self.n = n
        self.indices = tuple(range(1, n + 1))
        self.m = _orders_from_cartan(self.cartan)
        eye = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        self.identity = GroupElement(eye, self)
        self.generators = {}
        for i in range(n):
            mat = [list(row) for row in eye]
            # s_i(alpha_j) = alpha_j - a_ij alpha_i
            for j in range(n):
                mat[i][j] -= self.cartan[i][j]
            self.generators[i + 1] = GroupElement(tuple(tuple(r) for r in mat), self)
        self.positive_roots = self._close_roots()
        self._elements = None

    @staticmethod
    def from_type(name: str) -> "CoxeterDatum":
        d = CoxeterDatum(cartan_matrix_of_type(name))
        d.type_name = name
        return d

    def _close_roots(self):
        simple = [tuple(1 if j == i else 0 for j in range(self.n)) for i in range(self.n)]
        seen = set(simple)
        queue = list(simple)
        while queue:
            root = queue.pop()
            for g in self.generators.values():
                img = g.apply(root)
                if img not in seen:
                    seen.add(img)
                    queue.append(img)
            if len(seen) > 2 * DEFAULT_CAP:
                raise ValueError("root system exceeds the enumeration cap; group not finite?")
        return tuple(sorted(r for r in seen if all(x >= 0 for x in r)))

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
        seen = {self.identity.matrix: self.identity}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for w in frontier:
                for j in J:
                    u = self.generators[j] * w
                    if u.matrix not in seen:
                        seen[u.matrix] = u
                        nxt.append(u)
            if len(seen) > DEFAULT_CAP:
                raise ValueError(f"enumeration cap {DEFAULT_CAP} exceeded")
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
    count = 0
    for root in w.datum.positive_roots:
        img = w.apply(root)
        if all(x <= 0 for x in img):
            count += 1
    return count


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
        if conj.matrix == d.generators[k].matrix:
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
        elements = d.elements()
        wj = d.subgroup_elements(J)
        coset_rep = {}
        for w in elements:
            rep = min((w * h).matrix for h in wj)
            coset_rep[w.matrix] = rep
        kernel = []
        for k in elements:
            if all(coset_rep[(k * w).matrix] == coset_rep[w.matrix] for w in elements):
                kernel.append(k)
        return frozenset(kernel)
    raise ValueError(f"unknown mode {mode!r}")


def parse_subset(text: str) -> frozenset:
    """Parse a comma-separated index subset like "1,3"; empty means the empty set."""
    text = text.strip()
    if not text:
        return frozenset()
    parts = [int(part) for part in text.split(",")]
    repeated = sorted({j for j in parts if parts.count(j) > 1})
    if repeated:
        raise ValueError(f"repeated subset indices {repeated}")
    return frozenset(parts)
