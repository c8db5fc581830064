import dataclasses
import pickle
import random

import pytest

from qcactus import coxeter as cx

TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "G2", "A1xA1", "A1xA2")

ORDERS = {
    "A1": 2,
    "A2": 6,
    "A3": 24,
    "A4": 120,
    "B2": 8,
    "B3": 48,
    "G2": 12,
    "A1xA1": 4,
    "A1xA2": 12,
}


def subsets(indices):
    items = list(indices)
    for mask in range(1 << len(items)):
        yield frozenset(items[k] for k in range(len(items)) if mask >> k & 1)


@pytest.fixture(scope="module")
def data():
    return {name: cx.CoxeterDatum.from_type(name) for name in TYPES}


def test_group_orders(data):
    for name, d in data.items():
        assert len(d.elements()) == ORDERS[name], name


def test_from_word(data):
    a2 = data["A2"]
    assert cx.from_word(a2, ()) == a2.identity
    assert cx.from_word(a2, (1, 1)) == a2.identity
    assert cx.from_word(a2, (1, 2, 1)) == cx.from_word(a2, (2, 1, 2))
    with pytest.raises(ValueError):
        cx.from_word(a2, (3,))


def test_length(data):
    for name, d in data.items():
        assert cx.length(d.identity) == 0
        for i in d.indices:
            assert cx.length(d.generators[i]) == 1
    w0 = cx.longest_element(data["A2"], (1, 2))
    assert cx.length(w0) == 3


def test_reduced_word_deterministic(data):
    assert cx.reduced_word(data["A2"].identity) == ()
    assert cx.reduced_word(cx.longest_element(data["A2"], (1, 2))) == (1, 2, 1)
    assert cx.reduced_word(cx.longest_element(data["A1xA1"], (1, 2))) == (1, 2)


def test_reduced_word_roundtrip(data):
    for name, d in data.items():
        if len(d.elements()) > 48:
            continue
        for w in d.elements():
            word = cx.reduced_word(w)
            assert len(word) == cx.length(w)
            assert cx.from_word(d, word) == w


def test_longest_element(data):
    for name, d in data.items():
        assert cx.longest_element(d, ()) == d.identity
        for i in d.indices:
            assert cx.longest_element(d, (i,)) == d.generators[i]
        w0 = cx.longest_element(d, d.indices)
        assert w0 * w0 == d.identity
        for i in d.indices:
            assert cx.length(d.generators[i] * w0) < cx.length(w0)
    a2 = data["A2"]
    assert cx.longest_element(a2, (1, 2)) == cx.from_word(a2, (1, 2, 1))


def test_star_involution(data):
    assert cx.star_involution(data["A2"], (1, 2), 1) == 2
    assert cx.star_involution(data["B2"], (1, 2), 1) == 1
    for name, d in data.items():
        for J in subsets(d.indices):
            for j in J:
                js = cx.star_involution(d, J, j)
                assert cx.star_involution(d, J, js) == j
            for j in J:
                for k in J:
                    js = cx.star_involution(d, J, j)
                    ks = cx.star_involution(d, J, k)
                    assert d.m[js - 1][ks - 1] == d.m[j - 1][k - 1]
    with pytest.raises(ValueError):
        cx.star_involution(data["A2"], (1,), 2)


def test_star_singleton(data):
    for name, d in data.items():
        for i in d.indices:
            assert cx.star_involution(d, (i,), i) == i


def test_topology(data):
    a2, prod = data["A2"], data["A1xA1"]
    assert cx.topology(a2, {1}) == ({1, 2}, {2}, frozenset())
    assert cx.topology(prod, {1}) == ({1}, frozenset(), {2})
    assert cx.topology(a2, set()) == (frozenset(), frozenset(), {1, 2})


def test_kernel_examples(data):
    assert len(cx.kernel_parabolic(data["A2"], {1}, "formula")) == 1
    assert len(cx.kernel_parabolic(data["A1xA1"], {1}, "bruteforce")) == 2
    d = data["A2"]
    assert cx.kernel_parabolic(d, {1, 2}, "formula") == frozenset(d.elements())
    assert cx.kernel_parabolic(data["A3"], set(), "bruteforce") == frozenset(
        [data["A3"].identity]
    )


def test_kernel_agreement_exhaustive(data):
    for name, d in data.items():
        for J in subsets(d.indices):
            formula = cx.kernel_parabolic(d, J, "formula")
            brute = cx.kernel_parabolic(d, J, "bruteforce")
            assert formula == brute, (name, sorted(J))


def test_parabolic_intersections(data):
    for name, d in data.items():
        groups = {J: frozenset(d.subgroup_elements(J)) for J in subsets(d.indices)}
        for J in groups:
            for K in groups:
                assert groups[J] & groups[K] == groups[J & K], (name, sorted(J), sorted(K))


def test_closed_factorization(data):
    for name, d in data.items():
        for J in subsets(d.indices):
            closure, _, perp = cx.topology(d, J)
            if closure != J:
                continue
            products = {}
            for u in d.subgroup_elements(J):
                for u2 in d.subgroup_elements(perp):
                    key = u * u2
                    assert key not in products, (name, sorted(J))
                    products[key] = True
            assert len(products) == len(d.elements()), (name, sorted(J))


def test_inverse(data):
    for name, d in data.items():
        for w in d.elements():
            assert w * w.inverse() == d.identity, name
            assert w.inverse() * w == d.identity, name
            assert w.inverse().inverse() == w, name


def test_a_group_element_is_an_immutable_value(data):
    @dataclasses.dataclass(frozen=True)
    class DataclassElement:  # the dataclass a GroupElement was, for its hash
        perm: bytes
        datum: object = dataclasses.field(compare=False, hash=False, repr=False)

    d = data["A2"]
    w = d.generators[1] * d.generators[2]
    assert hash(w) == hash(DataclassElement(w.perm, d)) == hash((w.perm,))
    # the permutation alone decides equality, as it determines the element
    other = cx.CoxeterDatum.from_type("A2")
    assert w == cx.GroupElement(perm=bytes(w.perm), datum=other)
    assert w != d.generators[2] * d.generators[1]
    assert repr(w) == f"GroupElement(perm={w.perm!r})"

    class Marked(cx.GroupElement):
        __slots__ = ()

    assert w != w.perm and w != DataclassElement(w.perm, d) and w != Marked(w.perm, d)
    for change in (lambda: setattr(w, "perm", d.identity.perm), lambda: delattr(w, "datum"),
                   lambda: setattr(w, "label", "new")):
        with pytest.raises(AttributeError):
            change()
    assert w.perm == (d.generators[1] * d.generators[2]).perm and w.datum is d
    copy = pickle.loads(pickle.dumps(w))
    assert copy == w and cx.length(copy) == 2 and copy.datum.n == 2


# An integer-matrix oracle off the permutation path: s_i acts on the root
# lattice by s_i(alpha_j) = alpha_j - a_ij alpha_i, column j the image of
# alpha_j, and products are matrix products taken here.


def cartan_reflection(a, i):
    n = len(a)
    return [[int(r == c) - (a[i][c] if r == i else 0) for c in range(n)] for r in range(n)]


def mat_mul(x, y):
    n = len(y)
    return [[sum(x[r][k] * y[k][c] for k in range(n)) for c in range(n)] for r in range(n)]


def matrix_of(w):
    """The matrix read off perm: column j is w(alpha_j), found among the roots."""
    d = w.datum
    cols = [d.roots[w.perm[d.roots.index(tuple(int(k == j) for k in range(d.n)))]]
            for j in range(d.n)]
    return [[cols[c][r] for c in range(d.n)] for r in range(d.n)]


def pairs(d):
    elements = d.elements()
    if len(elements) <= 48:
        return [(u, v) for u in elements for v in elements]
    rng = random.Random(13)
    return [(rng.choice(elements), rng.choice(elements)) for _ in range(600)]


def test_generators_are_the_cartan_reflections(data):
    for name, d in data.items():
        for i in d.indices:
            assert matrix_of(d.generators[i]) == cartan_reflection(d.cartan, i - 1), (name, i)
        assert matrix_of(d.identity) == [[int(r == c) for c in d.indices] for r in d.indices]


def test_matrix_oracle_is_multiplicative(data):
    for name, d in data.items():
        for u, v in pairs(d):
            assert matrix_of(u * v) == mat_mul(matrix_of(u), matrix_of(v)), name


def test_length_counts_positive_roots_sent_negative(data):
    for name, d in data.items():
        for w in d.elements():
            m = matrix_of(w)
            negative = sum(
                1 for root in d.positive_roots
                if all(sum(m[r][c] * root[c] for c in range(d.n)) <= 0 for r in range(d.n))
            )
            assert cx.length(w) == negative, name


def test_distinct_permutations_give_distinct_matrices(data):
    for name, d in data.items():
        matrices = {tuple(map(tuple, matrix_of(w))) for w in d.elements()}
        assert len(matrices) == len(d.elements()) == len({w.perm for w in d.elements()}), name


def test_infinite_type_rejected():
    # the rank-2 matrix with product of off-diagonals 4 generates an infinite group
    with pytest.raises(ValueError):
        cx.CoxeterDatum([[2, -2], [-2, 2]])
    # affine A2: every m_ij is 3, but the root system never closes
    with pytest.raises(ValueError, match="roots"):
        cx.CoxeterDatum([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


@pytest.mark.parametrize("matrix, message", [
    ([[2, 1], [1, 2]], "off-diagonal"),
    ([[1, 0], [0, 2]], "diagonal"),
    ([[2, 0], [-1, 2]], "zero pattern"),
    ([[2, -1], [-1]], "square"),
])
def test_matrix_that_is_not_a_generalized_cartan_matrix_rejected(matrix, message):
    with pytest.raises(ValueError, match=message):
        cx.CoxeterDatum(matrix)


def test_too_many_roots_rejected():
    # 13 copies of A4 have 260 roots, more than a byte permutation can number
    with pytest.raises(ValueError, match="255 roots"):
        cx.CoxeterDatum.from_type("x".join(["A4"] * 13))
    assert len(cx.CoxeterDatum.from_type("x".join(["A4"] * 12)).roots) == 240


def test_unknown_type():
    with pytest.raises(ValueError):
        cx.CoxeterDatum.from_type("E8")


def test_parse_subset():
    assert cx.parse_subset("") == frozenset()
    assert cx.parse_subset("1,3") == frozenset({1, 3})
    with pytest.raises(ValueError, match="repeated"):
        cx.parse_subset("1,3,1")
