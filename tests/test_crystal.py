import copy
import itertools
import pickle
import random
import re
from dataclasses import dataclass

import pytest

from qcactus import crystal as cr
from qcactus.crystal import GTArray, Pattern
from qcactus.properties import weyl_dimension


def random_pattern(rng, bound=20):
    if rng.random() < 0.5:
        m1, m2 = rng.randint(0, bound), 0
    else:
        m1, m2 = 0, rng.randint(0, bound)
    return Pattern(m1, m2, *(rng.randint(-bound, bound) for _ in range(4)))


def test_pattern_validation():
    with pytest.raises(ValueError):
        Pattern(1, 1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        Pattern(-1, 0, 0, 0, 0, 0)
    m = Pattern(0, 2, -1, 3, -2, 1)
    assert (m.l1, m.l2) == (1, 2)
    assert not m.in_crystal


def test_pattern_text_roundtrip():
    m = Pattern(0, 2, -1, 3, -2, 1)
    assert Pattern.parse(str(m)) == m
    with pytest.raises(ValueError):
        Pattern.parse("1,2,3")


def test_weights():
    m = Pattern(0, 0, 0, 0, 3, 2)
    assert cr.weight_pair(m) == (3, 2)
    assert cr.wt(1, Pattern(1, 0, 0, 0, 0, 0)) == -1


def test_e_pow_examples():
    assert cr.e_pow(1, 1, Pattern(1, 0, 0, 0, 0, 0)) == Pattern(0, 0, 0, 0, 1, 0)
    m = Pattern(0, 2, 1, 3, 0, 1)
    assert cr.e_pow(1, 0, m) == m
    assert cr.e_pow(2, 0, m) == m


def test_e_pow_on_arrays():
    # the array coordinates turn e_2^r into a translation of the second entry
    rng = random.Random(4)
    for _ in range(400):
        m = random_pattern(rng)
        r = rng.randint(-8, 8)
        g = cr.khat(m)
        img = cr.khat(cr.e_pow(2, r, m))
        assert img == GTArray(g.a1, g.a2 - r, g.a3, g.l1, g.l2)


def test_sigma_outer_examples():
    assert cr.sigma_outer(Pattern(0, 0, 0, 0, 1, 0)) == Pattern(0, 0, 0, 1, 0, 0)
    m = Pattern(1, 0, 0, 0, 0, 0)
    assert cr.sigma_outer(m) == m


def test_sigma_i_example():
    assert cr.sigma_i(1, Pattern(1, 0, 0, 0, 0, 0)) == Pattern(0, 0, 0, 0, 1, 0)
    m = Pattern(0, 0, 2, 1, 3, 1)
    if cr.wt(1, m) == 0:
        assert cr.sigma_i(1, m) == m


def test_khat_examples():
    assert cr.khat(Pattern(0, 0, 0, 0, 3, 2)) == GTArray(0, 0, 0, 3, 2)
    assert cr.khat(Pattern(1, 0, 0, 0, 0, 0)) == GTArray(1, 0, 0, 1, 0)
    assert cr.khat_inv(GTArray(1, 0, 0, 1, 0)) == Pattern(1, 0, 0, 0, 0, 0)


def test_khat_roundtrip_random():
    rng = random.Random(9)
    for _ in range(2000):
        m = random_pattern(rng)
        assert cr.khat_inv(cr.khat(m)) == m


def test_enumerate_component_order_and_sizes():
    assert cr.enumerate_component(1, 0) == [
        Pattern(0, 0, 0, 0, 1, 0),
        Pattern(0, 0, 0, 1, 0, 0),
        Pattern(1, 0, 0, 0, 0, 0),
    ]
    assert len(cr.enumerate_component(1, 1)) == 8
    assert len(cr.enumerate_component(0, 0)) == 1
    comp = cr.enumerate_component(2, 3)
    assert comp == sorted(comp, key=tuple)
    assert all(m.in_crystal and (m.l1, m.l2) == (2, 3) for m in comp)


def test_component_count_against_weyl_oracle():
    for l1 in range(9):
        for l2 in range(9 - l1):
            assert len(cr.enumerate_component(l1, l2)) == weyl_dimension(l1, l2)


def test_zero_weight_count():
    for l1 in range(9):
        for l2 in range(9 - l1):
            count = sum(
                1 for m in cr.enumerate_component(l1, l2) if cr.weight_pair(m) == (0, 0)
            )
            expected = min(l1, l2) + 1 if (l1 - l2) % 3 == 0 else 0
            assert count == expected, (l1, l2)


def test_operator_identities_random():
    rng = random.Random(11)
    for _ in range(2500):
        m = random_pattern(rng)
        r, s = rng.randint(-10, 10), rng.randint(-10, 10)
        i = rng.choice((1, 2))
        j = 3 - i
        assert cr.e_pow(i, r, cr.e_pow(i, s, m)) == cr.e_pow(i, r + s, m)
        assert cr.e_pow(1, r, cr.e_pow(2, r + s, cr.e_pow(1, s, m))) == cr.e_pow(
            2, s, cr.e_pow(1, r + s, cr.e_pow(2, r, m))
        )
        assert cr.sigma_i(i, cr.sigma_i(i, m)) == m
        assert cr.sigma_i(i, cr.e_pow(i, r, m)) == cr.e_pow(i, -r, cr.sigma_i(i, m))
        assert cr.sigma_outer(cr.e_pow(i, r, m)) == cr.e_pow(j, -r, cr.sigma_outer(m))
        assert cr.sigma_i(1, cr.sigma_i(2, cr.sigma_i(1, m))) == cr.sigma_i(
            2, cr.sigma_i(1, cr.sigma_i(2, m))
        )
        assert cr.sigma_i(i, cr.sigma_outer(m)) == cr.sigma_outer(cr.sigma_i(j, m))
        image = cr.e_pow(i, r, m)
        assert (image.l1, image.l2) == (m.l1, m.l2)
        assert cr.wt(i, cr.sigma_outer(m)) == -cr.wt(j, m)
        assert cr.wt(i, cr.sigma_i(i, m)) == -cr.wt(i, m)


def test_apply_ops_right_to_left():
    m = Pattern(1, 0, 0, 0, 0, 0)

    def apply(ops):
        x = m
        for op in cr.parse_ops(ops):
            x = op(x)
        return x

    # rightmost token fires first
    assert apply("sigma, e1^1") == cr.sigma_outer(cr.e_pow(1, 1, m))
    assert apply("sigma1") == cr.sigma_i(1, m)
    with pytest.raises(ValueError):
        apply("rotate")
    for text in ("", ",", " , "):
        with pytest.raises(ValueError, match="no operators given"):
            cr.parse_ops(text)
    with pytest.raises(ValueError, match="'e1\\^x'"):
        cr.parse_ops("sigma,e1^x")


# -- reference: the frozen-dataclass patterns and their operators ------------------


@dataclass(frozen=True, slots=True)
class RefPattern:
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
    def l1(self):
        return self.m01 + self.m1 + self.m21

    @property
    def l2(self):
        return self.m02 + self.m2 + self.m12

    def entries(self):
        return (self.m1, self.m2, self.m12, self.m21, self.m01, self.m02)

    def __str__(self):
        return ",".join(str(x) for x in self.entries())


@dataclass(frozen=True, slots=True)
class RefGTArray:
    a1: int
    a2: int
    a3: int
    l1: int
    l2: int


def ref_e_pow(i, r, m):
    mi = m.m1 if i == 1 else m.m2
    mj = m.m2 if i == 1 else m.m1
    new_i = max(mi - mj - r, 0)
    new_j = max(mj - mi + r, 0)
    corr = min(mi - r, mj)
    if i == 1:
        return RefPattern(new_i, new_j, m.m12 + corr, m.m21, m.m01 + r + corr, m.m02)
    return RefPattern(new_j, new_i, m.m12, m.m21 + corr, m.m01, m.m02 + r + corr)


def ref_sigma_outer(m):
    return RefPattern(m.m1, m.m2, m.m02, m.m01, m.m21, m.m12)


def ref_shift(m, i, t):
    v = cr.STRING_SHIFT[i]
    e = m.entries()
    return RefPattern(*(e[k] + t * v[k] for k in range(6)))


def ref_khat(m):
    return RefGTArray(m.m1 + m.m21, m.m2 + m.m12 + m.m21, m.m12, m.l1, m.l2)


def ref_khat_inv(g):
    m21 = min(g.a1, g.a2 - g.a3)
    try:
        m = RefPattern(max(g.a1 + g.a3 - g.a2, 0), max(g.a2 - g.a1 - g.a3, 0), g.a3, m21,
                       g.l1 - g.a1, g.l2 - g.a2 + m21)
    except ValueError as exc:
        raise ValueError(f"{g} is not in the image of the pattern bijection") from exc
    if ref_khat(m) != g:
        raise ValueError(f"{g} is not in the image of the pattern bijection")
    return m


def ref_enumerate_component(l1, l2):
    out = []
    for m1 in range(l1 + 1):
        for m21 in range(l1 - m1 + 1):
            m2_top = 0 if m1 > 0 else l2
            for m2 in range(m2_top + 1):
                for m12 in range(l2 - m2 + 1):
                    out.append(RefPattern(m1, m2, m12, m21, l1 - m1 - m21, l2 - m2 - m12))
    out.sort(key=RefPattern.entries)
    return out


def ambient_entries():
    """Every ambient pattern with m1 or m2 in 0..3 and the rest in -2..2."""
    tops = [(0, 0)] + [(k, 0) for k in range(1, 4)] + [(0, k) for k in range(1, 4)]
    for m1, m2 in tops:
        for rest in itertools.product(range(-2, 3), repeat=4):
            yield (m1, m2, *rest)


def same(new, ref):
    assert type(new) is Pattern, type(new)
    assert tuple(new) == ref.entries(), (new, ref)


def same_array(new, ref):
    assert type(new) is GTArray, type(new)
    assert (new.a1, new.a2, new.a3, new.l1, new.l2) == (ref.a1, ref.a2, ref.a3, ref.l1, ref.l2)


class TestAgainstDataclassReference:
    def test_operators(self):
        count = 0
        for e in ambient_entries():
            m, ref = Pattern(*e), RefPattern(*e)
            assert (m.l1, m.l2) == (ref.l1, ref.l2)
            same(cr.sigma_outer(m), ref_sigma_outer(ref))
            same_array(cr.khat(m), ref_khat(ref))
            same(cr.khat_inv(cr.khat(m)), ref_khat_inv(ref_khat(ref)))
            for i in (1, 2):
                for r in range(-4, 5):
                    same(cr.e_pow(i, r, m), ref_e_pow(i, r, ref))
                    same(cr.shift(m, i, r), ref_shift(ref, i, r))
                    count += 1
        assert count == 7 * 5**4 * 2 * 9

    def test_khat_inv_on_arbitrary_arrays(self):
        for a in itertools.product(range(-1, 3), repeat=5):
            try:
                ref = ref_khat_inv(RefGTArray(*a))
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    cr.khat_inv(GTArray(*a))
            else:
                same(cr.khat_inv(GTArray(*a)), ref)

    def test_enumeration(self):
        for l1 in range(9):
            for l2 in range(9 - l1):
                comp, ref = cr.enumerate_component(l1, l2), ref_enumerate_component(l1, l2)
                assert len(comp) == len(ref)
                for m, r in zip(comp, ref):
                    same(m, r)

    def test_validation_messages(self):
        bad = [(-1, 0, 0, 0, 0, 0), (0, -2, 1, 1, 1, 1), (1, 1, 0, 0, 0, 0), (2, 3, -1, 0, 0, 5)]
        for e in bad:
            with pytest.raises(ValueError) as ref:
                RefPattern(*e)
            with pytest.raises(ValueError, match=f"^{re.escape(str(ref.value))}$"):
                Pattern(*e)
        with pytest.raises(ValueError, match=re.escape("m1, m2 must be nonnegative: -1,0,0,0,0,0")):
            Pattern(-1, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError, match=re.escape("m1*m2 must vanish: 1,1,0,0,0,0")):
            Pattern(1, 1, 0, 0, 0, 0)

    def test_text_forms(self):
        for e in [(0, 2, -1, 3, -2, 1), (1, 0, 0, 0, 0, 0)]:
            assert str(Pattern(*e)) == str(RefPattern(*e))
            assert repr(Pattern(*e)) == repr(RefPattern(*e)).replace("RefPattern", "Pattern")
        m = Pattern(0, 2, -1, 3, -2, 1)
        assert repr(m) == "Pattern(m1=0, m2=2, m12=-1, m21=3, m01=-2, m02=1)"
        g = GTArray(1, 2, 0, 3, 4)
        assert str(g) == repr(g) == "GTArray(a1=1, a2=2, a3=0, l1=3, l2=4)"


class TestValueSemantics:
    def test_hash_is_the_entry_tuple_hash(self):
        for e in itertools.islice(ambient_entries(), 0, None, 7):
            assert hash(Pattern(*e)) == hash(e) == hash(RefPattern(*e))
        assert hash(GTArray(1, 2, 0, 3, 4)) == hash((1, 2, 0, 3, 4))

    def test_equal_only_to_patterns(self):
        e = (0, 2, 1, 3, 0, 1)
        m = Pattern(*e)
        assert m == Pattern(*e) and not m != Pattern(*e)
        assert m != Pattern(0, 2, 1, 3, 0, 2) and not m == Pattern(0, 2, 1, 3, 0, 2)
        for other in (e, list(e), GTArray(*e[:5])):
            assert m != other and other != m
            assert not m == other and not other == m
        assert len({m, e}) == 2 and m not in {e: 0}
        assert GTArray(1, 2, 0, 3, 4) != (1, 2, 0, 3, 4)
        assert tuple(m) == e

    def test_pickle_and_copy_roundtrip(self):
        for x in (Pattern(0, 2, -1, 3, -2, 1), GTArray(1, 2, 0, 3, 4)):
            copies = [copy.copy(x), copy.deepcopy(x), copy.deepcopy([x])[0]]
            protocols = range(pickle.HIGHEST_PROTOCOL + 1)
            copies += [pickle.loads(pickle.dumps(x, proto)) for proto in protocols]
            for y in copies:
                assert type(y) is type(x) and y == x and hash(y) == hash(x)

    def test_immutable(self):
        m, g = Pattern(1, 0, 0, 0, 0, 0), GTArray(1, 2, 0, 3, 4)
        for obj, attr in ((m, "m1"), (m, "m02"), (m, "other"), (g, "a1"), (g, "l2")):
            with pytest.raises(AttributeError):
                setattr(obj, attr, 5)
        assert m == Pattern(1, 0, 0, 0, 0, 0) and g == GTArray(1, 2, 0, 3, 4)
