import hashlib
import itertools
import json
import random
import time

import pytest

from qcactus import crystal, gkmodel
from qcactus import repmodule as rm
from qcactus.gkmodel import (
    GEN_NAMES,
    GEN_WEIGHT,
    V1,
    V2,
    Z1,
    Z12,
    Z2,
    Z21,
    act_divided,
    act_gen,
    b_monomial,
    multiply,
    normal_form,
    parse_expr,
    sigma_hat,
    weight,
    word,
)
from qcactus.qarith import RatFunc
from qcactus.repmodule import ModuleVector


def word_element(*gens):
    return normal_form([(RatFunc.one(), tuple(gens))])


def monomial(*entries):
    return crystal.Pattern(*entries)


def random_sum(rng):
    """A straightened sum of up to four random words with random monomial
    coefficients."""
    return normal_form([(RatFunc.monomial(rng.randint(-3, 3), rng.choice((1, -1, 2))),
                         tuple(rng.randrange(6) for _ in range(rng.randint(0, 4))))
                        for _ in range(rng.randint(1, 4))])


def multiply_per_term(a, b):
    """The product straightened one pair of terms at a time, each result added
    onto the running sum."""
    out = ModuleVector()
    for ma, ca in a.items():
        for mb, cb in b.items():
            out = out + normal_form([(ca * cb, word(ma) + word(mb))])
    return out


def act_gen_per_term(k, kind, x):
    """The twisted derivation straightened one replaced word at a time."""
    table = gkmodel._E_TABLE if kind == "E" else gkmodel._F_TABLE
    out = ModuleVector()
    for mono, coeff in x.items():
        letters, pre, total = word(mono), 0, crystal.wt(k, mono)
        for t, g in enumerate(letters):
            g_pair = GEN_WEIGHT[g][k - 1]
            image = table.get((k, g))
            if image is not None:
                exp = total - 2 * pre - g_pair
                new_word = letters[:t] + (image,) + letters[t + 1:]
                out = out + normal_form([(coeff * RatFunc.monomial(exp), new_word)])
            pre += g_pair
    return out


class TestNormalForm:
    def test_straightening_z2_z1(self):
        # z2 z1 = q v2 z21 + q^-1 z12 v1, then each summand normal-orders
        result = word_element(Z2, Z1)
        expected = ModuleVector(
            {
                monomial(0, 0, 0, 1, 0, 1): RatFunc.one(),
                monomial(0, 0, 1, 0, 1, 0): RatFunc.monomial(-2),
            }
        )
        assert result == expected

    def test_v_z_commutation(self):
        assert word_element(V1, Z1) == ModuleVector(
            {monomial(1, 0, 0, 0, 1, 0): RatFunc.monomial(-2)}
        )
        assert word_element(V2, Z1) == ModuleVector({monomial(1, 0, 0, 0, 0, 1): RatFunc.one()})

    def test_composite_z_commute(self):
        assert word_element(Z21, Z12) == ModuleVector(
            {monomial(0, 0, 1, 1, 0, 0): RatFunc.one()}
        )

    def test_monomial_validation(self):
        # the key type of a monomial is the crystal pattern of its exponents,
        # which rejects a mixed z1/z2 pair and a negative z1 or z2 exponent
        assert all(type(m) is crystal.Pattern for m in word_element(Z2, Z1, V1))
        with pytest.raises(ValueError):
            crystal.Pattern(1, 1, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            crystal.Pattern(-1, 0, 0, 0, 0, 0)

    def test_confluence_random(self):
        rng = random.Random(2)
        for _ in range(400):
            word = tuple(rng.randrange(6) for _ in range(rng.randint(0, 6)))
            a = normal_form([(RatFunc.one(), word)], "leftmost")
            b = normal_form([(RatFunc.one(), word)], "rightmost")
            assert a == b, word

    def test_fuel_exhaustion(self, monkeypatch):
        monkeypatch.setattr(gkmodel, "REWRITE_BUDGET", 1)
        with pytest.raises(RuntimeError):
            normal_form([(RatFunc.one(), (Z2, Z1))])

    def test_cancelling_words_store_no_zeros(self):
        x = word_element(Z2, Z1)
        assert normal_form([(RatFunc.one(), (Z2, Z1)), (RatFunc.scalar(-1), (Z2, Z1))]) == {}
        assert (x - x) == {} and x + x == x.scale(RatFunc.scalar(2))


class TestPatternKeys:
    """Every element is keyed by the crystal patterns of its monomials."""

    @staticmethod
    def assert_in_crystal_keys(x):
        assert all(type(m) is crystal.Pattern and m.in_crystal for m in x), str(x)

    def test_seeded_images_have_in_crystal_pattern_keys(self):
        rng = random.Random(5)
        for _ in range(100):
            a, b = random_sum(rng), random_sum(rng)
            for x in (a, multiply(a, b), sigma_hat(a)):
                self.assert_in_crystal_keys(x)
            for k in (1, 2):
                for kind in ("E", "F"):
                    self.assert_in_crystal_keys(act_gen(k, kind, a))

    def test_word_round_trips_through_the_normal_form(self):
        count = 0
        for l1 in range(4):
            for l2 in range(4 - l1):
                for m in crystal.enumerate_component(l1, l2):
                    assert normal_form([(RatFunc.one(), word(m))]) == {m: RatFunc.one()}
                    count += 1
        assert count > 50
        assert word(crystal.Pattern(0, 2, 1, 0, 0, 3)) == (Z2, Z2, Z12, V2, V2, V2)

    def test_weight_is_the_generator_weight_sum(self):
        rng = random.Random(11)
        for _ in range(200):
            for m in random_sum(rng):
                expected = tuple(sum(e * GEN_WEIGHT[g][c] for g, e in enumerate(m))
                                 for c in (0, 1))
                assert weight(ModuleVector({m: RatFunc.one()})) == expected

    def test_monomial_text(self):
        assert gkmodel.monomial_str(crystal.Pattern(0, 0, 0, 0, 0, 0)) == "1"
        assert gkmodel.monomial_str(crystal.Pattern(1, 0, 0, 0, 0, 1)) == "z1*v2"
        assert gkmodel.monomial_str(crystal.Pattern(0, 3, 0, 2, 1, 0)) == "z2^3*z21^2*v1"


class TestOneStraightening:
    """multiply and act_gen straighten all their words in one normal_form
    call; each must equal the sum of its terms straightened one by one."""

    def test_multiply_matches_per_term(self):
        rng = random.Random(19)
        for _ in range(150):
            a, b = random_sum(rng), random_sum(rng)
            assert multiply(a, b) == multiply_per_term(a, b)

    def test_act_gen_matches_per_term(self):
        rng = random.Random(23)
        for _ in range(150):
            x = random_sum(rng)
            for k in (1, 2):
                for kind in ("E", "F"):
                    assert act_gen(k, kind, x) == act_gen_per_term(k, kind, x), (k, kind, str(x))


class TestMultiply:
    def test_unit(self):
        x = word_element(Z2, Z1, V1)
        assert multiply(word_element(), x) == x
        assert multiply(x, word_element()) == x

    def test_order_independence(self):
        a = multiply(word_element(Z1), word_element(Z2))
        b = word_element(Z1, Z2)
        assert a == b

    def test_associativity_random(self):
        rng = random.Random(3)

        def rnd():
            return normal_form(
                [(RatFunc.one(), tuple(rng.randrange(6) for _ in range(rng.randint(0, 3))))]
            )

        for _ in range(200):
            a, b, c = rnd(), rnd(), rnd()
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_weight_additivity(self):
        a = word_element(Z1, V2)
        b = word_element(Z21)
        wa, wb = weight(a), weight(b)
        wab = weight(multiply(a, b))
        assert wab == (wa[0] + wb[0], wa[1] + wb[1])


class TestAction:
    def test_generator_table(self):
        assert act_gen(1, "E", word_element(Z1)) == word_element(V1)
        assert act_gen(2, "E", word_element(Z1)).is_zero()
        assert act_gen(1, "E", word_element(Z12)) == word_element(Z2)
        assert act_gen(2, "E", word_element(Z21)) == word_element(Z1)
        assert act_gen(1, "F", word_element(V1)) == word_element(Z1)
        assert act_gen(2, "F", word_element(Z1)) == word_element(Z21)
        assert act_gen(1, "F", word_element(Z12)).is_zero()
        for g in (V1, V2):
            assert act_gen(1, "E", word_element(g)).is_zero()

    def test_no_image_straightens_nothing(self, monkeypatch):
        # E2 has no image on z1: there is no word to straighten
        z1 = word_element(Z1)
        calls = []
        straighten = gkmodel.normal_form
        monkeypatch.setattr(gkmodel, "normal_form",
                            lambda *args: calls.append(args) or straighten(*args))
        assert act_gen(2, "E", z1).is_zero()
        assert calls == []

    def test_leibniz_on_square(self):
        # E1(z1 * z1) expands through the twisted rule to (q^(1/2)+q^(-3/2)) z1 v1
        x = word_element(Z1, Z1)
        result = act_gen(1, "E", x)
        coeff = RatFunc.monomial(1) + RatFunc.monomial(-3)
        assert result == ModuleVector({monomial(1, 0, 0, 0, 1, 0): coeff})

    def test_divided_power_consistency(self):
        x = word_element(Z1, Z1)
        twice = act_gen(1, "E", act_gen(1, "E", x))
        divided = act_divided(1, "E", 2, x)
        from qcactus.qarith import q_factorial

        assert twice == divided.scale(RatFunc.of_poly(q_factorial(2).compose_monomial(2)))


class TestBasisMonomials:
    def test_examples(self):
        assert b_monomial(crystal.Pattern(0, 0, 0, 0, 1, 0)) == word_element(V1)
        assert b_monomial(crystal.Pattern(1, 0, 0, 0, 0, 0)) == word_element(Z1)
        assert b_monomial(crystal.Pattern(0, 0, 1, 0, 0, 0)) == word_element(Z12)

    def test_off_crystal_is_zero(self):
        assert b_monomial(crystal.Pattern(0, 0, -1, 1, 0, 0)).is_zero()

    def test_weight_matches_pattern(self):
        for l1 in range(3):
            for l2 in range(3 - l1):
                for m in crystal.enumerate_component(l1, l2):
                    assert weight(b_monomial(m)) == crystal.weight_pair(m)


class TestTwist:
    def test_generator_table(self):
        assert sigma_hat(word_element(V1)) == word_element(Z21)
        assert sigma_hat(word_element(V2)) == word_element(Z12)
        assert sigma_hat(word_element(Z1)) == word_element(Z1)
        assert sigma_hat(word_element(Z12)) == word_element(V2)

    def test_anti_rule_example(self):
        # sigma(z12 v2) = sigma(v2) sigma(z12) = z12 v2, already normal-ordered
        x = word_element(Z12, V2)
        assert sigma_hat(x) == x

    def test_anti_homomorphism_random(self):
        rng = random.Random(8)

        def rnd():
            return normal_form(
                [(RatFunc.one(), tuple(rng.randrange(6) for _ in range(rng.randint(0, 3))))]
            )

        for _ in range(150):
            a, b = rnd(), rnd()
            assert sigma_hat(multiply(a, b)) == multiply(sigma_hat(b), sigma_hat(a))

    def test_involution_degree_four(self):
        count = 0
        for l1 in range(5):
            for l2 in range(5 - l1):
                for m in crystal.enumerate_component(l1, l2):
                    if sum(m) > 4:
                        continue
                    x = b_monomial(m)
                    assert sigma_hat(sigma_hat(x)) == x
                    count += 1
        assert count > 100

    def test_grading_reversal(self):
        x = word_element(Z1, V2, Z21)
        w = weight(x)
        assert weight(sigma_hat(x)) == (-w[1], -w[0])

    def test_basis_compatibility(self):
        for l1 in range(5):
            for l2 in range(5 - l1):
                for m in crystal.enumerate_component(l1, l2):
                    if sum(m) > 4:
                        continue
                    assert sigma_hat(b_monomial(m)) == b_monomial(crystal.sigma_outer(m)), str(m)


class TestEmbedding:
    def test_trivial_and_vector(self):
        assert gkmodel.embed_module(0, 0) == []
        assert gkmodel.embed_module(1, 0) == []

    def test_adjoint(self):
        assert gkmodel.embed_module(1, 1) == []

    def test_single_example(self):
        # E2 agrees on the w1-component lowest pattern
        m = crystal.Pattern(0, 0, 0, 1, 0, 0)
        gk = act_gen(2, "E", b_monomial(m))
        mod = rm.ModuleVLambda(1, 0)
        sym = rm.act_divided(2, "E", 1, mod.basis_vector(m))
        expected = ModuleVector()
        for target, coeff in sym.items():
            expected = expected + b_monomial(target).scale(coeff)
        assert gk == expected

    def test_component_products(self):
        basis11 = {
            mono
            for m in crystal.enumerate_component(1, 1)
            for mono in b_monomial(m)
        }
        for ma in crystal.enumerate_component(1, 0):
            for mb in crystal.enumerate_component(0, 1):
                prod = multiply(b_monomial(ma), b_monomial(mb))
                assert set(prod) <= basis11


class TestParse:
    def test_simple_product(self):
        assert parse_expr("z2*z1*v1") == multiply(word_element(Z2, Z1), word_element(V1))

    def test_powers_and_scalars(self):
        assert parse_expr("q^{3/2}*z1^2") == ModuleVector(
            {monomial(2, 0, 0, 0, 0, 0): RatFunc.monomial(3)}
        )
        assert parse_expr("q^{-1}*v1*v2") == ModuleVector(
            {monomial(0, 0, 0, 0, 1, 1): RatFunc.monomial(-2)}
        )

    # The grammar: factors q^{k}, q^{k/2}, signed integers and generators with an
    # optional power g^n, joined by '*' or juxtaposed, with whitespace around each
    # token; '*' stands between two factors, a negative integer after a factor
    # needs it, and no digit follows a generator name directly.
    @pytest.mark.parametrize("text, scalar, gens", [
        ("z1 2", RatFunc.scalar(2), (Z1,)),
        ("2z1", RatFunc.scalar(2), (Z1,)),
        ("z1*-2", RatFunc.scalar(-2), (Z1,)),
        ("z1 ^ 2", RatFunc.one(), (Z1, Z1)),
        (" z1 * z2 ", RatFunc.one(), (Z1, Z2)),
        ("q^{-3/2}*z1", RatFunc.monomial(-3), (Z1,)),
        ("z1*2", RatFunc.scalar(2), (Z1,)),
        ("z12", RatFunc.one(), (Z12,)),
    ])
    def test_accepted_forms(self, text, scalar, gens):
        assert parse_expr(text) == word_element(*gens).scale(scalar)

    @pytest.mark.parametrize("text, message", [
        ("z1-2", "cannot parse '-2'"),
        ("v12", "cannot parse 'v12'"),
        ("z123", "cannot parse 'z123'"),
        ("z1*z22", "cannot parse '*z22'"),
        ("*z1", "cannot parse '*z1'"),
        ("z1*", "cannot parse '*'"),
        ("z1**z2", "cannot parse '**z2'"),
        ("z1^2^3", "cannot parse '^3'"),
        ("q^{1/2}^2", "cannot parse '^2'"),
        ("", "cannot parse ''"),
        (" ", "cannot parse ' '"),
        ("z1^-2", "generator powers must be nonnegative"),
        ("z1^1000001", "expression has 1,000,001 letters; at most 1,000,000 allowed"),
    ])
    def test_rejected_forms_name_the_unparsed_rest(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_expr(text)
        assert str(exc.value) == message

    def test_the_language_and_its_values_are_pinned(self):
        # every string of at most 4 tokens over this alphabet, with its value
        # or ERR; the digest was retaken when a digit right after a generator
        # name became an error, which rejects the 304 lines holding z22 or z122
        # that the earlier tokenizing parser read as a generator times 2
        alphabet = ["z1", "z2", "z12", "*", "^", "2", "-1", "q^{1/2}", " ", "x"]
        lines = []
        for k in range(5):
            for tokens in itertools.product(alphabet, repeat=k):
                s = "".join(tokens)
                try:
                    value = json.dumps(gkmodel.to_json(parse_expr(s)), sort_keys=True)
                except ValueError:
                    value = "ERR"
                lines.append(f"{s}\t{value}")
        assert (len(lines), sum(line.endswith("\tERR") for line in lines)) == (11_111, 8_966)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "7a2ab77494889ab8a740f9ca9eae4fbec522fdeaabf71fda278287a9e3975790"

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_expr("z3*z1")
        with pytest.raises(ValueError):
            parse_expr("z1^-2")

    def test_over_the_rewriting_budget_is_a_value_error(self, monkeypatch):
        monkeypatch.setattr(gkmodel, "REWRITE_BUDGET", 50)
        with pytest.raises(ValueError, match="rewriting budget of 50 steps"):
            parse_expr("z2^3*z1^3")
        monkeypatch.setattr(gkmodel, "REWRITE_BUDGET", 1000)
        assert parse_expr("z2^3*z1^3") == word_element(Z2, Z2, Z2, Z1, Z1, Z1)

    def test_a_long_product_parses_in_linear_time(self):
        # growing the word one factor at a time is quadratic: 3 s on a 2-vCPU VM
        t0 = time.perf_counter()
        x = parse_expr("*".join(["z1"] * 40_000))
        assert time.perf_counter() - t0 < 1.5
        assert x == ModuleVector({monomial(40_000, 0, 0, 0, 0, 0): RatFunc.one()})

    @pytest.mark.parametrize("text, length", [
        ("z1^1000001", "1,000,001"),
        ("z1^99999999999", "99,999,999,999"),
        ("z1^600000*z12*v1^400000", "1,000,001"),
    ])
    def test_an_expression_over_the_budget_in_letters_is_a_value_error(self, text, length):
        with pytest.raises(ValueError, match=f"^expression has {length} letters; "
                                             f"at most 1,000,000 allowed$"):
            parse_expr(text)

    def test_other_runtime_errors_propagate(self, monkeypatch):
        def recurse(words):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(gkmodel, "normal_form", recurse)
        with pytest.raises(RecursionError):
            parse_expr("z2*z1")

    def test_generator_names_cover_order(self):
        assert GEN_NAMES == ("z1", "z2", "z12", "z21", "v1", "v2")
