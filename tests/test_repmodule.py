import random
from collections import Counter
from fractions import Fraction

import pytest

from qcactus import cartan, coxeter, crystal, linalg, qarith, suites
from qcactus import repmodule as rm
from qcactus.crystal import Pattern
from qcactus.qarith import RatFunc


@pytest.fixture(scope="module")
def vec3():
    return rm.ModuleVLambda(1, 0)


@pytest.fixture(scope="module")
def adjoint():
    return rm.ModuleVLambda(1, 1)


class TestModule:
    def test_dimensions(self):
        assert rm.ModuleVLambda(0, 0).dim == 1
        assert rm.ModuleVLambda(1, 0).dim == 3
        assert rm.ModuleVLambda(1, 1).dim == 8
        assert rm.ModuleVLambda(2, 2).dim == 27

    def test_highest_weight_line(self, adjoint):
        hw = [m for m in adjoint.basis if adjoint.weight_of(m) == (1, 1)]
        assert hw == [adjoint.highest_pattern]

    def test_weight_blocks_partition(self, adjoint):
        total = sum(len(v) for v in adjoint.weight_blocks.values())
        assert total == adjoint.dim

    def test_basis_vector_validation(self, vec3):
        with pytest.raises(ValueError):
            vec3.basis_vector(Pattern(0, 0, 0, 0, 2, 0))


class TestAction:
    def test_raising_examples(self, vec3):
        b = vec3.basis_vector(Pattern(0, 0, 0, 1, 0, 0))
        assert rm.act_divided(1, "E", 1, b).is_zero()
        assert rm.act_divided(2, "E", 1, b) == vec3.basis_vector(Pattern(1, 0, 0, 0, 0, 0))
        assert rm.act_divided(1, "E", 0, b) == b

    def test_lowering_example(self, vec3):
        top = vec3.highest_vector()
        assert rm.act_divided(1, "F", 1, top) == vec3.basis_vector(Pattern(1, 0, 0, 0, 0, 0))

    def test_negative_exponent_rejected(self, vec3):
        with pytest.raises(ValueError):
            rm.act_divided(1, "E", -1, vec3.highest_vector())

    def test_weight_raising(self, adjoint):
        d = adjoint.datum
        for m in adjoint.basis:
            for i in (1, 2):
                img = rm.act_divided(i, "E", 1, adjoint.basis_vector(m))
                target = cartan.shift(adjoint.weight_of(m), d.simple_root(i))
                assert all(adjoint.weight_of(mm) == target for mm in img)

    def test_relations_gate_adjoint(self, adjoint):
        for record in suites.relations_checks(adjoint):
            assert record["status"] == "pass", record

    def test_relations_trivial_module(self):
        for record in suites.relations_checks(rm.ModuleVLambda(0, 0)):
            assert record["status"] == "pass", record

    def test_relations_vector_module(self, vec3):
        for record in suites.relations_checks(vec3):
            assert record["status"] == "pass", record


class TestGTBasis:
    def test_gt_vector_trivial_case(self, vec3):
        # r_i = 0 for the pattern with m_j = m_0i = 0
        m = Pattern(1, 0, 0, 0, 0, 0)
        assert rm.gt_vector(1, m, vec3) == vec3.basis_vector(m)

    def test_gt_vector_example(self, vec3):
        m = Pattern(0, 0, 0, 0, 1, 0)
        expected = rm.act_divided(
            1, "E", 1, vec3.basis_vector(crystal.e_pow(1, -1, m))
        )
        assert rm.gt_vector(1, m, vec3) == expected

    def test_matrix_c_vector_module_is_identity(self, vec3):
        c = vec3.matrix("C1")
        assert linalg.is_identity(c)

    def test_matrix_c_columns_match_gt_vectors(self, adjoint):
        for i in (1, 2):
            c = adjoint.matrix(f"C{i}")
            for col, m in enumerate(adjoint.basis):
                assert _column(adjoint, c, col) == rm.gt_vector(i, m, adjoint), (i, str(m))

    def test_matrix_c_diagonal_nonzero(self, adjoint):
        for i in (1, 2):
            c = adjoint.matrix(f"C{i}")
            for k in range(adjoint.dim):
                assert not c.rows[k][k].is_zero()

    def test_matrix_c_trivial_module(self):
        mod = rm.ModuleVLambda(0, 0)
        assert mod.matrix("C1").rows[0][0].is_one()

    def test_matrix_c_entries_share_the_unit_denominator(self):
        # act_divided multiplies by the input coefficient 1; that must not
        # give each polynomial entry its own copy of the denominator 1
        mod = rm.ModuleVLambda(3, 3)
        entries = [x for row in mod.matrix("C1").rows for x in row if not x.is_zero()]
        assert entries
        assert all(x.den is qarith.ONE for x in entries if x.den.is_one())

    def test_matrix_p_is_permutation(self, adjoint):
        for i in (1, 2):
            p = adjoint.matrix(f"P{i}")
            for col, m in enumerate(adjoint.basis):
                image = adjoint.basis_vector(crystal.sigma_i(i, m))
                assert _column(adjoint, p, col) == image, (i, str(m))


class TestInvolutionMatrices:
    def test_thin_module_permutation(self, vec3):
        n = vec3.matrix("N1")
        # swaps the weight-(1,0) and weight-(-1,1) lines, fixes the lowest one
        assert n.rows[0][2].is_one() and n.rows[2][0].is_one()
        assert n.rows[1][1].is_one()
        assert n.rows[0][0].is_zero()

    def test_involution(self):
        for l1, l2 in [(1, 0), (1, 1), (2, 1)]:
            mod = rm.ModuleVLambda(l1, l2)
            for i in (1, 2):
                n = mod.matrix(f"N{i}")
                assert linalg.is_identity(linalg.mat_mul(n, n)), (l1, l2, i)

    def test_cube_small(self):
        for l1, l2 in [(1, 1), (2, 1), (3, 1)]:
            mod = rm.ModuleVLambda(l1, l2)
            m = linalg.mat_mul(mod.matrix("N1"), mod.matrix("N2"))
            m3 = linalg.mat_mul(linalg.mat_mul(m, m), m)
            assert linalg.is_identity(m3), (l1, l2)

    @pytest.mark.parametrize("i", [1, 2])
    def test_specialization_oracle(self, i):
        # C_i at v = 2/3 inverted over Q by a Gauss-Jordan that shares no code
        # with rref, poly_gcd or divexact
        x = Fraction(2, 3)
        mod = rm.ModuleVLambda(3, 3)
        at = lambda rows: [[e.evaluate(x) for e in row] for row in rows]
        c, p = at(mod.matrix(f"C{i}").rows), at(mod.matrix(f"P{i}").rows)
        c_inv = _fraction_inverse(c)
        assert at(rm.OperatorMatrix(linalg.invert(mod.matrix(f"C{i}"))).rows) == c_inv
        assert at(mod.matrix(f"N{i}").rows) == _fraction_mul(_fraction_mul(c, p), c_inv)

    def test_n2_equals_the_unreduced_conjugate(self):
        # N2 is built as P N1 P; on every module of degree <= 6 it equals
        # C2 P2 C2^{-1}, formed without the outer involution
        for lam in suites.lambdas(6):
            mod = rm.ModuleVLambda(*lam)
            assert mod.matrix("N2") == unreduced_n2(mod), lam

    def test_a_planted_p2_fault_is_named_by_the_n2_check(self, monkeypatch):
        mod = rm.ModuleVLambda(1, 1)
        row, col = mod.basis[1], mod.basis[4]
        build = rm.matrix_P

        def planted(i, module):
            a = build(i, module)
            if i == 2:
                r, c = module.index[row], module.index[col]
                a[r][c] = a[r][c] + RatFunc.one()
            return a

        monkeypatch.setattr(rm, "matrix_P", planted)
        with pytest.raises(ValueError, match="P2 differs from P P1 P") as err:
            mod.matrix("N2")
        assert f"row {row}, column {col}" in str(err.value)

    @pytest.mark.parametrize("tag, image", [
        ("C1", lambda d, beta: beta),
        ("P1", lambda d, beta: d.reflect(1, beta)),
        ("E1", lambda d, beta: cartan.shift(beta, d.simple_root(1))),
        ("E2", lambda d, beta: cartan.shift(beta, d.simple_root(2))),
    ])
    def test_graded_cuts_every_entry_into_its_block(self, tag, image):
        for l1, l2 in suites.lambdas(6):
            mod = rm.ModuleVLambda(l1, l2)
            if tag[0] == "E":
                i = int(tag[1])
                a = rm.operator_matrix(mod, lambda m: rm.act_divided(i, "E", 1, mod.basis_vector(m)))
            else:
                a = mod.matrix(tag)
            to = lambda beta: image(mod.datum, beta)
            blocks = rm._graded(tag, a, mod, to)
            assert blocks.keys() == mod.weight_blocks.keys()
            back = [linalg.Row() for _ in range(mod.dim)]
            for beta, block in blocks.items():
                rows, cols = mod.weight_blocks.get(to(beta), []), mod.weight_blocks[beta]
                assert len(block) == len(rows), (l1, l2, beta)
                for r, row in zip(rows, block):
                    back[r].update({cols[c]: x for c, x in row.items()})
            assert back == list(a), (l1, l2)
            # an entry from the highest weight into the lowest weight -(l2, l1),
            # which no weight of the module reaches by a raising map
            r = mod.weights.index((-l2, -l1))
            c = mod.index[mod.highest_pattern]
            if to(mod.weights[c]) == mod.weights[r]:
                continue
            if tag[0] == "E":
                assert all(to(beta) != mod.weights[r] for beta in mod.weight_blocks)
            planted = [linalg.Row(row) for row in a]
            planted[r][c] = RatFunc.one()
            with pytest.raises(ValueError) as err:
                rm._graded(tag, planted, mod, to)
            assert str(err.value) == (f"{tag} has an entry outside its weight block at row "
                                      f"{mod.basis[r]}, column {mod.basis[c]}")

    @pytest.mark.parametrize("lam", [(3, 3), (4, 4), (5, 5)])
    def test_integer_oracle(self, lam):
        verdicts = integer_oracle(rm.ModuleVLambda(*lam))
        assert verdicts == dict.fromkeys(("involution-1", "involution-2", "braid", "cube"), True)

    def test_crystal_shadow(self, adjoint):
        for i in (1, 2):
            lead = [adjoint.index[crystal.sigma_i(i, m)] for m in adjoint.basis]
            for row, entries in enumerate(adjoint.matrix(f"N{i}")):
                for col, entry in entries.items():
                    if row == lead[col]:
                        delta = entry - RatFunc.one()
                        assert delta.is_zero() or delta.order_at_zero() > 0
                    else:
                        assert entry.order_at_zero() > 0


def _fraction_inverse(a):
    n = len(a)
    m = [row[:] + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        m[col] = [e / m[col][col] for e in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [e - f * p for e, p in zip(m[r], m[col])]
    return [row[n:] for row in m]


def _fraction_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col) if x and y) for col in zip(*b)] for row in a]


# -- integer oracle for the conjecture identities ---------------------------------
# Each N_i becomes an integer matrix: scale it by v^s_i D_i, where D_i is the
# lcm of its distinct entry denominators and s_i clears negative exponents,
# and pack every polynomial entry as its value at v = 2^b.  Evaluation at 2^b
# is a ring map, so each identity scaled by these scalars holds at 2^b when it
# holds over Z[v]; conversely a nonzero integer polynomial whose coefficients
# are below 2^b - 1 in size does not vanish at 2^b, and b is chosen above a
# 1-norm bound on every coefficient of both sides.  D_i and the cofactors
# D_i / den come from poly_gcd, but every cofactor is checked by
# multiplication before packing, so a wrong gcd cannot make the oracle pass;
# no RatFunc product or linalg.mat_mul is involved.


def _int_mul(a, b):
    """Sparse product of {row: {col: int}} matrices, dropping zeros."""
    out = {}
    for r, row in a.items():
        acc = {}
        for k, x in row.items():
            for c, y in b.get(k, {}).items():
                acc[c] = acc.get(c, 0) + x * y
        acc = {c: z for c, z in acc.items() if z}
        if acc:
            out[r] = acc
    return out


def _scalar(dim, value):
    return {r: {r: value} for r in range(dim)}


def _scaled(a, value):
    return {r: {c: x * value for c, x in row.items()} for r, row in a.items()}


def _norm1(p):
    return sum(abs(c) for _, c in p.items())


def _pack(p, shift, b):
    assert all(isinstance(c, int) for _, c in p.items())
    return sum(c << (b * (e + shift)) for e, c in p.items())


class _Cleared:
    """v^s D N for one N_i, as 1-norm bounds and then packed at v = 2^b."""

    def __init__(self, rows):
        entries = {(r, c): e for r, row in enumerate(rows) for c, e in row.items()}
        dens = {e.den for e in entries.values()}
        self.scale = qarith.ONE
        for den in dens:
            self.scale = self.scale * qarith.poly_gcd(self.scale, den)[2]
        # every den of N_i is monic, so gcd(scale, den) = den and its cofactor is scale / den
        cofactors = {den: qarith.poly_gcd(self.scale, den)[1] for den in dens}
        for den, cofactor in cofactors.items():
            assert cofactor * den == self.scale, "a cofactor of the lcm does not multiply back"
        self.polys = {rc: e.num * cofactors[e.den] for rc, e in entries.items()}
        self.shift = max(0, -self.scale.valuation, *(-p.valuation for p in self.polys.values()))

    def _matrix(self, entry):
        out = {}
        for (r, c), p in self.polys.items():
            out.setdefault(r, {})[c] = entry(p)
        return out

    def norms(self):
        return self._matrix(_norm1), _norm1(self.scale)

    def packed(self, b):
        pack = lambda p: _pack(p, self.shift, b)
        return self._matrix(pack), pack(self.scale)


def _conjecture_sides(dim, m1, s1, m2, s2):
    """Both sides of (N1)^2 = 1, (N2)^2 = 1, N1 N2 N1 = N2 N1 N2 and
    (N1 N2)^3 = 1 after scaling N_i to M_i = s_i N_i."""
    m12 = _int_mul(m1, m2)
    return {
        "involution-1": (_int_mul(m1, m1), _scalar(dim, s1 * s1)),
        "involution-2": (_int_mul(m2, m2), _scalar(dim, s2 * s2)),
        "braid": (_scaled(_int_mul(m12, m1), s2), _scaled(_int_mul(m2, m12), s1)),
        "cube": (_int_mul(_int_mul(m12, m12), m12), _scalar(dim, (s1 * s2) ** 3)),
    }


def unreduced_n2(mod):
    """C2 P2 C2^{-1}, formed with linalg and without the outer involution."""
    c = mod.matrix("C2")
    return linalg.mat_mul(linalg.mat_mul(c, mod.matrix("P2")), linalg.invert(c))


def integer_oracle(mod):
    """The conjecture identities of one module decided over Z, by name; N2 is
    the unreduced C2 P2 C2^{-1}, so the oracle stays off the P N1 P path."""
    cleared = [_Cleared(n) for n in (mod.matrix("N1"), unreduced_n2(mod))]
    (n1, t1), (n2, t2) = (c.norms() for c in cleared)
    bound = 0
    for lhs, rhs in _conjecture_sides(mod.dim, n1, t1, n2, t2).values():
        top = [x for side in (lhs, rhs) for row in side.values() for x in row.values()]
        bound = max(bound, 2 * max(top))
    b = bound.bit_length() + 1
    (p1, u1), (p2, u2) = (c.packed(b) for c in cleared)
    sides = _conjecture_sides(mod.dim, p1, u1, p2, u2)
    return {name: lhs == rhs for name, (lhs, rhs) in sides.items()}


class TestLusztigT:
    def test_string_values(self, vec3):
        # on a length-1 string the two symmetries differ by the sign only
        top = vec3.highest_vector()
        down = vec3.basis_vector(Pattern(1, 0, 0, 0, 0, 0))
        assert rm.lusztig_T(1, "+", top) == down.scale(RatFunc.monomial(1))
        assert rm.lusztig_T(1, "-", top) == down.scale(RatFunc.monomial(1, -1))
        assert rm.lusztig_T(1, "+", down) == top.scale(RatFunc.monomial(1, -1))
        assert rm.lusztig_T(1, "-", down) == top.scale(RatFunc.monomial(1))

    def test_string_values_length_two(self):
        # frozen from the rank-1 formula: T+(z_k) = (-1)^k v_q^(k(m-k)+m/2) z_(m-k)
        mod = rm.ModuleVLambda(2, 0)
        top = mod.highest_vector()
        z = [top] + [rm.act_divided(1, "F", k, top) for k in (1, 2)]
        q = RatFunc.monomial(2)
        assert rm.lusztig_T(1, "+", z[0]) == z[2].scale(RatFunc.monomial(2))
        assert rm.lusztig_T(1, "+", z[1]) == z[1].scale(RatFunc.monomial(4, -1))
        assert rm.lusztig_T(1, "+", z[2]) == z[0].scale(RatFunc.monomial(2))

    def test_braid_adjoint(self, adjoint):
        for sign in ("+", "-"):
            for m in adjoint.basis:
                b = adjoint.basis_vector(m)
                lhs = rm.lusztig_T(1, sign, rm.lusztig_T(2, sign, rm.lusztig_T(1, sign, b)))
                rhs = rm.lusztig_T(2, sign, rm.lusztig_T(1, sign, rm.lusztig_T(2, sign, b)))
                assert lhs == rhs, (str(m), sign)

    def test_weight_mapping(self, adjoint):
        for m in adjoint.basis:
            beta = adjoint.weight_of(m)
            for i in (1, 2):
                img = rm.lusztig_T(i, "+", adjoint.basis_vector(m))
                target = adjoint.datum.reflect(i, beta)
                assert all(adjoint.weight_of(mm) == target for mm in img)


def _column(mod, a, j):
    """Column j of a matrix on the pattern basis of `mod`, as a vector."""
    return rm.ModuleVector({mod.basis[r]: row[j] for r, row in enumerate(a) if j in row})


class TestSigma:
    def test_three_way_agreement(self):
        for l1, l2 in [(1, 0), (0, 1), (1, 1), (2, 0)]:
            mod = rm.ModuleVLambda(l1, l2)
            for i in (1, 2):
                flip = mod.matrix(f"flip{i}").rows
                assert flip == mod.matrix(f"N{i}").rows, (l1, l2, i)
                assert flip == mod.matrix(f"sigma{i}").rows, (l1, l2, i)

    def test_sigma_string_zero_length(self, vec3):
        # the weight-(0,-1) line is a trivial 1-string
        fixed = Pattern(0, 0, 0, 1, 0, 0)
        assert _column(vec3, vec3.matrix("flip1"), vec3.index[fixed]) == vec3.basis_vector(fixed)

    def test_sigma_string_flip(self, vec3):
        top = vec3.highest_vector()
        image = _column(vec3, vec3.matrix("flip1"), vec3.index[vec3.highest_pattern])
        assert image == rm.act_divided(1, "F", 1, top)

    def test_sigma_on_its_isotypic_lines(self):
        # oracle off the matrix path: on each isotypic line sigma^J is the
        # vector-path braid symmetry T_{w0(J)} times the line's prefactor, for
        # either branch; the lines are the basis patterns for J = {1, 2} and
        # the i-string vectors F_i^(k) top, of weight lam - k alpha_i, for J = {i}
        mod = rm.ModuleVLambda(2, 1)
        d = mod.datum
        for J in ((1,), (2,), (1, 2)):
            w0J = coxeter.longest_element(d, J)
            word = coxeter.reduced_word(w0J)
            rho_shift = cartan.shift(d.rho(J), cartan.weyl_act(d, w0J, d.rho(J)), -1)
            if len(J) == 2:
                lines = [(mod.highest_weight, mod.weight_of(m), mod.basis_vector(m))
                         for m in mod.basis]
            else:
                dec = mod.strings(J[0])
                lines = [(lam, beta, _column(mod, dec.basis, c))
                         for c, (lam, beta) in enumerate(dec.lines)]
            assert len(lines) == mod.dim
            for lam, beta, vec in lines:
                image = rm.sigma_J(J, mod, vec)
                prefactor = rm._prefactor(d, J, rho_shift, lam, beta)
                for sign in "+-":
                    pref = prefactor[sign]
                    assert image == rm.lusztig_T_word(word, sign, vec.scale(pref)), (J, sign)

    def test_prefactor_matches_the_per_line_reference(self):
        # reference: rho_J and w0J(rho_J) paired with lam on every line, as
        # separate forms; the change pairs lam once with their difference
        def reference(d, J, w0J, lam, beta, branch):
            sign_arg = cartan.shift(lam, beta, -1 if branch == "+" else 1)
            sign = -1 if rm._sign_exponent(d, J, sign_arg) % 2 else 1
            rho_j = d.rho(J)
            half_pair = (cartan.form(d, lam, rho_j)
                         - cartan.form(d, lam, cartan.weyl_act(d, w0J, rho_j)))
            vexp = -(cartan.form(d, lam, lam) - cartan.form(d, beta, beta)) - half_pair
            assert vexp.denominator == 1
            return RatFunc.monomial(int(vexp), sign)

        compared = 0
        for l1, l2 in suites.lambdas(4):
            mod = rm.ModuleVLambda(l1, l2)
            d = mod.datum
            for J in ((1,), (2,), (1, 2)):
                w0J = coxeter.longest_element(d, J)
                rho_shift = cartan.shift(d.rho(J), cartan.weyl_act(d, w0J, d.rho(J)), -1)
                lines = (mod.strings(J[0]).lines if len(J) == 1
                         else [(mod.highest_weight, beta) for beta in mod.weights])
                for lam, beta in lines:
                    prefactor = rm._prefactor(d, J, rho_shift, lam, beta)
                    assert list(prefactor) == ["+", "-"]
                    for sign, value in prefactor.items():
                        assert value == reference(d, J, w0J, lam, beta, sign), (
                            l1, l2, J, lam, beta, sign)
                        compared += 1
        assert compared == 2 * 3 * sum(rm.ModuleVLambda(*lam).dim for lam in suites.lambdas(4))

    def test_full_involution_on_highest(self, adjoint):
        w0 = coxeter.longest_element(adjoint.datum, (1, 2))
        image = rm.sigma_J((1, 2), adjoint, adjoint.highest_vector())
        assert image == rm.extremal_vector(w0, adjoint)

    def test_involution_adjoint(self, adjoint):
        for J in ((1,), (2,), (1, 2)):
            for m in adjoint.basis:
                b = adjoint.basis_vector(m)
                assert rm.sigma_J(J, adjoint, rm.sigma_J(J, adjoint, b)) == b, (J, str(m))

    def test_star_conjugation_adjoint(self, adjoint):
        for m in adjoint.basis:
            b = adjoint.basis_vector(m)
            assert rm.sigma_J((1, 2), adjoint, rm.sigma_J((1,), adjoint, b)) == rm.sigma_J(
                (2,), adjoint, rm.sigma_J((1, 2), adjoint, b)
            ), str(m)

    def test_branches_must_agree(self, monkeypatch):
        # a "-" branch whose prefactor is off by a sign must not go unnoticed
        prefactor = rm._prefactor

        def skewed(*args):
            value = prefactor(*args)
            return dict(value, **{"-": -value["-"]})

        monkeypatch.setattr(rm, "_prefactor", skewed)
        mod = rm.ModuleVLambda(1, 1)
        with pytest.raises(ArithmeticError, match="disagree"):
            rm.sigma_J((1,), mod, mod.highest_vector())
        by_name = {c["name"]: c for c in suites.sigma_checks([rm.ModuleVLambda(1, 1)])}
        for name in ("three-way-agreement", "involutions", "star-conjugation"):
            assert by_name[name]["status"] == "fail", name
            assert "disagree" in by_name[name]["witness"]["error"]
        assert by_name["T-braid"]["status"] == "pass"

    def test_empty_J_rejected(self, adjoint):
        with pytest.raises(ValueError):
            rm.sigma_J((), adjoint, adjoint.highest_vector())

    def test_weight_reflection(self, adjoint):
        d = adjoint.datum
        w0 = coxeter.longest_element(d, (1, 2))
        for m in adjoint.basis:
            img = rm.sigma_J((1, 2), adjoint, adjoint.basis_vector(m))
            target = cartan.weyl_act(d, w0, adjoint.weight_of(m))
            assert all(adjoint.weight_of(mm) == target for mm in img)


# -- oracles off the production divided-power path ----------------------------------------


def _act_divided_reference(i, kind, r, vec):
    """E_i^(r) or F_i^(r) pattern by pattern: every shift t in 1..r is tried
    and kept when it lands in the crystal, and the terms are summed by
    ModuleVector additions."""
    if r == 0:
        return vec
    out = rm.ModuleVector()
    for m, c in vec.items():
        mi, mj, mij, m0i = rm._pattern_parts(i, m)
        if kind == "E":
            lead, base = qarith.q_binomial(mi + mij, r), crystal.e_pow(i, r, m)
            cc, dd = mj + mij, mi + mij
        else:
            lead, base = qarith.q_binomial(mj + m0i, r), crystal.e_pow(i, -r, m)
            cc, dd = mi + m0i, mj + m0i
        if not lead.is_zero() and base.in_crystal:
            out = out + rm.ModuleVector({base: rm._qpoly(lead) * c})
        for t in range(1, r + 1):
            target = crystal.shift(base, i, t)
            if target.in_crystal:
                corr = RatFunc.of_poly(qarith.cg_coeff(r, t, cc, dd))
                out = out + rm.ModuleVector({target: corr * c})
    return out


def _triple_sum_groups(i, sign, vec):
    """Every term of the braid symmetry's triple sum of divided powers, with
    a, b and c each run until its divided power vanishes, summed by the group
    g = a - b + c and scaled by K on each output pattern's own weight."""
    plus = sign == "+"
    inner, mid, outer = ("F", "E", "F") if plus else ("E", "F", "E")
    groups = {}
    c = 0
    while not (vc := _act_divided_reference(i, inner, c, vec)).is_zero():
        b = 0
        while not (wcb := _act_divided_reference(i, mid, b, vc)).is_zero():
            a = 0
            while not (x := _act_divided_reference(i, outer, a, wcb)).is_zero():
                n = (a - c) if plus else (c - a)
                shift = 2 * n + (-1 if plus else 1)
                exp = 2 * (b - a * c) + 2 * n * ((a + c - b) if plus else (b - a - c))
                scalar = RatFunc.monomial(exp, -1 if b % 2 else 1)
                term = rm.ModuleVector(
                    {m: x * RatFunc.monomial(shift * crystal.wt(i, m)) * scalar
                     for m, x in x.items()})
                groups[a - b + c] = groups.get(a - b + c, rm.ModuleVector()) + term
                a += 1
            b += 1
        c += 1
    return groups


def _lusztig_T_reference(i, sign, vec):
    total = rm.ModuleVector()
    for group in _triple_sum_groups(i, sign, vec).values():
        total = total + group
    return total


class TestDividedPowerOracles:
    @pytest.mark.parametrize("lam", suites.lambdas(5), ids="{0[0]}-{0[1]}".format)
    def test_act_divided(self, lam):
        mod = rm.ModuleVLambda(*lam)
        # every basis pattern, then all of them at once with distinct coefficients
        vectors = [mod.basis_vector(m) for m in mod.basis]
        vectors.append(rm.ModuleVector(
            {m: RatFunc.monomial(k, k % 3 - 1 or 2) for k, m in enumerate(mod.basis)}))
        for vec in vectors:
            for i in (1, 2):
                for kind in ("E", "F"):
                    for r in range(sum(lam) + 3):
                        assert rm.act_divided(i, kind, r, vec) == (
                            _act_divided_reference(i, kind, r, vec)), (lam, str(vec), i, kind, r)

    @pytest.mark.parametrize("lam", suites.lambdas(4), ids="{0[0]}-{0[1]}".format)
    def test_matrix_T_columns(self, lam):
        mod = rm.ModuleVLambda(*lam)
        for i in (1, 2):
            for sign in ("+", "-"):
                for m in mod.basis:
                    expected = _lusztig_T_reference(i, sign, mod.basis_vector(m))
                    image = _column(mod, mod.matrix(f"T{i}{sign}"), mod.index[m])
                    assert image == expected, (lam, i, sign, str(m))

    def test_lusztig_T_on_mixed_weights(self):
        mod = rm.ModuleVLambda(3, 2)
        rng = random.Random(14)
        for _ in range(8):
            patterns = rng.sample(mod.basis, 5)
            vec = rm.ModuleVector(
                {m: RatFunc.monomial(rng.randint(-3, 3), rng.choice((1, -2, 3))) for m in patterns})
            assert len({mod.weight_of(m) for m in patterns}) > 1
            for i in (1, 2):
                for sign in ("+", "-"):
                    assert rm.lusztig_T(i, sign, vec) == _lusztig_T_reference(i, sign, vec)

    def test_dropped_groups_cancel(self):
        # on i-weight n only the group a - b + c = n (sign '+') or -n (sign '-')
        # reaches weight -n; lusztig_T drops the others, which must sum to zero
        mod = rm.ModuleVLambda(2, 2)
        dropped = 0
        for m in mod.basis:
            for i in (1, 2):
                n = crystal.wt(i, m)
                for sign, kept in (("+", n), ("-", -n)):
                    groups = _triple_sum_groups(i, sign, mod.basis_vector(m))
                    assert not groups[kept].is_zero()
                    for g, total in groups.items():
                        if g != kept:
                            dropped += 1
                            assert total.is_zero(), (str(m), i, sign, g)
        assert dropped

    @pytest.mark.parametrize("call", [
        lambda v: rm.act_divided(1, "X", 0, v),
        lambda v: rm.act_divided(1, "X", 2, rm.ModuleVector()),
        lambda v: rm.act_divided(3, "E", 1, rm.ModuleVector()),
        lambda v: rm.act_divided(0, "F", 0, v),
        lambda v: rm.lusztig_T(3, "+", rm.ModuleVector()),
        lambda v: rm.lusztig_T(0, "-", v),
    ])
    def test_bad_arguments_rejected(self, vec3, call):
        with pytest.raises(ValueError) as err:
            call(vec3.highest_vector())
        assert "\n" not in str(err.value)


class TestStringDecomposition:
    @pytest.mark.parametrize("lam", [(2, 1), (2, 2)])
    @pytest.mark.parametrize("i", [1, 2])
    def test_coordinates_reassemble_the_vector(self, lam, i):
        # S^{-1} gives string coordinates that S reassembles into any vector,
        # and the columns of S are the string vectors, each on its stated line:
        # the column at depth k is F_i^(k) of its string's top, which E_i kills
        mod = rm.ModuleVLambda(*lam)
        dec = mod.strings(i)
        assert linalg.is_identity(linalg.mat_mul(dec.basis, dec.inverse))
        assert len(dec.lines) == mod.dim
        for c, (top_weight, beta) in enumerate(dec.lines):
            vec = _column(mod, dec.basis, c)
            depth = (top_weight[i - 1] - beta[i - 1]) // 2
            top = _column(mod, dec.basis, c - depth)
            assert dec.lines[c - depth][1] == top_weight, (lam, i, c)
            assert rm.act_divided(i, "E", 1, top).is_zero(), (lam, i, c)
            assert vec == rm.act_divided(i, "F", depth, top), (lam, i, c)
            assert all(mod.weight_of(m) == beta for m in vec)
            mirrored = _column(mod, dec.basis, dec.reversal[c])
            assert all(mod.weight_of(m) == mod.datum.reflect(i, beta) for m in mirrored)

    def test_raising_operator_is_tabulated_once(self, monkeypatch):
        calls = Counter()
        act = rm.act_divided

        def counting(i, kind, r, vec):
            calls[i, kind, r] += 1
            return act(i, kind, r, vec)

        monkeypatch.setattr(rm, "act_divided", counting)
        mod = rm.ModuleVLambda(2, 2)
        for i in (1, 2):
            mod.strings(i)
            assert calls[i, "E", 1] == mod.dim == 27, i


class TestExtremalVectors:
    def test_identity(self, adjoint):
        assert rm.extremal_vector(adjoint.datum.identity, adjoint) == (
            adjoint.highest_vector()
        )

    def test_lowest(self, vec3):
        w0 = coxeter.longest_element(vec3.datum, (1, 2))
        low = rm.extremal_vector(w0, vec3)
        assert low == vec3.basis_vector(Pattern(0, 0, 0, 1, 0, 0))
        assert vec3.weight_of(Pattern(0, 0, 0, 1, 0, 0)) == (0, -1)

    def test_sigma_translation(self, adjoint):
        dc = adjoint.datum
        for w in dc.elements():
            ev = rm.extremal_vector(w, adjoint)
            for i in (1, 2):
                assert rm.sigma_J((i,), adjoint, ev) == rm.extremal_vector(
                    dc.generators[i] * w, adjoint)

    def test_reduced_word_independence(self):
        d = cartan.sl3()
        for lam in ((1, 0), (0, 1), (1, 1), (2, 2)):
            mod = rm.ModuleVLambda(*lam)
            vectors = []
            for word in ((1, 2, 1), (2, 1, 2)):
                exps = cartan.extremal_exponents(d, word, lam)
                v = mod.highest_vector()
                for k in range(2, -1, -1):
                    v = rm.act_divided(word[k], "F", exps[k], v)
                vectors.append(v)
            assert vectors[0] == vectors[1], lam

    def test_linear_independence(self, adjoint):
        dc = adjoint.datum
        family = []
        for w in dc.elements():
            v = rm.extremal_vector(w, adjoint)
            if all(v != u for u in family):
                family.append(v)
        rows = [linalg.Row({adjoint.index[m]: c for m, c in v.items()}) for v in family]
        assert linalg.rank(rows) == len(family)

    def test_T_on_extremal_pairs(self, adjoint):
        d = adjoint.datum
        dc = d
        lam = adjoint.highest_weight
        rho = d.rho()
        for w in dc.elements():
            for w2 in dc.elements():
                if coxeter.length(w * w2) != coxeter.length(w) + coxeter.length(w2):
                    continue
                ev = rm.extremal_vector(w2, adjoint)
                lhs = rm.lusztig_T_word(coxeter.reduced_word(w), "+", ev)
                exp = cartan.form(d, cartan.weyl_act(d, w2, lam), rho) - cartan.form(
                    d, cartan.weyl_act(d, w2, lam), cartan.weyl_act(d, w.inverse(), rho)
                )
                assert exp.denominator == 1
                rhs = rm.extremal_vector(w * w2, adjoint).scale(RatFunc.monomial(int(exp)))
                assert lhs == rhs


def _cancelled(mod, op):
    """A combination x of two basis vectors whose images under `op` share a
    pattern t, weighted so that the coefficient of t cancels in op(x); returns
    x, t and op(x) summed from the two images."""
    images = [(m, op(mod.basis_vector(m))) for m in mod.basis]
    for k, (m1, y1) in enumerate(images):
        for m2, y2 in images[k + 1:]:
            for t in (t for t in y1 if t in y2):
                x = rm.ModuleVector({m1: y2[t], m2: -y1[t]})
                return x, t, y1.scale(y2[t]) + y2.scale(-y1[t])
    raise AssertionError("no two images share a pattern")


class TestSparseSums:
    @pytest.mark.parametrize("op", [
        lambda v: rm.act_divided(1, "F", 1, v),
        lambda v: rm.act_divided(2, "E", 2, v),
        lambda v: rm.lusztig_T(1, "+", v),
        lambda v: rm.lusztig_T(2, "-", v),
    ], ids=["F1", "E2^(2)", "T1+", "T2-"])
    def test_cancellation_stores_no_zero(self, op):
        mod = rm.ModuleVLambda(2, 2)
        x, t, expected = _cancelled(mod, op)
        image = op(x)
        assert t not in image and not any(c.is_zero() for c in image.values())
        assert image == expected

    def test_add_drops_a_zero_sum(self, adjoint):
        m = adjoint.highest_pattern
        assert rm.ModuleVector({m: RatFunc.zero()}) == {}
        v = adjoint.highest_vector()
        v.add(m, RatFunc.scalar(-1))
        assert v.is_zero() and m not in v
        v.add(m, RatFunc.zero())
        assert m not in v
        v.add(m, RatFunc.monomial(1))
        assert v == {m: RatFunc.monomial(1)}


class TestOperatorMatrix:
    def test_is_a_linalg_matrix(self):
        mod = rm.ModuleVLambda(2, 1)
        n1 = mod.matrix("N1")
        assert all(isinstance(row, linalg.Row) for row in n1)
        assert linalg.is_identity(linalg.mat_mul(n1, n1))

    def test_export_roundtrip(self, vec3):
        n = vec3.matrix("N1")
        data = n.to_json()
        assert len(data) == 3 and len(data[0]) == 3
        assert data[0][2] == {"num": [[0, "1"]], "den": [[0, "1"]]}

    def test_unknown_tag(self, vec3):
        for tag in ("N10", "C3", "C", "X1"):
            with pytest.raises(ValueError):
                vec3.matrix(tag)
            assert tag not in vec3._matrices
