"""Symbolic simple rank-2 quantum-group modules on the pattern basis.

A ModuleVLambda carries the ordered pattern basis of one component, the
divided-power raising/lowering action, Gelfand-Tsetlin change-of-basis
matrices, modified braid-group symmetries, and the involutions built three
independent ways:

  * string flips S R S^{-1} on the string basis S from exact kernels,
  * conjugated permutation matrices N = C P C^{-1}, N2 moved from N1 by the
    outer involution (matrix_N),
  * the normalized symmetry prefactor times the braid operators.

Every operator is a matrix tabulated once per module from its action on the
basis (C_i, P_i, each T_i^+/-, S) or composed from those with `linalg`.

K-operators are never materialized: weight vectors are eigenvectors and all
scalars are explicit powers of v.
"""

from __future__ import annotations

from . import cartan, coxeter, crystal, linalg
from .cartan import Weight
from .crystal import Pattern
from .qarith import LaurentPoly, RatFunc, cg_coeff, q2_binomial, q_int


def _qpoly(p: LaurentPoly) -> RatFunc:
    return RatFunc.of_poly(p.compose_monomial(2))


class ModuleVector(linalg.Row):
    """A finite combination of basis keys with RatFunc coefficients, kept as
    the sparse `Row` {key: coefficient}, which stores no zeros.  The keys are
    crystal patterns: the basis patterns of a ModuleVLambda for a module
    vector, and the exponents of normal-ordered monomials for an element of
    the model algebra.
    """

    __slots__ = ()

    def __init__(self, coeffs: dict | None = None):
        super().__init__({m: c for m, c in (coeffs or {}).items() if not c.is_zero()})

    def add(self, m, value: RatFunc) -> None:
        """self[m] += value in place, dropping a zero sum."""
        prev = self.get(m)
        total = value if prev is None else prev + value
        if total.is_zero():
            self.pop(m, None)
        else:
            self[m] = total

    def is_zero(self) -> bool:
        return not self

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        out = ModuleVector(self)
        for m, c in other.items():
            out.add(m, c)
        return out

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        return self + other.scale(_MINUS_ONE)

    def scale(self, factor: RatFunc) -> "ModuleVector":
        if factor.is_zero():
            return ModuleVector()
        return ModuleVector({m: c * factor for m, c in self.items()})

    def __str__(self):
        if not self:
            return "0"
        return " + ".join(
            f"({c})*{m}" for m, c in sorted(self.items(), key=lambda kv: kv[0])
        )


_MINUS_ONE = RatFunc.scalar(-1)


class OperatorMatrix(linalg.Matrix):
    """A square matrix over RatFunc in the fixed pattern-basis order: the
    sparse rows that `linalg` composes."""

    @property
    def rows(self) -> list[list[RatFunc]]:
        """The dense view, zeros included, read only by perfbench's probes and the tests."""
        n = len(self)
        return [[row[j] for j in range(n)] for row in self]

    def to_json(self) -> list:
        """The dense rows for `module export`, densified one sparse row at a time."""
        return [[row[j].to_json() for j in range(len(self))] for row in self]


MATRIX_TAGS = ("C1", "C2", "P1", "P2", "N1", "N2")
_TAGS = MATRIX_TAGS + ("T1+", "T1-", "T2+", "T2-", "sigma1", "sigma2", "sigma12", "flip1", "flip2")


class ModuleVLambda:
    """The simple module with highest weight l1*w1 + l2*w2 on its pattern basis."""

    def __init__(self, l1: int, l2: int):
        if l1 < 0 or l2 < 0:
            raise ValueError("component indices must be nonnegative")
        self.l1, self.l2 = l1, l2
        self.datum = cartan.sl3()
        self.basis = crystal.enumerate_component(l1, l2)
        self.index = {m: k for k, m in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.weights = [crystal.weight_pair(m) for m in self.basis]
        self.highest_pattern = Pattern(0, 0, 0, 0, l1, l2)
        self.highest_weight = (l1, l2)
        blocks: dict[Weight, list[int]] = {}
        for k, w in enumerate(self.weights):
            blocks.setdefault(w, []).append(k)
        self.weight_blocks = blocks
        # j -> index of crystal.sigma_outer(basis[j]), which moves N1 to N2
        self.outer = [self.index[crystal.sigma_outer(m)] for m in self.basis]
        self._strings: dict[int, "_StringDecomposition"] = {}
        self._matrices: dict[str, OperatorMatrix] = {}

    def basis_vector(self, m: Pattern) -> ModuleVector:
        if m not in self.index:
            raise ValueError(f"pattern {m} is not in the ({self.l1},{self.l2}) component")
        return ModuleVector({m: RatFunc.one()})

    def highest_vector(self) -> ModuleVector:
        return self.basis_vector(self.highest_pattern)

    def weight_of(self, m: Pattern) -> Weight:
        return self.weights[self.index[m]]

    # -- operator matrices ----------------------------------------------------

    def matrix(self, tag: str) -> OperatorMatrix:
        """The operator matrix named by `tag`, built once: one of MATRIX_TAGS,
        a braid symmetry T{i}{sign}, a parabolic involution sigma{J} or a
        string flip flip{i}."""
        if tag not in self._matrices:
            if tag not in _TAGS:
                raise ValueError(f"unknown matrix tag {tag!r}; expected one of {_TAGS}")
            kind = tag.rstrip("12+-")
            index = tag[len(kind):].rstrip("+-")
            if kind == "T":
                built = matrix_T(int(index), tag[-1], self)
            elif kind == "sigma":
                built = matrix_sigma(tuple(map(int, index)), self)
            else:
                build = {"C": matrix_C, "P": matrix_P, "N": matrix_N, "flip": matrix_flip}[kind]
                built = build(int(index), self)
            self._matrices[tag] = built
        return self._matrices[tag]

    def strings(self, i: int) -> "_StringDecomposition":
        if i not in self._strings:
            self._strings[i] = _StringDecomposition(self, i)
        return self._strings[i]


# -- divided-power action -------------------------------------------------------


def _pattern_parts(i: int, m: Pattern) -> tuple[int, int, int, int]:
    """(m_i, m_j, m_ij, m_0i) for the given index."""
    if i == 1:
        return m.m1, m.m2, m.m12, m.m01
    return m.m2, m.m1, m.m21, m.m02


def act_divided(i: int, kind: str, r: int, vec: ModuleVector) -> ModuleVector:
    """Divided power E_i^(r) or F_i^(r) on a vector, by linear extension."""
    if i not in (1, 2):
        raise ValueError(f"index must be 1 or 2, got {i}")
    if kind not in ("E", "F"):
        raise ValueError(f"kind must be 'E' or 'F', got {kind!r}")
    if r < 0:
        raise ValueError("divided-power exponent must be nonnegative")
    if r == 0:
        return vec
    out = ModuleVector()
    for m, c in vec.items():
        mi, mj, mij, m0i = _pattern_parts(i, m)
        if kind == "E":
            lead = q2_binomial(mi + mij, r)
            base = crystal.e_pow(i, r, m)
            cc, dd = mj + mij, mi + mij
        else:
            lead = q2_binomial(mj + m0i, r)
            base = crystal.e_pow(i, -r, m)
            cc, dd = mi + m0i, mj + m0i
        if not lead.is_zero() and base.in_crystal:
            out.add(base, RatFunc.of_poly(lead) * c)
        # corrections sit along the +shift line for both kinds; the module
        # algebra and the commutator relation both pin this orientation.  The
        # shift lowers (m12, m01) for i = 1 and (m21, m02) for i = 2 and raises
        # the other two, which e_pow leaves at their nonnegative values in m
        lowered = (base.m12, base.m01) if i == 1 else (base.m21, base.m02)
        for t in range(1, min(r, *lowered) + 1):
            corr = cg_coeff(r, t, cc, dd)
            if not corr.is_zero():
                out.add(crystal.shift(base, i, t), RatFunc.of_poly(corr) * c)
    return out


def cartan_scalar(i: int, m: Pattern) -> RatFunc:
    """Action of (K_{alpha_i} - K_{-alpha_i})/(q_i - q_i^{-1}) on the pattern line."""
    return _qpoly(q_int(crystal.wt(i, m)))


# -- Gelfand-Tsetlin bases and conjugated permutations ------------------------------


def gt_vector(i: int, m: Pattern, mod: ModuleVLambda) -> ModuleVector:
    """The adapted basis vector E_i^(r_i) b_{e_i^{-r_i}(m)} with r_i = m_j + m_0i."""
    _, mj, _, m0i = _pattern_parts(i, m)
    r = mj + m0i
    return act_divided(i, "E", r, mod.basis_vector(crystal.e_pow(i, -r, m)))


def operator_matrix(mod: ModuleVLambda, fn) -> OperatorMatrix:
    """The matrix of a linear operator given by its action `fn` on basis
    patterns: column j is fn(mod.basis[j])."""
    rows = [linalg.Row() for _ in range(mod.dim)]
    for j, m in enumerate(mod.basis):
        for target, c in fn(m).items():
            rows[mod.index[target]][j] = c
    return OperatorMatrix(rows)


def matrix_C(i: int, mod: ModuleVLambda) -> OperatorMatrix:
    """Transition matrix whose column at m expands the adapted vector
    gt_vector(i, m) through the pattern basis: a q-binomial on the diagonal,
    corrections along the string-shift line above it."""
    return operator_matrix(mod, lambda m: gt_vector(i, m, mod))


def matrix_P(i: int, mod: ModuleVLambda) -> OperatorMatrix:
    """The crystal involution as a permutation matrix; basis_vector raises
    ValueError if it leaves the component."""
    return operator_matrix(mod, lambda m: mod.basis_vector(crystal.sigma_i(i, m)))


# N1 weight blocks formed so far in this process, by their three source blocks
# C1[s1 beta], P1[s1 beta <- beta] and C1[beta], each in local order
N1_BLOCKS: dict[tuple, linalg.Matrix] = {}


def _graded(tag: str, a: linalg.Matrix, mod: ModuleVLambda, image) -> dict[Weight, linalg.Matrix]:
    """{beta: the block of `a` from V_beta to V_image(beta)} in local order, cut in
    one pass over every entry; an entry whose row weight is not the image of its
    column weight raises ValueError naming `tag` and its row and column patterns."""
    local = {k: c for idxs in mod.weight_blocks.values() for c, k in enumerate(idxs)}
    images = {beta: image(beta) for beta in mod.weight_blocks}
    blocks = {beta: [linalg.Row() for _ in mod.weight_blocks.get(gamma, ())]
              for beta, gamma in images.items()}
    for r, row in enumerate(a):
        for k, x in row.items():
            beta = mod.weights[k]
            if images[beta] != mod.weights[r]:
                raise ValueError(f"{tag} has an entry outside its weight block at row "
                                 f"{mod.basis[r]}, column {mod.basis[k]}")
            blocks[beta][local[r]][local[k]] = x
    return blocks


def matrix_N(i: int, mod: ModuleVLambda) -> OperatorMatrix:
    """Matrix of the index-i involution on the pattern basis, C_i P_i C_i^{-1}.

    N1 is assembled one weight block at a time: C1 keeps each weight space
    V_beta and P1 sends it to V_{s1 beta}, so the block of N1 from V_beta is
    C1[s1 beta] P1[s1 beta <- beta] C1[beta]^{-1}.  Each block is formed once
    per process and kept in N1_BLOCKS, keyed by its three source blocks, since
    the modules of a sweep share their blocks.

    N2 is formed as P N1 P, P the permutation matrix of crystal.sigma_outer,
    once C2 = P C1 P and P2 = P P1 P are checked entry by entry; conjugating by
    a permutation commutes with products and inverses, so it equals
    C2 P2 C2^{-1}.  A failed check, at the first differing entry in basis
    order, or an entry of C1 or P1 outside its weight block raises ValueError
    naming the matrix and the entry by (row pattern, column pattern)."""
    if i == 2:
        n1 = mod.matrix("N1")
        for kind in ("C", "P"):
            moved = linalg.permute(mod.matrix(f"{kind}1"), mod.outer)
            for r, (x, y) in enumerate(zip(mod.matrix(f"{kind}2"), moved)):
                if x != y:
                    col = mod.basis[min(j for j in x.keys() | y.keys() if x[j] != y[j])]
                    raise ValueError(f"{kind}2 differs from P {kind}1 P at row "
                                     f"{mod.basis[r]}, column {col}")
        return OperatorMatrix(linalg.permute(n1, mod.outer))
    diag = _graded("C1", mod.matrix("C1"), mod, lambda beta: beta)
    moved = _graded("P1", mod.matrix("P1"), mod, lambda beta: mod.datum.reflect(1, beta))
    rows = [linalg.Row() for _ in range(mod.dim)]
    for beta, idxs in mod.weight_blocks.items():
        image = mod.datum.reflect(1, beta)
        sources = (diag[image], moved[beta], diag[beta])
        key = tuple(tuple(tuple(row.items()) for row in block) for block in sources)
        block = N1_BLOCKS.get(key)
        if block is None:
            c_inv = linalg.invert(diag[beta])
            block = N1_BLOCKS[key] = linalg.mat_mul(linalg.mat_mul(*sources[:2]), c_inv)
        for r, row in zip(mod.weight_blocks[image], block):
            rows[r] = linalg.Row({idxs[k]: x for k, x in row.items()})
    return OperatorMatrix(rows)


# -- modified braid-group symmetries ---------------------------------------------------


def lusztig_T(i: int, sign: str, vec: ModuleVector) -> ModuleVector:
    """The modified braid symmetry, Lusztig's triple sum of divided powers
    sandwiched between half-weight scalings (Introduction to Quantum Groups,
    5.2.1); maps V(beta) to V(s_i beta).

    On the part of i-weight k only the terms F^(a) E^(b) F^(c) with
    a - b + c = k (E^(a) F^(b) E^(c) with a - b + c = -k for sign '-') land in
    weight -k; every other group of terms cancels, so a is set, not summed."""
    if i not in (1, 2):
        raise ValueError(f"index must be 1 or 2, got {i}")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    plus = sign == "+"
    inner_kind, mid_kind, outer_kind = ("F", "E", "F") if plus else ("E", "F", "E")
    parts: dict[int, ModuleVector] = {}
    for m, coeff in vec.items():
        parts.setdefault(crystal.wt(i, m), ModuleVector())[m] = coeff
    out = ModuleVector()
    for weight, part in parts.items():
        c = 0
        while True:
            vc = act_divided(i, inner_kind, c, part)
            if vc.is_zero():
                break
            # a = weight + b - c for '+' and b - c - weight for '-', never negative
            b = max(0, c - weight if plus else c + weight)
            while True:
                wcb = act_divided(i, mid_kind, b, vc)
                if wcb.is_zero():
                    break
                a = weight + b - c if plus else b - c - weight
                x = act_divided(i, outer_kind, a, wcb)
                # the half-weight scalings, commuted past the divided powers;
                # x has i-weight -weight, where K_{(shift/2) alpha_i} is v^(-shift*weight)
                n = (a - c) if plus else (c - a)
                shift = 2 * n + (-1 if plus else 1)
                exp = 2 * (b - a * c) + 2 * n * ((a + c - b) if plus else (b - a - c))
                scalar = RatFunc.monomial(exp - shift * weight, -1 if b % 2 else 1)
                for m, coeff in x.items():
                    out.add(m, coeff * scalar)
                b += 1
            c += 1
    return out


def lusztig_T_word(word, sign: str, vec: ModuleVector) -> ModuleVector:
    """Composite symmetry along a word, rightmost letter applied first."""
    for i in reversed(tuple(word)):
        vec = lusztig_T(i, sign, vec)
    return vec


def matrix_T(i: int, sign: str, mod: ModuleVLambda) -> OperatorMatrix:
    """The braid symmetry T_i^sign, tabulated from lusztig_T on the basis."""
    return operator_matrix(mod, lambda m: lusztig_T(i, sign, mod.basis_vector(m)))


# -- string decompositions ---------------------------------------------------------------


class _StringDecomposition:
    """All i-strings of a module: top vectors from exact kernels of the raising
    operator on each weight block, divided-power descents, and the string
    basis S, whose columns are the string vectors, with its inverse."""

    def __init__(self, mod: ModuleVLambda, i: int):
        vectors: list[ModuleVector] = []
        # per column of S: the weight of its string's top and its own weight
        self.lines: list[tuple[Weight, Weight]] = []
        # per column of S: the column of the same string at the mirrored depth
        self.reversal: list[int] = []
        raising = operator_matrix(mod, lambda m: act_divided(i, "E", 1, mod.basis_vector(m)))
        alpha = mod.datum.simple_root(i)
        blocks = _graded(f"E{i}", raising, mod, lambda beta: cartan.shift(beta, alpha))
        for beta in sorted(mod.weight_blocks):
            idxs = mod.weight_blocks[beta]
            l = beta[i - 1]
            kernel = linalg.nullspace(blocks[beta], len(idxs))
            if l < 0 and kernel:
                raise RuntimeError("kernel vector on a negative-length string")
            for coords in kernel:
                top = ModuleVector({mod.basis[idxs[k]]: c for k, c in coords.items()})
                vectors.append(top)
                vectors.extend(act_divided(i, "F", depth, top) for depth in range(1, l + 1))
                if not act_divided(i, "F", l + 1, top).is_zero():
                    raise RuntimeError("string does not terminate at its stated length")
                start = len(self.lines)
                self.lines.extend((beta, cartan.shift(beta, alpha, -depth))
                                  for depth in range(l + 1))
                self.reversal.extend(range(start + l, start - 1, -1))
        if len(self.lines) != mod.dim:
            raise RuntimeError("string vectors do not fill the module")
        self.basis = operator_matrix(mod, lambda m: vectors[mod.index[m]])
        self.inverse = linalg.invert(self.basis)


def matrix_flip(i: int, mod: ModuleVLambda) -> OperatorMatrix:
    """The index-i involution by flipping every i-string: S R S^{-1}, where R
    reverses the depths within each string."""
    dec = mod.strings(i)
    # the reversal is an involution, so column c of S moves to reversal[c]
    flipped = [linalg.Row({dec.reversal[c]: x for c, x in row.items()}) for row in dec.basis]
    return OperatorMatrix(linalg.mat_mul(flipped, dec.inverse))


# -- normalized parabolic involutions ------------------------------------------------------


def _sign_exponent(d, J, arg: Weight) -> int:
    value = cartan.rho_functionals(d, J, arg)
    if value.denominator != 1:
        raise ArithmeticError(f"sign exponent {value} is not an integer")
    return int(value)


def _prefactor(d, J, rho_shift: Weight, lam: Weight, beta: Weight) -> dict[str, RatFunc]:
    """(-1)-sign and v-power multiplying the braid symmetry on one isotypic
    weight component, by branch; only the sign depends on the branch.

    The linear term must pair lam with rho_shift/2 = (rho_J - w0J(rho_J))/2,
    the half-sum of the positive roots of the parabolic; only differences of
    W_J-translates of rho_J are pinned down on isotypic components.
    """
    vexp = cartan.form(d, beta, beta) - cartan.form(d, lam, lam) - cartan.form(d, lam, rho_shift)
    if vexp.denominator != 1:
        raise ArithmeticError(f"prefactor exponent {vexp} is not an integer")
    return {branch: RatFunc.monomial(int(vexp), -1 if _sign_exponent(d, J, arg) % 2 else 1)
            for branch, arg in (("+", cartan.shift(lam, beta, -1)), ("-", cartan.shift(lam, beta)))}


def matrix_sigma(J: tuple[int, ...], mod: ModuleVLambda) -> OperatorMatrix:
    """The parabolic involution sigma^J: T_{w0(J)}, the product of the
    tabulated T_i along the reduced word, times the prefactor of each isotypic
    line.  For J = {1, 2} the lines are the basis patterns; for J = {i} they
    are the i-string vectors, the columns of S, so the prefactor diagonal D
    enters as S D S^{-1}.  Both prefactor branches are composed and must agree.
    """
    d = mod.datum
    w0J = coxeter.longest_element(d, J)
    word = coxeter.reduced_word(w0J)
    rho_shift = cartan.shift(d.rho(J), cartan.weyl_act(d, w0J, d.rho(J)), -1)
    dec = mod.strings(J[0]) if len(J) == 1 else None
    lines = dec.lines if dec else [(mod.highest_weight, beta) for beta in mod.weights]
    prefactors = [_prefactor(d, J, rho_shift, lam, beta) for lam, beta in lines]
    branches = []
    for sign in ("+", "-"):
        out = mod.matrix(f"T{word[0]}{sign}")
        for i in word[1:]:
            out = linalg.mat_mul(out, mod.matrix(f"T{i}{sign}"))
        if dec:
            out = linalg.mat_mul(out, dec.basis)
        pref = [p[sign] for p in prefactors]
        out = [linalg.Row({j: x * pref[j] for j, x in row.items()}) for row in out]
        branches.append(linalg.mat_mul(out, dec.inverse) if dec else out)
    if branches[0] != branches[1]:
        raise ArithmeticError("the two prefactor branches disagree")
    return OperatorMatrix(branches[0])


def sigma_J(J, mod: ModuleVLambda, vec: ModuleVector) -> ModuleVector:
    """The parabolic involution for a nonempty J in {1, 2}, applied to a vector
    of `mod` through its matrix."""
    J = tuple(sorted(set(J)))
    if not J:
        raise ValueError("J must be nonempty")
    column = [linalg.Row({0: vec[m]} if m in vec else ()) for m in mod.basis]
    image = linalg.mat_mul(mod.matrix("sigma" + "".join(map(str, J))), column)
    return ModuleVector({m: row[0] for m, row in zip(mod.basis, image)})


# -- extremal vectors -------------------------------------------------------------------------


def descend(word, mod: ModuleVLambda, vec: ModuleVector) -> ModuleVector:
    """F_(i_1)^(a_1) ... F_(i_m)^(a_m) vec, with the extremal exponents of the
    reduced word for the highest weight of `mod`."""
    exps = cartan.extremal_exponents(mod.datum, word, mod.highest_weight)
    for k in range(len(word) - 1, -1, -1):
        vec = act_divided(word[k], "F", exps[k], vec)
    return vec


def extremal_vector(w: coxeter.GroupElement, mod: ModuleVLambda) -> ModuleVector:
    """The w-extremal vector: the divided-power descent of the highest-weight
    line along the deterministic reduced word of w."""
    return descend(coxeter.reduced_word(w), mod, mod.highest_vector())
