"""Independent oracle for the involution identities.

N1 and N2 are specialised at a fixed rational v with `RatFunc.evaluate`, and
`N_i^2 = I` and `(N1 N2)^3 = I` are checked over Q with plain `Fraction`
products of sparse matrices.  Specialisation is a ring homomorphism wherever
the denominators do not vanish, so an identity over Q(v) must survive it.  This
path shares no code with `poly_gcd`, `divexact` or `linalg.is_identity`, so a
change that weakens structural equality cannot pass the benchmark silently.
"""

from __future__ import annotations

from fractions import Fraction

V_AT = Fraction(2, 3)
LAMBDAS = ((3, 3), (5, 5))

SparseMatrix = list[dict[int, Fraction]]


def specialise(rows, x: Fraction = V_AT) -> SparseMatrix:
    return [{j: e.evaluate(x) for j, e in enumerate(row) if not e.is_zero()} for row in rows]


def mul(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    out = []
    for row in a:
        acc: dict[int, Fraction] = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: v for j, v in acc.items() if v})
    return out


def is_identity(a: SparseMatrix) -> bool:
    return all(row == {i: 1} for i, row in enumerate(a))


def checks(lam: tuple[int, int], n1: SparseMatrix, n2: SparseMatrix) -> list[dict]:
    """One check record per identity, named like the CLI's checks."""
    l1, l2 = lam
    m = mul(n1, n2)
    results = (
        (f"oracle:involution-N1({l1},{l2})", is_identity(mul(n1, n1))),
        (f"oracle:involution-N2({l1},{l2})", is_identity(mul(n2, n2))),
        (f"oracle:cube({l1},{l2})", is_identity(mul(mul(m, m), m))),
    )
    return [{"name": name, "status": "pass" if ok else "fail"} for name, ok in results]
