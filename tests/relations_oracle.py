"""The package's former relation suite and generator ladder, kept as the
oracles for the new ones.

`relation_differences` writes each defining relation of Y(sl2) as
`lhs op rhs` the way `yangian_weyl.ysl2.defining_relation_failures` did
before it came to test signed terms as one fused vanishing sum: both sides
are formed as matrices and subtracted or added.  A relation fails iff its
difference has a nonzero row.  Its generators come from `oracle_ladder`,
the ladder recursion on whole matrices that
`yangian_weyl.ysl2.extend_generators` ran before it came to run on Z[i]
rows over tracked scales.  `tests/test_ysl2.py` checks the package
against both.

Both run on dense rows of scalars with the loops of `dense_oracle`, and
read a package `Matrix` only through its entries, so neither runs the
package's row kernel `exact._row_sum`, which the ladder, the relation
suite and the series check all run.  `tests/test_ysl2.py` checks that
the oracles still answer with that kernel, `kron` and `Matrix @` made to
raise.
"""

from __future__ import annotations

from fractions import Fraction

from yangian_weyl.exact import GaussianRational, Matrix
from yangian_weyl.ysl2 import GeneratorLadder, SL2Module

from dense_oracle import add, dense, matmul, scale, sub

HALF = GaussianRational(Fraction(1, 2))


def _half(module: SL2Module, op) -> list:
    """(h_1 +/- h_0)/2 as dense rows, for `op` add or sub."""
    return scale(HALF, op(dense(module.h1), dense(module.h0)))


def half_diff(module: SL2Module) -> Matrix:
    """D = (h_1 - h_0)/2."""
    return Matrix(_half(module, sub))


def half_sum(module: SL2Module) -> Matrix:
    """S = (h_1 + h_0)/2."""
    return Matrix(_half(module, add))


def _ladder(module: SL2Module, K: int) -> dict:
    """{"+": x_k^+, "-": x_k^-, "h": h_k} for k = 0..K >= 1, dense, from
    the defining-relation recursion on whole matrices:
    x_{k+1}^+ = D x_k^+ - x_k^+ S and x_{k+1}^- = x_k^- D - S x_k^-, two
    products and one difference each, and h_k = [x_k^+, x_0^-] for k >= 2."""
    D, S = _half(module, sub), _half(module, add)
    x0m = dense(module.x0m)
    xp, xm = [dense(module.x0p)], [x0m]
    for _ in range(K):
        xp.append(sub(matmul(D, xp[-1]), matmul(xp[-1], S)))
        xm.append(sub(matmul(xm[-1], D), matmul(S, xm[-1])))
    h = [dense(module.h0), dense(module.h1)]
    for k in range(2, K + 1):
        h.append(sub(matmul(xp[k], x0m), matmul(x0m, xp[k])))
    return {"+": xp, "-": xm, "h": h}


def oracle_ladder(module: SL2Module, K: int) -> GeneratorLadder:
    """x_k^+/-, h_k for k = 0..K >= 1, as `_ladder` forms them."""
    gens = _ladder(module, K)
    return GeneratorLadder(module, *(tuple(map(Matrix, gens[g])) for g in "+-h"))


def _differences(module: SL2Module, K: int):
    """(name, lhs op rhs) for each defining relation, as dense rows.

    A family with x_k^+/- is written once for x in "+-": the x^- form
    differs only in the sign `op` of its symmetric term.
    """
    gens = _ladder(module, K)
    signs = (("+", "-"), ("-", "+"))  # x, and op for its symmetric term
    products = {}

    def mul(a, r, b, s):
        """a_r b_s, formed once per ladder."""
        key = (a, r, b, s)
        if key not in products:
            products[key] = matmul(gens[a][r], gens[b][s])
        return products[key]

    def label(g, k):
        return f"h{k}" if g == "h" else f"x{k}{g}"

    def bracket(a, r, b, s):
        return sub(mul(a, r, b, s), mul(b, s, a, r))

    def difference(name, lhs, op, rhs):
        return name, (sub if op == "-" else add)(lhs, rhs)

    for r in range(K + 1):
        for s in range(r + 1, K + 1):
            yield difference(f"[h{r},h{s}]", mul("h", r, "h", s), "-", mul("h", s, "h", r))
    for k in range(K + 1):
        for x, op in signs:
            X, twice = label(x, k), scale(2, gens[x][k])
            yield difference(f"[h0,{X}] {op} 2 {X}", bracket("h", 0, x, k), op, twice)
    for r in range(K + 1):
        for s in range(K + 1 - r):
            name = f"[x{r}+,x{s}-] - h{r+s}"
            yield difference(name, bracket("+", r, "-", s), "-", gens["h"][r + s])
    for left in ("x", "h"):
        for r in range(K):
            for s in range(K):
                for x, op in signs:
                    g = x if left == "x" else "h"
                    A0, A1 = label(g, r), label(g, r + 1)
                    X0, X1 = label(x, s), label(x, s + 1)
                    yield difference(
                        f"[{A1},{X0}] - [{A0},{X1}] {op} ({A0}{X0} + {X0}{A0})",
                        sub(bracket(g, r + 1, x, s), bracket(g, r, x, s + 1)),
                        op,
                        add(mul(g, r, x, s), mul(x, s, g, r)),
                    )


def relation_differences(module: SL2Module, K: int = 2):
    """(name, lhs op rhs) for each defining relation, as package matrices."""
    for name, diff in _differences(module, K):
        yield name, Matrix(diff)


def defining_relation_failures(module: SL2Module, K: int = 2) -> list:
    """Names of defining relations that fail as exact matrix identities."""
    return [name for name, diff in _differences(module, K) if any(map(any, diff))]
