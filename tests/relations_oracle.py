"""The package's former relation suite and generator ladder, kept as the
oracles for the new ones.

`relation_differences` writes each defining relation of Y(sl2) as
`lhs op rhs` the way `yangian_weyl.ysl2.defining_relation_failures` did
before it came to test signed terms as one fused vanishing sum: both sides
are formed as matrices and subtracted or added.  A relation fails iff its
difference has a nonzero row.  Its generators come from `oracle_ladder`,
the ladder recursion on `Matrix` products that
`yangian_weyl.ysl2.extend_generators` ran before it came to run on Z[i]
rows over tracked scales.  `tests/test_ysl2.py` checks the package
against both.

Its products, sums and scalings are `Matrix` operations, so they run the
package's one row kernel, `exact._row_sum`, the same kernel the ladder and
the series check use.  The kernel's independent check is
`tests/test_exact.py::_check_against_dense_loops`, which compares every
`Matrix` operation with dense loops over scalars on both entry strategies
(small entries and wide denominators).
"""

from __future__ import annotations

from fractions import Fraction

from yangian_weyl.exact import GaussianRational, Matrix
from yangian_weyl.ysl2 import GeneratorLadder, SL2Module

HALF = GaussianRational(Fraction(1, 2))


def half_diff(module: SL2Module) -> Matrix:
    """D = (h_1 - h_0)/2."""
    return (module.h1 - module.h0).scale(HALF)


def half_sum(module: SL2Module) -> Matrix:
    """S = (h_1 + h_0)/2."""
    return (module.h1 + module.h0).scale(HALF)


def oracle_ladder(module: SL2Module, K: int) -> GeneratorLadder:
    """x_k^+/-, h_k for k = 0..K >= 1 from the defining-relation
    recursion on whole matrices: x_{k+1}^+ = D x_k^+ - x_k^+ S and
    x_{k+1}^- = x_k^- D - S x_k^-, two products and one difference each,
    and h_k = [x_k^+, x_0^-] for k >= 2."""
    D, S = half_diff(module), half_sum(module)
    xp = [module.x0p]
    xm = [module.x0m]
    for _ in range(K):
        xp.append(D @ xp[-1] - xp[-1] @ S)
        xm.append(xm[-1] @ D - S @ xm[-1])
    h = [module.h0, module.h1]
    for k in range(2, K + 1):
        h.append(xp[k] @ module.x0m - module.x0m @ xp[k])
    return GeneratorLadder(module, tuple(xp), tuple(xm), tuple(h))


def relation_differences(module: SL2Module, K: int = 2):
    """(name, lhs op rhs) for each defining relation, as matrices.

    A family with x_k^+/- is written once for x in "+-": the x^- form
    differs only in the sign `op` of its symmetric term.
    """
    ladder = oracle_ladder(module, K)
    gens = {"+": ladder.xp, "-": ladder.xm, "h": ladder.h}
    signs = (("+", "-"), ("-", "+"))  # x, and op for its symmetric term
    products = {}

    def mul(a, r, b, s):
        """a_r b_s, formed once per ladder."""
        key = (a, r, b, s)
        if key not in products:
            products[key] = gens[a][r] @ gens[b][s]
        return products[key]

    def label(g, k):
        return f"h{k}" if g == "h" else f"x{k}{g}"

    def bracket(a, r, b, s):
        return mul(a, r, b, s) - mul(b, s, a, r)

    def difference(name, lhs, op, rhs):
        return name, lhs - rhs if op == "-" else lhs + rhs

    for r in range(K + 1):
        for s in range(r + 1, K + 1):
            yield difference(f"[h{r},h{s}]", mul("h", r, "h", s), "-", mul("h", s, "h", r))
    for k in range(K + 1):
        for x, op in signs:
            X, twice = label(x, k), gens[x][k].scale(2)
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
                        bracket(g, r + 1, x, s) - bracket(g, r, x, s + 1),
                        op,
                        mul(g, r, x, s) + mul(x, s, g, r),
                    )


def defining_relation_failures(module: SL2Module, K: int = 2) -> list:
    """Names of defining relations that fail as exact matrix identities."""
    return [name for name, diff in relation_differences(module, K) if any(diff.rows)]
