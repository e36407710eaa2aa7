"""The package's former relation suite, kept as the oracle for the new one.

`relation_differences` writes each defining relation of Y(sl2) as
`lhs op rhs` the way `yangian_weyl.ysl2.defining_relation_failures` did
before it came to test signed terms as one fused vanishing sum: both sides
are formed as matrices and subtracted or added.  A relation fails iff its
difference has a nonzero row.  `tests/test_ysl2.py` checks the package
against it.
"""

from __future__ import annotations

from yangian_weyl.ysl2 import SL2Module, extend_generators


def relation_differences(module: SL2Module, K: int = 2):
    """(name, lhs op rhs) for each defining relation, as matrices.

    A family with x_k^+/- is written once for x in "+-": the x^- form
    differs only in the sign `op` of its symmetric term.
    """
    ladder = extend_generators(module, K)
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
