"""The package's former relation suite and generator ladder, kept as the
oracles for the new ones.

`Relations.differences` writes each defining relation of Y(sl2) as
`lhs op rhs` the way `yangian_weyl.ysl2.defining_relation_failures` did
before it came to test signed terms as one fused vanishing sum: both sides
are formed as matrices and subtracted or added.  A relation fails iff its
difference has a nonzero entry.  Its generators come from
`Relations.ladder`, the ladder recursion on whole matrices that
`yangian_weyl.ysl2.extend_generators` ran before it came to run on Z[i]
rows over tracked scales.  `tests/test_ysl2.py` checks the package
against both; `test_relation_failures_on_perturbed_modules` takes the
failures it expects of each module with one generator doubled from
`Relations.failures`.

A `Relations` holds one module's ladder, grown to the largest level asked
for, and every product, bracket and difference it forms, each formed
once, so the suites at K = 1, 2 and 3 share their work.  Both run on
nonzero scalar entries with the routines of `dense_oracle`, and read a
package `Matrix` only through its entries, so neither runs the package's
row kernel `exact._row_sum`, which the ladder, the relation suite and the
series check all run.  `tests/test_ysl2.py` checks that the oracles still
answer with that kernel, `kron`, `Matrix @` and the echelon made to
raise.
"""

from __future__ import annotations

from fractions import Fraction

from yangian_weyl.exact import GaussianRational
from yangian_weyl.ysl2 import SL2Module

from dense_oracle import add, entries, matmul

HALF = GaussianRational(Fraction(1, 2))


def _label(g, k):
    return f"h{k}" if g == "h" else f"x{k}{g}"


class Relations:
    """The ladder and the relation suite of one module, on entries."""

    def __init__(self, module: SL2Module):
        x0p, x0m, h0, h1 = map(entries, module.generators())
        # D = (h_1 - h_0)/2 and S = (h_1 + h_0)/2.
        self.D, self.S = add((HALF, h1), (-HALF, h0)), add((HALF, h1), (HALF, h0))
        self.gens = {"+": [x0p], "-": [x0m], "h": [h0, h1]}
        self.formed = {}

    def _once(self, key, form) -> dict:
        """form(), formed once per module and kept under key."""
        if key not in self.formed:
            self.formed[key] = form()
        return self.formed[key]

    def mul(self, a, r, b, s) -> dict:
        """a_r b_s."""
        return self._once((a, r, b, s), lambda: matmul(self.gens[a][r], self.gens[b][s]))

    def bracket(self, a, r, b, s) -> dict:
        """[a_r, b_s]."""
        return self._once(
            ("[]", a, r, b, s), lambda: add((1, self.mul(a, r, b, s)), (-1, self.mul(b, s, a, r))))

    def ladder(self, K: int) -> tuple:
        """(x^+, x^-, h), the lists of x_k^+, x_k^- and h_k for k = 0..K >= 1,
        from the defining-relation recursion on whole matrices:
        x_{k+1}^+ = D x_k^+ - x_k^+ S and x_{k+1}^- = x_k^- D - S x_k^-,
        two products and one difference each, and h_k = [x_k^+, x_0^-] for
        k >= 2."""
        xp, xm, h = (self.gens[g] for g in "+-h")
        while len(xp) <= K:
            xp.append(add((1, matmul(self.D, xp[-1])), (-1, matmul(xp[-1], self.S))))
            xm.append(add((1, matmul(xm[-1], self.D)), (-1, matmul(self.S, xm[-1]))))
        while len(h) <= K:
            h.append(self.bracket("+", len(h), "-", 0))
        return xp[: K + 1], xm[: K + 1], h[: K + 1]

    def differences(self, K: int):
        """(name, lhs op rhs) for each defining relation at levels up to K.

        A family with x_k^+/- is written once for x in "+-": the x^- form
        differs only in the sign `op` of its symmetric term.
        """
        self.ladder(K)
        gens, mul, bracket = self.gens, self.mul, self.bracket
        signs = (("+", "-"), ("-", "+"))  # x, and op for its symmetric term

        def difference(name, lhs, op, rhs, c=1):
            """(name, lhs() op c rhs()), its sides formed only on the first
            ask for the name."""
            return name, self._once(name, lambda: add((1, lhs()), (-c if op == "-" else c, rhs())))

        for r in range(K + 1):
            for s in range(r + 1, K + 1):
                yield difference(
                    f"[h{r},h{s}]", lambda: mul("h", r, "h", s), "-", lambda: mul("h", s, "h", r))
        for k in range(K + 1):
            for x, op in signs:
                X = _label(x, k)
                yield difference(
                    f"[h0,{X}] {op} 2 {X}", lambda: bracket("h", 0, x, k), op, lambda: gens[x][k], 2)
        for r in range(K + 1):
            for s in range(K + 1 - r):
                name = f"[x{r}+,x{s}-] - h{r+s}"
                yield difference(
                    name, lambda: bracket("+", r, "-", s), "-", lambda: gens["h"][r + s])
        for left in ("x", "h"):
            for r in range(K):
                for s in range(K):
                    for x, op in signs:
                        g = x if left == "x" else "h"
                        A0, A1 = _label(g, r), _label(g, r + 1)
                        X0, X1 = _label(x, s), _label(x, s + 1)
                        yield difference(
                            f"[{A1},{X0}] - [{A0},{X1}] {op} ({A0}{X0} + {X0}{A0})",
                            lambda: add((1, bracket(g, r + 1, x, s)), (-1, bracket(g, r, x, s + 1))),
                            op,
                            lambda: add((1, mul(g, r, x, s)), (1, mul(x, s, g, r))),
                        )

    def failures(self, K: int) -> list:
        """Names of defining relations that fail as exact matrix identities."""
        return [name for name, diff in self.differences(K) if diff]
