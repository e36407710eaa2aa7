"""The pairwise tensor build, kept as the oracle for `ysl2.tensor_module`.

A module here is (factor_spec, basis_labels, generators), with the four
generators x_0^+/-, h_0 and h_1 as their nonzero entries; `read` puts a
package `SL2Module` in that form.  Each evaluation module is written from
its closed form, and the product is the left fold of the two-factor
coproduct
Delta(h_1) = h_1 (x) 1 + 1 (x) h_1 + h_0 (x) h_0 - 2 x_0^- (x) x_0^+
(and Delta(g) = g (x) 1 + 1 (x) g for g = x_0^+/-, h_0), with every term a
Kronecker product formed on entries by `dense_oracle`.  `tensor_module`
writes the same matrices in one pass over the mixed-radix basis; the two
must agree entry for entry.
"""

from __future__ import annotations

from yangian_weyl.exact import GaussianRational, as_scalar
from yangian_weyl.ysl2 import SL2Module

from dense_oracle import add, entries, identity, kron


def read(module: SL2Module) -> tuple:
    """A package module in the form of this oracle."""
    return module.factor_spec, module.basis_labels, tuple(map(entries, module.generators()))


def evaluation_module(m: int, a) -> tuple:
    """W_m(a) from x_0^+ w_s = (s+1) w_{s+1}, x_0^- w_s = (m-s+1) w_{s-1}
    and h_k w_s = ((s+a-1)^k s (m-s+1) - (s+a)^k (s+1)(m-s)) w_s."""
    a = as_scalar(a)
    xp, xm, h0, h1 = {}, {}, {}, {}
    for s in range(m + 1):
        lower, upper = s * (m - s + 1), (s + 1) * (m - s)
        h0[s, s] = GaussianRational(lower - upper)
        h1[s, s] = (s + a - 1) * lower - (s + a) * upper
        if s < m:
            xp[s + 1, s] = GaussianRational(s + 1)
            xm[s, s + 1] = GaussianRational(m - s)
    # add drops the zero diagonal entries of h_0 and h_1.
    return ((m, a),), tuple((s,) for s in range(m + 1)), (xp, xm, add((1, h0)), add((1, h1)))


def tensor_pair(left: tuple, right: tuple) -> tuple:
    """left (x) right under the coproduct of x_0^+/-, h_0 and h_1."""
    (lspec, llabels, (lp, lm, l0, l1)), (rspec, rlabels, (rp, rm, r0, r1)) = left, right
    n = len(rlabels)
    il, ir = identity(len(llabels)), identity(n)

    def delta(g, h):
        """g (x) 1 + 1 (x) h."""
        return add((1, kron(g, ir, n, n)), (1, kron(il, h, n, n)))

    h1 = add((1, delta(l1, r1)), (1, kron(l0, r0, n, n)), (-2, kron(lm, rp, n, n)))
    labels = tuple(ll + rl for ll in llabels for rl in rlabels)
    return lspec + rspec, labels, (delta(lp, rp), delta(lm, rm), delta(l0, r0), h1)


def tensor_module(spec) -> tuple:
    """Left-associated tensor product of evaluation modules."""
    module = evaluation_module(*spec[0])
    for m, a in spec[1:]:
        module = tensor_pair(module, evaluation_module(m, a))
    return module
