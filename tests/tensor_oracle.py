"""The pairwise tensor build, kept as the oracle for `ysl2.tensor_module`.

Each evaluation module is written from its dense closed form, and the
product is the left fold of the two-factor coproduct
Delta(h_1) = h_1 (x) 1 + 1 (x) h_1 + h_0 (x) h_0 - 2 x_0^- (x) x_0^+
(and Delta(g) = g (x) 1 + 1 (x) g for g = x_0^+/-, h_0), with every term a
Kronecker product formed by the dense loops of `dense_oracle`.
`tensor_module` writes the same matrices in one pass over the mixed-radix
basis; the two must agree as `SL2Module`s.
"""

from __future__ import annotations

from yangian_weyl.exact import GaussianRational, Matrix, ZERO, as_scalar
from yangian_weyl.ysl2 import SL2Module

from dense_oracle import add, dense, identity, kron, scale, sub


def evaluation_module(m: int, a) -> SL2Module:
    """W_m(a) from x_0^+ w_s = (s+1) w_{s+1}, x_0^- w_s = (m-s+1) w_{s-1}
    and h_k w_s = ((s+a-1)^k s (m-s+1) - (s+a)^k (s+1)(m-s)) w_s."""
    a = as_scalar(a)
    n = m + 1
    xp, xm, h0, h1 = ([[ZERO] * n for _ in range(n)] for _ in range(4))
    for s in range(n):
        lower, upper = s * (m - s + 1), (s + 1) * (m - s)
        h0[s][s] = GaussianRational(lower - upper)
        h1[s][s] = (s + a - 1) * lower - (s + a) * upper
        if s < m:
            xp[s + 1][s] = GaussianRational(s + 1)
            xm[s][s + 1] = GaussianRational(m - s)
    return SL2Module(((m, a),), tuple((s,) for s in range(n)), *map(Matrix, (xp, xm, h0, h1)))


def tensor_pair(left: SL2Module, right: SL2Module) -> SL2Module:
    """left (x) right under the coproduct of x_0^+/-, h_0 and h_1."""
    lp, lm, l0, l1 = map(dense, left.generators())
    rp, rm, r0, r1 = map(dense, right.generators())
    il, ir = identity(left.dim), identity(right.dim)
    x0p = add(kron(lp, ir), kron(il, rp))
    x0m = add(kron(lm, ir), kron(il, rm))
    h0 = add(kron(l0, ir), kron(il, r0))
    h1 = sub(add(add(kron(l1, ir), kron(il, r1)), kron(l0, r0)), scale(2, kron(lm, rp)))
    labels = tuple(ll + rl for ll in left.basis_labels for rl in right.basis_labels)
    return SL2Module(
        left.factor_spec + right.factor_spec, labels, *map(Matrix, (x0p, x0m, h0, h1))
    )


def tensor_module(spec) -> SL2Module:
    """Left-associated tensor product of evaluation modules."""
    module = evaluation_module(*spec[0])
    for m, a in spec[1:]:
        module = tensor_pair(module, evaluation_module(m, a))
    return module
