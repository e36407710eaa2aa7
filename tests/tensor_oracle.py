"""The pairwise tensor build, kept as the oracle for `ysl2.tensor_module`.

Each evaluation module is written from its dense closed form, and the
product is the left fold of the two-factor coproduct
Delta(h_1) = h_1 (x) 1 + 1 (x) h_1 + h_0 (x) h_0 - 2 x_0^- (x) x_0^+
(and Delta(g) = g (x) 1 + 1 (x) g for g = x_0^+/-, h_0), with every term a
Kronecker product.  `tensor_module` writes the same matrices in one pass
over the mixed-radix basis; the two must agree as `SL2Module`s.
"""

from __future__ import annotations

from yangian_weyl.exact import GaussianRational, Matrix, ZERO, as_scalar, kron
from yangian_weyl.ysl2 import SL2Module


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
    return SL2Module(
        factor_spec=((m, a),),
        basis_labels=tuple((s,) for s in range(n)),
        x0p=Matrix(xp),
        x0m=Matrix(xm),
        h0=Matrix(h0),
        h1=Matrix(h1),
    )


def tensor_pair(left: SL2Module, right: SL2Module) -> SL2Module:
    """left (x) right under the coproduct of x_0^+/-, h_0 and h_1."""
    il = Matrix.identity(left.dim)
    ir = Matrix.identity(right.dim)
    x0p = kron(left.x0p, ir) + kron(il, right.x0p)
    x0m = kron(left.x0m, ir) + kron(il, right.x0m)
    h0 = kron(left.h0, ir) + kron(il, right.h0)
    h1 = (
        kron(left.h1, ir)
        + kron(il, right.h1)
        + kron(left.h0, right.h0)
        - kron(left.x0m, right.x0p).scale(2)
    )
    labels = tuple(
        ll + rl for ll in left.basis_labels for rl in right.basis_labels
    )
    return SL2Module(
        factor_spec=left.factor_spec + right.factor_spec,
        basis_labels=labels,
        x0p=x0p,
        x0m=x0m,
        h0=h0,
        h1=h1,
    )


def tensor_module(spec) -> SL2Module:
    """Left-associated tensor product of evaluation modules."""
    module = evaluation_module(*spec[0])
    for m, a in spec[1:]:
        module = tensor_pair(module, evaluation_module(m, a))
    return module
