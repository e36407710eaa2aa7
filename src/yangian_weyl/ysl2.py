"""Exact rank-one Yangian engine: evaluation modules, tensor products,
generator ladders, and brute-force cyclicity oracles.

Evaluation modules carry the closed-form action of x_0^+/-, h_0 and h_1,
tensor products the coproduct of those four; all higher generators, x_1^+/-
included, come from the defining-relation recursion, exact on any module.

The top tensor vector v is a highest-weight vector, so it generates Y^- v.
As h_0 is a scalar on each weight space, the recursion for x_{k+1}^- makes
level r+1 of Y^- v (r+1 lowering steps below v) equal to C[h_1] x_0^- of
level r: `lowering_levels` spins the levels one at a time with x_0^- and h_1
only.  `submodule_dimension` spins any seed under all six level-0/1
generators and stays as the independent cross-check.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterator, Sequence, Tuple

from .exact import (
    GaussianRational,
    Matrix,
    ONE,
    ZERO,
    _RrefBasis,
    _UNIT,
    _add_multiples,
    as_scalar,
    kron,
    row_space_closure,
)

HALF = GaussianRational(Fraction(1, 2))


@dataclass(frozen=True)
class SL2Module:
    """Level-0/1 generator matrices; x_1^+/- are derived on first access."""

    factor_spec: Tuple[Tuple[int, GaussianRational], ...]
    basis_labels: Tuple[Tuple[int, ...], ...]
    x0p: Matrix
    x0m: Matrix
    h0: Matrix
    h1: Matrix

    @cached_property
    def x1p(self) -> Matrix:
        return _next_xp(self, self.x0p)

    @cached_property
    def x1m(self) -> Matrix:
        return _next_xm(self, self.x0m)

    @cached_property
    def _half_diff(self) -> Matrix:
        return (self.h1 - self.h0).scale(HALF)

    @cached_property
    def _half_sum(self) -> Matrix:
        return (self.h1 + self.h0).scale(HALF)

    @property
    def dim(self) -> int:
        return len(self.basis_labels)

    @property
    def highest_index(self) -> int:
        top = tuple(m for m, _ in self.factor_spec)
        return self.basis_labels.index(top)

    def generators(self) -> Tuple[Matrix, ...]:
        return (self.x0p, self.x0m, self.x1p, self.x1m, self.h0, self.h1)

    def basis_index(self, label: Tuple[int, ...]) -> int:
        return self.basis_labels.index(label)


def evaluation_module(m: int, a) -> SL2Module:
    """The (m+1)-dimensional evaluation module with parameter a.

    Basis w_0 .. w_m; the highest weight vector is w_m.  Closed-form action:
    x_k^+ w_s = (s+a)^k (s+1) w_{s+1}
    x_k^- w_s = (s+a-1)^k (m-s+1) w_{s-1}
    h_k  w_s = ((s+a-1)^k s (m-s+1) - (s+a)^k (s+1)(m-s)) w_s
    """
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError("m must be a positive integer")
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


# The ladder steps of `extend_generators`, factored with D = (h_1 - h_0)/2
# and S = (h_1 + h_0)/2 so that each takes two products and one difference:
# x_{k+1}^+ = D x_k^+ - x_k^+ S and x_{k+1}^- = x_k^- D - S x_k^-.


def _next_xm(module: SL2Module, xkm: Matrix) -> Matrix:
    return xkm @ module._half_diff - module._half_sum @ xkm


def _next_xp(module: SL2Module, xkp: Matrix) -> Matrix:
    return module._half_diff @ xkp - xkp @ module._half_sum


def _tensor_pair(left: SL2Module, right: SL2Module) -> SL2Module:
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


def tensor_module(spec: Sequence[Tuple[int, object]]) -> SL2Module:
    """Left-associated tensor product of evaluation modules."""
    if not spec:
        raise ValueError("empty factor list")
    module = evaluation_module(*spec[0])
    for m, a in spec[1:]:
        module = _tensor_pair(module, evaluation_module(m, a))
    return module


@dataclass(frozen=True)
class GeneratorLadder:
    """Matrices of x_k^+/-, h_k for k = 0..K on a fixed module."""

    module: SL2Module
    xp: Tuple[Matrix, ...]
    xm: Tuple[Matrix, ...]
    h: Tuple[Matrix, ...]

    @property
    def order(self) -> int:
        return len(self.h) - 1


def extend_generators(module: SL2Module, K: int) -> GeneratorLadder:
    """Generators up to level K from the defining-relation recursion:
    x_{k+1}^- = -1/2([h_1, x_k^-] + h_0 x_k^- + x_k^- h_0),
    x_{k+1}^+ = +1/2([h_1, x_k^+] - h_0 x_k^+ - x_k^+ h_0),
    h_k = [x_k^+, x_0^-].
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    xp = [module.x0p, module.x1p]
    xm = [module.x0m, module.x1m]
    for _ in range(K - 1):
        xm.append(_next_xm(module, xm[-1]))
        xp.append(_next_xp(module, xp[-1]))
    h = [module.h0, module.h1]
    h.extend(xp[k] @ module.x0m - module.x0m @ xp[k] for k in range(2, K + 1))
    return GeneratorLadder(module, tuple(xp), tuple(xm), tuple(h))


def submodule_dimension(module: SL2Module, seed) -> int:
    """Dimension of the submodule seed generates, spun under all six generators."""
    dim, _ = row_space_closure(module.generators(), seed)
    return dim


def _spin_levels(module: SL2Module) -> Iterator[Tuple[int, int]]:
    """(dim W_r, dim V_r) for r = 0 .. sum(m).  V_r is spanned by the basis
    vectors r lowering steps below the top; W_r, the part of Y top in V_r, is
    spun as W_0 = <top>, W_{r+1} = C[h_1] x_0^- W_r.  A level that fills V_r
    is closed under h_1 already, so its spinning stops there."""
    top = sum(m for m, _ in module.factor_spec)
    sizes = Counter(top - sum(label) for label in module.basis_labels)
    level = [{module.highest_index: _UNIT}]
    yield 1, 1
    for r in range(1, top + 1):
        basis = _RrefBasis(module.dim)
        queue = deque((module.x0m, vec) for vec in level)
        while queue and len(basis.rows) < sizes[r]:
            g, vec = queue.popleft()
            row = basis.insert(g.apply(vec))
            if row is not None:
                queue.append((module.h1, row))
        level = list(basis.rows.values())
        yield len(level), sizes[r]


def lowering_levels(module: SL2Module) -> Tuple[int, ...]:
    """dim W_r for every depth r = 0 .. sum(m) below the top vector; their
    sum is the dimension of the submodule the top vector generates."""
    return tuple(w for w, _ in _spin_levels(module))


def is_highest_weight(spec: Sequence[Tuple[int, object]]) -> bool:
    """True iff the ordered tensor product is generated by its top vector;
    the spin stops at the first level that falls short of its weight space."""
    return all(w == v for w, v in _spin_levels(tensor_module(spec)))


def is_irreducible(spec: Sequence[Tuple[int, object]]) -> bool:
    """Brute-force irreducibility for chains of two-dimensional factors.

    The product is irreducible iff both it and its left dual are highest
    weight; dualizing reverses the order and shifts every parameter by the
    same constant, which cancels in all differences, so the reversed spec
    is spun directly.
    """
    if any(m != 1 for m, _ in spec):
        raise ValueError("irreducibility oracle supports two-dimensional factors only")
    return is_highest_weight(spec) and is_highest_weight(tuple(reversed(tuple(spec))))


def _h_on_top(module: SL2Module, order: int) -> Iterator[dict]:
    """h_k applied to the top vector, for k = 0..order, as sparse vectors.

    h_k = [x_k^+, x_0^-] as in `extend_generators`, but only x_k^+ is built
    (x_1^+ and then the recursion), and the commutator acts on the top
    vector through two sparse applications instead of two matrix products.
    """
    top = {module.highest_index: _UNIT}
    down = module.x0m.apply(top)
    minus = (-1, 0, 1)
    xp = module.x0p
    for k in range(order + 1):
        if k:
            xp = module.x1p if k == 1 else _next_xp(module, xp)
        up = module.x0m.apply(xp.apply(top))
        yield _add_multiples(xp.apply(down), ((minus, up),))


def verify_drinfeld_series(spec: Sequence[Tuple[int, object]], order: int) -> bool:
    """Check that h_k acts on the top tensor vector by the coefficients of
    the product eigenvalue series, for all k <= order."""
    from .drinfeld import eigenvalue_series

    module = tensor_module(spec)
    roots = []
    for m, a in spec:
        a = as_scalar(a)
        roots.extend(a + s for s in range(m))
    series = eigenvalue_series(roots, 1, order + 1)
    top = module.highest_index
    return all(
        image == ({top: c.triple} if c else {})
        for image, c in zip(_h_on_top(module, order), series.coeffs[1:])
    )


def trivial_submodule_check(a) -> bool:
    """In W_1(a+1) (x) W_1(a), the vector v+ (x) w- - v- (x) w+ is killed by
    all six generators."""
    a = as_scalar(a)
    module = tensor_module([(1, a + 1), (1, a)])
    v0 = [ZERO] * module.dim
    v0[module.basis_index((1, 0))] = ONE
    v0[module.basis_index((0, 1))] = -ONE
    v0 = tuple(v0)
    return all(
        all(not e for e in g.matvec(v0)) for g in module.generators()
    )


def defining_relation_failures(module: SL2Module, K: int = 2) -> list:
    """Names of defining relations that fail as exact matrix identities.

    Each relation is checked as `lhs op rhs == 0`.  A family with x_k^+/-
    is written once for x in "+-": the x^- form differs only in the sign
    `op` of its symmetric term.  Each generator product is formed once.
    """
    ladder = extend_generators(module, K)
    gens = {"+": ladder.xp, "-": ladder.xm, "h": ladder.h}
    signs = (("+", "-"), ("-", "+"))  # x, and op for its symmetric term
    failures = []

    def label(g, k):
        return f"h{k}" if g == "h" else f"x{k}{g}"

    @cache
    def mul(a, r, b, s):
        return gens[a][r] @ gens[b][s]

    def bracket(a, r, b, s):
        return mul(a, r, b, s) - mul(b, s, a, r)

    def check(name, lhs, op, rhs):
        if not (lhs - rhs if op == "-" else lhs + rhs).is_zero():
            failures.append(name)

    for r in range(K + 1):
        for s in range(r + 1, K + 1):  # [h_r, h_r] is zero on any matrix
            check(f"[h{r},h{s}]", mul("h", r, "h", s), "-", mul("h", s, "h", r))
    for k in range(K + 1):
        for x, op in signs:
            X, twice = label(x, k), gens[x][k].scale(2)
            check(f"[h0,{X}] {op} 2 {X}", bracket("h", 0, x, k), op, twice)
    for r in range(K + 1):
        for s in range(K + 1 - r):
            name = f"[x{r}+,x{s}-] - h{r+s}"
            check(name, bracket("+", r, "-", s), "-", gens["h"][r + s])
    for left in ("x", "h"):
        for r in range(K):
            for s in range(K):
                for x, op in signs:
                    g = x if left == "x" else "h"
                    A0, A1 = label(g, r), label(g, r + 1)
                    X0, X1 = label(x, s), label(x, s + 1)
                    check(
                        f"[{A1},{X0}] - [{A0},{X1}] {op} ({A0}{X0} + {X0}{A0})",
                        bracket(g, r + 1, x, s) - bracket(g, r, x, s + 1),
                        op,
                        mul(g, r, x, s) + mul(x, s, g, r),
                    )
    return failures
