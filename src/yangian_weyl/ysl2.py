"""Exact rank-one Yangian engine: evaluation modules, tensor products,
generator ladders, and brute-force cyclicity oracles.

Evaluation modules carry the closed-form action of x_0^+/-, h_0 and h_1.
An ordered product of N of them is written in one pass over its basis from
the N-factor (iterated) coproduct, with g(k) the action of g on factor k:
    x_0^+/- = sum_k x_0^+/-(k),   h_0 = sum_k h_0(k),
    h_1 = sum_k h_1(k) + sum_{k<l} h_0(k) h_0(l) - 2 sum_{k<l} x_0^-(k) x_0^+(l);
an evaluation module is the case N = 1.  All higher generators, x_1^+/-
included, come from the defining-relation recursion, exact on any module.

The top tensor vector v is a highest-weight vector, so it generates Y^- v.
As h_0 is a scalar on each weight space, the recursion for x_{k+1}^- makes
level r+1 of Y^- v (r+1 lowering steps below v) equal to C[h_1] x_0^- of
level r: `lowering_levels` spins the levels one at a time with x_0^- and h_1
only.  Y^- v = Y v is a finite-dimensional sl2-module under x_0^+/-, h_0,
with level r in h_0-weight sum(m) - 2r, so its levels are a palindrome
(dim W_r = dim W_{sum(m)-r}) on every product `tensor_module` builds: only
the upper half is spun, and the lower half is read off it.
`submodule_dimension` spins any seed under the four matrices that define
the module and stays as the independent cross-check.

Everything that depends only on the factor dimensions m = (m_1, .., m_N),
the shape, is built once per shape by `_shape` and shared read-only: the
basis labels, x_0^+/- and h_0, h_1 without its parameter-dependent
diagonal, the weight-order tables of the relation suite, and x_0^- of
every full level of the upper half, on which the spin of the next level
starts.

Every matrix is a `Matrix` of Z[i] rows over one denominator: 1 for the
parameter-free ones, the lcm of the parameters' denominators for h_1.
The ladder runs the row kernel `_row_sum` on those rows as they stand and
keeps its own rows unreduced, over their recursion scales:
`extend_generators` brings them to lowest terms, and the relation suite
reads them as they are, each matrix with one factor L/scale to their common
denominator L, packed into big integers by `_packed_relations`.
The series check runs the kernel only on vectors of the top two weight
spaces.  The level spin keeps each level as the rows of the fraction-free
forward echelon `_Echelon`: it reads only their number, and spins the next
level from them as a spanning set, so no level is brought to reduced form.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, product, repeat
from math import lcm, prod
from operator import itemgetter
from typing import Iterator, Sequence, Tuple

from .drinfeld import eigenvalue_series
from .exact import (
    GaussianRational,
    Matrix,
    _Echelon,
    _clear_denominators,
    _content,
    _count,
    _lowest,
    _reduced,
    _row_sum,
    as_scalar,
    # Not called here: the benchmark's traced run wraps `ysl2.kron` by
    # name, and tests/test_bench_sites.py requires every wrapped name to
    # exist.
    kron,
    row_space_closure,
)
from .record import record


@record
class SL2Module:
    """The four matrices x_0^+/-, h_0 and h_1 that define the module."""

    factor_spec: Tuple[Tuple[int, GaussianRational], ...]
    basis_labels: Tuple[Tuple[int, ...], ...]
    x0p: Matrix
    x0m: Matrix
    h0: Matrix
    h1: Matrix

    @property
    def dim(self) -> int:
        return len(self.basis_labels)

    @property
    def highest_index(self) -> int:
        top = tuple(m for m, _ in self.factor_spec)
        return self.basis_labels.index(top)

    def generators(self) -> Tuple[Matrix, ...]:
        return (self.x0p, self.x0m, self.h0, self.h1)

    def basis_index(self, label: Tuple[int, ...]) -> int:
        return self.basis_labels.index(label)


# Factor-dimension tuples (shapes) `_shape` keeps: a `spin` benchmark run
# meets 13 in 80 ops and a `relations` run 11 in 140.
SHAPE_CACHE_SIZE = 32


@record
class _Shape:
    """The parameter-free part of every product of one shape ms.

    `labels` run in mixed radix, the first factor most significant: label
    t has index i = sum_k t_k stride_k.  x0p, x0m and h0 are integral
    (den 1) and shared read-only by every module of the shape.  `h1_off`
    holds the entries (i, j, a) of h_1 off its diagonal, row by row:
    a = -2 (m_k - t_k) t_l at column j = i + stride_k - stride_l for each
    k < l with t_k < m_k and t_l > 0;
    `consts` holds the integer part of each diagonal entry.  `sizes[r]` is
    dim V_r, the number of labels r lowering steps below the top.  `slot`
    and `start` put the basis in h_0-weight order for `_packed_relations`.
    `lowered[r]` holds the forward echelon rows of
    x_0^- V_{r-1}, filled on first use by `_lowered`, for the depths
    1 <= r <= sum(ms)/2 only: `_spin_levels` reads every deeper level off
    the sl2 mirror, dim W_r = dim W_{sum(ms)-r}, and spins none of them.
    """

    ms: Tuple[int, ...]
    labels: Tuple[Tuple[int, ...], ...]
    x0p: Matrix
    x0m: Matrix
    h0: Matrix
    h1_off: Tuple[Tuple[int, int, int], ...]
    consts: Tuple[int, ...]
    sizes: Tuple[int, ...]
    slot: Tuple[int, ...]
    start: Tuple[int, ...]
    lowered: dict


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _shape(ms: Tuple[int, ...]) -> _Shape:
    """The `_Shape` of W_{m_1}(a_1) (x) ... (x) W_{m_N}(a_N), for ms = (m_1, .., m_N)."""
    strides = [prod(m + 1 for m in ms[k + 1:]) for k in range(len(ms))]
    labels = tuple(product(*(range(m + 1) for m in ms)))
    xp, xm, h0, h1_off, consts, weights = [], [], [], [], [], []
    for i, label in enumerate(labels):
        up, down = {}, {}
        weight = const = 0  # the h_0 eigenvalue on the factors before k, then on all
        for k, (t, m, stride) in enumerate(zip(label, ms, strides)):
            w = 2 * t - m
            const += t * (3 * t - 2 * m - 1) + weight * w
            weight += w
            if t:
                up[i - stride] = (t, 0)
            if t < m:
                down[i + stride] = (m - t, 0)
                for l in range(k + 1, len(label)):
                    if label[l]:
                        h1_off.append((i, i + stride - strides[l], -2 * (m - t) * label[l]))
        xp.append(up)
        xm.append(down)
        h0.append({i: (weight, 0)} if weight else {})
        consts.append(const)
        weights.append(weight)
    n, top = len(labels), sum(ms)
    sizes = Counter((top - w) // 2 for w in weights)
    order = sorted(range(n), key=weights.__getitem__)
    slot = [0] * n
    run = {}  # weight -> the slot its run starts at
    for t, j in enumerate(order):
        slot[j] = t
        run.setdefault(weights[j], t)
    return _Shape(
        ms, labels, *(Matrix._of(rows, 1, n) for rows in (xp, xm, h0)),
        tuple(h1_off), tuple(consts), tuple(sizes[r] for r in range(top + 1)),
        tuple(slot), tuple(run[w] for w in weights), {},
    )


def _lowered(shape: _Shape, r: int) -> dict:
    """{pivot: row}, the forward `_Echelon` rows of x_0^- V_{r-1}, for
    1 <= r <= sum(ms)/2 (`_spin_levels` spins no deeper level): the images
    of the basis vectors r - 1 steps below the top, reduced forward until
    they fill V_r.  Built once per shape and depth.  An insertion never
    rewrites a stored row, so callers copy the dict and share its rows."""
    rows = shape.lowered.get(r)
    if rows is None:
        basis = _Echelon(len(shape.labels))
        above = sum(shape.ms) - r + 1
        basis.spin(((shape.x0m, {j: (1, 0)}) for j, label in enumerate(shape.labels)
                    if sum(label) == above), (), shape.sizes[r])
        rows = shape.lowered[r] = basis.rows
    return rows


def tensor_module(spec: Sequence[Tuple[int, object]]) -> SL2Module:
    """Ordered tensor product W_{m_1}(a_1) (x) ... (x) W_{m_N}(a_N), written
    from the N-factor coproduct in the module docstring.

    One factor, [(m, a)], is the (m+1)-dimensional evaluation module W_m(a)
    with basis w_0 .. w_m and highest weight vector w_m.  Closed-form action:
    x_k^+ w_s = (s+a)^k (s+1) w_{s+1}
    x_k^- w_s = (s+a-1)^k (m-s+1) w_{s-1}
    h_k  w_s = ((s+a-1)^k s (m-s+1) - (s+a)^k (s+1)(m-s)) w_s

    Everything but the diagonal of h_1 depends only on the factor
    dimensions and comes from `_shape`: modules of one shape share their
    labels and x_0^+/-, h_0 read-only.  On one factor h_1 w_t =
    (a (2t - m) + t (3t - 2m - 1)) w_t, so the diagonal of h_1 at label t
    is the shape's integer `consts` entry plus sum_k a_k (2 t_k - m_k).
    h_1 is written over the common denominator of the a_k and brought to
    lowest terms by one gcd.
    """
    if not spec:
        raise ValueError("empty factor list")
    factor_spec = [(_count(m, "m"), as_scalar(a)) for m, a in spec]
    ms = tuple(m for m, _ in factor_spec)
    shape = _shape(ms)
    den, params = _clear_denominators(a for _, a in factor_spec)

    def along(part):
        """sum_k params[k][part] (2 t_k - m_k) over the labels, in order."""
        return [sum(terms) for terms in product(*(
            [p[part] * (2 * t - m) for t in range(m + 1)] for m, p in zip(ms, params)
        ))]

    diagonal = [(re + const * den, im) for const, re, im in zip(shape.consts, along(0), along(1))]
    g = _content(diagonal, den)
    den //= g
    h1 = [{} for _ in diagonal]
    for i, j, a in shape.h1_off:
        h1[i][j] = (den * a, 0)
    for i, (row, (re, im)) in enumerate(zip(h1, diagonal)):
        if re or im:
            row[i] = (re // g, im // g)
    return SL2Module(
        tuple(factor_spec), shape.labels, shape.x0p, shape.x0m, shape.h0,
        Matrix._of(h1, den, len(h1)),
    )


@record
class GeneratorLadder:
    """Matrices of x_k^+/-, h_k for k = 0..K on a fixed module."""

    module: SL2Module
    xp: Tuple[Matrix, ...]
    xm: Tuple[Matrix, ...]
    h: Tuple[Matrix, ...]


def _integer_ladder(module: SL2Module, K: int) -> dict:
    """{(g, k): (rows, scale)} for x_k^+ (g = "+"), x_k^- ("-") and h_k
    ("h"), k = 0..K with K >= 0 (h_1 even at K = 0): the matrix rows / scale
    with rows over Z[i] (no zero stored), as the recursion forms it from
    the `Matrix` rows and den of x_0^+/-, h_0 and h_1.  Nothing is reduced:
    `extend_generators` brings each matrix to lowest terms, and the
    relation suite reads the rows as they stand.

    With lh = lcm(scale of h_0, scale of h_1), D = lh (h_1 - h_0) and
    S = lh (h_1 + h_0) are integer matrices, formed together in one merge
    of the rows of h_1 and h_0.  They are step = 2 lh times
    (h_1 -/+ h_0)/2, so the ladder steps
    x_{k+1}^+ = D x_k^+ - x_k^+ S and x_{k+1}^- = x_k^- D - S x_k^- keep
    their form on the rows, over step times the scale of level k; h_k =
    [x_k^+, x_0^-] (k >= 2) is over the product of their scales.  So
    x_k^+/- is over scale(x_0^+/-) step^k, and h_k over
    scale(x_0^+) scale(x_0^-) step^k.
    """
    start = {("+", 0): module.x0p, ("-", 0): module.x0m, ("h", 0): module.h0, ("h", 1): module.h1}
    ladder = {key: (m.rows, m.den) for key, m in start.items()}
    (x0m, sm), (h0, s0), (h1, s1) = ladder["-", 0], ladder["h", 0], ladder["h", 1]
    n, lh = module.dim, lcm(s0, s1)
    a, b, step = lh // s1, lh // s0, 2 * lh
    D, S = [], []  # an entry may be 0 here: the row kernel drops zero sums
    for r1, r0 in zip(h1, h0):
        d = {j: (a * re, a * im) for j, (re, im) in r1.items()}
        s = d.copy()
        for j, (re, im) in r0.items():
            pr, pi = d.get(j, (0, 0))
            d[j] = pr - b * re, pi - b * im
            s[j] = pr + b * re, pi + b * im
        D.append(d)
        S.append(s)
    for k in range(K):
        xp, sp = ladder["+", k]
        xm, sx = ladder["-", k]
        ladder["+", k + 1] = [_row_sum(((1, D, xp), (-1, xp, S)), i) for i in range(n)], sp * step
        ladder["-", k + 1] = [_row_sum(((1, xm, D), (-1, S, xm)), i) for i in range(n)], sx * step
    for k in range(2, K + 1):
        xp, sp = ladder["+", k]
        ladder["h", k] = [_row_sum(((1, xp, x0m), (-1, x0m, xp)), i) for i in range(n)], sp * sm
    return ladder


def extend_generators(module: SL2Module, K: int) -> GeneratorLadder:
    """Generators up to level K from the defining-relation recursion:
    x_{k+1}^- = -1/2([h_1, x_k^-] + h_0 x_k^- + x_k^- h_0),
    x_{k+1}^+ = +1/2([h_1, x_k^+] - h_0 x_k^+ - x_k^+ h_0),
    h_k = [x_k^+, x_0^-];
    the rows of `_integer_ladder`, each matrix brought to lowest terms by
    one gcd.
    """
    _count(K, "K")
    n, ladder = module.dim, _integer_ladder(module, K)
    return GeneratorLadder(module, *(
        tuple(_lowest(*ladder[g, k], n) for k in range(K + 1)) for g in "+-h"))


def submodule_dimension(module: SL2Module, seed) -> int:
    """Dimension of the submodule seed generates, spun under the four
    matrices that define the module: every x_k^+/-, h_k is a polynomial in
    them (see `extend_generators`)."""
    dim, _ = row_space_closure(module.generators(), seed)
    return dim


def _spin_levels(module: SL2Module) -> Iterator[Tuple[int, int]]:
    """(dim W_r, dim V_r) for r = 0 .. T, T = sum(m).  V_r is spanned by the
    basis vectors r lowering steps below the top; W_r, the part of Y top in
    V_r, is spun as W_0 = <top>, W_{r+1} = C[h_1] x_0^- W_r.  A level that
    fills V_r is closed under h_1 already, so its spinning stops there.

    Only the depths r <= T/2 are spun.  W = Y top is a finite-dimensional
    sl2-module under x_0^+/-, h_0, and W_r is its h_0-weight space of weight
    T - 2r, so dim W_r = dim W_{T-r}, as dim V_r = dim V_{T-r}: every depth
    r > T/2 is read off depth T - r.  This holds on every product
    `tensor_module` builds, and with h_1 replaced by c h_1 + d h_0 (c != 0),
    which spins the same levels, as h_0 is a scalar on each V_r.

    When W_{r-1} fills V_{r-1} (always at r = 1), x_0^- W_{r-1} is the
    parameter-free x_0^- V_{r-1}: on a module that shares its shape's x_0^-,
    the spin starts from a copy of that subspace's echelon rows, `_lowered`,
    and runs under h_1 alone.  The rows of an `_Echelon` span what was
    inserted into it, and the h_1-closure of a subspace does not depend on
    the spanning set spun, so the levels are exactly those of spinning
    x_0^- W_{r-1}.  A level below a short one is spun from x_0^- W_{r-1} as
    it stands, its rows as the spanning set: only the number of rows of a
    level is read, and no level is brought to reduced form."""
    shape = _shape(tuple(m for m, _ in module.factor_spec))
    shared = module.x0m is shape.x0m
    sizes = shape.sizes
    top = len(sizes) - 1
    level = [{module.highest_index: (1, 0)}]
    dims = [1]
    yield 1, 1
    for r in range(1, top // 2 + 1):
        basis = _Echelon(module.dim)
        if shared and len(level) == sizes[r - 1]:
            basis.rows.update(_lowered(shape, r))
            queue = [(module.h1, row) for row in basis.rows.values()]
        else:
            queue = [(module.x0m, vec) for vec in level]
        basis.spin(queue, (module.h1,), sizes[r])
        level = list(basis.rows.values())
        dims.append(len(level))
        yield len(level), sizes[r]
    for r in range(top // 2 + 1, top + 1):
        yield dims[top - r], sizes[r]


def lowering_levels(module: SL2Module) -> Tuple[int, ...]:
    """dim W_r for every depth r = 0 .. sum(m) below the top vector, a
    palindrome by the sl2 weight symmetry (see `_spin_levels`, which spins
    only the upper half); their sum is the dimension of the submodule the
    top vector generates."""
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


def _h_on_top(module: SL2Module, order: int) -> Iterator[Tuple[Tuple[int, int], int]]:
    """h_k top = (re + im i) / scale top for k = 0..order, as unreduced
    ((re, im), scale), read off the top two weight spaces: D and S of
    `_integer_ladder` and x_k^+ for k >= 1 are never formed.

    h_k top = x_k^+ x_0^- top - x_0^- x_k^+ top, as in `extend_generators`.
    Put w_{k,j} = x_k^+ S^j x_0^- top; the ladder step
    x_{k+1}^+ = D x_k^+ - x_k^+ S gives w_{k+1,j} = D w_{k,j} - w_{k,j+1}
    by associativity alone, so D and S need not commute.  If x_0^+ top = 0
    and h_0, h_1 keep the line <top>, so does D, with the integer delta
    at (top, top), and x_k^+ top = 0 for every k; if every w_{0,j} lies on
    <top> too, then so does every w_{k,j}, and h_k top = w_{k,0} comes
    from the scalar step w_{k+1,j} = delta w_{k,j} - w_{k,j+1}.  Each of
    these conditions is checked, and ValueError raised if one fails;
    every module `tensor_module` builds passes them.

    S^j x_0^- top is formed as lh/s_1 h_1 v + lh/s_0 h_0 v from the
    columns of h_0 and h_1 (scales s_0, s_1).  With step = 2 lh, the
    numerator of w_{k,j} over scale(x_0^+) scale(x_0^-) step^(k+j) obeys
    the same step, so h_k top is over scale(x_0^+) scale(x_0^-) step^k.
    """
    top, x0p, h0, h1 = module.highest_index, module.x0p, module.h0, module.h1
    h0c, h1c = h0._columns(), h1._columns()
    if x0p._columns()[top] or (h0c[top].keys() | h1c[top].keys()) - {top}:
        raise ValueError("top is not a highest-weight vector of x_0^+, h_0 and h_1")
    lh = lcm(h0.den, h1.den)
    a, b = lh // h1.den, lh // h0.den
    (r1, i1), (r0, i0) = h1c[top].get(top, (0, 0)), h0c[top].get(top, (0, 0))
    dr, di = a * r1 - b * r0, a * i1 - b * i0  # delta, D at (top, top)
    v, ws = module.x0m._columns()[top], []  # S^j x_0^- top, and the w_{0,j}
    for j in range(order + 1):
        if j:
            v = _row_sum(((a, (v,), h1c), (b, (v,), h0c)), 0)
        w = x0p.apply(v)
        if w.keys() - {top}:
            raise ValueError(f"x_0^+ S^{j} x_0^- top is off the line of top")
        ws.append(w.get(top, (0, 0)))
    scale = x0p.den * module.x0m.den
    for k in range(order + 1):
        if k:
            ws = [(dr * wr - di * wi - nr, dr * wi + di * wr - ni)
                  for (wr, wi), (nr, ni) in zip(ws, ws[1:])]
            scale *= 2 * lh
        yield ws[0], scale


def _series_check(spec: Sequence[Tuple[int, object]], order: int):
    """(matches, series): the product eigenvalue series to `order` and
    whether h_k acts on the top tensor vector by its coefficients."""
    _count(order, "order", 0)
    module = tensor_module(spec)
    roots = []
    for m, a in spec:
        a = as_scalar(a)
        roots.extend(a + s for s in range(m))
    series = eigenvalue_series(roots, 1, order + 1)
    matches = all(
        _reduced(*pair, scale) == c
        for (pair, scale), c in zip(_h_on_top(module, order), series.coeffs[1:])
    )
    return matches, series


def verify_drinfeld_series(spec: Sequence[Tuple[int, object]], order: int) -> bool:
    """Check that h_k acts on the top tensor vector by the coefficients of
    the product eigenvalue series, for all k <= order."""
    return _series_check(spec, order)[0]


def trivial_submodule_check(a) -> bool:
    """In W_1(a+1) (x) W_1(a), the vector v+ (x) w- - v- (x) w+ is killed by
    the four matrices that define the module."""
    a = as_scalar(a)
    module = tensor_module([(1, a + 1), (1, a)])
    v0 = {module.basis_index((1, 0)): (1, 0), module.basis_index((0, 1)): (-1, 0)}
    return not any(g.apply(v0) for g in module.generators())


def defining_relation_failures(module: SL2Module, K: int = 2) -> list:
    """Names of defining relations that fail as exact matrix identities, in
    the order of `_relation_plan`.  Each distinct relation matrix is walked
    at most once, on the packed rows of `_packed_relations`, up to its first
    nonzero row: a name fails iff its matrix does.  The premises of the
    plan's grading rule are walked first, and the relations they imply
    only if one of them fails."""
    _count(K, "K", 0)
    _, plan, _, premises, implied = _relation_plan(K)
    *_, walks = _packed_relations(module, K)
    value = itemgetter(1)
    failed = {i: any(map(value, walks[i])) for i in premises}
    if not any(failed.values()):
        failed.update(dict.fromkeys(implied, False))
    failed = [failed[i] if i in failed else any(map(value, rows)) for i, rows in enumerate(walks)]
    return [name for name, i in plan if i is not None and failed[i]]


@lru_cache(maxsize=4)
def _relation_plan(K: int) -> tuple:
    """(formed, plan, c_total, premises, implied) for the defining
    relations up to level K.

    Each relation is written once below as signed terms (c, A, B) whose
    products must sum to zero, with A and B keys of `_integer_ladder` or
    None for the identity: [h_0, x_k^+] - 2 x_k^+ is (1, h_0, x_k^+),
    (-1, x_k^+, h_0), (-2, None, x_k^+).  A family with x_k^+/- is written
    once for x in "+-": the x^- form differs only in the sign of its
    symmetric term.  `formed` holds the merged terms of each distinct
    relation matrix, and `plan` holds (name, index) for every name in
    order: the relation is formed[index] up to sign, or 0 if index is None.
    c_total is the largest sum of |c| over one formed relation.  Each rule
    stands where its relation is written, and each is an exact matrix
    identity on any module, as the ladder of `extend_generators` defines
    x_{k+1}^+/- and h_k (k >= 2):
    - `form` merges like terms, drops zero sums and forms relations with
      the same merged terms once: the x family at (r, s) is the one at
      (s, r);
    - [h1,x_s] - [h0,x_{s+1}] -/+ (h0x_s + x_sh0) is minus
      [h0,x_{s+1}] -/+ 2 x_{s+1}, for x = x^+/-;
    - [x_k^+, x_0^-] - h_k is 0 for k >= 2.

    One rule is conditional, the grading rule: on any module, the formed
    relations `implied`, [h0,x_k^+/-] -/+ 2 x_k^+/- (k >= 1) and
    [h0,h_k] (k >= 2), are 0 whenever the three formed relations
    `premises`, [h0,h1], [h0,x0+] - 2 x0+ and [h0,x0-] + 2 x0-, all are.
    Proof: ad h_0 = [h_0, .] is a derivation of matrix products, and
    [h_0, h_1] = 0 makes it commute with ad h_1 (Jacobi).  The ladder's
    x_{k+1}^+ = ([h_1, x] - h_0 x - x h_0)/2 and
    x_{k+1}^- = -([h_1, x] + h_0 x + x h_0)/2, with x = x_k^+/-, so
    ad h_0 x = +/-2 x gives ad h_0 x_{k+1}^+/- = +/-2 x_{k+1}^+/-, and by
    induction on k from the premises at k = 0 it holds for every k.  Then
    ad h_0 h_k = [ad h_0 x_k^+, x_0^-] + [x_k^+, ad h_0 x_0^-]
    = 2 [x_k^+, x_0^-] - 2 [x_k^+, x_0^-] = 0.  At K = 0 there is no
    [h0,h1] to check and nothing is implied."""
    signs = (("+", "-", -1), ("-", "+", 1))  # x, and the op and sign of its symmetric term
    formed, index, plan = [], {}, []
    shifted = {}  # (x, k): the index of [h0,x_k] op 2 x_k
    premises, implied = [], []  # the grading rule's formed relations

    def label(g, k):
        return f"h{k}" if g == "h" else f"x{k}{g}"

    def bracket(a, r, b, s, c=1):
        """c [a_r, b_s] as two signed terms."""
        return [(c, (a, r), (b, s)), (-c, (b, s), (a, r))]

    def form(name, terms):
        """Plan name as the merged terms, formed once; returns its index."""
        merged = Counter()
        for c, a, b in terms:
            merged[a, b] += c
        terms = tuple((c, a, b) for (a, b), c in merged.items() if c)
        i = index.setdefault(frozenset(terms), len(formed))
        if i == len(formed):
            formed.append(terms)
        plan.append((name, i))
        return i

    for r in range(K + 1):
        for s in range(r + 1, K + 1):  # [h_r, h_r] is zero on any matrix
            i = form(f"[h{r},h{s}]", bracket("h", r, "h", s))
            if r == 0:
                (premises if s == 1 else implied).append(i)
    for k in range(K + 1):
        for x, op, sign in signs:
            X = label(x, k)
            shifted[x, k] = form(
                f"[h0,{X}] {op} 2 {X}", bracket("h", 0, x, k) + [(2 * sign, None, (x, k))])
            (implied if k else premises).append(shifted[x, k])
    for r in range(K + 1):
        for s in range(K + 1 - r):
            name = f"[x{r}+,x{s}-] - h{r+s}"
            if r >= 2 and s == 0:  # the ladder's h_r
                plan.append((name, None))
            else:
                form(name, bracket("+", r, "-", s) + [(-1, None, ("h", r + s))])
    for left in ("x", "h"):
        for r in range(K):
            for s in range(K):
                for x, op, sign in signs:
                    g = x if left == "x" else "h"
                    A0, A1 = label(g, r), label(g, r + 1)
                    X0, X1 = label(x, s), label(x, s + 1)
                    name = f"[{A1},{X0}] - [{A0},{X1}] {op} ({A0}{X0} + {X0}{A0})"
                    if g == "h" and r == 0:  # the ladder's x_{s+1}
                        plan.append((name, shifted[x, s + 1]))
                    else:
                        form(name, bracket(g, r + 1, x, s) + bracket(g, r, x, s + 1, -1)
                             + [(sign, (g, r), (x, s)), (sign, (x, s), (g, r))])
    c_total = max(sum(abs(c) for c, _, _ in terms) for terms in formed)
    return tuple(formed), tuple(plan), c_total, tuple(premises), frozenset(implied)


def _packed_relations(module: SL2Module, K: int):
    """(L, S, slot, walks): the relations `formed` by `_relation_plan(K)`
    as packed integer rows, with walks[i] yielding (base, value) for each
    row of formed[i] in turn.  No product and no sum is formed as a matrix.

    Every matrix of `_integer_ladder` is read as it stands, rows over Z[i]
    over its recursion scale, with one factor f = L / scale, L the lcm of
    those scales: f times a row is that row of L times the matrix.  The
    identity joins them as the rows of I over scale 1.  With sp, sm, s0, s1
    the denominators of x_0^+, x_0^-, h_0, h_1 and step = 2 lcm(s0, s1), L
    is lcm(sp, sm, s0, s1) at K = 0, lcm(sp, sm) step at K = 1 and
    sp sm step^K at K >= 2.  The basis is put in h_0-weight order, column j
    at slot[j], so that each weight space is a run of slots.  Row k of a
    right factor B, with entries b_j = br_j + bi_j i as it stands, is packed
    from the start `base` of the run of its lowest column into two integers
    in digits of S bits: p holds f_B br_j and f_B bi_j in digits 2(t - base)
    and 2(t - base) + 1, with t the slot of j, and q holds -f_B bi_j and
    f_B br_j there, so that the packed row of (ar + ai i) f_B b is
    ar p + ai q.  Row i of the relation, times L^2, is then one integer
    `value`: each nonzero A[i, k] = ar + ai i of a term c A B, read as it
    stands, adds c f_A ar p + c f_A ai q.  A term whose row starts at
    another base is shifted into place, which only happens off
    weight-homogeneous matrices (a perturbed module).  A row with no term
    is (None, 0).  The relation holds iff every row's value is 0.

    Exactness: write |a| = |re| + |im| for an entry, let top be the
    largest over the matrices, the identity included, of f times the sum of
    |a| over a row, and bound = top^2 times c_total of `_relation_plan`, the
    largest sum of |c| over one relation.  A digit of row i collects at most
    sum_t |c_t| sum_k |L A_t[i, k]| |L B_t[k, j]| <= bound in absolute value,
    partial sums included, and S = bit_length(bound) + 2 keeps every digit
    below 2^(S - 1): each row's value has exactly one expansion
    sum_s d_s 2^(sS) in such digits, the entries of the row.  It is 0 only
    if every d_s is: with d_s the lowest nonzero digit, the value is
    d_s 2^(sS) modulo 2^((s + 1)S), which is not 0 as 0 < |d_s| < 2^S.
    The argument needs only that L is a common denominator.  Over the lcm
    L' of the ladder's lowest-terms denominators every entry and top would
    be L/L' times smaller, so S is about 2 log2(L/L') bits wider here.
    """
    ladder = _integer_ladder(module, K)
    formed, _, c_total, _, _ = _relation_plan(K)

    n = module.dim
    ladder[None] = [{i: (1, 0)} for i in range(n)], 1
    den = lcm(*(scale for _, scale in ladder.values()))
    factor = {key: den // scale for key, (_, scale) in ladder.items()}
    # f times the largest sum of |re| + |im| over a row, each row summed in C.
    top = max(factor[key] * max(map(sum, map(map, repeat(abs), map(chain.from_iterable, map(
        dict.values, rows))))) for key, (rows, _) in ladder.items())
    bound = c_total * top * top
    S = bound.bit_length() + 2
    width = 2 * S

    shape = _shape(tuple(m for m, _ in module.factor_spec))
    slot, start = shape.slot, shape.start

    def pack(row, f):
        """A row of a right factor, times f, as (base, p, q), or None if it is 0."""
        if not row:
            return None
        base = min(map(start.__getitem__, row))
        pr = pi = 0
        for j, (re, im) in row.items():
            shift = (slot[j] - base) * width
            pr += re << shift
            pi += im << shift
        return base, f * (pr + (pi << S)), f * ((pr << S) - pi)

    packed = {b: [pack(row, factor[b]) for row in ladder[b][0]]
              for b in {b for terms in formed for _, _, b in terms}}

    def row_sums(terms):
        factors = [(ladder[a][0], c * factor[a], packed[b]) for c, a, b in terms]
        for i in range(n):
            value = 0
            at = None
            for left, c, right in factors:
                for k, (ar, ai) in left[i].items():
                    entry = right[k]
                    if entry is None:
                        continue
                    base, p, q = entry
                    v = c * ar * p + c * ai * q if ai else c * ar * p
                    if base == at:
                        value += v
                    elif at is None:
                        value, at = v, base
                    elif base > at:
                        value += v << ((base - at) * width)
                    else:
                        value, at = (value << ((at - base) * width)) + v, base
            yield at, value

    return den, S, slot, [row_sums(terms) for terms in formed]
