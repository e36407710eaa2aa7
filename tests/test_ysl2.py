"""The rank-one engine: evaluation modules, tensors, ladders, oracles."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import lcm, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from yangian_weyl import exact
from yangian_weyl.drinfeld import eigenvalue_series, series_to_roots
from yangian_weyl.exact import (
    GaussianRational as G, ZERO, _Echelon, _reduced, row_space_closure, unit_vector)
from yangian_weyl.ysl2 import (
    SL2Module,
    _h_on_top,
    _lowered,
    _packed_relations,
    _relation_plan,
    _series_check,
    _shape,
    _spin_levels,
    defining_relation_failures,
    extend_generators,
    is_highest_weight,
    is_irreducible,
    lowering_levels,
    submodule_dimension,
    tensor_module,
    trivial_submodule_check,
    verify_drinfeld_series,
)

import relations_oracle
import roots_oracle
import spin_oracle
import tensor_oracle
from dense_oracle import add, combine, entries, matmul, matrix, matvec, vector

F = Fraction
HALF = F(1, 2)


def _with(module, **changes):
    """A new SL2Module from the fields of `module`, with `changes` made."""
    return SL2Module(*(changes.get(f, getattr(module, f)) for f in SL2Module.__match_args__))


def _level_one(module):
    """x_1^+ and x_1^- of the module, read off one level-1 ladder."""
    ladder = extend_generators(module, 1)
    return ladder.xp[1], ladder.xm[1]


def test_evaluation_module_level_one_actions():
    a = G(F(7, 2))
    mod = tensor_module([(1, a)])
    w1 = unit_vector(2, 1)
    assert mod.h1.matvec(w1) == tuple(a * e for e in w1)
    assert _level_one(mod)[1].matvec(w1) == tuple(a * e for e in mod.x0m.matvec(w1))
    w0 = unit_vector(2, 0)
    assert mod.h1.matvec(w0) == tuple(-a * e for e in w0)

    mod2 = tensor_module([(2, a)])
    w2 = unit_vector(3, 2)
    assert _level_one(mod2)[1].matvec(w2) == tuple((a + 1) * e for e in unit_vector(3, 1))
    assert mod2.h1.matvec(w2) == tuple(2 * (a + 1) * e for e in w2)

    # x_1^+/- come from the recursion; the closed form is
    # x_1^+ w_s = (s+a)(s+1) w_{s+1} and x_1^- w_s = (s+a-1)(m-s+1) w_{s-1}.
    for m, a in product([1, 2, 3], [G(0), G(F(-5, 3)), G(F(1, 2), 2)]):
        mod = tensor_module([(m, a)])
        xp = {(s + 1, s): (s + a) * (s + 1) for s in range(m)}
        xm = {(s, s + 1): (s + a) * (m - s) for s in range(m)}
        assert _level_one(mod) == (matrix(xp, m + 1, m + 1), matrix(xm, m + 1, m + 1))


def test_evaluation_module_rejects_bad_m():
    # A bool is not a dimension, although it is an int subclass.
    for m in (0, -1, True, False, 1.5, F(2), "2", G(1)):
        with pytest.raises(ValueError):
            tensor_module([(m, G(0))])
        with pytest.raises(ValueError):
            tensor_module([(1, G(0)), (m, G(1))])


def test_tensor_top_eigenvalue_matches_series():
    a, b = G(F(5, 3)), G(-2)
    mod = tensor_module([(1, b), (1, a)])
    top = unit_vector(4, mod.highest_index)
    assert mod.h1.matvec(top) == tuple((a + b + 1) * e for e in top)
    series = eigenvalue_series([a, b], 1, 2)
    assert series.coeffs[2] == a + b + 1


def test_extend_generators_examples():
    a = G(F(2, 5))
    mod = tensor_module([(1, a)])
    ladder = extend_generators(mod, 4)
    for k in range(5):
        assert ladder.xm[k] == combine((a**k, mod.x0m))
    assert extend_generators(mod, 1).xm == ladder.xm[:2]
    for K in (0, True, 1.5, "1"):
        with pytest.raises(ValueError, match="^K must be a positive integer$"):
            extend_generators(mod, K)


def test_generators_are_the_four_defining_matrices(monkeypatch):
    # x_1^+/- are polynomials in these four, so the closure spins under
    # them alone and no ladder runs.
    mod = tensor_module([(1, G(F(1, 2))), (2, G(3, -1)), (3, G(-2))])
    assert mod.dim == 24
    monkeypatch.setattr("yangian_weyl.ysl2._integer_ladder", None)
    assert mod.generators() == (mod.x0p, mod.x0m, mod.h0, mod.h1)
    top = unit_vector(24, mod.highest_index)
    assert submodule_dimension(mod, top) == sum(lowering_levels(mod))
    assert trivial_submodule_check(G(F(1, 2)))


def test_coassociativity_of_level_one():
    # Left- and right-associated triple products carry the same matrices.
    params = [(1, G(2)), (1, G(0)), (2, G(F(1, 2)))]
    left = tensor_module(params)

    mid = tensor_module(params[1:])
    spec, labels, gens = tensor_oracle.tensor_pair(
        tensor_oracle.read(tensor_module(params[:1])), tensor_oracle.read(mid))
    right = SL2Module(spec, labels, *(matrix(g, len(labels), len(labels)) for g in gens))
    assert left.h1 == right.h1
    assert _level_one(left) == _level_one(right)


def test_is_highest_weight_examples():
    assert is_highest_weight([(1, G(1)), (1, G(0))])
    assert not is_highest_weight([(1, G(0)), (1, G(1))])
    assert is_highest_weight([(1, G(F(7, 2)))])
    assert is_highest_weight([(2, G(0))])


def test_lowering_levels_examples():
    # W_1(0) (x) W_1(1): the middle level is the line x_0^- top, and the
    # bottom vector is x_0^- of it.
    assert lowering_levels(tensor_module([(1, G(0)), (1, G(1))])) == (1, 1, 1)
    assert lowering_levels(tensor_module([(1, G(1)), (1, G(0))])) == (1, 2, 1)
    # W_1(1) (x) W_1(0) (x) W_1(2): the last factor sits one above the
    # first, so the top vector generates 6 of 8 dimensions.
    assert lowering_levels(
        tensor_module([(1, G(1)), (1, G(0)), (1, G(2))])
    ) == (1, 2, 2, 1)
    assert lowering_levels(tensor_module([(3, G(F(1, 2), 1))])) == (1, 1, 1, 1)
    # W_2(0) (x) W_2(1) is full at depth 1 and short at depth 2, so its
    # depth-2 spin starts from the cached x_0^- V_1 and its depth 3 does
    # not; W_2(1) (x) W_2(0) is full.  Each order of the two runs on a
    # shape cache the other one warmed.
    short = ([(2, G(0)), (2, G(1))], (1, 2, 2, 2, 1))
    full = ([(2, G(1)), (2, G(0))], (1, 2, 3, 2, 1))
    for products in ((short, full), (full, short)):
        _shape.cache_clear()
        for spec, levels in products:
            module = tensor_module(spec)
            assert lowering_levels(module) == levels
            assert _depth_sizes(module) == (1, 2, 3, 2, 1)


def _depth_sizes(module):
    """dim V_r: the number of basis labels r lowering steps below the top."""
    top = sum(m for m, _ in module.factor_spec)
    counts = Counter(top - sum(label) for label in module.basis_labels)
    return tuple(counts[r] for r in range(top + 1))


@st.composite
def _spec_st(draw):
    """2-5 factors with m in {1,2,3} and dimension at most 96.  Parameters
    cluster within integer steps of a common base so that strings often
    overlap; the imaginary parts come from a small set, often shared."""
    k = draw(st.integers(2, 5))
    ms, budget = [], 96
    for i in range(k):
        cap = budget // 2 ** (k - i - 1)
        m = draw(st.integers(1, min(3, cap - 1)))
        ms.append(m)
        budget //= m + 1
    base = F(draw(st.integers(-6, 6)), draw(st.integers(1, 3)))
    ims = draw(st.sampled_from([(0,), (1,), (0, F(1, 2)), (2, -1)]))
    return [
        (
            m,
            G(
                base + draw(st.integers(0, 2)) + draw(st.sampled_from([0, 0, 0, F(1, 2)])),
                draw(st.sampled_from(ims)),
            ),
        )
        for m in ms
    ]


@settings(max_examples=50, deadline=None)
@given(_spec_st())
def test_lowering_levels_agree_with_generator_closure(spec):
    module = tensor_module(spec)
    levels = lowering_levels(module)
    sizes = _depth_sizes(module)
    top = unit_vector(module.dim, module.highest_index)
    closure = submodule_dimension(module, top)
    assert sum(levels) == closure
    assert len(levels) == len(sizes)
    assert all(w <= v for w, v in zip(levels, sizes))
    hw = closure == module.dim
    assert (levels == sizes) is hw
    assert is_highest_weight(spec) is hw


# A few shapes drawn again and again, so that the shape cache both hits
# and misses.
_SHAPE_POOL = ((1, 1), (2, 2), (1, 1, 1), (2, 1, 1), (1, 3), (1, 1, 1, 1), (2, 2, 1))


@st.composite
def _pool_spec_st(draw):
    """A shape from `_SHAPE_POOL`, with parameters within integer steps of
    a common base, all real or all Gaussian."""
    ms = draw(st.sampled_from(_SHAPE_POOL))
    base = F(draw(st.integers(-4, 4)), draw(st.integers(1, 2)))
    gauss = draw(st.booleans())
    return [
        (
            m,
            G(
                base + draw(st.integers(0, 3)) + draw(st.sampled_from([0, 0, HALF])),
                draw(st.sampled_from([0, 1, -1])) if gauss else 0,
            ),
        )
        for m in ms
    ]


@settings(max_examples=120, deadline=None)
@given(st.one_of(_spec_st(), _pool_spec_st()), st.sampled_from((None, "scale", "shift")))
def test_lowering_levels_are_the_oracle_levels(spec, h1_change):
    # Level by level, the spin that starts full levels from the shape's
    # cached rows must be the spin from x_0^- of every level as it stands.
    # An h_1 scaled by 3 or shifted by h_0 keeps x_0^- shared and still
    # maps every V_r into itself.
    module = _h1_changed(tensor_module(spec), h1_change)
    assert tuple(_spin_levels(module)) == tuple(spin_oracle._spin_levels(module))
    assert lowering_levels(module) == spin_oracle.lowering_levels(module)


@st.composite
def _height_spec_st(draw):
    """2-4 factors with m in {1,2,3} and dimension at most 16, with
    10-30-digit Gaussian parts: a common base (r + s i)/d, r and s of 10-30
    digits and d 1 or of 10-30 digits, plus a step in {0, 1, 2} and
    sometimes 1/2 per factor, so that strings still overlap."""
    k = draw(st.integers(2, 4))
    ms, budget = [], 16
    for i in range(k):
        m = draw(st.integers(1, min(3, budget // 2 ** (k - i - 1) - 1)))
        ms.append(m)
        budget //= m + 1

    def digits():
        n = draw(st.integers(10, 30))
        return draw(st.integers(10 ** (n - 1), 10 ** n - 1))

    d = digits() if draw(st.booleans()) else 1
    r, s = (digits() * draw(st.sampled_from((1, -1))) for _ in range(2))
    base = G(F(r, d), F(s, d))
    return [(m, base + draw(st.integers(0, 2)) + draw(st.sampled_from([0, 0, HALF]))) for m in ms]


@settings(max_examples=150, deadline=None)
@given(_height_spec_st(), st.sampled_from((None, "scale", "shift")))
def test_lowering_levels_are_the_oracle_levels_at_height(spec, h1_change):
    # The same comparison with 10-30-digit parameter parts, where the
    # echelon rows carry big integers.
    module = _h1_changed(tensor_module(spec), h1_change)
    assert tuple(_spin_levels(module)) == tuple(spin_oracle._spin_levels(module))
    assert lowering_levels(module) == spin_oracle.lowering_levels(module)


def _h1_changed(module, h1_change):
    """The module with h_1 scaled by 3 or shifted by h_0, or as it is."""
    if h1_change == "scale":
        return _with(module, h1=combine((3, module.h1)))
    if h1_change == "shift":
        return _with(module, h1=combine((1, module.h1), (1, module.h0)))
    return module


@settings(max_examples=60, deadline=None)
@given(st.one_of(_spec_st(), _pool_spec_st()), st.sampled_from((None, "scale", "shift")))
def test_oracle_levels_are_a_palindrome(spec, h1_change):
    # The sl2 weight symmetry that lets `_spin_levels` spin only the upper
    # half, read off the oracle, which spins every level: Y top is an
    # sl2-module under x_0^+/-, h_0, with depth r in weight sum(m) - 2r.
    module = _h1_changed(tensor_module(spec), h1_change)
    levels = spin_oracle.lowering_levels(module)
    assert levels == levels[::-1]
    assert all(w <= v for w, v in zip(levels, _depth_sizes(module)))
    top = unit_vector(module.dim, module.highest_index)
    assert sum(levels) == submodule_dimension(module, top)


@pytest.mark.parametrize("spec", [
    [(1, G(0)), (1, G(1)), (1, G(2))],  # T = 3, not highest weight
    [(2, G(0)), (2, G(1))],  # T = 4, short from depth 2
    [(1, G(1)), (2, G(F(1, 2), 1)), (1, G(0))],  # T = 4, highest weight
    [(1, G(0))] * 3 + [(1, G(1))] * 2,  # T = 5
])
def test_lower_half_is_read_off_the_mirror(spec, monkeypatch):
    # No echelon is built for a depth below the middle, by the level spin
    # or by `_lowered`, and the shape caches no such depth.
    built = []

    class Counted(_Echelon):
        def __init__(self, n):
            super().__init__(n)
            built.append(self)

    monkeypatch.setattr("yangian_weyl.ysl2._Echelon", Counted)
    _shape.cache_clear()
    module = tensor_module(spec)
    top = sum(m for m, _ in spec)
    assert lowering_levels(module) == spin_oracle.lowering_levels(module)
    depths = {top - sum(module.basis_labels[p]) for basis in built for p in basis.rows}
    assert built and max(depths) == top // 2
    assert max(_shape(tuple(m for m, _ in spec)).lowered) <= top // 2


def test_shape_cache_entries_stay_as_built():
    # Spins, relation checks and series checks on products of the pooled
    # shapes read the cached entries; afterwards every entry must equal a
    # fresh uncached build, its lazily filled levels included, so none of
    # them wrote into a shared row.
    rng = random.Random(5)
    for _ in range(3):
        for ms in _SHAPE_POOL:
            base = rng.randint(-3, 3)
            im = rng.choice((0, 0, 1))
            spec = [(m, G(base + rng.randint(0, 2), im and rng.randint(-1, 1))) for m in ms]
            module = tensor_module(spec)
            lowering_levels(module)
            defining_relation_failures(module, 2)
            defining_relation_failures(_with(module, h1=combine((2, module.h1))), 1)
            _series_check(spec, 3)
    for ms in _SHAPE_POOL:
        cached = _shape(ms)
        assert cached.lowered
        fresh = _shape.__wrapped__(ms)
        for r in cached.lowered:
            _lowered(fresh, r)
        assert cached == fresh, ms


def test_modules_of_one_shape_share_their_parameter_free_matrices():
    one = tensor_module([(2, G(0)), (1, G(F(1, 2), 1))])
    other = tensor_module([(2, G(5)), (1, G(-3))])
    assert one.x0m is other.x0m
    assert one.x0p is other.x0p and one.h0 is other.h0
    assert one.basis_labels is other.basis_labels
    assert one.h1 != other.h1
    # Once the cache has dropped the shape, a module built before spins
    # every level from x_0^- as it stands, with the same levels.
    _shape.cache_clear()
    assert tensor_module([(2, G(0)), (1, G(1))]).x0m is not one.x0m
    assert lowering_levels(one) == spin_oracle.lowering_levels(one)


def test_is_irreducible_examples():
    assert is_irreducible([(1, G(0)), (1, G(2))])
    assert not is_irreducible([(1, G(1)), (1, G(0))])
    assert is_irreducible([(1, G(5))])
    with pytest.raises(ValueError):
        is_irreducible([(2, G(0))])


def test_irreducible_matches_explicit_dual_shift():
    # Reversing with the rank-one duality shift of 1 gives the same verdict
    # as reversing alone: the shift cancels in all differences.
    for a1, a2 in product([G(0), G(1), G(2), G(F(1, 2))], repeat=2):
        reversed_spec = [(1, a2), (1, a1)]
        shifted = [(1, a2 - G(1)), (1, a1 - G(1))]
        assert is_highest_weight(reversed_spec) == is_highest_weight(shifted)


def test_verify_drinfeld_series_examples():
    assert verify_drinfeld_series([(1, G(5))], 3)
    assert verify_drinfeld_series([(1, G(2)), (1, G(0))], 4)
    assert verify_drinfeld_series([(2, G(0))], 4)
    assert verify_drinfeld_series([(1, G(0, 1)), (1, G(0, -1))], 3)
    # Mixed factor sizes: the top-vector eigenvalues still multiply.
    assert verify_drinfeld_series([(1, G(3)), (2, G(0))], 4)
    assert verify_drinfeld_series([(3, G(F(1, 2))), (1, G(F(1, 2)))], 3)


@st.composite
def _product_st(draw, factors, top_m, cap, part):
    """1 to `factors` factors with m in 1..top_m and dimension at most
    `cap`; the parameters' parts are drawn from `part`, and are all real
    or all Gaussian."""
    ms = draw(
        st.lists(st.integers(1, top_m), min_size=1, max_size=factors).filter(
            lambda ms: prod(m + 1 for m in ms) <= cap
        )
    )
    gauss = draw(st.booleans())
    return [(m, G(draw(part), draw(part) if gauss else 0)) for m in ms]


# Up to 4 factors with m at most 3 and dimension at most 48, with parts in
# [-4, 4] of denominator at most 3.
_SERIES_SPECS = _product_st(4, 3, 48, st.fractions(min_value=-4, max_value=4, max_denominator=3))


# h_0 or h_1 plus a raising or lowering matrix: h_0 and h_1 then need not
# commute, and neither need D = (h_1 - h_0)/2 and S = (h_1 + h_0)/2.
_OFF_COMMUTING = (("h1", "x0p"), ("h1", "x0m"), ("h0", "x0p"), ("h0", "x0m"))


def _top_is_highest(module, order, S):
    """The conditions `_h_on_top` checks, on the whole matrices: x_0^+ top
    is 0, h_0 top and h_1 top lie on the line of top, and so does
    x_0^+ S^j x_0^- top for j = 0..order, with S = (h_1 + h_0)/2 given as
    its entries."""
    t = module.highest_index
    top = unit_vector(module.dim, t)

    def on_line(v):
        return not any(e for i, e in enumerate(v) if i != t)

    if any(module.x0p.matvec(top)) or not all(on_line(h.matvec(top)) for h in (module.h0, module.h1)):
        return False
    v = module.x0m.matvec(top)
    for _ in range(order + 1):
        if not on_line(module.x0p.matvec(v)):
            return False
        v = matvec(S, v, module.dim)
    return True


@settings(max_examples=40, deadline=None)
@given(_SERIES_SPECS, st.integers(0, 6), st.sampled_from((None, *_OFF_COMMUTING)))
def test_series_check_h_on_top_matches_ladder(spec, order, perturbation):
    # The series check runs the x_k^+ recursion on the top two weight
    # spaces and reads h_k top = [x_k^+, x_0^-] top off one scalar
    # recursion.  It must refuse exactly the modules on which the whole
    # matrices break one of its conditions, never a true module, and
    # elsewhere give the vectors of the full ladder's brackets, on true
    # modules and off the commuting case.
    module = tensor_module(spec)
    if perturbation:
        field, addend = perturbation
        added = combine((1, getattr(module, field)), (1, getattr(module, addend)))
        module = _with(module, **{field: added})
    oracle = relations_oracle.Relations(module)
    D, S = oracle.D, oracle.S
    assume(not perturbation or matmul(D, S) != matmul(S, D))
    if not _top_is_highest(module, order, S):
        assert perturbation
        with pytest.raises(ValueError):
            list(_h_on_top(module, order))
        return
    xp, _, h = oracle.ladder(max(order, 1))
    n, top = module.dim, unit_vector(module.dim, module.highest_index)
    images = list(_h_on_top(module, order))
    assert len(images) == order + 1
    for k, (pair, scale) in enumerate(images):
        on_top = tuple(_reduced(*pair, scale) * e for e in top)
        assert on_top == matvec(oracle.bracket("+", k, "-", 0), top, n), k
        if not perturbation:  # off a module, h_0 and h_1 are no commutators
            # The package's own product, against the oracle's h_k.
            X = matrix(xp[k], n, n)
            assert add((1, entries(X @ module.x0m)), (-1, entries(module.x0m @ X))) == h[k], k
    if not perturbation:
        assert verify_drinfeld_series(spec, order)


def test_h_on_top_refuses_a_top_vector_it_cannot_read():
    module = tensor_module([(1, G(2)), (2, G(F(1, 2), 1))])
    x0p, x0m, n, top = module.x0p, module.x0m, module.dim, module.highest_index
    # Each module breaks one condition alone at order 0: x_0^+ top != 0
    # (an entry taking top to the lowest basis vector), h_1 top off the
    # line of top, and x_0^+ x_0^- top off that line with x_0^+ top = 0.
    corner = matrix({(0, top): G(1)}, n, n)
    broken = (
        _with(module, x0p=combine((1, x0p), (1, corner))),
        _with(module, h1=combine((1, module.h1), (1, x0m))),
        _with(module, x0p=combine((1, x0p), (1, x0m @ x0p))),
    )
    for bad in broken:
        assert not _top_is_highest(bad, 0, relations_oracle.Relations(bad).S)
        with pytest.raises(ValueError):
            list(_h_on_top(bad, 0))


def test_series_check_refuses_a_negative_order():
    spec = [(1, G(0)), (2, G(3))]
    for order in (-1, -2, True, 1.5, "1"):
        with pytest.raises(ValueError, match="order"):
            verify_drinfeld_series(spec, order)
        with pytest.raises(ValueError, match="order"):
            _series_check(spec, order)


def test_relation_suite_refuses_a_negative_level():
    module = tensor_module([(1, G(0)), (2, G(3))])
    for K in (-1, True, 1.5, "1"):
        with pytest.raises(ValueError, match="K"):
            defining_relation_failures(module, K)
    # K = 0 still checks the level-0 relations.
    assert defining_relation_failures(module, 0) == []
    assert defining_relation_failures(_with(module, x0p=combine((2, module.x0p))), 0) == [
        "[x0+,x0-] - h0"
    ]


def test_reversed_order_vector_is_not_a_submodule():
    # In W_1(a) (x) W_1(a+1) the analogous vector generates more than a line.
    a = G(0)
    mod = tensor_module([(1, a), (1, a + 1)])
    v0 = vector(mod, {(1, 0): G(1), (0, 1): G(-1)})
    assert submodule_dimension(mod, v0) > 1
    assert any(_level_one(mod)[1].matvec(v0))


def test_defining_relations_on_various_modules():
    modules = [
        tensor_module([(1, G(F(1, 3)))]),
        tensor_module([(3, G(-1))]),
        tensor_module([(1, G(1)), (1, G(0))]),
        tensor_module([(2, G(F(1, 2))), (1, G(2))]),
        tensor_module([(1, G(0, 1)), (1, G(1)), (1, G(-1))]),
    ]
    for mod in modules:
        assert defining_relation_failures(mod, K=3) == []


def test_relation_failures_on_perturbed_modules():
    # One generator doubled: at K = 1, 2 and 3 the suite must fail exactly
    # the relations whose difference, formed in full by the oracle, is
    # nonzero, and at least one.
    for spec in ([(1, G(0)), (2, G(3))], [(1, G(HALF, 1)), (1, G(-1, -2))]):
        module = tensor_module(spec)
        for field in ("x0p", "x0m", "h0", "h1"):
            scaled = _with(module, **{field: combine((2, getattr(module, field)))})
            oracle = relations_oracle.Relations(scaled)
            for K in (1, 2, 3):
                names = oracle.failures(K)
                assert names
                assert defining_relation_failures(scaled, K) == names, (spec, field, K)


_SCALE_PART = st.fractions(min_value=-5, max_value=5, max_denominator=4)


# Up to 3 factors with m at most 2 and dimension at most 12, with parts of
# numerators up to 10^12 and denominators up to 10^9.
_WIDE_SPECS = _product_st(
    3, 2, 12, st.builds(F, st.integers(-(10**12), 10**12), st.integers(1, 10**9)))


# One of x0p, x0m, h0, h1 scaled by a nonzero Gaussian rational c, h_0 or
# h_1 plus c x_0^+/-, or neither.  The sums mix weight spaces, so a row of
# one term of a relation can start at another weight than a row of the
# next.
_PERTURBED_MODULE_ARGS = (
    st.one_of(_SERIES_SPECS, _WIDE_SPECS),
    st.sampled_from((None, "x0p", "x0m", "h0", "h1", *_OFF_COMMUTING)),
    st.builds(G, _SCALE_PART, _SCALE_PART).filter(bool),
)


def _perturbed_module(spec, perturbation, c):
    module = tensor_module(spec)
    if isinstance(perturbation, str):
        return _with(module, **{perturbation: combine((c, getattr(module, perturbation)))})
    if perturbation:
        field, addend = perturbation
        added = combine((1, getattr(module, field)), (c, getattr(module, addend)))
        return _with(module, **{field: added})
    return module


@settings(max_examples=60, deadline=None)
@given(*_PERTURBED_MODULE_ARGS)
def test_relation_failures_match_subtracting_oracle(spec, perturbation, c):
    # The packed row sums must fail exactly the relations whose difference
    # matrix, formed and subtracted in full, is nonzero.
    module = _perturbed_module(spec, perturbation, c)
    oracle = relations_oracle.Relations(module)
    for K in (0, 1, 2, 3):
        assert defining_relation_failures(module, K) == oracle.failures(K), K


@settings(max_examples=40, deadline=None)
@given(*_PERTURBED_MODULE_ARGS)
def test_ladder_is_the_oracle_ladder(spec, perturbation, c):
    # The Z[i] ladder over tracked scales, reduced once per entry, must be
    # the whole-matrix recursion matrix for matrix, x_1^+/- included.
    module = _perturbed_module(spec, perturbation, c)
    oracle = relations_oracle.Relations(module)
    for K in (1, 2, 3):
        ladder = extend_generators(module, K)
        assert ladder.module is module
        assert _ladder_entries(ladder) == oracle.ladder(K), K


def _ladder_entries(ladder):
    """(x^+, x^-, h) of a package ladder, each a list of entry dicts."""
    return tuple(list(map(entries, ms)) for ms in (ladder.xp, ladder.xm, ladder.h))


_SMALL_GAUSSIAN = st.builds(G, st.integers(-2, 2), st.integers(-1, 1)).filter(bool)


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        st.tuples(_spec_st().filter(lambda spec: prod(m + 1 for m, _ in spec) <= 64),
                  st.none(), st.just(G(1))),
        st.tuples(*_PERTURBED_MODULE_ARGS),
    ),
    st.data(),
)
def test_closure_under_the_four_is_closure_under_x1_too(args, data):
    # x_1^+ = ([h_1, x_0^+] - h_0 x_0^+ - x_0^+ h_0)/2 and x_1^- alike, on
    # any module: a subspace closed under x_0^+/-, h_0 and h_1 is closed
    # under x_1^+/-, and a vector the four kill is killed by x_1^+/-.
    module = _perturbed_module(*args)
    four = module.generators()
    assert len(four) == 4
    six = four + _level_one(module)
    # The top and the bottom basis vector, which span proper submodules of
    # many of these products, and a sum of up to three basis vectors.
    bottom = module.basis_index((0,) * len(module.factor_spec))
    mixed = [ZERO] * module.dim
    for i, value in data.draw(st.lists(
            st.tuples(st.integers(0, module.dim - 1), _SMALL_GAUSSIAN), min_size=1, max_size=3)):
        mixed[i] += value
    for seed in (unit_vector(module.dim, module.highest_index), unit_vector(module.dim, bottom),
                 mixed):
        if any(seed):
            assert row_space_closure(four, seed) == row_space_closure(six, seed)
    a = data.draw(st.builds(G, _SCALE_PART, _SCALE_PART))
    pair = tensor_module([(1, a + 1), (1, a)])
    v0 = vector(pair, {(1, 0): G(1), (0, 1): G(-1)})
    killed = not any(any(g.matvec(v0)) for g in pair.generators() + _level_one(pair))
    assert trivial_submodule_check(a) is killed


def _graded(K):
    """(premise names, implied names) of the plan's grading rule at K."""
    _, plan, _, premises, implied = _relation_plan(K)
    return [name for name, i in plan if i in premises], {name for name, i in plan if i in implied}


def _h0_graded(K):
    """The names the grading rule implies at K >= 1: [h0,x_k] -/+ 2 x_k
    (k >= 1), [h0,h_k] (k >= 2), and the h-family names the plan derives
    from [h0,x_k] -/+ 2 x_k."""
    names = {f"[h0,h{k}]" for k in range(2, K + 1)}
    for x, op in (("+", "-"), ("-", "+")):
        names |= {f"[h0,x{k}{x}] {op} 2 x{k}{x}" for k in range(1, K + 1)}
        names |= {f"[h1,x{s}{x}] - [h0,x{s + 1}{x}] {op} (h0x{s}{x} + x{s}{x}h0)" for s in range(K)}
    return names


# Each breaks a premise of the grading rule on every product: h_0 doubled
# breaks [h0,x0+] - 2 x0+, h_0 + c x_0^+/- breaks [h0,x0-/+] +/- 2 x0-/+,
# and h_1 + c x_0^+/- breaks [h0,h1].
_BREAKING = ("h0", *_OFF_COMMUTING)


@settings(max_examples=30, deadline=None)
@given(*_PERTURBED_MODULE_ARGS, st.sampled_from(_BREAKING))
def test_grading_rule_holds_on_the_oracle(spec, perturbation, c, breaking):
    # The plan's grading rule, from the oracle's differences alone: on
    # any module on which [h0,h1], [h0,x0+] - 2 x0+ and [h0,x0-] + 2 x0-
    # are 0, every relation the plan takes as implied is 0 too.  On a
    # module that breaks a premise the suite must still give the oracle's
    # failures, implied relations included.
    oracle = relations_oracle.Relations(_perturbed_module(spec, perturbation, c))
    broken = _perturbed_module(spec, breaking, 2 if breaking == "h0" else c)
    broken_oracle = relations_oracle.Relations(broken)
    for K in (1, 2, 3):
        premises, implied = _graded(K)
        assert premises == ["[h0,h1]", "[h0,x0+] - 2 x0+", "[h0,x0-] + 2 x0-"], K
        assert implied == _h0_graded(K), K
        differences = dict(oracle.differences(K))
        if not any(differences[name] for name in premises):
            assert not any(differences[name] for name in implied), K
        differences = dict(broken_oracle.differences(K))
        assert any(differences[name] for name in premises), (K, breaking)
        assert defining_relation_failures(broken, K) == broken_oracle.failures(K), K


@pytest.mark.parametrize("K", [1, 2, 3])
def test_suite_walks_the_implied_relations_only_when_a_premise_fails(K, monkeypatch):
    # On a module, the suite walks every formed relation but the implied
    # ones; with h_0 doubled, [h0,x0+] - 2 x0+ fails and it walks them all.
    walked = set()

    def packed(module, K):
        *head, walks = _packed_relations(module, K)

        def walk(i, rows):
            walked.add(i)
            yield from rows

        return (*head, [walk(i, rows) for i, rows in enumerate(walks)])

    monkeypatch.setattr("yangian_weyl.ysl2._packed_relations", packed)
    formed, _, _, _, implied = _relation_plan(K)
    module = tensor_module([(1, G(0)), (2, G(3))])
    assert defining_relation_failures(module, K) == []
    assert walked == set(range(len(formed))) - implied and implied, K
    walked.clear()
    broken = _with(module, h0=combine((2, module.h0)))
    assert defining_relation_failures(broken, K) == relations_oracle.Relations(broken).failures(K)
    assert walked == set(range(len(formed))), K


def _unpack(base, value, S, n):
    """The balanced S-bit digits of value, two per slot from the slot
    `base` up to slot n, as {slot: (re, im)}; whatever is left over is kept
    under the key "rest"."""
    parts = {}
    for digit_at in range(2 * (base or 0), 2 * n):
        digit = value & ((1 << S) - 1)
        if digit >> (S - 1):
            digit -= 1 << S
        if digit:
            parts.setdefault(digit_at // 2, [0, 0])[digit_at % 2] = digit
        value = (value - digit) >> S
    out = {t: tuple(part) for t, part in parts.items()}
    if value:
        out["rest"] = value
    return out


@settings(max_examples=40, deadline=None)
@given(*_PERTURBED_MODULE_ARGS)
def test_packed_rows_are_the_difference_matrices(spec, perturbation, c):
    # Every row of every formed relation at K = 0, 1, 2 and 3, read back
    # digit by digit, is L^2 times that row of the oracle's difference
    # matrix, or of its negation, for every name the plan maps to that
    # relation: no digit overflows into the next, every term was shifted to
    # its own slots, and every name the plan shares or derives is that
    # relation.  A name the plan takes as 0 has a zero difference.  L is the
    # lcm of the ladder's unreduced scales: with sp, sm, s0, s1 the
    # denominators of x_0^+, x_0^-, h_0, h_1 and step = 2 lcm(s0, s1),
    # x_k^+/- is over sp step^k, sm step^k and h_k (k >= 2) over
    # sp sm step^k, so L is lcm(sp, sm, s0, s1) at K = 0.  Every denominator
    # of the oracle ladder divides it.
    module = _perturbed_module(spec, perturbation, c)
    oracle = relations_oracle.Relations(module)
    sp, sm, s0, s1 = (g.den for g in module.generators())
    step = 2 * lcm(s0, s1)
    for K in (0, 1, 2, 3):
        formed, plan, *_ = _relation_plan(K)
        den, S, slot, walks = _packed_relations(module, K)
        scales = [s0, s1] + [s * step**k for k in range(K + 1) for s in (sp, sm)]
        assert den == lcm(*scales, *(sp * sm * step**k for k in range(2, K + 1))), K
        matrices = [m for ms in oracle.ladder(K) for m in ms]
        assert den % lcm(*(x.triple[2] for m in matrices for x in m.values())) == 0, K
        differences = dict(oracle.differences(K))
        assert [name for name, _ in plan] == list(differences), K
        got = [[_unpack(base, value, S, len(slot)) for base, value in rows] for rows in walks]
        assert len(got) == len(formed), K
        for name, index in plan:
            diff = differences[name]
            if index is None:
                assert not diff, (K, name)
                continue
            want = [{} for _ in range(module.dim)]
            for (i, j), x in diff.items():
                want[i][slot[j]] = (x.re * den * den, x.im * den * den)
            negated = [{t: (-re, -im) for t, (re, im) in row.items()} for row in want]
            assert got[index] in (want, negated), (K, name)


@pytest.mark.parametrize("K, most_formed, most_products", [(0, 3, 9), (1, 10, 29), (2, 24, 83),
                                                          (3, 46, 178)])
def test_relation_plan_forms_each_distinct_relation_once(K, most_formed, most_products):
    # The plan lists every name of the oracle's suite, in order, but forms
    # only its distinct relations, with at most `most_products` term
    # products among at most `most_formed` of them, each read by at least
    # one name; `_packed_relations` walks each formed relation.
    module = tensor_module([(1, G(0)), (2, G(3))])
    names = [name for name, _ in relations_oracle.Relations(module).differences(K)]
    formed, plan, *_ = _relation_plan(K)
    assert [name for name, _ in plan] == names
    assert len(_packed_relations(module, K)[3]) == len(formed)
    assert len(formed) <= most_formed
    assert sum(map(len, formed)) <= most_products
    assert {index for _, index in plan} - {None} == set(range(len(formed)))


def test_tensor_module_rejects_empty():
    with pytest.raises(ValueError, match="^empty factor list$"):
        tensor_module([])


@pytest.mark.parametrize("bad", [True, 0, -1, 1.0])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_tensor_module_refuses_bad_m_in_any_position(bad, position):
    spec = [(1, G(0)), (2, G(1)), (1, G(F(1, 2), 1))]
    spec[position] = (bad, spec[position][1])
    with pytest.raises(ValueError, match="^m must be a positive integer$"):
        tensor_module(spec)


@settings(max_examples=60, deadline=None)
@given(_product_st(5, 3, 256, st.fractions(min_value=-6, max_value=6, max_denominator=5)))
def test_tensor_module_matches_kron_fold(spec):
    # Labels, factor_spec and all four matrices, as record equality.
    assert tensor_oracle.read(tensor_module(spec)) == tensor_oracle.tensor_module(spec)


def test_oracles_do_not_run_the_package_kernel(monkeypatch):
    # The oracles reach the package's answers with its row kernel, its
    # lowest-terms step, its kron, its matrix product and its echelon all
    # made to raise.
    spec = [(1, G(0)), (2, G(F(5, 2), 1)), (1, G(F(-1, 3)))]
    module = tensor_module(spec)
    assert module.dim == 12
    ladder = extend_generators(module, 2)
    failures = defining_relation_failures(module, 2)
    levels = lowering_levels(module)
    series = eigenvalue_series([G(1), G(F(1, 2), 1), G(-2), G(0, 3)], 2, 8)
    roots = series_to_roots(series, 4, 2)

    def refuse(*args):
        raise AssertionError("an oracle ran the package's matrix arithmetic")

    for name in ("_row_sum", "_lowest", "kron"):
        monkeypatch.setattr(exact, name, refuse)
    monkeypatch.setattr(exact.Matrix, "__matmul__", refuse)
    monkeypatch.setattr(exact._Echelon, "insert", refuse)
    assert tensor_oracle.tensor_module(spec) == tensor_oracle.read(module)
    oracle = relations_oracle.Relations(module)
    assert oracle.ladder(2) == _ladder_entries(ladder)
    assert oracle.failures(2) == failures
    assert spin_oracle.lowering_levels(module) == levels
    assert roots_oracle.series_to_roots_by_linear_system(series, 4, 2) == roots
