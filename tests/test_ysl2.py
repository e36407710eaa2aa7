"""The rank-one engine: evaluation modules, tensors, ladders, oracles."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from yangian_weyl.exact import GaussianRational as G, Matrix, ZERO, _dense, unit_vector
from yangian_weyl.ysl2 import (
    _h_on_top,
    defining_relation_failures,
    evaluation_module,
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
import tensor_oracle

F = Fraction
HALF = F(1, 2)


def _vec(module, coeffs):
    out = [ZERO] * module.dim
    for label, value in coeffs.items():
        out[module.basis_index(label)] = value
    return tuple(out)


def _apply(matrices, vec):
    for m in reversed(matrices):
        vec = m.matvec(vec)
    return vec


def test_evaluation_module_level_one_actions():
    a = G(F(7, 2))
    mod = evaluation_module(1, a)
    w1 = unit_vector(2, 1)
    assert mod.h1.matvec(w1) == tuple(a * e for e in w1)
    assert mod.x1m.matvec(w1) == tuple(a * e for e in mod.x0m.matvec(w1))
    w0 = unit_vector(2, 0)
    assert mod.h1.matvec(w0) == tuple(-a * e for e in w0)

    mod2 = evaluation_module(2, a)
    w2 = unit_vector(3, 2)
    assert mod2.x1m.matvec(w2) == tuple((a + 1) * e for e in unit_vector(3, 1))
    assert mod2.h1.matvec(w2) == tuple(2 * (a + 1) * e for e in w2)

    # x_1^+/- come from the recursion; the closed form is
    # x_1^+ w_s = (s+a)(s+1) w_{s+1} and x_1^- w_s = (s+a-1)(m-s+1) w_{s-1}.
    for m, a in product([1, 2, 3], [G(0), G(F(-5, 3)), G(F(1, 2), 2)]):
        mod = evaluation_module(m, a)
        n = m + 1
        xp = [[ZERO] * n for _ in range(n)]
        xm = [[ZERO] * n for _ in range(n)]
        for s in range(m):
            xp[s + 1][s] = (s + a) * (s + 1)
            xm[s][s + 1] = (s + a) * (m - s)
        assert mod.x1p == Matrix(xp)
        assert mod.x1m == Matrix(xm)


def test_evaluation_module_rejects_bad_m():
    # A bool is not a dimension, although it is an int subclass.
    for m in (0, -1, True, False, 1.5, F(2), "2", G(1)):
        with pytest.raises(ValueError):
            evaluation_module(m, G(0))
        with pytest.raises(ValueError):
            tensor_module([(1, G(0)), (m, G(1))])


@pytest.mark.parametrize("a", [G(0), G(1), G(-2), G(F(1, 2))])
def test_w2_identity_battery(a):
    """Six identities of the three-dimensional module, plus the level-k
    lowering patterns."""
    mod = evaluation_module(2, a)
    ladder = extend_generators(mod, 3)
    top = unit_vector(3, 2)
    w1 = unit_vector(3, 1)
    x0m = ladder.xm[0]
    sq = x0m @ x0m

    for k in range(4):
        assert ladder.xm[k].matvec(top) == tuple((a + 1) ** k * e for e in w1)
        assert ladder.xm[k].matvec(w1) == tuple(
            2 * a**k * e for e in unit_vector(3, 0)
        )
    assert (x0m @ ladder.xm[1]).matvec(top) == tuple(
        (a + 1) * e for e in sq.matvec(top)
    )
    assert (ladder.xm[1] @ x0m).matvec(top) == tuple(a * e for e in sq.matvec(top))
    assert (ladder.xm[1] @ x0m + x0m @ ladder.xm[1]).matvec(top) == tuple(
        (2 * a + 1) * e for e in sq.matvec(top)
    )
    assert (ladder.xm[2] @ x0m + x0m @ ladder.xm[2]).matvec(top) == tuple(
        (2 * a * a + 2 * a + 1) * e for e in sq.matvec(top)
    )
    assert (ladder.xm[1] @ ladder.xm[1]).matvec(top) == tuple(
        a * (a + 1) * e for e in sq.matvec(top)
    )


@pytest.mark.parametrize(
    "a,b",
    [(x, y) for x in (G(0), G(1), G(2), G(-1), G(F(3, 2)))
     for y in (G(0), G(1), G(2), G(-1), G(F(3, 2)))],
)
def test_pair_identity_battery(a, b):
    """Identities on W_1(b) (x) W_1(a); the first-level vectors are
    independent exactly away from a - b = 1."""
    mod = tensor_module([(1, b), (1, a)])
    ladder = extend_generators(mod, 3)
    top = unit_vector(4, mod.highest_index)
    x0m, x1m, x2m, x3m = ladder.xm[:4]
    sq_top = (x0m @ x0m).matvec(top)

    def scaled(c, vec):
        return tuple(c * e for e in vec)

    if a - b != G(1):
        d1, d2 = x0m.matvec(top), x1m.matvec(top)
        assert any(
            d1[i] * d2[j] - d1[j] * d2[i] for i in range(4) for j in range(4)
        )
    assert (x0m @ x1m).matvec(top) == scaled((a + b + 1) / 2, sq_top)
    assert (x1m @ x0m).matvec(top) == scaled((a + b - 1) / 2, sq_top)
    assert (x1m @ x0m + x0m @ x1m).matvec(top) == scaled(a + b, sq_top)
    expected = _vec(mod, {(0, 1): b * b + b + a, (1, 0): a * a})
    assert x2m.matvec(top) == expected
    assert (x0m @ x2m).matvec(top) == scaled((b * b + b + a + a * a) / 2, sq_top)
    assert (x1m @ x2m).matvec(top) == scaled(a * b * (a + b + 1) / 2, sq_top)
    assert (x1m @ x1m).matvec(top) == scaled(a * b, sq_top)
    expected3 = _vec(mod, {(0, 1): b**3 + b * b + a * b + a * a, (1, 0): a**3})
    assert x3m.matvec(top) == expected3
    assert (x0m @ x3m).matvec(top) == scaled(
        (b**3 + b * b + a * b + a * a + a**3) / 2, sq_top
    )


def test_tensor_top_eigenvalue_matches_series():
    from yangian_weyl.drinfeld import eigenvalue_series

    a, b = G(F(5, 3)), G(-2)
    mod = tensor_module([(1, b), (1, a)])
    top = unit_vector(4, mod.highest_index)
    assert mod.h1.matvec(top) == tuple((a + b + 1) * e for e in top)
    series = eigenvalue_series([a, b], 1, 2)
    assert series.coeffs[2] == a + b + 1


def test_extend_generators_examples():
    a = G(F(2, 5))
    mod = evaluation_module(1, a)
    ladder = extend_generators(mod, 4)
    for k in range(5):
        assert ladder.xm[k] == mod.x0m.scale(a**k)
    assert extend_generators(mod, 1).xm == (mod.x0m, mod.x1m)
    with pytest.raises(ValueError):
        extend_generators(mod, 0)


def test_coassociativity_of_level_one():
    # Left- and right-associated triple products carry the same matrices.
    params = [(1, G(2)), (1, G(0)), (2, G(F(1, 2)))]
    left = tensor_module(params)

    mid = tensor_module(params[1:])
    right = tensor_oracle.tensor_pair(evaluation_module(*params[0]), mid)
    assert left.h1 == right.h1
    assert left.x1m == right.x1m
    assert left.x1p == right.x1p
    assert left.x1m is left.x1m


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
    assert lowering_levels(evaluation_module(3, G(F(1, 2), 1))) == (1, 1, 1, 1)


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
def test_lowering_levels_agree_with_six_generator_closure(spec):
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
def _series_spec_st(draw):
    """1-4 factors with m in {1,2,3} and dimension at most 48; the
    parameters are all real or all Gaussian."""
    ms = draw(
        st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(
            lambda ms: prod(m + 1 for m in ms) <= 48
        )
    )
    part = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    gauss = draw(st.booleans())
    return [(m, G(draw(part), draw(part) if gauss else 0)) for m in ms]


# h_0 or h_1 plus a raising or lowering matrix: h_0 and h_1 then need not
# commute, and neither need D = (h_1 - h_0)/2 and S = (h_1 + h_0)/2.
_OFF_COMMUTING = (("h1", "x0p"), ("h1", "x0m"), ("h0", "x0p"), ("h0", "x0m"))


@settings(max_examples=40, deadline=None)
@given(_series_spec_st(), st.integers(0, 6), st.sampled_from((None, *_OFF_COMMUTING)))
def test_series_check_h_on_top_matches_ladder(spec, order, perturbation):
    # The series check runs the x_k^+ recursion on vectors and applies
    # [x_k^+, x_0^-] to the top vector; the full ladder's h_k matrices must
    # give the same vectors, on true modules and off the commuting case.
    module = tensor_module(spec)
    if perturbation:
        field, addend = perturbation
        module = replace(module, **{field: getattr(module, field) + getattr(module, addend)})
        diff, total = module._half_diff, module._half_sum
        assume(diff @ total != total @ diff)
    ladder = extend_generators(module, max(order, 1))
    top = unit_vector(module.dim, module.highest_index)
    images = list(_h_on_top(module, order))
    assert len(images) == order + 1
    for k, image in enumerate(images):
        bracket = ladder.product("+", k, "-", 0) - ladder.product("-", 0, "+", k)
        assert _dense(image, module.dim) == bracket.matvec(top), k
        if not perturbation:  # off a module, h_0 and h_1 are no commutators
            assert bracket == ladder.h[k], k
    if not perturbation:
        assert verify_drinfeld_series(spec, order)


def test_trivial_submodule_check():
    for a in (G(0), G(5), G(F(-3, 2))):
        assert trivial_submodule_check(a)


def test_reversed_order_vector_is_not_a_submodule():
    # In W_1(a) (x) W_1(a+1) the analogous vector generates more than a line.
    a = G(0)
    mod = tensor_module([(1, a), (1, a + 1)])
    v0 = _vec(mod, {(1, 0): G(1), (0, 1): G(-1)})
    assert submodule_dimension(mod, v0) > 1
    assert any(mod.x1m.matvec(v0))


def test_defining_relations_on_various_modules():
    modules = [
        evaluation_module(1, G(F(1, 3))),
        evaluation_module(3, G(-1)),
        tensor_module([(1, G(1)), (1, G(0))]),
        tensor_module([(2, G(F(1, 2))), (1, G(2))]),
        tensor_module([(1, G(0, 1)), (1, G(1)), (1, G(-1))]),
    ]
    for mod in modules:
        assert defining_relation_failures(mod, K=3) == []


# What `defining_relation_failures` reports at K = 1, 2 and 3 once one
# level-0/1 generator is doubled; both products in the test give these
# lists, and doubling x0p or x0m breaks the same relations.
_SCALED_X0_FAILURES = (
    [
        "[x0+,x0-] - h0", "[x0+,x1-] - h1", "[x1+,x0-] - h1",
    ],
    [
        "[x0+,x0-] - h0", "[x0+,x1-] - h1", "[x1+,x0-] - h1",
        "[h2,x0+] - [h1,x1+] - (h1x0+ + x0+h1)",
        "[h2,x0-] - [h1,x1-] + (h1x0- + x0-h1)",
        "[h2,x1+] - [h1,x2+] - (h1x1+ + x1+h1)",
        "[h2,x1-] - [h1,x2-] + (h1x1- + x1-h1)",
    ],
    [
        "[x0+,x0-] - h0", "[x0+,x1-] - h1", "[x1+,x0-] - h1",
        "[h2,x0+] - [h1,x1+] - (h1x0+ + x0+h1)",
        "[h2,x0-] - [h1,x1-] + (h1x0- + x0-h1)",
        "[h2,x1+] - [h1,x2+] - (h1x1+ + x1+h1)",
        "[h2,x1-] - [h1,x2-] + (h1x1- + x1-h1)",
        "[h2,x2+] - [h1,x3+] - (h1x2+ + x2+h1)",
        "[h2,x2-] - [h1,x3-] + (h1x2- + x2-h1)",
    ],
)
_SCALED_H0_FAILURES = (
    [
        "[h0,x0+] - 2 x0+", "[h0,x0-] + 2 x0-", "[h0,x1+] - 2 x1+", "[h0,x1-] + 2 x1-",
        "[x0+,x0-] - h0", "[x0+,x1-] - h1", "[x1+,x0-] - h1",
        "[x1+,x0+] - [x0+,x1+] - (x0+x0+ + x0+x0+)",
        "[x1-,x0-] - [x0-,x1-] + (x0-x0- + x0-x0-)",
        "[h1,x0+] - [h0,x1+] - (h0x0+ + x0+h0)",
        "[h1,x0-] - [h0,x1-] + (h0x0- + x0-h0)",
    ],
    [
        "[h1,h2]", "[h0,x0+] - 2 x0+", "[h0,x0-] + 2 x0-", "[h0,x1+] - 2 x1+",
        "[h0,x1-] + 2 x1-", "[h0,x2+] - 2 x2+", "[h0,x2-] + 2 x2-", "[x0+,x0-] - h0",
        "[x0+,x1-] - h1", "[x0+,x2-] - h2", "[x1+,x0-] - h1", "[x1+,x1-] - h2",
        "[x1+,x0+] - [x0+,x1+] - (x0+x0+ + x0+x0+)",
        "[x1-,x0-] - [x0-,x1-] + (x0-x0- + x0-x0-)",
        "[x1+,x1+] - [x0+,x2+] - (x0+x1+ + x1+x0+)",
        "[x1-,x1-] - [x0-,x2-] + (x0-x1- + x1-x0-)",
        "[x2+,x0+] - [x1+,x1+] - (x1+x0+ + x0+x1+)",
        "[x2-,x0-] - [x1-,x1-] + (x1-x0- + x0-x1-)",
        "[x2+,x1+] - [x1+,x2+] - (x1+x1+ + x1+x1+)",
        "[x2-,x1-] - [x1-,x2-] + (x1-x1- + x1-x1-)",
        "[h1,x0+] - [h0,x1+] - (h0x0+ + x0+h0)",
        "[h1,x0-] - [h0,x1-] + (h0x0- + x0-h0)",
        "[h1,x1+] - [h0,x2+] - (h0x1+ + x1+h0)",
        "[h1,x1-] - [h0,x2-] + (h0x1- + x1-h0)",
        "[h2,x0+] - [h1,x1+] - (h1x0+ + x0+h1)",
        "[h2,x0-] - [h1,x1-] + (h1x0- + x0-h1)",
        "[h2,x1+] - [h1,x2+] - (h1x1+ + x1+h1)",
        "[h2,x1-] - [h1,x2-] + (h1x1- + x1-h1)",
    ],
    [
        "[h1,h2]", "[h1,h3]", "[h2,h3]", "[h0,x0+] - 2 x0+", "[h0,x0-] + 2 x0-",
        "[h0,x1+] - 2 x1+", "[h0,x1-] + 2 x1-", "[h0,x2+] - 2 x2+", "[h0,x2-] + 2 x2-",
        "[h0,x3+] - 2 x3+", "[h0,x3-] + 2 x3-", "[x0+,x0-] - h0", "[x0+,x1-] - h1",
        "[x0+,x2-] - h2", "[x0+,x3-] - h3", "[x1+,x0-] - h1", "[x1+,x1-] - h2",
        "[x1+,x2-] - h3", "[x2+,x1-] - h3", "[x1+,x0+] - [x0+,x1+] - (x0+x0+ + x0+x0+)",
        "[x1-,x0-] - [x0-,x1-] + (x0-x0- + x0-x0-)",
        "[x1+,x1+] - [x0+,x2+] - (x0+x1+ + x1+x0+)",
        "[x1-,x1-] - [x0-,x2-] + (x0-x1- + x1-x0-)",
        "[x1+,x2+] - [x0+,x3+] - (x0+x2+ + x2+x0+)",
        "[x1-,x2-] - [x0-,x3-] + (x0-x2- + x2-x0-)",
        "[x2+,x0+] - [x1+,x1+] - (x1+x0+ + x0+x1+)",
        "[x2-,x0-] - [x1-,x1-] + (x1-x0- + x0-x1-)",
        "[x2+,x1+] - [x1+,x2+] - (x1+x1+ + x1+x1+)",
        "[x2-,x1-] - [x1-,x2-] + (x1-x1- + x1-x1-)",
        "[x2+,x2+] - [x1+,x3+] - (x1+x2+ + x2+x1+)",
        "[x2-,x2-] - [x1-,x3-] + (x1-x2- + x2-x1-)",
        "[x3+,x0+] - [x2+,x1+] - (x2+x0+ + x0+x2+)",
        "[x3-,x0-] - [x2-,x1-] + (x2-x0- + x0-x2-)",
        "[x3+,x1+] - [x2+,x2+] - (x2+x1+ + x1+x2+)",
        "[x3-,x1-] - [x2-,x2-] + (x2-x1- + x1-x2-)",
        "[x3+,x2+] - [x2+,x3+] - (x2+x2+ + x2+x2+)",
        "[x3-,x2-] - [x2-,x3-] + (x2-x2- + x2-x2-)",
        "[h1,x0+] - [h0,x1+] - (h0x0+ + x0+h0)",
        "[h1,x0-] - [h0,x1-] + (h0x0- + x0-h0)",
        "[h1,x1+] - [h0,x2+] - (h0x1+ + x1+h0)",
        "[h1,x1-] - [h0,x2-] + (h0x1- + x1-h0)",
        "[h1,x2+] - [h0,x3+] - (h0x2+ + x2+h0)",
        "[h1,x2-] - [h0,x3-] + (h0x2- + x2-h0)",
        "[h2,x0+] - [h1,x1+] - (h1x0+ + x0+h1)",
        "[h2,x0-] - [h1,x1-] + (h1x0- + x0-h1)",
        "[h2,x1+] - [h1,x2+] - (h1x1+ + x1+h1)",
        "[h2,x1-] - [h1,x2-] + (h1x1- + x1-h1)",
        "[h2,x2+] - [h1,x3+] - (h1x2+ + x2+h1)",
        "[h2,x2-] - [h1,x3-] + (h1x2- + x2-h1)",
        "[h3,x0+] - [h2,x1+] - (h2x0+ + x0+h2)",
        "[h3,x0-] - [h2,x1-] + (h2x0- + x0-h2)",
        "[h3,x1+] - [h2,x2+] - (h2x1+ + x1+h2)",
        "[h3,x1-] - [h2,x2-] + (h2x1- + x1-h2)",
        "[h3,x2+] - [h2,x3+] - (h2x2+ + x2+h2)",
        "[h3,x2-] - [h2,x3-] + (h2x2- + x2-h2)",
    ],
)
_SCALED_H1_FAILURES = (
    [
        "[x0+,x1-] - h1", "[x1+,x0-] - h1", "[x1+,x0+] - [x0+,x1+] - (x0+x0+ + x0+x0+)",
        "[x1-,x0-] - [x0-,x1-] + (x0-x0- + x0-x0-)",
    ],
    [
        "[h1,h2]", "[x0+,x1-] - h1", "[x0+,x2-] - h2", "[x1+,x0-] - h1",
        "[x1+,x1-] - h2", "[x1+,x0+] - [x0+,x1+] - (x0+x0+ + x0+x0+)",
        "[x1-,x0-] - [x0-,x1-] + (x0-x0- + x0-x0-)",
        "[x1+,x1+] - [x0+,x2+] - (x0+x1+ + x1+x0+)",
        "[x1-,x1-] - [x0-,x2-] + (x0-x1- + x1-x0-)",
        "[x2+,x0+] - [x1+,x1+] - (x1+x0+ + x0+x1+)",
        "[x2-,x0-] - [x1-,x1-] + (x1-x0- + x0-x1-)",
        "[x2+,x1+] - [x1+,x2+] - (x1+x1+ + x1+x1+)",
        "[x2-,x1-] - [x1-,x2-] + (x1-x1- + x1-x1-)",
        "[h2,x0+] - [h1,x1+] - (h1x0+ + x0+h1)",
        "[h2,x0-] - [h1,x1-] + (h1x0- + x0-h1)",
        "[h2,x1+] - [h1,x2+] - (h1x1+ + x1+h1)",
        "[h2,x1-] - [h1,x2-] + (h1x1- + x1-h1)",
    ],
    [
        "[h1,h2]", "[h1,h3]", "[h2,h3]", "[x0+,x1-] - h1", "[x0+,x2-] - h2",
        "[x0+,x3-] - h3", "[x1+,x0-] - h1", "[x1+,x1-] - h2", "[x1+,x2-] - h3",
        "[x2+,x1-] - h3", "[x1+,x0+] - [x0+,x1+] - (x0+x0+ + x0+x0+)",
        "[x1-,x0-] - [x0-,x1-] + (x0-x0- + x0-x0-)",
        "[x1+,x1+] - [x0+,x2+] - (x0+x1+ + x1+x0+)",
        "[x1-,x1-] - [x0-,x2-] + (x0-x1- + x1-x0-)",
        "[x1+,x2+] - [x0+,x3+] - (x0+x2+ + x2+x0+)",
        "[x1-,x2-] - [x0-,x3-] + (x0-x2- + x2-x0-)",
        "[x2+,x0+] - [x1+,x1+] - (x1+x0+ + x0+x1+)",
        "[x2-,x0-] - [x1-,x1-] + (x1-x0- + x0-x1-)",
        "[x2+,x1+] - [x1+,x2+] - (x1+x1+ + x1+x1+)",
        "[x2-,x1-] - [x1-,x2-] + (x1-x1- + x1-x1-)",
        "[x2+,x2+] - [x1+,x3+] - (x1+x2+ + x2+x1+)",
        "[x2-,x2-] - [x1-,x3-] + (x1-x2- + x2-x1-)",
        "[x3+,x0+] - [x2+,x1+] - (x2+x0+ + x0+x2+)",
        "[x3-,x0-] - [x2-,x1-] + (x2-x0- + x0-x2-)",
        "[x3+,x1+] - [x2+,x2+] - (x2+x1+ + x1+x2+)",
        "[x3-,x1-] - [x2-,x2-] + (x2-x1- + x1-x2-)",
        "[x3+,x2+] - [x2+,x3+] - (x2+x2+ + x2+x2+)",
        "[x3-,x2-] - [x2-,x3-] + (x2-x2- + x2-x2-)",
        "[h2,x0+] - [h1,x1+] - (h1x0+ + x0+h1)",
        "[h2,x0-] - [h1,x1-] + (h1x0- + x0-h1)",
        "[h2,x1+] - [h1,x2+] - (h1x1+ + x1+h1)",
        "[h2,x1-] - [h1,x2-] + (h1x1- + x1-h1)",
        "[h2,x2+] - [h1,x3+] - (h1x2+ + x2+h1)",
        "[h2,x2-] - [h1,x3-] + (h1x2- + x2-h1)",
        "[h3,x0+] - [h2,x1+] - (h2x0+ + x0+h2)",
        "[h3,x0-] - [h2,x1-] + (h2x0- + x0-h2)",
        "[h3,x1+] - [h2,x2+] - (h2x1+ + x1+h2)",
        "[h3,x1-] - [h2,x2-] + (h2x1- + x1-h2)",
        "[h3,x2+] - [h2,x3+] - (h2x2+ + x2+h2)",
        "[h3,x2-] - [h2,x3-] + (h2x2- + x2-h2)",
    ],
)


def test_relation_failures_on_perturbed_modules():
    expected = {
        "x0p": _SCALED_X0_FAILURES,
        "x0m": _SCALED_X0_FAILURES,
        "h0": _SCALED_H0_FAILURES,
        "h1": _SCALED_H1_FAILURES,
    }
    for spec in ([(1, G(0)), (2, G(3))], [(1, G(HALF, 1)), (1, G(-1, -2))]):
        module = tensor_module(spec)
        for field, lists in expected.items():
            scaled = replace(module, **{field: getattr(module, field).scale(2)})
            for K, names in enumerate(lists, start=1):
                assert names
                assert defining_relation_failures(scaled, K) == names, (spec, field, K)


_SCALE_PART = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@settings(max_examples=30, deadline=None)
@given(
    _series_spec_st(),
    st.sampled_from((None, "x0p", "x0m", "h0", "h1")),
    st.builds(G, _SCALE_PART, _SCALE_PART).filter(bool),
)
def test_relation_failures_match_subtracting_oracle(spec, field, c):
    # One of x0p, x0m, h0, h1 scaled by a nonzero Gaussian rational, or none:
    # the fused vanishing sums must fail exactly the relations whose
    # difference matrix, formed and subtracted in full, is nonzero.
    module = tensor_module(spec)
    if field:
        module = replace(module, **{field: getattr(module, field).scale(c)})
    for K in (1, 2, 3):
        assert defining_relation_failures(module, K) == (
            relations_oracle.defining_relation_failures(module, K)
        ), K


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


@st.composite
def _oracle_spec_st(draw):
    """1-5 factors with m in {1,2,3} and dimension at most 256; the
    parameters are all real or all Gaussian, with denominators up to 5."""
    ms = draw(
        st.lists(st.integers(1, 3), min_size=1, max_size=5).filter(
            lambda ms: prod(m + 1 for m in ms) <= 256
        )
    )
    part = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    gauss = draw(st.booleans())
    return [(m, G(draw(part), draw(part) if gauss else 0)) for m in ms]


@settings(max_examples=60, deadline=None)
@given(_oracle_spec_st())
def test_tensor_module_matches_kron_fold(spec):
    # Labels, factor_spec and all four matrices, as dataclass equality.
    assert tensor_module(spec) == tensor_oracle.tensor_module(spec)
