"""Drinfeld tuples, ordered factorization, and the series inverse pair."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from yangian_weyl.drinfeld import (
    DrinfeldTuple,
    FactorChain,
    NotDrinfeldSeriesError,
    TrivialModuleError,
    _clear_denominators,
    _gaussian_divisors,
    _gaussian_rational_roots,
    chain_to_poly,
    eigenvalue_series,
    order_factors,
    series_to_roots,
    shift_tuple,
)
from yangian_weyl.exact import ZERO, GaussianRational as G, Series
from yangian_weyl.rootsys import lie_type

from pair_oracle import ordering_key
from roots_oracle import divisor_search_roots, series_to_roots_by_linear_system

A2 = lie_type("A", 2)


def test_order_factors_by_real_part():
    pi = DrinfeldTuple.from_dict(A2, {1: [G(2)], 2: [G(1), G(3)]})
    chain = order_factors(pi)
    assert chain.factors == ((2, G(3)), (1, G(2)), (2, G(1)))


def test_order_factors_single_root():
    pi = DrinfeldTuple.from_dict(A2, {1: [G(0)]})
    assert order_factors(pi).factors == ((1, G(0)),)


def test_order_factors_tie_breaks():
    pi = DrinfeldTuple.from_dict(A2, {1: [G(1, 1), G(1, -1)]})
    assert order_factors(pi).factors == ((1, G(1, 1)), (1, G(1, -1)))
    # Equal scalars at different nodes: lower node first.
    pi2 = DrinfeldTuple.from_dict(A2, {1: [G(0)], 2: [G(0)]})
    assert order_factors(pi2).factors == ((1, G(0)), (2, G(0)))


def test_order_factors_real_parts_weakly_decreasing():
    rng = random.Random(11)
    for _ in range(50):
        rows = {
            node: [G(Fraction(rng.randint(-6, 6), rng.randint(1, 3)), rng.randint(-1, 1))
                   for _ in range(rng.randint(0, 3))]
            for node in (1, 2)
        }
        if not any(rows.values()):
            continue
        chain = order_factors(DrinfeldTuple.from_dict(A2, rows))
        res = [a.re for _, a in chain.factors]
        assert all(x >= y for x, y in zip(res, res[1:]))
        assert chain_to_poly(chain) == DrinfeldTuple.from_dict(A2, rows)


# Denominators small, just past 2^64, and near 10^30, some of them sharing
# factors.
_sort_dens = st.sampled_from([1, 2, 3, 6, 2**64 + 1, 2**64 + 13, 3 * (2**64 + 1), 10**30 - 1])
_sort_dens |= st.integers(1, 2**70)


@st.composite
def _sort_parts(draw, base):
    """A real or imaginary part: one of the `base` values, a value q/e
    exactly 1/(de) above or below a base value p/d, or a fresh value.  A
    gap of 1/(de) is the least two parts over d and e can have."""
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return draw(st.sampled_from(base))
    if kind == 1:
        sign = draw(st.sampled_from([1, -1]))
        x = sign * draw(st.sampled_from(base))
        p, d = x.numerator, x.denominator
        k = draw(st.integers(0, 2**70))
        # e = -1/p (mod d), so that d divides p*e + 1 and q*d - p*e = 1.
        e = (-pow(p, -1, d)) % d + d * k if d > 1 else k + 1
        return sign * Fraction((p * e + 1) // d, e)
    d = draw(_sort_dens)
    return Fraction(draw(st.integers(-4 * d, 4 * d)), d)


@st.composite
def _sort_roots(draw):
    """(node, root) pairs on two nodes whose parts tie across
    denominators, sit exactly 1/(de) apart, and repeat whole."""
    base = draw(st.lists(st.builds(Fraction, st.integers(-5, 5), _sort_dens),
                         min_size=1, max_size=3))
    roots = draw(st.lists(
        st.tuples(st.integers(1, 2), st.builds(G, _sort_parts(base), _sort_parts(base))),
        min_size=1, max_size=12))
    return roots + draw(st.lists(st.sampled_from(roots), max_size=3))


@settings(max_examples=300, deadline=None)
@given(_sort_roots())
def test_integer_sort_keys_match_the_fraction_oracle(roots):
    # `_canonical` and `order_factors` sort on scaled floors of the parts;
    # the oracle sorts on the parts as Fractions.  Values tied under the
    # oracle are equal, so the sorted sequences must be equal.
    pi = DrinfeldTuple.from_dict(A2, {1: [a for b, a in roots if b == 1],
                                      2: [a for b, a in roots if b == 2]})
    for node in (1, 2):
        row = [a for b, a in roots if b == node]
        assert list(pi.roots[node - 1]) == sorted(row, key=ordering_key, reverse=True)
    expected = sorted(roots, key=lambda pair: (*ordering_key(pair[1]), pair[0]))
    assert list(order_factors(pi).factors) == expected


def test_order_factors_rejects_trivial():
    with pytest.raises(TrivialModuleError):
        order_factors(DrinfeldTuple.from_dict(A2, {}))


def test_chain_to_poly_examples():
    chain = FactorChain(A2, ((1, G(5)),))
    assert chain_to_poly(chain) == DrinfeldTuple.from_dict(A2, {1: [G(5)]})
    chain2 = FactorChain(A2, ((2, G(0)), (2, G(0))))
    assert chain_to_poly(chain2).degrees == (0, 2)


def test_shift_tuple():
    pi = DrinfeldTuple.from_dict(A2, {1: [G(1)]})
    assert shift_tuple(pi, G(2)) == DrinfeldTuple.from_dict(A2, {1: [G(3)]})
    assert shift_tuple(pi, G(0)) == pi
    assert shift_tuple(shift_tuple(pi, G(7)), G(-7)) == pi


def test_eigenvalue_series_single_root():
    a = G(Fraction(5, 2))
    s = eigenvalue_series([a], 1, 3)
    assert s.coeffs == (G(1), G(1), a, a * a)
    s2 = eigenvalue_series([a], 2, 3)
    assert s2.coeffs == (G(1), G(2), 2 * a, 2 * a * a)


def test_eigenvalue_series_two_roots():
    a, b = G(2), G(Fraction(1, 3))
    s = eigenvalue_series([a, b], 1, 2)
    assert s.coeffs[1] == G(2)
    assert s.coeffs[2] == a + b + 1


def test_series_to_roots_examples():
    assert series_to_roots(Series([G(1), G(1), G(5), G(25)]), 1, 1) == (G(5),)
    roots = series_to_roots(Series([G(1), G(1), G(5), G(25), G(125)]), 1, 1)
    assert roots == (G(5),)
    with pytest.raises(ValueError):
        series_to_roots(Series([G(1), G(2), G(0)]), 2, 1)  # order too small

    # The consecutive string {2, 3}: its shift-1 expansion collapses to
    # 1 + 2u^-1 + 2*3 u^-2 + 2*9 u^-3 + ... and inverts back to the string.
    s2 = eigenvalue_series([G(2), G(3)], 1, 5)
    assert series_to_roots(s2, 2, 1) == (G(2), G(3))
    assert s2.coeffs[:4] == (G(1), G(2), G(6), G(18))

    # Zero roots and a triple root come back with their multiplicities.
    h = G(Fraction(3, 2))
    s3 = eigenvalue_series([G(0), h, G(-2, 1), h, G(0), h], 2, 12)
    assert series_to_roots(s3, 6, 2) == (G(-2, 1), G(0), G(0), h, h, h)


def test_series_to_roots_rejects_non_drinfeld():
    bogus = Series([G(1), G(1), G(0), G(1), G(0)])
    with pytest.raises(NotDrinfeldSeriesError):
        series_to_roots(bogus, 1, 1)
    with pytest.raises(NotDrinfeldSeriesError):
        series_to_roots(Series([G(2), G(1), G(0)]), 1, 1)
    # Wrong u^-1 coefficient for the claimed degree.
    with pytest.raises(NotDrinfeldSeriesError):
        series_to_roots(eigenvalue_series([G(1)], 1, 4), 2, 1)


def test_series_to_roots_rejects_polynomials_that_do_not_split():
    # Q(u) = u^2 + 2: Q(u+1)/Q(u) = 1 + 2u^-1 + u^-2 - 4u^-3 - 2u^-4 + ...
    # The linear system solves, but the roots +-i*sqrt(2) are not in Q(i).
    series = Series([G(c) for c in (1, 2, 1, -4, -2)])
    with pytest.raises(NotDrinfeldSeriesError, match="does not split"):
        series_to_roots(series, 2, 1)


def test_series_to_roots_degree_bounds():
    assert series_to_roots(Series([G(1), ZERO, ZERO]), 0, 1) == ()
    with pytest.raises(NotDrinfeldSeriesError):
        series_to_roots(Series([G(1), G(1), ZERO]), 0, 1)
    with pytest.raises(ValueError, match="nonnegative"):
        series_to_roots(Series([G(1), ZERO, ZERO]), -1, 1)


def test_series_roundtrip_random():
    rng = random.Random(23)
    for _ in range(60):
        degree = rng.randint(1, 4)
        d = rng.choice([1, 2, 3])
        roots = [
            G(Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
            for _ in range(degree)
        ]
        series = eigenvalue_series(roots, d, 2 * degree)
        recovered = series_to_roots(series, degree, d)
        assert sorted((r.re, r.im) for r in recovered) == sorted(
            (r.re, r.im) for r in roots
        )


def test_series_roundtrip_gaussian_roots():
    roots = [G(1, 1), G(1, -1), G(Fraction(1, 2))]
    series = eigenvalue_series(roots, 1, 6)
    recovered = series_to_roots(series, 3, 1)
    assert sorted((r.re, r.im) for r in recovered) == sorted(
        (r.re, r.im) for r in roots
    )


def _per_root_product(roots, d, order):
    """prod_a (1 + sum_k d a^(k-1) u^-k), multiplied with Series.__mul__."""
    out = Series([G(1)] + [ZERO] * order)
    for a in roots:
        out = out * Series([G(1)] + [d * a ** (k - 1) for k in range(1, order + 1)])
    return out


real_root_st = st.builds(
    lambda p, q: G(Fraction(p, q)), st.integers(-10**9, 10**9), st.integers(1, 6)
)
gaussian_root_st = st.builds(
    lambda p, q, s, t: G(Fraction(p, q), Fraction(s, t)),
    st.integers(-10**6, 10**6), st.integers(1, 6),
    st.integers(-10**6, 10**6), st.integers(1, 6),
)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.one_of(real_root_st, gaussian_root_st), max_size=5),
    st.sampled_from([1, 2, 3]),
    st.integers(0, 16),
)
def test_eigenvalue_series_matches_series_product(roots, d, order):
    assert eigenvalue_series(roots, d, order) == _per_root_product(roots, d, order)


small_root_st = st.builds(
    lambda p, q, s, t: G(Fraction(p, q), Fraction(s, t)),
    st.integers(-9, 9), st.integers(1, 6),
    st.sampled_from([0, 0, 1, -1, 2]), st.integers(1, 3),
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_series_roundtrip_with_multiplicity_and_zero_roots(data):
    distinct = data.draw(st.lists(small_root_st, min_size=1, max_size=4, unique=True))
    roots = data.draw(
        st.lists(st.sampled_from(distinct + [G(0)]), min_size=1, max_size=8)
    )
    d = data.draw(st.sampled_from([1, 2, 3]))
    series = eigenvalue_series(roots, d, 2 * len(roots))
    recovered = series_to_roots(series, len(roots), d)
    assert sorted((r.re, r.im) for r in recovered) == sorted(
        (r.re, r.im) for r in roots
    )


def test_gaussian_divisors_against_brute_force():
    def associate_class(w):
        a, b = w
        return max((a, b), (-a, -b), (-b, a), (b, -a))

    rng = random.Random(7)
    for z in [(1, 0), (0, 3), (2, 0), (-6, 8), (45, 0), (12, 0), (0, 18), (10, 20)] + [
        (rng.randint(-30, 30), rng.randint(1, 30)) for _ in range(20)
    ]:
        norm = z[0] ** 2 + z[1] ** 2
        expected = {
            associate_class((a, b))
            for a in range(-45, 46)
            for b in range(-45, 46)
            if (a or b)
            and ((z[0] * a + z[1] * b) % (a * a + b * b)
                 == (z[1] * a - z[0] * b) % (a * a + b * b) == 0)
        }
        got = list(_gaussian_divisors(z))
        assert [n for n, _ in got] == sorted(n for n, _ in got)
        assert all(n == w[0] ** 2 + w[1] ** 2 for n, w in got)
        assert sorted(associate_class(w) for _, w in got) == sorted(expected), z
        assert norm in {n for n, _ in got}


# Roots for the oracle comparison: the units and 0, where q*t - p vanishes
# at t = 1 or t = -1; small Gaussian rationals; and (x + y i)/(1+i)^k,
# whose denominators carry the ramified prime 1+i.
unit_root_st = st.sampled_from([G(0), G(1), G(-1), G(0, 1), G(0, -1)])
ramified_root_st = st.builds(
    lambda x, y, k: G(x, y) / G(1, 1) ** k,
    st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 3),
)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_series_to_roots_matches_linear_system_oracle(data):
    distinct = data.draw(st.lists(
        st.one_of(unit_root_st, small_root_st, ramified_root_st),
        min_size=1, max_size=4, unique=True,
    ))
    roots = data.draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=7))
    d = data.draw(st.sampled_from([1, 2, 3]))
    series = eigenvalue_series(roots, d, 2 * len(roots))
    recovered = series_to_roots(series, len(roots), d)
    assert recovered == series_to_roots_by_linear_system(series, len(roots), d)
    assert sorted((r.re, r.im) for r in recovered) == sorted(
        (r.re, r.im) for r in roots
    )
    # One coefficient off: both give the same roots or the same refusal.
    k = data.draw(st.integers(2, series.order))
    bumped = list(series.coeffs)
    bumped[k] += data.draw(st.sampled_from([G(1), G(-1, 1), G(Fraction(1, 2))]))
    outcomes = []
    for recover in (series_to_roots, series_to_roots_by_linear_system):
        try:
            outcomes.append(recover(Series(bumped), len(roots), d))
        except NotDrinfeldSeriesError as error:
            outcomes.append(str(error))
    assert outcomes[0] == outcomes[1]


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.one_of(unit_root_st, small_root_st, ramified_root_st), max_size=5),
    st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=4),
)
def test_pruned_divisor_search_matches_unpruned(roots, cofactor):
    # The planted roots times a cofactor that may or may not split: the
    # prune at t = 1 and t = -1 must find exactly what the unpruned
    # search finds.
    coeffs = [G(re, im) for re, im in cofactor[:-1]] + [G(*cofactor[-1]) or G(1)]
    for root in roots:  # times u - root
        coeffs = [a - root * b for a, b in zip([ZERO] + coeffs, coeffs + [ZERO])]
    _, poly = _clear_denominators(coeffs)
    found = _gaussian_rational_roots(poly)
    assert sorted(found, key=lambda r: r.triple) == sorted(
        divisor_search_roots(poly), key=lambda r: r.triple
    )
    assert len(found) >= len(roots)


def test_series_matching_only_the_first_coefficients_is_refused(monkeypatch):
    # c_1..c_(deg+1) fix Q; a later coefficient off by one must be refused
    # by the remaining equations, before any root search.
    import yangian_weyl.drinfeld as dr

    def no_search(poly):
        raise AssertionError("root search ran on a refused series")

    roots = [G(2), G(-1, 1), G(Fraction(1, 2))]
    series = eigenvalue_series(roots, 2, 6)
    monkeypatch.setattr(dr, "_gaussian_rational_roots", no_search)
    for k in (5, 6):
        bumped = list(series.coeffs)
        bumped[k] += G(1)
        for recover in (series_to_roots, series_to_roots_by_linear_system):
            with pytest.raises(
                NotDrinfeldSeriesError, match="no monic polynomial matches the series"
            ):
                recover(Series(bumped), 3, 2)


@pytest.mark.parametrize(
    "d, order, message",
    [
        (True, 2, "d must be"),
        (Fraction(1, 2), 4, "d must be"),
        (2.0, 4, "d must be"),
        ("1", 4, "d must be"),
        (0, 4, "d must be"),
        (-1, 4, "d must be"),
        (1, -1, "order must be"),
        (1, -3, "order must be"),
    ],
)
def test_eigenvalue_series_rejects_bad_arguments(d, order, message):
    with pytest.raises(ValueError, match=message):
        eigenvalue_series([G(1)], d, order)


# 1 + d u^-1 + d a u^-2 + ..., the series of the root 1/3 with shift 1/2.
HALF_SHIFT = Series(
    [G(1), G(Fraction(1, 2)), G(Fraction(1, 6)), G(Fraction(1, 18)), G(Fraction(1, 54))]
)


@pytest.mark.parametrize("d", [True, False, Fraction(1, 2), 0.5, 0, -1])
def test_series_to_roots_rejects_bad_shift(d):
    with pytest.raises(ValueError, match="d must be a positive integer"):
        series_to_roots(HALF_SHIFT, 1, d)


def test_tuple_validation():
    with pytest.raises(ValueError):
        DrinfeldTuple.from_dict(A2, {3: [G(0)]})
    with pytest.raises(ValueError):
        DrinfeldTuple(A2, ((),))
    with pytest.raises(ValueError):
        FactorChain(A2, ((5, G(0)),))
