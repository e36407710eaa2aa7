"""The package's former root recovery, kept as the oracle for the new one.

`series_to_roots_by_linear_system` recovers the roots of Q from the series
Q(u+d)/Q(u) as `yangian_weyl.drinfeld.series_to_roots` did at first: it
equates every computable Laurent coefficient in a windowed linear system
and solves it with `exact.solve_linear`, where the package forward-
substitutes the coefficients of Q.  Its `divisor_search_roots` then tries
every candidate root p/q of the original polynomial with a full division,
down to the last root; the package prunes the candidates against the
deflated polynomial and solves the last quadratic by the formula.
`tests/test_drinfeld.py` checks the package against both.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import comb

from yangian_weyl.drinfeld import (
    NotDrinfeldSeriesError,
    _canonical,
    _cauchy_square,
    _divide_linear,
    _gaussian_divisors,
    _gi_norm,
    _gi_to_scalar,
    eigenvalue_series,
)
from yangian_weyl.exact import ONE, ZERO, GaussianRational, _clear_denominators, solve_linear


def series_to_roots_by_linear_system(series, degree: int, d: int):
    """The root multiset of the monic degree-`degree` Q with Q(u+d)/Q(u)
    equal to the series, refused with the package's errors."""
    if series.coeffs[0] != ONE:
        raise NotDrinfeldSeriesError("constant term is not 1")
    if degree == 0:
        if any(c for c in series.coeffs[1:]):
            raise NotDrinfeldSeriesError("degree 0 requires the constant series 1")
        return ()
    if series.order < 2 * degree:
        raise ValueError("series order too small to pin the polynomial down")
    if series.coeffs[1] != GaussianRational(d * degree):
        raise NotDrinfeldSeriesError(
            f"u^-1 coefficient must be d*degree = {d * degree}"
        )
    # Q(u) = u^deg + q_{deg-1} u^{deg-1} + ... + q_0; impose that every
    # computable Laurent coefficient of Q(u+d) - Q(u)*series vanishes.
    n = series.order
    rows = []
    rhs = []
    for power in range(degree - 1, degree - 1 - n, -1):
        row = [ZERO] * degree
        target = ZERO
        for j in range(degree + 1):
            # q_j * u^power coefficient of (u+d)^j
            if 0 <= power <= j:
                coef = GaussianRational(comb(j, power) * d ** (j - power))
                if j == degree:
                    target = target - coef
                else:
                    row[j] = row[j] + coef
            # minus q_j * c_{j-power} from Q(u)*series
            k = j - power
            if 0 <= k <= n:
                c = series.coeffs[k]
                if j == degree:
                    target = target + c
                else:
                    row[j] = row[j] - c
        rows.append(tuple(row))
        rhs.append(target)
    solution = solve_linear(rows, tuple(rhs))
    if solution is None:
        raise NotDrinfeldSeriesError("no monic polynomial matches the series")
    _, poly = _clear_denominators(list(solution) + [ONE])  # q_0 .. q_deg
    roots = divisor_search_roots(poly)
    if len(roots) != degree:
        raise NotDrinfeldSeriesError("polynomial does not split over Q(i)")
    if eigenvalue_series(roots, d, n) != series:
        raise NotDrinfeldSeriesError("series is not of Drinfeld form")
    return _canonical(roots)


def divisor_search_roots(poly) -> list:
    """Roots in Q(i) of sum poly[j] u^j (Gaussian-integer pairs, constant
    term first), with multiplicity: every candidate p/q inside the Cauchy
    window goes to the division, with no prune."""
    roots = []
    while len(poly) > 1 and poly[0] == (0, 0):
        roots.append(ZERO)
        poly = poly[1:]
    if len(poly) == 1:
        return roots
    norms = [_gi_norm(c) for c in poly]
    upper = _cauchy_square(norms[-1], max(norms[:-1]))
    lower = _cauchy_square(norms[0], max(norms[1:]))
    denominators = list(_gaussian_divisors(poly[-1]))
    denominator_norms = [norm for norm, _ in denominators]
    for p_norm, (a, b) in _gaussian_divisors(poly[0]):
        first = bisect_left(denominator_norms, -(-norms[-1] * p_norm // upper))
        last = bisect_right(denominator_norms, lower * p_norm // norms[0])
        for _, q in denominators[first:last]:
            for num in ((a, b), (-a, -b), (-b, a), (b, -a)):
                while (quotient := _divide_linear(poly, q, num)) is not None:
                    roots.append(_gi_to_scalar(num, q))
                    poly = quotient
                    if len(poly) == 1:
                        return roots
    return roots
