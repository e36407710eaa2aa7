"""The package's former root recovery, kept as the oracle for the new one.

`series_to_roots_by_linear_system` recovers the roots of Q from the series
Q(u+d)/Q(u) as `yangian_weyl.drinfeld.series_to_roots` did at first: it
equates every computable Laurent coefficient in a windowed linear system
and solves it by textbook Gauss-Jordan (`dense_oracle.solve`), where
the package forward-substitutes the coefficients of Q.  Its
`divisor_search_roots` then finds the roots by the rational root theorem
in Z[i], as the package did before it lifted them p-adically: a root p/q
in lowest terms has q*u - p dividing the polynomial (Gauss's lemma), so
p divides its constant and q its leading coefficient, and every such
candidate goes to a full division, down to the last root.  The divisors
come from factoring by plain trial division, which suffices for
constants of test size.  The general division by q*u - p lives here,
since the package's lift divides only by a monic u - w, and the roots
are formed and sorted on `Fraction`s.  So the one package routine the
oracle shares is `eigenvalue_series`, which has its own tests against
`Series.__mul__`; it runs none of the package's elimination.
`tests/test_drinfeld.py` checks the package against both.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, gcd, isqrt, lcm

from yangian_weyl.drinfeld import NotDrinfeldSeriesError, eigenvalue_series
from yangian_weyl.exact import ONE, ZERO, GaussianRational

from dense_oracle import solve


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
    solution = solve(rows, tuple(rhs))
    if solution is None:
        raise NotDrinfeldSeriesError("no monic polynomial matches the series")
    coeffs = list(solution) + [ONE]  # q_0 .. q_deg
    den = lcm(*(x.denominator for c in coeffs for x in (c.re, c.im)))
    poly = [(int(c.re * den), int(c.im * den)) for c in coeffs]
    roots = divisor_search_roots(poly)
    if len(roots) != degree:
        raise NotDrinfeldSeriesError("polynomial does not split over Q(i)")
    if eigenvalue_series(roots, d, n) != series:
        raise NotDrinfeldSeriesError("series is not of Drinfeld form")
    return tuple(sorted(roots, key=lambda r: (r.re, r.im)))


def divisor_search_roots(poly) -> list:
    """Roots in Q(i) of sum poly[j] u^j (Gaussian-integer pairs, constant
    term first), with multiplicity: every candidate p/q goes to the
    division, with no prune and no bound on its size."""
    roots = []
    while len(poly) > 1 and poly[0] == (0, 0):
        roots.append(ZERO)
        poly = poly[1:]
    if len(poly) == 1:
        return roots
    denominators = gaussian_divisors(poly[-1])
    for a, b in gaussian_divisors(poly[0]):
        for q in denominators:
            for num in ((a, b), (-a, -b), (-b, a), (b, -a)):  # p times each unit
                while (quotient := _divide_linear(poly, q, num)) is not None:
                    roots.append(_quotient(num, q))
                    poly = quotient
                    if len(poly) == 1:
                        return roots
    return roots


def _divide_linear(poly, q, p):
    """poly / (q*u - p) over Z[i] if exact, else None.

    poly lists Gaussian-integer pairs from the constant term up; the
    quotient is built from the top, and the first inexact step rejects.
    """
    q_re, q_im = q
    p_re, p_im = p
    norm = q_re * q_re + q_im * q_im
    out = [None] * (len(poly) - 1)
    c_re = c_im = 0  # p times the quotient coefficient one degree up
    for j in range(len(poly) - 1, 0, -1):
        t_re, t_im = poly[j][0] + c_re, poly[j][1] + c_im
        r_re, rest_re = divmod(t_re * q_re + t_im * q_im, norm)
        r_im, rest_im = divmod(t_im * q_re - t_re * q_im, norm)
        if rest_re or rest_im:
            return None
        out[j - 1] = (r_re, r_im)
        c_re, c_im = p_re * r_re - p_im * r_im, p_re * r_im + p_im * r_re
    if poly[0][0] + c_re or poly[0][1] + c_im:
        return None
    return out


def _quotient(num, den):
    """num / den for Gaussian integers num and den != 0."""
    norm = den[0] ** 2 + den[1] ** 2
    return GaussianRational(Fraction(num[0] * den[0] + num[1] * den[1], norm),
                            Fraction(num[1] * den[0] - num[0] * den[1], norm))


def gaussian_divisors(z) -> list:
    """The divisors of z in Z[i] (z nonzero), one per class of associates."""
    # The primes are pairwise non-associate, so no product repeats.
    divisors = [(1, 0)]
    for prime, mult in Counter(_gaussian_prime_factors(z)).items():
        for d in list(divisors):
            for _ in range(mult):
                d = _mul(d, prime)
                divisors.append(d)
    return divisors


def _gaussian_prime_factors(z) -> list:
    """Gaussian prime factors of z with multiplicity (unit part dropped)."""
    # Factoring the integer content and the norm of the primitive part
    # apart keeps trial division at the square root of each.
    content = gcd(*z)
    rational = set(_prime_factors(content))
    rational |= set(_prime_factors((z[0] ** 2 + z[1] ** 2) // content**2))
    primes = []
    for p in sorted(rational):
        if p == 2:
            candidates = [(1, 1)]
        elif p % 4 == 3:
            candidates = [(p, 0)]
        else:  # p = x^2 + y^2 = (x + yi)(x - yi)
            x = next(x for x in range(1, p) if isqrt(p - x * x) ** 2 == p - x * x)
            candidates = [(x, isqrt(p - x * x)), (x, -isqrt(p - x * x))]
        for pi in candidates:
            while (q := _exact_quotient(z, pi)) is not None:
                primes.append(pi)
                z = q
    return primes


def _prime_factors(n: int) -> list:
    """Prime factors of n >= 1 with multiplicity, by trial division."""
    out = []
    f = 2
    while f * f <= n:
        while n % f == 0:
            out.append(f)
            n //= f
        f += 1
    return out + [n] * (n > 1)


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _exact_quotient(a, b):
    """a / b in Z[i] if exact, else None."""
    n = b[0] ** 2 + b[1] ** 2
    re, im = a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1]
    return None if re % n or im % n else (re // n, im // n)
