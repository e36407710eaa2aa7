"""Drinfeld polynomial tuples and the ordered tensor-product factorization.

Polynomials are represented by their root multisets; monicity is
structural.  The highest-weight eigenvalue series of a root multiset and
its inverse live here too: the inverse recovers the polynomial from a
series by forward substitution and its roots by a pruned divisor search
in Z[i].
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from math import comb, gcd, isqrt, lcm
from typing import Dict, Iterable, Sequence, Tuple

from .exact import (
    GaussianRational,
    ONE,
    Series,
    ZERO,
    _reduced,
    as_scalar,
    # Not called here: the benchmark's traced run wraps
    # `drinfeld.solve_linear` by name, and tests/test_bench_sites.py
    # requires every wrapped name to exist.
    solve_linear,
)
from .rootsys import LieType


def _scaled_keys(triples: list) -> list:
    """Integer sort keys (floor(re 2^B / d), floor(im 2^B / d)) of the
    triples (re, im, d), with 2^B > D^2 for their largest denominator D.
    Distinct parts p/d and q/e differ by at least 1/(de) > 2^-B, so their
    scaled floors differ and the keys sort exactly as the parts do.  (Keys
    over a common denominator would grow with the lcm of all of them.)"""
    b = 2 * max((d for _, _, d in triples), default=1).bit_length() + 1
    return [((re << b) // d, (im << b) // d) for re, im, d in triples]


def _canonical(roots: Iterable) -> Tuple[GaussianRational, ...]:
    """The roots by ascending real part, then ascending imaginary part."""
    roots = [as_scalar(r) for r in roots]
    keys = _scaled_keys([r.triple for r in roots])
    return tuple(roots[k] for k in sorted(range(len(roots)), key=keys.__getitem__))


@dataclass(frozen=True)
class DrinfeldTuple:
    """One monic polynomial per node, each stored as its root multiset."""

    lie_type: LieType
    roots: Tuple[Tuple[GaussianRational, ...], ...]

    def __post_init__(self):
        if len(self.roots) != self.lie_type.rank:
            raise ValueError("tuple length must equal the rank")
        object.__setattr__(self, "roots", tuple(_canonical(r) for r in self.roots))

    @classmethod
    def from_dict(cls, t: LieType, polys: Dict[int, Sequence]) -> "DrinfeldTuple":
        rows = [[] for _ in range(t.rank)]
        for node, roots in polys.items():
            t.check_node(node)
            rows[node - 1] = list(roots)
        return cls(t, tuple(tuple(r) for r in rows))

    @property
    def degrees(self) -> Tuple[int, ...]:
        return tuple(len(r) for r in self.roots)

    @property
    def total_degree(self) -> int:
        return sum(self.degrees)


@dataclass(frozen=True)
class FactorChain:
    """Ordered sequence of fundamental factors (node, parameter)."""

    lie_type: LieType
    factors: Tuple[Tuple[int, GaussianRational], ...]

    def __post_init__(self):
        fixed = []
        for node, a in self.factors:
            self.lie_type.check_node(node)
            fixed.append((node, as_scalar(a)))
        object.__setattr__(self, "factors", tuple(fixed))

    def __len__(self):
        return len(self.factors)


class TrivialModuleError(ValueError):
    pass


def order_factors(pi: DrinfeldTuple) -> FactorChain:
    """Enumerate all roots by descending real part into a factor chain.

    Ties break by descending imaginary part, then ascending node index, so
    the output is deterministic.
    """
    if pi.total_degree == 0:
        raise TrivialModuleError("trivial module: every polynomial is 1")
    items = [
        (node, root)
        for node, roots in enumerate(pi.roots, start=1)
        for root in roots
    ]
    keys = _scaled_keys([a.triple for _, a in items])
    order = sorted(range(len(items)), key=lambda k: (*keys[k], -items[k][0]), reverse=True)
    return FactorChain(pi.lie_type, tuple(items[k] for k in order))


def chain_to_poly(chain: FactorChain) -> DrinfeldTuple:
    rows = [[] for _ in range(chain.lie_type.rank)]
    for node, a in chain.factors:
        rows[node - 1].append(a)
    return DrinfeldTuple(chain.lie_type, tuple(tuple(r) for r in rows))


def shift_tuple(pi: DrinfeldTuple, a) -> DrinfeldTuple:
    a = as_scalar(a)
    return DrinfeldTuple(
        pi.lie_type, tuple(tuple(r + a for r in row) for row in pi.roots)
    )


def _check_shift(d) -> None:
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise ValueError("d must be a positive integer")


def eigenvalue_series(roots: Iterable, d: int, order: int) -> Series:
    """Truncated expansion of prod (u + d - a)/(u - a) about u = infinity.

    Each factor contributes 1 + d*(a^(k-1)) u^-k.
    """
    _check_shift(d)
    if order < 0:
        raise ValueError("order must be nonnegative")
    # With x = 1/u each factor is 1 + d*x/(1 - a*x).  Over the common
    # denominator L of the roots, C_k = c_k * L^k obeys the same recurrence
    # in Z[i] with A = a*L and d*L, so the loop runs on Python ints.
    den, scaled = _clear_denominators([as_scalar(r) for r in roots])
    dl = d * den
    c_re = [1] + [0] * order
    c_im = [0] * (order + 1)
    for a_re, a_im in scaled:
        # g = C/(1 - A*X) runs one step behind: C_k += dL * g_{k-1}.
        g_re = g_im = 0
        for k in range(order + 1):
            x_re, x_im = c_re[k], c_im[k]
            c_re[k] = x_re + dl * g_re
            c_im[k] = x_im + dl * g_im
            g_re, g_im = x_re + a_re * g_re - a_im * g_im, x_im + a_re * g_im + a_im * g_re
    coeffs = []
    scale = 1
    for x_re, x_im in zip(c_re, c_im):
        coeffs.append(_reduced(x_re, x_im, scale))
        scale *= den
    return Series(coeffs)


def _clear_denominators(values):
    """(L, [(re*L, im*L) for each value]) with L the least common
    denominator of `values`: Gaussian rationals as Z[i] pairs."""
    triples = [v.triple for v in values]
    den = lcm(*(d for _, _, d in triples))
    return den, [(re * (den // d), im * (den // d)) for re, im, d in triples]


class NotDrinfeldSeriesError(ValueError):
    pass


def series_to_roots(series: Series, degree: int, d: int) -> Tuple[GaussianRational, ...]:
    """The unique monic degree-`degree` polynomial Q with
    Q(u+d)/Q(u) matching the series, returned as its root multiset.

    The coefficients of Q follow from the series by forward substitution,
    one division each; roots must lie in Q(i).
    """
    _check_shift(d)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
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
    poly = _drinfeld_polynomial(series.coeffs, degree, d)
    if poly is None:
        raise NotDrinfeldSeriesError("no monic polynomial matches the series")
    roots = _gaussian_rational_roots(poly)
    if len(roots) != degree:
        raise NotDrinfeldSeriesError("polynomial does not split over Q(i)")
    # The substitution meets one equation for each of c_1..c_n, so Q
    # already fixes the whole series; re-expanding the recovered roots is
    # an independent re-check of the substitution and of the root extraction.
    if eigenvalue_series(roots, d, series.order) != series:
        raise NotDrinfeldSeriesError("series is not of Drinfeld form")
    return _canonical(roots)


def _drinfeld_polynomial(coeffs, degree: int, d: int):
    """Q(u) = sum q_j u^j as Gaussian-integer pairs q_0..q_deg times the
    least common denominator of the q_j, or None when no monic Q of this
    degree has Q(u+d)/Q(u) = sum coeffs[k] u^-k.

    coeffs[0] = 1 and coeffs[1] = d*degree are already checked.  With
    x = 1/u and D(x) = x^deg Q(1/x) = sum D_m x^m, D_0 = 1, the equation
    at x^k is  sum_{m<k} D_m (c_{k-m} - C(deg-m, k-m) d^(k-m)) = 0,  in
    which D_{k-1} has the coefficient (k-1)*d.  So the equations at
    x^2..x^(deg+1) give D_1..D_deg in turn, and the rest are checks.
    """
    n = len(coeffs) - 1
    # L*c_j in Z[i] with L the common denominator of the c_j, and L*d^j.
    den, scaled = _clear_denominators(coeffs)
    c_re = [re for re, _ in scaled]
    c_im = [im for _, im in scaled]
    shifts = [den * d**j for j in range(n + 1)]
    # D_m = (d_re[m] + d_im[m] i) / e for every m so far, e the least
    # common denominator of their reduced forms.
    d_re, d_im, e = [1], [0], 1
    for k in range(2, n + 1):
        s_re = s_im = 0
        for m in range(min(k - 1, degree + 1)):
            t_re = c_re[k - m] - comb(degree - m, k - m) * shifts[k - m]
            t_im = c_im[k - m]
            s_re += d_re[m] * t_re - d_im[m] * t_im
            s_im += d_re[m] * t_im + d_im[m] * t_re
        if k > degree + 1:
            if s_re or s_im:
                return None
            continue
        # D_(k-1) = -s / (e*L*(k-1)*d), reduced; e grows to the lcm.
        den_k = e * den * (k - 1) * d
        g = gcd(s_re, s_im, den_k)
        s_re, s_im, den_k = -s_re // g, -s_im // g, den_k // g
        grow = den_k // gcd(e, den_k)
        if grow != 1:
            d_re = [v * grow for v in d_re]
            d_im = [v * grow for v in d_im]
            e *= grow
        d_re.append(s_re * (e // den_k))
        d_im.append(s_im * (e // den_k))
    return list(zip(reversed(d_re), reversed(d_im)))


# ---------------------------------------------------------------------------
# Root extraction over Q(i) via the rational root theorem in Z[i].


def _gaussian_rational_roots(poly) -> list:
    """Roots in Q(i) of sum poly[j] u^j, with multiplicity.

    poly lists Gaussian-integer pairs from the constant term up, and its
    leading coefficient is nonzero.  Over Z[i] a root p/q in lowest terms
    has p dividing the constant and q the leading coefficient.  A factor's
    constant and leading coefficients divide the polynomial's, so one pass
    over these candidates finds every root: each is tried until it stops
    dividing the deflated polynomial.
    """
    roots = []
    while len(poly) > 1 and poly[0] == (0, 0):
        roots.append(ZERO)
        poly = poly[1:]
    if len(poly) == 1:
        return roots
    # Cauchy's bound on |root| and on |1/root| limits N(p)/N(q) to a window.
    norms = [_gi_norm(c) for c in poly]
    upper = _cauchy_square(norms[-1], max(norms[:-1]))
    lower = _cauchy_square(norms[0], max(norms[1:]))
    denominators = list(_gaussian_divisors(poly[-1]))
    denominator_norms = [norm for norm, _ in denominators]
    # If q*u - p divides poly in Z[i][u], then q*t - p divides poly(t) for
    # every t in Z[i]: at t = 1 and t = -1 that skips most candidates
    # before the division, and skips only candidates it would reject.
    at_one, at_minus_one = _gi_values_at_units(poly)
    for p_norm, (a, b) in _gaussian_divisors(poly[0]):
        first = bisect_left(denominator_norms, -(-norms[-1] * p_norm // upper))
        last = bisect_right(denominator_norms, lower * p_norm // norms[0])
        for _, q in denominators[first:last]:
            q_re, q_im = q
            for num in ((a, b), (-a, -b), (-b, a), (b, -a)):  # p times each unit
                while (
                    _gi_divides(q_re - num[0], q_im - num[1], at_one)
                    and _gi_divides(-q_re - num[0], -q_im - num[1], at_minus_one)
                    and (quotient := _divide_linear(poly, q, num)) is not None
                ):
                    roots.append(_gi_to_scalar(num, q))
                    poly = quotient
                    if len(poly) == 1:
                        return roots
                    at_one, at_minus_one = _gi_values_at_units(poly)
    return roots


def _gi_values_at_units(poly):
    """poly(1) and poly(-1) for poly a list of Gaussian-integer pairs."""
    even_re = sum(c[0] for c in poly[::2])
    even_im = sum(c[1] for c in poly[::2])
    odd_re = sum(c[0] for c in poly[1::2])
    odd_im = sum(c[1] for c in poly[1::2])
    return (even_re + odd_re, even_im + odd_im), (even_re - odd_re, even_im - odd_im)


def _gi_divides(re: int, im: int, z) -> bool:
    """Whether re + im*i divides z in Z[i]; 0 divides only 0."""
    norm = re * re + im * im
    if not norm:
        return z == (0, 0)
    return not (z[0] * re + z[1] * im) % norm and not (z[1] * re - z[0] * im) % norm


def _cauchy_square(top: int, rest: int) -> int:
    """An integer at least (sqrt(top) + sqrt(rest))^2.

    With top = N(a_n) and rest = max N(a_j) over j < n, every root z of
    sum a_j u^j has |z| <= 1 + max |a_j|/|a_n|, so N(z) <= this / top.
    """
    return top + rest + 2 * isqrt(top * rest) + 2


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


def _gi_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gi_norm(a) -> int:
    return a[0] * a[0] + a[1] * a[1]


def _gi_divmod_exact(a, b):
    """a / b in Z[i] if exact, else None."""
    n = _gi_norm(b)
    re = a[0] * b[0] + a[1] * b[1]
    im = a[1] * b[0] - a[0] * b[1]
    if re % n or im % n:
        return None
    return (re // n, im // n)


def _gi_to_scalar(num, den):
    """num / den for Gaussian integers num and den != 0."""
    return _reduced(
        num[0] * den[0] + num[1] * den[1], num[1] * den[0] - num[0] * den[1], _gi_norm(den)
    )


def _gaussian_prime_factors(z):
    """Gaussian prime factors of z (unit part dropped)."""
    # Factoring the integer content and the norm of the primitive part
    # apart keeps trial division at the square root of each: for a rational
    # prime z, N(z) = z^2 would send it to z itself.
    content = gcd(*z)
    rational = set(_prime_factors(content)) | set(_prime_factors(_gi_norm(z) // content**2))
    primes = []
    for p in sorted(rational):
        if p == 2:
            candidates = [(1, 1)]
        elif p % 4 == 3:
            candidates = [(p, 0)]
        else:
            x, y = _two_squares(p)
            candidates = [(x, y), (x, -y)]
        for pi in candidates:
            while True:
                q = _gi_divmod_exact(z, pi)
                if q is None:
                    break
                primes.append(pi)
                z = q
    return primes


def _gaussian_divisors(z):
    """Yield (norm, divisor) for the divisors of z in Z[i] (z nonzero), one
    per class of associates, lazily and by ascending norm."""
    # The primes are pairwise non-associate, so no product repeats.  Only
    # the divisor with one factor fewer of its last prime pushes a divisor,
    # so each is pushed once, and no divisor is popped before a smaller one.
    primes = list(Counter(_gaussian_prime_factors(z)).items())
    heap = [(1, (1, 0), 0, 0)]  # norm, divisor, last prime, its exponent
    while heap:
        norm, div, last, exponent = heappop(heap)
        yield norm, div
        for i in range(last, len(primes)):
            prime, mult = primes[i]
            k = exponent if i == last else 0
            if k < mult:
                heappush(heap, (norm * _gi_norm(prime), _gi_mul(div, prime), i, k + 1))


def _prime_factors(n: int) -> list:
    out = []
    n = abs(n)
    f = 2
    while f * f <= n:
        while n % f == 0:
            out.append(f)
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _two_squares(p: int):
    """x, y with x^2 + y^2 = p for a prime p = 1 mod 4."""
    # Find a square root of -1 mod p, then run the Euclidean descent.
    for a in range(2, p):
        r = pow(a, (p - 1) // 4, p)
        if (r * r) % p == p - 1:
            break
    else:
        raise ValueError(f"{p} is not 1 mod 4")
    x, y = p, r
    while y * y > p:
        x, y = y, x % y
    return y, x % y
