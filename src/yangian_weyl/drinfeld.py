"""Drinfeld polynomial tuples and the ordered tensor-product factorization.

Polynomials are represented by their root multisets; monicity is
structural.  The highest-weight eigenvalue series of a root multiset and
its inverse (recovering the multiset from a series) live here too.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from math import comb, isqrt, lcm
from typing import Dict, Iterable, Sequence, Tuple

from .exact import (
    GaussianRational,
    ONE,
    Series,
    ZERO,
    _reduced,
    as_scalar,
    ordering_key,
    solve_linear,
)
from .rootsys import LieType


def _canonical(roots: Iterable) -> Tuple[GaussianRational, ...]:
    """The roots by ascending real part, then ascending imaginary part."""
    return tuple(sorted((as_scalar(r) for r in roots), key=ordering_key, reverse=True))


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
    items.sort(key=lambda pair: (*ordering_key(pair[1]), pair[0]))
    return FactorChain(pi.lie_type, tuple(items))


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

    Solved by equating Laurent coefficients (a linear system in the
    coefficients of Q); roots must lie in Q(i).
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
            t = power
            if 0 <= t <= j:
                coef = GaussianRational(comb(j, t) * d ** (j - t))
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
    coeffs = list(solution) + [ONE]  # q_0 .. q_deg
    roots = _gaussian_rational_roots(coeffs)
    if len(roots) != degree:
        raise NotDrinfeldSeriesError("polynomial does not split over Q(i)")
    # The linear system used only a window of coefficients; confirm the
    # recovered multiset reproduces the whole series.
    if eigenvalue_series(roots, d, n) != series:
        raise NotDrinfeldSeriesError("series is not of Drinfeld form")
    return _canonical(roots)


# ---------------------------------------------------------------------------
# Root extraction over Q(i) via the rational root theorem in Z[i].


def _gaussian_rational_roots(coeffs) -> list:
    """Roots in Q(i) of sum coeffs[j] u^j, with multiplicity.

    The leading coefficient must be nonzero.  Over Z[i] a root p/q in
    lowest terms has p dividing the constant and q the leading
    coefficient.  A factor's constant and leading coefficients divide the
    polynomial's, so one pass over these candidates finds every root: each
    is tried until it stops dividing the deflated polynomial.
    """
    _, poly = _clear_denominators(coeffs)
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
    for p_norm, (a, b) in _gaussian_divisors(poly[0]):
        first = bisect_left(denominator_norms, -(-norms[-1] * p_norm // upper))
        last = bisect_right(denominator_norms, lower * p_norm // norms[0])
        for _, q in denominators[first:last]:
            for num in ((a, b), (-a, -b), (-b, a), (b, -a)):  # p times each unit
                while (quotient := _divide_linear(poly, q, num)) is not None:
                    roots.append(_gi_to_scalar(num, q))
                    poly = quotient
                    if len(poly) == 1:
                        return roots
    return roots


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
    primes = []
    norm = _gi_norm(z)
    for p in _prime_factors(norm):
        if p == 2:
            pi = (1, 1)
            candidates = [pi]
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
