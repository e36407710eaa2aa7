"""Cyclicity and irreducibility criteria for tensor products of
fundamental modules.

For an ordered chain V_{a_1}(w_{b_1}) x ... x V_{a_k}(w_{b_k}) the product
is guaranteed to be a highest weight module when no difference a_j - a_i
(i < j) lands in the finite positive-rational criterion set of the node
pair (b_i, b_j); it is guaranteed irreducible when the same holds for all
ordered pairs i != j.  Membership is exact: a difference belongs to a set
only when its imaginary part is zero and its real part equals a member.

The pairs are found by a hash join, not by comparing every pair: a hit
means a_j = a_i + s for some s in S(b_i, b_j), so the chain is indexed once
by (node, parameter) and each factor looks up a_i + s for every node q in
the chain and every s in S(b_i, q).  That is k * sum_q |S(b_i, q)| lookups
for k factors instead of k^2 subtractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import FrozenSet, Tuple

from .drinfeld import FactorChain
from .exact import GaussianRational
from .rootsys import LieType, duality_shift, node_involution
from .weylpath import parameter_ledger


@dataclass(frozen=True)
class CriterionSet:
    lie_type: LieType
    b_m: int
    b_n: int
    values: FrozenSet[Fraction]


@dataclass(frozen=True)
class Verdict:
    guaranteed: bool
    exact: bool
    witnesses: Tuple[Tuple[int, int, GaussianRational], ...]


def _set_a(l: int, b_m: int, b_n: int):
    lo = 1 if b_m <= b_n else b_m - b_n + 1
    hi = min(b_m, l - b_n + 1)
    return {Fraction(b_n - b_m, 2) + k for k in range(lo, hi + 1)}


def _set_d(l: int, b_m: int, b_n: int):
    parity = l % 2  # 0 for even rank, 1 for odd
    spin = {l - 1, l}
    if b_m in spin and b_n in spin:
        if b_m == b_n:
            top = l - 1 - parity
        else:
            top = l - 2 + parity
        start = 1 if b_m == b_n else 2
        return {Fraction(v) for v in range(start, top + 1, 2)}
    if b_m in spin or b_n in spin:
        other = b_n if b_m in spin else b_m
        return {Fraction(l - 1 - other, 2) + 1 + r for r in range(other)}
    out = set()
    for r in range(min(b_m, b_n)):
        out.add(Fraction(abs(b_m - b_n), 2) + 1 + r)
        out.add(Fraction(l + r) - Fraction(b_m + b_n, 2))
    return out


def _set_c(l: int, b_m: int, b_n: int):
    if b_m == l and b_n == l:
        return {Fraction(v) for v in range(2, l + 2)}
    if b_m == l:
        out = set()
        for r in range(b_n):
            out.add(Fraction(l - b_n + 1, 2) + 1 + r)
            out.add(Fraction(l - b_n - 1, 2) + 1 + r)
        return out
    if b_n == l:
        return {Fraction(l - b_m + 1, 2) + 2 + r for r in range(b_m)}
    out = set()
    for r in range(min(b_m, b_n)):
        out.add(Fraction(abs(b_m - b_n), 2) + 1 + r)
        out.add(Fraction(l + 2 + r) - Fraction(b_m + b_n, 2))
    return out


def _set_b(l: int, b_m: int, b_n: int):
    if b_m == l and b_n == l:
        return {Fraction(v) for v in range(1, 2 * l, 2)}
    if b_m == l:
        return {Fraction(l - b_n + 2 + 2 * r) for r in range(b_n)}
    if b_n == l:
        # Both polynomial roots of each spin-node chain step obstruct, and
        # consecutive blocks sit two apart, so the range runs to l + b_m - 1;
        # the shorter variant fails the ledger cross-check.
        out = set()
        for r in range(b_m):
            out.add(Fraction(l - b_m + 2 * r))
            out.add(Fraction(l - b_m + 1 + 2 * r))
        return out
    out = set()
    for r in range(min(b_m, b_n)):
        out.add(Fraction(abs(b_m - b_n) + 2 + 2 * r))
        out.add(Fraction(2 * l - (b_m + b_n) + 1 + 2 * r))
    return out


_G2_SETS = {
    (1, 1): (3, 4, 5, 6),
    (1, 2): (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), Fraction(7, 2), Fraction(9, 2)),
    (2, 1): (Fraction(9, 2), Fraction(13, 2)),
    (2, 2): (1, 3, 4, 6),
}


@lru_cache(maxsize=None)
def criterion_set(t: LieType, b_m: int, b_n: int) -> CriterionSet:
    """Closed-form criterion set for the node pair (b_m, b_n)."""
    t.check_node(b_m)
    t.check_node(b_n)
    family, rank = t.family, t.rank
    if family == "A":
        values = _set_a(rank, b_m, b_n)
    elif family == "B":
        values = _set_b(rank, b_m, b_n)
    elif family == "C":
        values = _set_c(rank, b_m, b_n)
    elif family == "D":
        values = _set_d(rank, b_m, b_n)
    else:
        values = {Fraction(v) for v in _G2_SETS[(b_m, b_n)]}
    # The join in criterion_hits relies on both properties.
    if any(v <= 0 or (2 * v).denominator != 1 for v in values):
        raise RuntimeError(
            f"criterion set for {t} ({b_m},{b_n}) not positive half-integers"
        )
    return CriterionSet(t, b_m, b_n, frozenset(values))


class CriterionSetMismatch(RuntimeError):
    """Ledger-derived and closed-form criterion sets disagree."""


@lru_cache(maxsize=None)
def criterion_set_from_ledger(t: LieType, b_m: int, b_n: int) -> CriterionSet:
    """Criterion set rederived from the parameter ledger of node b_m.

    At a chain step landing on node b_n with rescaling divisor d, a second
    factor parameter a_n obstructs exactly when (a_n - root)/d = 1 for some
    root of the step polynomial, i.e. a_n - a_m = offset + d.  This is a
    test oracle: a disagreement with criterion_set means a transcription
    bug, and the call fails loudly with both sets rather than returning
    either one.
    """
    t.check_node(b_m)
    t.check_node(b_n)
    values = set()
    for entry in parameter_ledger(t, b_m).entries:
        if entry.node != b_n:
            continue
        for offset in entry.offsets:
            values.add(offset + entry.divisor)
    closed = criterion_set(t, b_m, b_n).values
    if frozenset(values) != closed:
        raise CriterionSetMismatch(
            f"{t} pair ({b_m},{b_n}): ledger-derived set "
            f"{sorted(values)} != closed form {sorted(closed)}"
        )
    return CriterionSet(t, b_m, b_n, frozenset(values))


@lru_cache(maxsize=None)
def _doubled_sets(t: LieType, p: int):
    """(q, 2s) for every node q of t and every s in S(p, q), as integers."""
    return tuple(
        (q, int(2 * s)) for q in range(1, t.rank + 1) for s in criterion_set(t, p, q).values
    )


def _doubled(a: GaussianRational):
    """The triple (re, im, d) of 2a, in lowest terms."""
    re, im, d = a.triple
    return (re, im, d // 2) if d % 2 == 0 else (2 * re, 2 * im, d)


def criterion_hits(chain: FactorChain, both_orders: bool = False):
    """Yield (i, j, a_j - a_i), in (i, j) order, for the 1-based pairs
    i < j (every i != j when both_orders) whose difference lies in the
    criterion set of the node pair (b_i, b_j)."""
    t = chain.lie_type
    factors = chain.factors
    # The hash join of the module docstring, on integer keys (node, triple
    # of 2a).  2s is an integer, so 2(a + s) has the triple (re + 2s * d,
    # im, d), and that is still in lowest terms.
    keys = [(b, *_doubled(a)) for b, a in factors]
    index = {}
    for j, key in enumerate(keys):
        index.setdefault(key, []).append(j)
    nodes = {b for b, _ in factors}
    shifts = {p: [(q, s2) for q, s2 in _doubled_sets(t, p) if q in nodes] for p in nodes}
    for i, (b_i, re, im, d) in enumerate(keys):
        hits = sorted(
            j
            for q, s2 in shifts[b_i]
            for j in index.get((q, re + s2 * d, im, d), ())
            if both_orders or j > i  # s > 0, so j != i
        )
        for j in hits:
            yield i + 1, j + 1, factors[j][1] - factors[i][1]


def cyclicity_guaranteed(chain: FactorChain) -> Verdict:
    """Sufficient condition: no pair i < j with a_j - a_i in the pair set.

    A chain with weakly decreasing real parts passes automatically, since
    every criterion value is a positive real number.
    """
    witnesses = tuple(criterion_hits(chain))
    return Verdict(guaranteed=not witnesses, exact=False, witnesses=witnesses)


def dual_chain(chain: FactorChain) -> FactorChain:
    """Left dual: reverse factors, twist nodes, shift parameters."""
    t = chain.lie_type
    nu = node_involution(t)
    shift = GaussianRational(duality_shift(t))
    return FactorChain(
        t,
        tuple((nu[node - 1], a - shift) for node, a in reversed(chain.factors)),
    )


def irreducibility_guaranteed(chain: FactorChain) -> Verdict:
    """Sufficient (for type A: exact) irreducibility condition.

    Checks a_j - a_i against the pair set for every ordered pair i != j.
    The verdict is recomputed as cyclicity of the chain and of its dual,
    and the two computations must agree.
    """
    witnesses = tuple(criterion_hits(chain, both_orders=True))
    guaranteed = not witnesses
    via_duality = (
        cyclicity_guaranteed(chain).guaranteed
        and cyclicity_guaranteed(dual_chain(chain)).guaranteed
    )
    if guaranteed != via_duality:
        raise RuntimeError(
            "direct irreducibility check disagrees with the duality route; "
            f"chain {chain.factors!r}"
        )
    return Verdict(
        guaranteed=guaranteed,
        exact=chain.lie_type.family == "A",
        witnesses=witnesses,
    )
