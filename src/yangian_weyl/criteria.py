"""Cyclicity and irreducibility criteria for tensor products of
fundamental modules.

For an ordered chain V_{a_1}(w_{b_1}) x ... x V_{a_k}(w_{b_k}) the product
is guaranteed to be a highest weight module when no difference a_j - a_i
(i < j) lands in the finite positive-rational criterion set of the node
pair (b_i, b_j); it is guaranteed irreducible when the same holds for all
ordered pairs i != j.  Membership is exact: a difference belongs to a set
only when its imaginary part is zero and its real part equals a member.
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
    if any(v <= 0 for v in values):
        raise RuntimeError(f"criterion set for {t} ({b_m},{b_n}) not positive")
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


def scan_pairs(chain: FactorChain, both_orders: bool = False):
    """Yield (i, j, a_j - a_i, in_set) for 1-based i < j, or for every
    i != j when both_orders; in_set says whether the difference lies in
    the criterion set of the node pair (b_i, b_j)."""
    t = chain.lie_type
    factors = chain.factors
    # One cache lookup per node pair, not per factor pair: a hit keyed on
    # the LieType dataclass costs more than indexing this table.
    nodes = {b for b, _ in factors}
    sets = {(p, q): criterion_set(t, p, q).values for p in nodes for q in nodes}
    for i, (b_i, a_i) in enumerate(factors):
        for j in range(0 if both_orders else i + 1, len(factors)):
            if j == i:
                continue
            b_j, a_j = factors[j]
            diff = a_j - a_i
            yield i + 1, j + 1, diff, diff.im == 0 and diff.re in sets[b_i, b_j]


def cyclicity_guaranteed(chain: FactorChain) -> Verdict:
    """Sufficient condition: no pair i < j with a_j - a_i in the pair set.

    A chain with weakly decreasing real parts passes automatically, since
    every criterion value is a positive real number.
    """
    witnesses = tuple((i, j, diff) for i, j, diff, hit in scan_pairs(chain) if hit)
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
    witnesses = tuple(
        (i, j, diff) for i, j, diff, hit in scan_pairs(chain, both_orders=True) if hit
    )
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
