"""Cyclicity and irreducibility criteria for tensor products of
fundamental modules.

For an ordered chain V_{a_1}(w_{b_1}) x ... x V_{a_k}(w_{b_k}) the product
is guaranteed to be a highest weight module when no difference a_j - a_i
(i < j) lands in the finite positive-rational criterion set of the node
pair (b_i, b_j); it is guaranteed irreducible when the same holds for all
ordered pairs i != j.  Membership is exact: a difference belongs to a set
only when its imaginary part is zero and its real part equals a member.
The sets are not tabulated: each is read off the parameter ledger of
b_i, which is computed from the Cartan data (see weylpath), and checked
once per node against S(p, q) = S(nu p, nu q), nu the node involution.

The pairs are found by a hash join, not by comparing every pair: a hit
means a_j = a_i + s for some s in S(b_i, b_j), so the chain is indexed once
by (node, parameter) and each factor looks up a_i + s for every node q in
the chain and every s in S(b_i, q).  That is k * sum_q |S(b_i, q)| lookups
for k factors instead of k^2 subtractions.  Since 2s is an integer, 2a_i
and 2a_j then have the same imaginary part and the same denominator d in
lowest terms, so the factors are first bucketed by that pair (im, d), and
a factor alone in its bucket makes no lookup: a chain whose parameters
have pairwise distinct imaginary parts makes none at all.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import FrozenSet, Tuple

from .drinfeld import FactorChain
from .exact import GaussianRational
from .record import record
from .rootsys import LieType, duality_shift, node_involution
from .weylpath import parameter_ledger


@record
class CriterionSet:
    lie_type: LieType
    b_m: int
    b_n: int
    values: FrozenSet[Fraction]


@record
class Verdict:
    guaranteed: bool
    exact: bool
    witnesses: Tuple[Tuple[int, int, GaussianRational], ...]


def _ledger_sets(t: LieType, p: int):
    """The sets 2 S(p, q) for q = 1..l, as ascending tuples of integers.

    They are read off the parameter ledger of node p: at a chain step on
    node q with rescaling divisor d, a second factor parameter a_q
    obstructs exactly when (a_q - root)/d = 1 for some root of the step
    polynomial, that is when a_q - a_p = offset + d.
    """
    sets = [set() for _ in range(t.rank)]
    for entry in parameter_ledger(t, p).entries:
        for offset in entry.offsets:
            s2, rest = divmod(2 * offset.numerator, offset.denominator)
            s2 += 2 * entry.divisor
            # The join in criterion_hits relies on both properties.
            if rest or s2 <= 0:
                raise RuntimeError(
                    f"criterion set for {t} ({p},{entry.node}) not positive half-integers"
                )
            sets[entry.node - 1].add(s2)
    return tuple(tuple(sorted(values)) for values in sets)


@lru_cache(maxsize=None, typed=True)
def _doubled_sets(t: LieType, p: int):
    """`_ledger_sets`, checked against S(p, q) = S(nu p, nu q): under it, the
    join's irreducibility verdict is cyclicity of a chain and of its dual."""
    sets = _ledger_sets(t, p)
    nu = node_involution(t)
    twin = sets if nu[p - 1] == p else _ledger_sets(t, nu[p - 1])
    if any(sets[q] != twin[nu[q] - 1] for q in range(t.rank)):
        raise RuntimeError(f"criterion sets for {t} break S(p, q) = S(nu p, nu q) at node {p}")
    return sets


@lru_cache(maxsize=None, typed=True)
def criterion_set(t: LieType, b_m: int, b_n: int) -> CriterionSet:
    """Criterion set for the node pair (b_m, b_n), derived from the
    parameter ledger of node b_m; every value is a positive half-integer."""
    t.check_node(b_n)
    t.check_node(b_m)
    values = _doubled_sets(t, b_m)[b_n - 1]
    return CriterionSet(t, b_m, b_n, frozenset(Fraction(s2, 2) for s2 in values))


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
    # The hash join of the module docstring, on integer keys: 2a has the
    # triple (re, im, d) in lowest terms, and as 2s is an integer, 2(a + s)
    # has the triple (re + 2s * d, im, d), still in lowest terms.  So only
    # factors with the same (im, d) can pair, and a factor alone in its
    # bucket makes no lookup.
    buckets = {}
    for j, (b, a) in enumerate(factors):
        re, im, d = _doubled(a)
        buckets.setdefault((im, d), []).append((j, b, re))
    nodes = {b for b, _ in factors}
    shifts = {}
    pairs = []
    for (_, d), members in buckets.items():
        if len(members) < 2:
            continue
        index = {}
        for j, b, re in members:
            index.setdefault((b, re), []).append(j)
        for i, b_i, re in members:
            if b_i not in shifts:
                shifts[b_i] = [(q, s2) for q in nodes for s2 in _doubled_sets(t, b_i)[q - 1]]
            pairs.extend(
                (i, j)
                for q, s2 in shifts[b_i]
                for j in index.get((q, re + s2 * d), ())
                if both_orders or j > i  # s > 0, so j != i
            )
    pairs.sort()
    for i, j in pairs:
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

    Checks a_j - a_i against the pair set for every ordered pair i != j;
    by `_doubled_sets`, that is cyclicity of the chain and of its dual.
    """
    witnesses = tuple(criterion_hits(chain, both_orders=True))
    return Verdict(
        guaranteed=not witnesses,
        exact=chain.lie_type.family == "A",
        witnesses=witnesses,
    )
