"""Weight chains along reduced words, lowering words, and parameter ledgers.

For each node b the descent chain tracks the extremal-weight path from the
highest weight down to the lowest one, one simple reflection at a time.
The parameter ledger records, for every chain step, the roots of the
rank-one polynomial attached to that step (affine expressions in the first
factor parameter) together with the rescaling divisor of the sl2 copy at
that node.  Ledgers are computed, not tabulated: one loop lowers an
l-weight along the chain, reading only the Cartan matrix and the
symmetrizers.  The criterion sets of `criteria` are read off them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Tuple

from .record import record
from .rootsys import (
    LieType,
    Weight,
    _walk,
    cartan_datum,
    fundamental_weight,
    longest_word,
)


@record
class ChainStep:
    index: int          # 0-based position in the chain
    node: int           # node of the reflection applied at this step
    weight_before: Weight
    weight_after: Weight
    coefficient: int    # node coefficient of weight_before; the operator power


@record
class SigmaChain:
    lie_type: LieType
    node: int
    steps: Tuple[ChainStep, ...]

    @property
    def nodes(self) -> Tuple[int, ...]:
        return tuple(s.node for s in self.steps)

    @property
    def coefficients(self) -> Tuple[int, ...]:
        return tuple(s.coefficient for s in self.steps)

    @property
    def final_weight(self) -> Weight:
        return self.steps[-1].weight_after if self.steps else None


def _applied_node_order(t: LieType, b: int):
    """Reflection nodes in order of application for the chain of node b."""
    l = t.rank
    if t.family == "A":
        # Block r walks b-r, b-r+1, ..., l-r; every step moves the weight.
        order = []
        for r in range(b):
            order.extend(range(b - r, l - r + 1))
        return order
    # Other families: the longest-word expression applied right to left,
    # steps that fix the weight dropped as the chain is built.
    return list(reversed(longest_word(t)))


@lru_cache(maxsize=None, typed=True)
def descent_chain(t: LieType, b: int) -> SigmaChain:
    w = list(fundamental_weight(t, b))
    order = _applied_node_order(t, b)
    before, steps = tuple(w), []
    for node, c in _walk(t, w, order):
        if c < 0:
            raise RuntimeError(f"negative step coefficient in chain of {t}, node {b}")
        after = tuple(w)
        steps.append(ChainStep(len(steps), node, before, after, c))
        before = after
    if t.family == "A" and len(steps) != len(order):
        raise RuntimeError("type A chain word produced a fixed step")
    return SigmaChain(t, b, tuple(steps))


def lowering_word(t: LieType, b: int) -> Tuple[Tuple[int, int], ...]:
    """(node, exponent) pairs in product order, rightmost factor applied first."""
    chain = descent_chain(t, b)
    return tuple((s.node, s.coefficient) for s in reversed(chain.steps))


@record
class LedgerEntry:
    node: int
    offsets: Tuple[Fraction, ...]  # roots are a_1 + offset, unrescaled
    divisor: int                   # rescaling divisor of the sl2 copy

    def roots_at(self, a):
        """Polynomial roots of this step, evaluated at leading parameter a."""
        return tuple(a + offset for offset in self.offsets)


@record
class Ledger:
    lie_type: LieType
    node: int
    entries: Tuple[LedgerEntry, ...]


@lru_cache(maxsize=None)
def _half(x: int) -> Fraction:
    """x/2; ledger offsets repeat, so each is built once."""
    return Fraction(x, 2)


def _bump(powers: dict, x: int, by: int):
    """Add `by` to the power of x, dropping x when the power reaches 0."""
    p = powers.get(x, 0) + by
    if p:
        powers[x] = p
    else:
        del powers[x]


@lru_cache(maxsize=None, typed=True)
def parameter_ledger(t: LieType, b: int) -> Ledger:
    """Per-step polynomial roots along the descent chain of node b.

    The ledger is read off an l-weight, a product of Y_{j,x} kept per node
    as a map from 2x to its nonzero power, that starts at Y_{b,0}.  The
    steps come from the same sparse walk as `descent_chain`, `_walk` over
    the fundamental weight, which yields each moving letter's node i and
    coefficient c from the Cartan matrix alone.  A step records the x of
    every Y_{i,x}, with multiplicity and in ascending order, then lowers
    each of them: Y_{i,x} becomes Y_{i,x+d_i}^-1 times
    Y_{j, x + (d_j - k + 1)/2 + s} for s = 0..k-1 at every neighbour j
    with k = -C_ji > 0 (Frenkel-Mukhin lowering, written additively).  A
    step must hold exactly c many x and no Y_i of negative power.
    """
    weight = list(fundamental_weight(t, b))
    datum = cartan_datum(t)
    cartan, d = datum.cartan, datum.d
    l = t.rank
    # raised[i]: (j, 2 * shift) for every Y_{j, x + shift} that lowering
    # Y_{i,x} brings in; node j occurs k = -C_ji times.
    raised = [
        [
            (j, d[j] - k + 1 + 2 * s)
            for j in range(l)
            if (k := -cartan[j][i]) > 0
            for s in range(k)
        ]
        for i in range(l)
    ]
    powers = [{} for _ in range(l)]
    powers[b - 1][0] = 1
    entries = []
    for node, c in _walk(t, weight, _applied_node_order(t, b)):
        i = node - 1
        held = powers[i]
        xs = sorted(x for x, p in held.items() for _ in range(p))
        if len(xs) != c or min(held.values()) < 0:
            raise RuntimeError(
                f"l-weight at step {len(entries)} of {t} node {b} does not "
                f"match the step coefficient {c}"
            )
        entries.append(LedgerEntry(node, tuple(map(_half, xs)), d[i]))
        # Every Y_{i,x} held is lowered, so node i keeps only the new
        # Y_{i,x+d_i}^-1.
        powers[i] = held = {}
        for x in xs:
            _bump(held, x + 2 * d[i], -1)
        for j, shift in raised[i]:
            for x in xs:
                _bump(powers[j], x + shift, 1)
    return Ledger(t, b, tuple(entries))
