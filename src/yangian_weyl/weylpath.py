"""Weight chains along reduced words and parameter ledgers.

For each node b the descent chain tracks the extremal-weight path from the
highest weight down to the lowest one, one simple reflection at a time.
The parameter ledger records, for every chain step, the roots of the
rank-one polynomial attached to that step (affine expressions in the first
factor parameter) together with the rescaling divisor of the sl2 copy at
that node.  Ledgers are computed, not tabulated: one loop,
`_ledger_steps`, lowers an l-weight along the chain on doubled integers,
reading only the Cartan matrix and the symmetrizers.  `parameter_ledger`
and the criterion sets of `criteria` are both read off its steps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from typing import Tuple

from .record import record
from .rootsys import (
    LieType,
    Weight,
    _alpha_entries,
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


@record
class LedgerEntry:
    node: int
    offsets: Tuple[Fraction, ...]  # roots are a_1 + offset, unrescaled
    divisor: int                   # rescaling divisor of the sl2 copy


@record
class Ledger:
    lie_type: LieType
    node: int
    entries: Tuple[LedgerEntry, ...]


def _lowering_moves(t: LieType):
    """Per node i, the (j, 2 * shift, sign) of each Y_{j,x+shift}^sign that
    lowering Y_{i,x} brings in: Y_{i,x+d_i}^-1, and at every neighbour j
    with k = -C_ji > 0, Y_{j,x+(d_j-k+1)/2+s} for s = 0..k-1."""
    d = cartan_datum(t).d
    return [
        [(i, 2 * d[i], -1)]
        + [(j, d[j] + a + 1 + 2 * s, 1) for j, a in column if a < 0 for s in range(-a)]
        for i, column in enumerate(_alpha_entries(t))
    ]


def _ledger_steps(t: LieType, b: int):
    """Yield (node, held, divisor) for each step of the descent chain of
    node b: `held` lists the pairs (2x, power) of the Y_{node,x} held
    before the step, ascending in x, and `divisor` is d_node.

    The steps are read off an l-weight, a product of Y_{j,x} kept per node
    as a map from 2x to its nonzero power, that starts at Y_{b,0}.  They
    come from the same sparse walk as `descent_chain`, `_walk` over the
    fundamental weight, which yields each moving letter's node i and
    coefficient c from the Cartan matrix alone.  A step lowers every
    Y_{i,x} held by `_lowering_moves` (Frenkel-Mukhin lowering, written
    additively), once per distinct x with its power.  The powers held must
    sum to c, and none may be negative.
    """
    weight = list(fundamental_weight(t, b))  # checks b
    d = cartan_datum(t).d
    moves = _lowering_moves(t)
    powers = [{} for _ in range(t.rank)]
    powers[b - 1][0] = 1
    for step, (node, c) in enumerate(_walk(t, weight, _applied_node_order(t, b))):
        i = node - 1
        held = powers[i]
        # c != 0, so an empty map fails the sum before min() sees it.
        if sum(held.values()) != c or min(held.values()) < 0:
            raise RuntimeError(
                f"l-weight at step {step} of {t} node {b} does not "
                f"match the step coefficient {c}"
            )
        held = sorted(held.items())
        yield node, held, d[i]
        powers[i] = {}  # every Y_{i,x} held is lowered
        for j, shift, sign in moves[i]:
            target = powers[j]
            for x, p in held:
                # Add sign * p to the power of x + shift, dropping it at 0.
                q = target.pop(x + shift, 0) + sign * p
                if q:
                    target[x + shift] = q


@lru_cache(maxsize=None, typed=True)
def parameter_ledger(t: LieType, b: int) -> Ledger:
    """Per-step polynomial roots along the descent chain of node b: for each
    step of `_ledger_steps`, the offset x of every Y_{i,x} held, ascending
    and repeated to its power, and the divisor d_i."""
    return Ledger(t, b, tuple(
        LedgerEntry(node, tuple(f for x2, p in held for f in repeat(Fraction(x2, 2), p)), divisor)
        for node, held, divisor in _ledger_steps(t, b)
    ))
