"""Weight chains along reduced words, lowering words, and parameter ledgers.

For each node b the descent chain tracks the extremal-weight path from the
highest weight down to the lowest one, one simple reflection at a time.
The parameter ledger records, for every chain step, the roots of the
rank-one polynomial attached to that step (affine expressions in the first
factor parameter) together with the rescaling divisor of the sl2 copy at
that node.  Ledgers are computed, not tabulated: one loop lowers an
l-weight along the chain, reading only the Cartan matrix and the
symmetrizers.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

from .rootsys import (
    LieType,
    Weight,
    cartan_datum,
    fundamental_weight,
    longest_word,
    reflect,
)


@dataclass(frozen=True)
class ChainStep:
    index: int          # 0-based position in the chain
    node: int           # node of the reflection applied at this step
    weight_before: Weight
    weight_after: Weight
    coefficient: int    # node coefficient of weight_before; the operator power


@dataclass(frozen=True)
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


@lru_cache(maxsize=None)
def descent_chain(t: LieType, b: int) -> SigmaChain:
    w = fundamental_weight(t, b)
    steps = []
    for node in _applied_node_order(t, b):
        c = w[node - 1]
        if c == 0:
            if t.family == "A":
                raise RuntimeError("type A chain word produced a fixed step")
            continue
        if c < 0:
            raise RuntimeError(f"negative step coefficient in chain of {t}, node {b}")
        after = reflect(t, w, node)
        steps.append(ChainStep(len(steps), node, w, after, c))
        w = after
    return SigmaChain(t, b, tuple(steps))


def lowering_word(t: LieType, b: int) -> Tuple[Tuple[int, int], ...]:
    """(node, exponent) pairs in product order, rightmost factor applied first."""
    chain = descent_chain(t, b)
    return tuple((s.node, s.coefficient) for s in reversed(chain.steps))


@dataclass(frozen=True)
class LedgerEntry:
    node: int
    offsets: Tuple[Fraction, ...]  # roots are a_1 + offset, unrescaled
    divisor: int                   # rescaling divisor of the sl2 copy

    def roots_at(self, a):
        """Polynomial roots of this step, evaluated at leading parameter a."""
        return tuple(a + offset for offset in self.offsets)


@dataclass(frozen=True)
class Ledger:
    lie_type: LieType
    node: int
    entries: Tuple[LedgerEntry, ...]


@lru_cache(maxsize=None)
def parameter_ledger(t: LieType, b: int) -> Ledger:
    """Per-step polynomial roots along the descent chain of node b.

    The ledger is read off an l-weight, a product of Y_{j,x} kept as a
    Counter of powers per node, that starts at Y_{b,0}.  A step on node i
    records the x of every Y_{i,x}, with multiplicity and in ascending
    order, then lowers each of them: Y_{i,x} becomes Y_{i,x+d_i}^-1 times
    Y_{j, x + (d_j - k + 1)/2 + s} for s = 0..k-1 at every node j with
    k = -C_ji > 0 (Frenkel-Mukhin lowering, written additively).  A step
    must hold exactly its coefficient many x and no Y_i of negative power.
    """
    t.check_node(b)
    datum = cartan_datum(t)
    powers = defaultdict(Counter)
    powers[b][Fraction(0)] = 1
    entries = []
    for step in descent_chain(t, b).steps:
        i, held = step.node, powers[step.node]
        xs = sorted(held.elements())
        if len(xs) != step.coefficient or any(p < 0 for p in held.values()):
            raise RuntimeError(
                f"l-weight at step {step.index} of {t} node {b} does not "
                f"match the step coefficient {step.coefficient}"
            )
        d_i = datum.d[i - 1]
        entries.append(LedgerEntry(i, tuple(xs), d_i))
        for x in xs:
            held[x] -= 1
            held[x + d_i] -= 1
            for j, row in enumerate(datum.cartan, 1):
                k = -row[i - 1]  # positive only at the neighbours of i
                for s in range(k):
                    powers[j][x + Fraction(datum.d[j - 1] - k + 1, 2) + s] += 1
    return Ledger(t, b, tuple(entries))


def chain_root_positivity(t: LieType, b: int) -> bool:
    """Each step's simple root, pulled back through the earlier steps,
    stays positive: the chain always moves strictly downward."""
    from .rootsys import is_positive_root_vector, reflect_root

    chain = descent_chain(t, b)
    l = t.rank
    for k, step in enumerate(chain.steps):
        vec = tuple(1 if j == step.node - 1 else 0 for j in range(l))
        for earlier in reversed(chain.steps[:k]):
            vec = reflect_root(t, vec, earlier.node)
        if not is_positive_root_vector(vec):
            return False
    return True


def root_lattice_balance(t: LieType, b: int) -> bool:
    """Sum of exponent * alpha_node over the lowering word equals
    omega_b - w0(omega_b) in fundamental-weight coordinates."""
    from .rootsys import apply_word, simple_root_in_weights

    total = [0] * t.rank
    for node, exp in lowering_word(t, b):
        alpha = simple_root_in_weights(t, node)
        total = [acc + exp * a for acc, a in zip(total, alpha)]
    start = fundamental_weight(t, b)
    end = apply_word(t, longest_word(t), start)
    return tuple(total) == tuple(s - e for s, e in zip(start, end))
