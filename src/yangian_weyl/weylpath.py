"""Weight chains along reduced words, lowering words, and parameter ledgers.

For each node b the descent chain tracks the extremal-weight path from the
highest weight down to the lowest one, one simple reflection at a time.
The parameter ledger records, for every chain step, the roots of the
rank-one polynomial attached to that step (affine expressions in the first
factor parameter) together with the rescaling divisor of the sl2 copy at
that node.
"""

from __future__ import annotations

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


def _entry(node: int, offsets, divisor: int) -> LedgerEntry:
    return LedgerEntry(node, tuple(Fraction(o) for o in offsets), divisor)


def _ledger_a(l: int, b: int):
    entries = []
    for r in range(b):
        for s in range(l - b + 1):
            entries.append(_entry(b - r + s, [Fraction(r + s, 2)], 1))
    return entries


def _ledger_d(l: int, b: int):
    F = Fraction
    entries = []
    if b <= l - 2:
        for p in range(1, b + 1):
            base = F(p - 1)
            for j in range(l - 1 - b):
                entries.append(_entry(b + j, [base + F(j, 2)], 1))
            entries.append(_entry(l - 1, [base + F(l - 1 - b, 2)], 1))
            entries.append(_entry(l, [base + F(l - 1 - b, 2)], 1))
            for m in range(l - 2, b - 1, -1):
                entries.append(_entry(m, [base + F(2 * l - b - 2 - m, 2)], 1))
            for m in range(b - 1, p - 1, -1):
                entries.append(
                    _entry(m, [base + F(2 * l - b - m - 2, 2), base + F(b - m, 2)], 1)
                )
    else:
        # Spin nodes: alternating end node, all steps simple.
        for q in range(1, l):
            base = F(q - 1)
            if b == l - 1:
                end = l - 1 if q % 2 == 1 else l
            else:
                end = l if q % 2 == 1 else l - 1
            entries.append(_entry(end, [base], 1))
            for m in range(l - 2, q - 1, -1):
                entries.append(_entry(m, [base + F(l - 1 - m, 2)], 1))
    return entries


def _ledger_c(l: int, b: int):
    F = Fraction
    entries = []
    if b <= l - 1:
        for p in range(1, b + 1):
            base = F(p - 1)
            for j in range(l - b):
                entries.append(_entry(b + j, [base + F(j, 2)], 1))
            entries.append(_entry(l, [base + F(l - b + 1, 2)], 2))
            for m in range(l - 1, b - 1, -1):
                entries.append(_entry(m, [base + F(2 * l - b + 2 - m, 2)], 1))
            for m in range(b - 1, p - 1, -1):
                entries.append(
                    _entry(m, [base + F(2 * l - b - m + 2, 2), base + F(b - m, 2)], 1)
                )
    else:
        for q in range(1, l + 1):
            base = F(q - 1)
            entries.append(_entry(l, [base], 2))
            for m in range(l - 1, q - 1, -1):
                entries.append(
                    _entry(m, [base + F(l - m - 1, 2), base + F(l - m + 1, 2)], 1)
                )
    return entries


def _ledger_b(l: int, b: int):
    F = Fraction
    entries = []
    if b <= l - 1:
        for p in range(1, b + 1):
            base = F(2 * (p - 1))
            for j in range(l - b):
                entries.append(_entry(b + j, [base + j], 2))
            entries.append(_entry(l, [base + l - b - 1, base + l - b], 1))
            for m in range(l - 1, b - 1, -1):
                entries.append(_entry(m, [base + 2 * l - b - 1 - m], 2))
            for m in range(b - 1, p - 1, -1):
                entries.append(
                    _entry(m, [base + 2 * l - b - m - 1, base + b - m], 2)
                )
    else:
        for q in range(1, l + 1):
            base = F(2 * (q - 1))
            entries.append(_entry(l, [base], 1))
            for m in range(l - 1, q - 1, -1):
                entries.append(_entry(m, [base + l - m], 2))
    return entries


_G2_LEDGERS = {
    1: (
        (1, (Fraction(0),), 3),
        (2, (Fraction(3, 2), Fraction(1, 2), Fraction(-1, 2)), 1),
        (1, (Fraction(2), Fraction(1)), 3),
        (2, (Fraction(7, 2), Fraction(5, 2), Fraction(3, 2)), 1),
        (1, (Fraction(3),), 3),
    ),
    2: (
        (2, (Fraction(0),), 1),
        (1, (Fraction(3, 2),), 3),
        (2, (Fraction(3), Fraction(2)), 1),
        (1, (Fraction(7, 2),), 3),
        (2, (Fraction(5),), 1),
    ),
}


@lru_cache(maxsize=None)
def parameter_ledger(t: LieType, b: int) -> Ledger:
    """Per-step polynomial roots along the descent chain of node b.

    Entry k belongs to chain step k; its root multiset has exactly the
    step coefficient many elements and its divisor is the symmetrizer of
    the step node.
    """
    t.check_node(b)
    family, l = t.family, t.rank
    if family == "A":
        entries = _ledger_a(l, b)
    elif family == "B":
        entries = _ledger_b(l, b)
    elif family == "C":
        entries = _ledger_c(l, b)
    elif family == "D":
        entries = _ledger_d(l, b)
    else:
        entries = [_entry(node, offs, div) for node, offs, div in _G2_LEDGERS[b]]
    ledger = Ledger(t, b, tuple(entries))
    _check_alignment(ledger)
    return ledger


def _check_alignment(ledger: Ledger):
    chain = descent_chain(ledger.lie_type, ledger.node)
    d = cartan_datum(ledger.lie_type).d
    if len(chain.steps) != len(ledger.entries):
        raise RuntimeError(
            f"ledger/chain length mismatch for {ledger.lie_type} node {ledger.node}: "
            f"{len(ledger.entries)} entries vs {len(chain.steps)} steps"
        )
    for step, entry in zip(chain.steps, ledger.entries):
        if step.node != entry.node:
            raise RuntimeError(
                f"ledger/chain node mismatch at step {step.index} of "
                f"{ledger.lie_type} node {ledger.node}"
            )
        if len(entry.offsets) != step.coefficient:
            raise RuntimeError(
                f"ledger entry size != step coefficient at step {step.index} of "
                f"{ledger.lie_type} node {ledger.node}"
            )
        if entry.divisor != d[entry.node - 1]:
            raise RuntimeError(
                f"ledger divisor != symmetrizer at step {step.index} of "
                f"{ledger.lie_type} node {ledger.node}"
            )


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
