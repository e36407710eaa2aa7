"""Dimensions of fundamental modules, factor chains, and local Weyl modules."""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Tuple

from .drinfeld import DrinfeldTuple, FactorChain
from .rootsys import LieType, all_nodes

# How the Yangian fundamental module at a G2 node decomposes over the
# underlying Lie algebra.  Node 2 restricts irreducibly.  Node 1 is not
# pinned down by the sources this package encodes; the default below
# (adjoint plus trivial, dimension 15) follows the standard literature and
# is exposed as data, not asserted by the test suite.
G2_NODE1_DECOMPOSITION: Tuple[Tuple[int, int], ...] = ((1, 1), (0, 1))


@lru_cache(maxsize=None)
def decomposition_table(t: LieType):
    """Per node: the Yangian fundamental module as a list of
    (Lie fundamental weight index or 0 for trivial, multiplicity)."""
    family, l = t.family, t.rank
    rows = []
    for i in range(1, l + 1):
        if family in ("A", "C"):
            rows.append(((i, 1),))
        elif family == "B":
            if i in (1, l):
                rows.append(((i, 1),))
            else:
                rows.append(tuple((i - 2 * j, 1) for j in range(i // 2 + 1)))
        elif family == "D":
            if i in (1, l - 1, l):
                rows.append(((i, 1),))
            else:
                rows.append(tuple((i - 2 * j, 1) for j in range(i // 2 + 1)))
        else:  # G2
            rows.append(G2_NODE1_DECOMPOSITION if i == 1 else ((2, 1),))
    return tuple(rows)


def lie_fundamental_dim(t: LieType, i: int) -> int:
    """Dimension of the i-th fundamental module of the underlying Lie algebra."""
    t.check_node(i)
    l = t.rank
    if t.family == "A":
        return comb(l + 1, i)
    if t.family == "B":
        return 2**l if i == l else comb(2 * l + 1, i)
    if t.family == "C":
        return comb(2 * l, i) - (comb(2 * l, i - 2) if i >= 2 else 0)
    if t.family == "D":
        return 2 ** (l - 1) if i in (l - 1, l) else comb(2 * l, i)
    return 14 if i == 1 else 7


def _summand_dim(t: LieType, index: int) -> int:
    return 1 if index == 0 else lie_fundamental_dim(t, index)


def yangian_fundamental_dim(t: LieType, i: int) -> int:
    """Dimension of the i-th fundamental Yangian module."""
    t.check_node(i)
    row = decomposition_table(t)[i - 1]
    return sum(mult * _summand_dim(t, idx) for idx, mult in row)


def _power_product(t: LieType, degrees) -> int:
    """prod_i dim(fundamental module at node i) ** degrees[i - 1], one
    table lookup per node that occurs."""
    out = 1
    for node, degree in enumerate(degrees, start=1):
        if degree:
            out *= yangian_fundamental_dim(t, node) ** degree
    return out


def weyl_module_dim(pi: DrinfeldTuple) -> int:
    """prod_i dim(fundamental module at node i) ** deg(pi_i)."""
    return _power_product(pi.lie_type, pi.degrees)


def chain_dim(chain: FactorChain) -> int:
    """The product of the dimensions of the chain's factors."""
    nodes = [node for node, _ in chain.factors]
    return _power_product(chain.lie_type, map(nodes.count, all_nodes(chain.lie_type)))
