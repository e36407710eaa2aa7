"""Dimension tables and product identities; the Lie fundamental dimensions
are checked in `test_lie_dims_match_product_formula`, up to rank 6."""

from __future__ import annotations

from fractions import Fraction

import pytest

from yangian_weyl.dims import (
    G2_NODE1_DECOMPOSITION,
    chain_dim,
    decomposition_table,
    lie_fundamental_dim,
    weyl_module_dim,
    yangian_fundamental_dim,
)
from yangian_weyl.drinfeld import DrinfeldTuple, FactorChain
from yangian_weyl.exact import GaussianRational as G
from yangian_weyl.rootsys import all_nodes, lie_type

from ambient_tables import ambient
from test_criteria import _sweep_types


def test_yangian_fundamental_dims():
    assert yangian_fundamental_dim(lie_type("B", 3), 2) == 22
    assert yangian_fundamental_dim(lie_type("D", 4), 2) == 29
    assert yangian_fundamental_dim(lie_type("A", 3), 2) == 6
    # Lambda^3 minus Lambda^1 of the 8-dimensional module of sp(8): 56 - 8.
    assert yangian_fundamental_dim(lie_type("C", 4), 3) == 48
    # A and C nodes restrict irreducibly.
    for t in (lie_type("A", 4), lie_type("C", 4)):
        for i in all_nodes(t):
            assert yangian_fundamental_dim(t, i) == lie_fundamental_dim(t, i)


def test_decomposition_tables():
    t = lie_type("B", 5)
    for i in range(2, 5):
        row = decomposition_table(t)[i - 1]
        assert len(row) == i // 2 + 1
        assert [idx for idx, _ in row] == [i - 2 * j for j in range(i // 2 + 1)]
    assert decomposition_table(t)[0] == ((1, 1),)
    assert decomposition_table(t)[4] == ((5, 1),)
    d = lie_type("D", 6)
    assert len(decomposition_table(d)[3]) == 3  # node 4: L(w4)+L(w2)+L(0)
    assert decomposition_table(d)[4] == ((5, 1),)
    assert decomposition_table(lie_type("G2"))[0] == G2_NODE1_DECOMPOSITION
    assert decomposition_table(lie_type("G2"))[1] == ((2, 1),)


def test_weyl_module_dim_examples():
    a2 = lie_type("A", 2)
    pi = DrinfeldTuple.from_dict(a2, {1: [G(1)], 2: [G(0)]})
    assert weyl_module_dim(pi) == 9
    g2 = lie_type("G2")
    assert weyl_module_dim(DrinfeldTuple.from_dict(g2, {2: [G(5)]})) == 7
    b3 = lie_type("B", 3)
    assert weyl_module_dim(DrinfeldTuple.from_dict(b3, {2: [G(0)]})) == 22
    for t in (a2, b3, g2):
        for i in all_nodes(t):
            single = DrinfeldTuple.from_dict(t, {i: [G(0)]})
            assert weyl_module_dim(single) == yangian_fundamental_dim(t, i)


def test_chain_dim_examples():
    t = lie_type("A", 3)
    assert chain_dim(FactorChain(t, ((1, G(0)), (2, G(1))))) == 24
    assert chain_dim(FactorChain(t, ())) == 1
    assert chain_dim(FactorChain(lie_type("B", 3), ((2, G(0)),))) == 22


def _product_formula_dim(t, b):
    # Independent oracle: the classical product over positive roots,
    # evaluated exactly with the ambient tables.
    from yangian_weyl.rootsys import positive_roots

    tables = ambient(t)
    weights = tables.fundamental_weights
    rho = [sum(w[i] for w in weights) for i in range(len(weights[0]))]
    lam = weights[b - 1]
    num = den = Fraction(1)
    for root in positive_roots(t):
        vec = tables.root_vector(root)
        num *= tables.form([x + r for x, r in zip(lam, rho)], vec)
        den *= tables.form(rho, vec)
    return num / den


@pytest.mark.parametrize("t", _sweep_types(6), ids=str)
def test_lie_dims_match_product_formula(t):
    for i in all_nodes(t):
        assert _product_formula_dim(t, i) == lie_fundamental_dim(t, i)

