"""Descent chains, lowering words, and parameter ledgers."""

from __future__ import annotations

from fractions import Fraction

import pytest

from yangian_weyl.rootsys import (
    all_nodes,
    apply_word,
    cartan_datum,
    fundamental_weight,
    lie_type,
    longest_word,
    node_involution,
)
from yangian_weyl.weylpath import (
    chain_root_positivity,
    descent_chain,
    lowering_word,
    parameter_ledger,
    root_lattice_balance,
)

from ambient_tables import ambient

SWEEP = (
    [lie_type("A", l) for l in range(1, 9)]
    + [lie_type("B", l) for l in range(2, 9)]
    + [lie_type("C", l) for l in range(2, 9)]
    + [lie_type("D", l) for l in range(4, 9)]
    + [lie_type("G2")]
)


def test_g2_chain_matches_weight_path():
    t = lie_type("G2")
    chain = descent_chain(t, 1)
    weights = [chain.steps[0].weight_before] + [s.weight_after for s in chain.steps]
    assert weights == [
        (1, 0), (-1, 3), (2, -3), (-2, 3), (1, -3), (-1, 0),
    ]
    assert chain.coefficients == (1, 3, 2, 3, 1)
    chain2 = descent_chain(t, 2)
    assert chain2.nodes == (2, 1, 2, 1, 2)
    assert chain2.coefficients == (1, 1, 2, 1, 1)


def test_a2_chain():
    t = lie_type("A", 2)
    chain = descent_chain(t, 1)
    assert chain.nodes == (1, 2)
    assert chain.coefficients == (1, 1)
    assert [s.weight_after for s in chain.steps] == [(-1, 1), (0, -1)]


def test_a_chain_order_is_blockwise():
    # Node order within the chain of node b walks b, b+1, ..., then shifts
    # the window down by one; position r(l-b+1)+s carries node b-r+s.
    t = lie_type("A", 3)
    assert descent_chain(t, 2).nodes == (2, 3, 1, 2)
    assert descent_chain(t, 1).nodes == (1, 2, 3)


@pytest.mark.parametrize("t", SWEEP, ids=str)
def test_chain_invariants(t):
    classical_range = {1, 2} if t.family != "G2" else {1, 2, 3}
    nu = node_involution(t)
    for b in all_nodes(t):
        chain = descent_chain(t, b)
        assert set(chain.coefficients) <= classical_range
        lowest = tuple(-c for c in fundamental_weight(t, nu[b - 1]))
        assert chain.final_weight == lowest
        assert chain_root_positivity(t, b)
        for k, step in enumerate(chain.steps):
            assert step.index == k
            assert step.weight_before[step.node - 1] == step.coefficient
            if k:
                assert step.weight_before == chain.steps[k - 1].weight_after


def test_lowering_word_examples():
    assert lowering_word(lie_type("G2"), 1) == ((1, 1), (2, 3), (1, 2), (2, 3), (1, 1))
    assert lowering_word(lie_type("C", 2), 2) == ((2, 1), (1, 2), (2, 1))
    assert lowering_word(lie_type("A", 2), 1) == ((2, 1), (1, 1))


@pytest.mark.parametrize("t", SWEEP, ids=str)
def test_root_lattice_balance(t):
    for b in all_nodes(t):
        assert root_lattice_balance(t, b)


def test_ledger_examples():
    entries = parameter_ledger(lie_type("A", 3), 1).entries
    assert entries[1].node == 2
    assert entries[1].offsets == (Fraction(1, 2),)
    assert entries[1].divisor == 1

    d_entries = parameter_ledger(lie_type("D", 4), 2).entries
    at_node_1 = [e for e in d_entries if e.node == 1]
    assert len(at_node_1) == 1
    assert set(at_node_1[0].offsets) == {Fraction(3, 2), Fraction(1, 2)}

    g2_entries = parameter_ledger(lie_type("G2"), 1).entries
    assert g2_entries[1].node == 2
    assert set(g2_entries[1].offsets) == {
        Fraction(3, 2), Fraction(1, 2), Fraction(-1, 2),
    }

    c2 = parameter_ledger(lie_type("C", 2), 2).entries
    assert [(e.node, e.divisor) for e in c2] == [(2, 2), (1, 1), (2, 2)]

    from yangian_weyl.exact import GaussianRational as G

    a = G(Fraction(5, 2))
    assert entries[1].roots_at(a) == (a + Fraction(1, 2),)
    assert set(c2[1].roots_at(a)) == {a, a + 1}


@pytest.mark.parametrize("t", SWEEP, ids=str)
def test_ledger_aligns_with_chain(t):
    d = cartan_datum(t).d
    for b in all_nodes(t):
        chain = descent_chain(t, b)
        ledger = parameter_ledger(t, b)
        assert len(ledger.entries) == len(chain.steps)
        for step, entry in zip(chain.steps, ledger.entries):
            assert entry.node == step.node
            assert len(entry.offsets) == step.coefficient
            assert entry.divisor == d[entry.node - 1]


@pytest.mark.parametrize("l", range(2, 9))
def test_type_a_ledger_entry_counts(l):
    # Entries at node b_n follow the window case analysis: min(b_m, l-b_n+1)
    # entries when b_m <= b_n, and min - (b_m - b_n) entries otherwise.
    t = lie_type("A", l)
    for b_m in all_nodes(t):
        ledger = parameter_ledger(t, b_m)
        for b_n in all_nodes(t):
            count = sum(1 for e in ledger.entries if e.node == b_n)
            expected = min(b_m, l - b_n + 1)
            if b_m > b_n:
                expected -= b_m - b_n
            assert count == max(expected, 0)


def test_chain_rejects_bad_node():
    with pytest.raises(ValueError):
        descent_chain(lie_type("A", 2), 3)
    with pytest.raises(ValueError):
        parameter_ledger(lie_type("B", 3), 0)


def test_final_weight_equals_longest_word_action():
    for t in SWEEP[:6]:
        for b in all_nodes(t):
            expected = apply_word(t, longest_word(t), fundamental_weight(t, b))
            assert descent_chain(t, b).final_weight == expected


@pytest.mark.parametrize("t", SWEEP, ids=str)
def test_chain_length_counts_nonorthogonal_positive_roots(t):
    # Independent oracle from the root tables: the chain of node b has one
    # step per positive root that pairs nonzero with the starting weight.
    from yangian_weyl.rootsys import positive_roots

    tables = ambient(t)
    for b in all_nodes(t):
        omega = tables.fundamental_weights[b - 1]
        count = sum(
            tables.form(omega, tables.root_vector(root)) != 0 for root in positive_roots(t)
        )
        assert len(descent_chain(t, b).steps) == count
