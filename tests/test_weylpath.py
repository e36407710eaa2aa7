"""Descent chains and parameter ledgers.  The `ledger` key of
tests/data/replay_digest.json pins the ledger of every node of A1-A8,
B2-B8, C2-C8, D3-D8 and G2 (see tests/test_replay.py)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from yangian_weyl.rootsys import (
    CartanDatum,
    all_nodes,
    apply_word,
    cartan_datum,
    fundamental_weight,
    lie_type,
    longest_word,
    simple_root_in_weights,
)
from yangian_weyl.weylpath import descent_chain, parameter_ledger

from ambient_tables import ambient
from test_criteria import _sweep_types

SWEEP = _sweep_types(8)


def root_lattice_balance(t, b) -> bool:
    """Sum of coefficient * alpha_node over the chain's steps equals
    omega_b - w0(omega_b) in fundamental-weight coordinates."""
    total = [0] * t.rank
    for step in descent_chain(t, b).steps:
        alpha = simple_root_in_weights(t, step.node)
        total = [acc + step.coefficient * a for acc, a in zip(total, alpha)]
    start = fundamental_weight(t, b)
    end = apply_word(t, longest_word(t), start)
    return tuple(total) == tuple(s - e for s, e in zip(start, end))


def test_g2_chain_matches_weight_path():
    t = lie_type("G2")
    chain = descent_chain(t, 1)
    weights = [chain.steps[0].weight_before] + [s.weight_after for s in chain.steps]
    assert weights == [
        (1, 0), (-1, 3), (2, -3), (-2, 3), (1, -3), (-1, 0),
    ]
    assert chain.nodes == (1, 2, 1, 2, 1)
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
    c2 = descent_chain(lie_type("C", 2), 2)
    assert c2.nodes == (2, 1, 2)
    assert c2.coefficients == (1, 2, 1)


def test_a_chain_order_is_blockwise():
    # Node order within the chain of node b walks b, b+1, ..., then shifts
    # the window down by one; position r(l-b+1)+s carries node b-r+s.
    t = lie_type("A", 3)
    assert descent_chain(t, 2).nodes == (2, 3, 1, 2)
    assert descent_chain(t, 1).nodes == (1, 2, 3)


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
    assert [a + offset for offset in entries[1].offsets] == [a + Fraction(1, 2)]
    assert {a + offset for offset in c2[1].offsets} == {a, a + 1}


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


def test_ledger_offsets_ascend():
    for t in _sweep_types(8):
        for b in all_nodes(t):
            for entry in parameter_ledger(t, b).entries:
                assert list(entry.offsets) == sorted(entry.offsets), (str(t), b)


@pytest.fixture
def uncached_ledgers():
    """Clear the cache of `parameter_ledger` around a test that patches
    what it calls, so that no earlier test's ledger answers it and no
    patched ledger outlives it."""
    import yangian_weyl.weylpath as wp

    wp.parameter_ledger.cache_clear()
    yield
    wp.parameter_ledger.cache_clear()


def test_ledger_refuses_a_chain_its_l_weight_does_not_match(uncached_ledgers, monkeypatch):
    # The ledger tracks the chain's weight from the Cartan matrix alone and
    # lowers the l-weight with the symmetrizers too.  With wrong
    # symmetrizers the two part ways: a step coefficient that the l-weight
    # does not reproduce is an error, not a ledger entry of the wrong size.
    import yangian_weyl.weylpath as wp

    real = wp.cartan_datum

    def skewed(t):
        datum = real(t)
        return CartanDatum(datum.lie_type, datum.cartan, (1,) * t.rank)

    monkeypatch.setattr(wp, "cartan_datum", skewed)
    t = lie_type("C", 3)
    with pytest.raises(RuntimeError, match="step 3 of C3 node 1 .* step coefficient 1$"):
        wp.parameter_ledger(t, 1)


def _revisit_node_one(wp, monkeypatch):
    monkeypatch.setattr(wp, "_applied_node_order", lambda t, b: [1, 1, 2, 3])


def _lose_inverses(wp, monkeypatch):
    moves = wp._lowering_moves

    def raising_only(t):
        return [[move for move in row if move[2] > 0] for row in moves(t)]

    monkeypatch.setattr(wp, "_lowering_moves", raising_only)


@pytest.mark.parametrize(
    "fault,b,message",
    [
        # Node 1 again at once: its coefficient is -1, held as Y^-1.
        (_revisit_node_one, 1, "step 1 of A3 node 1 .* step coefficient -1$"),
        # A lowering that drops each Y_{i,x+d_i}^-1 leaves every power
        # positive, so only the sum of the powers held trips the guard.
        (_lose_inverses, 2, "step 3 of A3 node 2 .* step coefficient 1$"),
    ],
    ids=["node-order", "lost-inverses"],
)
def test_ledger_guard_catches_a_faulty_walk(monkeypatch, fault, b, message):
    # The uncached function, so that the lru cache keeps no faulty ledger.
    import yangian_weyl.weylpath as wp

    fault(wp, monkeypatch)
    with pytest.raises(RuntimeError, match=message):
        wp.parameter_ledger.__wrapped__(lie_type("A", 3), b)


def _fixed_step(monkeypatch):
    # A type A word whose first letter fixes w_1, and no other fault.
    import yangian_weyl.weylpath as wp

    monkeypatch.setattr(wp, "_applied_node_order", lambda t, b: [3, 1, 2, 3])
    return lambda: wp.descent_chain.__wrapped__(lie_type("A", 3), 1)


def _negative_step(monkeypatch):
    # Node 1 again at once, outside type A: s_1 w_1 has coefficient -1 there.
    import yangian_weyl.weylpath as wp

    monkeypatch.setattr(wp, "_applied_node_order", lambda t, b: [1, 1])
    return lambda: wp.descent_chain.__wrapped__(lie_type("B", 3), 1)


def _short_longest_word(monkeypatch):
    # The longest word of A3 without its leftmost letter, the last to act.
    import yangian_weyl.rootsys as rs

    monkeypatch.setattr(rs, "longest_word", lambda t: longest_word(t)[1:])
    return lambda: rs.node_involution.__wrapped__(lie_type("A", 3))


@pytest.mark.parametrize(
    "fault,message",
    [
        (_fixed_step, "^type A chain word produced a fixed step$"),
        (_negative_step, "^negative step coefficient in chain of B3, node 1$"),
        (
            _short_longest_word,
            "^longest word of A3 does not send node 1 to minus a fundamental "
            "weight; word table is broken$",
        ),
    ],
    ids=["fixed-step", "negative-step", "short-longest-word"],
)
def test_walk_guards_catch_a_faulty_word(monkeypatch, fault, message):
    # The uncached functions, so that no cache keeps a faulty answer.
    call = fault(monkeypatch)
    with pytest.raises(RuntimeError, match=message):
        call()


def test_final_weight_equals_longest_word_action():
    for t in SWEEP[:6]:
        for b in all_nodes(t):
            expected = apply_word(t, longest_word(t), fundamental_weight(t, b))
            assert descent_chain(t, b).steps[-1].weight_after == expected


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
