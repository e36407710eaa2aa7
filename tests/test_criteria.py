"""Criterion sets, verdicts, and the duality transform.  Acceptance
criterion 7 checks every set up to rank 16 against `criteria_oracle`."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from yangian_weyl.criteria import (
    _ledger_sets,
    criterion_set,
    cyclicity_guaranteed,
    dual_chain,
    irreducibility_guaranteed,
)
from yangian_weyl.drinfeld import DrinfeldTuple, FactorChain, order_factors
from yangian_weyl.exact import GaussianRational as G
from yangian_weyl.rootsys import all_nodes, lie_type, node_involution

from test_rootsys import ALL_SMALL

F = Fraction


def _values(t, b_m, b_n):
    return criterion_set(t, b_m, b_n).values


def _sweep_types(top):
    """Every type of rank at most top, and G2."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return (
            [lie_type("A", l) for l in range(1, top + 1)]
            + [lie_type(f, l) for f in "BCD" for l in range(2, top + 1) if not (f == "D" and l < 3)]
            + [lie_type("G2")]
        )


def test_cyclicity_examples():
    t = lie_type("A", 3)
    verdict = cyclicity_guaranteed(FactorChain(t, ((1, G(0)), (2, G(F(3, 2))))))
    assert not verdict.guaranteed
    assert verdict.witnesses == ((1, 2, G(F(3, 2))),)
    assert not verdict.exact

    g2 = lie_type("G2")
    v2 = cyclicity_guaranteed(FactorChain(g2, ((2, G(0)), (1, G(F(9, 2))))))
    assert not v2.guaranteed and v2.witnesses[0][:2] == (1, 2)


def test_ordered_chains_always_cyclic():
    rng = random.Random(5)
    for t in (lie_type("A", 3), lie_type("B", 3), lie_type("G2")):
        for _ in range(50):
            rows = {
                node: [G(F(rng.randint(-8, 8), rng.randint(1, 2)), rng.randint(-1, 1))
                       for _ in range(rng.randint(0, 2))]
                for node in all_nodes(t)
            }
            pi = DrinfeldTuple.from_dict(t, rows)
            if pi.total_degree == 0:
                continue
            assert cyclicity_guaranteed(order_factors(pi)).guaranteed


def test_dual_chain_examples():
    t = lie_type("A", 3)
    a = G(F(7, 3))
    dual = dual_chain(FactorChain(t, ((1, a),)))
    assert dual.factors == ((3, a - G(2)),)

    chain = FactorChain(t, ((1, G(0)), (2, G(5))))
    double = dual_chain(dual_chain(chain))
    assert [node for node, _ in double.factors] == [1, 2]
    assert [x for _, x in double.factors] == [G(-4), G(1)]


def test_irreducibility_examples():
    t = lie_type("A", 3)
    bad = irreducibility_guaranteed(FactorChain(t, ((1, G(F(3, 2))), (2, G(0)))))
    assert not bad.guaranteed
    assert bad.exact  # type A verdict is an iff
    assert (2, 1, G(F(3, 2))) in bad.witnesses

    ok = irreducibility_guaranteed(FactorChain(t, ((1, G(0)), (3, G(0)))))
    assert ok.guaranteed

    complex_chain = FactorChain(t, ((1, G(0)), (2, G(0, 1)), (3, G(0, -2))))
    assert irreducibility_guaranteed(complex_chain).guaranteed

    g2 = irreducibility_guaranteed(
        FactorChain(lie_type("G2"), ((2, G(0)), (2, G(1))))
    )
    assert not g2.guaranteed and not g2.exact


def test_irreducibility_is_one_join(monkeypatch):
    # The verdict comes from the join alone: neither the dual chain nor a
    # cyclicity verdict is formed.
    import yangian_weyl.criteria as crit

    def refuse(chain):
        raise AssertionError("irreducibility_guaranteed took the duality route")

    monkeypatch.setattr(crit, "dual_chain", refuse)
    monkeypatch.setattr(crit, "cyclicity_guaranteed", refuse)
    t = lie_type("A", 3)
    assert irreducibility_guaranteed(FactorChain(t, ((1, G(0)), (3, G(0))))).guaranteed
    bad = irreducibility_guaranteed(FactorChain(t, ((1, G(F(3, 2))), (2, G(0)))))
    assert bad.witnesses == ((2, 1, G(F(3, 2))),)


def test_criterion_sets_are_invariant_under_the_involution():
    # S(p, q) = S(nu p, nu q): what makes the join's verdict the duality
    # route's.  Compared here, not only by the guard in `_doubled_sets`.
    for t in _sweep_types(24):
        nu = node_involution(t)
        for p in all_nodes(t):
            for q in all_nodes(t):
                assert _values(t, p, q) == _values(t, nu[p - 1], nu[q - 1]), (str(t), p, q)


def scan_pairs(chain, both_orders=False):
    """Oracle for the hash join in `criterion_hits`: the quadratic scan it
    replaced.  Yields (i, j, a_j - a_i) for every 1-based pair i < j (every
    i != j when both_orders) whose difference lies in S(b_i, b_j)."""
    t = chain.lie_type
    for i, (b_i, a_i) in enumerate(chain.factors, 1):
        for j, (b_j, a_j) in enumerate(chain.factors, 1):
            if j > i or (both_orders and j != i):
                diff = a_j - a_i
                if diff.im == 0 and diff.re in criterion_set(t, b_i, b_j).values:
                    yield i, j, diff


_JOIN_TYPES = [
    lie_type("A", 1), lie_type("A", 4), lie_type("B", 2), lie_type("B", 4),
    lie_type("C", 4), lie_type("D", 4), lie_type("D", 5), lie_type("G2"),
]
# Real and Gaussian parameters whose parts have denominators 1, 2, 3 and
# 6, so that 2a has denominator 1 or 3 and the join meets buckets (im, d)
# of several factors with d > 1.
_PARAMS = st.builds(
    G,
    st.builds(F, st.integers(-8, 8), st.sampled_from([1, 2, 3, 6])),
    st.sampled_from([0, 0, 1, -1, F(1, 2), F(1, 3), F(-5, 6)]),
)


@st.composite
def _planted_chains(draw):
    """A chain whose parameters repeat, with hits planted by setting
    a_j = a_i + s for some s in S(b_i, b_j).  Returns the chain and the
    0-based pair of the last plant (None if none), a hit of the chain."""
    t = draw(st.sampled_from(_JOIN_TYPES))
    pool = draw(st.lists(_PARAMS, min_size=1, max_size=4))
    factors = [
        [draw(st.integers(1, t.rank)), draw(st.sampled_from(pool) | _PARAMS)]
        for _ in range(draw(st.integers(1, 10)))
    ]
    last = None
    for _ in range(draw(st.integers(0, 3)) if len(factors) > 1 else 0):
        i, j = draw(st.lists(st.integers(0, len(factors) - 1), min_size=2, max_size=2,
                             unique=True))
        values = sorted(criterion_set(t, factors[i][0], factors[j][0]).values)
        factors[j][1] = factors[i][1] + draw(st.sampled_from(values))
        last = (i, j)
    return FactorChain(t, tuple(map(tuple, factors))), last


@settings(max_examples=200, deadline=None)
@given(_planted_chains())
def test_verdict_witnesses_match_the_pair_scan(planted):
    chain, last = planted
    cyclic = cyclicity_guaranteed(chain)
    irreducible = irreducibility_guaranteed(chain)
    assert cyclic.witnesses == tuple(scan_pairs(chain))
    assert irreducible.witnesses == tuple(scan_pairs(chain, both_orders=True))
    if last is not None:
        i, j = last
        assert (i + 1, j + 1) in {(i, j) for i, j, _ in irreducible.witnesses}


@pytest.mark.parametrize("held", [[(-4, 1)]], ids=["not-positive"])
def test_doubled_sets_refuse_a_ledger_that_breaks_the_join(monkeypatch, held):
    # The join in criterion_hits needs every value to be positive; a ledger
    # step whose 2x + 2d is not is an error.  The uncached function, so
    # that the cache keeps no such set and no cached set answers in its
    # place.
    import yangian_weyl.criteria as crit

    t = lie_type("A", 2)
    monkeypatch.setattr(crit, "_ledger_steps", lambda t, p: [(1, held, 1)])
    with pytest.raises(RuntimeError, match=r"^criterion set for A2 \(1,1\) not positive"):
        crit._ledger_sets.__wrapped__(t, 1)


@pytest.mark.parametrize("t", ALL_SMALL + [lie_type(f, 64) for f in "ABCD"], ids=str)
def test_ledger_sets_are_the_decoded_parameter_ledger(t):
    # `_ledger_sets` reads the ledger steps as doubled integers; the
    # reference decodes the `Fraction` records of `parameter_ledger`: at a
    # step on node q with divisor d, 2 S(p, q) holds 2 * offset + 2d for
    # every offset.  Every node of the small types, the end nodes at rank 64.
    from yangian_weyl.weylpath import parameter_ledger

    for p in (1, t.rank) if t.rank == 64 else all_nodes(t):
        decoded = [set() for _ in range(t.rank)]
        for entry in parameter_ledger(t, p).entries:
            for offset in entry.offsets:
                decoded[entry.node - 1].add(2 * offset + 2 * entry.divisor)
        assert _ledger_sets(t, p) == tuple(tuple(sorted(v)) for v in decoded), (str(t), p)


def test_ssets_derives_each_nodes_sets_once(capsys):
    # `_doubled_sets(t, p)` reads the sets of nu(p) to check the duality
    # identity, and `_doubled_sets(t, nu(p))` reads them again: on A8, where
    # nu swaps i and 9 - i, the cache derives each node's sets once.
    import yangian_weyl.criteria as crit
    from yangian_weyl.cli import main
    from yangian_weyl.weylpath import parameter_ledger

    for cached in (crit._ledger_sets, crit._doubled_sets, parameter_ledger):
        cached.cache_clear()
    assert main(["ssets", "--type", "A", "--rank", "8", "--json"]) == 0
    capsys.readouterr()
    assert crit._ledger_sets.cache_info().misses == 8


def test_tables_that_break_the_duality_identity_are_refused(monkeypatch):
    # An involution that swaps nodes 1 and 2 of A3, where the true one
    # swaps 1 and 3, makes S(p, q) = S(nu p, nu q) fail at every node: each
    # reader of the sets refuses the table.  The caches are cleared so that
    # no set read with the true involution is served.
    import yangian_weyl.criteria as crit

    t = lie_type("A", 3)
    for cached in (crit._doubled_sets, crit.criterion_set):
        cached.cache_clear()
    monkeypatch.setattr(crit, "node_involution", lambda t: (2, 1, 3))
    chain = FactorChain(t, ((1, G(0)), (2, G(F(1, 2)))))
    broken = r"^criterion sets for A3 break S\(p, q\) = S\(nu p, nu q\) at node [123]$"
    for read in (irreducibility_guaranteed, cyclicity_guaranteed,
                 lambda chain: criterion_set(t, 3, 1)):
        with pytest.raises(RuntimeError, match=broken):
            read(chain)
    assert crit._doubled_sets.cache_info().currsize == 0


def test_rank_two_relabelling_consistency():
    # The rank-two odd orthogonal and symplectic algebras coincide up to
    # swapping the two nodes; their criterion tables must match under the
    # same relabelling, as must the duality shift.
    from yangian_weyl.rootsys import duality_shift

    b2, c2 = lie_type("B", 2), lie_type("C", 2)
    swap = {1: 2, 2: 1}
    for bm in (1, 2):
        for bn in (1, 2):
            assert _values(b2, bm, bn) == _values(c2, swap[bm], swap[bn])
    assert duality_shift(b2) == duality_shift(c2)


def test_rank_one_irreducibility_matches_brute_force():
    from yangian_weyl.ysl2 import is_irreducible

    t = lie_type("A", 1)
    grid = [Fraction(n, 2) for n in range(-2, 5)]
    for a1 in grid:
        for a2 in grid:
            chain = FactorChain(t, ((1, G(a1)), (1, G(a2))))
            verdict = irreducibility_guaranteed(chain)
            assert verdict.exact
            assert verdict.guaranteed == is_irreducible([(1, G(a1)), (1, G(a2))])


def test_rank_one_criteria_match_brute_force():
    # For the smallest special linear algebra the criterion machinery and
    # the explicit-matrix oracle decide the same question; they must agree
    # on a full grid of pairs and triples.
    from yangian_weyl.ysl2 import is_highest_weight

    t = lie_type("A", 1)
    grid = [Fraction(n, 2) for n in range(-2, 5)]
    for a1 in grid:
        for a2 in grid:
            chain = FactorChain(t, ((1, G(a1)), (1, G(a2))))
            spun = is_highest_weight([(1, G(a1)), (1, G(a2))])
            assert cyclicity_guaranteed(chain).guaranteed == spun
    triples = [(F(0), F(1), F(2)), (F(2), F(1), F(0)), (F(0), F(0), F(1)),
               (F(1, 2), F(3, 2), F(0)), (F(3), F(1), F(2))]
    for values in triples:
        chain = FactorChain(t, tuple((1, G(v)) for v in values))
        spun = is_highest_weight([(1, G(v)) for v in values])
        assert cyclicity_guaranteed(chain).guaranteed == spun
