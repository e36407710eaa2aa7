"""Criterion sets, verdicts, and the duality transform."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from yangian_weyl.criteria import (
    criterion_set,
    criterion_set_from_ledger,
    cyclicity_guaranteed,
    dual_chain,
    irreducibility_guaranteed,
)
from yangian_weyl.drinfeld import DrinfeldTuple, FactorChain, order_factors
from yangian_weyl.exact import GaussianRational as G
from yangian_weyl.rootsys import all_nodes, lie_type

F = Fraction


def _values(t, b_m, b_n):
    return criterion_set(t, b_m, b_n).values


def test_criterion_set_examples():
    assert _values(lie_type("A", 3), 1, 2) == {F(3, 2)}
    assert _values(lie_type("G2"), 2, 1) == {F(9, 2), F(13, 2)}
    assert _values(lie_type("C", 2), 2, 2) == {F(2), F(3)}
    assert _values(lie_type("G2"), 2, 2) == {F(1), F(3), F(4), F(6)}
    assert _values(lie_type("G2"), 1, 2) == {F(1, 2), F(3, 2), F(5, 2), F(7, 2), F(9, 2)}
    assert _values(lie_type("B", 4), 4, 4) == {F(1), F(3), F(5), F(7)}
    assert _values(lie_type("D", 5), 4, 5) == {F(2), F(4)}
    assert _values(lie_type("D", 4), 4, 4) == {F(1), F(3)}
    assert _values(lie_type("A", 3), 1, 3) == {F(2)}


def test_criterion_sets_positive_everywhere():
    for t in (
        lie_type("A", 6), lie_type("B", 5), lie_type("C", 5),
        lie_type("D", 5), lie_type("G2"),
    ):
        for b_m in all_nodes(t):
            for b_n in all_nodes(t):
                assert all(v > 0 for v in _values(t, b_m, b_n))


@pytest.mark.parametrize("l", range(2, 11))
def test_type_a_symmetries(l):
    t = lie_type("A", l)
    for b_m in all_nodes(t):
        for b_n in all_nodes(t):
            assert _values(t, b_m, b_n) == _values(t, b_n, b_m)
            assert _values(t, l + 1 - b_n, l + 1 - b_m) == _values(t, b_m, b_n)


def test_oracle_matches_closed_form_spot():
    assert criterion_set_from_ledger(lie_type("A", 3), 1, 2).values == {F(3, 2)}
    assert criterion_set_from_ledger(lie_type("A", 4), 2, 3).values == {
        F(3, 2), F(5, 2),
    }
    assert criterion_set_from_ledger(lie_type("G2"), 1, 2).values == _values(
        lie_type("G2"), 1, 2
    )


def _oracle_sweep_types():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return (
            [lie_type("A", l) for l in range(2, 11)]
            + [lie_type(f, l) for f in "BCD" for l in range(2, 7) if not (f == "D" and l < 3)]
            + [lie_type("G2")]
        )


@pytest.mark.parametrize("t", _oracle_sweep_types(), ids=str)
def test_oracle_matches_closed_form_sweep(t):
    for b_m in all_nodes(t):
        for b_n in all_nodes(t):
            closed = criterion_set(t, b_m, b_n).values
            derived = criterion_set_from_ledger(t, b_m, b_n).values
            assert closed == derived, (str(t), b_m, b_n)


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


def _random_chain(rng, t, max_len=5):
    k = rng.randint(1, max_len)
    return FactorChain(
        t,
        tuple(
            (
                rng.randint(1, t.rank),
                G(F(rng.randint(-6, 6), rng.randint(1, 2)), rng.choice([0, 0, 1, -1])),
            )
            for _ in range(k)
        ),
    )


@pytest.mark.parametrize(
    "t",
    [lie_type("A", 4), lie_type("B", 3), lie_type("C", 3), lie_type("D", 4), lie_type("G2")],
    ids=str,
)
def test_irreducibility_agrees_with_duality_route(t):
    # irreducibility_guaranteed raises internally if the direct pair scan
    # ever disagrees with cyclicity of the chain and of its dual.
    rng = random.Random(hash(str(t)) & 0xFFFF)
    for _ in range(300):
        chain = _random_chain(rng, t)
        verdict = irreducibility_guaranteed(chain)
        assert verdict.guaranteed == (not verdict.witnesses)


def test_node_validation():
    with pytest.raises(ValueError):
        criterion_set(lie_type("A", 3), 0, 1)
    with pytest.raises(ValueError):
        criterion_set_from_ledger(lie_type("A", 3), 1, 4)


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


def test_oracle_mismatch_is_loud(monkeypatch):
    # The ledger rederivation is a cross-check, not a fallback: if the
    # closed form ever disagreed, the call must fail with both sets.
    import yangian_weyl.criteria as crit

    t = lie_type("A", 12)  # rank unused elsewhere, so nothing is cached yet
    real = crit.criterion_set

    def skewed(tt, bm, bn):
        full = real(tt, bm, bn)
        return crit.CriterionSet(
            tt, bm, bn, frozenset(set(full.values) | {Fraction(999)})
        )

    monkeypatch.setattr(crit, "criterion_set", skewed)
    with pytest.raises(crit.CriterionSetMismatch, match="999"):
        crit.criterion_set_from_ledger(t, 1, 2)


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
