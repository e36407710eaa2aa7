"""Cartan data, reflections, longest words, and derived invariants."""

from __future__ import annotations

import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from yangian_weyl.criteria import _doubled_sets, _ledger_sets, criterion_set
from yangian_weyl.dims import lie_fundamental_dim, yangian_fundamental_dim
from yangian_weyl.drinfeld import DrinfeldTuple, FactorChain
from yangian_weyl.rootsys import (
    LieType,
    _walk,
    all_nodes,
    apply_word,
    cartan_datum,
    duality_shift,
    fundamental_weight,
    is_positive_root_vector,
    lie_type,
    longest_word,
    node_involution,
    positive_roots,
    reflect,
    reflect_root,
)
from yangian_weyl.weylpath import descent_chain, parameter_ledger

from ambient_tables import ambient

ALL_SMALL = [
    lie_type("A", 1), lie_type("A", 2), lie_type("A", 3), lie_type("A", 5),
    lie_type("B", 2), lie_type("B", 3), lie_type("B", 5),
    lie_type("C", 2), lie_type("C", 3), lie_type("C", 5),
    lie_type("D", 4), lie_type("D", 5), lie_type("D", 6),
    lie_type("G2"),
]


def test_cartan_matrix_examples():
    assert cartan_datum(lie_type("A", 2)).cartan == ((2, -1), (-1, 2))
    assert cartan_datum(lie_type("A", 2)).d == (1, 1)
    assert cartan_datum(lie_type("G2")).cartan == ((2, -1), (-3, 2))
    assert cartan_datum(lie_type("G2")).d == (3, 1)
    assert cartan_datum(lie_type("B", 2)).cartan == ((2, -1), (-2, 2))
    assert cartan_datum(lie_type("B", 2)).d == (2, 1)
    assert cartan_datum(lie_type("C", 2)).cartan == ((2, -2), (-1, 2))
    assert cartan_datum(lie_type("C", 3)).d == (1, 1, 2)
    assert cartan_datum(lie_type("B", 4)).d == (2, 2, 2, 1)
    d4 = cartan_datum(lie_type("D", 4)).cartan
    assert d4 == ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))


@pytest.mark.parametrize("t", ALL_SMALL, ids=str)
def test_symmetrized_cartan_is_symmetric(t):
    datum = cartan_datum(t)
    l = t.rank
    for i in range(l):
        for j in range(l):
            assert datum.d[i] * datum.cartan[i][j] == datum.d[j] * datum.cartan[j][i]


def test_invalid_ranks():
    with pytest.raises(ValueError):
        lie_type("B", 1)
    with pytest.raises(ValueError):
        lie_type("D", 2)
    with pytest.raises(ValueError):
        lie_type("G2", 3)
    with pytest.raises(ValueError):
        lie_type("E", 6)
    with pytest.raises(ValueError, match="^rank required$"):
        lie_type("A")
    for rank in (True, 2.0, "3"):
        with pytest.raises(ValueError, match="^rank must be a positive integer$"):
            lie_type("A", rank)
    with pytest.warns(UserWarning):
        lie_type("D", 3)


def test_d3_warning_points_past_dataclass_init():
    with pytest.warns(UserWarning) as record:
        lie_type("D", 3)
    assert record[0].filename == __file__


def test_lie_type_hands_out_one_instance_per_family_and_rank():
    # Tables cached on the type then find their key by identity.
    assert lie_type("B", 3) is lie_type("B", 3)
    assert lie_type("G2") is lie_type("G2", 2)
    assert lie_type("C", 3) is not lie_type("B", 3)
    # The D3 warning stays outside the cache: every call raises it.
    types = []
    for _ in range(2):
        with pytest.warns(UserWarning) as record:
            types.append(lie_type("D", 3))
        assert record[0].filename == __file__
    assert types[0] is types[1]


# Every public function that takes a node, called with node b.
NODE_TAKERS = {
    "criterion_set(b, 1)": lambda t, b: criterion_set(t, b, 1),
    "criterion_set(1, b)": lambda t, b: criterion_set(t, 1, b),
    "descent_chain": descent_chain,
    "parameter_ledger": parameter_ledger,
    "lie_fundamental_dim": lie_fundamental_dim,
    "yangian_fundamental_dim": yangian_fundamental_dim,
    "fundamental_weight": fundamental_weight,
    "reflect": lambda t, b: reflect(t, (1,) * t.rank, b),
    "DrinfeldTuple.from_dict": lambda t, b: DrinfeldTuple.from_dict(t, {b: [0]}),
    "FactorChain": lambda t, b: FactorChain(t, ((b, 0),)),
}


@pytest.mark.parametrize("t", [lie_type("A", 1), lie_type("B", 3), lie_type("G2")], ids=str)
@pytest.mark.parametrize("name", sorted(NODE_TAKERS))
def test_node_taking_functions_reject_out_of_range_nodes(name, t):
    for b in (0, -1, t.rank + 1):
        with pytest.raises(ValueError, match=f"^node {b} out of range for {t}$"):
            NODE_TAKERS[name](t, b)
    for b in (True, 1.5, "1"):
        with pytest.raises(ValueError, match="^node must be a positive integer$"):
            NODE_TAKERS[name](t, b)


def _pair(s):
    return s.b_m, s.b_n


# Every cache keyed by a node, and the nodes its answer for node b carries.
# The sets carry none; theirs is that of the ledger they are read off.
NODE_CACHES = {
    "descent_chain": lambda t, b: (descent_chain(t, b).node,),
    "parameter_ledger": lambda t, b: (parameter_ledger(t, b).node,),
    "_doubled_sets": lambda t, b: _doubled_sets(t, b) and (parameter_ledger(t, b).node,),
    "_ledger_sets": lambda t, b: _ledger_sets(t, b) and (parameter_ledger(t, b).node,),
    "criterion_set(b, 1)": lambda t, b: _pair(criterion_set(t, b, 1)),
    "criterion_set(1, b)": lambda t, b: _pair(criterion_set(t, 1, b)),
}


@pytest.mark.parametrize("bool_first", [True, False])
@pytest.mark.parametrize("name", sorted(NODE_CACHES))
def test_node_keyed_caches_never_answer_for_a_bool(name, bool_first):
    # True == 1 and hash(True) == hash(1): an untyped cache would hand the
    # answer for one to the other.
    for cached in (descent_chain, parameter_ledger, _ledger_sets, _doubled_sets, criterion_set):
        cached.cache_clear()
    t = lie_type("A", 3)
    for b in ((True, 1) if bool_first else (1, True)):
        if b is True:
            with pytest.raises(ValueError, match="^node must be a positive integer$"):
                NODE_CACHES[name](t, b)
        else:
            nodes = NODE_CACHES[name](t, b)
            assert nodes == (1,) * len(nodes) and all(type(n) is int for n in nodes)


def test_reflect_examples():
    for l in (4, 5, 6):
        t = lie_type("D", l)
        w = reflect(t, fundamental_weight(t, l - 1), l - 1)
        expected = tuple(
            1 if j == l - 3 else -1 if j == l - 2 else 0 for j in range(l)
        )
        assert w == expected  # s_{l-1}(w_{l-1}) = w_{l-2} - w_{l-1}
    t = lie_type("B", 3)
    for i in all_nodes(t):
        for j in all_nodes(t):
            if i != j:
                assert reflect(t, fundamental_weight(t, j), i) == fundamental_weight(t, j)
    assert reflect(lie_type("G2"), (1, 0), 1) == (-1, 3)


@pytest.mark.parametrize("t", ALL_SMALL, ids=str)
def test_reflect_is_involutive(t):
    import random

    rng = random.Random(str(t))
    for _ in range(10):
        w = tuple(rng.randint(-3, 3) for _ in range(t.rank))
        for i in all_nodes(t):
            assert reflect(t, reflect(t, w, i), i) == w
    with pytest.raises(ValueError):
        reflect(t, (0,) * t.rank, t.rank + 1)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sparse_walk_matches_the_dense_reflections(data):
    # The walk against the dense reference: `reflect` letter by letter,
    # and `apply_word`, which reads a word right to left.  Small weights
    # hold zeros, so letters that fix the weight are drawn often.
    t = data.draw(st.sampled_from(ALL_SMALL), label="type")
    w = data.draw(st.lists(st.integers(-3, 3), min_size=t.rank, max_size=t.rank), label="w")
    letters = data.draw(st.lists(st.integers(1, t.rank), max_size=3 * t.rank), label="letters")
    dense, moving = tuple(w), []
    for k in letters:
        after = reflect(t, dense, k)
        if after != dense:
            moving.append((k, dense[k - 1]))
        dense = after
    walked = list(w)
    assert list(_walk(t, walked, letters)) == moving
    assert tuple(walked) == dense == apply_word(t, letters[::-1], tuple(w))


def test_longest_word_examples():
    assert longest_word(lie_type("G2")) == (1, 2, 1, 2, 1, 2)
    assert longest_word(lie_type("A", 2)) == (2, 1, 2)
    assert longest_word(lie_type("B", 2)) == (2, 1, 2, 1)
    assert longest_word(lie_type("A", 1)) == (1,)
    assert longest_word(lie_type("D", 4)) == (4, 3, 2, 4, 3, 2, 1, 2, 4, 3, 2, 1)


@pytest.mark.parametrize("t", ALL_SMALL, ids=str)
def test_longest_word_invariants(t):
    word = longest_word(t)
    roots = positive_roots(t)
    assert len(word) == len(roots)
    nu = node_involution(t)
    for i in all_nodes(t):
        image = apply_word(t, word, fundamental_weight(t, i))
        assert image == tuple(-c for c in fundamental_weight(t, nu[i - 1]))
    for root in roots:
        image = root
        for node in reversed(word):
            image = reflect_root(t, image, node)
        assert all(c <= 0 for c in image) and any(c < 0 for c in image)


def test_node_involution_examples():
    assert node_involution(lie_type("A", 3)) == (3, 2, 1)
    assert node_involution(lie_type("B", 4)) == (1, 2, 3, 4)
    assert node_involution(lie_type("C", 5)) == (1, 2, 3, 4, 5)
    assert node_involution(lie_type("G2")) == (1, 2)
    assert node_involution(lie_type("D", 5)) == (1, 2, 3, 5, 4)
    assert node_involution(lie_type("D", 4)) == (1, 2, 3, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert node_involution(lie_type("D", 3)) == (1, 3, 2)


def _dual_coxeter_from_roots(t: LieType) -> Fraction:
    # 1 + sum of the highest root's coefficients in the coroot basis,
    # computed from the positive-root table and the symmetrizers.
    datum = cartan_datum(t)
    theta = max(positive_roots(t), key=sum)
    d_theta = max(
        datum.d[i] for i, c in enumerate(theta) if c
    )  # theta is a long root
    total = sum(
        Fraction(c * datum.d[i], d_theta) for i, c in enumerate(theta)
    )
    return 1 + total


@pytest.mark.parametrize("t", ALL_SMALL, ids=str)
def test_duality_shift_is_half_dual_coxeter(t):
    assert duality_shift(t) == Fraction(_dual_coxeter_from_roots(t), 2)


@pytest.mark.parametrize("t", ALL_SMALL, ids=str)
def test_positive_root_counts(t):
    l = t.rank
    expected = {
        "A": l * (l + 1) // 2,
        "B": l * l,
        "C": l * l,
        "D": l * (l - 1),
        "G2": 6,
    }[t.family]
    roots = positive_roots(t)
    assert len(roots) == len(set(roots)) == expected
    assert all(is_positive_root_vector(r) for r in roots)


def test_positive_root_examples():
    assert set(positive_roots(lie_type("A", 2))) == {(1, 0), (0, 1), (1, 1)}
    g2 = set(positive_roots(lie_type("G2")))
    assert (2, 3) in g2 and len(g2) == 6
    assert set(positive_roots(lie_type("B", 2))) == {(1, 0), (0, 1), (1, 1), (1, 2)}


@pytest.mark.parametrize(
    "t,order",
    [
        (lie_type("A", 2), 6),
        (lie_type("B", 2), 8),
        (lie_type("G2"), 12),
        (lie_type("A", 3), 24),
        (lie_type("C", 3), 48),
        (lie_type("D", 4), 192),
    ],
    ids=str,
)
def test_weyl_group_order_by_orbit(t, order):
    # The orbit of a regular weight has exactly |W| elements.
    start = tuple(1 for _ in range(t.rank))
    seen = {start}
    frontier = [start]
    while frontier:
        w = frontier.pop()
        for i in all_nodes(t):
            image = reflect(t, w, i)
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    assert len(seen) == order


@pytest.mark.parametrize("t", ALL_SMALL, ids=str)
def test_mu_tables_match_cartan_data(t):
    datum = cartan_datum(t)
    form = ambient(t).form
    roots = ambient(t).simple_roots
    weights = ambient(t).fundamental_weights
    for i in range(t.rank):
        for j in range(t.rank):
            # <alpha_i, alpha_j-coroot> recovers the Cartan matrix entry a_{ji}.
            assert 2 * form(roots[i], roots[j]) == datum.cartan[j][i] * form(
                roots[j], roots[j]
            )
            pairing = 2 * form(weights[i], roots[j])
            assert pairing == (form(roots[j], roots[j]) if i == j else 0)
